"""The surrogate-search paths that packed keys and the fixed-depth walk replaced.

Kept verbatim, outside ``src/``, as differential oracles:

* the proposal path keyed each point by its int64 bytes, deduped the pool
  with a row-wise ``np.unique(pool, axis=0)`` and checked the seen set one
  byte string at a time (``_point_key``, ``_row_keys``, :func:`dedupe_pool`,
  :func:`propose_batch`);
* prediction moved every still-internal cursor one level per pass and
  dropped the cursors that reached a leaf (:func:`descend`), over a forest
  table whose leaves had no children (:func:`forest_predict`).

``tests/test_bayesopt.py`` compares the current code with these on pools,
proposals and predictions, bit for bit.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.bayesopt.optimizer import CANDIDATE_POOL_SIZE


def _point_key(point: Sequence[int]) -> bytes:
    """Canonical hashable key for a point (int64 little-endian bytes)."""
    return np.asarray(point, dtype=np.int64).tobytes()


def _row_keys(rows: np.ndarray) -> List[bytes]:
    """Per-row canonical keys of a ``(count, d)`` integer point array."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    return [row.tobytes() for row in rows]


def dedupe_pool(pool: np.ndarray) -> np.ndarray:
    """Order-preserving dedup (first occurrence wins, like dict.fromkeys)."""
    _, first_occurrence = np.unique(pool, axis=0, return_index=True)
    return pool[np.sort(first_occurrence)]


def propose_batch(optimizer, surrogate, seen_points, best_point, count):
    """``BayesianOptimizer._propose_batch`` on byte keys, drawing from ``optimizer``'s RNG."""
    space, rng = optimizer._space, optimizer._rng
    seen_keys = {_point_key(point) for point in seen_points}
    half = CANDIDATE_POOL_SIZE // 2
    pool = space.sample_array(half, rng)
    if best_point is not None:
        pool = np.concatenate(
            [pool, space.neighbors_array(best_point, rng, count=CANDIDATE_POOL_SIZE - half)]
        )
    pool = dedupe_pool(pool)
    unseen_rows = [
        index for index, key in enumerate(_row_keys(pool)) if key not in seen_keys
    ]
    if not unseen_rows:
        for _ in range(10):
            block = space.sample_array(100, rng)
            for row, key in zip(block.tolist(), _row_keys(block)):
                if key not in seen_keys:
                    return [tuple(row)]
        return []
    unseen = pool[unseen_rows]
    mean, _ = surrogate.predict_with_uncertainty(unseen.astype(float))
    order = np.argsort(mean, kind="stable")[:count]
    return [tuple(row) for row in unseen[order].tolist()]


def descend(
    features: np.ndarray,
    cursors: np.ndarray,
    feature: np.ndarray,
    threshold: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    value: np.ndarray,
    row_index: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Advance every cursor to its leaf and return the leaf values.

    Level-wise iterative traversal: each pass moves every still-internal
    cursor one level down with pure array gathers, so the loop runs at most
    ``max_depth`` times regardless of how many rows are being predicted.
    ``row_index`` maps cursor slots to ``features`` rows when the two are
    not 1:1 (the forest points several per-tree cursors at each query row);
    by default cursor ``i`` reads ``features[i]``.
    """
    active = np.nonzero(feature[cursors] >= 0)[0]
    while active.size:
        nodes = cursors[active]
        rows = active if row_index is None else row_index[active]
        go_left = features[rows, feature[nodes]] <= threshold[nodes]
        cursors[active] = np.where(go_left, left[nodes], right[nodes])
        active = active[feature[cursors[active]] >= 0]
    return value[cursors]


def tree_predict(tree, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=float)
    cursors = np.zeros(len(features), dtype=np.int32)
    return descend(features, cursors, *tree.node_arrays())


def forest_predict(forest, features: np.ndarray):
    """``(mean, std)`` from the leaf-terminated concatenated table and :func:`descend`."""
    trees = forest.trees
    counts = np.array([tree.node_count for tree in trees])
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    roots = offsets.astype(np.int64)
    features_, thresholds, lefts, rights, values = [], [], [], [], []
    for tree, offset in zip(trees, offsets):
        feature, threshold, left, right, value = tree.node_arrays()
        features_.append(feature)
        thresholds.append(threshold)
        lefts.append(np.where(left >= 0, left + offset, -1))
        rights.append(np.where(right >= 0, right + offset, -1))
        values.append(value)
    features = np.asarray(features, dtype=float)
    num_rows = len(features)
    cursors = np.repeat(roots, num_rows).astype(np.int64)
    tiled_rows = np.tile(np.arange(num_rows), len(trees))
    leaves = descend(
        features,
        cursors,
        np.concatenate(features_),
        np.concatenate(thresholds),
        np.concatenate(lefts).astype(np.int64),
        np.concatenate(rights).astype(np.int64),
        np.concatenate(values),
        row_index=tiled_rows,
    )
    predictions = leaves.reshape(len(trees), num_rows)
    return predictions.mean(axis=0), predictions.std(axis=0)
