"""Vectorized random-forest regression surrogate.

The paper (via HyperMapper) uses a random-forest surrogate because the CAFQA
search space is discrete.  The original from-scratch implementation (kept as
the test oracle in ``tests/reference_forest.py``) stored trees as linked
``_Node`` objects, re-computed ``np.var`` for every candidate threshold, and
predicted one Python row at a time — at 400 observations x 72 parameters the
surrogate refit dominated end-to-end search wall-clock by ~100x over the
stabilizer simulator.

This engine keeps the same statistical model (variance-reduction CART
splits, bootstrap bagging, per-node feature subsampling, across-tree
uncertainty) but stores and computes everything on flat arrays:

* **Split scan**: each node sorts its candidate-feature submatrix once and
  scans every threshold of every candidate feature with cumulative-sum
  sum-of-squared-error formulas — O(n log n) per feature instead of an
  O(n * thresholds) re-masked ``np.var`` per threshold.  Tie-breaking is
  deterministic: the first arg-max in scan order wins (thresholds ascending
  within a feature, candidate features in draw order).
* **Flat storage**: nodes live in parallel ``feature`` / ``threshold`` /
  ``left`` / ``right`` / ``value`` arrays (``feature == -1`` marks a leaf);
  there is no per-node Python object.
* **Batch predict**: whole query matrices walk the tree a fixed number of
  levels (its depth) via index-array gathers, in a node table whose leaves
  loop to themselves — zero Python recursion, no active-set filtering.  The
  forest concatenates all of its trees into one such table so an ensemble
  prediction is a single walk of ``num_trees x num_rows`` cursors.

Candidate feature subsets come from an argsort-of-uniforms draw and children
partition straight from the sorted order.  Fits are fully deterministic for
a given generator state; seeded search trajectories are pinned by
golden-trace tests, and the split rule is checked against the oracle's
exhaustive scan.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import OptimizationError

_MIN_GAIN = 1e-12


class DecisionTreeRegressor:
    """CART-style regression tree with variance-reduction splits.

    After :meth:`fit` the tree is five parallel arrays; ``feature[i] == -1``
    marks node ``i`` as a leaf whose prediction is ``value[i]``.
    """

    def __init__(
        self,
        max_depth: int = 12,
        min_samples_split: int = 4,
        min_samples_leaf: int = 2,
        max_features: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        self._max_depth = int(max_depth)
        self._min_samples_split = int(min_samples_split)
        self._min_samples_leaf = int(min_samples_leaf)
        self._max_features = max_features
        self._rng = rng if rng is not None else np.random.default_rng()
        self._feature: Optional[np.ndarray] = None
        self._threshold: Optional[np.ndarray] = None
        self._left: Optional[np.ndarray] = None
        self._right: Optional[np.ndarray] = None
        self._value: Optional[np.ndarray] = None
        self._feature_rows: Optional[np.ndarray] = None
        self._counts: Optional[np.ndarray] = None
        self._depth = 0

    # ------------------------------------------------------------------ #
    @property
    def node_count(self) -> int:
        return 0 if self._value is None else len(self._value)

    def node_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(feature, threshold, left, right, value)`` in left-first pre-order."""
        if self._value is None:
            raise OptimizationError("the tree has not been fitted")
        return self._feature, self._threshold, self._left, self._right, self._value

    # ------------------------------------------------------------------ #
    def fit(self, features: np.ndarray, targets: np.ndarray) -> "DecisionTreeRegressor":
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if features.ndim != 2 or len(features) != len(targets):
            raise OptimizationError("features must be 2-D and aligned with targets")
        if len(targets) == 0:
            raise OptimizationError("cannot fit a tree on zero samples")
        num_features = features.shape[1]
        max_features = self._max_features or num_features
        max_features = min(max_features, num_features)
        # Transposed copy: every per-feature kernel in the split scan (sort,
        # cumulative sums, threshold comparisons) then runs along a
        # contiguous row instead of a strided column.  The two scratch
        # arrays are shared by every node of this fit.
        features_t = np.ascontiguousarray(features.T)
        self._feature_rows = np.arange(max_features)[:, None]
        self._counts = np.arange(1, len(targets) + 1, dtype=float)

        feature_ids: List[int] = []
        thresholds: List[float] = []
        lefts: List[int] = []
        rights: List[int] = []
        values: List[float] = []

        # Left-first pre-order DFS via an explicit stack: pop a node, draw its
        # candidate features, split, push right then left so the left child is
        # processed (and consumes RNG) before the whole right subtree.
        stack: List[Tuple[np.ndarray, int, int, bool]] = [
            (np.arange(len(targets)), 0, -1, False)
        ]
        self._depth = 0
        while stack:
            rows, depth, parent, is_left = stack.pop()
            node_id = len(values)
            if parent >= 0:
                if is_left:
                    lefts[parent] = node_id
                else:
                    rights[parent] = node_id
            node_targets = targets[rows]
            # ``arr.sum() / n`` is bit-identical to ``np.mean`` (same pairwise
            # add.reduce, same scalar division) without the wrapper overhead;
            # the explicit comparison below is ``np.allclose(t, t[0])`` for
            # finite targets, again minus the wrapper stack.
            values.append(float(node_targets.sum() / len(rows)))
            feature_ids.append(-1)
            thresholds.append(0.0)
            lefts.append(-1)
            rights.append(-1)
            first = float(node_targets[0])
            if (
                depth >= self._max_depth
                or len(rows) < self._min_samples_split
                or bool(
                    (np.abs(node_targets - first) <= 1e-8 + 1e-5 * abs(first)).all()
                )
            ):
                continue
            # Uniform feature subset via argsort-of-uniforms: the same
            # distribution as ``rng.choice(..., replace=False)`` at a
            # fraction of the per-node cost.
            candidates = self._rng.random(num_features).argsort()[:max_features]
            split = self._best_split(features_t, rows, node_targets, candidates)
            if split is None:
                continue
            split_feature, split_threshold, left_rows, right_rows = split
            feature_ids[node_id] = split_feature
            thresholds[node_id] = split_threshold
            stack.append((right_rows, depth + 1, node_id, False))
            stack.append((left_rows, depth + 1, node_id, True))
            self._depth = max(self._depth, depth + 1)

        self._feature = np.array(feature_ids, dtype=np.int32)
        self._threshold = np.array(thresholds, dtype=float)
        self._left = np.array(lefts, dtype=np.int32)
        self._right = np.array(rights, dtype=np.int32)
        self._value = np.array(values, dtype=float)
        return self

    def _best_split(
        self,
        features_t: np.ndarray,
        rows: np.ndarray,
        node_targets: np.ndarray,
        candidates: np.ndarray,
    ) -> Optional[Tuple[int, float, np.ndarray, np.ndarray]]:
        """Best split as ``(feature, threshold, left_rows, right_rows)``.

        One sort per candidate feature; every threshold of every candidate is
        scored in a single cumulative-sum pass, using the identity

            gain = parent_sse - left_sse - right_sse
                 = const(node) + left_sum^2/left_n + right_sum^2/right_n

        so only the cumulative *sums* are needed for ranking (the squared
        terms cancel).  The first arg-max cell in scan order wins.  Cells
        that tie in exact arithmetic (different features inducing the same,
        possibly mirrored, partition) can differ in the last ulp because
        each feature accumulates the targets in its own sort order, so the
        winner among exact ties is decided by rounding; it is always a
        maximal-gain split up to that rounding.
        """
        num_samples = len(rows)
        min_leaf = max(1, self._min_samples_leaf)
        # Split position i (0-based into the sorted order) puts sorted rows
        # [0, i] left; only i in [min_leaf-1, n-min_leaf-1] can satisfy both
        # leaf minima, so all per-threshold arrays live on that window.
        window_lo = min_leaf - 1
        window_hi = num_samples - min_leaf
        if window_hi <= window_lo:
            return None

        submatrix = features_t[candidates[:, None], rows[None, :]]  # (f, n)
        order = submatrix.argsort(axis=1)
        sorted_values = submatrix[self._feature_rows, order]
        sorted_targets = node_targets[order[:, :window_hi]]

        left_sums = sorted_targets.cumsum(axis=1)[:, window_lo:]
        total = float(node_targets.sum())
        left_counts = self._counts[window_lo:window_hi]
        scores = left_sums * left_sums / left_counts + (total - left_sums) ** 2 / (
            num_samples - left_counts
        )
        # Only boundaries between distinct sorted values are real thresholds.
        scores[
            sorted_values[:, window_lo + 1 : window_hi + 1]
            <= sorted_values[:, window_lo:window_hi]
        ] = -np.inf

        # First arg-max in C order = thresholds ascending within each
        # candidate feature, features in draw order — deterministic.
        best_flat = int(scores.argmax())
        best_feature, best_window = divmod(best_flat, scores.shape[1])
        max_score = float(scores[best_feature, best_window])
        if max_score == -np.inf:
            return None
        # One-pass acceptance: gain = max_score - total^2/n up to
        # rounding, which is all the 1e-12 positivity check needs.
        if not max_score - total * total / num_samples > _MIN_GAIN:
            return None
        best_position = best_window + window_lo
        threshold = float(
            (
                sorted_values[best_feature, best_position]
                + sorted_values[best_feature, best_position + 1]
            )
            / 2.0
        )
        # The sorted order already encodes the partition: rows [0, i]
        # of the winning feature's sort go left.
        sorted_rows = rows[order[best_feature]]
        return (
            int(candidates[best_feature]),
            threshold,
            sorted_rows[: best_position + 1],
            sorted_rows[best_position + 1 :],
        )

    # ------------------------------------------------------------------ #
    def predict(self, features: np.ndarray) -> np.ndarray:
        if self._value is None:
            raise OptimizationError("the tree has not been fitted")
        features = np.asarray(features, dtype=float)
        table = _walk_table(self._feature, self._threshold, self._left, self._right)
        cursors = np.zeros(len(features), dtype=np.int64)
        row_offsets = np.arange(len(features)) * features.shape[1]
        return self._value[_walk(features, row_offsets, cursors, table, self._depth)]


def _walk_table(
    feature: np.ndarray, threshold: np.ndarray, left: np.ndarray, right: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(feature, threshold, children)`` of a node table in which leaves loop.

    A leaf reads feature 0 against ``+inf`` and is both of its own children.
    Node ``i``'s children are ``children[2 * i + 1]`` (left) and ``[2 * i]``.
    """
    leaf = feature < 0
    nodes = np.arange(len(feature))
    children = np.stack([np.where(leaf, nodes, right), np.where(leaf, nodes, left)], axis=1)
    return np.where(leaf, 0, feature), np.where(leaf, np.inf, threshold), children.ravel()


def _walk(
    features: np.ndarray,
    row_offsets: np.ndarray,
    cursors: np.ndarray,
    table: Tuple[np.ndarray, np.ndarray, np.ndarray],
    steps: int,
) -> np.ndarray:
    """The node each cursor reaches after ``steps`` moves down ``table``.

    Cursor ``i`` reads the row at ``row_offsets[i]`` of the flat ``features``;
    with ``steps`` at least the tree depth, every cursor ends on its leaf.
    """
    feature, threshold, children = table
    flat = features.ravel()
    for _ in range(steps):
        goes_left = flat[row_offsets + feature[cursors]] <= threshold[cursors]
        cursors = children[2 * cursors + goes_left]
    return cursors


class RandomForestRegressor:
    """Bagged ensemble of vectorized regression trees with uncertainty.

    At the end of :meth:`fit` the per-tree node arrays are concatenated into
    one walk table (child indices offset per tree), so
    :meth:`predict_with_uncertainty` runs a single fixed-depth walk of
    ``num_trees x num_rows`` cursors instead of one Python pass per tree.
    """

    def __init__(
        self,
        num_trees: int = 20,
        max_depth: int = 12,
        min_samples_split: int = 4,
        min_samples_leaf: int = 2,
        feature_fraction: float = 0.7,
        seed: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        if num_trees < 1:
            raise OptimizationError("the forest needs at least one tree")
        if not 0.0 < feature_fraction <= 1.0:
            raise OptimizationError("feature_fraction must be in (0, 1]")
        self._num_trees = int(num_trees)
        self._max_depth = int(max_depth)
        self._min_samples_split = int(min_samples_split)
        self._min_samples_leaf = int(min_samples_leaf)
        self._feature_fraction = float(feature_fraction)
        # An injected generator takes precedence over ``seed`` so callers can
        # derive forests from a single owned RNG stream (the Bayesian
        # optimizer does this per refit for decorrelated, reproducible fits).
        self._rng = rng if rng is not None else np.random.default_rng(seed)
        self._trees: List[DecisionTreeRegressor] = []
        self._roots: Optional[np.ndarray] = None
        self._table: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._value: Optional[np.ndarray] = None
        self._depth = 0

    @property
    def num_trees(self) -> int:
        return self._num_trees

    @property
    def trees(self) -> List[DecisionTreeRegressor]:
        return list(self._trees)

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "RandomForestRegressor":
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if len(features) == 0:
            raise OptimizationError("cannot fit a forest on zero samples")
        num_samples, num_features = features.shape
        max_features = max(1, int(round(self._feature_fraction * num_features)))
        self._trees = []
        for _ in range(self._num_trees):
            indices = self._rng.integers(0, num_samples, size=num_samples)
            tree = DecisionTreeRegressor(
                max_depth=self._max_depth,
                min_samples_split=self._min_samples_split,
                min_samples_leaf=self._min_samples_leaf,
                max_features=max_features,
                rng=self._rng,
            )
            tree.fit(features[indices], targets[indices])
            self._trees.append(tree)
        self._concatenate()
        return self

    def _concatenate(self) -> None:
        """Fuse the per-tree node arrays into one walk table (children offset per tree)."""
        arrays = [tree.node_arrays() for tree in self._trees]
        counts = [len(value) for *_, value in arrays]
        offsets = np.cumsum([0] + counts[:-1])
        self._roots = offsets.astype(np.int64)
        feature, threshold, left, right, self._value = (
            np.concatenate(column) for column in zip(*arrays)
        )
        shift = np.repeat(self._roots, counts)
        self._table = _walk_table(feature, threshold, left + shift, right + shift)
        self._depth = max(tree._depth for tree in self._trees)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Mean prediction across trees."""
        mean, _ = self.predict_with_uncertainty(features)
        return mean

    def predict_with_uncertainty(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(mean, standard deviation) across the ensemble."""
        if self._value is None:
            raise OptimizationError("the forest has not been fitted")
        features = np.asarray(features, dtype=float)
        num_rows = len(features)
        # One cursor per (tree, row) pair; rows tile so row r of the query
        # matrix backs cursors r, r + num_rows, r + 2*num_rows, ...
        cursors = np.repeat(self._roots, num_rows)
        row_offsets = np.tile(np.arange(num_rows) * features.shape[1], self._num_trees)
        leaves = self._value[_walk(features, row_offsets, cursors, self._table, self._depth)]
        predictions = leaves.reshape(self._num_trees, num_rows)
        return predictions.mean(axis=0), predictions.std(axis=0)
