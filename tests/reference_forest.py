"""Reference (pre-vectorization) random-forest surrogate.

This is the original pure-Python CART engine the search shipped with:
recursive ``_Node`` trees, an O(n * thresholds) variance scan per candidate
feature, and per-row Python ``predict``.  It is kept verbatim as the
ground-truth oracle for the vectorized engine in :mod:`repro.bayesopt.forest`:

* ``tests/test_forest_vectorized.py`` checks that the engine's split rule
  always finds a maximal-gain partition of the exhaustive scan in
  :meth:`ReferenceDecisionTree._best_split`, and
* ``benchmarks/test_perf_surrogate.py`` measures the vectorized engine's
  speedup against it (and an end-to-end search driven by it reproduces the
  original surrogate hot path for before/after throughput numbers).

It consumes its ``rng`` as one bootstrap ``integers`` draw per tree plus one
``choice`` draw per internal node attempt, in left-first depth-first order.
Do not "improve" this module; it is a fixture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.exceptions import OptimizationError


@dataclass
class _Node:
    """A node of a regression tree (leaf when ``feature`` is None)."""

    value: float
    feature: Optional[int] = None
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class ReferenceDecisionTree:
    """CART-style regression tree with variance-reduction splits."""

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
        self._root: Optional[_Node] = None

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "ReferenceDecisionTree":
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if features.ndim != 2 or len(features) != len(targets):
            raise OptimizationError("features must be 2-D and aligned with targets")
        if len(targets) == 0:
            raise OptimizationError("cannot fit a tree on zero samples")
        self._root = self._build(features, targets, depth=0)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self._root is None:
            raise OptimizationError("the tree has not been fitted")
        features = np.asarray(features, dtype=float)
        return np.array([self._predict_row(row) for row in features])

    # ------------------------------------------------------------------ #
    def _predict_row(self, row: np.ndarray) -> float:
        node = self._root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.value

    def _build(self, features: np.ndarray, targets: np.ndarray, depth: int) -> _Node:
        value = float(np.mean(targets))
        if (
            depth >= self._max_depth
            or len(targets) < self._min_samples_split
            or np.allclose(targets, targets[0])
        ):
            return _Node(value=value)
        split = self._best_split(features, targets)
        if split is None:
            return _Node(value=value)
        feature, threshold, left_mask = split
        left = self._build(features[left_mask], targets[left_mask], depth + 1)
        right = self._build(features[~left_mask], targets[~left_mask], depth + 1)
        return _Node(value=value, feature=feature, threshold=threshold, left=left, right=right)

    def _best_split(self, features: np.ndarray, targets: np.ndarray):
        num_samples, num_features = features.shape
        max_features = self._max_features or num_features
        max_features = min(max_features, num_features)
        candidate_features = self._rng.choice(num_features, size=max_features, replace=False)
        parent_score = float(np.var(targets)) * num_samples
        best = None
        best_gain = 1e-12
        for feature in candidate_features:
            column = features[:, feature]
            values = np.unique(column)
            if len(values) < 2:
                continue
            thresholds = (values[:-1] + values[1:]) / 2.0
            for threshold in thresholds:
                left_mask = column <= threshold
                left_count = int(np.sum(left_mask))
                right_count = num_samples - left_count
                if left_count < self._min_samples_leaf or right_count < self._min_samples_leaf:
                    continue
                left_score = float(np.var(targets[left_mask])) * left_count
                right_score = float(np.var(targets[~left_mask])) * right_count
                gain = parent_score - left_score - right_score
                if gain > best_gain:
                    best_gain = gain
                    best = (int(feature), float(threshold), left_mask.copy())
        return best


class ReferenceRandomForest:
    """Bagged ensemble of reference trees with uncertainty estimates."""

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
        self._rng = rng if rng is not None else np.random.default_rng(seed)
        self._trees: List[ReferenceDecisionTree] = []

    @property
    def num_trees(self) -> int:
        return self._num_trees

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "ReferenceRandomForest":
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if len(features) == 0:
            raise OptimizationError("cannot fit a forest on zero samples")
        num_samples, num_features = features.shape
        max_features = max(1, int(round(self._feature_fraction * num_features)))
        self._trees = []
        for _ in range(self._num_trees):
            indices = self._rng.integers(0, num_samples, size=num_samples)
            tree = ReferenceDecisionTree(
                max_depth=self._max_depth,
                min_samples_split=self._min_samples_split,
                min_samples_leaf=self._min_samples_leaf,
                max_features=max_features,
                rng=self._rng,
            )
            tree.fit(features[indices], targets[indices])
            self._trees.append(tree)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Mean prediction across trees."""
        mean, _ = self.predict_with_uncertainty(features)
        return mean

    def predict_with_uncertainty(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(mean, standard deviation) across the ensemble."""
        if not self._trees:
            raise OptimizationError("the forest has not been fitted")
        predictions = np.stack([tree.predict(features) for tree in self._trees])
        return predictions.mean(axis=0), predictions.std(axis=0)
