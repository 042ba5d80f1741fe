"""Vectorized surrogate engine: the split rule against its oracle, and golden traces.

Two safety nets for the flat-array forest:

* **Oracle split rule** — on random nodes, the engine's one-pass
  ``_best_split`` must return a partition whose exact-variance gain matches
  the best gain of the original engine's exhaustive ``np.var`` scan
  (``tests/reference_forest.py``) up to rounding.  The nodes mix continuous
  and 4-valued integer features with rounded targets, because those are
  rife with duplicated, mirrored and exactly tied partitions — the cases
  where a cumulative-sum score can only be right up to the last ulp.  With
  every feature a candidate, a one-tree forest also predicts its bootstrap
  sample like the oracle's, up to the rounding of each leaf mean.
* **Golden traces** — the production search's RNG consumption
  (argsort-of-uniform feature draws, vectorized space sampling) and tie
  arbitration are pinned by seeded trajectories; any unintended change to
  sampling order, tie-breaking, or surrogate fitting shows up here as a hard
  failure.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bayesopt import BayesianOptimizer, DiscreteSpace, RandomForestRegressor
from repro.bayesopt.forest import DecisionTreeRegressor
from repro.circuits import EfficientSU2Ansatz
from repro.core.objective import CliffordObjective
from repro.core.search import CafqaSearch
from tests.reference_forest import ReferenceDecisionTree, ReferenceRandomForest


def _random_dataset(seed: int):
    generator = np.random.default_rng(seed)
    num_samples = int(generator.integers(20, 220))
    num_features = int(generator.integers(2, 30))
    if seed % 2:
        features = generator.integers(0, 4, size=(num_samples, num_features)).astype(float)
    else:
        features = generator.normal(size=(num_samples, num_features))
    targets = generator.normal(size=num_samples) + 2.0 * features[:, 0]
    return features, targets


def _exact_gain(targets: np.ndarray, left_mask: np.ndarray) -> float:
    """The oracle's split gain: ``np.var`` of the parent minus both children."""
    left, right = targets[left_mask], targets[~left_mask]
    return (
        float(np.var(targets)) * len(targets)
        - float(np.var(left)) * len(left)
        - float(np.var(right)) * len(right)
    )


class TestReferenceParity:
    """The engine against the original ``np.var`` engine in ``tests/reference_forest.py``."""

    NODES_PER_SEED = 20

    @pytest.mark.parametrize("seed", range(12))
    def test_tree_splits_match_reference(self, seed):
        """On random nodes the split's exact gain is the exhaustive scan's best."""
        generator = np.random.default_rng(1000 + seed)
        features, targets = _random_dataset(seed)
        if seed % 3 == 0:
            # Coarse targets: many candidate partitions tie exactly.
            targets = np.round(targets)
        num_samples, num_features = features.shape
        min_leaf = 1 + seed % 2
        max_features = max(1, int(0.7 * num_features))
        # Fitting sets up the per-fit scratch arrays ``_best_split`` reads.
        tree = DecisionTreeRegressor(
            min_samples_leaf=min_leaf,
            max_features=max_features,
            rng=np.random.default_rng(seed),
        ).fit(features, targets)
        features_t = np.ascontiguousarray(features.T)
        checked = 0
        while checked < self.NODES_PER_SEED:
            size = int(generator.integers(4, num_samples + 1))
            if generator.random() < 0.5:
                rows = generator.integers(0, num_samples, size=size)  # bootstrap
            else:
                rows = np.sort(generator.choice(num_samples, size=size, replace=False))
            node_targets = targets[rows]
            first = float(node_targets[0])
            if (np.abs(node_targets - first) <= 1e-8 + 1e-5 * abs(first)).all():
                continue  # a leaf: the fit never scans it
            candidates = generator.permutation(num_features)[:max_features]
            checked += 1

            split = tree._best_split(features_t, rows, node_targets, candidates)
            node_features = features[rows][:, candidates]
            oracle = ReferenceDecisionTree(
                min_samples_leaf=min_leaf, rng=np.random.default_rng(seed)
            )
            expected = oracle._best_split(node_features, node_targets)
            assert (split is None) == (expected is None)
            if split is None:
                continue

            feature, threshold, left_rows, right_rows = split
            assert feature in candidates
            left_mask = features[rows, feature] <= threshold
            assert np.array_equal(np.sort(left_rows), np.sort(rows[left_mask]))
            assert np.array_equal(np.sort(right_rows), np.sort(rows[~left_mask]))
            assert min(len(left_rows), len(right_rows)) >= min_leaf

            _, _, oracle_mask = expected
            tolerance = 1e-10 * max(1.0, float(np.sum(node_targets**2)))
            assert _exact_gain(node_targets, left_mask) >= (
                _exact_gain(node_targets, oracle_mask) - tolerance
            )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_forest_predictions_match_reference(self, seed):
        """Every feature a candidate: the fits partition the data identically.

        With ``feature_fraction=1`` the per-node feature draws only reorder
        the candidates, and both forests draw the same bootstrap first, so
        a one-tree forest splits its sample exactly like the oracle (a
        mirrored partition may pick another feature, which only moves
        rows outside the sample).  In-sample predictions then agree up to
        the rounding of each leaf mean, summed in a different row order.
        """
        generator = np.random.default_rng(seed)
        features = generator.normal(size=(150, 8))
        targets = generator.normal(size=150) + features[:, 0] * features[:, 1]
        options = dict(num_trees=1, max_depth=8, feature_fraction=1.0)
        fast = RandomForestRegressor(rng=np.random.default_rng(seed + 40), **options)
        reference = ReferenceRandomForest(
            rng=np.random.default_rng(seed + 40), **options
        )
        fast.fit(features, targets)
        reference.fit(features, targets)
        sample = np.random.default_rng(seed + 40).integers(0, 150, size=150)
        queries = features[np.unique(sample)]
        mean_fast, std_fast = fast.predict_with_uncertainty(queries)
        mean_ref, _ = reference.predict_with_uncertainty(queries)
        assert fast.trees[0].node_count > 15
        assert np.allclose(mean_fast, mean_ref, rtol=1e-12, atol=1e-12)
        assert np.all(std_fast == 0.0)

    def test_zero_gain_node_is_not_split(self):
        """Every partition leaves both child means at 0.5: no split, like the oracle."""
        features = np.array([[0.0], [0.0], [1.0], [1.0]])
        targets = np.array([0.0, 1.0, 0.0, 1.0])
        tree = DecisionTreeRegressor(min_samples_leaf=1).fit(features, targets)
        rows, candidates = np.arange(4), np.array([0])
        oracle = ReferenceDecisionTree(min_samples_leaf=1, rng=np.random.default_rng(0))
        assert oracle._best_split(features, targets) is None
        assert tree._best_split(features.T.copy(), rows, targets, candidates) is None
        assert tree.node_count == 1


class TestFastMode:
    """The production engine: deterministic, structurally valid trees."""

    def test_deterministic_given_rng_state(self):
        features, targets = _random_dataset(3)
        first = RandomForestRegressor(num_trees=5, rng=np.random.default_rng(11)).fit(
            features, targets
        )
        second = RandomForestRegressor(num_trees=5, rng=np.random.default_rng(11)).fit(
            features, targets
        )
        queries = np.random.default_rng(0).normal(size=(40, features.shape[1]))
        mean_a, std_a = first.predict_with_uncertainty(queries)
        mean_b, std_b = second.predict_with_uncertainty(queries)
        assert np.array_equal(mean_a, mean_b)
        assert np.array_equal(std_a, std_b)

    @pytest.mark.parametrize("seed", range(6))
    def test_tree_structure_is_valid(self, seed):
        features, targets = _random_dataset(seed)
        tree = DecisionTreeRegressor(
            max_depth=9, min_samples_leaf=2, rng=np.random.default_rng(seed)
        ).fit(features, targets)
        feature, threshold, left, right, value = tree.node_arrays()
        internal = feature >= 0
        # Internal nodes have two children; leaves have none.
        assert np.all(left[internal] > 0) and np.all(right[internal] > 0)
        assert np.all(left[~internal] == -1) and np.all(right[~internal] == -1)
        # Every non-root node is referenced exactly once as a child.
        children = np.concatenate([left[internal], right[internal]])
        assert sorted(children.tolist()) == list(range(1, tree.node_count))
        assert np.all(np.isfinite(value))

    def test_tree_prediction_matches_manual_traversal(self):
        features, targets = _random_dataset(4)
        tree = DecisionTreeRegressor(rng=np.random.default_rng(2)).fit(features, targets)
        feature, threshold, left, right, value = tree.node_arrays()
        queries = np.random.default_rng(5).normal(size=(30, features.shape[1]))

        def manual(row):
            node = 0
            while feature[node] >= 0:
                node = left[node] if row[feature[node]] <= threshold[node] else right[node]
            return value[node]

        expected = np.array([manual(row) for row in queries])
        assert np.array_equal(tree.predict(queries), expected)

    def test_forest_fused_predict_matches_per_tree(self):
        features, targets = _random_dataset(6)
        forest = RandomForestRegressor(num_trees=7, rng=np.random.default_rng(9)).fit(
            features, targets
        )
        queries = np.random.default_rng(1).normal(size=(25, features.shape[1]))
        stacked = np.stack([tree.predict(queries) for tree in forest.trees])
        mean, std = forest.predict_with_uncertainty(queries)
        assert np.array_equal(mean, stacked.mean(axis=0))
        assert np.array_equal(std, stacked.std(axis=0))

    def test_fit_quality_on_additive_function(self):
        generator = np.random.default_rng(1)
        features = generator.integers(0, 4, size=(300, 8)).astype(float)
        targets = np.sum(features, axis=1) + generator.normal(0, 0.1, size=300)
        forest = RandomForestRegressor(num_trees=10, seed=0).fit(features, targets)
        mean, std = forest.predict_with_uncertainty(features[:20])
        assert np.mean(np.abs(mean - targets[:20])) < 1.0
        assert np.all(std >= 0)


class TestGoldenTraces:
    """Pin the post-cutover seeded trajectories (see module docstring)."""

    def test_optimizer_trajectory_quadratic(self):
        def quadratic(point):
            target = (1, 2, 3, 0)
            return float(sum((a - b) ** 2 for a, b in zip(point, target)))

        space = DiscreteSpace([4] * 4)
        result = BayesianOptimizer(
            space, warmup_evaluations=12, seed=5, seed_points=[(0, 0, 1, 0)]
        ).minimize(lambda points: [quadratic(p) for p in points], max_evaluations=30)
        assert result.best_point == (1, 2, 3, 0)
        assert result.best_value == 0.0
        assert [obs.point for obs in result.observations[:16]] == [
            (0, 0, 1, 0),
            (2, 3, 0, 3),
            (1, 2, 2, 1),
            (3, 0, 1, 1),
            (2, 1, 0, 0),
            (0, 0, 0, 3),
            (0, 2, 3, 0),
            (1, 1, 1, 3),
            (0, 3, 3, 3),
            (0, 1, 2, 1),
            (2, 2, 2, 0),
            (3, 2, 3, 1),
            (1, 3, 0, 0),
            (0, 2, 2, 0),
            (1, 2, 2, 0),
            (1, 2, 3, 0),
        ]

    def test_cafqa_search_h2_trace(self, h2_stretched_problem):
        ansatz = EfficientSU2Ansatz(h2_stretched_problem.num_qubits, reps=1)
        result = CafqaSearch(
            CliffordObjective(h2_stretched_problem, ansatz), seed=7
        ).run(max_evaluations=40)
        assert result.best_indices == [1, 0, 0, 2, 0, 0, 3, 3]
        assert result.energy == pytest.approx(-0.931638909768187, rel=1e-9)
        assert result.num_iterations == 64
        observations = result.search_result.observations
        assert observations[0].phase == "seed"
        assert [obs.point for obs in observations[:5]] == [
            (0, 0, 0, 0, 2, 0, 0, 0),
            (3, 2, 2, 3, 2, 3, 3, 0),
            (0, 1, 1, 3, 3, 0, 1, 3),
            (0, 3, 0, 1, 3, 1, 1, 1),
            (2, 1, 3, 1, 1, 2, 2, 2),
        ]
