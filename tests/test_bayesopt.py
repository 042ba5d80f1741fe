"""Tests for the discrete Bayesian optimization substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bayesopt import (
    BayesianOptimizer,
    DecisionTreeRegressor,
    DiscreteSpace,
    RandomForestRegressor,
)
from repro.exceptions import OptimizationError


def _pointwise(function):
    """A batch function that calls ``function`` once per point."""
    return lambda points: [function(point) for point in points]


class TestDiscreteSpace:
    def test_clifford_space(self):
        space = DiscreteSpace([4] * 5)
        assert space.num_dimensions == 5
        assert space.size == 4**5

    def test_contains_and_validate(self):
        space = DiscreteSpace([4, 4, 2])
        assert space.contains((3, 0, 1))
        assert not space.contains((3, 0, 2))
        with pytest.raises(OptimizationError):
            space.validate((0, 0, 9))

    def test_sampling_stays_inside(self):
        space = DiscreteSpace([4, 3, 2, 5])
        rng = np.random.default_rng(0)
        samples = space.sample_array(50, rng)
        assert samples.shape == (50, 4)
        for point in samples.tolist():
            assert space.contains(point)

    def test_neighbors_differ_and_stay_inside(self):
        space = DiscreteSpace([4] * 6)
        rng = np.random.default_rng(1)
        origin = (0, 1, 2, 3, 0, 1)
        neighbors = space.neighbors_array(origin, rng, count=20)
        assert neighbors.shape == (20, 6)
        for neighbor in neighbors.tolist():
            assert space.contains(neighbor)
            assert tuple(neighbor) != origin

    def test_empty_space_rejected(self):
        with pytest.raises(OptimizationError):
            DiscreteSpace([])


class TestForest:
    def test_tree_fits_simple_function(self):
        rng = np.random.default_rng(0)
        features = rng.integers(0, 4, size=(200, 3)).astype(float)
        targets = features[:, 0] * 2.0 - features[:, 1]
        tree = DecisionTreeRegressor(rng=rng).fit(features, targets)
        predictions = tree.predict(features)
        assert np.mean((predictions - targets) ** 2) < 0.5

    def test_tree_constant_targets(self):
        features = np.zeros((10, 2))
        tree = DecisionTreeRegressor().fit(features, np.ones(10))
        np.testing.assert_allclose(tree.predict(features), 1.0)

    def test_tree_requires_samples(self):
        with pytest.raises(OptimizationError):
            DecisionTreeRegressor().fit(np.zeros((0, 2)), np.zeros(0))

    def test_forest_reduces_to_training_mean_region(self):
        rng = np.random.default_rng(1)
        features = rng.integers(0, 4, size=(300, 4)).astype(float)
        targets = np.sum(features, axis=1) + rng.normal(0, 0.1, size=300)
        forest = RandomForestRegressor(num_trees=10, seed=0).fit(features, targets)
        mean, std = forest.predict_with_uncertainty(features[:20])
        assert mean.shape == (20,) and std.shape == (20,)
        assert np.mean(np.abs(mean - targets[:20])) < 1.0

    def test_forest_unfitted_prediction_raises(self):
        with pytest.raises(OptimizationError):
            RandomForestRegressor().predict(np.zeros((1, 2)))

    def test_forest_bad_configuration(self):
        with pytest.raises(OptimizationError):
            RandomForestRegressor(num_trees=0)
        with pytest.raises(OptimizationError):
            RandomForestRegressor(feature_fraction=0.0)


class TestBayesianOptimizer:
    @staticmethod
    def _quadratic(point):
        target = (1, 2, 3, 0)
        return sum((a - b) ** 2 for a, b in zip(point, target))

    def test_finds_optimum_of_small_problem(self):
        space = DiscreteSpace([4] * 4)
        optimizer = BayesianOptimizer(space, warmup_evaluations=30, seed=0)
        result = optimizer.minimize(_pointwise(self._quadratic), max_evaluations=120)
        assert result.best_value == pytest.approx(0.0)
        assert result.best_point == (1, 2, 3, 0)

    def test_seed_points_evaluated_first(self):
        space = DiscreteSpace([4] * 4)
        optimizer = BayesianOptimizer(
            space, warmup_evaluations=5, seed_points=[(1, 2, 3, 0)], seed=0
        )
        result = optimizer.minimize(_pointwise(self._quadratic), max_evaluations=20)
        assert result.observations[0].phase == "seed"
        assert result.best_value == pytest.approx(0.0)

    def test_best_so_far_is_monotone(self):
        space = DiscreteSpace([4] * 5)
        optimizer = BayesianOptimizer(space, warmup_evaluations=10, seed=1)
        result = optimizer.minimize(_pointwise(self._quadratic), max_evaluations=40)
        trace = result.best_so_far
        assert all(later <= earlier + 1e-12 for earlier, later in zip(trace, trace[1:]))

    def test_respects_budget(self):
        space = DiscreteSpace([4] * 5)
        optimizer = BayesianOptimizer(space, warmup_evaluations=10, seed=2)
        result = optimizer.minimize(_pointwise(self._quadratic), max_evaluations=25)
        assert result.num_iterations <= 25

    def test_iterations_to_reach(self):
        space = DiscreteSpace([4] * 3)
        optimizer = BayesianOptimizer(space, warmup_evaluations=10, seed=4)
        result = optimizer.minimize(_pointwise(self._quadratic), max_evaluations=64)
        threshold_iteration = result.iterations_to_reach(result.best_value)
        assert threshold_iteration is not None
        assert threshold_iteration <= result.num_iterations

    def test_invalid_budget(self):
        space = DiscreteSpace([4] * 2)
        with pytest.raises(OptimizationError):
            BayesianOptimizer(space).minimize(_pointwise(self._quadratic), max_evaluations=0)

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=10, deadline=None)
    def test_never_returns_point_outside_space(self, seed):
        space = DiscreteSpace([3, 4, 2])
        optimizer = BayesianOptimizer(space, warmup_evaluations=5, seed=seed)
        result = optimizer.minimize(_pointwise(lambda p: float(sum(p))), max_evaluations=15)
        assert space.contains(result.best_point)
        for observation in result.observations:
            assert space.contains(observation.point)


class TestBatchedObjectiveProtocol:
    @pytest.mark.parametrize("proposal_batch", [1, 5])
    def test_one_evaluate_call_per_block(self, proposal_batch):
        """Seeds, the warm-up block and each proposal round are one call each."""
        calls, returned = [], []

        def evaluate(points):
            calls.append(list(points))
            # Distinct values, so the order they are recorded in is visible.
            values = [
                TestBayesianOptimizer._quadratic(point) + 1e-3 * len(returned) + 1e-6 * i
                for i, point in enumerate(points)
            ]
            returned.extend(values)
            return values

        space = DiscreteSpace([4] * 4)
        result = BayesianOptimizer(
            space,
            warmup_evaluations=20,
            seed_points=[(0, 0, 1, 0)],
            refit_interval=5,
            proposal_batch=proposal_batch,
            seed=5,
        ).minimize(evaluate, max_evaluations=60)
        assert calls[0] == [(0, 0, 1, 0)]
        assert len(calls[1]) == 20
        rounds = calls[2:]
        assert len(rounds) == -(-(60 - 21) // proposal_batch)
        assert all(1 <= len(block) <= proposal_batch for block in rounds)
        assert [len(block) for block in rounds[:-1]] == [proposal_batch] * (len(rounds) - 1)
        observations = result.observations
        assert [o.point for o in observations] == [p for block in calls for p in block]
        assert [o.value for o in observations] == returned
        phases = ["seed"] + ["warmup"] * 20 + ["search"] * (60 - 21)
        assert [o.phase for o in observations] == phases
        assert [o.iteration for o in observations] == list(range(1, 61))

    def test_proposal_batch_finds_optimum(self):
        space = DiscreteSpace([4] * 4)
        optimizer = BayesianOptimizer(
            space, warmup_evaluations=30, proposal_batch=5, refit_interval=5, seed=0
        )
        result = optimizer.minimize(
            _pointwise(TestBayesianOptimizer._quadratic), max_evaluations=120
        )
        assert result.best_value == pytest.approx(0.0)
        assert result.num_iterations <= 120

    def test_proposal_batch_validation(self):
        with pytest.raises(OptimizationError):
            BayesianOptimizer(DiscreteSpace([4] * 2), proposal_batch=0)


# Clifford spaces on both sides of the one- and two-word boundaries of the
# packed keys (2 bits per slot), pi/4 spaces (3 bits), and mixed
# cardinalities (cardinality-1 slots take no bits).
PACKED_SPACES = {
    "clifford-32": [4] * 32,
    "clifford-33": [4] * 33,
    "clifford-64": [4] * 64,
    "clifford-65": [4] * 65,
    "pi4-21": [8] * 21,
    "pi4-22": [8] * 22,
    "mixed": [1, 2, 3, 4, 5, 8, 9, 17] * 9,
    "small-mixed": [2, 3, 1, 2, 5],  # pools mostly repeat and hit seen points
}


def _pool_with_repeats(space, rng, count=200):
    """A pool in which about half the rows repeat an earlier one."""
    pool = space.sample_array(count, rng)
    repeats = rng.random(count) < 0.5
    pool[repeats] = pool[rng.integers(0, count // 4, size=int(repeats.sum()))]
    return pool


class TestPackedKeys:
    """Packed-key pools and proposals against the byte-key oracle."""

    @pytest.mark.parametrize("name", sorted(PACKED_SPACES))
    def test_keys_are_equal_exactly_when_points_are(self, name):
        from tests.reference_bayesopt import _row_keys

        space = DiscreteSpace(PACKED_SPACES[name])
        pool = _pool_with_repeats(space, np.random.default_rng(len(name)))
        pool[-1] = space._cards - 1  # every slot at its top value
        pool[-2] = 0
        packed = space.keys(pool).tolist()
        by_bytes = {}
        for key, reference in zip(packed, _row_keys(pool)):
            assert by_bytes.setdefault(reference, key) == key
        assert len(set(packed)) == len(by_bytes)

    @pytest.mark.parametrize("name", sorted(PACKED_SPACES))
    def test_pool_dedupe_matches_the_row_wise_unique(self, name):
        from tests.reference_bayesopt import dedupe_pool

        space = DiscreteSpace(PACKED_SPACES[name])
        for seed in range(4):
            pool = _pool_with_repeats(space, np.random.default_rng(seed))
            rows, keys = space.unique(pool)
            assert np.array_equal(rows, dedupe_pool(pool))
            assert keys == space.keys(rows).tolist()

    @pytest.mark.parametrize("name", sorted(PACKED_SPACES))
    @pytest.mark.parametrize("count", [1, 5])
    def test_proposals_match_the_byte_key_oracle(self, name, count):
        from tests.reference_bayesopt import propose_batch

        space = DiscreteSpace(PACKED_SPACES[name])
        rng = np.random.default_rng(count)
        seen = space.sample_array(40, rng)
        surrogate = RandomForestRegressor(num_trees=6, max_depth=6, seed=1).fit(
            seen.astype(float), rng.normal(size=len(seen))
        )
        best_point = tuple(seen[0].tolist())
        current = BayesianOptimizer(space, seed=7)
        oracle = BayesianOptimizer(space, seed=7)
        seen_keys = set(space.keys(seen).tolist())
        for _ in range(3):
            proposed = current._propose_batch(surrogate, seen_keys, best_point, count)
            expected = propose_batch(oracle, surrogate, seen.tolist(), best_point, count)
            assert proposed == expected
            seen = np.concatenate([seen, np.array(proposed)])
            seen_keys.update(space.keys(np.array(proposed)).tolist())
        assert current._rng.integers(0, 2**62) == oracle._rng.integers(0, 2**62)

    def test_exhausted_pool_falls_back_like_the_oracle(self):
        from tests.reference_bayesopt import propose_batch

        space = DiscreteSpace([2, 1, 3])
        points = [(a, 0, c) for a in range(2) for c in range(3)]
        seen = points[:-1]
        surrogate = RandomForestRegressor(num_trees=2, seed=0).fit(
            np.array(seen, dtype=float), np.arange(len(seen), dtype=float)
        )
        for best in (None, seen[0]):
            current = BayesianOptimizer(space, seed=3)
            oracle = BayesianOptimizer(space, seed=3)
            seen_keys = set(space.keys(np.array(seen)).tolist())
            proposed = current._propose_batch(surrogate, seen_keys, best, 1)
            assert proposed == propose_batch(oracle, surrogate, seen, best, 1)
            assert proposed == [points[-1]]


class TestFixedDepthWalk:
    """The fixed-depth walk against the active-set descent, byte for byte."""

    @staticmethod
    def _assert_forest_matches(forest, queries):
        from tests.reference_bayesopt import forest_predict, tree_predict

        mean, std = forest.predict_with_uncertainty(queries)
        expected_mean, expected_std = forest_predict(forest, queries)
        assert mean.tobytes() == expected_mean.tobytes()
        assert std.tobytes() == expected_std.tobytes()
        for tree in forest.trees:
            assert tree.predict(queries).tobytes() == tree_predict(tree, queries).tobytes()

    def test_single_leaf_trees(self):
        features = np.random.default_rng(0).integers(0, 4, size=(12, 5)).astype(float)
        forest = RandomForestRegressor(num_trees=4, seed=2).fit(features, np.full(12, 1.25))
        assert all(tree.node_count == 1 for tree in forest.trees)
        self._assert_forest_matches(forest, features)
        self._assert_forest_matches(forest, features[:1])

    @pytest.mark.parametrize("width", [16, 32, 200])
    def test_depth_10_trees(self, width):
        rng = np.random.default_rng(width)
        features = rng.integers(0, 4, size=(400, width)).astype(float)
        targets = features[:, :4].sum(axis=1) + rng.normal(size=400)
        forest = RandomForestRegressor(
            num_trees=12, max_depth=10, min_samples_leaf=1, min_samples_split=2, seed=width
        ).fit(features, targets)
        assert max(tree._depth for tree in forest.trees) == 10
        queries = rng.integers(0, 4, size=(190, width)).astype(float)
        self._assert_forest_matches(forest, queries)
        self._assert_forest_matches(forest, queries[:1])

    def test_uneven_trees_and_off_grid_queries(self):
        rng = np.random.default_rng(3)
        features = rng.normal(size=(60, 7))
        forest = RandomForestRegressor(num_trees=9, max_depth=8, seed=3).fit(
            features, np.sign(features[:, 0]) + 0.1 * rng.normal(size=60)
        )
        assert len({tree._depth for tree in forest.trees}) > 1
        queries = rng.normal(scale=3.0, size=(33, 7))
        queries[0, :] = np.nan  # NaN never goes left, in either walk
        self._assert_forest_matches(forest, queries)
