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


class TestDiscreteSpace:
    def test_clifford_space(self):
        space = DiscreteSpace.clifford(5)
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
        space = DiscreteSpace.clifford(6)
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
        space = DiscreteSpace.clifford(4)
        optimizer = BayesianOptimizer(space, warmup_evaluations=30, seed=0)
        result = optimizer.minimize(self._quadratic, max_evaluations=120)
        assert result.best_value == pytest.approx(0.0)
        assert result.best_point == (1, 2, 3, 0)

    def test_seed_points_evaluated_first(self):
        space = DiscreteSpace.clifford(4)
        optimizer = BayesianOptimizer(
            space, warmup_evaluations=5, seed_points=[(1, 2, 3, 0)], seed=0
        )
        result = optimizer.minimize(self._quadratic, max_evaluations=20)
        assert result.observations[0].phase == "seed"
        assert result.best_value == pytest.approx(0.0)

    def test_best_so_far_is_monotone(self):
        space = DiscreteSpace.clifford(5)
        optimizer = BayesianOptimizer(space, warmup_evaluations=10, seed=1)
        result = optimizer.minimize(self._quadratic, max_evaluations=40)
        trace = result.best_so_far
        assert all(later <= earlier + 1e-12 for earlier, later in zip(trace, trace[1:]))

    def test_respects_budget(self):
        space = DiscreteSpace.clifford(5)
        optimizer = BayesianOptimizer(space, warmup_evaluations=10, seed=2)
        result = optimizer.minimize(self._quadratic, max_evaluations=25)
        assert result.num_iterations <= 25

    def test_iterations_to_reach(self):
        space = DiscreteSpace.clifford(3)
        optimizer = BayesianOptimizer(space, warmup_evaluations=10, seed=4)
        result = optimizer.minimize(self._quadratic, max_evaluations=64)
        threshold_iteration = result.iterations_to_reach(result.best_value)
        assert threshold_iteration is not None
        assert threshold_iteration <= result.num_iterations

    def test_invalid_budget(self):
        space = DiscreteSpace.clifford(2)
        with pytest.raises(OptimizationError):
            BayesianOptimizer(space).minimize(self._quadratic, max_evaluations=0)

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=10, deadline=None)
    def test_never_returns_point_outside_space(self, seed):
        space = DiscreteSpace([3, 4, 2])
        optimizer = BayesianOptimizer(space, warmup_evaluations=5, seed=seed)
        result = optimizer.minimize(lambda p: float(sum(p)), max_evaluations=15)
        assert space.contains(result.best_point)
        for observation in result.observations:
            assert space.contains(observation.point)


class _BatchedQuadratic:
    """Quadratic objective exposing the evaluate_batch protocol."""

    def __init__(self):
        self.batch_calls = 0

    def __call__(self, point):
        return TestBayesianOptimizer._quadratic(point)

    def evaluate_batch(self, points):
        self.batch_calls += 1
        return np.array([self(point) for point in points], dtype=float)


class TestBatchedObjectiveProtocol:
    def test_batched_trajectory_matches_sequential(self):
        """Warm-up/proposal batching must not change which points are visited."""
        space = DiscreteSpace.clifford(4)
        sequential = BayesianOptimizer(
            space, warmup_evaluations=20, seed_points=[(0, 0, 1, 0)], seed=5
        ).minimize(TestBayesianOptimizer._quadratic, max_evaluations=60)
        batched_objective = _BatchedQuadratic()
        batched = BayesianOptimizer(
            space, warmup_evaluations=20, seed_points=[(0, 0, 1, 0)], seed=5
        ).minimize(batched_objective, max_evaluations=60)
        assert batched_objective.batch_calls > 0
        assert batched.best_point == sequential.best_point
        assert batched.best_value == sequential.best_value
        assert [(o.point, o.value, o.phase) for o in batched.observations] == [
            (o.point, o.value, o.phase) for o in sequential.observations
        ]

    def test_proposal_batch_finds_optimum(self):
        space = DiscreteSpace.clifford(4)
        optimizer = BayesianOptimizer(
            space, warmup_evaluations=30, proposal_batch=5, refit_interval=5, seed=0
        )
        result = optimizer.minimize(_BatchedQuadratic(), max_evaluations=120)
        assert result.best_value == pytest.approx(0.0)
        assert result.num_iterations <= 120

    def test_proposal_batch_validation(self):
        with pytest.raises(OptimizationError):
            BayesianOptimizer(DiscreteSpace.clifford(2), proposal_batch=0)
