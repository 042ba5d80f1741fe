"""Tests for the continuous optimizer (SPSA)."""

import numpy as np
import pytest

from repro.exceptions import OptimizationError
from repro.optim import SPSA


def quadratic(parameters: np.ndarray) -> float:
    target = np.array([0.5, -1.0, 2.0])[: len(parameters)]
    return float(np.sum((parameters - target) ** 2))


class TestSPSA:
    def test_minimizes_quadratic(self):
        optimizer = SPSA(learning_rate=0.3, perturbation=0.2, seed=0)
        trace = optimizer.minimize(quadratic, np.zeros(3), max_iterations=300)
        assert trace.best_value < 0.05

    def test_handles_noisy_objective(self):
        rng = np.random.default_rng(1)

        def noisy(parameters):
            return quadratic(parameters) + rng.normal(0, 0.01)

        optimizer = SPSA(seed=2)
        trace = optimizer.minimize(noisy, np.zeros(3), max_iterations=300)
        assert trace.best_value < 0.2

    def test_history_length(self):
        optimizer = SPSA(seed=0)
        trace = optimizer.minimize(quadratic, np.zeros(2), max_iterations=50)
        assert len(trace.history) == 50

    def test_invalid_hyperparameters(self):
        with pytest.raises(OptimizationError):
            SPSA(learning_rate=-1.0)

    def test_rejects_matrix_parameters(self):
        with pytest.raises(OptimizationError):
            SPSA(seed=0).minimize(quadratic, np.zeros((2, 2)), max_iterations=5)

    def test_iterations_to_reach(self):
        optimizer = SPSA(seed=3)
        trace = optimizer.minimize(quadratic, np.zeros(3), max_iterations=200)
        assert trace.iterations_to_reach(1e9) == 1
        assert trace.iterations_to_reach(-1e9) is None
