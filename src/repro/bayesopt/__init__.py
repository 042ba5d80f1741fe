"""Discrete Bayesian optimization: random-forest surrogate plus greedy pick."""

from repro.bayesopt.forest import DecisionTreeRegressor, RandomForestRegressor
from repro.bayesopt.optimizer import (
    BayesianOptimizationResult,
    BayesianOptimizer,
    Observation,
)
from repro.bayesopt.space import DiscreteSpace

__all__ = [
    "DiscreteSpace",
    "DecisionTreeRegressor",
    "RandomForestRegressor",
    "BayesianOptimizer",
    "BayesianOptimizationResult",
    "Observation",
]
