"""Continuous classical optimizers for post-CAFQA VQE tuning."""

from repro.optim.base import ContinuousOptimizer, OptimizationTrace
from repro.optim.spsa import SPSA

__all__ = ["ContinuousOptimizer", "OptimizationTrace", "SPSA"]
