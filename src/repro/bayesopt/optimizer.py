"""Discrete Bayesian optimization loop (warm-up sampling + surrogate-guided search).

This mirrors the HyperMapper-style search the paper uses: a random warm-up
phase maps the space, then each round fits the random-forest surrogate on all
observations, predicts a candidate pool, and greedily evaluates the unseen
candidates with the lowest predicted values.  The objective is a batch
function, ``evaluate(points) -> values``: every phase hands it whole blocks of
points, so a batched simulator prices them together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.bayesopt.forest import RandomForestRegressor
from repro.bayesopt.space import DiscreteSpace
from repro.exceptions import OptimizationError

Point = Tuple[int, ...]

# Candidate points predicted per model-guided round: half uniform samples,
# half mutations of the incumbent.
CANDIDATE_POOL_SIZE = 200


@dataclass
class Observation:
    """A single evaluated point."""

    point: Point
    value: float
    iteration: int
    phase: str  # "warmup", "seed", or "search"


@dataclass
class BayesianOptimizationResult:
    """Everything the experiments need about one search run."""

    best_point: Point
    best_value: float
    observations: Sequence[Observation]
    num_iterations: int
    converged_iteration: int

    @property
    def history(self) -> np.ndarray:
        """Objective value per evaluation, in order."""
        return np.fromiter(
            (obs.value for obs in self.observations),
            dtype=float,
            count=len(self.observations),
        )

    @property
    def best_so_far(self) -> np.ndarray:
        """Running minimum of the objective (the usual BO trace plot)."""
        history = self.history
        return np.minimum.accumulate(history) if history.size else history

    def iterations_to_reach(self, threshold: float) -> Optional[int]:
        """First evaluation index (1-based) whose running best is <= threshold."""
        reached = np.nonzero(self.best_so_far <= threshold)[0]
        return int(reached[0]) + 1 if reached.size else None


class BayesianOptimizer:
    """Sample-efficient minimizer over a :class:`DiscreteSpace`.

    Parameters
    ----------
    space:
        The discrete search space.
    warmup_evaluations:
        Number of uniformly random evaluations before the surrogate is used
        (the paper's "first 1,000 iterations are a warm-up period", scaled to
        the problem at hand).
    seed_points:
        Points evaluated up front regardless of the random warm-up (CAFQA
        seeds the Hartree–Fock Clifford point so it can never do worse).
    seed:
        Seeds the one generator driving warm-up sampling, candidate pools,
        and surrogate fits.  The optimizer owns no module-level random state,
        so two optimizers built with the same seed produce bit-identical
        trajectories.
    proposal_batch:
        Number of surrogate-guided candidates proposed *and evaluated as one
        batch* per round.  The default of 1 reproduces the classic
        one-point-per-round loop exactly; larger values predict the candidate
        pool once and submit the top-k unseen points together, which is much
        faster on batched objectives at the cost of a slightly less adaptive
        trajectory.  Each batch is additionally capped at the evaluations
        remaining until the next surrogate refit (so batching never stales
        the model beyond ``refit_interval``; raise both together).
    """

    def __init__(
        self,
        space: DiscreteSpace,
        warmup_evaluations: int = 100,
        seed_points: Optional[Sequence[Sequence[int]]] = None,
        refit_interval: int = 1,
        proposal_batch: int = 1,
        seed: Optional[int] = None,
    ):
        if warmup_evaluations < 1:
            raise OptimizationError("need at least one warm-up evaluation")
        if proposal_batch < 1:
            raise OptimizationError("proposal_batch must be at least one")
        self._space = space
        self._warmup = int(warmup_evaluations)
        self._seed_points = [tuple(int(v) for v in p) for p in (seed_points or [])]
        self._refit_interval = max(1, int(refit_interval))
        self._proposal_batch = int(proposal_batch)
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------ #
    def minimize(
        self,
        evaluate: Callable[[List[Point]], Sequence[float]],
        max_evaluations: int,
        callback: Optional[Callable[[Observation], None]] = None,
    ) -> BayesianOptimizationResult:
        """Minimize with at most ``max_evaluations`` evaluations.

        ``evaluate(points)`` returns the objective values of a list of points,
        in order (e.g. ``CliffordObjective.evaluate_batch``).  It is called
        once for the seed points, once for the planned warm-up block and once
        per proposal round; ``callback`` then sees each recorded observation.
        """
        if max_evaluations < 1:
            raise OptimizationError("max_evaluations must be positive")
        observations: List[Observation] = []
        # Points are tracked three ways, each serving a hot path: the
        # Observation list is the API, the set of packed keys
        # (``DiscreteSpace.keys``) is O(1) dedup for array-native candidate
        # pools, and the growing feature/value buffers feed surrogate refits
        # without re-packing tuples every round.
        seen_keys: set = set()
        dimensions = self._space.num_dimensions
        feature_buffer = np.empty((max(64, min(max_evaluations, 4096)), dimensions))
        value_buffer = np.empty(len(feature_buffer))
        best_point: Optional[Point] = None
        best_value = np.inf
        converged_iteration = 0

        def record_block(points: List[Point], phase: str) -> None:
            """Evaluate ``points`` in one call and record them in order."""
            nonlocal best_point, best_value, converged_iteration
            nonlocal feature_buffer, value_buffer
            if not points:
                return
            seen_keys.update(self._space.keys(points).tolist())
            for point, value in zip(points, evaluate(points)):
                value = float(value)
                count = len(observations)
                observation = Observation(
                    point=point, value=value, iteration=count + 1, phase=phase
                )
                if count >= len(feature_buffer):
                    feature_buffer = np.concatenate([feature_buffer, np.empty_like(feature_buffer)])
                    value_buffer = np.concatenate([value_buffer, np.empty_like(value_buffer)])
                feature_buffer[count] = point
                value_buffer[count] = value
                observations.append(observation)
                if value < best_value - 1e-12:
                    best_value = value
                    best_point = point
                    converged_iteration = observation.iteration
                if callback is not None:
                    callback(observation)

        # Seed points (e.g. the Hartree-Fock Clifford point) come first.
        pending_seeds: List[Point] = []
        for point in self._seed_points:
            if len(pending_seeds) >= max_evaluations:
                break
            point = self._space.validate(point)
            if point not in pending_seeds:
                pending_seeds.append(point)
        record_block(pending_seeds, "seed")

        # Warm-up phase: uniform random exploration, planned in whole-block
        # vector samples (budget, attempts cap, dedup against everything
        # already tracked, duplicates allowed once the space is exhausted)
        # and then evaluated as one block.  A block of k draws consumes the
        # generator exactly like k single draws, so the planned points do not
        # depend on the block size.
        warmup_budget = min(self._warmup, max_evaluations - len(observations))
        attempts_cap = 50 * self._warmup
        attempts = 0
        planned: List[Point] = []
        planned_keys = set(seen_keys)
        while len(planned) < warmup_budget and attempts < attempts_cap:
            block = self._space.sample_array(
                min(warmup_budget - len(planned), attempts_cap - attempts), self._rng
            )
            attempts += len(block)
            for row, key in zip(block.tolist(), self._space.keys(block).tolist()):
                if key in planned_keys and self._space.size > len(planned_keys):
                    continue
                planned.append(tuple(row))
                planned_keys.add(key)
                if len(planned) >= warmup_budget:
                    break
        record_block(planned, "warmup")

        # Model-guided phase: predict the candidate pool once per round and
        # evaluate the lowest-predicted proposals as one block.
        surrogate = None
        rounds_since_fit = self._refit_interval
        while len(observations) < max_evaluations:
            if rounds_since_fit >= self._refit_interval or surrogate is None:
                surrogate = self._fit_surrogate(
                    feature_buffer[: len(observations)],
                    value_buffer[: len(observations)],
                )
                rounds_since_fit = 0
            count = min(
                self._proposal_batch,
                max_evaluations - len(observations),
                self._refit_interval - rounds_since_fit,
            )
            candidates = self._propose_batch(surrogate, seen_keys, best_point, count)
            if not candidates:
                break
            record_block(candidates, "search")
            rounds_since_fit += len(candidates)

        if best_point is None:
            raise OptimizationError("no evaluations were performed")
        return BayesianOptimizationResult(
            best_point=best_point,
            best_value=best_value,
            observations=observations,
            num_iterations=len(observations),
            converged_iteration=converged_iteration,
        )

    # ------------------------------------------------------------------ #
    def _fit_surrogate(
        self, features: np.ndarray, values: np.ndarray
    ) -> RandomForestRegressor:
        # Cap the surrogate's training set so model fitting stays cheap on long
        # runs: keep the best observations plus a random subsample of the rest.
        max_training = 400
        if len(values) > max_training:
            ranked = np.argsort(values, kind="stable")
            keep = ranked[: max_training // 2]
            rest = ranked[max_training // 2 :]
            extra_indices = self._rng.choice(
                len(rest), size=max_training - len(keep), replace=False
            )
            training_rows = np.concatenate([keep, rest[extra_indices]])
            features = features[training_rows]
            values = values[training_rows]
        # Each refit draws a fresh child generator from the optimizer's
        # stream: fits stay decorrelated across rounds (reseeding every
        # forest identically would make refits reuse one bootstrap stream)
        # while remaining a pure function of the seed.
        surrogate = RandomForestRegressor(
            num_trees=12,
            max_depth=10,
            rng=np.random.default_rng(int(self._rng.integers(0, 2**63))),
        )
        surrogate.fit(features, values)
        return surrogate

    def _propose_batch(
        self,
        surrogate: RandomForestRegressor,
        seen_keys: set,
        best_point: Optional[Point],
        count: int,
    ) -> List[Point]:
        """The ``count`` unseen pool candidates with the lowest predicted values.

        The pool lives as one ``(CANDIDATE_POOL_SIZE, d)`` integer array from
        sampling through prediction; points become tuples only for the
        returned winners.
        """
        half = CANDIDATE_POOL_SIZE // 2
        pool = self._space.sample_array(half, self._rng)
        if best_point is not None:
            pool = np.concatenate(
                [
                    pool,
                    self._space.neighbors_array(
                        best_point, self._rng, count=CANDIDATE_POOL_SIZE - half
                    ),
                ]
            )
        # Order-preserving dedup (first occurrence wins, like dict.fromkeys).
        pool, keys = self._space.unique(pool)
        unseen_rows = [index for index, key in enumerate(keys) if key not in seen_keys]
        if not unseen_rows:
            # Space may be nearly exhausted; fall back to any unseen random point.
            for _ in range(10):
                block = self._space.sample_array(100, self._rng)
                for row, key in zip(block.tolist(), self._space.keys(block).tolist()):
                    if key not in seen_keys:
                        return [tuple(row)]
            return []
        unseen = pool[unseen_rows]
        # Only the mean ranks; the spread is unused, but perfbench's tracer
        # times this method by name as ``bayesopt.predict``.
        mean, _ = surrogate.predict_with_uncertainty(unseen.astype(float))
        order = np.argsort(mean, kind="stable")[:count]
        return [tuple(row) for row in unseen[order].tolist()]
