"""The pre-neighbourhood ``coordinate_descent``: the differential oracle.

This is :func:`repro.core.search.coordinate_descent` as it was before each
dimension's alternates were evaluated as a neighbourhood of the incumbent:
one batch per sweep, then one full single-point simulation per candidate
after the first improvement.  It is kept verbatim, outside ``src/``, so
tests can assert that the current refinement records the identical
observations (points, values compared with ``==``, iterations, phases).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.bayesopt.optimizer import Observation


def coordinate_descent(
    objective,
    start_point: Sequence[int],
    cardinality: int,
    max_sweeps: int = 4,
    start_iteration: int = 0,
    callback: Optional[Callable[[Observation], None]] = None,
) -> tuple[tuple, float, List[Observation]]:
    """Greedy one-parameter-at-a-time descent over a discrete space.

    Sweeps every coordinate, trying each of its ``cardinality`` values while
    holding the rest fixed, and keeps any improvement.  Stops after a full
    sweep with no improvement or after ``max_sweeps`` sweeps.  Returns the
    best point, its value, and the evaluations performed (phase ``"refine"``).

    Objectives exposing ``evaluate_batch`` (e.g. ``CliffordObjective``) are
    driven in batches: each sweep's candidate set is simulated together up
    front, and re-batched from the incumbent whenever an improvement shifts
    it.  Batch values match pointwise ones exactly, so the greedy trajectory
    — points visited, adoption decisions, recorded observations — is
    identical to the sequential loop.
    """
    batch_evaluate = getattr(objective, "evaluate_batch", None)

    def substitute(point: tuple, dimension: int, value: int) -> tuple:
        candidate = list(point)
        candidate[dimension] = value
        return tuple(candidate)

    def sweep_candidates(point: tuple, num_dimensions: int) -> tuple[List[tuple], np.ndarray]:
        """All single-coordinate mutations of ``point``, built as one array.

        Row order matches the scalar loop below — dimension-major, candidate
        values ascending with the incumbent value skipped — so the recorded
        observations are identical either way.
        """
        base = np.asarray(point, dtype=np.int64)
        values = np.tile(np.arange(cardinality, dtype=np.int64), (num_dimensions, 1))
        alternates = values[values != base[:, None]].reshape(
            num_dimensions, cardinality - 1
        )
        mutated_dimension = np.repeat(np.arange(num_dimensions), cardinality - 1)
        matrix = np.tile(base, (len(mutated_dimension), 1))
        matrix[np.arange(len(mutated_dimension)), mutated_dimension] = (
            alternates.reshape(-1)
        )
        candidates = [tuple(row) for row in matrix.tolist()]
        return candidates, batch_evaluate(matrix)

    current = tuple(int(v) for v in start_point)
    current_value = float(objective(current))
    observations: List[Observation] = []
    iteration = start_iteration
    dimensions = len(current)
    for _ in range(max_sweeps):
        improved = False
        batched: dict = {}
        if batch_evaluate is not None and dimensions and cardinality > 1:
            points, values = sweep_candidates(current, dimensions)
            batched = dict(zip(points, values))
        for dimension in range(dimensions):
            for candidate_value in range(cardinality):
                if candidate_value == current[dimension]:
                    continue
                candidate = substitute(current, dimension, candidate_value)
                if candidate in batched:
                    value = float(batched[candidate])
                else:
                    value = float(objective(candidate))
                iteration += 1
                observation = Observation(
                    point=candidate, value=value, iteration=iteration, phase="refine"
                )
                observations.append(observation)
                if callback is not None:
                    callback(observation)
                if value < current_value - 1e-12:
                    current, current_value = candidate, value
                    improved = True
                    # The rest of this sweep branches off the new incumbent,
                    # so later candidates miss `batched` and fall back to
                    # pointwise calls.  That bounds each sweep at one batch
                    # plus at most a sequential remainder (re-batching here
                    # instead would cost O(dims^2) on improvement-dense
                    # sweeps); the next sweep re-batches everything from the
                    # new incumbent, and the final convergence sweep — which
                    # never improves — is always a single batch.
        if not improved:
            break
    return current, current_value, observations
