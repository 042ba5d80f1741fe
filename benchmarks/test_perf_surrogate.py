"""Perf benchmark: vectorized surrogate engine vs the pre-PR-3 reference.

Two measurements, written to ``BENCH_surrogate.json`` at the repo root:

* **Forest microbenchmark** — fit + candidate-pool predict of the search's
  production surrogate configuration (12 trees, depth 10) at 100 and 400
  observations x 72 parameters (the LiH-scale search space), comparing the
  flat-array engine against the original ``_Node``-based implementation
  kept in ``tests/reference_forest.py``.
* **End-to-end search** — the same seeded 400-evaluation CAFQA search on
  stretched H2 (the ``BENCH_orchestrator.json`` configuration) run once with
  the vectorized engine and once with the reference forest (same 12 trees,
  depth 10) monkeypatched in as the optimizer's ``RandomForestRegressor``,
  i.e. the PR-2 hot path reproduced on today's code.

Gates (the ISSUE-3 acceptance criteria): >= 20x fit+predict throughput at
400 obs x 72 params, and >= 5x end-to-end evals/sec over the reference
surrogate.  Skipped unless ``REPRO_BENCH=1``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.bayesopt import optimizer
from repro.bayesopt.forest import RandomForestRegressor
from repro.chemistry import make_problem
from repro.circuits import EfficientSU2Ansatz
from repro.core.objective import CliffordObjective
from repro.core.search import CafqaSearch
from tests.reference_forest import ReferenceRandomForest

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_BENCH") != "1",
    reason="perf benchmark; set REPRO_BENCH=1 to run",
)

NUM_PARAMETERS = 72
POOL_SIZE = 200
NUM_TREES = 12
MAX_DEPTH = 10
OBSERVATION_COUNTS = (100, 400)
SEARCH_SEED = 0
MAX_EVALUATIONS = 400
ANSATZ_REPS = 2
OUTPUT_PATH = Path(__file__).resolve().parents[1] / "BENCH_surrogate.json"


def _fit_predict_seconds(make_forest, features, targets, pool, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        forest = make_forest().fit(features, targets)
        forest.predict_with_uncertainty(pool)
        best = min(best, time.perf_counter() - start)
    return best


def test_surrogate_throughput_and_search_speed(monkeypatch):
    generator = np.random.default_rng(0)
    pool = generator.integers(0, 4, size=(POOL_SIZE, NUM_PARAMETERS)).astype(float)
    forest_rows = {}
    for count in OBSERVATION_COUNTS:
        features = generator.integers(0, 4, size=(count, NUM_PARAMETERS)).astype(float)
        targets = generator.normal(size=count)
        fast = _fit_predict_seconds(
            lambda: RandomForestRegressor(
                num_trees=NUM_TREES, max_depth=MAX_DEPTH, rng=np.random.default_rng(7)
            ),
            features, targets, pool, repeats=3,
        )
        reference = _fit_predict_seconds(
            lambda: ReferenceRandomForest(
                num_trees=NUM_TREES, max_depth=MAX_DEPTH, rng=np.random.default_rng(7)
            ),
            features, targets, pool, repeats=1,
        )
        forest_rows[count] = {
            "reference_ms": round(reference * 1e3, 2),
            "vectorized_ms": round(fast * 1e3, 2),
            "speedup": round(reference / fast, 1),
        }
        print(
            f"{count} obs x {NUM_PARAMETERS} params: reference "
            f"{reference * 1e3:.0f}ms, vectorized {fast * 1e3:.1f}ms "
            f"({reference / fast:.0f}x)"
        )

    problem = make_problem("H2", 2.5)

    def search() -> CafqaSearch:
        ansatz = EfficientSU2Ansatz(problem.num_qubits, reps=ANSATZ_REPS)
        return CafqaSearch(CliffordObjective(problem, ansatz), seed=SEARCH_SEED)

    start = time.perf_counter()
    vectorized_result = search().run(max_evaluations=MAX_EVALUATIONS)
    vectorized_seconds = time.perf_counter() - start
    vectorized_rate = vectorized_result.num_iterations / vectorized_seconds

    # The optimizer builds its forest as RandomForestRegressor(num_trees=12,
    # max_depth=10, rng=...); the reference forest takes the same arguments.
    monkeypatch.setattr(optimizer, "RandomForestRegressor", ReferenceRandomForest)
    start = time.perf_counter()
    reference_result = search().run(max_evaluations=MAX_EVALUATIONS)
    reference_seconds = time.perf_counter() - start
    monkeypatch.undo()
    reference_rate = reference_result.num_iterations / reference_seconds

    print(
        f"end-to-end H2: vectorized {vectorized_rate:.1f} evals/s "
        f"({vectorized_seconds:.2f}s / {vectorized_result.num_iterations} evals), "
        f"reference surrogate {reference_rate:.1f} evals/s "
        f"({reference_seconds:.2f}s / {reference_result.num_iterations} evals)"
    )

    payload = {
        "benchmark": "surrogate_engine_throughput",
        "cpu_count": os.cpu_count() or 1,
        "forest": {
            "num_trees": NUM_TREES,
            "max_depth": MAX_DEPTH,
            "num_parameters": NUM_PARAMETERS,
            "pool_size": POOL_SIZE,
            "fit_predict_ms_by_observations": forest_rows,
        },
        "end_to_end": {
            "molecule": "H2",
            "seed": SEARCH_SEED,
            "max_evaluations": MAX_EVALUATIONS,
            "ansatz_reps": ANSATZ_REPS,
            "vectorized_seconds": round(vectorized_seconds, 3),
            "vectorized_evaluations": vectorized_result.num_iterations,
            "vectorized_evals_per_sec": round(vectorized_rate, 1),
            "reference_seconds": round(reference_seconds, 3),
            "reference_evaluations": reference_result.num_iterations,
            "reference_evals_per_sec": round(reference_rate, 1),
            "speedup": round(vectorized_rate / reference_rate, 2),
            "vectorized_energy": vectorized_result.energy,
            "reference_energy": reference_result.energy,
        },
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    # Both engines must land at chemically sensible ground states.
    assert vectorized_result.energy <= problem.hf_energy + 1e-9
    assert reference_result.energy <= problem.hf_energy + 1e-9
    # ISSUE-3 acceptance gates.
    assert forest_rows[400]["speedup"] >= 20.0
    assert vectorized_rate >= 5.0 * reference_rate
