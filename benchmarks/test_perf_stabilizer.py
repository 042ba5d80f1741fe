"""Perf benchmarks for the stabilizer engine, written to ``BENCH_stabilizer.json``.

Five sections, each a test below (all skipped unless ``REPRO_BENCH=1``):

* ``results`` — the original hot-path comparison: seed-style per-point loop
  (rebuild the bound ``QuantumCircuit``, one tableau at a time through the
  per-gate oracle loop of ``tests/test_program_segments.py``) vs the
  compiled batched pipeline, at n in {4, 8, 12}, asserting the batched
  pipeline is at least 10x at n=12;
* ``grouped`` — the commuting-group refactor's gate: term-throughput of the
  grouped kernel (one shared tableau pass per qubit-wise commuting group)
  vs the dense per-term kernel on structured Hamiltonians, asserting the
  grouped path is at least 1.5x at n=12;
* ``large_n`` — 50/70/100-qubit Ising/XXZ/MaxCut evaluation throughput
  (grouped vs dense, multi-word packed rows), the regime where no
  statevector can follow;
* ``tableau_bandwidth`` — a memory-bandwidth profile of
  ``BatchedCliffordTableau`` gate application at those sizes;
* ``program_evolve`` — milliseconds per ``from_program`` evolve (rotation
  layers and CX ladders as word-wide segments) against the per-gate loop
  it replaced, asserting the segments are at least 3x faster at n=50, B=1.

Each test merges its section into the JSON so a full ``REPRO_BENCH=1`` run
refreshes the whole file.  Timing only — correctness is covered by
``tests/test_batched_stabilizer.py``, ``tests/test_grouped_expectation.py``,
``tests/test_large_n.py`` and ``tests/test_program_segments.py``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.circuits import CliffordGateProgram, EfficientSU2Ansatz
from repro.circuits.clifford_points import bind_clifford_point
from repro.operators import PauliSum, random_pauli
from repro.problems import ising_chain, maxcut_ring, xxz_chain
from repro.stabilizer import (
    BatchedCliffordTableau,
    PauliSumEvaluator,
    StabilizerSimulator,
)
from tests.test_program_segments import per_gate_apply_program

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_BENCH") != "1",
    reason="perf benchmark; set REPRO_BENCH=1 to run",
)

QUBIT_COUNTS = (4, 8, 12)
LARGE_QUBIT_COUNTS = (50, 70, 100)
BATCH_SIZE = 256
LARGE_BATCH_SIZE = 64
PROGRAM_QUBIT_COUNTS = (4, 12, 50, 100)
PROGRAM_BATCH_SIZES = (1, 64)
OUTPUT_PATH = Path(__file__).resolve().parents[1] / "BENCH_stabilizer.json"


def _update_output(section: str | None, payload) -> None:
    """Merge one section into ``BENCH_stabilizer.json`` (top level if None)."""
    data = {}
    if OUTPUT_PATH.exists():
        data = json.loads(OUTPUT_PATH.read_text())
    if section is None:
        data.update(payload)
    else:
        data[section] = payload
    OUTPUT_PATH.write_text(json.dumps(data, indent=2) + "\n")


def _random_hamiltonian(num_qubits: int, num_terms: int, rng) -> PauliSum:
    terms = {}
    while len(terms) < num_terms:
        label = random_pauli(num_qubits, rng).label
        terms.setdefault(label, float(rng.normal()))
    return PauliSum(terms)


def _all_pairs_heisenberg(num_qubits: int) -> PauliSum:
    """Distance-weighted Heisenberg couplings on every qubit pair.

    A structured workload with O(n^2) terms but only 3 qubit-wise commuting
    groups (all-XX, all-YY, all-ZZ) — the shape the grouped kernel targets.
    """
    terms = {}
    for i in range(num_qubits):
        for j in range(i + 1, num_qubits):
            for axis in "XYZ":
                label = ["I"] * num_qubits
                label[num_qubits - 1 - i] = axis
                label[num_qubits - 1 - j] = axis
                terms["".join(label)] = 1.0 / (1 + j - i)
    return PauliSum(terms)


def _scrambled_states(num_qubits: int, batch: int, seed: int, depth: int = 3):
    """Deterministic per-element random stabilizer states.

    Every layer gives each batch element its own ``ry`` and ``rz`` Clifford
    index on every qubit, then entangles random qubit pairs with CX.
    """
    rng = np.random.default_rng(seed)
    states = BatchedCliffordTableau(batch, num_qubits)
    for _ in range(depth):
        for qubit in range(num_qubits):
            states.apply_rotation("ry", qubit, rng.integers(0, 4, batch))
            states.apply_rotation("rz", qubit, rng.integers(0, 4, batch))
        order = rng.permutation(num_qubits)
        for control, target in zip(order[::2], order[1::2]):
            states.apply_cx(int(control), int(target))
    return states


def _measure(fn, min_seconds: float = 0.3) -> float:
    """Best-of-repeats wall time of ``fn`` (at least ``min_seconds`` total)."""
    fn()  # warm-up
    best, spent = np.inf, 0.0
    while spent < min_seconds:
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        spent += elapsed
    return best


def test_single_vs_batched_objective_throughput():
    rng = np.random.default_rng(1234)
    simulator = StabilizerSimulator()
    results = []
    for num_qubits in QUBIT_COUNTS:
        ansatz = EfficientSU2Ansatz(num_qubits, reps=2)
        program = CliffordGateProgram.from_ansatz(ansatz)
        hamiltonian = _random_hamiltonian(num_qubits, 20 * num_qubits, rng)
        evaluator = PauliSumEvaluator(hamiltonian)
        indices = rng.integers(0, 4, size=(BATCH_SIZE, ansatz.num_parameters))

        # Seed-style loop: rebuild + bind the circuit, simulate one point at a
        # time with the per-gate oracle loop (one op at a time, as the seed
        # engine did), evaluate the Pauli sum per point.  The loop lives in
        # tests/, so this reference does not speed up with the production
        # kernels and the ratio measures the batched pipeline alone.  Timed
        # on a slice of the batch to keep the run short, then normalized to
        # points/sec.
        single_count = max(8, BATCH_SIZE // 16)
        no_slots = np.zeros((1, 0), dtype=np.int64)

        def simulate_single(position):
            circuit = bind_clifford_point(ansatz, indices[position])
            tableau = BatchedCliffordTableau(1, num_qubits)
            per_gate_apply_program(tableau, CliffordGateProgram.compile(circuit), no_slots)
            return tableau[0]

        def run_single():
            for position in range(single_count):
                evaluator.expectation(simulate_single(position))

        def run_batched():
            batched = BatchedCliffordTableau.from_program(program, indices)
            evaluator.expectation_batch(batched)

        single_seconds = _measure(run_single)
        batched_seconds = _measure(run_batched)
        single_pps = single_count / single_seconds
        batched_pps = BATCH_SIZE / batched_seconds
        speedup = batched_pps / single_pps

        # The two paths must produce numerically identical energies.
        batched_values = evaluator.expectation_batch(
            BatchedCliffordTableau.from_program(program, indices)
        )
        for position in range(single_count):
            circuit = bind_clifford_point(ansatz, indices[position])
            value = evaluator.expectation(simulate_single(position))
            assert batched_values[position] == value
            assert value == evaluator.expectation(simulator.run(circuit))

        results.append(
            {
                "num_qubits": num_qubits,
                "num_parameters": ansatz.num_parameters,
                "num_terms": evaluator.num_terms,
                "batch_size": BATCH_SIZE,
                "single_points_per_sec": round(single_pps, 2),
                "batched_points_per_sec": round(batched_pps, 2),
                "speedup": round(speedup, 2),
            }
        )
        print(
            f"n={num_qubits}: single {single_pps:,.0f} pts/s, "
            f"batched {batched_pps:,.0f} pts/s, speedup {speedup:.1f}x"
        )

    _update_output(
        None,
        {
            "benchmark": "stabilizer_objective_throughput",
            "batch_size": BATCH_SIZE,
            "results": results,
        },
    )

    at_12 = next(row for row in results if row["num_qubits"] == 12)
    assert at_12["speedup"] >= 10.0


def test_grouped_vs_ungrouped_term_throughput():
    """Perf gate: the grouped kernel must beat the dense one >= 1.5x at n=12.

    Measured as term-throughput (batch * terms / second) of
    ``expectation_batch`` over prebuilt tableaux, so only the expectation
    kernels are compared.  Structured Hamiltonians only: random Pauli sums
    barely group (and the auto heuristic correctly leaves them dense).
    """
    rng = np.random.default_rng(99)
    results = []
    gated_ratio = None
    for num_qubits in QUBIT_COUNTS:
        ansatz = EfficientSU2Ansatz(num_qubits, reps=2)
        program = CliffordGateProgram.from_ansatz(ansatz)
        indices = rng.integers(0, 4, size=(BATCH_SIZE, ansatz.num_parameters))
        states = BatchedCliffordTableau.from_program(program, indices)
        for name, hamiltonian in (
            ("xxz_chain", xxz_chain(num_sites=num_qubits).hamiltonian),
            ("heisenberg_all_pairs", _all_pairs_heisenberg(num_qubits)),
        ):
            grouped = PauliSumEvaluator(hamiltonian, grouped=True)
            dense = PauliSumEvaluator(hamiltonian, grouped=False)
            # Both kernels must agree bit-for-bit before being timed.
            assert np.array_equal(
                grouped.term_expectations_batch(states),
                dense.term_expectations_batch(states),
            )
            grouped_seconds = _measure(lambda: grouped.expectation_batch(states))
            dense_seconds = _measure(lambda: dense.expectation_batch(states))
            term_rate = BATCH_SIZE * grouped.num_terms
            ratio = dense_seconds / grouped_seconds
            results.append(
                {
                    "num_qubits": num_qubits,
                    "hamiltonian": name,
                    "num_terms": grouped.num_terms,
                    "num_groups": grouped.num_groups,
                    "grouped_terms_per_sec": round(term_rate / grouped_seconds, 2),
                    "dense_terms_per_sec": round(term_rate / dense_seconds, 2),
                    "grouped_over_dense": round(ratio, 2),
                }
            )
            print(
                f"n={num_qubits} {name}: T={grouped.num_terms} "
                f"G={grouped.num_groups} grouped/dense {ratio:.2f}x"
            )
            if num_qubits == 12 and name == "heisenberg_all_pairs":
                gated_ratio = ratio

    _update_output("grouped", {"batch_size": BATCH_SIZE, "results": results})
    assert gated_ratio is not None and gated_ratio >= 1.5


def test_large_n_throughput():
    """50/70/100-qubit Ising/XXZ/MaxCut evaluation throughput entries."""
    results = []
    for num_qubits in LARGE_QUBIT_COUNTS:
        states = _scrambled_states(num_qubits, LARGE_BATCH_SIZE, seed=num_qubits)
        for name, problem in (
            ("ising_chain", ising_chain(num_sites=num_qubits)),
            ("xxz_chain", xxz_chain(num_sites=num_qubits)),
            ("maxcut_ring", maxcut_ring(num_vertices=num_qubits)),
        ):
            hamiltonian = problem.hamiltonian
            grouped = PauliSumEvaluator(hamiltonian, grouped=True)
            dense = PauliSumEvaluator(hamiltonian, grouped=False)
            assert np.array_equal(
                grouped.expectation_batch(states), dense.expectation_batch(states)
            )
            grouped_seconds = _measure(lambda: grouped.expectation_batch(states))
            dense_seconds = _measure(lambda: dense.expectation_batch(states))
            results.append(
                {
                    "num_qubits": num_qubits,
                    "problem": name,
                    "num_terms": grouped.num_terms,
                    "num_groups": grouped.num_groups,
                    "grouped_points_per_sec": round(
                        LARGE_BATCH_SIZE / grouped_seconds, 2
                    ),
                    "dense_points_per_sec": round(LARGE_BATCH_SIZE / dense_seconds, 2),
                    "grouped_over_dense": round(dense_seconds / grouped_seconds, 2),
                }
            )
            print(
                f"n={num_qubits} {name}: grouped "
                f"{LARGE_BATCH_SIZE / grouped_seconds:,.0f} pts/s "
                f"({dense_seconds / grouped_seconds:.2f}x over dense)"
            )
    _update_output("large_n", {"batch_size": LARGE_BATCH_SIZE, "results": results})


def test_tableau_memory_bandwidth():
    """Memory-bandwidth profile of ``BatchedCliffordTableau`` at 50-100 qubits.

    Every gate reads and rewrites one uint64 word-column of the ``(B, 2n, W)``
    x and z blocks plus the sign column, so the effective traffic per gate is
    ~``B * 2n * (4 * 8 + 2)`` bytes for H (2 reads + 2 writes of 8-byte words
    plus the bool signs) and ~``B * 2n * (6 * 8 + 2)`` for CX.  Reported GB/s
    make bandwidth cliffs between sizes visible across PRs.
    """
    results = []
    for num_qubits in LARGE_QUBIT_COUNTS:
        states = BatchedCliffordTableau(BATCH_SIZE, num_qubits)
        rows = 2 * num_qubits

        def apply_h_layer():
            for qubit in range(num_qubits):
                states.apply_h(qubit)

        def apply_cx_layer():
            for qubit in range(num_qubits - 1):
                states.apply_cx(qubit, qubit + 1)

        h_seconds = _measure(apply_h_layer)
        cx_seconds = _measure(apply_cx_layer)
        h_rate = num_qubits / h_seconds
        cx_rate = (num_qubits - 1) / cx_seconds
        h_bytes = BATCH_SIZE * rows * (4 * 8 + 2)
        cx_bytes = BATCH_SIZE * rows * (6 * 8 + 2)
        results.append(
            {
                "num_qubits": num_qubits,
                "batch_size": BATCH_SIZE,
                "words_per_row": states.num_words,
                "h_gates_per_sec": round(h_rate, 2),
                "cx_gates_per_sec": round(cx_rate, 2),
                "h_gbytes_per_sec": round(h_rate * h_bytes / 1e9, 3),
                "cx_gbytes_per_sec": round(cx_rate * cx_bytes / 1e9, 3),
            }
        )
        print(
            f"n={num_qubits}: H {h_rate:,.0f} gates/s "
            f"({h_rate * h_bytes / 1e9:.2f} GB/s), "
            f"CX {cx_rate:,.0f} gates/s ({cx_rate * cx_bytes / 1e9:.2f} GB/s)"
        )
    _update_output("tableau_bandwidth", {"results": results})


def test_layered_evolve_vs_per_gate():
    """Perf gate: segment evolves must beat the per-gate loop >= 3x at n=50, B=1.

    ``from_program`` on an EfficientSU2 (reps=1) program runs each rotation
    layer and each CX ladder as one word-wide update; the per-gate loop is
    the dispatcher it replaced (the oracle of
    ``tests/test_program_segments.py``).  Both must build the same tableau.
    """
    rng = np.random.default_rng(50)
    results = []
    gated_ratio = None
    for num_qubits in PROGRAM_QUBIT_COUNTS:
        program = CliffordGateProgram.from_ansatz(EfficientSU2Ansatz(num_qubits, reps=1))
        for batch in PROGRAM_BATCH_SIZES:
            indices = rng.integers(0, 4, size=(batch, program.num_parameters))

            def layered():
                return BatchedCliffordTableau.from_program(program, indices)

            def per_gate():
                tableau = BatchedCliffordTableau(batch, num_qubits)
                per_gate_apply_program(tableau, program, indices)
                return tableau

            for got, want in zip(
                layered().symplectic_view(), per_gate().symplectic_view()
            ):
                assert np.array_equal(got, want)
            layered_seconds = _measure(layered)
            per_gate_seconds = _measure(per_gate)
            ratio = per_gate_seconds / layered_seconds
            results.append(
                {
                    "num_qubits": num_qubits,
                    "batch_size": batch,
                    "num_ops": program.num_ops,
                    "num_segments": len(program.segments),
                    "segments_ms": round(layered_seconds * 1e3, 4),
                    "per_gate_ms": round(per_gate_seconds * 1e3, 4),
                    "speedup": round(ratio, 2),
                }
            )
            print(
                f"n={num_qubits} B={batch}: segments {layered_seconds * 1e3:.3f} ms, "
                f"per gate {per_gate_seconds * 1e3:.3f} ms ({ratio:.1f}x)"
            )
            if num_qubits == 50 and batch == 1:
                gated_ratio = ratio
    _update_output("program_evolve", {"results": results})
    assert gated_ratio is not None and gated_ratio >= 3.0
