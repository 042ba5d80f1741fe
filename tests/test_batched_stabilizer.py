"""Tests for the bit-packed batched stabilizer engine.

Two properties anchor the batched hot path:

* packed single-state and batched tableau expectations agree exactly with
  the dense statevector backend on random Clifford circuits, and
* batched objective evaluation is bit-for-bit identical to the sequential
  per-point loop (the search trajectory must not depend on batch size).
"""

import numpy as np
import pytest

from repro.circuits import CliffordGateProgram, EfficientSU2Ansatz, QuantumCircuit
from repro.circuits.clifford_points import bind_clifford_point
from repro.core.objective import CliffordObjective
from repro.core.search import coordinate_descent
from repro.exceptions import SimulationError
from repro.operators import Pauli, random_pauli
from repro.stabilizer import (
    BatchedCliffordTableau,
    CliffordTableau,
    StabilizerSimulator,
    pack_bits,
    pauli_product_phase,
    unpack_bits,
)
from repro.statevector import StatevectorSimulator
from tests.test_stabilizer import random_clifford_circuit


class TestSymplecticHelpers:
    @pytest.mark.parametrize("num_qubits", [1, 7, 63, 64, 65, 130])
    def test_pack_unpack_roundtrip(self, num_qubits):
        rng = np.random.default_rng(num_qubits)
        bits = rng.random((5, num_qubits)) < 0.5
        packed = pack_bits(bits)
        assert packed.dtype == np.uint64
        assert packed.shape == (5, (num_qubits + 63) // 64)
        assert np.array_equal(unpack_bits(packed, num_qubits), bits)

    def test_swar_popcount_fallback_matches(self):
        from repro.stabilizer.symplectic import _popcount_swar

        rng = np.random.default_rng(9)
        words = rng.integers(0, 2**64, size=64, dtype=np.uint64)
        words = np.concatenate([words, [np.uint64(0), np.uint64(2**64 - 1)]])
        expected = np.array([bin(int(w)).count("1") for w in words])
        assert np.array_equal(_popcount_swar(words).astype(int), expected)

    def test_product_phase_matches_pauli_compose(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            num_qubits = int(rng.integers(1, 9))
            first = random_pauli(num_qubits, rng)
            second = random_pauli(num_qubits, rng)
            phase = pauli_product_phase(
                pack_bits(first.x), pack_bits(first.z),
                pack_bits(second.x), pack_bits(second.z),
            )
            assert 1j ** int(phase) == (first @ second).phase


class TestPackedAgainstStatevector:
    def test_200_random_circuits_match_statevector(self):
        """Packed single + batched tableaux vs dense statevector, ~200 circuits."""
        rng = np.random.default_rng(2023)
        simulator = StabilizerSimulator()
        for trial in range(200):
            num_qubits = int(rng.integers(1, 9))
            circuit = random_clifford_circuit(num_qubits, int(rng.integers(5, 30)), rng)
            tableau = simulator.run(circuit)
            program = CliffordGateProgram.compile(circuit)
            batched = BatchedCliffordTableau.from_program(
                program, np.zeros((3, 0), dtype=np.int64)
            )
            state = StatevectorSimulator().run(circuit)
            for _ in range(3):
                pauli = random_pauli(num_qubits, rng)
                exact = float(np.real(state.expectation(pauli)))
                assert tableau.expectation(pauli) == pytest.approx(exact, abs=1e-9)
                values = batched.expectations(pauli)
                assert values.shape == (3,)
                assert np.all(values == tableau.expectation(pauli))

    def test_batched_rotation_indices_match_per_point_runs(self):
        """Per-batch-element rotation indices (fused truth tables) vs one bound
        circuit per point (fixed angles, decomposed into H/S/Pauli gates)."""
        rng = np.random.default_rng(7)
        simulator = StabilizerSimulator()
        for num_qubits in (2, 3, 5):
            ansatz = EfficientSU2Ansatz(num_qubits, reps=2)
            program = CliffordGateProgram.from_ansatz(ansatz)
            indices = rng.integers(0, 4, size=(16, ansatz.num_parameters))
            batched = BatchedCliffordTableau.from_program(program, indices)
            paulis = [random_pauli(num_qubits, rng) for _ in range(4)]
            for position in range(indices.shape[0]):
                reference = simulator.run(
                    bind_clifford_point(ansatz, indices[position])
                )
                for pauli in paulis:
                    assert batched.expectations(pauli)[position] == reference.expectation(
                        pauli
                    )


class TestBatchedTableauApi:
    def test_single_vector_is_batch_of_one(self):
        ansatz = EfficientSU2Ansatz(2, reps=1)
        program = CliffordGateProgram.from_ansatz(ansatz)
        point = [1] * ansatz.num_parameters
        batched = BatchedCliffordTableau.from_program(program, point)
        assert batched.batch_size == 1

    def test_extract_is_independent_copy(self):
        batched = BatchedCliffordTableau(2, 1)
        single = batched.extract(0)
        batched.apply_x(0)
        assert batched.expectations(Pauli("Z"))[0] == -1
        assert single.expectation(Pauli("Z")) == 1

    def test_views_are_readonly(self):
        tableau = CliffordTableau(2)
        view = tableau.symplectic_view()
        with pytest.raises(ValueError):
            view.x[0, 0] = 1
        block = BatchedCliffordTableau(2, 2).stabilizer_block()
        with pytest.raises(ValueError):
            block.r[0, 0] = True

    def test_multiword_ghz_state(self):
        """A 70-qubit GHZ crosses the 64-bit word boundary."""
        num_qubits = 70
        circuit = QuantumCircuit(num_qubits).h(0)
        for qubit in range(1, num_qubits):
            circuit.cx(qubit - 1, qubit)
        tableau = StabilizerSimulator().run(circuit)
        assert tableau.expectation(Pauli("X" * num_qubits)) == 1
        assert tableau.expectation(Pauli("Z" * num_qubits)) == (
            1 if num_qubits % 2 == 0 else 0
        )
        assert tableau.expectation(Pauli.single(num_qubits, 69, "Z")) == 0
        two_point = Pauli("Z" + "I" * 68 + "Z")
        assert tableau.expectation(two_point) == 1

    def test_index_matrix_validation(self):
        ansatz = EfficientSU2Ansatz(2, reps=1)
        program = CliffordGateProgram.from_ansatz(ansatz)
        bad = np.full((2, ansatz.num_parameters), 5)
        with pytest.raises(SimulationError):
            BatchedCliffordTableau.from_program(program, bad)
        with pytest.raises(SimulationError):
            BatchedCliffordTableau.from_program(program, np.zeros((2, 3), dtype=int))

    def test_mismatched_pauli_rejected(self):
        batched = BatchedCliffordTableau(2, 2)
        with pytest.raises(SimulationError):
            batched.expectations(Pauli("XXX"))


# Rotation gates at k * pi/2 as Clifford generator sequences, applied left to
# right (exact up to a global phase): the oracle for the fused kernel.
_ROTATION_SEQUENCES = {
    "rz": {1: ("s",), 2: ("z",), 3: ("sdg",)},
    "rx": {1: ("sx",), 2: ("x",), 3: ("sxdg",)},
    "ry": {1: ("h", "x"), 2: ("y",), 3: ("x", "h")},
}


class TestFusedRotationKernel:
    @pytest.mark.parametrize("num_qubits", [64, 65, 128, 129])
    def test_matches_gate_decomposition(self, num_qubits):
        """``apply_rotation`` == the generator sequence, per batch element."""
        rng = np.random.default_rng(num_qubits)
        rows, words = 24, (num_qubits + 63) // 64
        x = pack_bits(rng.random((4 * rows, num_qubits)) < 0.5).reshape(4, rows, words)
        z = pack_bits(rng.random((4 * rows, num_qubits)) < 0.5).reshape(4, rows, words)
        r = rng.random((4, rows)) < 0.5
        for name, sequences in _ROTATION_SEQUENCES.items():
            for qubit in sorted({0, 63, 64, num_qubits - 1} & set(range(num_qubits))):
                indices = rng.permutation(4)
                fused = BatchedCliffordTableau._from_arrays(
                    x.copy(), z.copy(), r.copy(), num_qubits
                )
                fused.apply_rotation(name, qubit, indices)
                view = fused.symplectic_view()
                for element, index in enumerate(indices):
                    oracle = BatchedCliffordTableau._from_arrays(
                        x[element : element + 1].copy(),
                        z[element : element + 1].copy(),
                        r[element : element + 1].copy(),
                        num_qubits,
                    )
                    for gate in sequences.get(int(index), ()):
                        getattr(oracle, f"apply_{gate}")(qubit)
                    expected = oracle.symplectic_view()
                    assert np.array_equal(view.x[element], expected.x[0])
                    assert np.array_equal(view.z[element], expected.z[0])
                    assert np.array_equal(view.r[element], expected.r[0])


class TestBatchedObjectiveRegression:
    """Batched and sequential objective evaluations agree bit-for-bit."""

    def _assert_bitwise_equal(self, problem, num_points=48, seed=11):
        ansatz = EfficientSU2Ansatz(problem.num_qubits, reps=1)
        rng = np.random.default_rng(seed)
        samples = rng.integers(0, 4, size=(num_points, ansatz.num_parameters))
        points = [tuple(row) for row in samples.tolist()]
        sequential = CliffordObjective(problem, ansatz, penalty_weight=1.0)
        batched = CliffordObjective(problem, ansatz, penalty_weight=1.0)
        expected = np.array([sequential(point) for point in points])
        actual = batched.evaluate_batch(points)
        assert np.array_equal(expected, actual)  # bit-for-bit, not approx

    def test_h2_bitwise(self, h2_problem):
        self._assert_bitwise_equal(h2_problem)

    def test_lih_bitwise(self, lih_problem):
        self._assert_bitwise_equal(lih_problem)

    def test_duplicates_and_cache_hits(self, h2_problem):
        ansatz = EfficientSU2Ansatz(h2_problem.num_qubits, reps=1)
        objective = CliffordObjective(h2_problem, ansatz, penalty_weight=1.0)
        point = [1] * ansatz.num_parameters
        other = [2] * ansatz.num_parameters
        single = objective(point)
        values = objective.evaluate_batch([point, other, point])
        assert values[0] == single and values[2] == single
        assert values[1] == objective(other)

    def test_coordinate_descent_batched_matches_sequential(self, h2_problem):
        ansatz = EfficientSU2Ansatz(h2_problem.num_qubits, reps=1)
        batched = CliffordObjective(h2_problem, ansatz, penalty_weight=1.0)

        sequential = CliffordObjective(h2_problem, ansatz, penalty_weight=1.0)

        def pointwise(points):
            """One full simulation per point: no neighbourhood pricing."""
            return [sequential(point) for point in points]

        start = [0] * ansatz.num_parameters
        reference = coordinate_descent(pointwise, start, cardinality=4, max_sweeps=3)
        fast = coordinate_descent(
            batched.evaluate_batch, start, cardinality=4, max_sweeps=3
        )
        assert fast[0] == reference[0]
        assert fast[1] == reference[1]
        assert [(o.point, o.value, o.iteration) for o in fast[2]] == [
            (o.point, o.value, o.iteration) for o in reference[2]
        ]
