"""The stabilizer overlap kernel: |<a|b>|^2 by symplectic rank/sign arithmetic.

Property-tests the kernel against the dense statevector simulator on random
Clifford states, pins the hand-checkable special cases (basis states, Bell
pairs, GHZ), and checks the batched matrix agrees bit-for-bit with pairwise
single-state calls — including beyond one uint64 word of packing.
"""

import numpy as np
import pytest

from repro.circuits.ansatz import EfficientSU2Ansatz
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.clifford_points import CliffordGateProgram, bind_clifford_point
from repro.exceptions import SimulationError
from repro.stabilizer import (
    BatchedCliffordTableau,
    CliffordTableau,
    StabilizerSimulator,
    overlap_squared,
    stabilizer_state_overlaps,
)
from repro.statevector.simulator import StatevectorSimulator


def _random_states(num_qubits, count, rng, reps=2):
    ansatz = EfficientSU2Ansatz(num_qubits, reps=reps)
    program = CliffordGateProgram.from_ansatz(ansatz)
    points = rng.integers(0, 4, size=(count, ansatz.num_parameters))
    return ansatz, points, BatchedCliffordTableau.from_program(program, points)


def _state(circuit):
    return StabilizerSimulator().run(circuit)


class TestAgainstStatevector:
    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4, 6])
    def test_random_clifford_states_match_dense_fidelity(self, num_qubits):
        rng = np.random.default_rng(20 + num_qubits)
        simulator = StatevectorSimulator()
        ansatz, points_a, batch_a = _random_states(num_qubits, 6, rng)
        _, points_b, batch_b = _random_states(num_qubits, 5, rng)
        got = stabilizer_state_overlaps(batch_a, batch_b)
        vectors_a = [
            simulator.run(bind_clifford_point(ansatz, p)).vector for p in points_a
        ]
        vectors_b = [
            simulator.run(bind_clifford_point(ansatz, p)).vector for p in points_b
        ]
        want = np.array(
            [[abs(np.vdot(a, b)) ** 2 for b in vectors_b] for a in vectors_a]
        )
        assert np.allclose(got, want, atol=1e-12)

    def test_every_value_is_an_exact_power_of_two_or_zero(self):
        rng = np.random.default_rng(7)
        _, _, batch_a = _random_states(4, 8, rng)
        _, _, batch_b = _random_states(4, 8, rng)
        overlaps = stabilizer_state_overlaps(batch_a, batch_b)
        for value in overlaps.flatten():
            assert value == 0.0 or np.log2(value) == int(np.log2(value))

    def test_self_overlap_is_exactly_one(self):
        rng = np.random.default_rng(11)
        _, _, batch = _random_states(5, 7, rng)
        assert np.array_equal(
            np.diag(stabilizer_state_overlaps(batch, batch)), np.ones(7)
        )


class TestSpecialCases:
    def test_basis_states(self):
        zero = CliffordTableau(3)
        flipped = _state(QuantumCircuit(3).x(1))
        assert overlap_squared(zero, zero) == 1.0
        assert overlap_squared(zero, flipped) == 0.0

    def test_bell_pair_against_basis_state(self):
        bell = _state(QuantumCircuit(2).h(0).cx(0, 1))
        zero = CliffordTableau(2)
        one_one = _state(QuantumCircuit(2).x(0).x(1))
        assert overlap_squared(bell, zero) == 0.5
        assert overlap_squared(bell, one_one) == 0.5

    def test_orthogonal_bell_pairs(self):
        plus = _state(QuantumCircuit(2).h(0).cx(0, 1))
        minus = _state(QuantumCircuit(2).h(0).cx(0, 1).z(0))  # |00> - |11>
        assert overlap_squared(plus, minus) == 0.0

    def test_ghz_against_uniform_superposition(self):
        n = 3
        ghz = _state(QuantumCircuit(n).h(0).cx(0, 1).cx(1, 2))
        plus = _state(QuantumCircuit(n).h(0).h(1).h(2))
        # <GHZ|+++> = (1 + 1) / (sqrt(2) * sqrt(8))
        assert overlap_squared(ghz, plus) == 0.25

    def test_multi_word_packing(self):
        # 70 qubits: two uint64 words per row; Bell pair across the word seam.
        n = 70
        zero = CliffordTableau(n)
        bell = _state(QuantumCircuit(n).h(63).cx(63, 64))
        flipped = _state(QuantumCircuit(n).x(69))
        assert overlap_squared(zero, bell) == 0.5
        assert overlap_squared(zero, flipped) == 0.0
        assert overlap_squared(bell, bell) == 1.0

    def test_mismatched_qubit_counts_rejected(self):
        with pytest.raises(SimulationError, match="different qubit counts"):
            stabilizer_state_overlaps(CliffordTableau(2), CliffordTableau(3))


class TestBatchedConsistency:
    def test_matrix_matches_pairwise_single_calls(self):
        rng = np.random.default_rng(3)
        _, _, batch_a = _random_states(3, 5, rng)
        _, _, batch_b = _random_states(3, 4, rng)
        matrix = stabilizer_state_overlaps(batch_a, batch_b)
        for i in range(5):
            for j in range(4):
                assert matrix[i, j] == overlap_squared(batch_a[i], batch_b[j])

    def test_single_state_tableaux_accepted_directly(self):
        rng = np.random.default_rng(4)
        _, _, batch = _random_states(3, 3, rng)
        column = stabilizer_state_overlaps(batch, batch[0])
        assert column.shape == (3, 1)
        assert np.array_equal(
            column[:, 0], stabilizer_state_overlaps(batch, batch)[:, 0]
        )
