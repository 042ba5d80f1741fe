"""Tests for the Aaronson-Gottesman stabilizer simulator.

The key property: for any Clifford circuit and any Pauli string, the tableau
expectation must agree exactly with the dense statevector expectation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit
from repro.exceptions import SimulationError
from repro.operators import Pauli, PauliSum, random_pauli
from repro.stabilizer import BatchedCliffordTableau, CliffordTableau, StabilizerSimulator
from repro.stabilizer.expectation import PauliSumEvaluator
from repro.statevector import StatevectorSimulator

SINGLE_QUBIT_CLIFFORDS = ["h", "s", "sdg", "x", "y", "z", "sx", "sxdg", "id"]
TWO_QUBIT_CLIFFORDS = ["cx", "cz", "swap"]


def random_clifford_circuit(num_qubits, num_gates, rng):
    circuit = QuantumCircuit(num_qubits)
    for _ in range(num_gates):
        kind = rng.integers(0, 3)
        if kind == 0 or num_qubits == 1:
            name = str(rng.choice(SINGLE_QUBIT_CLIFFORDS))
            circuit._append_named(name, (int(rng.integers(0, num_qubits)),))
        elif kind == 1:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            name = str(rng.choice(TWO_QUBIT_CLIFFORDS))
            circuit._append_named(name, (int(a), int(b)))
        else:
            name = str(rng.choice(["rx", "ry", "rz"]))
            angle = float(rng.integers(0, 4)) * np.pi / 2.0
            circuit._append_named(name, (int(rng.integers(0, num_qubits)),), angle)
    return circuit


def expectation_from_tableau(tableau, hamiltonian):
    """Term-by-term oracle: the coefficient-weighted sum of Pauli expectations."""
    if hamiltonian.num_qubits != tableau.num_qubits:
        raise SimulationError("Hamiltonian and tableau act on different qubit counts")
    total = 0.0
    for term in hamiltonian.terms():
        value = tableau.expectation(term.pauli)
        if value:
            total += float(np.real(term.coefficient)) * value
    return total


def run(circuit):
    return StabilizerSimulator().run(circuit)


class TestTableauBasics:
    def test_initial_state_stabilizers(self):
        tableau = CliffordTableau(2)
        # Generator i is Z on qubit i (qubit 0 is the rightmost label character).
        assert tableau.stabilizer_labels() == ["+IZ", "+ZI"]

    def test_initial_z_expectations(self):
        tableau = CliffordTableau(3)
        assert tableau.expectation(Pauli("IIZ")) == 1
        assert tableau.expectation(Pauli("IXI")) == 0
        assert tableau.expectation(Pauli("III")) == 1

    def test_x_flips_sign(self):
        tableau = run(QuantumCircuit(1).x(0))
        assert tableau.expectation(Pauli("Z")) == -1

    def test_hadamard_rotates_basis(self):
        tableau = run(QuantumCircuit(1).h(0))
        assert tableau.expectation(Pauli("X")) == 1
        assert tableau.expectation(Pauli("Z")) == 0

    def test_bell_state_correlations(self):
        tableau = run(QuantumCircuit(2).h(0).cx(0, 1))
        assert tableau.expectation(Pauli("XX")) == 1
        assert tableau.expectation(Pauli("ZZ")) == 1
        assert tableau.expectation(Pauli("YY")) == -1
        assert tableau.expectation(Pauli("ZI")) == 0

    def test_cx_same_qubit_rejected(self):
        with pytest.raises(SimulationError):
            BatchedCliffordTableau(1, 2).apply_cx(1, 1)

    def test_qubit_range_checked(self):
        with pytest.raises(SimulationError):
            BatchedCliffordTableau(1, 2).apply_h(5)

    def test_mismatched_pauli(self):
        with pytest.raises(SimulationError):
            CliffordTableau(2).expectation(Pauli("XXX"))


class TestSimulator:
    def test_rejects_non_clifford(self):
        circuit = QuantumCircuit(1).t(0)
        with pytest.raises(SimulationError):
            StabilizerSimulator().run(circuit)

    def test_rejects_non_clifford_rotation(self):
        circuit = QuantumCircuit(1).rz(0.3, 0)
        with pytest.raises(SimulationError):
            StabilizerSimulator().run(circuit)

    def test_rejects_unbound_parameters(self):
        from repro.circuits import Parameter

        circuit = QuantumCircuit(1).ry(Parameter("t"), 0)
        with pytest.raises(SimulationError):
            StabilizerSimulator().run(circuit)

    def test_pauli_sum_expectation(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        hamiltonian = PauliSum({"XX": 0.5, "ZZ": 0.25, "II": 1.0, "ZI": 3.0})
        value = StabilizerSimulator().expectation(circuit, hamiltonian)
        assert value == pytest.approx(0.5 + 0.25 + 1.0)

    def test_non_hermitian_operator_rejected(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        with pytest.raises(SimulationError, match="Hermitian"):
            StabilizerSimulator().expectation(circuit, PauliSum({"XX": 1 + 0.5j}))


class TestAgainstStatevector:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_clifford_circuits(self, seed):
        rng = np.random.default_rng(seed)
        num_qubits = int(rng.integers(1, 6))
        circuit = random_clifford_circuit(num_qubits, 25, rng)
        tableau = StabilizerSimulator().run(circuit)
        state = StatevectorSimulator().run(circuit)
        for _ in range(12):
            pauli = random_pauli(num_qubits, rng)
            exact = float(np.real(state.expectation(pauli)))
            assert tableau.expectation(pauli) == pytest.approx(exact, abs=1e-9)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_property_random_circuits(self, seed):
        rng = np.random.default_rng(seed)
        num_qubits = int(rng.integers(1, 5))
        circuit = random_clifford_circuit(num_qubits, 15, rng)
        tableau = StabilizerSimulator().run(circuit)
        state = StatevectorSimulator().run(circuit)
        pauli = random_pauli(num_qubits, rng)
        assert tableau.expectation(pauli) == pytest.approx(
            float(np.real(state.expectation(pauli))), abs=1e-9
        )


class TestPauliSumEvaluator:
    def test_matches_term_by_term_evaluation(self, h2_problem):
        rng = np.random.default_rng(1)
        circuit = random_clifford_circuit(h2_problem.num_qubits, 20, rng)
        tableau = StabilizerSimulator().run(circuit)
        evaluator = PauliSumEvaluator(h2_problem.hamiltonian)
        fast = evaluator.expectation(tableau)
        slow = expectation_from_tableau(tableau, h2_problem.hamiltonian)
        assert fast == pytest.approx(slow, abs=1e-9)

    def test_expectations_are_stabilizer_valued(self, h2_problem):
        rng = np.random.default_rng(2)
        circuit = random_clifford_circuit(h2_problem.num_qubits, 10, rng)
        tableau = StabilizerSimulator().run(circuit)
        evaluator = PauliSumEvaluator(h2_problem.hamiltonian)
        values = evaluator.term_expectations(tableau)
        assert set(np.unique(values)) <= {-1.0, 0.0, 1.0}

    def test_qubit_mismatch(self):
        evaluator = PauliSumEvaluator(PauliSum({"XX": 1.0}))
        with pytest.raises(SimulationError):
            evaluator.expectation(CliffordTableau(3))
