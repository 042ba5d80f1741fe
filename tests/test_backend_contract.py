"""Cross-backend contract: every simulator agrees on Clifford expectations.

For random small Clifford circuits and random Pauli-sum Hamiltonians, the
dense statevector simulator, the density-matrix simulator (with and without a
zero-noise model), the per-circuit stabilizer simulator, and the packed /
batched stabilizer engine must all report the same expectation for every
Hamiltonian term.  This pins the invariant every higher layer (objective,
search, orchestrator) silently relies on: backends are interchangeable on the
Clifford subset.  A single Pauli's phase is part of the operator on every
backend: a ``-1`` sign negates the expectation, and the tableau rejects the
imaginary expectation of an anti-Hermitian ``±i`` Pauli.
"""

import numpy as np
import pytest

from repro.circuits import EfficientSU2Ansatz
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.clifford_points import CliffordGateProgram, bind_clifford_point
from repro.circuits.gates import angle_from_clifford_index
from repro.exceptions import SimulationError
from repro.noise import ideal_noise_model
from repro.operators import Pauli, PauliSum, random_pauli
from repro.stabilizer import (
    BatchedCliffordTableau,
    PauliSumEvaluator,
    StabilizerSimulator,
)
from repro.statevector import StatevectorSimulator
from repro.statevector.density_matrix import DensityMatrixSimulator

_ONE_QUBIT = ("h", "s", "sdg", "x", "y", "z", "sx", "sxdg")
_TWO_QUBIT = ("cx", "cz", "swap")
_ROTATIONS = ("rx", "ry", "rz")


def random_clifford_circuit(
    num_qubits: int, depth: int, rng: np.random.Generator
) -> QuantumCircuit:
    """A random circuit from fixed Clifford gates and pi/2-multiple rotations."""
    circuit = QuantumCircuit(num_qubits)
    for _ in range(depth):
        draw = rng.random()
        if num_qubits >= 2 and draw < 0.3:
            name = _TWO_QUBIT[int(rng.integers(len(_TWO_QUBIT)))]
            a, b = rng.choice(num_qubits, size=2, replace=False)
            getattr(circuit, name)(int(a), int(b))
        elif draw < 0.65:
            name = _ONE_QUBIT[int(rng.integers(len(_ONE_QUBIT)))]
            getattr(circuit, name)(int(rng.integers(num_qubits)))
        else:
            name = _ROTATIONS[int(rng.integers(len(_ROTATIONS)))]
            angle = angle_from_clifford_index(int(rng.integers(4)))
            getattr(circuit, name)(angle, int(rng.integers(num_qubits)))
    return circuit


def random_hamiltonian(
    num_qubits: int, num_terms: int, rng: np.random.Generator
) -> PauliSum:
    terms = {}
    while len(terms) < num_terms:
        label = random_pauli(num_qubits, rng).label
        terms.setdefault(label, float(rng.normal()))
    return PauliSum(terms)


@pytest.mark.parametrize("trial", range(10))
def test_all_backends_agree_on_random_clifford_circuits(trial):
    rng = np.random.default_rng(1000 + trial)
    num_qubits = int(rng.integers(1, 5))
    circuit = random_clifford_circuit(num_qubits, depth=3 * num_qubits + 2, rng=rng)
    hamiltonian = random_hamiltonian(num_qubits, num_terms=2 * num_qubits + 1, rng=rng)

    statevector = StatevectorSimulator().expectation(circuit, hamiltonian)
    density = DensityMatrixSimulator().expectation(circuit, hamiltonian)
    density_zero_noise = DensityMatrixSimulator(
        noise_model=ideal_noise_model()
    ).expectation(circuit, hamiltonian)
    stabilizer = StabilizerSimulator().expectation(circuit, hamiltonian)

    program = CliffordGateProgram.compile(circuit)
    batched = BatchedCliffordTableau.from_program(
        program, np.zeros((1, program.num_parameters), dtype=np.int64)
    )
    packed = float(PauliSumEvaluator(hamiltonian).expectation_batch(batched)[0])

    assert density == pytest.approx(statevector, abs=1e-9)
    assert density_zero_noise == pytest.approx(statevector, abs=1e-9)
    assert stabilizer == pytest.approx(statevector, abs=1e-9)
    assert packed == pytest.approx(statevector, abs=1e-9)


@pytest.mark.parametrize("trial", range(10))
def test_per_term_expectations_agree(trial):
    """Term-by-term (not just summed) agreement between dense and stabilizer."""
    rng = np.random.default_rng(2000 + trial)
    num_qubits = int(rng.integers(1, 4))
    circuit = random_clifford_circuit(num_qubits, depth=2 * num_qubits + 2, rng=rng)
    state = StatevectorSimulator().run(circuit)
    tableau = StabilizerSimulator().run(circuit)
    for _ in range(4):
        pauli = random_pauli(num_qubits, rng)
        dense = float(np.real(state.expectation(pauli)))
        assert tableau.expectation(pauli) == pytest.approx(dense, abs=1e-9)


@pytest.mark.parametrize("num_qubits,reps", [(2, 1), (3, 1), (3, 2), (4, 1)])
def test_batched_ansatz_points_match_statevector(num_qubits, reps):
    """The CAFQA hot path (compiled program + batched tableaux) against the
    dense reference, for a whole batch of random Clifford points."""
    rng = np.random.default_rng(42 + num_qubits + 10 * reps)
    ansatz = EfficientSU2Ansatz(num_qubits, reps=reps)
    hamiltonian = random_hamiltonian(num_qubits, num_terms=3 * num_qubits, rng=rng)
    points = rng.integers(0, 4, size=(8, ansatz.num_parameters))

    program = CliffordGateProgram.from_ansatz(ansatz)
    batched = BatchedCliffordTableau.from_program(program, points)
    packed = PauliSumEvaluator(hamiltonian).expectation_batch(batched)

    simulator = StatevectorSimulator()
    for position, point in enumerate(points):
        circuit = bind_clifford_point(ansatz, [int(v) for v in point])
        dense = simulator.expectation(circuit, hamiltonian)
        assert float(packed[position]) == pytest.approx(dense, abs=1e-9)


def test_single_pauli_expectation_keeps_its_phase():
    """A Pauli's sign (and an anti-Hermitian ±i phase) is part of the operator."""
    minus_zi = Pauli("-ZI")
    zero = QuantumCircuit(2)
    assert StatevectorSimulator().run(zero).expectation(minus_zi) == -1
    assert DensityMatrixSimulator().run(zero).expectation(minus_zi) == -1
    assert StabilizerSimulator().run(zero).expectation(minus_zi) == -1

    product = Pauli("X") @ Pauli("Z")  # -iY: anti-Hermitian
    circuit = QuantumCircuit(1).h(0).s(0)
    psi = StatevectorSimulator().run(circuit).vector
    exact = np.vdot(psi, product.to_matrix() @ psi)
    assert abs(exact.imag) == pytest.approx(1.0)
    assert StatevectorSimulator().run(circuit).expectation(product) == pytest.approx(exact)
    assert DensityMatrixSimulator().run(circuit).expectation(product) == pytest.approx(exact)
    with pytest.raises(SimulationError, match="anti-Hermitian"):
        StabilizerSimulator().run(circuit).expectation(product)


def test_one_hermiticity_rule_across_backends():
    """Every backend rejects a non-Hermitian operator and absorbs 1e-9 dust."""
    bell = QuantumCircuit(2).h(0).cx(0, 1)
    backends = (
        StatevectorSimulator(),
        DensityMatrixSimulator(),
        DensityMatrixSimulator(noise_model=ideal_noise_model()),
        StabilizerSimulator(),
    )
    non_hermitian = PauliSum({"XX": 1 + 0.5j, "ZZ": 0.5})
    for backend in backends:
        with pytest.raises(SimulationError, match="Hermitian"):
            backend.expectation(bell, non_hermitian)
    with pytest.raises(SimulationError, match="Hermitian"):
        PauliSumEvaluator(non_hermitian)
    dusty = PauliSum({"XX": 1 + 1e-12j, "ZZ": 0.5})
    for backend in backends:
        assert backend.expectation(bell, dusty) == pytest.approx(1.5, abs=1e-9)
