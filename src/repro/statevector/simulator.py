"""Dense statevector simulation of quantum circuits.

This simulator is the exact reference used to validate the stabilizer
simulator, to evaluate non-Clifford parameter points during post-CAFQA VQE
tuning, and to compute exact ground-state expectation values for small
molecules.  States are stored as complex vectors of length ``2**n`` with
qubit 0 as the least-significant bit of the basis-state index.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate
from repro.exceptions import SimulationError
from repro.operators.pauli import Pauli
from repro.operators.pauli_sum import PauliSum


class Statevector:
    """An n-qubit pure state."""

    def __init__(self, data: np.ndarray, num_qubits: Optional[int] = None):
        vector = np.asarray(data, dtype=complex).reshape(-1)
        if num_qubits is None:
            num_qubits = int(np.log2(len(vector)))
        if 2**num_qubits != len(vector):
            raise SimulationError(
                f"statevector of length {len(vector)} is not a power of two"
            )
        self._vector = vector
        self._num_qubits = num_qubits

    @classmethod
    def zero_state(cls, num_qubits: int) -> "Statevector":
        vector = np.zeros(2**num_qubits, dtype=complex)
        vector[0] = 1.0
        return cls(vector, num_qubits)

    @classmethod
    def from_bitstring(cls, bits: Iterable[int]) -> "Statevector":
        """Basis state with ``bits[i]`` giving the value of qubit ``i``."""
        bits = list(bits)
        index = sum(int(bit) << qubit for qubit, bit in enumerate(bits))
        vector = np.zeros(2 ** len(bits), dtype=complex)
        vector[index] = 1.0
        return cls(vector, len(bits))

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def vector(self) -> np.ndarray:
        return self._vector

    def norm(self) -> float:
        return float(np.linalg.norm(self._vector))

    def normalized(self) -> "Statevector":
        norm = self.norm()
        if norm == 0:
            raise SimulationError("cannot normalize the zero vector")
        return Statevector(self._vector / norm, self._num_qubits)

    def probabilities(self) -> np.ndarray:
        return np.abs(self._vector) ** 2

    def inner(self, other: "Statevector") -> complex:
        """The inner product ``<self|other>``."""
        if other.num_qubits != self._num_qubits:
            raise SimulationError("states act on different numbers of qubits")
        return complex(np.vdot(self._vector, other._vector))

    def fidelity(self, other: "Statevector") -> float:
        return abs(self.inner(other)) ** 2

    def expectation(self, operator: "PauliSum | Pauli") -> complex:
        """Expectation value ``<psi|O|psi>``."""
        operator = _as_pauli_sum(operator)
        if operator.num_qubits != self._num_qubits:
            raise SimulationError("operator and state act on different qubit counts")
        total = 0.0 + 0.0j
        for term in operator.terms():
            transformed = _apply_pauli(self._vector, term.pauli, self._num_qubits)
            total += term.coefficient * np.vdot(self._vector, transformed)
        return complex(total)

    def sample_counts(
        self, shots: int, rng: np.random.Generator
    ) -> Dict[str, int]:
        """Sample measurement outcomes; keys are bitstrings with qubit 0 rightmost."""
        probabilities = self.probabilities()
        probabilities = probabilities / probabilities.sum()
        outcomes = rng.choice(len(probabilities), size=shots, p=probabilities)
        counts: Dict[str, int] = {}
        for outcome in outcomes:
            key = format(int(outcome), f"0{self._num_qubits}b")
            counts[key] = counts.get(key, 0) + 1
        return counts

    def __repr__(self) -> str:
        return f"Statevector({self._num_qubits} qubits)"


class StatevectorSimulator:
    """Applies circuits to statevectors gate-by-gate."""

    def run(
        self, circuit: QuantumCircuit, initial_state: Optional[Statevector] = None
    ) -> Statevector:
        """Simulate ``circuit`` and return the final state."""
        if circuit.is_parameterized():
            raise SimulationError("bind all circuit parameters before simulating")
        if initial_state is None:
            state = Statevector.zero_state(circuit.num_qubits).vector.copy()
        else:
            if initial_state.num_qubits != circuit.num_qubits:
                raise SimulationError("initial state size does not match circuit")
            state = initial_state.vector.copy()
        num_qubits = circuit.num_qubits
        for gate in circuit:
            state = _apply_gate(state, gate, num_qubits)
        return Statevector(state, num_qubits)

    def expectation(
        self,
        circuit: QuantumCircuit,
        operator: "PauliSum | Pauli",
        initial_state: Optional[Statevector] = None,
    ) -> float:
        """Expectation value of a Hermitian ``operator`` after ``circuit``.

        A non-Hermitian operator raises :class:`SimulationError` (see
        :meth:`PauliSum.real_coefficients`).
        """
        _as_pauli_sum(operator).real_coefficients()
        state = self.run(circuit, initial_state)
        return float(np.real(state.expectation(operator)))


def _as_pauli_sum(operator: "PauliSum | Pauli") -> PauliSum:
    """``operator`` as a Pauli sum; a single Pauli keeps its phase."""
    if isinstance(operator, Pauli):
        return PauliSum({operator.label: operator.phase})
    return operator


def _apply_gate(state: np.ndarray, gate: Gate, num_qubits: int) -> np.ndarray:
    matrix = gate.matrix()
    if gate.num_qubits == 1:
        return _apply_single_qubit(state, matrix, gate.qubits[0], num_qubits)
    return _apply_two_qubit(state, matrix, gate.qubits[0], gate.qubits[1], num_qubits)


def _apply_single_qubit(
    state: np.ndarray, matrix: np.ndarray, qubit: int, num_qubits: int
) -> np.ndarray:
    """Apply a 2x2 matrix to ``qubit`` using a reshape into (high, 2, low)."""
    low = 2**qubit
    high = 2 ** (num_qubits - qubit - 1)
    tensor = state.reshape(high, 2, low)
    result = np.einsum("ab,hbl->hal", matrix, tensor)
    return result.reshape(-1)

def _apply_two_qubit(
    state: np.ndarray,
    matrix: np.ndarray,
    qubit_a: int,
    qubit_b: int,
    num_qubits: int,
) -> np.ndarray:
    """Apply a 4x4 matrix whose index convention is (qubit_a, qubit_b) = (MSB, LSB)...

    The 4x4 matrices in the gate library follow the usual convention where the
    first qubit argument (e.g. the control of CX) is the more significant bit
    of the 2-qubit index.
    """
    full = state.reshape([2] * num_qubits)  # axis k corresponds to qubit (n-1-k)
    axis_a = num_qubits - 1 - qubit_a
    axis_b = num_qubits - 1 - qubit_b
    moved = np.moveaxis(full, (axis_a, axis_b), (0, 1))
    shape = moved.shape
    flat = moved.reshape(4, -1)
    transformed = matrix @ flat
    restored = transformed.reshape(shape)
    return np.moveaxis(restored, (0, 1), (axis_a, axis_b)).reshape(-1)


def _apply_pauli(state: np.ndarray, pauli: Pauli, num_qubits: int) -> np.ndarray:
    """Apply a Pauli string to a statevector without building a 2^n matrix."""
    result = state
    single = {
        "X": np.array([[0, 1], [1, 0]], dtype=complex),
        "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    }
    for qubit in range(num_qubits):
        label = pauli.qubit_label(qubit)
        if label != "I":
            result = _apply_single_qubit(result, single[label], qubit, num_qubits)
    return result
