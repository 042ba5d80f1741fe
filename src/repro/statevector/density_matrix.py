"""Density-matrix simulation with optional noise channels.

Used to model "noisy machine" baselines (the paper's IBMQ Casablanca /
Manhattan comparisons in Fig. 5 and the noisy post-CAFQA VQE in Fig. 14).
The density matrix costs ``4**n`` memory, so this backend is intended for
the small systems those experiments use (2–6 qubits).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.exceptions import SimulationError
from repro.operators.pauli import Pauli
from repro.operators.pauli_sum import PauliSum
from repro.statevector.simulator import Statevector, _apply_two_qubit, _as_pauli_sum


class DensityMatrix:
    """An n-qubit mixed state."""

    def __init__(self, data: np.ndarray, num_qubits: Optional[int] = None):
        matrix = np.asarray(data, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise SimulationError("density matrix must be square")
        if num_qubits is None:
            num_qubits = int(np.log2(matrix.shape[0]))
        if 2**num_qubits != matrix.shape[0]:
            raise SimulationError("density matrix dimension is not a power of two")
        self._matrix = matrix
        self._num_qubits = num_qubits

    @classmethod
    def zero_state(cls, num_qubits: int) -> "DensityMatrix":
        dim = 2**num_qubits
        matrix = np.zeros((dim, dim), dtype=complex)
        matrix[0, 0] = 1.0
        return cls(matrix, num_qubits)

    @classmethod
    def from_statevector(cls, state: Statevector) -> "DensityMatrix":
        vector = state.vector
        return cls(np.outer(vector, vector.conj()), state.num_qubits)

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    def trace(self) -> complex:
        return complex(np.trace(self._matrix))

    def purity(self) -> float:
        return float(np.real(np.trace(self._matrix @ self._matrix)))

    def expectation(self, operator: "PauliSum | Pauli") -> complex:
        operator = _as_pauli_sum(operator)
        if operator.num_qubits != self._num_qubits:
            raise SimulationError("operator and state act on different qubit counts")
        return complex(np.trace(operator.to_matrix() @ self._matrix))

    def probabilities(self) -> np.ndarray:
        return np.real(np.diag(self._matrix)).clip(min=0.0)

    def __repr__(self) -> str:
        return f"DensityMatrix({self._num_qubits} qubits)"


class DensityMatrixSimulator:
    """Simulates circuits on density matrices, applying a noise model if given.

    The noise model (see :mod:`repro.noise`) attaches Kraus channels after
    each gate and a classical readout-error map to measurement probabilities.
    """

    def __init__(self, noise_model=None):
        self._noise_model = noise_model

    def run(
        self, circuit: QuantumCircuit, initial_state: Optional[DensityMatrix] = None
    ) -> DensityMatrix:
        if circuit.is_parameterized():
            raise SimulationError("bind all circuit parameters before simulating")
        if initial_state is None:
            rho = DensityMatrix.zero_state(circuit.num_qubits).matrix.copy()
        else:
            if initial_state.num_qubits != circuit.num_qubits:
                raise SimulationError("initial state size does not match circuit")
            rho = initial_state.matrix.copy()
        num_qubits = circuit.num_qubits
        for gate in circuit:
            rho = _apply_gate_to_density(rho, gate, num_qubits)
            if self._noise_model is not None:
                for kraus_ops, qubits in self._noise_model.channels_for_gate(gate):
                    rho = _apply_kraus(rho, kraus_ops, qubits, num_qubits)
        return DensityMatrix(rho, num_qubits)

    def expectation(
        self,
        circuit: QuantumCircuit,
        operator: "PauliSum | Pauli",
        initial_state: Optional[DensityMatrix] = None,
    ) -> float:
        """Noisy expectation value including readout error on diagonal terms.

        A non-Hermitian operator raises :class:`SimulationError` (see
        :meth:`PauliSum.real_coefficients`).
        """
        operator = _as_pauli_sum(operator)
        operator.real_coefficients()
        rho = self.run(circuit, initial_state)
        if self._noise_model is None or not self._noise_model.has_readout_error:
            return float(np.real(rho.expectation(operator)))
        return float(np.real(self._readout_adjusted_expectation(rho, operator)))

    def probabilities(self, circuit: QuantumCircuit) -> np.ndarray:
        """Measurement probabilities after the circuit, with readout error applied."""
        rho = self.run(circuit)
        probabilities = rho.probabilities()
        if self._noise_model is not None and self._noise_model.has_readout_error:
            probabilities = self._noise_model.apply_readout_error(
                probabilities, circuit.num_qubits
            )
        return probabilities

    def sample_counts(
        self, circuit: QuantumCircuit, shots: int, rng: np.random.Generator
    ) -> Dict[str, int]:
        probabilities = self.probabilities(circuit)
        probabilities = probabilities / probabilities.sum()
        outcomes = rng.choice(len(probabilities), size=shots, p=probabilities)
        counts: Dict[str, int] = {}
        for outcome in outcomes:
            key = format(int(outcome), f"0{circuit.num_qubits}b")
            counts[key] = counts.get(key, 0) + 1
        return counts

    def _readout_adjusted_expectation(
        self, rho: DensityMatrix, operator: PauliSum
    ) -> complex:
        """Expectation where each Pauli term is measured in its own basis.

        Measuring a Pauli term on hardware means rotating it to the Z basis
        and reading bits, so readout error damps *every* term, not only the
        diagonal ones.  We model this by scaling each non-identity term's
        ideal expectation by the readout damping factor of its support.
        """
        total = 0.0 + 0.0j
        for term in operator.terms():
            ideal = rho.expectation(term.pauli)
            damping = self._noise_model.readout_damping(term.pauli)
            total += term.coefficient * ideal * damping
        return total


def _apply_gate_to_density(rho: np.ndarray, gate, num_qubits: int) -> np.ndarray:
    """Apply ``U rho U^dagger`` by expanding the gate to the full Hilbert space.

    Density-matrix simulation is only used for small systems (2–6 qubits), so
    building the full ``2^n x 2^n`` unitary is affordable and keeps the code
    obviously correct.
    """
    full = _expand_operator(gate.matrix(), gate.qubits, num_qubits)
    return full @ rho @ full.conj().T


def _apply_kraus(
    rho: np.ndarray,
    kraus_ops: Sequence[np.ndarray],
    qubits: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Apply a Kraus channel acting on ``qubits`` to the density matrix."""
    total = np.zeros_like(rho)
    for kraus in kraus_ops:
        expanded = _expand_operator(kraus, qubits, num_qubits)
        total += expanded @ rho @ expanded.conj().T
    return total


def _expand_operator(
    operator: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Embed a small operator on ``qubits`` into the full 2^n-dimensional space."""
    if len(qubits) == 1:
        factors = []
        for qubit in range(num_qubits - 1, -1, -1):
            factors.append(operator if qubit == qubits[0] else np.eye(2))
        full = np.array([[1.0 + 0j]])
        for factor in factors:
            full = np.kron(full, factor)
        return full
    if len(qubits) == 2:
        # Build by applying the 4x4 operator to each computational basis vector.
        dim = 2**num_qubits
        full = np.zeros((dim, dim), dtype=complex)
        for basis_index in range(dim):
            vector = np.zeros(dim, dtype=complex)
            vector[basis_index] = 1.0
            full[:, basis_index] = _apply_two_qubit(
                vector, operator, qubits[0], qubits[1], num_qubits
            )
        return full
    raise SimulationError("only 1- and 2-qubit Kraus operators are supported")
