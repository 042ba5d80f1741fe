"""Hardware-efficient ansatz circuits.

CAFQA builds on a hardware-efficient SU2 ansatz (Qiskit's ``EfficientSU2``):
alternating layers of single-qubit rotations and a ladder of CX entangling
gates.  All fixed gates are Clifford, so restricting the rotation angles to
multiples of pi/2 turns the whole circuit into a Clifford circuit.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.parameters import Parameter, ParameterVector
from repro.exceptions import CircuitError

_ENTANGLEMENTS = ("linear", "full", "circular")
_ROTATION_GATES = ("rx", "ry", "rz")


def entangling_pairs(num_qubits: int, entanglement: str) -> List[tuple[int, int]]:
    """CX (control, target) pairs for the requested entanglement pattern."""
    if entanglement not in _ENTANGLEMENTS:
        raise CircuitError(
            f"unknown entanglement {entanglement!r}; expected one of {_ENTANGLEMENTS}"
        )
    if num_qubits < 2:
        return []
    if entanglement == "linear":
        return [(i, i + 1) for i in range(num_qubits - 1)]
    if entanglement == "circular":
        return [(i, (i + 1) % num_qubits) for i in range(num_qubits)]
    return [(i, j) for i in range(num_qubits) for j in range(i + 1, num_qubits)]


class EfficientSU2Ansatz:
    """Hardware-efficient SU2 ansatz with linear CX entanglement by default.

    The circuit consists of ``reps + 1`` rotation layers separated by ``reps``
    entangling layers.  Each rotation layer applies every gate in
    ``rotation_blocks`` (default ``("ry", "rz")``) to every qubit with its own
    parameter, matching Qiskit's ``EfficientSU2`` parameter count of
    ``(reps + 1) * len(rotation_blocks) * num_qubits``.
    """

    def __init__(
        self,
        num_qubits: int,
        reps: int = 1,
        rotation_blocks: Sequence[str] = ("ry", "rz"),
        entanglement: str = "linear",
        parameter_prefix: str = "theta",
    ):
        if num_qubits < 1:
            raise CircuitError("ansatz needs at least one qubit")
        if reps < 0:
            raise CircuitError("reps must be non-negative")
        for gate in rotation_blocks:
            if gate not in _ROTATION_GATES:
                raise CircuitError(f"rotation block {gate!r} must be one of {_ROTATION_GATES}")
        self._num_qubits = int(num_qubits)
        self._reps = int(reps)
        self._rotation_blocks = tuple(rotation_blocks)
        self._entanglement = entanglement
        self._pairs = entangling_pairs(num_qubits, entanglement)
        count = (self._reps + 1) * len(self._rotation_blocks) * self._num_qubits
        self._parameters = ParameterVector(parameter_prefix, count)
        self._circuit = self._build()

    def _build(self) -> QuantumCircuit:
        circuit = QuantumCircuit(self._num_qubits)
        next_parameter = iter(self._parameters)
        for layer in range(self._reps + 1):
            for gate_name in self._rotation_blocks:
                for qubit in range(self._num_qubits):
                    getattr(circuit, gate_name)(next(next_parameter), qubit)
            if layer < self._reps:
                for control, target in self._pairs:
                    circuit.cx(control, target)
        return circuit

    # ------------------------------------------------------------------ #
    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def reps(self) -> int:
        return self._reps

    @property
    def entanglement(self) -> str:
        return self._entanglement

    @property
    def rotation_blocks(self) -> tuple[str, ...]:
        return self._rotation_blocks

    @property
    def parameters(self) -> List[Parameter]:
        return list(self._parameters)

    @property
    def num_parameters(self) -> int:
        return len(self._parameters)

    @property
    def circuit(self) -> QuantumCircuit:
        """The unbound parameterized circuit."""
        return self._circuit.copy()

    def bind(self, values) -> QuantumCircuit:
        """Bind a positional sequence or mapping of angles and return the circuit."""
        return self._circuit.bind(values)

    def __repr__(self) -> str:
        return (
            f"EfficientSU2Ansatz({self._num_qubits} qubits, reps={self._reps}, "
            f"blocks={self._rotation_blocks}, entanglement={self._entanglement!r}, "
            f"{self.num_parameters} parameters)"
        )
