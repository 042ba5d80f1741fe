"""Branch-expansion Clifford+T simulator: the differential oracle of the pi/4 grid.

This is the dense simulator the CAFQA+kT search used before its points were
priced in the Heisenberg picture on the stabilizer kernels (see
:mod:`repro.core.objective`).  It is kept outside ``src/`` so tests can check
the new path against an independent one.

Any single-qubit rotation satisfies ``R_P(theta) = cos(theta/2) I - i
sin(theta/2) P`` — a rank-2 linear combination of Clifford operations — and
the T gate is ``T = e^{i pi/8} (cos(pi/8) I - i sin(pi/8) Z)``.  Expanding
every non-Clifford gate this way turns a circuit with ``k`` of them into a
sum of ``2^k`` Clifford branch circuits; each branch runs on the dense
statevector simulator and the weighted branch states are summed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate
from repro.exceptions import SimulationError
from repro.operators.pauli import Pauli
from repro.operators.pauli_sum import PauliSum
from repro.statevector.simulator import Statevector, StatevectorSimulator


@dataclass(frozen=True)
class CliffordBranch:
    """One branch of a non-Clifford gate expansion: ``coefficient * gates``."""

    coefficient: complex
    gates: Tuple[Gate, ...]


_ROTATION_PAULI = {"rx": "x", "ry": "y", "rz": "z"}


def expand_gate(gate: Gate) -> List[CliffordBranch]:
    """Expand a gate into Clifford branches (a single branch if already Clifford)."""
    if gate.is_clifford():
        return [CliffordBranch(1.0 + 0.0j, (gate,))]
    if gate.name in _ROTATION_PAULI:
        if gate.is_parameterized:
            raise SimulationError("bind rotation parameters before expansion")
        theta = float(gate.parameter)
        pauli_gate = Gate(_ROTATION_PAULI[gate.name], gate.qubits)
        return [
            CliffordBranch(complex(np.cos(theta / 2.0)), ()),
            CliffordBranch(-1j * np.sin(theta / 2.0), (pauli_gate,)),
        ]
    if gate.name in ("t", "tdg"):
        sign = 1.0 if gate.name == "t" else -1.0
        phase = np.exp(sign * 1j * np.pi / 8.0)
        z_gate = Gate("z", gate.qubits)
        return [
            CliffordBranch(phase * np.cos(np.pi / 8.0), ()),
            CliffordBranch(phase * (-1j * sign) * np.sin(np.pi / 8.0), (z_gate,)),
        ]
    raise SimulationError(f"cannot expand gate {gate.name!r} into Clifford branches")


def count_non_clifford_gates(gates) -> int:
    """Number of gates needing a branch expansion."""
    return sum(0 if gate.is_clifford() else 1 for gate in gates)


class CliffordTSimulator:
    """Expectation values of Clifford + few-non-Clifford circuits by branch sums."""

    def __init__(self):
        self._statevector_backend = StatevectorSimulator()

    def num_branches(self, circuit: QuantumCircuit) -> int:
        """Number of stabilizer branches the circuit expands into."""
        return 2 ** count_non_clifford_gates(circuit.gates)

    def state(self, circuit: QuantumCircuit) -> Statevector:
        """The exact state as the weighted sum of the Clifford branch states."""
        if circuit.is_parameterized():
            raise SimulationError("bind all circuit parameters before simulating")
        total = np.zeros(2**circuit.num_qubits, dtype=complex)
        for coefficient, branch_circuit in self._expand_circuit(circuit):
            branch_state = self._statevector_backend.run(branch_circuit)
            total += coefficient * branch_state.vector
        return Statevector(total, circuit.num_qubits)

    def expectation(self, circuit: QuantumCircuit, operator: "PauliSum | Pauli") -> float:
        """Real expectation value of ``operator`` for the Clifford+T circuit."""
        return float(np.real(self.state(circuit).expectation(operator)))

    def _expand_circuit(self, circuit: QuantumCircuit) -> List[tuple]:
        branches: List[tuple] = [(1.0 + 0.0j, [])]
        for gate in circuit:
            branches = [
                (coefficient * branch.coefficient, gates + list(branch.gates))
                for coefficient, gates in branches
                for branch in expand_gate(gate)
            ]
        materialized = []
        for coefficient, gates in branches:
            branch_circuit = QuantumCircuit(circuit.num_qubits)
            for gate in gates:
                branch_circuit.append(gate)
            materialized.append((coefficient, branch_circuit))
        return materialized
