"""High-level stabilizer simulation of Clifford circuits."""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.clifford_points import CliffordGateProgram
from repro.exceptions import SimulationError
from repro.operators.pauli_sum import PauliSum
from repro.stabilizer.expectation import PauliSumEvaluator
from repro.stabilizer.tableau import BatchedCliffordTableau, CliffordTableau


class StabilizerSimulator:
    """Simulates Clifford circuits in polynomial time via the CHP tableau.

    A circuit is compiled to a ``CliffordGateProgram`` and run as a batch of
    one, through the same gate kernel and :class:`PauliSumEvaluator` as the
    CAFQA search: each Pauli term has an exact expectation of -1, 0, or +1
    computable without sampling (the paper's "one-shot" observation).
    """

    def run(self, circuit: QuantumCircuit) -> CliffordTableau:
        """Evolve ``|0...0>`` through ``circuit`` and return the final tableau."""
        if circuit.is_parameterized():
            raise SimulationError("bind all circuit parameters before simulating")
        if not circuit.is_clifford():
            raise SimulationError(
                "circuit contains non-Clifford gates; use the statevector or "
                "clifford+T backends instead"
            )
        return BatchedCliffordTableau.from_program(
            CliffordGateProgram.compile(circuit), np.zeros((1, 0), dtype=np.int64)
        )[0]

    def expectation(self, circuit: QuantumCircuit, hamiltonian: PauliSum) -> float:
        """Expectation of a Hermitian Pauli-sum for the circuit's stabilizer state."""
        return PauliSumEvaluator(hamiltonian).expectation(self.run(circuit))
