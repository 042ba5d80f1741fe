"""Polynomial-time Clifford circuit simulation (Aaronson–Gottesman tableau).

The tableau is bit-packed (uint64 words, 64 qubits per word) and batched:
:class:`BatchedCliffordTableau` runs many Clifford points through one compiled
gate program and :class:`PauliSumEvaluator` sums a Hamiltonian over them — the
CAFQA search loop, and :class:`StabilizerSimulator` for a single circuit.
"""

from repro.stabilizer.expectation import PauliSumEvaluator
from repro.stabilizer.overlap import (
    overlap_squared,
    stabilizer_overlap_matrix,
    stabilizer_state_overlaps,
)
from repro.stabilizer.simulator import StabilizerSimulator
from repro.stabilizer.symplectic import (
    bit_counts,
    num_words,
    pack_bits,
    pauli_product_phase,
    stabilizer_expectations,
    unpack_bits,
)
from repro.stabilizer.tableau import (
    BatchedCliffordTableau,
    CliffordTableau,
    SymplecticView,
)

__all__ = [
    "BatchedCliffordTableau",
    "CliffordTableau",
    "PauliSumEvaluator",
    "StabilizerSimulator",
    "SymplecticView",
    "bit_counts",
    "num_words",
    "overlap_squared",
    "pack_bits",
    "pauli_product_phase",
    "stabilizer_expectations",
    "stabilizer_overlap_matrix",
    "stabilizer_state_overlaps",
    "unpack_bits",
]
