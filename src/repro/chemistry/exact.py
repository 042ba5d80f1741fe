"""Exact (full configuration interaction) reference energies.

The paper's "Exact" baseline is a noise-free classical diagonalization of the
qubit Hamiltonian; it is available only for small problem sizes, exactly as
here (sparse Lanczos up to ~16 qubits).  :func:`exact_lowest_energies`
extends the baseline to the lowest-``k`` spectrum, which is what validates
Excited-CAFQA-style deflated searches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np
from scipy.sparse.linalg import eigsh

from repro.exceptions import ChemistryError
from repro.operators.pauli_sum import PauliSum
from repro.statevector.simulator import Statevector

# Beyond this many qubits the dense/sparse diagonalization becomes impractical
# on a laptop; callers should treat exact references as unavailable (as the
# paper does for Cr2).
MAX_EXACT_QUBITS = 16


def _start_vector(dimension: int) -> np.ndarray:
    """A fixed Lanczos start vector.

    ARPACK's default start vector is random, so without one repeated solves
    of the same Hamiltonian differ in the last digits.
    """
    return np.random.default_rng(0).uniform(-1.0, 1.0, dimension)


@dataclass
class ExactResult:
    """Ground-state energy and state of a qubit Hamiltonian."""

    energy: float
    state: Statevector
    num_qubits: int

    def __repr__(self) -> str:
        return f"ExactResult(E={self.energy:.8f} Ha, {self.num_qubits} qubits)"


def exact_ground_state(
    hamiltonian: PauliSum, max_qubits: Optional[int] = MAX_EXACT_QUBITS
) -> ExactResult:
    """Lowest eigenvalue and eigenvector of a Pauli-sum Hamiltonian."""
    if not hamiltonian.is_hermitian():
        raise ChemistryError("Hamiltonian must be Hermitian for ground-state search")
    num_qubits = hamiltonian.num_qubits
    if max_qubits is not None and num_qubits > max_qubits:
        raise ChemistryError(
            f"{num_qubits} qubits exceeds the exact-diagonalization limit ({max_qubits}); "
            "no exact reference is available for this problem size"
        )
    if num_qubits <= 4:
        matrix = hamiltonian.to_matrix()
        eigenvalues, eigenvectors = np.linalg.eigh(matrix)
        ground_energy = float(eigenvalues[0])
        ground_state = eigenvectors[:, 0]
    else:
        sparse = hamiltonian.to_sparse_matrix()
        eigenvalues, eigenvectors = eigsh(
            sparse, k=1, which="SA", v0=_start_vector(sparse.shape[0])
        )
        ground_energy = float(eigenvalues[0])
        ground_state = eigenvectors[:, 0]
    return ExactResult(
        energy=ground_energy,
        state=Statevector(np.asarray(ground_state, dtype=complex), num_qubits),
        num_qubits=num_qubits,
    )


def exact_ground_state_energy(hamiltonian: PauliSum) -> float:
    """Convenience wrapper returning only the ground-state energy."""
    return exact_ground_state(hamiltonian).energy


# Below this many qubits a dense eigvalsh (<= 1024 x 1024) is faster and more
# robust than Lanczos — eigsh struggles when k approaches the dimension and
# can misreport degenerate multiplets at small sizes.
_DENSE_SPECTRUM_QUBITS = 10


def exact_lowest_energies(
    hamiltonian: PauliSum,
    num_states: int,
    max_qubits: Optional[int] = MAX_EXACT_QUBITS,
) -> List[float]:
    """The lowest ``num_states`` eigenvalues (with multiplicity), ascending.

    Dense diagonalization below ``2^10`` dimensions, shift-free Lanczos
    (``eigsh(k=num_states, which="SA")``) above — the same small-system
    limits as :func:`exact_ground_state`.
    """
    if num_states < 1:
        raise ChemistryError("num_states must be at least one")
    if not hamiltonian.is_hermitian():
        raise ChemistryError("Hamiltonian must be Hermitian for spectrum computation")
    num_qubits = hamiltonian.num_qubits
    if max_qubits is not None and num_qubits > max_qubits:
        raise ChemistryError(
            f"{num_qubits} qubits exceeds the exact-diagonalization limit ({max_qubits}); "
            "no exact spectrum is available for this problem size"
        )
    dimension = 2**num_qubits
    if num_states > dimension:
        raise ChemistryError(
            f"requested {num_states} states but the Hilbert space has {dimension}"
        )
    # eigsh needs k < dimension and loses accuracy near it; fall back to the
    # dense path whenever Lanczos would be cramped.
    if num_qubits <= _DENSE_SPECTRUM_QUBITS or num_states >= dimension - 1:
        eigenvalues = np.linalg.eigvalsh(hamiltonian.to_matrix())
    else:
        eigenvalues = eigsh(
            hamiltonian.to_sparse_matrix(),
            k=num_states,
            which="SA",
            v0=_start_vector(dimension),
            return_eigenvectors=False,
        )
    return [float(value) for value in np.sort(eigenvalues)[:num_states]]
