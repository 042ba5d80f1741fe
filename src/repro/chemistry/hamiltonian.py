"""End-to-end construction of molecular qubit Hamiltonians.

``build_molecular_problem`` ties the whole chemistry substrate together:
geometry -> STO-3G basis -> RHF -> MO transformation / active space ->
second quantization -> fermion-to-qubit mapping (parity + two-qubit reduction
by default, matching the paper) -> :class:`MolecularProblem`, the object the
CAFQA pipeline consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.chemistry.active_space import ActiveSpaceHamiltonian, build_active_space
from repro.chemistry.exact import MAX_EXACT_QUBITS, exact_ground_state_energy
from repro.chemistry.fermion import (
    electronic_hamiltonian_terms,
    hartree_fock_occupations,
    number_operator_terms,
    spin_z_operator_terms,
)
from repro.chemistry.geometry import Molecule
from repro.chemistry.mappings import (
    PARITY,
    map_fermion_terms,
    occupations_to_qubit_bits,
    taper_bits,
    taper_two_qubits,
)
from repro.chemistry.scf import RestrictedHartreeFock, SCFResult
from repro.exceptions import ChemistryError
from repro.operators.fingerprints import determinant_energy, hamiltonian_fingerprint
from repro.operators.pauli_sum import PauliSum


@dataclass
class MolecularProblem:
    """A molecular ground-state problem expressed on qubits.

    This is the handoff object between the chemistry substrate and CAFQA: it
    carries the qubit Hamiltonian, the Hartree–Fock reference (energy and
    qubit bitstring), auxiliary operators for particle-number / spin
    constraints, and the exact reference energy when the system is small
    enough to diagonalize.
    """

    name: str
    molecule: Molecule
    hamiltonian: PauliSum
    num_qubits: int
    num_spatial_orbitals: int
    num_alpha: int
    num_beta: int
    hf_energy: float
    hf_bits: List[int]
    mapping: str
    two_qubit_reduction: bool
    core_energy: float
    number_operator_alpha: PauliSum
    number_operator_beta: PauliSum
    spin_z_operator: PauliSum
    exact_energy: Optional[float] = None
    scf_result: Optional[SCFResult] = field(default=None, repr=False)
    active_space: Optional[ActiveSpaceHamiltonian] = field(default=None, repr=False)

    @property
    def num_electrons(self) -> int:
        return self.num_alpha + self.num_beta

    # ------------------------------------------------------------------ #
    # ProblemSpec protocol (see repro.problems.base): the Hartree–Fock
    # determinant is the molecular problem's classical reference.
    # ------------------------------------------------------------------ #
    @property
    def reference_energy(self) -> float:
        return self.hf_energy

    @property
    def reference_bits(self) -> List[int]:
        return self.hf_bits

    def fingerprint(self) -> str:
        """Stable digest of the qubit Hamiltonian (cache/checkpoint keying)."""
        return hamiltonian_fingerprint(self.hamiltonian)

    def default_constraint(self):
        """Particle-number constraint matching this problem's electron sector."""
        from repro.core.constraints import ParticleConstraint

        return ParticleConstraint(self.num_alpha, self.num_beta)

    def exact_spectrum(self, num_states: int) -> Optional[List[float]]:
        """Lowest-``num_states`` FCI energies of the qubit Hamiltonian.

        ``None`` when the problem was built without exact references (too
        many qubits or ``compute_exact=False``).  Note the spectrum covers
        *all* particle sectors of the qubit space; sector-resolved
        comparisons should filter dense eigenvectors by the number
        operators.
        """
        from repro.problems.base import hamiltonian_exact_spectrum

        return hamiltonian_exact_spectrum(self, num_states)

    def __repr__(self) -> str:
        return (
            f"MolecularProblem({self.name!r}, {self.num_qubits} qubits, "
            f"{self.hamiltonian.num_terms} Pauli terms, HF={self.hf_energy:.6f} Ha)"
        )


def build_molecular_problem(
    molecule: Molecule,
    num_frozen_orbitals: int = 0,
    num_active_orbitals: Optional[int] = None,
    active_orbitals: Optional[Sequence[int]] = None,
    mapping: str = PARITY,
    two_qubit_reduction: bool = True,
    compute_exact: bool = True,
    max_exact_qubits: int = MAX_EXACT_QUBITS,
    scf_solver: Optional[RestrictedHartreeFock] = None,
    particle_sector: Optional[tuple[int, int]] = None,
    scf_result: Optional[SCFResult] = None,
) -> MolecularProblem:
    """Build the qubit-space ground-state problem for ``molecule``.

    Parameters mirror the paper's methodology: STO-3G basis, parity mapping
    with two-qubit reduction, optional frozen core / active-space selection.
    ``particle_sector`` overrides the (n_alpha, n_beta) electron numbers used
    for the symmetry-sector eigenvalues and the HF bitstring — this is how
    cations (H2+) and triplet sectors are targeted.  ``scf_result`` is an
    already converged SCF of ``molecule`` (e.g. the one that chose
    ``active_orbitals``); without it, ``scf_solver`` runs the SCF here.
    """
    if two_qubit_reduction and mapping != PARITY:
        raise ChemistryError("two-qubit reduction requires the parity mapping")

    if scf_result is None:
        solver = scf_solver if scf_solver is not None else RestrictedHartreeFock()
        scf_result = solver.run(molecule)
    active_space = build_active_space(
        scf_result,
        num_frozen_orbitals=num_frozen_orbitals,
        num_active_orbitals=num_active_orbitals,
        active_orbitals=active_orbitals,
    )

    num_spatial = active_space.num_active_orbitals
    num_spin_orbitals = 2 * num_spatial
    if particle_sector is None:
        num_alpha, num_beta = active_space.num_alpha, active_space.num_beta
    else:
        num_alpha, num_beta = int(particle_sector[0]), int(particle_sector[1])
        if not (0 <= num_alpha <= num_spatial and 0 <= num_beta <= num_spatial):
            raise ChemistryError("particle sector does not fit in the active space")

    fermion_terms = electronic_hamiltonian_terms(active_space)
    qubit_hamiltonian = map_fermion_terms(
        fermion_terms,
        num_spin_orbitals,
        mapping=mapping,
        constant=active_space.core_energy,
    )
    number_alpha = map_fermion_terms(
        number_operator_terms(num_spatial, "alpha"), num_spin_orbitals, mapping=mapping
    )
    number_beta = map_fermion_terms(
        number_operator_terms(num_spatial, "beta"), num_spin_orbitals, mapping=mapping
    )
    spin_z = map_fermion_terms(
        spin_z_operator_terms(num_spatial), num_spin_orbitals, mapping=mapping
    )

    occupations = hartree_fock_occupations(num_spatial, num_alpha, num_beta)
    hf_bits = occupations_to_qubit_bits(occupations, mapping=mapping)

    if two_qubit_reduction:
        qubit_hamiltonian = taper_two_qubits(qubit_hamiltonian, num_spatial, num_alpha, num_beta)
        number_alpha = taper_two_qubits(number_alpha, num_spatial, num_alpha, num_beta)
        number_beta = taper_two_qubits(number_beta, num_spatial, num_alpha, num_beta)
        spin_z = taper_two_qubits(spin_z, num_spatial, num_alpha, num_beta)
        hf_bits = taper_bits(hf_bits, num_spatial)

    num_qubits = qubit_hamiltonian.num_qubits

    exact_energy = None
    if compute_exact and num_qubits <= max_exact_qubits:
        exact_energy = exact_ground_state_energy(qubit_hamiltonian)

    hf_energy = scf_result.energy
    if particle_sector is not None or num_frozen_orbitals or active_orbitals is not None:
        # The SCF energy corresponds to the neutral closed-shell determinant;
        # when a different sector or a restricted active space is requested,
        # recompute the reference determinant energy from the qubit operator.
        hf_energy = _determinant_energy(qubit_hamiltonian, hf_bits)

    return MolecularProblem(
        name=molecule.name,
        molecule=molecule,
        hamiltonian=qubit_hamiltonian,
        num_qubits=num_qubits,
        num_spatial_orbitals=num_spatial,
        num_alpha=num_alpha,
        num_beta=num_beta,
        hf_energy=float(hf_energy),
        hf_bits=[int(bit) for bit in hf_bits],
        mapping=mapping,
        two_qubit_reduction=two_qubit_reduction,
        core_energy=active_space.core_energy,
        number_operator_alpha=number_alpha,
        number_operator_beta=number_beta,
        spin_z_operator=spin_z,
        exact_energy=exact_energy,
        scf_result=scf_result,
        active_space=active_space,
    )


# Retained name: the shared implementation lives with the operator layer so
# non-chemistry problems (repro.problems) can use it without importing here.
_determinant_energy = determinant_energy
