"""Molecular-orbital integral transformation and active-space reduction.

The paper reduces every molecule to an active space (e.g. N2 uses 7 of its 10
orbitals, Cr2 freezes the lower 18 of 36).  This module transforms the
atomic-orbital integrals produced by the SCF into the molecular-orbital basis
and folds frozen doubly-occupied orbitals into an effective core energy and
one-body potential.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.chemistry.scf import SCFResult
from repro.exceptions import ChemistryError


@dataclass
class ActiveSpaceHamiltonian:
    """Spatial-orbital integrals restricted to an active space.

    ``one_body`` and ``two_body`` are in the molecular-orbital basis
    (chemist-notation ``(pq|rs)`` for the two-body tensor) over the active
    orbitals only; ``core_energy`` contains the nuclear repulsion plus the
    energy of the frozen doubly-occupied orbitals.
    """

    one_body: np.ndarray
    two_body: np.ndarray
    core_energy: float
    num_active_orbitals: int
    num_active_electrons: int
    num_alpha: int
    num_beta: int
    frozen_orbitals: List[int]
    active_orbitals: List[int]
    hf_energy: float

    @property
    def num_spin_orbitals(self) -> int:
        return 2 * self.num_active_orbitals


def select_sigma_active_orbitals(
    scf_result: SCFResult,
    num_frozen_orbitals: int = 0,
    axis: int = 2,
    pi_weight_threshold: float = 0.5,
) -> List[int]:
    """Indices of non-frozen molecular orbitals of sigma character.

    For linear molecules (LiH, N2, hydrogen chains along ``axis``) the pi
    orbitals built from the perpendicular p functions do not participate in
    sigma-bond breaking; excluding them reproduces the compact active spaces
    the paper reports (e.g. LiH with 3 of its 6 orbitals).  Orbital character
    is judged by the Mulliken weight of perpendicular-p basis functions.
    """
    coefficients = scf_result.mo_coefficients
    overlap = scf_result.overlap
    perpendicular_axes = [a for a in range(3) if a != axis]
    pi_basis_indices = [
        index
        for index, function in enumerate(scf_result.basis)
        if any(function.angular[a] > 0 for a in perpendicular_axes)
    ]
    active = []
    for orbital in range(num_frozen_orbitals, coefficients.shape[1]):
        column = coefficients[:, orbital]
        mulliken = column * (overlap @ column)
        pi_weight = float(np.sum(mulliken[pi_basis_indices])) if pi_basis_indices else 0.0
        if pi_weight < pi_weight_threshold:
            active.append(orbital)
    return active


def transform_to_mo_basis(scf_result: SCFResult) -> tuple[np.ndarray, np.ndarray]:
    """Transform the AO core Hamiltonian and ERIs into the MO basis."""
    coefficients = scf_result.mo_coefficients
    one_body = coefficients.T @ scf_result.core_hamiltonian @ coefficients
    # (pq|rs) MO transform, one index at a time: O(N^5).
    eri = scf_result.electron_repulsion
    eri = np.einsum("pi,pqrs->iqrs", coefficients, eri, optimize=True)
    eri = np.einsum("qj,iqrs->ijrs", coefficients, eri, optimize=True)
    eri = np.einsum("rk,ijrs->ijks", coefficients, eri, optimize=True)
    eri = np.einsum("sl,ijks->ijkl", coefficients, eri, optimize=True)
    return one_body, eri


def build_active_space(
    scf_result: SCFResult,
    num_frozen_orbitals: int = 0,
    num_active_orbitals: Optional[int] = None,
    active_orbitals: Optional[Sequence[int]] = None,
) -> ActiveSpaceHamiltonian:
    """Restrict the MO-basis Hamiltonian to an active space.

    Parameters
    ----------
    scf_result:
        Converged (or best-effort) RHF result.
    num_frozen_orbitals:
        Number of lowest-energy doubly occupied orbitals to freeze.
    num_active_orbitals:
        Number of orbitals (counting upward from the first non-frozen orbital)
        to keep.  Defaults to all remaining orbitals.
    active_orbitals:
        Explicit MO indices to keep instead of the energy-ordered window.
        Frozen orbitals must not appear in this list.
    """
    molecule = scf_result.molecule
    total_orbitals = scf_result.num_orbitals
    frozen = list(range(num_frozen_orbitals))

    if active_orbitals is not None:
        active = [int(i) for i in active_orbitals]
    else:
        remaining = [i for i in range(total_orbitals) if i not in frozen]
        keep = len(remaining) if num_active_orbitals is None else int(num_active_orbitals)
        active = remaining[:keep]

    if set(frozen) & set(active):
        raise ChemistryError("frozen and active orbital lists overlap")
    if not active:
        raise ChemistryError("the active space contains no orbitals")
    if max(active + frozen) >= total_orbitals:
        raise ChemistryError("orbital index outside the MO basis")

    num_active_electrons = molecule.num_electrons - 2 * len(frozen)
    if num_active_electrons <= 0:
        raise ChemistryError(
            f"{molecule.name}: freezing {len(frozen)} orbitals leaves no electrons"
        )
    num_alpha = molecule.num_alpha - len(frozen)
    num_beta = molecule.num_beta - len(frozen)
    if num_alpha > len(active) or num_beta > len(active):
        raise ChemistryError(
            f"{molecule.name}: {num_active_electrons} active electrons do not fit in "
            f"{len(active)} active orbitals"
        )

    one_body_mo, two_body_mo = transform_to_mo_basis(scf_result)

    # Frozen-core energy and effective one-body potential.
    core_energy = scf_result.nuclear_repulsion
    for c in frozen:
        core_energy += 2.0 * one_body_mo[c, c]
    for c in frozen:
        for d in frozen:
            core_energy += 2.0 * two_body_mo[c, c, d, d] - two_body_mo[c, d, d, c]

    effective_one_body = one_body_mo[np.ix_(active, active)].copy()
    for index_p, p in enumerate(active):
        for index_q, q in enumerate(active):
            correction = 0.0
            for c in frozen:
                correction += 2.0 * two_body_mo[p, q, c, c] - two_body_mo[p, c, c, q]
            effective_one_body[index_p, index_q] += correction

    active_two_body = two_body_mo[np.ix_(active, active, active, active)].copy()

    return ActiveSpaceHamiltonian(
        one_body=effective_one_body,
        two_body=active_two_body,
        core_energy=float(core_energy),
        num_active_orbitals=len(active),
        num_active_electrons=num_active_electrons,
        num_alpha=num_alpha,
        num_beta=num_beta,
        frozen_orbitals=frozen,
        active_orbitals=active,
        hf_energy=scf_result.energy,
    )
