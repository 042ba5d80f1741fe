"""Restricted Hartree–Fock self-consistent field.

This plays the role of Psi4/PySCF in the paper: it supplies the Hartree–Fock
reference energy, the molecular-orbital coefficients used to transform the
integrals, and the HF occupation that CAFQA's baseline initialization (and
warm start) is built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np
from scipy.linalg import eigh

from repro.chemistry.basis.sto3g import BasisFunction, build_sto3g_basis
from repro.chemistry.geometry import Molecule
from repro.chemistry.integrals import IntegralEngine
from repro.exceptions import ConvergenceError


@dataclass
class _CycleResult:
    """Internal result of one SCF cycle attempt."""

    energy: float
    density: np.ndarray
    orbital_energies: np.ndarray
    coefficients: np.ndarray
    converged: bool
    iterations: int
    aufbau: bool


@dataclass
class SCFResult:
    """Output of a restricted Hartree–Fock calculation."""

    molecule: Molecule
    basis: List[BasisFunction]
    energy: float
    electronic_energy: float
    nuclear_repulsion: float
    orbital_energies: np.ndarray
    mo_coefficients: np.ndarray
    density_matrix: np.ndarray
    core_hamiltonian: np.ndarray
    overlap: np.ndarray
    electron_repulsion: np.ndarray
    converged: bool
    iterations: int

    @property
    def num_orbitals(self) -> int:
        return self.mo_coefficients.shape[1]

    def __repr__(self) -> str:
        return (
            f"SCFResult({self.molecule.name!r}, E={self.energy:.6f} Ha, "
            f"converged={self.converged}, iterations={self.iterations})"
        )


class RestrictedHartreeFock:
    """Closed-shell (RHF) self-consistent field solver with DIIS acceleration.

    Open-shell sectors needed by CAFQA's spin-constrained searches are handled
    downstream via particle-sector constraints on the qubit Hamiltonian, so
    the SCF itself always works with the closed-shell density built from
    ``num_electrons // 2`` doubly occupied orbitals.
    """

    def __init__(
        self,
        max_iterations: int = 300,
        convergence_threshold: float = 1e-8,
        diis_size: int = 8,
        level_shift: float = 0.0,
        damping_iterations: int = 10,
        damping_factor: float = 0.5,
    ):
        self._max_iterations = int(max_iterations)
        self._threshold = float(convergence_threshold)
        self._diis_size = int(diis_size)
        self._level_shift = float(level_shift)
        self._damping_iterations = int(damping_iterations)
        self._damping_factor = float(damping_factor)

    def run(
        self,
        molecule: Molecule,
        basis: Optional[List[BasisFunction]] = None,
        raise_on_failure: bool = False,
    ) -> SCFResult:
        """Solve the RHF equations for ``molecule`` in the given (or STO-3G) basis.

        The solver first runs a DIIS-accelerated cycle from an extended-Hückel
        (GWH) guess; if that fails to converge or lands on a non-aufbau saddle
        point it falls back to a slow, heavily damped cycle and keeps the
        lower-energy converged solution.
        """
        basis = basis if basis is not None else build_sto3g_basis(molecule)
        engine = IntegralEngine(basis)
        overlap = engine.overlap_matrix()
        core = engine.core_hamiltonian(molecule.nuclear_charges, molecule.coordinates)
        eri = engine.electron_repulsion_tensor()
        nuclear_repulsion = molecule.nuclear_repulsion_energy()

        num_docc = molecule.num_electrons // 2
        if num_docc == 0:
            raise ConvergenceError(f"{molecule.name}: no doubly occupied orbitals for RHF")

        guess = self._gwh_guess_density(core, overlap, num_docc)
        primary = self._scf_cycle(
            core, overlap, eri, num_docc, guess,
            damping_iterations=self._damping_iterations,
            damping_factor=self._damping_factor,
        )
        best = primary
        if not primary.converged or not primary.aufbau:
            fallback = self._scf_cycle(
                core, overlap, eri, num_docc, guess,
                damping_iterations=self._max_iterations,
                damping_factor=0.4,
            )
            if fallback.converged and (
                not primary.converged or fallback.energy < primary.energy - 1e-9
            ):
                best = fallback

        if not best.converged and raise_on_failure:
            raise ConvergenceError(
                f"{molecule.name}: SCF did not converge in {self._max_iterations} iterations"
            )

        return SCFResult(
            molecule=molecule,
            basis=list(basis),
            energy=best.energy + nuclear_repulsion,
            electronic_energy=best.energy,
            nuclear_repulsion=nuclear_repulsion,
            orbital_energies=best.orbital_energies,
            mo_coefficients=best.coefficients,
            density_matrix=best.density,
            core_hamiltonian=core,
            overlap=overlap,
            electron_repulsion=eri,
            converged=best.converged,
            iterations=best.iterations,
        )

    # ------------------------------------------------------------------ #
    def _scf_cycle(
        self,
        core: np.ndarray,
        overlap: np.ndarray,
        eri: np.ndarray,
        num_docc: int,
        guess_density: np.ndarray,
        damping_iterations: int,
        damping_factor: float,
    ) -> "_CycleResult":
        density = guess_density.copy()
        energy = 0.0
        fock_history: List[np.ndarray] = []
        error_history: List[np.ndarray] = []
        converged = False
        iteration = 0
        orbital_energies = np.zeros(overlap.shape[0])
        coefficients = np.eye(overlap.shape[0])

        for iteration in range(1, self._max_iterations + 1):
            fock = self._fock_matrix(core, density, eri)
            new_energy = float(np.sum((core + fock) * density) / 2.0)
            diis_error = fock @ density @ overlap - overlap @ density @ fock
            delta_energy = abs(new_energy - energy)
            error_norm = float(np.max(np.abs(diis_error)))
            energy = new_energy
            if iteration > 2 and delta_energy < self._threshold and error_norm < 1e-6:
                converged = True
                break
            # Damped density updates early on avoid DIIS locking onto a saddle
            # point (an issue for multiply bonded systems like N2 and for
            # stretched geometries); DIIS then accelerates the endgame.
            use_diis = iteration > damping_iterations
            if use_diis:
                fock = self._apply_diis(fock, diis_error, fock_history, error_history)
            if self._level_shift > 0.0 and iteration > 1:
                fock = fock + self._level_shift * (
                    overlap - overlap @ density @ overlap / 2.0
                )
            orbital_energies, coefficients = eigh(fock, overlap)
            occupied = coefficients[:, :num_docc]
            new_density = 2.0 * occupied @ occupied.T
            if use_diis:
                density = new_density
            else:
                mix = damping_factor if iteration > 1 else 1.0
                density = (1.0 - mix) * density + mix * new_density

        # Recompute consistent final quantities from the converged density.
        fock = self._fock_matrix(core, density, eri)
        orbital_energies, coefficients = eigh(fock, overlap)
        electronic_energy = float(np.sum((core + fock) * density) / 2.0)
        homo = float(orbital_energies[num_docc - 1])
        lumo = float(orbital_energies[num_docc]) if num_docc < len(orbital_energies) else np.inf
        aufbau = homo <= lumo + 1e-8
        return _CycleResult(
            energy=electronic_energy,
            density=density,
            orbital_energies=orbital_energies,
            coefficients=coefficients,
            converged=converged,
            iterations=iteration,
            aufbau=aufbau,
        )

    @staticmethod
    def _gwh_guess_density(
        core: np.ndarray, overlap: np.ndarray, num_docc: int
    ) -> np.ndarray:
        """Generalized Wolfsberg–Helmholz (extended Hückel) starting density."""
        size = core.shape[0]
        guess = np.empty_like(core)
        for i in range(size):
            for j in range(size):
                if i == j:
                    guess[i, j] = core[i, i]
                else:
                    guess[i, j] = 0.875 * overlap[i, j] * (core[i, i] + core[j, j])
        _, coefficients = eigh(guess, overlap)
        occupied = coefficients[:, :num_docc]
        return 2.0 * occupied @ occupied.T

    # ------------------------------------------------------------------ #
    @staticmethod
    def _fock_matrix(core: np.ndarray, density: np.ndarray, eri: np.ndarray) -> np.ndarray:
        coulomb = np.einsum("pqrs,rs->pq", eri, density)
        exchange = np.einsum("prqs,rs->pq", eri, density)
        return core + coulomb - 0.5 * exchange

    def _apply_diis(
        self,
        fock: np.ndarray,
        error: np.ndarray,
        fock_history: List[np.ndarray],
        error_history: List[np.ndarray],
    ) -> np.ndarray:
        fock_history.append(fock)
        error_history.append(error)
        if len(fock_history) > self._diis_size:
            fock_history.pop(0)
            error_history.pop(0)
        count = len(fock_history)
        if count < 2:
            return fock
        b_matrix = -np.ones((count + 1, count + 1))
        b_matrix[-1, -1] = 0.0
        for i in range(count):
            for j in range(count):
                b_matrix[i, j] = float(np.sum(error_history[i] * error_history[j]))
        rhs = np.zeros(count + 1)
        rhs[-1] = -1.0
        try:
            solution = np.linalg.solve(b_matrix, rhs)
        except np.linalg.LinAlgError:
            return fock
        mixed = np.zeros_like(fock)
        for weight, stored in zip(solution[:count], fock_history):
            mixed += weight * stored
        return mixed
