"""Chemistry workloads exposed through the problem registry.

Every molecule preset from :mod:`repro.chemistry.molecules` (H2, H2+, LiH,
H2O, H4, H6, H8, H10, N2, BeH2) is registered under its preset name, so
``repro.problems.get("H2", bond_length=2.5)`` — and therefore
``repro.run(RunSpec(problem="H2", ...))`` — builds the same
:class:`~repro.chemistry.hamiltonian.MolecularProblem` as
:func:`repro.chemistry.molecules.make_problem`.  The chemistry substrate
(integral engine, SCF) is imported on first use only, keeping
``import repro.problems`` light.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.problems.registry import register

__all__ = ["molecular_problem", "register_molecule_presets"]


def molecular_problem(
    name: str,
    bond_length: Optional[float] = None,
    compute_exact: bool = True,
    particle_sector: Optional[Tuple[int, int]] = None,
    max_exact_qubits: int = 16,
):
    """Build a molecule-preset problem (thin wrapper over ``make_problem``)."""
    from repro.chemistry.molecules import make_problem

    sector = tuple(int(v) for v in particle_sector) if particle_sector else None
    return make_problem(
        name,
        bond_length=bond_length,
        compute_exact=compute_exact,
        particle_sector=sector,
        max_exact_qubits=max_exact_qubits,
    )


def _preset_factory(preset_name: str):
    def factory(**options):
        return molecular_problem(preset_name, **options)

    factory.__name__ = f"molecular_problem_{preset_name}"
    factory.__doc__ = f"Molecule preset {preset_name!r} (see repro.chemistry.molecules)."
    return factory


def register_molecule_presets() -> List[str]:
    """Register every chemistry preset name as a lazy problem factory."""
    # The preset *table* is static metadata; listing it does not run any
    # chemistry.  Importing the molecules module is cheap — the heavyweight
    # work (integrals, SCF) happens inside the factory.
    from repro.chemistry.molecules import available_molecules

    names = available_molecules()
    for preset_name in names:
        register(preset_name, _preset_factory(preset_name), overwrite=True)
    return names
