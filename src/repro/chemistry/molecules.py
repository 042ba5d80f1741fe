"""Molecule presets matching the paper's application suite (Table 1).

Each preset knows how to build its geometry at an arbitrary bond length and
which active space / qubit mapping settings to use, so experiments can ask
for e.g. ``make_problem("LiH", bond_length=2.4)`` and get a ready-to-search
:class:`~repro.chemistry.hamiltonian.MolecularProblem`.

Differences from the paper's suite (see DESIGN.md "Substitutions"):

* NaH (needs Na 3sp STO-3G data) is replaced by an H4 chain;
* H2-S1 (an 18-qubit Hamiltonian from the Contextual-Subspace VQE paper) is
  replaced by an H8 chain;
* Cr2 (34 qubits, d orbitals) is replaced by an H10 chain, which keeps the
  "large strongly-correlated system with no exact reference" role.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.chemistry.active_space import select_sigma_active_orbitals
from repro.chemistry.exact import MAX_EXACT_QUBITS
from repro.chemistry.geometry import Molecule
from repro.chemistry.hamiltonian import MolecularProblem, build_molecular_problem
from repro.chemistry.scf import RestrictedHartreeFock
from repro.exceptions import ChemistryError


@dataclass(frozen=True)
class MoleculePreset:
    """Static description of a benchmark molecule."""

    name: str
    geometry_builder: Callable[[float], Molecule]
    equilibrium_bond_length: float
    bond_length_range: Tuple[float, float]
    num_frozen_orbitals: int = 0
    sigma_active_space: bool = False
    expected_qubits: Optional[int] = None
    total_orbitals: Optional[int] = None
    used_orbitals: Optional[int] = None
    particle_sector: Optional[Tuple[int, int]] = None
    description: str = ""
    paper_counterpart: str = ""


# --------------------------------------------------------------------------- #
# geometry builders
# --------------------------------------------------------------------------- #
def _h2_geometry(bond_length: float) -> Molecule:
    return Molecule.from_angstrom(
        [("H", (0.0, 0.0, 0.0)), ("H", (0.0, 0.0, bond_length))], name="H2"
    )


def _lih_geometry(bond_length: float) -> Molecule:
    return Molecule.from_angstrom(
        [("Li", (0.0, 0.0, 0.0)), ("H", (0.0, 0.0, bond_length))], name="LiH"
    )


def _h2o_geometry(bond_length: float) -> Molecule:
    import math

    half_angle = math.radians(104.52 / 2.0)
    x = bond_length * math.sin(half_angle)
    z = bond_length * math.cos(half_angle)
    return Molecule.from_angstrom(
        [("O", (0.0, 0.0, 0.0)), ("H", (x, 0.0, z)), ("H", (-x, 0.0, z))], name="H2O"
    )


def _n2_geometry(bond_length: float) -> Molecule:
    return Molecule.from_angstrom(
        [("N", (0.0, 0.0, 0.0)), ("N", (0.0, 0.0, bond_length))], name="N2"
    )


def _beh2_geometry(bond_length: float) -> Molecule:
    return Molecule.from_angstrom(
        [
            ("Be", (0.0, 0.0, 0.0)),
            ("H", (0.0, 0.0, bond_length)),
            ("H", (0.0, 0.0, -bond_length)),
        ],
        name="BeH2",
    )


def _hydrogen_chain(count: int) -> Callable[[float], Molecule]:
    def builder(bond_length: float) -> Molecule:
        atoms = [("H", (0.0, 0.0, bond_length * i)) for i in range(count)]
        return Molecule.from_angstrom(atoms, name=f"H{count}")

    return builder


# --------------------------------------------------------------------------- #
# the preset table (the reproduction's Table 1)
# --------------------------------------------------------------------------- #
_PRESETS: Dict[str, MoleculePreset] = {}


def _register(preset: MoleculePreset) -> None:
    _PRESETS[preset.name] = preset


_register(
    MoleculePreset(
        name="H2",
        geometry_builder=_h2_geometry,
        equilibrium_bond_length=0.74,
        bond_length_range=(0.37, 2.96),
        expected_qubits=2,
        total_orbitals=2,
        used_orbitals=2,
        description="hydrogen molecule, full STO-3G space",
        paper_counterpart="H2",
    )
)
_register(
    MoleculePreset(
        name="H2+",
        geometry_builder=_h2_geometry,
        equilibrium_bond_length=1.06,
        bond_length_range=(0.37, 2.96),
        expected_qubits=2,
        total_orbitals=2,
        used_orbitals=2,
        particle_sector=(1, 0),
        description="H2 cation: neutral-H2 Fock space with a 1-electron constraint",
        paper_counterpart="H2+ cation (Fig. 8a)",
    )
)
_register(
    MoleculePreset(
        name="LiH",
        geometry_builder=_lih_geometry,
        equilibrium_bond_length=1.6,
        bond_length_range=(0.8, 4.8),
        num_frozen_orbitals=1,
        sigma_active_space=True,
        expected_qubits=4,
        total_orbitals=6,
        used_orbitals=3,
        description="lithium hydride, frozen core, sigma-only active space",
        paper_counterpart="LiH (4 qubits, 3 of 4 orbitals)",
    )
)
_register(
    MoleculePreset(
        name="H2O",
        geometry_builder=_h2o_geometry,
        equilibrium_bond_length=1.0,
        bond_length_range=(0.5, 4.0),
        expected_qubits=12,
        total_orbitals=7,
        used_orbitals=7,
        description="water, symmetric O-H stretch, full STO-3G space",
        paper_counterpart="H2O (12 qubits)",
    )
)
_register(
    MoleculePreset(
        name="H6",
        geometry_builder=_hydrogen_chain(6),
        equilibrium_bond_length=0.9,
        bond_length_range=(0.45, 3.6),
        expected_qubits=10,
        total_orbitals=6,
        used_orbitals=6,
        description="linear hydrogen chain, prototypical strongly correlated system",
        paper_counterpart="H6 (10 qubits)",
    )
)
_register(
    MoleculePreset(
        name="N2",
        geometry_builder=_n2_geometry,
        equilibrium_bond_length=1.09,
        bond_length_range=(0.55, 4.36),
        num_frozen_orbitals=3,
        expected_qubits=12,
        total_orbitals=10,
        used_orbitals=7,
        description="nitrogen dimer, frozen 1s cores plus lowest sigma",
        paper_counterpart="N2 (12 qubits, 7 of 10 orbitals)",
    )
)
_register(
    MoleculePreset(
        name="BeH2",
        geometry_builder=_beh2_geometry,
        equilibrium_bond_length=1.32,
        bond_length_range=(0.66, 5.28),
        expected_qubits=12,
        total_orbitals=7,
        used_orbitals=7,
        description="beryllium hydride, symmetric stretch, full STO-3G space",
        paper_counterpart="BeH2 (12 qubits)",
    )
)
_register(
    MoleculePreset(
        name="H4",
        geometry_builder=_hydrogen_chain(4),
        equilibrium_bond_length=0.9,
        bond_length_range=(0.45, 3.6),
        expected_qubits=6,
        total_orbitals=4,
        used_orbitals=4,
        description="linear H4 chain (substitute for NaH; see DESIGN.md)",
        paper_counterpart="NaH (substituted)",
    )
)
_register(
    MoleculePreset(
        name="H8",
        geometry_builder=_hydrogen_chain(8),
        equilibrium_bond_length=0.9,
        bond_length_range=(0.45, 3.6),
        expected_qubits=14,
        total_orbitals=8,
        used_orbitals=8,
        description="linear H8 chain (substitute for the H2-S1 Hamiltonian; see DESIGN.md)",
        paper_counterpart="H2-S1 (substituted)",
    )
)
_register(
    MoleculePreset(
        name="H10",
        geometry_builder=_hydrogen_chain(10),
        equilibrium_bond_length=0.9,
        bond_length_range=(0.5, 3.5),
        expected_qubits=18,
        total_orbitals=10,
        used_orbitals=10,
        description="linear H10 chain (substitute for Cr2: large, no exact reference)",
        paper_counterpart="Cr2 (substituted)",
    )
)


def available_molecules() -> List[str]:
    """Names of the registered molecule presets."""
    return sorted(_PRESETS)


def get_preset(name: str) -> MoleculePreset:
    """Look up a molecule preset by name."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise ChemistryError(
            f"unknown molecule {name!r}; available: {', '.join(available_molecules())}"
        ) from None


def make_problem(
    name: str,
    bond_length: Optional[float] = None,
    compute_exact: bool = True,
    particle_sector: Optional[Tuple[int, int]] = None,
    scf_solver: Optional[RestrictedHartreeFock] = None,
    max_exact_qubits: int = MAX_EXACT_QUBITS,
) -> MolecularProblem:
    """Build the qubit-space problem for a preset molecule at a bond length."""
    preset = get_preset(name)
    length = preset.equilibrium_bond_length if bond_length is None else float(bond_length)
    low, high = preset.bond_length_range
    if not 0.1 <= length <= 3.0 * high:
        raise ChemistryError(
            f"{name}: bond length {length} A is outside a physically sensible range"
        )
    molecule = preset.geometry_builder(length)

    solver = scf_solver if scf_solver is not None else RestrictedHartreeFock()
    scf_result = solver.run(molecule)
    active_orbitals = None
    if preset.sigma_active_space:
        active_orbitals = select_sigma_active_orbitals(
            scf_result, num_frozen_orbitals=preset.num_frozen_orbitals
        )

    sector = particle_sector if particle_sector is not None else preset.particle_sector
    problem = build_molecular_problem(
        molecule,
        num_frozen_orbitals=preset.num_frozen_orbitals,
        active_orbitals=active_orbitals,
        compute_exact=compute_exact,
        particle_sector=sector,
        max_exact_qubits=max_exact_qubits,
        scf_result=scf_result,
    )
    problem.name = name
    return problem


def table1_rows() -> List[Dict[str, object]]:
    """The reproduction's version of the paper's Table 1 (application characteristics)."""
    rows = []
    for name in available_molecules():
        preset = get_preset(name)
        rows.append(
            {
                "molecule": name,
                "paper_counterpart": preset.paper_counterpart,
                "qubits": preset.expected_qubits,
                "equilibrium_bond_length_A": preset.equilibrium_bond_length,
                "bond_length_range_A": preset.bond_length_range,
                "orbitals_total": preset.total_orbitals,
                "orbitals_used": preset.used_orbitals,
                "description": preset.description,
            }
        )
    return rows
