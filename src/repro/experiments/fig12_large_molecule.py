"""Fig. 12 — large molecule with no exact reference (Cr2 in the paper).

Cr2 needs d-orbital integrals over 36 orbitals and week-long searches, so the
reproduction exercises the same code path — a large, strongly correlated
system where only CAFQA-vs-HF comparisons are possible — with a hydrogen
chain (H10, 18 qubits by default).  The qualitative result to reproduce:
CAFQA's initialization energy is at or below Hartree–Fock at every bond
length, with the gap growing at stretched geometries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.chemistry.molecules import get_preset, make_problem
from repro.experiments.config import ExperimentScale, QUICK, spread_bond_lengths
from repro.runspec import RunSpec, run


@dataclass
class LargeMoleculePoint:
    bond_length: float
    hf_energy: float
    cafqa_energy: float
    num_qubits: int
    search_iterations: int

    @property
    def improvement(self) -> float:
        return self.hf_energy - self.cafqa_energy


@dataclass
class LargeMoleculeResult:
    molecule: str
    points: List[LargeMoleculePoint]

    def cafqa_never_worse_than_hf(self) -> bool:
        return all(point.improvement >= -1e-9 for point in self.points)


def run_large_molecule(
    molecule: str = "H10",
    scale: ExperimentScale = QUICK,
    bond_lengths: Optional[Sequence[float]] = None,
    seed: int = 0,
    num_seeds: int = 1,
    max_workers: Optional[int] = None,
) -> LargeMoleculeResult:
    """CAFQA vs HF for a molecule too large for exact diagonalization.

    These are the longest searches in the suite, so they benefit most from
    sharding: ``num_seeds``/``max_workers`` run best-of-N restarts per bond
    length through the orchestrator.
    """
    preset = get_preset(molecule)
    if bond_lengths is None:
        low, high = preset.bond_length_range
        bond_lengths = spread_bond_lengths(low, high, max(2, scale.bond_lengths_per_curve // 2))
    budget = scale.search_evaluations(preset.expected_qubits or 18)
    points: List[LargeMoleculePoint] = []
    for index, bond_length in enumerate(bond_lengths):
        problem = make_problem(molecule, bond_length, compute_exact=False)
        spec = RunSpec(
            problem=molecule,
            problem_options={"bond_length": bond_length, "compute_exact": False},
            max_evaluations=budget,
            num_seeds=num_seeds,
            max_workers=max_workers,
            seed=seed + index,
        )
        report = run(spec, problem=problem)
        points.append(
            LargeMoleculePoint(
                bond_length=float(bond_length),
                hf_energy=problem.hf_energy,
                cafqa_energy=report.best.energy,
                num_qubits=problem.num_qubits,
                search_iterations=report.result.total_evaluations,
            )
        )
    return LargeMoleculeResult(molecule=molecule, points=points)
