"""End-to-end CAFQA pipeline: chemistry -> Clifford search -> metrics -> (optional) VQE.

``evaluate_molecule`` runs the full comparison the paper's dissociation
figures report (HF vs CAFQA vs exact at one bond length) through
:func:`repro.run`.  Whole curves are swept by
:func:`repro.experiments.dissociation.run_dissociation_curve`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from repro.chemistry.hamiltonian import MolecularProblem
from repro.chemistry.molecules import get_preset
from repro.core.constraints import ParticleConstraint
from repro.core.metrics import AccuracySummary
from repro.core.orchestrator import MultiSeedResult
from repro.core.search import CafqaResult


@dataclass
class MoleculeEvaluation:
    """HF / CAFQA / exact comparison for one molecule at one bond length."""

    molecule: str
    bond_length: float
    summary: AccuracySummary
    problem: MolecularProblem = field(repr=False)
    cafqa: CafqaResult = field(repr=False)
    multi_seed: MultiSeedResult = field(repr=False)

    @property
    def hf_energy(self) -> float:
        return self.summary.hf_energy

    @property
    def cafqa_energy(self) -> float:
        return self.summary.cafqa_energy

    @property
    def exact_energy(self) -> Optional[float]:
        return self.summary.exact_energy

    def __repr__(self) -> str:
        exact = "n/a" if self.exact_energy is None else f"{self.exact_energy:.6f}"
        return (
            f"MoleculeEvaluation({self.molecule!r} @ {self.bond_length} A: "
            f"HF={self.hf_energy:.6f}, CAFQA={self.cafqa_energy:.6f}, exact={exact})"
        )


def evaluate_molecule(
    molecule: str,
    bond_length: Optional[float] = None,
    max_evaluations: int = 300,
    seed: Optional[int] = None,
    compute_exact: bool = True,
    particle_sector: Optional[tuple[int, int]] = None,
    constraint: Optional[ParticleConstraint] = None,
    spin_z_target: Optional[float] = None,
    problem: Optional[MolecularProblem] = None,
    num_seeds: int = 1,
    max_workers: Optional[int] = None,
    cache_dir: Optional[os.PathLike] = None,
    checkpoint_dir: Optional[os.PathLike] = None,
    **search_options,
) -> MoleculeEvaluation:
    """Run the full HF / CAFQA / exact comparison for one molecule configuration.

    A thin wrapper over the unified front door: the call is translated into
    a :class:`repro.RunSpec` and executed by :func:`repro.run`, so every
    evaluation goes through the :class:`~repro.core.orchestrator
    .SearchOrchestrator` — ``num_seeds`` independent restarts (the default
    single restart runs in this process, bit-identical to a plain
    ``CafqaSearch``), sharded across ``max_workers`` processes, with optional
    evaluation caching (``cache_dir``) and checkpoint/resume
    (``checkpoint_dir``).
    """
    from repro.runspec import RunSpec, run

    preset = get_preset(molecule)
    length = preset.equilibrium_bond_length if bond_length is None else float(bond_length)
    spec = RunSpec(
        problem=molecule,
        problem_options={
            "bond_length": length,
            "compute_exact": compute_exact,
            "particle_sector": particle_sector,
        },
        max_evaluations=max_evaluations,
        num_seeds=num_seeds,
        seed=seed,
        max_workers=max_workers,
        cache_dir=os.fspath(cache_dir) if cache_dir is not None else None,
        checkpoint_dir=os.fspath(checkpoint_dir) if checkpoint_dir is not None else None,
        search_options={
            "constraint": constraint,
            "spin_z_target": spin_z_target,
            **search_options,
        },
    )
    report = run(spec, problem=problem)
    problem = report.problem
    multi = report.result
    cafqa = multi.best
    summary = AccuracySummary(
        molecule=molecule,
        bond_length=length,
        hf_energy=problem.hf_energy,
        cafqa_energy=cafqa.energy,
        exact_energy=problem.exact_energy,
    )
    return MoleculeEvaluation(
        molecule=molecule,
        bond_length=length,
        problem=problem,
        cafqa=cafqa,
        summary=summary,
        multi_seed=multi,
    )
