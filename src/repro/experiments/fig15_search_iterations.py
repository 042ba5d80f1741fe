"""Fig. 15 — Bayesian-search iterations needed per VQA problem.

Counts the evaluation at which each molecule's CAFQA search last improved its
best energy ("iterations to converge to the lowest estimate").  The
qualitative result to reproduce: iteration counts grow with the number of
ansatz parameters (problem size), and remain modest compared to variational
tuning budgets on hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.chemistry.molecules import get_preset, make_problem
from repro.experiments.config import ExperimentScale, QUICK
from repro.runspec import RunSpec, run

DEFAULT_SUITE = ("H2", "H4", "LiH", "H6", "H2O", "N2", "BeH2")


@dataclass
class SearchIterationRow:
    molecule: str
    num_qubits: int
    num_parameters: int
    total_evaluations: int
    converged_iteration: int
    final_energy: float
    hf_energy: float


@dataclass
class SearchIterationsResult:
    rows: List[SearchIterationRow]

    def as_table(self) -> List[Dict[str, object]]:
        return [
            {
                "molecule": row.molecule,
                "qubits": row.num_qubits,
                "parameters": row.num_parameters,
                "iterations_to_converge": row.converged_iteration,
                "total_evaluations": row.total_evaluations,
            }
            for row in self.rows
        ]


def run_search_iterations(
    molecules: Sequence[str] = DEFAULT_SUITE,
    scale: ExperimentScale = QUICK,
    bond_length_factor: float = 1.5,
    seed: int = 0,
    max_qubits: Optional[int] = 14,
    num_seeds: int = 1,
    max_workers: Optional[int] = None,
) -> SearchIterationsResult:
    """Run a CAFQA search per molecule (at a stretched geometry) and record iterations.

    With ``num_seeds > 1`` the reported convergence iteration is the winning
    restart's, matching the paper's per-problem best-of-many-seeds counts.
    """
    rows: List[SearchIterationRow] = []
    for index, molecule in enumerate(molecules):
        preset = get_preset(molecule)
        if max_qubits is not None and (preset.expected_qubits or 0) > max_qubits:
            continue
        bond_length = min(
            preset.equilibrium_bond_length * bond_length_factor, preset.bond_length_range[1]
        )
        problem = make_problem(molecule, bond_length, compute_exact=False)
        budget = scale.search_evaluations(problem.num_qubits)
        spec = RunSpec(
            problem=molecule,
            problem_options={"bond_length": bond_length, "compute_exact": False},
            max_evaluations=budget,
            num_seeds=num_seeds,
            max_workers=max_workers,
            seed=seed + index,
        )
        best = run(spec, problem=problem).best
        rows.append(
            SearchIterationRow(
                molecule=molecule,
                num_qubits=problem.num_qubits,
                num_parameters=best.ansatz.num_parameters,
                total_evaluations=best.num_iterations,
                converged_iteration=best.converged_iteration,
                final_energy=best.energy,
                hf_energy=problem.hf_energy,
            )
        )
    return SearchIterationsResult(rows=rows)
