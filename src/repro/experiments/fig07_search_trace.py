"""Fig. 7 — Bayesian-optimization search trace with warm-up phase.

Reproduces the shape of the paper's H2O search trace: during the random
warm-up the best-so-far error improves slowly; once the surrogate-guided
phase starts, the error drops and (for favourable geometries) crosses the
chemical-accuracy threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.chemistry.molecules import make_problem
from repro.core.metrics import CHEMICAL_ACCURACY
from repro.core.objective import CliffordObjective
from repro.runspec import RunSpec, run


@dataclass
class SearchTraceResult:
    molecule: str
    bond_length: float
    warmup_evaluations: int
    errors: List[float]  # |best-so-far energy - exact| per evaluation
    phases: List[str]  # "seed" / "warmup" / "search" / "refine" per evaluation
    exact_energy: float
    hf_error: float
    reached_chemical_accuracy_at: Optional[int]

    @property
    def final_error(self) -> float:
        return self.errors[-1]

    @property
    def best_error_in_warmup(self) -> float:
        warmup_errors = [
            error for error, phase in zip(self.errors, self.phases) if phase in ("seed", "warmup")
        ]
        return min(warmup_errors) if warmup_errors else float("inf")


def run_search_trace(
    molecule: str = "H2O",
    bond_length: float = 4.0,
    max_evaluations: int = 400,
    warmup_fraction: float = 0.5,
    seed: Optional[int] = 0,
    num_seeds: int = 1,
    max_workers: Optional[int] = None,
) -> SearchTraceResult:
    """Run a CAFQA search and return the best restart's best-so-far error trace.

    ``num_seeds > 1`` shards independent restarts across worker processes via
    the orchestrator and traces the winning restart (the paper reports the
    best-of-many-seeds trajectory per molecule).
    """
    problem = make_problem(molecule, bond_length)
    if problem.exact_energy is None:
        raise ValueError(f"{molecule} at {bond_length} A has no exact reference")
    spec = RunSpec(
        problem=molecule,
        problem_options={"bond_length": bond_length},
        max_evaluations=max_evaluations,
        num_seeds=num_seeds,
        max_workers=max_workers,
        seed=seed,
        search_options={"warmup_fraction": warmup_fraction},
    )
    report = run(spec, problem=problem)

    observations = report.result.best_trace.observations
    # Plain (unconstrained) energies of the whole trace in one batched
    # simulation, so the trace is comparable with the exact energy.
    objective = CliffordObjective(problem, report.best.ansatz)
    energies = objective.energy_batch([obs.point for obs in observations])
    errors: List[float] = []
    phases: List[str] = []
    best = float("inf")
    reached_at = None
    for observation, energy in zip(observations, energies):
        best = min(best, float(energy))
        error = abs(best - problem.exact_energy)
        errors.append(error)
        phases.append(observation.phase)
        if reached_at is None and error <= CHEMICAL_ACCURACY:
            reached_at = observation.iteration

    warmup_count = sum(1 for phase in phases if phase in ("seed", "warmup"))
    return SearchTraceResult(
        molecule=molecule,
        bond_length=bond_length,
        warmup_evaluations=warmup_count,
        errors=errors,
        phases=phases,
        exact_energy=problem.exact_energy,
        hf_error=abs(problem.hf_energy - problem.exact_energy),
        reached_chemical_accuracy_at=reached_at,
    )
