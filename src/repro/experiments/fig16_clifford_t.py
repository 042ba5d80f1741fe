"""Fig. 16 — CAFQA + kT dissociation curves (beyond-Clifford exploration).

Runs the Clifford-only search and the Clifford+<=kT search (k=1 for H2, k=4
for LiH in the paper) at a set of bond lengths.  The qualitative result to
reproduce: allowing a handful of T gates recovers additional correlation
energy at the bond lengths where Clifford-only CAFQA is limited, while the
circuits stay classically simulable.

Both stages run through :func:`repro.run`.  The Clifford stage is a campaign
sweep (:func:`repro.run_sweep`), so it honors ``num_seeds`` / ``max_workers``
and shares the sweep's evaluation cache and memo directory.  The Clifford+T
stage is the same search with the search option ``max_t_gates`` (the pi/4
grid, priced on the stabilizer kernels with no qubit cap), seeded from each
point's doubled Clifford solution and sharing the same cache and checkpoint
directories.  :func:`run_clifford_t_sweep` stacks curves over a list of
t-budgets against one shared directory pair — the Clifford baselines are
identical across budgets, so every budget after the first replays them as
whole-run cache hits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.chemistry.molecules import get_preset
from repro.core.metrics import correlation_energy_recovered
from repro.experiments.config import ExperimentScale, QUICK, spread_bond_lengths
from repro.experiments.dissociation import curve_sweepspec
from repro.runspec import RunSpec, run
from repro.sweepspec import run_sweep


@dataclass
class CliffordTPoint:
    bond_length: float
    hf_energy: float
    exact_energy: Optional[float]
    clifford_energy: float
    clifford_t_energy: float
    num_t_gates_used: int

    @property
    def clifford_correlation(self) -> Optional[float]:
        if self.exact_energy is None:
            return None
        return correlation_energy_recovered(
            self.clifford_energy, self.hf_energy, self.exact_energy
        )

    @property
    def clifford_t_correlation(self) -> Optional[float]:
        if self.exact_energy is None:
            return None
        return correlation_energy_recovered(
            self.clifford_t_energy, self.hf_energy, self.exact_energy
        )


@dataclass
class CliffordTCurveResult:
    molecule: str
    max_t_gates: int
    points: List[CliffordTPoint]

    def t_gates_never_hurt(self) -> bool:
        """CAFQA+kT should always be at least as good as Clifford-only CAFQA."""
        return all(
            point.clifford_t_energy <= point.clifford_energy + 1e-9 for point in self.points
        )

    def max_extra_correlation(self) -> float:
        extras = [
            (point.clifford_t_correlation or 0.0) - (point.clifford_correlation or 0.0)
            for point in self.points
        ]
        return max(extras) if extras else 0.0


@dataclass
class CliffordTSweepResult:
    """Curves for one molecule across several t-budgets, one shared cache."""

    molecule: str
    t_budgets: List[int]
    curves: List[CliffordTCurveResult]


def run_clifford_t_curve(
    molecule: str = "H2",
    max_t_gates: int = 1,
    scale: ExperimentScale = QUICK,
    bond_lengths: Optional[Sequence[float]] = None,
    seed: int = 0,
    ansatz_reps: int = 1,
    num_seeds: int = 1,
    max_workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    checkpoint_dir: Optional[str] = None,
    log: Optional[Callable[[str], None]] = None,
) -> CliffordTCurveResult:
    """Clifford-only vs Clifford+kT initialization quality across bond lengths."""
    preset = get_preset(molecule)
    if bond_lengths is None:
        low, high = preset.bond_length_range
        bond_lengths = spread_bond_lengths(low, high, max(2, scale.bond_lengths_per_curve))
    clifford_budget = scale.search_evaluations(preset.expected_qubits or 4)
    t_budget = scale.clifford_t_evaluations

    clifford_report = run_sweep(
        curve_sweepspec(
            molecule,
            bond_lengths,
            max_evaluations=clifford_budget,
            seed=seed,
            ansatz_reps=ansatz_reps,
            num_seeds=num_seeds,
            max_workers=max_workers,
            cache_dir=cache_dir,
            checkpoint_dir=checkpoint_dir,
            name=f"fig16:{molecule}-clifford",
        ),
        log=log,
    )

    points: List[CliffordTPoint] = []
    for row in clifford_report.runs:
        if row.report is not None:
            problem = row.report.problem
            best_indices = row.report.best_indices
        else:
            # Memoized Clifford point: the search objects were never
            # materialized, so rebuild the problem and take the winning point
            # from the record.
            problem = row.spec.resolve_problem()
            best_indices = [int(value) for value in row.summary["best_indices"]]
        clifford_energy = row.energy
        # Seed the Clifford+T search with the Clifford solution (doubled indices
        # map pi/2 multiples into the pi/4 grid), so it can only improve on it.
        t_spec = RunSpec(
            problem=problem,
            ansatz_reps=ansatz_reps,
            max_evaluations=t_budget,
            seed=row.spec.seed,
            cache_dir=cache_dir,
            checkpoint_dir=checkpoint_dir,
            search_options={
                "max_t_gates": int(max_t_gates),
                "seed_points": [[2 * value for value in best_indices]],
            },
        )
        clifford_t = run(t_spec).best
        points.append(
            CliffordTPoint(
                bond_length=float(row.coords["problem_options.bond_length"]),
                hf_energy=problem.hf_energy,
                exact_energy=problem.exact_energy,
                clifford_energy=clifford_energy,
                clifford_t_energy=min(clifford_t.energy, clifford_energy),
                num_t_gates_used=sum(index % 2 for index in clifford_t.best_indices),
            )
        )
    return CliffordTCurveResult(molecule=molecule, max_t_gates=max_t_gates, points=points)


def run_clifford_t_sweep(
    molecule: str = "H2",
    t_budgets: Sequence[int] = (1, 2),
    scale: ExperimentScale = QUICK,
    bond_lengths: Optional[Sequence[float]] = None,
    seed: int = 0,
    ansatz_reps: int = 1,
    num_seeds: int = 1,
    max_workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    checkpoint_dir: Optional[str] = None,
    log: Optional[Callable[[str], None]] = None,
) -> CliffordTSweepResult:
    """One molecule's Clifford+T curves across several t-budgets.

    All budgets share one cache/checkpoint directory pair: the Clifford
    baseline sweep is the same run regardless of ``max_t_gates``, so every
    budget after the first replays it from the campaign memo instead of
    re-searching.
    """
    curves = [
        run_clifford_t_curve(
            molecule,
            max_t_gates=int(budget),
            scale=scale,
            bond_lengths=bond_lengths,
            seed=seed,
            ansatz_reps=ansatz_reps,
            num_seeds=num_seeds,
            max_workers=max_workers,
            cache_dir=cache_dir,
            checkpoint_dir=checkpoint_dir,
            log=log,
        )
        for budget in t_budgets
    ]
    return CliffordTSweepResult(
        molecule=molecule, t_budgets=[int(budget) for budget in t_budgets], curves=curves
    )
