"""Excited-CAFQA: sequential deflated searches up the low-energy spectrum.

Excited-CAFQA (Bhattacharyya & Ravi, 2025) extends the CAFQA bootstrap to
excited states by *deflation*: after the ground level is found, the search is
re-run on the objective ``H + sum_k w |psi_k><psi_k|`` so every previously
found state is lifted by ``w`` and the next level becomes the minimum.  The
penalty is an overlap of stabilizer states, evaluated exactly (and
polynomially) by :mod:`repro.stabilizer.overlap` — never by expanding the
projector into ``2^n`` Pauli terms.

:func:`find_lowest_states` takes the run's :class:`~repro.runspec.RunSpec`
and runs one :class:`~repro.core.orchestrator.SearchOrchestrator` per level:
level 0 on the spec itself, level ``m`` on a copy whose search options add
the found states as seeds and a deflation constraint over them.  Every level
inherits the full multi-seed / evaluation-cache / checkpoint machinery:
deflated objectives carry their own fingerprint namespace (see
:func:`~repro.operators.fingerprints.objective_fingerprint`), levels can
share one cache/checkpoint directory without collisions, and checkpoints
record the deflating states so a resumed run is bit-identical.  Each level is
the unchanged :class:`~repro.core.search.CafqaSearch` loop over a deflated
objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from repro.core.constraints import (
    DeflationConstraint,
    combine_constraints,
    search_constraint,
)
from repro.core.orchestrator import MultiSeedResult, SearchOrchestrator
from repro.exceptions import OptimizationError
from repro.problems.base import ProblemSpec, exact_spectrum_of

__all__ = ["ExcitedStateLevel", "ExcitedStatesResult", "find_lowest_states"]


@dataclass
class ExcitedStateLevel:
    """One level of a deflated search: the full multi-seed result plus summary."""

    level: int
    indices: List[int]
    energy: float
    constrained_energy: float
    result: MultiSeedResult = field(repr=False)

    def __repr__(self) -> str:
        return (
            f"ExcitedStateLevel({self.level}, E={self.energy:.6f}, "
            f"point={tuple(self.indices)})"
        )


@dataclass
class ExcitedStatesResult:
    """The lowest-``k`` states found by sequential deflation."""

    problem_name: str
    deflation_weight: float
    levels: List[ExcitedStateLevel]
    exact_spectrum: Optional[List[float]] = None

    @property
    def num_states(self) -> int:
        return len(self.levels)

    @property
    def ground(self) -> ExcitedStateLevel:
        return self.levels[0]

    @property
    def energies(self) -> List[float]:
        """Plain ``<H>`` energy of each level, in discovery order."""
        return [level.energy for level in self.levels]

    @property
    def errors(self) -> Optional[List[float]]:
        """Per-level absolute error against the exact spectrum, if known."""
        if self.exact_spectrum is None:
            return None
        return [
            abs(level.energy - exact)
            for level, exact in zip(self.levels, self.exact_spectrum)
        ]

    def __repr__(self) -> str:
        energies = ", ".join(f"{energy:.6f}" for energy in self.energies)
        return f"ExcitedStatesResult({self.problem_name!r}, E=[{energies}])"


def find_lowest_states(spec: "RunSpec", problem: ProblemSpec) -> ExcitedStatesResult:  # noqa: F821
    """Find the lowest ``spec.num_states`` states of ``problem`` by deflation.

    Level 0 is ``spec`` itself, an ordinary (multi-seed) CAFQA search: its
    checkpoints and results are bit-identical to a plain ``repro.run`` of
    the same spec with ``num_states=1``.  Level ``m`` runs
    ``dataclasses.replace(spec, search_options=...)``, whose options add a
    :class:`~repro.core.constraints.DeflationConstraint` over the ``m``
    states already found, stacked on the constraint level 0 ran under (see
    :func:`~repro.core.constraints.search_constraint`), so excited levels
    are searched in the same sector as the ground state.

    Every level goes through its own :class:`~repro.core.orchestrator
    .SearchOrchestrator` sharing the spec's cache and checkpoint
    directories: deflated objectives are fingerprint-namespaced per level,
    so one directory serves the whole spectrum and a rerun resumes every
    level bit-identically.

    ``spec.deflation_weight`` must exceed the spectral range being climbed
    (``E_{k} - E_0``); re-finding an already-deflated state costs ``+w``, so
    too small a weight makes the ground state cheaper than the next level.

    The spec's ``failure_policy`` governs every level (see
    :class:`~repro.core.faults.FailurePolicy`).  With
    ``on_incomplete="partial"`` a level whose restarts partly failed still
    deflates with its best surviving state, so a transient fault in one
    level does not restart the whole spectrum walk.
    """
    num_states, weight = int(spec.num_states), float(spec.deflation_weight)
    if num_states < 1:
        raise OptimizationError("find_lowest_states needs at least one state")
    dimension = 2 ** int(problem.num_qubits)
    if num_states > dimension:
        # Fail before any search runs: the final exact-spectrum validation
        # would reject the request anyway, after burning every level's budget.
        raise OptimizationError(
            f"num_states={num_states} exceeds the {dimension}-dimensional "
            f"Hilbert space of {problem.name!r}"
        )
    if weight <= 0:
        raise OptimizationError("deflation_weight must be positive")
    options = spec.search_options
    base_constraint = search_constraint(
        problem, options.get("constraint"), options.get("penalty_weight")
    )

    levels: List[ExcitedStateLevel] = []
    found_points: Tuple[Tuple[int, ...], ...] = ()
    level_spec = spec
    for level in range(num_states):
        if found_points:
            # Deflated levels warm-start from (and, crucially, refine off)
            # every state found so far: the next level typically sits one
            # entangled flip away from a previous optimum, which now carries
            # the full +w penalty and would otherwise repel the proposal
            # loop.  Coordinate descent from the penalized seeds recovers it.
            # Caller-supplied seed_points are kept and the found states
            # appended — user seeds must never displace the deflation seeds.
            seeds = [[int(v) for v in point] for point in options.get("seed_points", [])]
            seeds.extend(
                list(point) for point in found_points if list(point) not in seeds
            )
            deflation = DeflationConstraint(points=found_points, weight=weight)
            level_options = dict(options, seed_points=seeds)
            level_options.setdefault("refine_seed_points", True)
            level_options["constraint"] = combine_constraints(base_constraint, deflation)
            level_spec = replace(spec, search_options=level_options)
        result = SearchOrchestrator(level_spec, problem).run()
        best = result.best
        levels.append(
            ExcitedStateLevel(
                level=level,
                indices=list(best.best_indices),
                energy=float(best.energy),
                constrained_energy=float(best.constrained_energy),
                result=result,
            )
        )
        found_points = found_points + (tuple(int(v) for v in best.best_indices),)

    return ExcitedStatesResult(
        problem_name=problem.name,
        deflation_weight=weight,
        levels=levels,
        exact_spectrum=exact_spectrum_of(problem, num_states),
    )
