"""The CAFQA search: Bayesian optimization over the Clifford parameter space.

``CafqaSearch`` wires together the pieces the paper describes in Sections 3
and 5: a hardware-efficient ansatz whose tunable rotations are restricted to
multiples of pi/2, exact stabilizer-simulator evaluation of the constrained
objective, and a random-forest Bayesian optimizer that greedily evaluates the
lowest-predicted candidates after a random warm-up phase.  The Hartree–Fock
Clifford point is seeded so the search result is never worse than the
Hartree–Fock baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.bayesopt.optimizer import BayesianOptimizationResult, BayesianOptimizer, Observation
from repro.bayesopt.space import DiscreteSpace
from repro.circuits.ansatz import EfficientSU2Ansatz
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.clifford_points import (
    bind_clifford_point,
    hartree_fock_clifford_point,
    indices_to_angles,
)
from repro.core.objective import CliffordObjective
from repro.exceptions import OptimizationError
from repro.problems.base import ProblemSpec, reference_bits_of, reference_energy_of


@dataclass
class CafqaResult:
    """Outcome of a CAFQA search for one problem.

    ``hf_energy`` holds the problem's classical *reference* energy — the
    Hartree–Fock determinant for molecular problems (hence the historical
    field name), the reference product state for spin/graph workloads; the
    ``reference_energy`` property is the problem-agnostic spelling.
    """

    problem_name: str
    best_indices: List[int]
    best_angles: List[float]
    energy: float
    constrained_energy: float
    hf_energy: float
    exact_energy: Optional[float]
    num_iterations: int
    converged_iteration: int
    search_result: BayesianOptimizationResult = field(repr=False)
    ansatz: EfficientSU2Ansatz = field(repr=False)

    @property
    def circuit(self) -> QuantumCircuit:
        """The Clifford-initialized ansatz circuit ready for VQE tuning."""
        return bind_clifford_point(self.ansatz, self.best_indices)

    @property
    def reference_energy(self) -> float:
        """The problem's classical reference energy (alias of ``hf_energy``)."""
        return self.hf_energy

    @property
    def improvement_over_hf(self) -> float:
        """Energy lowering relative to the classical reference (non-negative)."""
        return self.hf_energy - self.energy

    @property
    def error(self) -> Optional[float]:
        if self.exact_energy is None:
            return None
        return abs(self.energy - self.exact_energy)

    def __repr__(self) -> str:
        return (
            f"CafqaResult({self.problem_name!r}, E={self.energy:.6f} Ha, "
            f"HF={self.hf_energy:.6f} Ha, iterations={self.num_iterations})"
        )


# Evaluations between surrogate refits in every discrete search.
REFIT_INTERVAL = 5


@dataclass
class SearchLoopOptions:
    """The Bayesian-optimization loop knobs shared by every discrete search.

    Both :class:`CafqaSearch` (pi/2 Clifford space) and
    :class:`~repro.core.tgates.CliffordTSearch` (pi/4 Clifford+T space) run
    the same warm-up / surrogate / greedy-pick loop; this dataclass is the
    single place their kwarg names and defaults are defined, so the two
    searches cannot drift apart again.  The surrogate is refitted every
    :data:`REFIT_INTERVAL` evaluations.
    """

    warmup_fraction: float = 0.5
    surrogate_factory: Optional[Callable] = None
    proposal_batch: int = 1

    def __post_init__(self):
        if not 0.0 < self.warmup_fraction < 1.0:
            raise OptimizationError(
                "warmup_fraction must be strictly between 0 and 1"
            )

    def build_optimizer(
        self,
        space: DiscreteSpace,
        max_evaluations: int,
        seed_points: Sequence[Sequence[int]],
        seed: Optional[int] = None,
    ) -> BayesianOptimizer:
        """The configured optimizer for one search run (shared scaffolding)."""
        warmup = max(1, int(round(self.warmup_fraction * max_evaluations)))
        return BayesianOptimizer(
            space,
            warmup_evaluations=warmup,
            surrogate_factory=self.surrogate_factory,
            seed_points=list(seed_points),
            refit_interval=REFIT_INTERVAL,
            proposal_batch=int(self.proposal_batch),
            seed=seed,
        )


class CafqaSearch:
    """Runs the discrete Clifford-space search for a :class:`ProblemSpec`.

    The search follows the paper's recipe — random warm-up, random-forest
    surrogate, greedy pick of the lowest-predicted candidate — and adds an
    optional greedy coordinate-descent refinement of the incumbent
    (``local_refinement``, ``refinement_sweeps``).  The paper
    compensates for the purely model-guided search with budgets in the
    thousands of evaluations (Fig. 15); the refinement stage reaches
    comparable Clifford points with laptop-scale budgets and is counted in
    the reported iteration totals.

    Any problem satisfying :class:`~repro.problems.base.ProblemSpec` works —
    molecular problems, the registry's spin/graph workloads, or custom ones.
    The search is always seeded with the problem's classical reference state
    (Hartree–Fock for molecules) so the result is never worse than the
    classical baseline; ``seed_points`` adds caller-chosen warm-up starts,
    and ``refine_seed_points`` additionally runs the
    coordinate-descent refinement from each of them — the knob deflated
    excited-state searches use to walk off previously found (penalized)
    optima (see :mod:`repro.core.excited`).

    The loop itself takes ``warmup_fraction``, ``proposal_batch`` and
    ``surrogate_factory`` (see :class:`SearchLoopOptions`); ``seed`` makes
    the whole trajectory reproducible.
    """

    def __init__(
        self,
        problem: ProblemSpec,
        ansatz: Optional[EfficientSU2Ansatz] = None,
        ansatz_reps: int = 1,
        *,
        constraint=None,
        spin_z_target: Optional[float] = None,
        penalty_weight: Optional[float] = None,
        warmup_fraction: float = 0.5,
        surrogate_factory: Optional[Callable] = None,
        seed_points: Optional[Sequence[Sequence[int]]] = None,
        refine_seed_points: bool = False,
        local_refinement: bool = True,
        refinement_sweeps: int = 4,
        proposal_batch: int = 1,
        seed: Optional[int] = None,
        objective: Optional[CliffordObjective] = None,
    ):
        self._problem = problem
        self._ansatz = ansatz if ansatz is not None else EfficientSU2Ansatz(
            problem.num_qubits, reps=ansatz_reps
        )
        # An injected objective (e.g. the orchestrator's cache-backed wrapper)
        # replaces the default and supplies the ansatz.
        if objective is not None:
            if ansatz is not None and objective.ansatz is not ansatz:
                raise OptimizationError(
                    "injected objective must be built on the search ansatz"
                )
            self._ansatz = objective.ansatz
            self._objective = objective
        else:
            self._objective = CliffordObjective(
                problem,
                self._ansatz,
                constraint=constraint,
                spin_z_target=spin_z_target,
                penalty_weight=penalty_weight,
            )
        # The loop knobs live in the shared options object (same defaults as
        # CliffordTSearch); surrogate_factory=None selects the optimizer's
        # default forest.
        self._options = SearchLoopOptions(
            warmup_fraction=float(warmup_fraction),
            surrogate_factory=surrogate_factory,
            proposal_batch=int(proposal_batch),
        )
        self._seed_points = [
            [int(v) for v in point] for point in (seed_points or [])
        ]
        self._refine_seed_points = bool(refine_seed_points)
        self._local_refinement = bool(local_refinement)
        self._refinement_sweeps = int(refinement_sweeps)
        self._seed = seed

    # ------------------------------------------------------------------ #
    @property
    def objective(self) -> CliffordObjective:
        return self._objective

    @property
    def ansatz(self) -> EfficientSU2Ansatz:
        return self._ansatz

    def reference_indices(self) -> List[int]:
        """Clifford index vector preparing the problem's reference bitstring."""
        return hartree_fock_clifford_point(
            self._ansatz, reference_bits_of(self._problem)
        )

    # ------------------------------------------------------------------ #
    def run(
        self,
        max_evaluations: int = 500,
        callback: Optional[Callable[[Observation], None]] = None,
    ) -> CafqaResult:
        """Search the Clifford space and return the best initialization found.

        ``callback`` is invoked once per recorded observation — in the BO
        phases and in the refinement sweeps — which is what the orchestrator
        uses to flush evaluation-cache shards / checkpoints after each round.
        """
        if max_evaluations < 2:
            raise OptimizationError("the search needs at least two evaluations")
        space = DiscreteSpace.clifford(self._ansatz.num_parameters)
        seeds = self._warmup_seeds()
        optimizer = self._options.build_optimizer(
            space, max_evaluations=max_evaluations, seed_points=seeds, seed=self._seed
        )
        search_result = optimizer.minimize(
            self._objective, max_evaluations=max_evaluations, callback=callback
        )

        if self._local_refinement:
            search_result = self._refine(search_result, callback=callback)

        best_indices = list(search_result.best_point)
        plain_energy = self._objective.energy(best_indices)
        return CafqaResult(
            problem_name=self._problem.name,
            best_indices=best_indices,
            best_angles=indices_to_angles(best_indices),
            energy=float(plain_energy),
            constrained_energy=float(search_result.best_value),
            hf_energy=reference_energy_of(self._problem),
            exact_energy=self._problem.exact_energy,
            num_iterations=search_result.num_iterations,
            converged_iteration=search_result.converged_iteration,
            search_result=search_result,
            ansatz=self._ansatz,
        )


    # ------------------------------------------------------------------ #
    def _warmup_seeds(self) -> List[Sequence[int]]:
        """The warm-up points every restart evaluates, in deterministic order."""
        return [self.reference_indices(), *self._seed_points]

    def _refine(
        self,
        search_result: BayesianOptimizationResult,
        callback: Optional[Callable[[Observation], None]] = None,
    ) -> BayesianOptimizationResult:
        """Greedy coordinate descent over the Clifford indices.

        Always descends from the incumbent; with ``refine_seed_points`` it
        additionally descends from every warm-up seed.  Deflated
        (excited-state) objectives need that: the next level usually sits one
        entangled flip away from a *previously found* state — a point the
        proposal loop has down-weighted because it carries the full deflation
        penalty — so descending from the (penalized) seeds walks off the
        deflated optimum onto the new level.  Start order is deterministic,
        keeping the trajectory a pure function of the seed.
        """
        starts: List[tuple] = [tuple(int(v) for v in search_result.best_point)]
        if self._refine_seed_points:
            for seed_point in self._warmup_seeds():
                candidate = tuple(int(v) for v in seed_point)
                if candidate not in starts:
                    starts.append(candidate)
        all_observations = list(search_result.observations)
        best_point = tuple(search_result.best_point)
        best_value = search_result.best_value
        converged_iteration = search_result.converged_iteration
        iteration = search_result.num_iterations
        for start in starts:
            point, value, observations = coordinate_descent(
                self._objective,
                start,
                cardinality=4,
                max_sweeps=self._refinement_sweeps,
                start_iteration=iteration,
                callback=callback,
            )
            iteration += len(observations)
            all_observations.extend(observations)
            if value < best_value - 1e-12:
                best_point, best_value = point, value
                converged_iteration = max(
                    (o.iteration for o in observations), default=converged_iteration
                )
        return BayesianOptimizationResult(
            best_point=best_point,
            best_value=best_value,
            observations=all_observations,
            num_iterations=len(all_observations),
            converged_iteration=converged_iteration,
        )


def coordinate_descent(
    objective,
    start_point: Sequence[int],
    cardinality: int,
    max_sweeps: int = 4,
    start_iteration: int = 0,
    callback: Optional[Callable[[Observation], None]] = None,
) -> tuple[tuple, float, List[Observation]]:
    """Greedy one-parameter-at-a-time descent over a discrete space.

    Sweeps every coordinate, trying each of its ``cardinality`` values while
    holding the rest fixed, and keeps any improvement.  Stops after a full
    sweep with no improvement or after ``max_sweeps`` sweeps.  Returns the
    best point, its value, and the evaluations performed (phase ``"refine"``).

    Each dimension's alternates of the current incumbent are evaluated in one
    ``evaluate_batch`` call (plain callables are called point by point); a
    :class:`~repro.core.objective.CliffordObjective` prices such a
    neighbourhood at one rotation plus one expectation per point.  The greedy
    decisions then replay over those values: an improvement only changes the
    dimension being swept, so every later candidate of that dimension is
    either in the batch or the pre-improvement incumbent, which is re-tried
    through an ordinary (cached) objective call.  A sweep therefore records
    at most ``cardinality`` observations per dimension.
    """
    batch_evaluate = getattr(objective, "evaluate_batch", None)
    if batch_evaluate is None:

        def batch_evaluate(points):
            return [objective(point) for point in points]

    def substitute(point: tuple, dimension: int, value: int) -> tuple:
        candidate = list(point)
        candidate[dimension] = value
        return tuple(candidate)

    current = tuple(int(v) for v in start_point)
    current_value = float(objective(current))
    observations: List[Observation] = []
    iteration = start_iteration
    for _ in range(max_sweeps):
        improved = False
        for dimension in range(len(current)):
            alternates = [
                substitute(current, dimension, value)
                for value in range(cardinality)
                if value != current[dimension]
            ]
            batched = {}
            if alternates:
                batched = dict(zip(alternates, batch_evaluate(alternates)))
            for candidate_value in range(cardinality):
                if candidate_value == current[dimension]:
                    continue
                candidate = substitute(current, dimension, candidate_value)
                if candidate in batched:
                    value = float(batched[candidate])
                else:
                    value = float(objective(candidate))
                iteration += 1
                observation = Observation(
                    point=candidate, value=value, iteration=iteration, phase="refine"
                )
                observations.append(observation)
                if callback is not None:
                    callback(observation)
                if value < current_value - 1e-12:
                    current, current_value = candidate, value
                    improved = True
        if not improved:
            break
    return current, current_value, observations

