"""CAFQA + kT: extending the discrete search beyond the Clifford space.

Section 8 of the paper explores allowing a small number of T gates in the
CAFQA ansatz while staying classically simulable.  Following the paper's
approach of inserting T gates "at prior Clifford gate positions", each
tunable rotation angle is discretized to multiples of pi/4 instead of pi/2:
even multiples keep the gate Clifford, odd multiples make it equivalent to a
Clifford gate times a T gate.  The search constrains the number of odd
(non-Clifford) angles to at most ``max_t_gates``, and each candidate circuit
is evaluated exactly with the low-rank Clifford+T simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bayesopt.acquisition import AcquisitionFunction
from repro.bayesopt.optimizer import BayesianOptimizationResult
from repro.bayesopt.space import DiscreteSpace
from repro.circuits.ansatz import EfficientSU2Ansatz
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.clifford_points import hartree_fock_clifford_point
from repro.cliffordt.simulator import CliffordTSimulator
from repro.core.constraints import constrained_hamiltonian
from repro.core.search import SearchLoopOptions
from repro.exceptions import OptimizationError
from repro.problems.base import ProblemSpec, reference_bits_of, reference_energy_of

NUM_ANGLES = 8  # multiples of pi/4


def indices_to_pi4_angles(indices: Sequence[int]) -> List[float]:
    """Map indices in {0..7} to rotation angles k * pi/4."""
    return [(int(index) % NUM_ANGLES) * (np.pi / 4.0) for index in indices]


def count_t_gates(indices: Sequence[int]) -> int:
    """Number of non-Clifford (odd-multiple-of-pi/4) angles in an index vector."""
    return sum(1 for index in indices if int(index) % 2 == 1)


@dataclass
class CliffordTResult:
    """Outcome of a CAFQA+kT search."""

    problem_name: str
    max_t_gates: int
    best_indices: List[int]
    best_angles: List[float]
    energy: float
    constrained_energy: float
    num_t_gates: int
    hf_energy: float
    exact_energy: Optional[float]
    num_iterations: int
    search_result: BayesianOptimizationResult = field(repr=False)
    ansatz: EfficientSU2Ansatz = field(repr=False)

    @property
    def circuit(self) -> QuantumCircuit:
        return self.ansatz.bind(self.best_angles)

    def __repr__(self) -> str:
        return (
            f"CliffordTResult({self.problem_name!r}, E={self.energy:.6f} Ha, "
            f"T gates={self.num_t_gates}/{self.max_t_gates})"
        )


class CliffordTObjective:
    """Constrained energy over the pi/4-discretized parameter space."""

    def __init__(
        self,
        problem: ProblemSpec,
        ansatz: EfficientSU2Ansatz,
        max_t_gates: int,
        constraint=None,
        infeasible_penalty: float = 1.0e3,
    ):
        if max_t_gates < 0:
            raise OptimizationError("max_t_gates must be non-negative")
        if ansatz.num_qubits != problem.num_qubits:
            raise OptimizationError("ansatz and problem qubit counts differ")
        self._problem = problem
        self._ansatz = ansatz
        self._max_t = int(max_t_gates)
        self._operator = constrained_hamiltonian(problem, constraint=constraint)
        self._simulator = CliffordTSimulator(max_non_clifford=max(1, max_t_gates))
        self._infeasible_penalty = float(infeasible_penalty)
        self._cache: Dict[Tuple[int, ...], float] = {}

    @property
    def operator(self):
        return self._operator

    def __call__(self, indices: Sequence[int]) -> float:
        key = tuple(int(v) for v in indices)
        if key in self._cache:
            return self._cache[key]
        num_t = count_t_gates(key)
        if num_t > self._max_t:
            # Infeasible: too many non-Clifford gates.  Penalize proportionally
            # so the surrogate learns a gradient back toward feasibility.
            value = self._infeasible_penalty * (1 + num_t - self._max_t)
        else:
            circuit = self._ansatz.bind(indices_to_pi4_angles(key))
            value = self._simulator.expectation(circuit, self._operator)
        self._cache[key] = value
        return value

    def energy(self, indices: Sequence[int]) -> float:
        """Unconstrained Hamiltonian energy at a feasible index vector."""
        circuit = self._ansatz.bind(indices_to_pi4_angles(indices))
        return self._simulator.expectation(circuit, self._problem.hamiltonian)


class CliffordTSearch:
    """Bayesian search over the Clifford + <=k T-gate space.

    The loop kwargs (``warmup_fraction``, ``candidate_pool_size``,
    ``refit_interval``, ``proposal_batch``, ``seed``/``rng``) are the same
    names and defaults as :class:`~repro.core.search.CafqaSearch` — both
    searches share :class:`~repro.core.search.SearchLoopOptions`.  Like
    the Clifford search, the problem's classical reference state is seeded
    by default (``seed_reference``; even pi/4 indices, i.e. zero T gates),
    and ``seed_point`` adds one more start — e.g. the doubled indices of a
    finished Clifford search, the paper's Section 8 recipe.
    """

    def __init__(
        self,
        problem: ProblemSpec,
        max_t_gates: int,
        ansatz: Optional[EfficientSU2Ansatz] = None,
        ansatz_reps: int = 1,
        *,
        constraint=None,
        warmup_fraction: float = 0.5,
        candidate_pool_size: int = 200,
        surrogate_factory=None,
        acquisition: Optional[AcquisitionFunction] = None,
        seed_reference: bool = True,
        seed_point: Optional[Sequence[int]] = None,
        refit_interval: int = 5,
        proposal_batch: int = 1,
        seed: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        self._problem = problem
        self._ansatz = ansatz if ansatz is not None else EfficientSU2Ansatz(
            problem.num_qubits, reps=ansatz_reps
        )
        self._objective = CliffordTObjective(
            problem, self._ansatz, max_t_gates, constraint=constraint
        )
        self._max_t = int(max_t_gates)
        self._options = SearchLoopOptions(
            warmup_fraction=float(warmup_fraction),
            candidate_pool_size=int(candidate_pool_size),
            surrogate_factory=surrogate_factory,
            acquisition=acquisition,
            refit_interval=int(refit_interval),
            proposal_batch=int(proposal_batch),
        )
        self._seed_reference = bool(seed_reference)
        self._seed_point = list(seed_point) if seed_point is not None else None
        self._seed = seed
        self._rng = rng

    @property
    def objective(self) -> CliffordTObjective:
        return self._objective

    def reference_indices(self) -> List[int]:
        """pi/4 index vector preparing the reference bitstring (zero T gates)."""
        clifford = hartree_fock_clifford_point(
            self._ansatz, reference_bits_of(self._problem)
        )
        return [2 * index for index in clifford]

    def run(self, max_evaluations: int = 500) -> CliffordTResult:
        space = DiscreteSpace([NUM_ANGLES] * self._ansatz.num_parameters)
        seeds = []
        if self._seed_reference:
            seeds.append(self.reference_indices())
        if self._seed_point is not None:
            seeds.append(self._seed_point)
        optimizer = self._options.build_optimizer(
            space,
            max_evaluations=max_evaluations,
            seed_points=seeds,
            seed=self._seed,
            rng=self._rng,
        )
        result = optimizer.minimize(self._objective, max_evaluations=max_evaluations)
        best = list(result.best_point)
        plain_energy = self._objective.energy(best)
        return CliffordTResult(
            problem_name=self._problem.name,
            max_t_gates=self._max_t,
            best_indices=best,
            best_angles=indices_to_pi4_angles(best),
            energy=float(plain_energy),
            constrained_energy=float(result.best_value),
            num_t_gates=count_t_gates(best),
            hf_energy=reference_energy_of(self._problem),
            exact_energy=self._problem.exact_energy,
            num_iterations=result.num_iterations,
            search_result=result,
            ansatz=self._ansatz,
        )
