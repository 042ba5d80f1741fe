"""Symmetry constraints folded into the CAFQA search objective.

The paper imposes electron and spin preservation "directly to the objective
function" (Section 3, item 5; Section 7.1.1 for the H2+ cation).  This module
adds quadratic penalty operators such as ``w * (N_alpha - n_alpha)^2`` to the
Hamiltonian as Pauli sums, so the constrained objective remains a single
Pauli-sum expectation that the stabilizer simulator can evaluate exactly.

Constraints are problem-agnostic data: any object with a
``penalties(problem)`` iterator of ``(operator, target, weight)`` triples
plugs into :func:`constrained_hamiltonian`, the one place that expands
``weight * (operator - target)^2`` (:func:`quadratic_penalty`).
:class:`ParticleConstraint` is the chemistry implementation (one triple per
spin sector); :class:`OperatorPenalty` pins the expectation of an arbitrary
operator.  Problems advertise their natural constraint through an optional
``default_constraint()`` (molecular problems return their particle sector;
spin/graph problems return ``None``).  Each distinct constrained operator is
built once per process, so a replayed run does no operator algebra.

Excited-CAFQA deflation rides on a second, *non-Pauli* hook: a constraint may
also expose ``overlap_penalties()`` — pairs of (Clifford index point, weight)
— and :class:`~repro.core.objective.CliffordObjective` charges
``w * |<psi|psi_k>|^2`` for each, evaluated through the polynomial stabilizer
overlap kernel (:mod:`repro.stabilizer.overlap`) rather than an exponential
``|psi_k><psi_k|`` Pauli expansion.  :class:`DeflationConstraint` is that
implementation; :class:`CompositeConstraint` stacks it on top of a problem's
symmetry constraint so excited-state searches keep their sector penalties.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.operators.fingerprints import hamiltonian_fingerprint
from repro.operators.pauli_sum import PauliSum
from repro.problems.base import default_constraint_of

# ``(operator, target, weight)``: the penalty ``weight * (operator - target)^2``.
Penalty = Tuple[PauliSum, float, float]

# Operators built by :func:`constrained_hamiltonian`, by content key, oldest
# first; at most ``_MAX_OPERATORS`` are kept.  Keys hold digests and floats,
# never a problem.
_OPERATORS: Dict[tuple, PauliSum] = {}
_MAX_OPERATORS = 32

DEFAULT_PENALTY_WEIGHT = 2.0

# Deflation must lift every previously found state above the energy level
# being searched for, i.e. the weight must exceed the spectral range of
# interest; 10 comfortably covers the few-Hartree / few-J spectra of the
# built-in workloads while keeping the penalty landscape smooth.
DEFAULT_DEFLATION_WEIGHT = 10.0


@dataclass(frozen=True)
class ParticleConstraint:
    """Target electron numbers per spin sector and the penalty weight."""

    num_alpha: int
    num_beta: int
    weight: float = DEFAULT_PENALTY_WEIGHT

    def __post_init__(self):
        if self.num_alpha < 0 or self.num_beta < 0:
            raise ValueError("electron counts must be non-negative")
        if self.weight < 0:
            raise ValueError("penalty weight must be non-negative")

    def penalties(self, problem) -> Iterator[Penalty]:
        """One number-operator penalty per spin sector."""
        yield problem.number_operator_alpha, self.num_alpha, self.weight
        yield problem.number_operator_beta, self.num_beta, self.weight


@dataclass(frozen=True)
class OperatorPenalty:
    """Pin ``<operator>`` to ``target``: the generic constraint implementation.

    ``w * (operator - target)^2`` is added to the objective; any Hermitian
    Pauli sum works, so this expresses magnetization sectors for spin models,
    cut-size restrictions for graphs, or (with a projector operator) the
    deflation penalties of Excited-CAFQA.
    """

    operator: PauliSum
    target: float
    weight: float = DEFAULT_PENALTY_WEIGHT

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError("penalty weight must be non-negative")

    def penalties(self, problem) -> Iterator[Penalty]:
        yield self.operator, self.target, self.weight


@dataclass(frozen=True)
class DeflationConstraint:
    """Penalize overlap with previously found states (Excited-CAFQA).

    ``points`` are Clifford index vectors (in the search ansatz's own
    parameterization) of the states to deflate; the objective adds
    ``weight * |<psi|psi_k>|^2`` for each, computed by the stabilizer
    overlap kernel — polynomial in the qubit count, never a ``2^n`` Pauli
    projector expansion.  Minimizing the deflated objective therefore finds
    the lowest state (approximately) orthogonal to every recorded one, which
    is how :func:`~repro.core.excited.find_lowest_states` walks up the
    spectrum level by level.

    ``weight`` must exceed the spectral gap being climbed (otherwise
    re-finding a previous state is still cheaper than the next level);
    see ``DEFAULT_DEFLATION_WEIGHT``.

    Example — deflate the ground state found by a first search::

        ground = repro.run(repro.RunSpec(problem="ising_chain", seed=0))
        constraint = DeflationConstraint(points=(tuple(ground.best_indices),))
        excited = repro.run(repro.RunSpec(
            problem="ising_chain", seed=0, search_options={"constraint": constraint}
        ))
        # excited.energy is (approximately) the first excited level

    The constraint is picklable and JSON-friendly (plain index tuples), so
    it travels to orchestrator workers and into checkpoint payloads.
    """

    points: Tuple[Tuple[int, ...], ...]
    weight: float = DEFAULT_DEFLATION_WEIGHT

    def __post_init__(self):
        object.__setattr__(
            self,
            "points",
            tuple(tuple(int(v) for v in point) for point in self.points),
        )
        if self.weight < 0:
            raise ValueError("deflation weight must be non-negative")

    def penalties(self, problem) -> Iterator[Penalty]:
        """Deflation adds no Pauli terms; the penalty is a state overlap."""
        return iter(())

    def overlap_penalties(self) -> List[Tuple[Tuple[int, ...], float]]:
        """(Clifford point, weight) pairs the objective charges overlaps for."""
        if self.weight <= 0:
            return []
        return [(point, float(self.weight)) for point in self.points]


@dataclass(frozen=True)
class CompositeConstraint:
    """Several constraints applied together (Pauli and overlap penalties).

    Used by the excited-state driver to stack a
    :class:`DeflationConstraint` on top of a problem's symmetry constraint
    (e.g. the molecular particle sector), so excited levels are searched in
    the same sector as the ground state.
    """

    parts: Tuple[object, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))

    def penalties(self, problem) -> Iterator[Penalty]:
        for part in self.parts:
            yield from part.penalties(problem)

    def overlap_penalties(self) -> List[Tuple[Tuple[int, ...], float]]:
        pairs: List[Tuple[Tuple[int, ...], float]] = []
        for part in self.parts:
            pairs.extend(overlap_penalties_of(part))
        return pairs


def search_constraint(problem, constraint=None, penalty_weight: Optional[float] = None):
    """The constraint a search of ``problem`` runs under.

    An explicit ``constraint`` wins; else ``penalty_weight`` asks for a
    :class:`ParticleConstraint` of that weight; else the problem's default
    (``None`` for problems without one).
    """
    if constraint is not None:
        return constraint
    if penalty_weight is None:
        return default_constraint_of(problem)
    if not hasattr(problem, "num_alpha"):
        raise ValueError(
            "penalty_weight implies a particle-number constraint, which "
            f"problem {problem.name!r} does not define; pass an explicit "
            "constraint (e.g. OperatorPenalty) instead"
        )
    return ParticleConstraint(problem.num_alpha, problem.num_beta, weight=penalty_weight)


def overlap_penalties_of(constraint) -> List[Tuple[Tuple[int, ...], float]]:
    """The (point, weight) overlap penalties a constraint advertises, if any."""
    if constraint is None:
        return []
    method = getattr(constraint, "overlap_penalties", None)
    if not callable(method):
        return []
    return [(tuple(int(v) for v in point), float(weight)) for point, weight in method()]


def combine_constraints(*parts) -> Optional[object]:
    """Stack constraints, dropping ``None``s; ``None`` if nothing remains."""
    remaining: Sequence[object] = [part for part in parts if part is not None]
    if not remaining:
        return None
    if len(remaining) == 1:
        return remaining[0]
    return CompositeConstraint(parts=tuple(remaining))


def quadratic_penalty(operator: PauliSum, target: float, weight: float) -> PauliSum:
    """The operator ``weight * (operator - target)^2`` as a Pauli sum."""
    shifted = operator - float(target)
    return (shifted @ shifted) * float(weight)


def constrained_hamiltonian(
    problem,
    constraint=None,
    spin_z_target: Optional[float] = None,
    spin_weight: float = DEFAULT_PENALTY_WEIGHT,
) -> PauliSum:
    """Hamiltonian plus the problem's (or an explicit) penalty terms.

    With ``constraint=None`` the problem's ``default_constraint()`` is
    applied when it has one — molecular problems constrain their particle
    sector, mirroring the paper's constrained VQE treatment of H2+ and the
    H2O/H6 spin studies; problems without symmetry sectors contribute no
    penalty.  ``spin_z_target`` additionally pins the problem's
    ``spin_z_operator`` (chemistry problems only).  Weight-0 penalties add
    nothing.  Equal content (qubit count, Hamiltonian and penalty
    fingerprints, targets and weights, in order) returns one shared operator,
    built and checked once; a non-Hermitian one raises ``SimulationError``.
    """
    constraint = search_constraint(problem, constraint)
    penalties = [] if constraint is None else list(constraint.penalties(problem))
    if spin_z_target is not None and spin_weight > 0:
        penalties.append((problem.spin_z_operator, spin_z_target, spin_weight))
    penalties = [(op, float(t), float(w)) for op, t, w in penalties if w > 0]
    hamiltonian = problem.hamiltonian
    key = (hamiltonian.num_qubits, hamiltonian_fingerprint(hamiltonian)) + tuple(
        (hamiltonian_fingerprint(op), t, w) for op, t, w in penalties
    )
    total = _OPERATORS.get(key)
    if total is None:
        total = hamiltonian
        for operator, target, weight in penalties:
            total = total + quadratic_penalty(operator, target, weight)
        total = total.simplify(1e-10)
        if not total.is_hermitian():
            total.real_coefficients()  # raises the evaluators' SimulationError
        if len(_OPERATORS) >= _MAX_OPERATORS:
            del _OPERATORS[next(iter(_OPERATORS))]
        _OPERATORS[key] = total
    return total
