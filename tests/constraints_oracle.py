"""Expanding constrained-operator builder: the differential oracle of the memo.

This is how :func:`repro.core.constraints.constrained_hamiltonian` built its
operator before constraints described their penalties as ``(operator,
target, weight)`` triples and the result was memoized by content: every
call expands each penalty ``w * (O - t)^2`` with ``PauliSum`` products and
adds it to the Hamiltonian.  It is kept outside ``src/`` so tests can check
the shared, memoized operators against a fresh build.
"""

from __future__ import annotations

from repro.core.constraints import (
    DEFAULT_PENALTY_WEIGHT,
    CompositeConstraint,
    DeflationConstraint,
    OperatorPenalty,
    ParticleConstraint,
)
from repro.problems.base import default_constraint_of


def oracle_quadratic_penalty(operator, target, weight):
    shifted = operator - float(target)
    return (shifted @ shifted) * float(weight)


def oracle_penalty_terms(constraint, problem):
    """The expanded Pauli penalties of ``constraint``, one per penalty term."""
    if isinstance(constraint, ParticleConstraint):
        if constraint.weight <= 0:
            return
        yield oracle_quadratic_penalty(
            problem.number_operator_alpha, constraint.num_alpha, constraint.weight
        )
        yield oracle_quadratic_penalty(
            problem.number_operator_beta, constraint.num_beta, constraint.weight
        )
    elif isinstance(constraint, OperatorPenalty):
        if constraint.weight <= 0:
            return
        yield oracle_quadratic_penalty(
            constraint.operator, constraint.target, constraint.weight
        )
    elif isinstance(constraint, CompositeConstraint):
        for part in constraint.parts:
            yield from oracle_penalty_terms(part, problem)
    elif not isinstance(constraint, DeflationConstraint):
        raise TypeError(f"no oracle for constraint {constraint!r}")


def oracle_constrained_hamiltonian(
    problem,
    constraint=None,
    spin_z_target=None,
    spin_weight=DEFAULT_PENALTY_WEIGHT,
):
    if constraint is None:
        constraint = default_constraint_of(problem)
    total = problem.hamiltonian
    if constraint is not None:
        for penalty in oracle_penalty_terms(constraint, problem):
            total = total + penalty
    if spin_z_target is not None and spin_weight > 0:
        total = total + oracle_quadratic_penalty(
            problem.spin_z_operator, spin_z_target, spin_weight
        )
    return total.simplify(1e-10)
