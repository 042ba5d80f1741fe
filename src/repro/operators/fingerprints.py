"""Stable fingerprints and basis-state evaluations of Pauli-sum operators.

These helpers are shared by layers that must agree on operator identity
without importing each other: the problem registry (:mod:`repro.problems`)
fingerprints Hamiltonians so evaluation caches can be keyed on *what was
simulated*, the chemistry substrate computes reference-determinant energies,
and the evaluation cache and the orchestrator's checkpoint layer namespace
their keys and files by :func:`objective_fingerprint`.  Keeping them next to
:class:`~repro.operators.pauli_sum.PauliSum` (a leaf module) avoids import
cycles between those layers.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from repro.operators.pauli_sum import PauliSum


def hamiltonian_fingerprint(operator: PauliSum) -> str:
    """Stable hex digest of a Pauli-sum operator (labels + coefficients).

    The digest covers *what* is simulated, never *how*: evaluation-time
    choices such as the qubit-wise commuting partition compiled by
    :class:`~repro.stabilizer.expectation.PauliSumEvaluator` (see
    :mod:`repro.operators.commuting`) are excluded by construction, so
    caches and checkpoints written with grouping off replay bit-identically
    with grouping on.

    The digest is computed once per operator object and stored on it:
    a :class:`PauliSum` never changes after construction.
    """
    fingerprint = operator._fingerprint
    if fingerprint is None:
        digest = hashlib.sha256()
        for label, coefficient in sorted(operator.to_dict().items()):
            coefficient = complex(coefficient)
            digest.update(f"{label}:{coefficient.real!r}:{coefficient.imag!r};".encode())
        fingerprint = operator._fingerprint = digest.hexdigest()[:16]
    return fingerprint


def objective_fingerprint(objective) -> str:
    """Cache and checkpoint key prefix of a :class:`~repro.core.objective.CliffordObjective`.

    The constrained Pauli operator's digest, then the compiled gate
    program's (a function of the circuit the evaluations ran, so any ansatz
    producing the same program shares cache entries).  Overlap (deflation)
    penalties are not part of the operator, so their digest is appended
    explicitly — each excited-state level gets its own namespace.  A
    pi/4-grid objective appends ``-t{max_t_gates}``: its keys index another
    grid, and its infeasible penalty depends on the T-gate budget.
    """
    base = (
        f"{hamiltonian_fingerprint(objective.operator)}"
        f"-{objective.program.fingerprint}"
    )
    max_t_gates = getattr(objective, "max_t_gates", 0)
    if max_t_gates:
        base = f"{base}-t{max_t_gates}"
    deflation = getattr(objective, "deflation_digest", None)
    return base if deflation is None else f"{base}-d{deflation}"


def determinant_energy(hamiltonian: PauliSum, bits: Sequence[int]) -> float:
    """Energy of a computational-basis state under a diagonal-term evaluation.

    Only I/Z terms contribute for a basis state; each Z factor contributes
    ``(-1)^bit``.  ``bits[q]`` is the occupation of qubit ``q`` (qubit 0 is
    the rightmost character of a Pauli label).  Terms are summed in sorted
    label order.
    """
    energy = 0.0
    num_qubits = hamiltonian.num_qubits
    for label, coefficient in sorted(hamiltonian.to_dict().items()):
        if not set(label) <= {"I", "Z"}:
            continue
        sign = 1.0
        for qubit in range(num_qubits):
            if label[num_qubits - 1 - qubit] == "Z" and bits[qubit]:
                sign = -sign
        energy += float(np.real(coefficient)) * sign
    return energy
