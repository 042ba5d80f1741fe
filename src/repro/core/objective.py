"""Objective functions evaluated during the CAFQA discrete search.

A :class:`CliffordObjective` maps a vector of Clifford indices (one per ansatz
parameter, each in {0, 1, 2, 3}) to the constrained energy of the resulting
stabilizer state, evaluated exactly with the stabilizer simulator — the
"classical discrete search: ideal evaluation" box of the paper's Fig. 4.

The evaluation pipeline is compiled: the ansatz is flattened once into a
:class:`~repro.circuits.clifford_points.CliffordGateProgram` (no
``QuantumCircuit`` rebuild per call), whole batches of candidate points are
evolved together on a :class:`~repro.stabilizer.BatchedCliffordTableau`, and
the Pauli-sum expectation is one vectorized kernel call for the entire batch.

Refinement neighbourhoods — points that differ from one another in a single
parameter slot ``p`` — skip the full simulation.  Their energy is
``<psi_<p| R_p(v)^dag H_>p R_p(v) |psi_<p>``: ``psi_<p`` is the shared
prefix state just before the op that slot ``p`` drives, kept in a forward
cursor, and ``H_>p = U_>p^dag H U_>p`` is every term conjugated back through
the ops after it, kept as one snapshot per slot from a single backward pass.
Each candidate then costs one rotation plus one expectation (Mitarai et al.,
arXiv:2011.09927, use the same local expansion).  Clifford conjugation maps
each term to exactly one signed Pauli, so the per-term values, and therefore
the energies, are bit-for-bit those of the full simulation.

Constraints contribute through two paths: Pauli penalty terms are folded into
the constrained operator (one Pauli-sum expectation covers them), while
*overlap* penalties — the ``w * |<psi|psi_k>|^2`` deflation terms of
Excited-CAFQA — are charged through the batched stabilizer overlap kernel
(:mod:`repro.stabilizer.overlap`), since a state projector has no
polynomial Pauli expansion.  Both paths are batched and bit-for-bit
identical to their pointwise counterparts.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.circuits.ansatz import EfficientSU2Ansatz
from repro.circuits.clifford_points import CliffordGateProgram, validate_clifford_point
from repro.core.constraints import (
    ParticleConstraint,
    constrained_hamiltonian,
    overlap_penalties_of,
)
from repro.operators.pauli_sum import PauliSum
from repro.problems.base import ProblemSpec
from repro.stabilizer.expectation import PauliSumEvaluator
from repro.stabilizer.overlap import stabilizer_state_overlaps
from repro.stabilizer.tableau import (
    BatchedCliffordTableau,
    CliffordTableau,
    SymplecticView,
)

Point = Tuple[int, ...]


def _identical_operators(left: PauliSum, right: PauliSum) -> bool:
    """Exact content equality: same labels, bit-identical coefficients.

    Deliberately stricter than ``PauliSum.__eq__`` (which tolerates 1e-9
    coefficient differences): evaluators may only be shared when the two
    operators are guaranteed to produce bit-identical energies.
    """
    if left is right:
        return True
    if left.num_qubits != right.num_qubits:
        return False
    labels = left.labels
    if labels != right.labels:
        return False
    return all(
        complex(left.coefficient(label)) == complex(right.coefficient(label))
        for label in labels
    )


class CliffordObjective:
    """Constrained stabilizer-state energy as a function of Clifford indices.

    Every call simulates: the objective keeps no memo of past points.  The
    one evaluation memo of a search lives at the
    :class:`~repro.core.orchestrator.CachedObjective` boundary, which every
    orchestrated restart wraps around this objective.

    Batches whose distinct points differ in exactly one parameter slot (the
    alternates :func:`~repro.core.search.coordinate_descent` asks for) are
    evaluated from two caches instead: a forward cursor holding a prefix
    state, and backward snapshots of the conjugated terms (and deflation
    targets), one per slot.  Both are checked against the requested point
    on every call, so any call pattern is correct; a sweep over the slots in
    order reuses the cursor op by op and needs one backward pass.
    """

    def __init__(
        self,
        problem: ProblemSpec,
        ansatz: EfficientSU2Ansatz,
        constraint=None,
        spin_z_target: Optional[float] = None,
        penalty_weight: Optional[float] = None,
    ):
        if ansatz.num_qubits != problem.num_qubits:
            raise ValueError(
                f"ansatz acts on {ansatz.num_qubits} qubits but the problem has "
                f"{problem.num_qubits}"
            )
        self._problem = problem
        self._ansatz = ansatz
        if constraint is None and penalty_weight is not None:
            if not hasattr(problem, "num_alpha"):
                raise ValueError(
                    "penalty_weight implies a particle-number constraint, which "
                    f"problem {problem.name!r} does not define; pass an explicit "
                    "constraint (e.g. OperatorPenalty) instead"
                )
            constraint = ParticleConstraint(
                problem.num_alpha, problem.num_beta, weight=penalty_weight
            )
        self._constraint = constraint
        self._operator = constrained_hamiltonian(
            problem, constraint=constraint, spin_z_target=spin_z_target
        )
        self._program = CliffordGateProgram.from_ansatz(ansatz)
        self._operator_evaluator = PauliSumEvaluator(self._operator)
        # Constraint-free objectives (every registry spin/graph problem, and
        # any explicit constraint=() call) end up with a constrained operator
        # identical to the bare Hamiltonian — share one compiled evaluator
        # instead of packing and grouping the same terms twice.  Equality must
        # be *exact* (same labels, exactly equal coefficients): tolerance
        # equality could alias two operators whose energies differ at the
        # 1e-10 level and silently move pinned trajectories.
        if _identical_operators(self._operator, problem.hamiltonian):
            self._energy_evaluator = self._operator_evaluator
        else:
            self._energy_evaluator = PauliSumEvaluator(problem.hamiltonian)
        self._evaluations = 0
        # Non-Pauli penalty path: deflation targets are simulated once (on
        # this objective's own compiled program) and every evaluation then
        # charges w_k * |<psi|psi_k>|^2 through the overlap kernel.
        pairs = overlap_penalties_of(constraint)
        self._deflation_points: List[Point] = [
            validate_clifford_point(point, self._ansatz.num_parameters)
            for point, _ in pairs
        ]
        self._deflation_weights = np.array([weight for _, weight in pairs], dtype=float)
        if pairs:
            matrix = np.asarray(self._deflation_points, dtype=np.int64).reshape(
                len(pairs), self._ansatz.num_parameters
            )
            self._deflation_targets: Optional[BatchedCliffordTableau] = (
                BatchedCliffordTableau.from_program(self._program, matrix)
            )
            digest = hashlib.sha256()
            for point, weight in zip(self._deflation_points, self._deflation_weights):
                digest.update(f"{point}:{float(weight)!r};".encode())
            self._deflation_digest: Optional[str] = digest.hexdigest()[:16]
        else:
            self._deflation_targets = None
            self._deflation_digest = None
        # Neighbourhood evaluation needs every parameter slot to drive exactly
        # one op, in slot order (always true for EfficientSU2Ansatz).
        ops = self._program.ops
        slot_ops = [i for i, op in enumerate(ops) if op.parameter_index is not None]
        in_order = [ops[i].parameter_index for i in slot_ops] == list(
            range(self.num_parameters)
        )
        self._slot_ops: Optional[List[int]] = slot_ops if in_order else None
        # Snapshot q holds the rows conjugated through ops[suffix_starts[q]:].
        self._snapshot_starts = [i + 1 for i in slot_ops] + [len(ops)]
        self._cursor: Optional[Tuple[Point, int, BatchedCliffordTableau]] = None
        self._snapshot_key: Optional[Point] = None
        self._snapshots: Optional[SymplecticView] = None

    # ------------------------------------------------------------------ #
    @property
    def problem(self) -> ProblemSpec:
        return self._problem

    @property
    def ansatz(self) -> EfficientSU2Ansatz:
        return self._ansatz

    @property
    def operator(self) -> PauliSum:
        """The constrained operator whose expectation is minimized."""
        return self._operator

    @property
    def program(self) -> CliffordGateProgram:
        """The ansatz precompiled to a flat Clifford gate program."""
        return self._program

    @property
    def num_parameters(self) -> int:
        return self._ansatz.num_parameters

    @property
    def num_evaluations(self) -> int:
        """Number of points simulated (or priced as a neighbourhood)."""
        return self._evaluations

    @property
    def deflation_points(self) -> List[Point]:
        """Clifford points whose states carry overlap (deflation) penalties."""
        return list(self._deflation_points)

    @property
    def deflation_digest(self) -> Optional[str]:
        """Digest of the overlap penalties, or ``None`` without deflation.

        The constrained operator's fingerprint cannot see overlap penalties
        (they are not Pauli terms), so cache/checkpoint keys fold this digest
        in — a level-2 excited search must never reuse level-1 cache entries.
        """
        return self._deflation_digest

    def _deflation_penalties(self, tableaux, targets=None) -> np.ndarray:
        """Summed ``w_k * |<psi|psi_k>|^2`` per batch element: ``(batch,)``."""
        if targets is None:
            targets = self._deflation_targets
        overlaps = stabilizer_state_overlaps(tableaux, targets)
        return (overlaps * self._deflation_weights).sum(axis=-1)

    def _constrained_value(self, tableau: CliffordTableau) -> float:
        """Operator expectation plus deflation penalty for one tableau.

        The scalar counterpart of the batch path in :meth:`evaluate_batch`;
        both add the penalty with the same float operations, which is what
        keeps batch and pointwise values bit-for-bit identical.
        """
        value = float(self._operator_evaluator.expectation(tableau))
        if self._deflation_targets is not None:
            value = value + float(self._deflation_penalties(tableau)[0])
        return value

    # ------------------------------------------------------------------ #
    def _key(self, indices: Sequence[int]) -> Point:
        return validate_clifford_point(indices, self._ansatz.num_parameters)

    def _simulate(self, keys: Sequence[Point]) -> BatchedCliffordTableau:
        matrix = np.asarray(keys, dtype=np.int64).reshape(
            len(keys), self._ansatz.num_parameters
        )
        self._evaluations += len(keys)
        return BatchedCliffordTableau.from_program(self._program, matrix)

    def tableau(self, indices: Sequence[int]) -> CliffordTableau:
        """The stabilizer tableau of the ansatz at a Clifford point."""
        return self._simulate([self._key(indices)]).extract(0)

    def __call__(self, indices: Sequence[int]) -> float:
        return self._constrained_value(self.tableau(indices))

    def evaluate_batch(self, points: Sequence[Sequence[int]]) -> np.ndarray:
        """Constrained energies of many Clifford points in one batched simulation.

        Returns values in the order of ``points``; duplicates within the batch
        are simulated once.  Points that differ in a single slot are priced as
        a neighbourhood (see the class docstring).  Numerically identical to
        calling the objective point by point.
        """
        keys = [self._key(point) for point in points]
        distinct = list(dict.fromkeys(keys))
        if not distinct:
            return np.zeros(0, dtype=float)
        slot = self._varying_slot(distinct)
        if slot is None:
            batched = self._simulate(distinct)
            energies = self._operator_evaluator.expectation_batch(batched)
            if self._deflation_targets is not None:
                energies = energies + self._deflation_penalties(batched)
        else:
            energies = self._neighbourhood_values(distinct, slot)
        values = {key: float(value) for key, value in zip(distinct, energies)}
        return np.array([values[key] for key in keys], dtype=float)

    # ------------------------------------------------------------------ #
    # neighbourhood evaluation: one rotation plus one expectation per point
    # ------------------------------------------------------------------ #
    def _varying_slot(self, keys: Sequence[Point]) -> Optional[int]:
        """The one slot in which two or more ``keys`` differ, else ``None``."""
        if self._slot_ops is None or len(keys) < 2:
            return None
        matrix = np.asarray(keys, dtype=np.int64)
        varying = np.flatnonzero((matrix != matrix[0]).any(axis=0))
        return int(varying[0]) if len(varying) == 1 else None

    def _prefix_state(self, key: Point, slot: int) -> BatchedCliffordTableau:
        """``key``'s state just before the op of ``slot``, from the forward cursor.

        The cursor is reusable when it sits at or before ``slot`` and agrees
        with ``key`` on every slot it has applied; it is then advanced op by
        op instead of re-simulated from ``|0...0>``.
        """
        cursor_key, cursor_slot, state = self._cursor or ((), 0, None)
        reusable = state is not None and cursor_slot <= slot
        if reusable and cursor_key[:cursor_slot] == key[:cursor_slot]:
            start = self._slot_ops[cursor_slot]
        else:
            state, start = BatchedCliffordTableau(1, self._program.num_qubits), 0
        state.apply_program(
            self._program, np.asarray([key], dtype=np.int64), start, self._slot_ops[slot]
        )
        self._cursor = (key, slot, state)
        return state

    def _conjugated_rows(self, key: Point, slot: int) -> SymplecticView:
        """Term rows, then deflation-target rows, conjugated back past ``slot``.

        Snapshot ``q`` depends only on ``key[q + 1:]``.  When the snapshots
        were built from a point that differs from ``key`` there, the pass
        restarts from the highest snapshot still valid and rebuilds every
        slot below it, so a sweep that only changes slots ``<= slot`` costs
        one backward pass.
        """
        built = self._snapshot_key
        if built is None or built[slot + 1 :] != key[slot + 1 :]:
            self._rebuild_snapshots(key)
        snapshots = self._snapshots
        return SymplecticView(snapshots.x[slot], snapshots.z[slot], snapshots.r[slot])

    def _rebuild_snapshots(self, key: Point) -> None:
        num_parameters = self.num_parameters
        built = self._snapshot_key
        if built is None:
            term_x, term_z = self._operator_evaluator.packed_terms
            x, z, r = term_x, term_z, np.zeros(len(term_x), dtype=bool)
            if self._deflation_targets is not None:
                targets = self._deflation_targets.symplectic_view()
                x = np.concatenate([x, targets.x.reshape(-1, x.shape[1])])
                z = np.concatenate([z, targets.z.reshape(-1, x.shape[1])])
                r = np.concatenate([r, targets.r.reshape(-1)])
            self._snapshots = SymplecticView(
                np.empty((num_parameters,) + x.shape, dtype=np.uint64),
                np.empty((num_parameters,) + z.shape, dtype=np.uint64),
                np.empty((num_parameters,) + r.shape, dtype=bool),
            )
            top = num_parameters
        else:
            top = max(q for q in range(num_parameters) if built[q] != key[q])
            x, z, r = (array[top] for array in self._snapshots)
        rows = BatchedCliffordTableau._from_arrays(
            x[None].copy(), z[None].copy(), r[None].copy(), self._program.num_qubits
        )
        indices = np.asarray([key], dtype=np.int64)
        starts = self._snapshot_starts
        snapshots = self._snapshots
        for q in range(top - 1, -1, -1):
            rows.apply_program(
                self._program, indices, starts[q], starts[q + 1], inverse=True
            )
            view = rows.symplectic_view()
            snapshots.x[q], snapshots.z[q], snapshots.r[q] = view.x[0], view.z[0], view.r[0]
        self._snapshot_key = key

    def _neighbourhood_values(self, keys: Sequence[Point], slot: int) -> np.ndarray:
        """Constrained energies of points that differ only in ``slot``."""
        base = keys[0]
        prefix = self._prefix_state(base, slot).symplectic_view()
        count = len(keys)
        states = BatchedCliffordTableau._from_arrays(
            np.repeat(prefix.x, count, axis=0),
            np.repeat(prefix.z, count, axis=0),
            np.repeat(prefix.r, count, axis=0),
            self._program.num_qubits,
        )
        op = self._program.ops[self._slot_ops[slot]]
        states.apply_rotation(op.name, op.qubits[0], [key[slot] for key in keys])
        rows = self._conjugated_rows(base, slot)
        terms = self._operator_evaluator.num_terms
        energies = self._operator_evaluator.conjugated_expectation_batch(
            states, rows.x[:terms], rows.z[:terms], rows.r[:terms]
        )
        if self._deflation_targets is not None:
            shape = self._deflation_targets.symplectic_view().x.shape
            targets = BatchedCliffordTableau._from_arrays(
                rows.x[terms:].reshape(shape),
                rows.z[terms:].reshape(shape),
                rows.r[terms:].reshape(shape[:2]),
                self._program.num_qubits,
            )
            energies = energies + self._deflation_penalties(states, targets)
        self._evaluations += count
        telemetry.counter("objective.neighbourhood.states", count)
        return energies

    def energy(self, indices: Sequence[int]) -> float:
        """Unconstrained Hamiltonian energy (no penalty terms) at a Clifford point."""
        return float(self._energy_evaluator.expectation(self.tableau(indices)))

    def energy_batch(self, points: Sequence[Sequence[int]]) -> np.ndarray:
        """Unconstrained Hamiltonian energies of many Clifford points at once.

        One batched simulation for all distinct points; values match
        :meth:`energy` exactly (same kernel, same reduction order).
        """
        keys = [self._key(point) for point in points]
        distinct = list(dict.fromkeys(keys))
        batched = self._simulate(distinct)
        energies = self._energy_evaluator.expectation_batch(batched)
        values = {key: float(energies[i]) for i, key in enumerate(distinct)}
        return np.array([values[key] for key in keys], dtype=float)

    def term_expectations(self, indices: Sequence[int]) -> Dict[str, int]:
        """Per-Pauli-term expectations at a Clifford point (used by Fig. 6)."""
        values = self._energy_evaluator.term_expectations(self.tableau(indices))
        return {
            label: int(value)
            for label, value in zip(self._energy_evaluator.labels, values)
        }

    def constraint_violation(self, indices: Sequence[int]) -> float:
        """Penalty contribution (constrained minus plain energy) at a point."""
        return self(indices) - self.energy(indices)
