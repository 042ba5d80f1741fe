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
polynomial Pauli expansion.  Both paths are batched: every evaluation,
one point or many, goes through :meth:`CliffordObjective.evaluate_batch`.

With ``max_t_gates = k >= 1`` the objective lives on the pi/4 grid of the
paper's CAFQA+kT exploration (Section 8): index ``2c + t`` is Clifford index
``c`` followed by a pi/4 turn when ``t = 1``.  A point with no odd index is
the Clifford point ``index // 2`` and goes through the paths above
unchanged.  A point with odd indices is priced in the Heisenberg picture:
the operator's rows are carried back through the program, Clifford segments
map each row to one signed row, and each pi/4 turn ``R_P(pi/4)`` splits the
rows that anticommute with ``P`` into ``cos(pi/4) Q + sin(pi/4) (-i QP)`` —
the Pauli form of the quadratic Clifford expansion (Mitarai et al.).  The
energy is then the signed weight of the rows with no X bits.  No statevector
is formed, so there is no qubit cap; a point with ``j`` turns costs at most
``terms * 2^j`` rows.  Points with more than ``k`` odd indices get the
constant penalty ``INFEASIBLE_PENALTY * (1 + excess)``.
"""

from __future__ import annotations

import hashlib
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.circuits.ansatz import EfficientSU2Ansatz
from repro.circuits.clifford_points import CliffordGateProgram, validate_clifford_points
from repro.core.constraints import (
    constrained_hamiltonian,
    overlap_penalties_of,
    search_constraint,
)
from repro.operators.fingerprints import hamiltonian_fingerprint
from repro.operators.pauli_sum import PauliSum
from repro.problems.base import ProblemSpec
from repro.stabilizer.expectation import PauliSumEvaluator
from repro.stabilizer.overlap import stabilizer_state_overlaps
from repro.stabilizer.symplectic import WORD_BITS
from repro.stabilizer.tableau import (
    BatchedCliffordTableau,
    CliffordTableau,
    SymplecticView,
)

Point = Tuple[int, ...]

# Constrained value per odd index beyond ``max_t_gates`` (plus one), so the
# surrogate learns a gradient back toward feasible pi/4 points.
INFEASIBLE_PENALTY = 1.0e3

# cos(pi/4) == sin(pi/4): the weight of both halves of a split row.
_PI4_WEIGHT = np.sqrt(0.5)


def _split_on_pi4_turn(x, z, r, weights, name: str, qubit: int):
    """Signed weighted rows conjugated through ``R_P(pi/4)`` on ``qubit``.

    ``P`` is the axis of the rotation ``name``.  A row ``Q`` that commutes
    with ``P`` passes unchanged; an anticommuting one becomes
    ``cos(pi/4) Q + sin(pi/4) (-i QP)``, where ``-i QP`` is the Hermitian
    Pauli that differs from ``Q`` only on ``qubit`` — a one-qubit lookup:
    Z turns X -> -Y, Y -> X; X turns Z -> Y, Y -> -Z; Y turns X -> Z, Z -> -X.
    """
    word, offset = divmod(qubit, WORD_BITS)
    bit = np.uint64(1) << np.uint64(offset)
    xq = (x[:, word] & bit) != 0
    zq = (z[:, word] & bit) != 0
    if name == "rz":
        anti, flip_x, flip_z, negate = xq, False, True, ~zq
    elif name == "rx":
        anti, flip_x, flip_z, negate = zq, True, False, xq
    else:  # ry
        anti, flip_x, flip_z, negate = xq ^ zq, True, True, zq
    weights = weights.copy()
    weights[anti] *= _PI4_WEIGHT
    new_x, new_z = x[anti], z[anti]
    if flip_x:
        new_x[:, word] ^= bit
    if flip_z:
        new_z[:, word] ^= bit
    return (
        np.concatenate([x, new_x]),
        np.concatenate([z, new_z]),
        np.concatenate([r, r[anti] ^ negate[anti]]),
        np.concatenate([weights, weights[anti]]),
    )


class CliffordObjective:
    """Constrained stabilizer-state energy as a function of Clifford indices.

    Every call simulates: the objective keeps no memo of past points.  The
    one evaluation memo of a search lives at the
    :class:`~repro.core.evalcache.CachedObjective` boundary, which every
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
        max_t_gates: int = 0,
    ):
        if ansatz.num_qubits != problem.num_qubits:
            raise ValueError(
                f"ansatz acts on {ansatz.num_qubits} qubits but the problem has "
                f"{problem.num_qubits}"
            )
        if int(max_t_gates) < 0:
            raise ValueError("max_t_gates must be non-negative")
        self._problem = problem
        self._ansatz = ansatz
        self._max_t_gates = int(max_t_gates)
        constraint = search_constraint(problem, constraint, penalty_weight)
        # Shared across objectives of equal content; Hermiticity is checked
        # once, when the operator is first built.
        self._operator = constrained_hamiltonian(
            problem, constraint=constraint, spin_z_target=spin_z_target
        )
        self._program = CliffordGateProgram.from_ansatz(ansatz)
        self._evaluations = 0
        # Non-Pauli penalty path: deflation targets are simulated once (on
        # this objective's own compiled program) and every evaluation then
        # charges w_k * |<psi|psi_k>|^2 through the overlap kernel.
        pairs = overlap_penalties_of(constraint)
        if pairs and self._max_t_gates:
            raise ValueError(
                "overlap (deflation) penalties target Clifford states; they "
                "cannot be combined with max_t_gates > 0 (the pi/4 grid)"
            )
        deflation_points = validate_clifford_points(
            [point for point, _ in pairs], self._ansatz.num_parameters
        )
        self._deflation_weights = np.array([weight for _, weight in pairs], dtype=float)
        if pairs:
            matrix = np.asarray(deflation_points, dtype=np.int64).reshape(
                len(pairs), self._ansatz.num_parameters
            )
            self._deflation_targets: Optional[BatchedCliffordTableau] = (
                BatchedCliffordTableau.from_program(self._program, matrix)
            )
            digest = hashlib.sha256()
            for point, weight in zip(deflation_points, self._deflation_weights):
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
    # Compiled on first use: an objective that is only fingerprinted compiles neither.
    @cached_property
    def _operator_evaluator(self) -> PauliSumEvaluator:
        return PauliSumEvaluator(self._operator)

    @cached_property
    def _energy_evaluator(self) -> PauliSumEvaluator:
        # A constraint-free objective's operator is the bare Hamiltonian: share
        # one evaluator.  Equality must be *exact*, as equal fingerprints are
        # (same labels, bit-identical coefficients): tolerance equality could
        # alias operators whose energies differ at the 1e-10 level and move
        # pinned trajectories.  Both digests are kept on the operators.
        if hamiltonian_fingerprint(self._operator) == hamiltonian_fingerprint(
            self._problem.hamiltonian
        ):
            return self._operator_evaluator
        return PauliSumEvaluator(self._problem.hamiltonian)

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
    def max_t_gates(self) -> int:
        """Most odd (pi/4-turn) indices a feasible point holds; 0 is the Clifford grid."""
        return self._max_t_gates

    @property
    def cardinality(self) -> int:
        """Values per parameter slot: 4 on the Clifford grid, 8 on the pi/4 grid."""
        return 8 if self._max_t_gates else 4

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

    # ------------------------------------------------------------------ #
    def _keys(self, points: Sequence[Sequence[int]]) -> List[Point]:
        return validate_clifford_points(
            points, self._ansatz.num_parameters, self.cardinality
        )

    def _simulate(self, keys: Sequence[Point]) -> BatchedCliffordTableau:
        matrix = np.asarray(keys, dtype=np.int64).reshape(
            len(keys), self._ansatz.num_parameters
        )
        self._evaluations += len(keys)
        return BatchedCliffordTableau.from_program(self._program, matrix)

    def tableau(self, indices: Sequence[int]) -> CliffordTableau:
        """The stabilizer tableau of the ansatz at a Clifford point."""
        if self._max_t_gates:
            raise ValueError("a pi/4-grid objective has no single stabilizer tableau")
        return self._simulate(self._keys([indices])).extract(0)

    def __call__(self, indices: Sequence[int]) -> float:
        return float(self.evaluate_batch([indices])[0])

    def evaluate_batch(self, points: Sequence[Sequence[int]]) -> np.ndarray:
        """Constrained energies of many points in one batched simulation.

        Returns values in the order of ``points``; duplicates within the batch
        are simulated once.  Points that differ in a single slot are priced as
        a neighbourhood (see the class docstring), bit-identical to one-point
        calls.  Calling the objective is the one-point case.
        """
        keys = self._keys(points)
        distinct = list(dict.fromkeys(keys))
        if not distinct:
            return np.zeros(0, dtype=float)
        energies = self._on_grid(
            distinct, self._batch_values, self._operator_evaluator, True
        )
        values = {key: float(value) for key, value in zip(distinct, energies)}
        return np.array([values[key] for key in keys], dtype=float)

    def _batch_values(self, keys: Sequence[Point]) -> np.ndarray:
        slot = self._varying_slot(keys)
        if slot is not None:
            return self._neighbourhood_values(keys, slot)
        batched = self._simulate(keys)
        energies = self._operator_evaluator.expectation_batch(batched)
        if self._deflation_targets is not None:
            energies = energies + self._deflation_penalties(batched)
        return energies

    # ------------------------------------------------------------------ #
    # the pi/4 grid: Clifford points as they are, the rest in the Heisenberg picture
    # ------------------------------------------------------------------ #
    def _on_grid(
        self, keys: Sequence[Point], clifford_values: Callable, evaluator, penalize: bool
    ) -> List[float]:
        """Values of the distinct ``keys`` on this objective's grid.

        On the Clifford grid this is ``clifford_values(keys)``.  On the pi/4
        grid, points with no odd index go through ``clifford_values`` on
        ``index // 2``; the rest are priced by :meth:`_heisenberg_value`, or
        get the infeasible penalty when ``penalize`` is set and they hold more
        than ``max_t_gates`` odd indices.
        """
        if not self._max_t_gates:
            return list(clifford_values(keys))
        values = {}
        even = [key for key in keys if not any(v & 1 for v in key)]
        if even:
            halves = [tuple(v >> 1 for v in key) for key in even]
            values.update(zip(even, clifford_values(halves)))
        for key in keys:
            if key in values:
                continue
            excess = sum(v & 1 for v in key) - self._max_t_gates
            if penalize and excess > 0:
                values[key] = INFEASIBLE_PENALTY * (1 + excess)
            else:
                values[key] = self._heisenberg_value(key, evaluator)
        return [values[key] for key in keys]

    def _heisenberg_value(self, key: Point, evaluator: PauliSumEvaluator) -> float:
        """``<0|U^dag H U|0>`` of a pi/4 point, carrying ``H`` back through ``U``.

        The Clifford segments between pi/4 turns run as inverse programs on
        the rows (each op at its Clifford index ``index // 2``); each turn
        then splits the rows.  Rows with no X bits are Z strings, whose value
        on ``|0...0>`` is their sign.
        """
        term_x, term_z = evaluator.packed_terms
        x, z = term_x.copy(), term_z.copy()
        r = np.zeros(len(x), dtype=bool)
        weights = evaluator.coefficients
        clifford = np.asarray([key], dtype=np.int64) >> 1
        ops = self._program.ops

        def conjugate(start: int, stop: int) -> None:
            rows = BatchedCliffordTableau._from_arrays(
                x[None], z[None], r[None], self._program.num_qubits
            )
            rows.apply_program(self._program, clifford, start, stop, inverse=True)

        stop = len(ops)
        for index in range(len(ops) - 1, -1, -1):
            op = ops[index]
            if op.parameter_index is None or not key[op.parameter_index] & 1:
                continue
            conjugate(index, stop)
            x, z, r, weights = _split_on_pi4_turn(
                x, z, r, weights, op.name, op.qubits[0]
            )
            stop = index
        conjugate(0, stop)
        self._evaluations += 1
        diagonal = ~x.any(axis=1)
        return float(np.where(r, -weights, weights)[diagonal].sum())

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
        """Unconstrained Hamiltonian energy (no penalty terms) at a point."""
        return float(self.energy_batch([indices])[0])

    def energy_batch(self, points: Sequence[Sequence[int]]) -> np.ndarray:
        """Unconstrained Hamiltonian energies of many points at once.

        One batched simulation for all distinct Clifford points; :meth:`energy`
        is its one-point case.
        """
        keys = self._keys(points)
        distinct = list(dict.fromkeys(keys))
        energies = self._on_grid(
            distinct, self._batch_energies, self._energy_evaluator, False
        )
        values = {key: float(value) for key, value in zip(distinct, energies)}
        return np.array([values[key] for key in keys], dtype=float)

    def _batch_energies(self, keys: Sequence[Point]) -> np.ndarray:
        return self._energy_evaluator.expectation_batch(self._simulate(keys))

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
