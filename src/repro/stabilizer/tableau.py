"""Aaronson–Gottesman stabilizer tableaux, bit-packed and batched.

The tableau tracks ``2n`` rows of Pauli operators: rows ``0..n-1`` are the
destabilizers and rows ``n..2n-1`` are the stabilizer generators of the
current state.  Each row stores symplectic bit vectors ``x``, ``z`` and a
sign bit ``r`` so that the represented Pauli is ``(-1)^r * prod_j P_j`` with
``P_j`` being I/X/Y/Z according to ``(x_j, z_j)``.

Rows are bit-packed into uint64 words (qubit ``q`` is bit ``q % 64`` of word
``q // 64``, see :mod:`repro.stabilizer.symplectic`), and the primitive
H/S/CX/Pauli updates operate on packed words following the CHP rules
(Aaronson & Gottesman, PRA 70, 052328).  Every other Clifford gate is
decomposed into those generators, which is exact up to an irrelevant global
phase; rotation gates at multiples of pi/2 apply a closed-form truth table
per rotation family.

:class:`BatchedCliffordTableau` evolves a whole batch of states at once
through a compiled gate program (:meth:`~BatchedCliffordTableau.apply_program`,
the one gate dispatcher, also behind ``StabilizerSimulator``): every update is
vectorized over ``(batch, 2n)`` and parameterized rotations take a
per-batch-element Clifford index — the structure of CAFQA's search (one
EfficientSU2 skeleton, many candidate index vectors).  :class:`CliffordTableau`
is a read-only single-state view (a batch of one).

The dispatcher runs a program one segment at a time (rotation layers, CX
ladders, single ops; see ``CliffordGateProgram.segments``), each as one
update on whole words; a single rotation is the one-qubit layer.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from operator import attrgetter
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

from repro.exceptions import SimulationError
from repro.operators.pauli import Pauli
from repro.stabilizer.symplectic import (
    WORD_BITS,
    bit_counts,
    num_words,
    pack_bits,
    stabilizer_expectations,
    unpack_bits,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a hard dependency
    from repro.circuits.clifford_points import CliffordGateProgram

_ONE = np.uint64(1)
_TOP = np.uint64(WORD_BITS - 1)
_ALL = np.uint64(2**64 - 1)

# Rotation gates that take a Clifford index k (angle k * pi/2).
_ROTATIONS = ("rx", "ry", "rz")


# Single-qubit gates that are not their own inverse (up to global phase).
_INVERSE_GATES = {"s": "sdg", "sdg": "s", "sx": "sxdg", "sxdg": "sx"}


@lru_cache(maxsize=1024)
def _scatter(qubits: tuple, words: int) -> np.ndarray:
    """Row ``i`` is the packed bit of ``qubits[i]``; a range of a segment slices rows."""
    matrix = np.zeros((len(qubits), words), dtype=np.uint64)
    for row, qubit in enumerate(qubits):
        matrix[row, qubit // WORD_BITS] = 1 << (qubit % WORD_BITS)
    return _readonly(matrix)  # one cached array serves every caller


def _index_planes(values: np.ndarray) -> np.ndarray:
    """Bit 0 and bit 1 of Clifford indices in 0..3: ``(2, *values.shape)`` uint64."""
    return np.stack((values & 1, values >> 1)).astype(np.uint64)


def _shift(words: np.ndarray, up: bool) -> np.ndarray:
    """Bit ``q`` of the result is bit ``q - 1`` (``up``) or ``q + 1`` of ``words``."""
    out = words << _ONE if up else words >> _ONE
    if words.shape[-1] > 1 and up:
        out[..., 1:] |= words[..., :-1] >> _TOP
    elif words.shape[-1] > 1:
        out[..., :-1] |= words[..., 1:] << _TOP
    return out


def _scan_xor(out: np.ndarray, up: bool) -> np.ndarray:
    """In place: bit ``q`` becomes the XOR of bits ``0 .. q`` (``up``) or ``q ..``."""
    for step in (1, 2, 4, 8, 16, 32):
        out ^= out << np.uint64(step) if up else out >> np.uint64(step)
    if out.shape[-1] > 1:
        # Carry in the parity (top or bottom bit) of every word scanned before.
        ordered = out if up else out[..., ::-1]
        parity = (ordered[..., :-1] >> (_TOP if up else np.uint64(0))) & _ONE
        ordered[..., 1:] ^= np.bitwise_xor.accumulate(parity, axis=-1) * _ALL
    return out


class SymplecticView(NamedTuple):
    """Read-only packed view of tableau rows: ``x``/``z`` words plus signs."""

    x: np.ndarray
    z: np.ndarray
    r: np.ndarray


def _readonly(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


class BatchedCliffordTableau:
    """A batch of stabilizer tableaux evolved in lockstep, all ``|0...0>``.

    The primitive gate methods act on every batch element alike;
    :meth:`apply_rotation` gives every batch element its own Clifford
    rotation index through a fused closed-form truth table per rotation
    family, so the batch shares one gate skeleton.
    """

    def __init__(self, batch_size: int, num_qubits: int):
        if batch_size < 1:
            raise SimulationError("batch needs at least one tableau")
        if num_qubits < 1:
            raise SimulationError("tableau needs at least one qubit")
        self._batch = int(batch_size)
        self._n = int(num_qubits)
        self._words = num_words(self._n)
        n, words = self._n, self._words
        self._x = np.zeros((self._batch, 2 * n, words), dtype=np.uint64)
        self._z = np.zeros((self._batch, 2 * n, words), dtype=np.uint64)
        self._r = np.zeros((self._batch, 2 * n), dtype=bool)
        # Destabilizers start as X_i, stabilizers as Z_i.
        i = np.arange(n)
        bits = np.left_shift(_ONE, (i % WORD_BITS).astype(np.uint64))
        self._x[:, i, i // WORD_BITS] = bits
        self._z[:, n + i, i // WORD_BITS] = bits

    @classmethod
    def _from_arrays(
        cls, x: np.ndarray, z: np.ndarray, r: np.ndarray, num_qubits: int
    ) -> "BatchedCliffordTableau":
        """Wrap packed ``(batch, rows, words)`` arrays without copying.

        The gate updates act on every row independently, so ``rows`` need
        not be ``2 * num_qubits``: any stack of signed Pauli rows (e.g. the
        terms of a Hamiltonian) can be conjugated through gates this way.
        """
        tableau = cls.__new__(cls)
        tableau._batch = x.shape[0]
        tableau._n = int(num_qubits)
        tableau._words = x.shape[2]
        tableau._x, tableau._z, tableau._r = x, z, r
        return tableau

    @classmethod
    def from_program(
        cls, program: "CliffordGateProgram", indices
    ) -> "BatchedCliffordTableau":
        """Evolve ``|0...0>`` batches through a compiled Clifford program.

        ``indices`` is an ``(batch, num_parameters)`` integer matrix of
        Clifford rotation indices (a single vector is treated as a batch of
        one).
        """
        indices = np.atleast_2d(np.asarray(indices, dtype=np.int64))
        tableau = cls(indices.shape[0], program.num_qubits)
        tableau.apply_program(program, indices)
        return tableau

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def batch_size(self) -> int:
        return self._batch

    @property
    def num_qubits(self) -> int:
        return self._n

    @property
    def num_words(self) -> int:
        return self._words

    def symplectic_view(self) -> SymplecticView:
        """All ``2n`` packed rows: ``(batch, 2n, words)`` words, ``(batch, 2n)`` signs."""
        return SymplecticView(_readonly(self._x), _readonly(self._z), _readonly(self._r))

    def stabilizer_block(self) -> SymplecticView:
        """The stabilizer half (rows ``n..2n-1``) as a packed read-only view."""
        n = self._n
        return SymplecticView(
            _readonly(self._x[:, n:]), _readonly(self._z[:, n:]), _readonly(self._r[:, n:])
        )

    def destabilizer_block(self) -> SymplecticView:
        """The destabilizer half (rows ``0..n-1``) as a packed read-only view."""
        n = self._n
        return SymplecticView(
            _readonly(self._x[:, :n]), _readonly(self._z[:, :n]), _readonly(self._r[:, :n])
        )

    def extract(self, index: int) -> "CliffordTableau":
        """A standalone single-state tableau copied from batch element ``index``."""
        if not 0 <= index < self._batch:
            raise SimulationError(f"batch index {index} out of range for {self._batch}")
        sliced = BatchedCliffordTableau._from_arrays(
            self._x[index : index + 1].copy(),
            self._z[index : index + 1].copy(),
            self._r[index : index + 1].copy(),
            self._n,
        )
        return CliffordTableau._wrap(sliced)

    def __len__(self) -> int:
        return self._batch

    def __getitem__(self, index: int) -> "CliffordTableau":
        return self.extract(index)

    def __repr__(self) -> str:
        return f"BatchedCliffordTableau({self._batch} x {self._n} qubits)"

    # ------------------------------------------------------------------ #
    # primitive gate updates (vectorized over batch x rows)
    # ------------------------------------------------------------------ #
    def _check_qubit(self, qubit: int) -> None:
        if not 0 <= qubit < self._n:
            raise SimulationError(f"qubit {qubit} out of range for {self._n} qubits")

    def _column(self, array: np.ndarray, qubit: int) -> tuple[np.ndarray, np.uint64, int]:
        word, offset = divmod(qubit, WORD_BITS)
        return (array[:, :, word] >> np.uint64(offset)) & _ONE, np.uint64(offset), word

    def apply_h(self, qubit: int) -> None:
        """Hadamard: X <-> Z, sign flips when the row carries Y on the qubit."""
        self._check_qubit(qubit)
        x, offset, word = self._column(self._x, qubit)
        z, _, _ = self._column(self._z, qubit)
        swap = x ^ z
        self._r ^= (x & z).astype(bool)
        self._x[:, :, word] ^= swap << offset
        self._z[:, :, word] ^= swap << offset

    def apply_s(self, qubit: int) -> None:
        """Phase gate: X -> Y, sign flips when the row carries Y on the qubit."""
        self._check_qubit(qubit)
        x, offset, word = self._column(self._x, qubit)
        z, _, _ = self._column(self._z, qubit)
        self._r ^= (x & z).astype(bool)
        self._z[:, :, word] ^= x << offset

    def apply_cx(self, control: int, target: int) -> None:
        """CNOT from ``control`` to ``target``."""
        self._check_qubit(control)
        self._check_qubit(target)
        if control == target:
            raise SimulationError("CX control and target must differ")
        xc, c_offset, c_word = self._column(self._x, control)
        zc, _, _ = self._column(self._z, control)
        xt, t_offset, t_word = self._column(self._x, target)
        zt, _, _ = self._column(self._z, target)
        flip = xc & zt & (xt ^ zc ^ _ONE)
        self._r ^= flip.astype(bool)
        self._x[:, :, t_word] ^= xc << t_offset
        self._z[:, :, c_word] ^= zt << c_offset

    def apply_x(self, qubit: int) -> None:
        """Pauli X: flips the sign of rows carrying Z or Y on the qubit."""
        self._check_qubit(qubit)
        z, _, _ = self._column(self._z, qubit)
        self._r ^= z.astype(bool)

    def apply_z(self, qubit: int) -> None:
        """Pauli Z: flips the sign of rows carrying X or Y on the qubit."""
        self._check_qubit(qubit)
        x, _, _ = self._column(self._x, qubit)
        self._r ^= x.astype(bool)

    def apply_y(self, qubit: int) -> None:
        """Pauli Y: flips the sign of rows carrying X or Z (not Y) on the qubit."""
        self._check_qubit(qubit)
        x, _, _ = self._column(self._x, qubit)
        z, _, _ = self._column(self._z, qubit)
        self._r ^= (x ^ z).astype(bool)

    def apply_sdg(self, qubit: int) -> None:
        self.apply_z(qubit)
        self.apply_s(qubit)

    def apply_sx(self, qubit: int) -> None:
        """sqrt(X) = H S H up to global phase."""
        self.apply_h(qubit)
        self.apply_s(qubit)
        self.apply_h(qubit)

    def apply_sxdg(self, qubit: int) -> None:
        self.apply_h(qubit)
        self.apply_sdg(qubit)
        self.apply_h(qubit)

    def apply_cz(self, control: int, target: int) -> None:
        self.apply_h(target)
        self.apply_cx(control, target)
        self.apply_h(target)

    def apply_swap(self, qubit_a: int, qubit_b: int) -> None:
        self.apply_cx(qubit_a, qubit_b)
        self.apply_cx(qubit_b, qubit_a)
        self.apply_cx(qubit_a, qubit_b)

    # ------------------------------------------------------------------ #
    # word-wide segment kernels and the program dispatcher
    # ------------------------------------------------------------------ #
    def _rotate_layer(self, name: str, scatter: np.ndarray, planes: np.ndarray) -> None:
        """Rotations of one family on distinct qubits, as one word-wide update.

        ``planes`` (``(2, batch, m)``) holds bits 0 and 1 of each index ``k``;
        a matmul with the qubits' ``scatter`` rows makes ``odd``/``high`` word
        masks.  Truth tables (flip for ``k = 1, 2, 3``): ``rz`` (S/Z/Sdg)
        ``z ^= x`` for odd ``k``, flip ``x&z``, ``x``, ``x&~z``; ``rx``
        (SX/X/SXdg) ``x ^= z``, flip ``z&~x``, ``z``, ``z&x``; ``ry``
        (H.X/Y/X.H) ``x <-> z``, flip ``x&~z``, ``x^z``, ``z&~x``.  The
        rotations commute: a row's sign flips with the parity of its flips.
        """
        odd, high = (planes @ scatter)[:, :, None]
        x, z = self._x, self._z
        if name == "rz":
            flip = x & (high ^ (odd & z))
            z ^= x & odd
        elif name == "rx":
            flip = z & (high ^ (odd & ~x))
            x ^= z & odd
        else:  # ry
            swap = x ^ z
            flip = swap & (high ^ (odd & x))
            swap &= odd
            x ^= swap
            z ^= swap
        self._r ^= (bit_counts(flip) & 1).astype(bool)

    def _cx_ladder(self, controls: np.ndarray, inverse: bool) -> None:
        """``cx(q, q + 1)`` for each (consecutive) bit ``q`` of ``controls``, at once.

        Forward: ``x`` becomes its prefix XOR ``P`` over the ladder's qubits,
        ``z_q ^= z_{q+1}``, and gate ``q`` flips a row's sign on ``P_q &
        z_{q+1} & ~(x_{q+1} ^ z_q)``.  Inverse (gates last to first):
        ``x_{q+1} ^= x_q``, ``z`` becomes its suffix XOR ``S``, and gate ``q``
        flips on ``x_q & S_{q+1} & ~(x_{q+1} ^ z_q)``.
        """
        span = controls | _shift(controls, up=True)
        x, z = self._x, self._z
        x_next, z_next = _shift(x, up=False), _shift(z, up=False)
        if inverse:
            suffix = _scan_xor(z & span, up=False)
            flip = x & _shift(suffix, up=False) & ~(x_next ^ z) & controls
            x ^= _shift(x & controls, up=True)
            z ^= (z ^ suffix) & span
        else:
            prefix = _scan_xor(x & span, up=True)
            flip = prefix & z_next & ~(x_next ^ z) & controls
            x ^= (x ^ prefix) & span
            z ^= z_next & controls
        self._r ^= (bit_counts(flip) & 1).astype(bool)

    def apply_rotation(self, name: str, qubit: int, indices) -> None:
        """Apply a rotation gate with a per-batch-element Clifford index.

        ``indices`` has shape ``(batch,)`` with entries in ``{0, 1, 2, 3}``
        (index ``k`` meaning angle ``k * pi/2``): the one-qubit case of a
        rotation layer.
        """
        if name not in _ROTATIONS:
            raise SimulationError(f"unknown rotation gate {name!r}")
        indices = np.asarray(indices, dtype=np.int64)
        if indices.shape != (self._batch,):
            raise SimulationError(
                f"expected {self._batch} rotation indices, got shape {indices.shape}"
            )
        if np.any((indices < 0) | (indices > 3)):
            raise SimulationError("Clifford rotation indices must be in 0..3")
        self._check_qubit(qubit)
        scatter = _scatter((qubit,), self._words)
        self._rotate_layer(name, scatter, _index_planes(indices[:, None]))

    def apply_program(
        self,
        program: "CliffordGateProgram",
        indices,
        start: int = 0,
        stop: Optional[int] = None,
        inverse: bool = False,
    ) -> None:
        """Run a compiled Clifford program (or its ops ``[start, stop)``) on the batch.

        The ops run as the program's segments, each cut to the range.  With
        ``inverse`` the ops run last to first, each replaced by its inverse
        (up to global phase): rotation index ``k`` becomes ``(4 - k) % 4``,
        ``s``/``sx`` swap with ``sdg``/``sxdg``, and every
        other supported gate is its own inverse.  On a stack of Pauli rows
        this is the Heisenberg picture: each row ``P`` becomes ``U^dag P U``
        for the program ``U`` of the range.
        """
        if program.num_qubits != self._n:
            raise SimulationError("program and tableau act on different qubit counts")
        indices = np.asarray(indices, dtype=np.int64)
        if indices.shape != (self._batch, program.num_parameters):
            raise SimulationError(
                f"expected a ({self._batch}, {program.num_parameters}) index matrix, "
                f"got shape {indices.shape}"
            )
        if program.num_parameters and np.any((indices < 0) | (indices > 3)):
            raise SimulationError("Clifford rotation indices must be in 0..3")
        start, stop, _ = slice(start, stop).indices(program.num_ops)
        if start >= stop:
            return
        segments, key = program.segments, attrgetter("start")
        chosen = segments[
            bisect_right(segments, start, key=key) - 1 : bisect_left(segments, stop, key=key)
        ]
        planes = None
        for segment in reversed(chosen) if inverse else chosen:
            lo = max(start - segment.start, 0)
            hi = min(stop, segment.stop) - segment.start
            if segment.kind == "rotation":
                if planes is None:
                    # Bound rotations read the constant columns 0..3 after the slots.
                    values = np.empty((self._batch, indices.shape[1] + 4), dtype=np.int64)
                    values[:, : indices.shape[1]] = indices
                    values[:, indices.shape[1] :] = np.arange(4)
                    planes = _index_planes((4 - values) & 3 if inverse else values)
                scatter = _scatter(segment.qubits, self._words)[lo:hi]
                self._rotate_layer(segment.name, scatter, planes[:, :, segment.columns[lo:hi]])
            elif segment.kind == "ladder" and hi - lo > 1:
                controls = _scatter(segment.qubits, self._words)[lo:hi].sum(axis=0)
                self._cx_ladder(controls, inverse)
            else:
                op = program.ops[segment.start + lo]
                name = _INVERSE_GATES.get(op.name, op.name) if inverse else op.name
                getattr(self, f"apply_{name}")(*op.qubits)

    # ------------------------------------------------------------------ #
    # expectation values
    # ------------------------------------------------------------------ #
    def expectations(self, pauli: Pauli) -> np.ndarray:
        """Per-batch-element expectation of a Hermitian Pauli: ``(batch,)`` int8.

        A ``-1`` phase negates the values; an anti-Hermitian ``±i`` Pauli has
        an imaginary expectation and raises :class:`SimulationError`.
        """
        if pauli.num_qubits != self._n:
            raise SimulationError("Pauli and tableau act on different qubit counts")
        phase = pauli.phase
        if phase not in (1, -1):
            raise SimulationError(
                f"Pauli {pauli!r} is anti-Hermitian (phase {phase}); its "
                "expectation is imaginary"
            )
        if pauli.is_identity():
            values = np.ones(self._batch, dtype=np.int8)
        else:
            stab = self.stabilizer_block()
            destab = self.destabilizer_block()
            values = stabilizer_expectations(
                stab.x, stab.z, stab.r, destab.x, destab.z,
                pack_bits(pauli.x)[None], pack_bits(pauli.z)[None],
            )[:, 0]
        return -values if phase == -1 else values


class CliffordTableau:
    """Read-only stabilizer tableau of one ``n``-qubit state (``|0...0>`` if built).

    A single-state view of a :class:`BatchedCliffordTableau` (a batch of one),
    as returned by :meth:`BatchedCliffordTableau.extract` and
    :meth:`StabilizerSimulator.run`; states evolve only in the batched engine.
    """

    def __init__(self, num_qubits: int):
        if num_qubits < 1:
            raise SimulationError("tableau needs at least one qubit")
        self._batched = BatchedCliffordTableau(1, num_qubits)

    @classmethod
    def _wrap(cls, batched: BatchedCliffordTableau) -> "CliffordTableau":
        tableau = cls.__new__(cls)
        tableau._batched = batched
        return tableau

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def num_qubits(self) -> int:
        return self._batched.num_qubits

    @property
    def num_words(self) -> int:
        return self._batched.num_words

    def symplectic_view(self) -> SymplecticView:
        """All ``2n`` packed rows: ``(2n, words)`` uint64 plus ``(2n,)`` signs."""
        view = self._batched.symplectic_view()
        return SymplecticView(view.x[0], view.z[0], view.r[0])

    def stabilizer_block(self) -> SymplecticView:
        """Packed stabilizer generators: ``(n, words)`` words plus ``(n,)`` signs."""
        view = self._batched.stabilizer_block()
        return SymplecticView(view.x[0], view.z[0], view.r[0])

    def destabilizer_block(self) -> SymplecticView:
        """Packed destabilizer rows: ``(n, words)`` words plus ``(n,)`` signs."""
        view = self._batched.destabilizer_block()
        return SymplecticView(view.x[0], view.z[0], view.r[0])

    def stabilizer_row(self, index: int) -> tuple[np.ndarray, np.ndarray, bool]:
        """(x, z, sign bit) of stabilizer generator ``index``, as bool vectors."""
        n = self.num_qubits
        block = self._batched.stabilizer_block()
        return (
            unpack_bits(block.x[0, index], n),
            unpack_bits(block.z[0, index], n),
            bool(block.r[0, index]),
        )

    def stabilizer_labels(self) -> list[str]:
        """Human-readable stabilizer generators, e.g. ``['+ZI', '-IZ']``."""
        labels = []
        for i in range(self.num_qubits):
            x, z, sign = self.stabilizer_row(i)
            pauli = Pauli.from_xz(x, z, 0)
            prefix = "-" if sign else "+"
            labels.append(prefix + pauli.label)
        return labels

    # ------------------------------------------------------------------ #
    # expectation values
    # ------------------------------------------------------------------ #
    def expectation(self, pauli: Pauli) -> int:
        """Exact expectation of a Hermitian Pauli string: always -1, 0, or +1."""
        return int(self._batched.expectations(pauli)[0])

    def __repr__(self) -> str:
        return f"CliffordTableau({self.num_qubits} qubits)"
