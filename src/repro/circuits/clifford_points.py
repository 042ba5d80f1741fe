"""Discretization of ansatz rotation angles onto Clifford points.

Each tunable rotation gate becomes Clifford when its angle is one of
``{0, pi/2, pi, 3*pi/2}``.  CAFQA's discrete search therefore operates on an
integer vector with entries in ``{0, 1, 2, 3}``, one per ansatz parameter.
This module converts between index vectors, angle vectors, and bound
circuits, and provides helpers to enumerate / sample the discrete space.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.ansatz import EfficientSU2Ansatz
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import (
    NON_CLIFFORD_GATES,
    ROTATION_GATES,
    angle_from_clifford_index,
    clifford_index_from_angle,
)
from repro.exceptions import CircuitError

CLIFFORD_ANGLES = tuple(angle_from_clifford_index(k) for k in range(4))

# Programs compiled by :meth:`CliffordGateProgram.from_ansatz`, by ansatz
# shape, oldest first; at most ``_MAX_SHAPES`` are kept.
_PROGRAMS: Dict[tuple, "CliffordGateProgram"] = {}
_MAX_SHAPES = 32


def indices_to_angles(indices: Sequence[int], cardinality: int = 4) -> List[float]:
    """Map grid indices to rotation angles ``index * 2pi / cardinality``.

    The default is the Clifford grid (multiples of pi/2); ``cardinality=8``
    is the pi/4 grid of the CAFQA+kT search.
    """
    step = 2.0 * np.pi / cardinality
    return [(int(i) % cardinality) * step for i in indices]


def validate_clifford_point(
    indices: Sequence[int], num_parameters: int, cardinality: int = 4
) -> Tuple[int, ...]:
    """Check length and index range of a grid point; return it as a tuple.

    ``cardinality`` is 4 on the Clifford grid and 8 on the pi/4 grid.
    """
    return validate_clifford_points([indices], num_parameters, cardinality)[0]


def validate_clifford_points(
    points: Sequence[Sequence[int]], num_parameters: int, cardinality: int = 4
) -> List[Tuple[int, ...]]:
    """Check a batch of grid points as one array; return them as tuples of ints.

    Entries may be Python ints, numpy integers or floats (truncated like
    ``int``).  A batch that fails is checked point by point, so the
    :class:`CircuitError` names the first bad point's first problem.
    """
    points = list(points)
    try:
        matrix = np.asarray(points)
    except (ValueError, OverflowError):  # ragged, or an int beyond int64
        matrix = np.zeros(0)
    if matrix.shape == (len(points), num_parameters) and matrix.dtype.kind in "biuf":
        matrix = np.trunc(matrix) if matrix.dtype.kind == "f" else matrix
        if np.all((matrix >= 0) & (matrix < cardinality)):
            return [tuple(row) for row in matrix.astype(np.int64).tolist()]
    checked = []
    for indices in points:
        values = list(indices)
        if len(values) != num_parameters:
            raise CircuitError(
                f"expected {num_parameters} Clifford indices, got {len(values)}"
            )
        for index in values:
            if not 0 <= int(index) < cardinality:
                raise CircuitError(
                    f"Clifford index {index!r} must be in 0..{cardinality - 1}"
                )
        checked.append(tuple(int(index) for index in values))
    return checked


def bind_clifford_point(ansatz: EfficientSU2Ansatz, indices: Sequence[int]) -> QuantumCircuit:
    """Bind an ansatz at the Clifford point given by ``indices``."""
    indices = validate_clifford_point(indices, ansatz.num_parameters)
    return ansatz.bind(indices_to_angles(indices))


@dataclass(frozen=True)
class ProgramOp:
    """One flat instruction of a compiled Clifford program.

    Exactly one of the rotation fields is set for rotation gates:
    ``parameter_index`` points at the Clifford-index slot that supplies the
    angle at run time, while ``fixed_index`` bakes in a bound multiple of
    pi/2.  Fixed (non-rotation) Clifford gates leave both as ``None``.
    """

    name: str
    qubits: Tuple[int, ...]
    parameter_index: Optional[int] = None
    fixed_index: Optional[int] = None


class ProgramSegment(NamedTuple):
    """Ops ``ops[start:stop]`` that a tableau applies as one update, by ``kind``.

    ``"rotation"``: family ``name`` on distinct ``qubits``, index of op ``i``
    in column ``columns[i]`` of the index matrix extended by the constants
    0..3 (bound index ``k`` is column ``num_parameters + k``).  ``"ladder"``:
    ``cx(q, q + 1)`` for ``q`` in ``qubits``.  ``"op"``: the one op ``ops[start]``.
    """

    kind: str
    start: int
    stop: int
    name: str
    qubits: Tuple[int, ...]
    columns: np.ndarray


class CliffordGateProgram:
    """A Clifford circuit flattened to a gate list executable on tableaux.

    Compiling once removes the per-evaluation ``QuantumCircuit`` rebuild and
    parameter bind from the CAFQA hot path: rotation ops reference parameter
    slots, so a stabilizer tableau — or a whole batch of them — executes the
    program straight from a vector (or matrix) of Clifford indices.  Slot
    ``k`` corresponds to the ``k``-th circuit parameter in order of first
    appearance, matching the positional convention of
    :func:`bind_clifford_point`.

    A tableau runs the ops as :attr:`segments` (rotation layers, linear CX
    ladders, single ops), one word-wide update each; the table is built on
    first use, so a program that is only fingerprinted never builds it.  A
    program is immutable once built, which lets :meth:`from_ansatz` share
    one per ansatz shape across the process.
    """

    def __init__(self, num_qubits: int, num_parameters: int, ops: Tuple[ProgramOp, ...]):
        self._num_qubits = int(num_qubits)
        self._num_parameters = int(num_parameters)
        self._ops = tuple(ops)

    @classmethod
    def compile(cls, circuit: QuantumCircuit) -> "CliffordGateProgram":
        """Flatten a (possibly parameterized) Clifford circuit into a program."""
        slots = {parameter: i for i, parameter in enumerate(circuit.parameters)}
        ops: List[ProgramOp] = []
        for gate in circuit:
            if gate.name == "id":
                continue
            if gate.name in NON_CLIFFORD_GATES:
                raise CircuitError(
                    f"gate {gate.name!r} is not Clifford; only Clifford circuits "
                    "can be compiled to a gate program"
                )
            if gate.is_parameterized:
                ops.append(
                    ProgramOp(gate.name, gate.qubits, parameter_index=slots[gate.parameter])
                )
            elif gate.name in ROTATION_GATES:
                index = clifford_index_from_angle(float(gate.parameter))
                if index:
                    ops.append(ProgramOp(gate.name, gate.qubits, fixed_index=index))
            else:
                ops.append(ProgramOp(gate.name, gate.qubits))
        return cls(circuit.num_qubits, len(slots), tuple(ops))

    @classmethod
    def from_ansatz(cls, ansatz: EfficientSU2Ansatz) -> "CliffordGateProgram":
        """The program of ``ansatz``'s shape, compiled once per process.

        The shape is the ansatz type, qubit count, reps, rotation blocks and
        entanglement: every ansatz of one shape builds the same circuit, so
        they all share one program (and its segment table and fingerprint).
        """
        shape = (type(ansatz), ansatz.num_qubits, ansatz.reps)
        shape += (ansatz.rotation_blocks, ansatz.entanglement)
        program = _PROGRAMS.get(shape)
        if program is None:
            if len(_PROGRAMS) >= _MAX_SHAPES:
                del _PROGRAMS[next(iter(_PROGRAMS))]
            program = _PROGRAMS[shape] = cls.compile(ansatz.circuit)
        return program

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def num_parameters(self) -> int:
        return self._num_parameters

    @property
    def ops(self) -> Tuple[ProgramOp, ...]:
        return self._ops

    @property
    def num_ops(self) -> int:
        return len(self._ops)

    @cached_property
    def segments(self) -> Tuple[ProgramSegment, ...]:
        """The ops grouped into rotation layers, CX ladders and single ops, in order."""
        runs: List[ProgramSegment] = []
        for index, op in enumerate(self._ops):
            last, head = runs[-1] if runs else None, op.qubits[0]
            if op.parameter_index is not None or op.fixed_index is not None:
                kind, qubits = "rotation", [head]
                joins = last and (last.kind, last.name) == (kind, op.name)
                joins = joins and head not in last.qubits
            elif op.name == "cx" and op.qubits[1] == head + 1:
                kind, qubits = "ladder", [head]
                joins = last and last.kind == kind and last.qubits[-1] + 1 == head
            else:
                kind, qubits, joins = "op", list(op.qubits), False
            if not joins:
                runs.append(ProgramSegment(kind, index, index, op.name, [], []))
            runs[-1].qubits.extend(qubits)
            if kind == "rotation":
                bound = op.fixed_index is not None
                column = self._num_parameters + op.fixed_index if bound else op.parameter_index
                runs[-1].columns.append(column)
        stops = [run.start for run in runs[1:]] + [len(self._ops)]
        segments = tuple(
            run._replace(stop=stop, qubits=tuple(run.qubits), columns=np.array(run.columns))
            for run, stop in zip(runs, stops)
        )
        for segment in segments:
            segment.columns.flags.writeable = False
        return segments

    @cached_property
    def fingerprint(self) -> str:
        """Stable hex digest of the flat gate list: the program the evaluations ran."""
        digest = hashlib.sha256()
        digest.update(f"{self._num_qubits}:{self._num_parameters};".encode())
        for op in self._ops:
            digest.update(
                f"{op.name}:{op.qubits}:{op.parameter_index}:{op.fixed_index};".encode()
            )
        return digest.hexdigest()[:16]

    def __repr__(self) -> str:
        return (
            f"CliffordGateProgram({self._num_qubits} qubits, {len(self._ops)} ops, "
            f"{self._num_parameters} parameters)"
        )


def hartree_fock_clifford_point(
    ansatz: EfficientSU2Ansatz, occupations: Iterable[int]
) -> List[int]:
    """Clifford index vector reproducing a computational-basis occupation string.

    For an ``EfficientSU2`` ansatz with RY/RZ blocks, setting every angle to
    zero except the *final* RY layer — which gets ``pi`` on occupied qubits —
    prepares exactly the Hartree-Fock bitstring, up to a global phase.  (The
    final rotation layer comes after all entangling layers; with the earlier
    layers at zero the CX ladder acts on the all-zeros state and does
    nothing.)  This point is used to warm-start the CAFQA search so the
    search result can never be worse than Hartree-Fock.
    """
    occupations = list(occupations)
    if len(occupations) != ansatz.num_qubits:
        raise CircuitError(
            f"expected {ansatz.num_qubits} occupation bits, got {len(occupations)}"
        )
    if "ry" not in ansatz.rotation_blocks:
        raise CircuitError("Hartree-Fock warm start requires an RY rotation block")
    indices = [0] * ansatz.num_parameters
    # Parameters are ordered layer-by-layer, block-by-block, qubit-by-qubit.
    last_layer_offset = ansatz.reps * len(ansatz.rotation_blocks) * ansatz.num_qubits
    ry_block_offset = (
        last_layer_offset + ansatz.rotation_blocks.index("ry") * ansatz.num_qubits
    )
    for qubit, occupied in enumerate(occupations):
        if occupied not in (0, 1):
            raise CircuitError(f"occupation bits must be 0 or 1, got {occupied!r}")
        if occupied:
            indices[ry_block_offset + qubit] = 2  # angle pi flips |0> to |1>
    return indices
