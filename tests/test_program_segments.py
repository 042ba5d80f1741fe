"""The segment dispatcher against the per-gate loop it replaced.

``BatchedCliffordTableau.apply_program`` runs a compiled program as
segments: whole rotation layers and linear CX ladders as single word-wide
updates, every other op through its primitive.  The oracle below is the
earlier dispatcher: one op at a time, each rotation through the one-column
truth table it used (``reference_rotation``), each other op through the CHP
primitives.  Every case compares the packed ``x``, ``z`` and sign arrays bit
for bit, including ranges that cut a layer or a ladder, inverse runs, and
qubit counts on both sides of the 64-bit word boundaries.
"""

import itertools

import numpy as np
import pytest

from repro.circuits import (
    CliffordGateProgram,
    EfficientSU2Ansatz,
    Parameter,
    QuantumCircuit,
)
from repro.stabilizer import BatchedCliffordTableau, pack_bits

_ONE = np.uint64(1)
_INVERSE_GATES = {"s": "sdg", "sdg": "s", "sx": "sxdg", "sxdg": "sx"}


def reference_rotation(tableau, name, qubit, indices):
    """One rotation with a per-batch-element index, on the qubit's bit column."""
    word, offset = divmod(qubit, 64)
    offset = np.uint64(offset)
    x = (tableau._x[:, :, word] >> offset) & _ONE
    z = (tableau._z[:, :, word] >> offset) & _ONE
    k1 = (indices == 1).astype(np.uint64)[:, None]
    k2 = (indices == 2).astype(np.uint64)[:, None]
    k3 = (indices == 3).astype(np.uint64)[:, None]
    if name == "rz":
        flip = (k1 & x & z) | (k2 & x) | (k3 & x & (z ^ _ONE))
        tableau._z[:, :, word] ^= (x & (k1 | k3)) << offset
    elif name == "rx":
        flip = (k1 & z & (x ^ _ONE)) | (k2 & z) | (k3 & x & z)
        tableau._x[:, :, word] ^= (z & (k1 | k3)) << offset
    else:
        flip = (k1 & x & (z ^ _ONE)) | (k2 & (x ^ z)) | (k3 & z & (x ^ _ONE))
        swap = (x ^ z) & (k1 | k3)
        tableau._x[:, :, word] ^= swap << offset
        tableau._z[:, :, word] ^= swap << offset
    tableau._r ^= flip.astype(bool)


def per_gate_apply_program(tableau, program, indices, start=0, stop=None, inverse=False):
    """The per-op dispatch loop: ops ``[start, stop)``, reversed and inverted if asked."""
    indices = np.asarray(indices, dtype=np.int64)
    ops = program.ops[start:stop]
    for op in reversed(ops) if inverse else ops:
        if op.parameter_index is not None:
            column = indices[:, op.parameter_index]
            reference_rotation(
                tableau, op.name, op.qubits[0], (4 - column) % 4 if inverse else column
            )
        elif op.fixed_index is not None:
            index = (4 - op.fixed_index) % 4 if inverse else op.fixed_index
            reference_rotation(
                tableau, op.name, op.qubits[0], np.full(tableau.batch_size, index)
            )
        elif op.name in ("cx", "cz", "swap"):
            getattr(tableau, f"apply_{op.name}")(*op.qubits)
        else:
            name = _INVERSE_GATES.get(op.name, op.name) if inverse else op.name
            getattr(tableau, f"apply_{name}")(op.qubits[0])


def _random_rows(batch, rows, num_qubits, rng):
    """Dense random signed Pauli rows, so every bit of every column is exercised."""
    words = (num_qubits + 63) // 64
    x = pack_bits(rng.random((batch * rows, num_qubits)) < 0.5)
    z = pack_bits(rng.random((batch * rows, num_qubits)) < 0.5)
    return (
        x.reshape(batch, rows, words),
        z.reshape(batch, rows, words),
        rng.random((batch, rows)) < 0.5,
    )


def assert_dispatch_matches(program, indices, rows, start=0, stop=None, inverse=False):
    x, z, r = rows
    num_qubits = program.num_qubits
    fast = BatchedCliffordTableau._from_arrays(x.copy(), z.copy(), r.copy(), num_qubits)
    slow = BatchedCliffordTableau._from_arrays(x.copy(), z.copy(), r.copy(), num_qubits)
    fast.apply_program(program, indices, start, stop, inverse=inverse)
    per_gate_apply_program(slow, program, indices, start, stop, inverse=inverse)
    got, want = fast.symplectic_view(), slow.symplectic_view()
    assert np.array_equal(got.x, want.x)
    assert np.array_equal(got.z, want.z)
    assert np.array_equal(got.r, want.r)


def _cuts(program):
    """``(start, stop)`` ranges that begin and end inside layers and ladders."""
    cuts = [(0, None)]
    for segment in program.segments:
        length = segment.stop - segment.start
        if length >= 3:
            inside = segment.start + length // 3
            cuts.append((inside, segment.stop - 1))
            cuts.append((segment.start + 1, None))
            cuts.append((0, inside))
            cuts.append((inside, inside + 1))
    return cuts


# n on both sides of every word boundary, each with its own batch size and
# ansatz shape, so the sweep stays small.
BOUNDARY_CASES = [
    (1, 16, 3, ("ry", "rz")),
    (2, 256, 2, ("rz", "rx", "ry")),
    (63, 1, 1, ("ry", "rz")),
    (64, 16, 2, ("rx",)),
    (65, 1, 3, ("ry", "rz")),
    (127, 16, 1, ("rz", "rx", "ry")),
    (128, 1, 1, ("ry", "rz")),
    (129, 16, 2, ("rx",)),
]


@pytest.mark.parametrize("num_qubits,batch,reps,blocks", BOUNDARY_CASES)
def test_ansatz_programs_match_per_gate_loop(num_qubits, batch, reps, blocks):
    rng = np.random.default_rng(num_qubits)
    ansatz = EfficientSU2Ansatz(num_qubits, reps=reps, rotation_blocks=blocks)
    program = CliffordGateProgram.from_ansatz(ansatz)
    indices = rng.integers(0, 4, (batch, program.num_parameters))

    evolved = BatchedCliffordTableau.from_program(program, indices)
    oracle = BatchedCliffordTableau(batch, num_qubits)
    per_gate_apply_program(oracle, program, indices)
    for got, want in zip(evolved.symplectic_view(), oracle.symplectic_view()):
        assert np.array_equal(got, want)

    rows = _random_rows(batch, 5, num_qubits, rng)
    for start, stop in _cuts(program):
        for inverse in (False, True):
            assert_dispatch_matches(program, indices, rows, start, stop, inverse)


@pytest.mark.parametrize("batch", [1, 16, 256])
@pytest.mark.parametrize("num_qubits", [1, 2, 63, 64, 65, 127, 128, 129])
def test_full_evolve_from_zero_state(num_qubits, batch):
    rng = np.random.default_rng(7 * num_qubits + batch)
    program = CliffordGateProgram.from_ansatz(EfficientSU2Ansatz(num_qubits, reps=1))
    indices = rng.integers(0, 4, (batch, program.num_parameters))
    assert_dispatch_matches(
        program, indices, _random_rows(batch, 3, num_qubits, rng)
    )
    evolved = BatchedCliffordTableau.from_program(program, indices)
    oracle = BatchedCliffordTableau(batch, num_qubits)
    per_gate_apply_program(oracle, program, indices)
    for got, want in zip(evolved.symplectic_view(), oracle.symplectic_view()):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("reps", [0, 1, 2, 3])
@pytest.mark.parametrize("blocks", [("rx",), ("ry", "rz"), ("rz", "rx", "ry")])
def test_reps_and_rotation_blocks(reps, blocks):
    rng = np.random.default_rng(reps)
    for num_qubits in (5, 65):
        ansatz = EfficientSU2Ansatz(num_qubits, reps=reps, rotation_blocks=blocks)
        program = CliffordGateProgram.from_ansatz(ansatz)
        kinds = [segment.kind for segment in program.segments]
        assert kinds.count("rotation") == (reps + 1) * len(blocks)
        assert kinds.count("ladder") == reps
        indices = rng.integers(0, 4, (16, program.num_parameters))
        rows = _random_rows(16, 4, num_qubits, rng)
        for start, stop in _cuts(program):
            for inverse in (False, True):
                assert_dispatch_matches(program, indices, rows, start, stop, inverse)


@pytest.mark.parametrize("entanglement", ["circular", "full"])
@pytest.mark.parametrize("num_qubits", [5, 65])
def test_cx_pairs_that_are_not_ladders(entanglement, num_qubits):
    rng = np.random.default_rng(num_qubits)
    reps = 2 if entanglement == "circular" else 1
    ansatz = EfficientSU2Ansatz(num_qubits, reps=reps, entanglement=entanglement)
    program = CliffordGateProgram.from_ansatz(ansatz)
    singles = [s for s in program.segments if s.kind == "op"]
    if entanglement == "circular":
        # The wrap-around pair (n - 1, 0) ends each ladder as a single op.
        assert [s.qubits for s in singles] == [(num_qubits - 1, 0)] * 2
    else:
        assert all(s.name == "cx" for s in singles) and singles
    indices = rng.integers(0, 4, (16, program.num_parameters))
    rows = _random_rows(16, 4, num_qubits, rng)
    for start, stop in _cuts(program):
        for inverse in (False, True):
            assert_dispatch_matches(program, indices, rows, start, stop, inverse)


_SINGLE = ("h", "s", "sdg", "sx", "sxdg", "x", "y", "z")
_PAIR = ("cx", "cz", "swap")


def _mixed_circuit(num_qubits, rng, length=120):
    """Runs of every op kind: layers (free and bound), ladders, single ops."""
    circuit = QuantumCircuit(num_qubits)
    theta = itertools.count()
    while len(circuit) < length:
        kind = rng.integers(0, 5)
        if kind == 0:  # a (possibly partial) rotation layer, free or bound
            name = str(rng.choice(["rx", "ry", "rz"]))
            for qubit in rng.permutation(num_qubits)[: rng.integers(1, num_qubits + 1)]:
                if rng.random() < 0.5:
                    angle = float(rng.integers(0, 4)) * np.pi / 2
                    getattr(circuit, name)(angle, int(qubit))
                else:
                    getattr(circuit, name)(Parameter(f"t{next(theta)}"), int(qubit))
        elif kind == 1 and num_qubits > 1:  # a ladder, sometimes one gate long
            first = int(rng.integers(0, num_qubits - 1))
            for control in range(first, int(rng.integers(first + 1, num_qubits))):
                circuit.cx(control, control + 1)
        elif kind == 2 and num_qubits > 1:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            getattr(circuit, str(rng.choice(_PAIR)))(int(a), int(b))
        else:
            qubit = int(rng.integers(0, num_qubits))
            getattr(circuit, str(rng.choice(_SINGLE)))(qubit)
    return circuit


@pytest.mark.parametrize("num_qubits", [1, 3, 64, 65, 129])
def test_bound_rotations_and_single_ops(num_qubits):
    rng = np.random.default_rng(100 + num_qubits)
    circuit = _mixed_circuit(num_qubits, rng)
    program = CliffordGateProgram.compile(circuit)
    assert any(op.fixed_index is not None for op in program.ops)
    kinds = {segment.kind for segment in program.segments}
    assert {"rotation", "op"} <= kinds
    batch = 16
    indices = rng.integers(0, 4, (batch, program.num_parameters))
    rows = _random_rows(batch, 4, num_qubits, rng)
    for start, stop in _cuts(program) + [(5, 5), (program.num_ops, None)]:
        for inverse in (False, True):
            assert_dispatch_matches(program, indices, rows, start, stop, inverse)


def test_segments_partition_the_program_and_are_built_lazily():
    program = CliffordGateProgram.from_ansatz(EfficientSU2Ansatz(50, reps=1))
    assert "segments" not in vars(program)
    segments = program.segments
    assert [(s.kind, s.name, s.start, s.stop) for s in segments] == [
        ("rotation", "ry", 0, 50),
        ("rotation", "rz", 50, 100),
        ("ladder", "cx", 100, 149),
        ("rotation", "ry", 149, 199),
        ("rotation", "rz", 199, 249),
    ]
    assert segments[2].qubits == tuple(range(49))
    assert program.segments is segments
