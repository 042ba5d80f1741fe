"""Tests for the circuit IR, gate library, ansatz, and Clifford-point helpers."""

import numpy as np
import pytest

from repro.circuits import (
    EfficientSU2Ansatz,
    Gate,
    Parameter,
    ParameterVector,
    QuantumCircuit,
    angle_from_clifford_index,
    bind_clifford_point,
    clifford_index_from_angle,
    entangling_pairs,
    hartree_fock_clifford_point,
    is_clifford_angle,
    validate_clifford_point,
)
from repro.circuits.clifford_points import CliffordGateProgram, validate_clifford_points
from repro.exceptions import CircuitError
from repro.statevector import StatevectorSimulator


class TestGates:
    def test_unknown_gate(self):
        with pytest.raises(CircuitError):
            Gate("foo", (0,))

    def test_wrong_arity(self):
        with pytest.raises(CircuitError):
            Gate("cx", (0,))

    def test_duplicate_qubits(self):
        with pytest.raises(CircuitError):
            Gate("cx", (1, 1))

    def test_rotation_needs_angle(self):
        with pytest.raises(CircuitError):
            Gate("rx", (0,))

    def test_fixed_gate_rejects_parameter(self):
        with pytest.raises(CircuitError):
            Gate("h", (0,), 0.3)

    def test_rotation_matrices_are_unitary(self):
        for name in ("rx", "ry", "rz"):
            matrix = Gate(name, (0,), 0.7).matrix()
            np.testing.assert_allclose(matrix @ matrix.conj().T, np.eye(2), atol=1e-12)

    def test_clifford_classification(self):
        assert Gate("h", (0,)).is_clifford()
        assert Gate("t", (0,)).is_clifford() is False
        assert Gate("rz", (0,), np.pi / 2).is_clifford()
        assert Gate("rz", (0,), np.pi / 3).is_clifford() is False

    def test_unbound_parameter_matrix_raises(self):
        gate = Gate("ry", (0,), Parameter("theta"))
        with pytest.raises(CircuitError):
            gate.matrix()

    def test_bind(self):
        gate = Gate("ry", (0,), Parameter("theta"))
        bound = gate.bind(np.pi)
        assert not bound.is_parameterized
        assert bound.is_clifford()

    def test_clifford_angle_helpers(self):
        assert is_clifford_angle(3 * np.pi / 2)
        assert not is_clifford_angle(0.3)
        assert clifford_index_from_angle(np.pi) == 2
        assert angle_from_clifford_index(3) == pytest.approx(3 * np.pi / 2)
        with pytest.raises(CircuitError):
            clifford_index_from_angle(0.4)


class TestQuantumCircuit:
    def test_append_validates_qubits(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(CircuitError):
            circuit.x(5)

    def test_depth_and_counts(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 1).cx(1, 2).rz(0.3, 2)
        assert circuit.num_gates == 4
        assert circuit.depth() == 4
        assert circuit.count_gates()["cx"] == 2

    def test_parameters_in_order(self):
        theta, phi = Parameter("theta"), Parameter("phi")
        circuit = QuantumCircuit(1)
        circuit.ry(theta, 0).rz(phi, 0).ry(theta, 0)
        assert circuit.parameters == [theta, phi]
        assert circuit.num_parameters == 2

    def test_bind_positional_and_mapping(self):
        theta = Parameter("theta")
        circuit = QuantumCircuit(1).ry(theta, 0)
        assert not circuit.bind([0.5]).is_parameterized()
        assert not circuit.bind({theta: 0.5}).is_parameterized()

    def test_bind_wrong_length(self):
        circuit = QuantumCircuit(1).ry(Parameter("a"), 0)
        with pytest.raises(CircuitError):
            circuit.bind([0.1, 0.2])

    def test_compose(self):
        first = QuantumCircuit(2).h(0)
        second = QuantumCircuit(2).cx(0, 1)
        combined = first.compose(second)
        assert [gate.name for gate in combined] == ["h", "cx"]

    def test_compose_size_mismatch(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(2).compose(QuantumCircuit(3))

    def test_is_clifford(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1).rz(np.pi, 1)
        assert circuit.is_clifford()
        circuit.t(0)
        assert not circuit.is_clifford()
        assert circuit.count_non_clifford() == 1


class TestAnsatz:
    def test_parameter_count(self):
        ansatz = EfficientSU2Ansatz(4, reps=1)
        assert ansatz.num_parameters == (1 + 1) * 2 * 4

    def test_parameter_count_reps2(self):
        ansatz = EfficientSU2Ansatz(3, reps=2, rotation_blocks=("ry",))
        assert ansatz.num_parameters == 3 * 3

    def test_entangling_pairs(self):
        assert entangling_pairs(4, "linear") == [(0, 1), (1, 2), (2, 3)]
        assert entangling_pairs(3, "circular") == [(0, 1), (1, 2), (2, 0)]
        assert len(entangling_pairs(4, "full")) == 6
        with pytest.raises(CircuitError):
            entangling_pairs(4, "star")

    def test_fixed_gates_are_clifford(self):
        ansatz = EfficientSU2Ansatz(4, reps=2)
        non_rotation = [g for g in ansatz.circuit if not g.is_rotation]
        assert all(gate.is_clifford() for gate in non_rotation)

    def test_bound_at_clifford_point_is_clifford(self):
        ansatz = EfficientSU2Ansatz(3, reps=1)
        circuit = bind_clifford_point(ansatz, [1] * ansatz.num_parameters)
        assert circuit.is_clifford()

    def test_invalid_rotation_block(self):
        with pytest.raises(CircuitError):
            EfficientSU2Ansatz(2, rotation_blocks=("h",))


class TestCliffordPoints:
    def test_bind_rejects_bad_index(self):
        ansatz = EfficientSU2Ansatz(2, reps=0)
        with pytest.raises(CircuitError):
            bind_clifford_point(ansatz, [5] * ansatz.num_parameters)

    def test_bind_rejects_wrong_length(self):
        ansatz = EfficientSU2Ansatz(2, reps=0)
        with pytest.raises(CircuitError):
            bind_clifford_point(ansatz, [0])

    @pytest.mark.parametrize("occupations", [[0, 0, 0], [1, 0, 1], [1, 1, 1]])
    def test_hartree_fock_point_prepares_bitstring(self, occupations):
        ansatz = EfficientSU2Ansatz(3, reps=1)
        indices = hartree_fock_clifford_point(ansatz, occupations)
        state = StatevectorSimulator().run(bind_clifford_point(ansatz, indices))
        expected_index = sum(bit << qubit for qubit, bit in enumerate(occupations))
        probabilities = state.probabilities()
        assert probabilities[expected_index] == pytest.approx(1.0)

    def test_parameter_vector(self):
        vector = ParameterVector("theta", 3)
        assert len(vector) == 3
        assert vector[1].name == "theta[1]"


def oracle_validate_clifford_point(indices, num_parameters, cardinality=4):
    """The point-by-point check that the batch validator replaced."""
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
    return tuple(int(index) for index in values)


def _oracle_error(points, num_parameters, cardinality):
    with pytest.raises(CircuitError) as caught:
        for point in points:
            oracle_validate_clifford_point(point, num_parameters, cardinality)
    return str(caught.value)


class TestValidateCliffordPoints:
    MIXED = [
        [0, 1, 2, 3],
        [np.int64(3), np.int8(2), np.uint64(1), 0],
        [0.0, 1.0, np.float32(2.0), 3],
        (True, False, 2, np.int32(3)),
        np.array([3, 2, 1, 0]),
        [-0.5, 3.9, 1, 2],
    ]

    def test_mixed_input_types_match_the_point_loop(self):
        expected = [oracle_validate_clifford_point(p, 4) for p in self.MIXED]
        got = validate_clifford_points(self.MIXED, 4)
        assert got == expected
        assert all(type(v) is int for point in got for v in point)
        for point, want in zip(self.MIXED, expected):
            assert validate_clifford_point(point, 4) == want
        assert validate_clifford_points(np.array(expected), 4) == expected
        assert validate_clifford_points([], 4) == []
        assert validate_clifford_points([iter([3, 2, 1, 0])], 4) == [(3, 2, 1, 0)]
        assert validate_clifford_point(["1", "2", 3, 0], 4) == (1, 2, 3, 0)

    @pytest.mark.parametrize(
        "points",
        [
            [[0, 1, 2]],
            [[0, 1, 2, 3], [0, 1, 2, 3, 0]],
            [[0, 1, 2, 3], [0, 1, 2], [9, 9, 9, 9]],
            [[0, 1], [0, 1, 2, 3]],
        ],
    )
    def test_wrong_length_names_the_first_bad_point(self, points):
        with pytest.raises(CircuitError) as caught:
            validate_clifford_points(points, 4)
        assert str(caught.value) == _oracle_error(points, 4, 4)
        assert str(caught.value).startswith("expected 4 Clifford indices")

    @pytest.mark.parametrize("cardinality", [4, 8])
    @pytest.mark.parametrize(
        "bad",
        [-1, 8, 4, np.int64(9), np.int64(-2), 8.0, np.float64(4.5), 2**70, -1.5],
    )
    def test_out_of_range_names_the_first_bad_index(self, cardinality, bad):
        # 100 is out of range on both grids, so an in-range ``bad`` (4 on the
        # pi/4 grid) leaves the error at the second point's last index.
        points = [[0, 1, 2, 3], [1, bad, 0, 100], [bad, 0, 0, 0]]
        with pytest.raises(CircuitError) as caught:
            validate_clifford_points(points, 4, cardinality)
        assert str(caught.value) == _oracle_error(points, 4, cardinality)
        assert f"must be in 0..{cardinality - 1}" in str(caught.value)
        with pytest.raises(CircuitError) as single:
            validate_clifford_point(points[1], 4, cardinality)
        assert str(single.value) == str(caught.value)

    def test_pi4_grid_accepts_indices_up_to_seven(self):
        points = [[7, 6, 5, 4], [np.int64(7), 7.0, 0, 1]]
        assert validate_clifford_points(points, 4, 8) == [(7, 6, 5, 4), (7, 7, 0, 1)]
        with pytest.raises(CircuitError, match="must be in 0..3"):
            validate_clifford_points(points, 4)


class TestProgramPerShape:
    """``from_ansatz`` compiles once per shape, and never shares across shapes."""

    def test_one_program_per_shape(self):
        first = CliffordGateProgram.from_ansatz(EfficientSU2Ansatz(5, reps=2))
        again = CliffordGateProgram.from_ansatz(EfficientSU2Ansatz(5, reps=2))
        assert again is first
        assert first.fingerprint == CliffordGateProgram.compile(
            EfficientSU2Ansatz(5, reps=2).circuit
        ).fingerprint

    @pytest.mark.parametrize(
        "options",
        [
            {"reps": 2},
            {"rotation_blocks": ("ry",)},
            {"rotation_blocks": ("rz", "ry")},
            {"entanglement": "circular"},
            {"entanglement": "full"},
        ],
    )
    def test_other_shapes_get_their_own_program(self, options):
        base = CliffordGateProgram.from_ansatz(EfficientSU2Ansatz(4, reps=1))
        other_ansatz = EfficientSU2Ansatz(4, **{"reps": 1, **options})
        other = CliffordGateProgram.from_ansatz(other_ansatz)
        assert other is not base
        assert other.ops == CliffordGateProgram.compile(other_ansatz.circuit).ops
        assert other.fingerprint != base.fingerprint

    def test_ansatz_subclasses_never_share_a_program(self):
        class ReversedLadder(EfficientSU2Ansatz):
            def _build(self):
                circuit = QuantumCircuit(self.num_qubits)
                for index, parameter in enumerate(self._parameters):
                    circuit.ry(parameter, index % self.num_qubits)
                for qubit in reversed(range(self.num_qubits - 1)):
                    circuit.cx(qubit + 1, qubit)
                return circuit

        plain = CliffordGateProgram.from_ansatz(EfficientSU2Ansatz(3, reps=1))
        custom_ansatz = ReversedLadder(3, reps=1)
        custom = CliffordGateProgram.from_ansatz(custom_ansatz)
        assert custom is not plain
        assert custom.ops == CliffordGateProgram.compile(custom_ansatz.circuit).ops
        assert CliffordGateProgram.from_ansatz(ReversedLadder(3, reps=1)) is custom

    def test_memo_is_bounded(self, monkeypatch):
        from repro.circuits import clifford_points

        monkeypatch.setattr(clifford_points, "_PROGRAMS", {})
        first = CliffordGateProgram.from_ansatz(EfficientSU2Ansatz(1, reps=0))
        for qubits in range(2, clifford_points._MAX_SHAPES + 2):
            CliffordGateProgram.from_ansatz(EfficientSU2Ansatz(qubits, reps=0))
        assert len(clifford_points._PROGRAMS) == clifford_points._MAX_SHAPES
        assert CliffordGateProgram.from_ansatz(EfficientSU2Ansatz(1, reps=0)) is not first

    def test_segment_columns_are_read_only(self):
        program = CliffordGateProgram.from_ansatz(EfficientSU2Ansatz(4, reps=1))
        rotation = next(s for s in program.segments if s.kind == "rotation")
        with pytest.raises(ValueError):
            rotation.columns[0] = 7
