"""Parameterized circuit IR, gate library, and hardware-efficient ansatz."""

from repro.circuits.ansatz import EfficientSU2Ansatz, entangling_pairs
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.clifford_points import (
    CLIFFORD_ANGLES,
    CliffordGateProgram,
    ProgramOp,
    bind_clifford_point,
    hartree_fock_clifford_point,
    indices_to_angles,
    validate_clifford_point,
)
from repro.circuits.gates import (
    CLIFFORD_GATES,
    NON_CLIFFORD_GATES,
    ROTATION_GATES,
    Gate,
    angle_from_clifford_index,
    clifford_index_from_angle,
    is_clifford_angle,
    rotation_matrix,
)
from repro.circuits.parameters import Parameter, ParameterVector, bind_parameters

__all__ = [
    "QuantumCircuit",
    "Gate",
    "Parameter",
    "ParameterVector",
    "bind_parameters",
    "EfficientSU2Ansatz",
    "entangling_pairs",
    "CLIFFORD_GATES",
    "NON_CLIFFORD_GATES",
    "ROTATION_GATES",
    "rotation_matrix",
    "is_clifford_angle",
    "clifford_index_from_angle",
    "angle_from_clifford_index",
    "CLIFFORD_ANGLES",
    "indices_to_angles",
    "bind_clifford_point",
    "validate_clifford_point",
    "CliffordGateProgram",
    "ProgramOp",
    "hartree_fock_clifford_point",
]
