"""Noise models attaching channels to gates, plus readout error.

The paper compares against two IBMQ backends (Casablanca and Manhattan)
simulated with their calibrated noise models.  Those calibration files are
not redistributable, so :mod:`repro.noise.devices` provides synthetic presets
with error rates in the same range; this module provides the generic noise
model machinery they are built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.circuits.gates import Gate
from repro.exceptions import NoiseModelError
from repro.noise.channels import (
    amplitude_damping_kraus,
    depolarizing_kraus,
    is_trace_preserving,
)
from repro.operators.pauli import Pauli


@dataclass
class ReadoutError:
    """Symmetric-per-qubit readout (assignment) error.

    ``probability_1_given_0`` is P(read 1 | prepared 0) and vice versa.
    """

    probability_1_given_0: float = 0.0
    probability_0_given_1: float = 0.0

    def __post_init__(self):
        for value in (self.probability_1_given_0, self.probability_0_given_1):
            if not 0.0 <= value <= 0.5:
                raise NoiseModelError(f"readout error probability {value} outside [0, 0.5]")

    @property
    def assignment_matrix(self) -> np.ndarray:
        """2x2 column-stochastic matrix mapping true to observed probabilities."""
        p10, p01 = self.probability_1_given_0, self.probability_0_given_1
        return np.array([[1 - p10, p01], [p10, 1 - p01]])

    @property
    def is_trivial(self) -> bool:
        return self.probability_1_given_0 == 0.0 and self.probability_0_given_1 == 0.0

    def damping_factor(self) -> float:
        """Factor by which a single-qubit Z expectation is scaled by this error."""
        return 1.0 - self.probability_1_given_0 - self.probability_0_given_1


@dataclass
class NoiseModel:
    """Depolarizing + amplitude-damping noise attached per gate category.

    Parameters mirror the coarse per-device averages published in IBMQ
    calibration data: a one-qubit gate error, a two-qubit gate error, an
    amplitude damping rate per gate, and a readout error.
    """

    name: str = "custom"
    single_qubit_error: float = 0.0
    two_qubit_error: float = 0.0
    amplitude_damping: float = 0.0
    readout: ReadoutError = field(default_factory=ReadoutError)

    def __post_init__(self):
        for value in (self.single_qubit_error, self.two_qubit_error, self.amplitude_damping):
            if not 0.0 <= value <= 1.0:
                raise NoiseModelError(f"error rate {value} outside [0, 1]")

    # ------------------------------------------------------------------ #
    @property
    def has_readout_error(self) -> bool:
        return not self.readout.is_trivial

    def channels_for_gate(
        self, gate: Gate
    ) -> List[Tuple[List[np.ndarray], Sequence[int]]]:
        """Kraus channels (with their target qubits) applied after ``gate``."""
        channels: List[Tuple[List[np.ndarray], Sequence[int]]] = []
        if gate.num_qubits == 1:
            if self.single_qubit_error > 0:
                channels.append((depolarizing_kraus(self.single_qubit_error, 1), gate.qubits))
            if self.amplitude_damping > 0:
                channels.append((amplitude_damping_kraus(self.amplitude_damping), gate.qubits))
        else:
            if self.two_qubit_error > 0:
                channels.append((depolarizing_kraus(self.two_qubit_error, 2), gate.qubits))
            if self.amplitude_damping > 0:
                for qubit in gate.qubits:
                    channels.append(
                        (amplitude_damping_kraus(self.amplitude_damping), (qubit,))
                    )
        return channels

    def apply_readout_error(
        self, probabilities: np.ndarray, num_qubits: int
    ) -> np.ndarray:
        """Apply the per-qubit assignment matrix to a probability vector."""
        if self.readout.is_trivial:
            return probabilities
        matrix = self.readout.assignment_matrix
        tensor = probabilities.reshape([2] * num_qubits)
        for axis in range(num_qubits):
            tensor = np.moveaxis(
                np.tensordot(matrix, np.moveaxis(tensor, axis, 0), axes=(1, 0)), 0, axis
            )
        return tensor.reshape(-1)

    def readout_damping(self, pauli: Pauli) -> float:
        """Damping factor applied to a Pauli expectation by readout error.

        Each non-identity factor measured through the noisy readout has its
        +/-1 outcome flipped with the assignment error probabilities, scaling
        the expectation by ``(1 - p01 - p10)`` per measured qubit.
        """
        if self.readout.is_trivial:
            return 1.0
        factor = self.readout.damping_factor()
        return factor**pauli.weight

    def validate(self) -> None:
        """Sanity-check that all generated channels are trace preserving."""
        probe_single = Gate("x", (0,))
        probe_double = Gate("cx", (0, 1))
        for gate in (probe_single, probe_double):
            for kraus_ops, _ in self.channels_for_gate(gate):
                if not is_trace_preserving(kraus_ops):
                    raise NoiseModelError(f"noise model {self.name!r} is not trace preserving")

    def __repr__(self) -> str:
        return (
            f"NoiseModel({self.name!r}, 1q={self.single_qubit_error:.2e}, "
            f"2q={self.two_qubit_error:.2e}, damping={self.amplitude_damping:.2e}, "
            f"readout={self.readout.probability_1_given_0:.2e}/"
            f"{self.readout.probability_0_given_1:.2e})"
        )


def ideal_noise_model() -> NoiseModel:
    """A noise model with every error rate set to zero."""
    return NoiseModel(name="ideal")
