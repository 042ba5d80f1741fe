"""Weighted sums of Pauli strings (qubit Hamiltonians)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping

import numpy as np

from repro.exceptions import OperatorError, SimulationError
from repro.operators.pauli import Pauli

# Large enough to absorb the ~1e-16 imaginary dust left by fermionic
# mappings, small enough to catch a genuinely non-Hermitian operator.
HERMITICITY_TOLERANCE = 1e-9

_PAULI_CHARS = frozenset("IXYZ")


@dataclass(frozen=True)
class PauliTerm:
    """A single ``coefficient * Pauli`` term of a :class:`PauliSum`."""

    pauli: Pauli
    coefficient: complex

    @property
    def label(self) -> str:
        return self.pauli.label

    def __repr__(self) -> str:
        return f"PauliTerm({self.coefficient:+.6g} * {self.pauli.label})"


class PauliSum:
    """A linear combination of Pauli strings, ``H = sum_k c_k P_k``.

    Terms with identical Pauli labels are merged and terms whose coefficient
    magnitude falls below ``tolerance`` are dropped.  Instances are immutable
    from the caller's point of view; all algebra returns new objects.
    """

    def __init__(
        self,
        terms: Mapping[str, complex] | Iterable[tuple[str, complex]] | None = None,
        num_qubits: int | None = None,
        tolerance: float = 1e-12,
    ):
        self._tolerance = float(tolerance)
        items: list[tuple[str, complex]]
        if terms is None:
            items = []
        elif isinstance(terms, Mapping):
            items = list(terms.items())
        else:
            items = list(terms)

        merged: Dict[str, complex] = {}
        inferred: int | None = num_qubits
        for label, coefficient in items:
            label = label.strip().upper()
            if inferred is None:
                inferred = len(label)
            elif len(label) != inferred:
                raise OperatorError(
                    f"term {label!r} has {len(label)} qubits, expected {inferred}"
                )
            if not _PAULI_CHARS.issuperset(label):
                raise OperatorError(f"invalid Pauli label {label!r}")
            merged[label] = merged.get(label, 0.0) + complex(coefficient)

        if inferred is None:
            raise OperatorError("PauliSum needs at least one term or num_qubits")
        self._num_qubits = int(inferred)
        self._terms: Dict[str, complex] = {
            label: coefficient
            for label, coefficient in merged.items()
            if abs(coefficient) > self._tolerance
        }
        # ``_terms`` is never reassigned: ``hamiltonian_fingerprint`` keeps its digest here.
        self._fingerprint: str | None = None

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def zero(cls, num_qubits: int) -> "PauliSum":
        return cls({}, num_qubits=num_qubits)

    @classmethod
    def identity(cls, num_qubits: int, coefficient: complex = 1.0) -> "PauliSum":
        return cls({"I" * num_qubits: coefficient})

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def num_terms(self) -> int:
        return len(self._terms)

    @property
    def labels(self) -> list[str]:
        return sorted(self._terms)

    def coefficient(self, label: str) -> complex:
        """Coefficient of ``label`` (0 if the term is absent)."""
        return self._terms.get(label.strip().upper(), 0.0)

    def terms(self) -> Iterator[PauliTerm]:
        """Iterate over terms in sorted label order."""
        for label in sorted(self._terms):
            yield PauliTerm(Pauli(label), self._terms[label])

    def to_dict(self) -> Dict[str, complex]:
        return dict(self._terms)

    def is_hermitian(self, tolerance: float = HERMITICITY_TOLERANCE) -> bool:
        """True if all coefficients are (numerically) real."""
        return all(abs(c.imag) <= tolerance for c in self._terms.values())

    def real_coefficients(self) -> np.ndarray:
        """The coefficients in label order as real floats, for expectation values.

        The one Hermiticity rule every simulator backend applies: an
        imaginary part above :data:`HERMITICITY_TOLERANCE` raises
        :class:`~repro.exceptions.SimulationError`, since the expectation of
        a non-Hermitian operator is not a real energy.
        """
        labels = self.labels
        coefficients = np.array([self._terms[label] for label in labels], dtype=complex)
        if coefficients.size:
            worst = int(np.argmax(np.abs(coefficients.imag)))
            if abs(coefficients.imag[worst]) > HERMITICITY_TOLERANCE:
                raise SimulationError(
                    "expectation values require a Hermitian operator, but term "
                    f"{labels[worst]!r} has non-real coefficient "
                    f"{complex(coefficients[worst])!r}"
                )
        return np.ascontiguousarray(coefficients.real, dtype=float)

    def diagonal_part(self) -> "PauliSum":
        """The sub-sum containing only I/Z (computational-basis) terms."""
        terms = {
            label: coefficient
            for label, coefficient in self._terms.items()
            if set(label) <= {"I", "Z"}
        }
        return PauliSum(terms, num_qubits=self._num_qubits)

    def offdiagonal_part(self) -> "PauliSum":
        """The sub-sum containing terms with at least one X or Y factor."""
        terms = {
            label: coefficient
            for label, coefficient in self._terms.items()
            if not set(label) <= {"I", "Z"}
        }
        return PauliSum(terms, num_qubits=self._num_qubits)

    # ------------------------------------------------------------------ #
    # algebra
    # ------------------------------------------------------------------ #
    def __add__(self, other: "PauliSum | complex | float") -> "PauliSum":
        if isinstance(other, (int, float, complex)):
            other = PauliSum.identity(self._num_qubits, other)
        if not isinstance(other, PauliSum):
            return NotImplemented
        if other._num_qubits != self._num_qubits:
            raise OperatorError("cannot add PauliSums on different qubit counts")
        combined = dict(self._terms)
        for label, coefficient in other._terms.items():
            combined[label] = combined.get(label, 0.0) + coefficient
        return PauliSum(combined, num_qubits=self._num_qubits)

    def __radd__(self, other: "complex | float") -> "PauliSum":
        return self.__add__(other)

    def __sub__(self, other: "PauliSum | complex | float") -> "PauliSum":
        return self + (other * -1 if isinstance(other, PauliSum) else -other)

    def __mul__(self, scalar: complex | float) -> "PauliSum":
        if not isinstance(scalar, (int, float, complex)):
            return NotImplemented
        return PauliSum(
            {label: coefficient * scalar for label, coefficient in self._terms.items()},
            num_qubits=self._num_qubits,
        )

    def __rmul__(self, scalar: complex | float) -> "PauliSum":
        return self.__mul__(scalar)

    def __matmul__(self, other: "PauliSum") -> "PauliSum":
        """Operator product of two Pauli sums."""
        if not isinstance(other, PauliSum):
            return NotImplemented
        if other._num_qubits != self._num_qubits:
            raise OperatorError("cannot multiply PauliSums on different qubit counts")
        product: Dict[str, complex] = {}
        for label_a, coeff_a in self._terms.items():
            pauli_a = Pauli(label_a)
            for label_b, coeff_b in other._terms.items():
                composed = pauli_a @ Pauli(label_b)
                coefficient = coeff_a * coeff_b * _residual_phase(composed)
                product[composed.label] = product.get(composed.label, 0.0) + coefficient
        return PauliSum(product, num_qubits=self._num_qubits)

    def simplify(self, tolerance: float | None = None) -> "PauliSum":
        """Drop terms whose coefficient magnitude is below ``tolerance``."""
        tolerance = self._tolerance if tolerance is None else tolerance
        return PauliSum(
            {l: c for l, c in self._terms.items() if abs(c) > tolerance},
            num_qubits=self._num_qubits,
        )

    # ------------------------------------------------------------------ #
    # matrix representations
    # ------------------------------------------------------------------ #
    def to_matrix(self) -> np.ndarray:
        """Dense matrix of the operator (2^n x 2^n), from the sparse builder."""
        return self.to_sparse_matrix().toarray()

    def to_sparse_matrix(self):
        """Sparse CSR matrix of the operator (imported lazily from scipy).

        A term ``c * P`` with X mask ``x`` and Z mask ``z`` (Y sets both bits;
        ``label[0]`` is the most significant bit) maps basis state ``b`` to
        ``b ^ x`` with amplitude ``c * i**(#Y) * (-1)**popcount(b & z)``.
        Terms sharing an X mask fill the same positions, so each X mask adds
        one diagonal-times-bit-flip block with one entry per column.
        """
        from scipy.sparse import coo_matrix, csr_matrix

        dim = 2**self._num_qubits
        columns = np.arange(dim, dtype=np.int64)
        blocks: Dict[int, np.ndarray] = {}
        for label, coefficient in self._terms.items():
            x_mask = int(label.translate(_X_BITS), 2)
            amplitude = coefficient * _Y_PHASES[label.count("Y") % 4]
            signs = 1 - 2 * _bit_parity(columns & int(label.translate(_Z_BITS), 2))
            blocks[x_mask] = blocks.get(x_mask, 0.0) + amplitude * signs
        if not blocks:
            return csr_matrix((dim, dim), dtype=complex)
        rows = np.concatenate([columns ^ x_mask for x_mask in blocks])
        data = np.concatenate(list(blocks.values()))
        return coo_matrix(
            (data, (rows, np.tile(columns, len(blocks)))), shape=(dim, dim)
        ).tocsr()

    # ------------------------------------------------------------------ #
    # dunder methods
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[PauliTerm]:
        return self.terms()

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliSum):
            return NotImplemented
        if self._num_qubits != other._num_qubits:
            return False
        labels = set(self._terms) | set(other._terms)
        return all(
            abs(self._terms.get(l, 0.0) - other._terms.get(l, 0.0)) < 1e-9
            for l in labels
        )

    def __repr__(self) -> str:
        preview = ", ".join(
            f"{c:+.4g}*{l}" for l, c in list(sorted(self._terms.items()))[:4]
        )
        suffix = ", ..." if len(self._terms) > 4 else ""
        return f"PauliSum({self._num_qubits} qubits, {len(self._terms)} terms: {preview}{suffix})"


_X_BITS = str.maketrans("IXYZ", "0110")
_Z_BITS = str.maketrans("IXYZ", "0011")
_Y_PHASES = (1, 1j, -1, -1j)


def _bit_parity(values: np.ndarray) -> np.ndarray:
    """``popcount(v) % 2`` of non-negative int64 values (no ``np.bitwise_count``)."""
    for shift in (32, 16, 8, 4, 2, 1):
        values = values ^ (values >> shift)
    return values & 1


def _residual_phase(pauli: Pauli) -> complex:
    """Phase of ``pauli`` relative to its plain (phase-free) label."""
    import numpy as _np

    residual = (pauli.phase_exponent + int(_np.sum(pauli.x & pauli.z))) % 4
    return (1, -1j, -1, 1j)[residual]
