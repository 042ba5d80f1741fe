"""Molecular integrals over contracted Cartesian Gaussians.

Implements the McMurchie–Davidson scheme: Gaussian product overlap
distributions are expanded in Hermite Gaussians via the ``E`` recurrence, and
Coulomb integrals use the Hermite Coulomb integrals ``R`` built on the Boys
function.  This covers overlap, kinetic, nuclear attraction, and two-electron
repulsion integrals for arbitrary angular momentum (only s and p shells are
exercised by the STO-3G basis shipped with this package).

The coefficients are tabulated, not recursed: ``E^{ij}_t`` once per primitive
pair and axis, ``R^n_{tuv}`` once per primitive quartet, each stored as an
array over primitives, and the two-electron integrals of every quartet of
one shape are contracted together.  The results are bit-identical to the
textbook scalar recursion (kept as the test oracle in
``tests/recursive_integrals.py``) because

* every table entry is computed with the recursion's own expression, operand
  for operand, and out-of-range entries are ``0.0`` exactly as the recursion
  returns them;
* sums run strictly left to right in the recursion's loop order (never
  ``np.sum``, ``einsum`` or ``@``, which reassociate); adding the zero terms
  the scalar loops skip changes nothing, since a sum started at ``+0.0``
  never becomes ``-0.0``;
* ``exp`` and ``pow`` are evaluated one element at a time, as scalars: the
  vectorised numpy kernels may round differently in the last bit.

References: McMurchie & Davidson, J. Comput. Phys. 26, 218 (1978);
Helgaker, Jorgensen & Olsen, "Molecular Electronic-Structure Theory".
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.special import gammainc, gamma

from repro.chemistry.basis.sto3g import BasisFunction


# --------------------------------------------------------------------------- #
# elementwise helpers
# --------------------------------------------------------------------------- #
def _scalar_pow(values: np.ndarray, exponent: float) -> np.ndarray:
    """``values ** exponent`` evaluated element by element with scalar ``pow``.

    Each distinct value is raised once (primitives share exponents, so the
    batches repeat values); ``values`` must not contain zeros, whose sign
    ``np.unique`` does not keep.
    """
    distinct, inverse = np.unique(values, return_inverse=True)
    powered = np.array([value**exponent for value in distinct.tolist()], dtype=float)
    return powered[inverse].reshape(values.shape)


def _scalar_exp(values: np.ndarray) -> np.ndarray:
    """``np.exp`` evaluated element by element on scalars."""
    flat = [float(np.exp(value)) for value in values.ravel().tolist()]
    return np.array(flat, dtype=float).reshape(values.shape)


def _ordered_sum(terms: np.ndarray) -> np.ndarray:
    """``0.0 + terms[..., 0] + terms[..., 1] + ...``, added strictly in order."""
    start = np.zeros(terms.shape[:-1] + (1,))
    return np.add.accumulate(np.concatenate([start, terms], axis=-1), axis=-1)[..., -1]


# --------------------------------------------------------------------------- #
# Boys function
# --------------------------------------------------------------------------- #
def _boys(order: int, arguments: np.ndarray) -> np.ndarray:
    """The Boys function F_n(x) of every element of ``arguments``."""
    values = np.full(arguments.shape, 1.0 / (2.0 * order + 1.0))
    large = ~(arguments < 1e-12)
    if large.any():
        x = arguments[large]
        half = order + 0.5
        values[large] = gamma(half) * gammainc(half, x) / (2.0 * _scalar_pow(x, half))
    return values


def boys_function(order: int, argument: float) -> float:
    """The Boys function F_n(x) used by Gaussian Coulomb integrals."""
    return float(_boys(order, np.array([float(argument)]))[0])


# --------------------------------------------------------------------------- #
# Hermite tables
# --------------------------------------------------------------------------- #
def _hermite_table(
    i_max: int, j_max: int, distance: float, alpha: np.ndarray, beta: np.ndarray
) -> np.ndarray:
    """Hermite expansion coefficients E_t^{ij} of 1-D Gaussian products.

    ``table[i, j, t + 1]`` is E_t^{ij} for i <= i_max, j <= j_max, as an array
    over the primitive pairs with exponents ``alpha`` and ``beta``; ``distance``
    is (A - B) along the axis.  Slots for t < 0 and t > i + j hold 0.0.  The
    table is filled bottom-up with the recurrence (decrement i while j == 0,
    otherwise decrement j).
    """
    p = alpha + beta
    q = alpha * beta / p
    table = np.zeros((i_max + 1, j_max + 1, i_max + j_max + 3, alpha.size))
    table[0, 0, 1] = _scalar_exp(-q * distance * distance)
    two_p = 2.0 * p
    step_i = q * distance / alpha
    step_j = q * distance / beta
    for i in range(i_max + 1):
        for j in range(j_max + 1):
            top = i + j + 1
            raise_t = np.arange(1, top + 1, dtype=float)[:, None]
            if j:
                prev = table[i, j - 1]
                table[i, j, 1 : top + 1] = (
                    prev[:top] / two_p + step_j * prev[1 : top + 1] + raise_t * prev[2 : top + 2]
                )
            elif i:
                prev = table[i - 1, 0]
                table[i, 0, 1 : top + 1] = (
                    prev[:top] / two_p - step_i * prev[1 : top + 1] + raise_t * prev[2 : top + 2]
                )
    return table


def _coulomb_table(alpha: np.ndarray, displacement: np.ndarray):
    """Hermite Coulomb integrals R^0_{tuv} over a batch of Gaussian products.

    ``alpha`` has the shape of ``displacement[..., 0]``.  Returns a function
    of (t, u, v); every R^n_{tuv} of the auxiliary recursion is computed once
    and memoised.
    """
    x, y, z = displacement[..., 0], displacement[..., 1], displacement[..., 2]
    argument = alpha * (x * x + y * y + z * z)
    minus_two_alpha = -2.0 * alpha
    memo: Dict[Tuple[int, int, int, int], np.ndarray] = {}

    def coulomb(t: int, u: int, v: int, n: int):
        if t < 0 or u < 0 or v < 0:
            return 0.0
        key = (t, u, v, n)
        if key not in memo:
            if t > 0:
                value = (t - 1) * coulomb(t - 2, u, v, n + 1) + x * coulomb(t - 1, u, v, n + 1)
            elif u > 0:
                value = (u - 1) * coulomb(t, u - 2, v, n + 1) + y * coulomb(t, u - 1, v, n + 1)
            elif v > 0:
                value = (v - 1) * coulomb(t, u, v - 2, n + 1) + z * coulomb(t, u, v - 1, n + 1)
            elif n:
                value = _scalar_pow(minus_two_alpha, n) * _boys(n, argument)
            else:
                # (-2 alpha) ** 0 is exactly 1.0, and 1.0 * F_0 is exactly F_0.
                value = _boys(0, argument)
            memo[key] = value
        return memo[key]

    return lambda t, u, v: coulomb(t, u, v, 0)


# --------------------------------------------------------------------------- #
# normalization and contraction
# --------------------------------------------------------------------------- #
def _double_factorial(value: int) -> int:
    result = 1
    while value > 1:
        result *= value
        value -= 2
    return result


def primitive_normalization(alpha: float, angular: Sequence[int]) -> float:
    """Normalization constant of a primitive Cartesian Gaussian."""
    l, m, n = angular
    total = l + m + n
    numerator = (2.0 * alpha / np.pi) ** 0.75 * (4.0 * alpha) ** (total / 2.0)
    denominator = np.sqrt(
        _double_factorial(2 * l - 1)
        * _double_factorial(2 * m - 1)
        * _double_factorial(2 * n - 1)
    )
    return float(numerator / denominator)


class _PreparedFunction:
    """A basis function with primitive norms and contracted renormalization baked in."""

    __slots__ = ("center", "angular", "exponents", "weights")

    def __init__(self, function: BasisFunction):
        self.center = np.asarray(function.center, dtype=float)
        self.angular = tuple(int(v) for v in function.angular)
        self.exponents = np.asarray(function.exponents, dtype=float)
        norms = np.array(
            [primitive_normalization(alpha, self.angular) for alpha in self.exponents]
        )
        self.weights = np.asarray(function.coefficients, dtype=float) * norms
        # Renormalize the contracted function so <phi|phi> = 1.
        pair = _Pair(self, self)
        self.weights = self.weights / np.sqrt(_ordered_sum(pair.weights * pair.overlap()))


class _Pair:
    """Primitive-pair data of an ordered pair of contracted functions (a, b).

    Arrays run over primitive pairs in contraction-loop order: a's primitives
    outer, b's inner.  ``hermite[axis]`` is the :func:`_hermite_table` of the
    axis with j two past b's power, for the kinetic integral's <a|b+2>.
    """

    __slots__ = (
        "angular_a", "angular_b", "beta", "p", "center", "weights", "weights_a",
        "weights_b", "hermite", "shape", "_overlap_prefactor",
    )

    def __init__(self, fa: _PreparedFunction, fb: _PreparedFunction):
        count_a, count_b = fa.exponents.size, fb.exponents.size
        alpha = np.repeat(fa.exponents, count_b)
        self.beta = np.tile(fb.exponents, count_a)
        self.p = alpha + self.beta
        self.center = (
            alpha[:, None] * fa.center + self.beta[:, None] * fb.center
        ) / self.p[:, None]
        self.weights_a = np.repeat(fa.weights, count_b)
        self.weights_b = np.tile(fb.weights, count_a)
        self.weights = self.weights_a * self.weights_b
        self.angular_a, self.angular_b = fa.angular, fb.angular
        self.hermite = [
            _hermite_table(
                fa.angular[axis], fb.angular[axis] + 2,
                fa.center[axis] - fb.center[axis], alpha, self.beta,
            )
            for axis in range(3)
        ]
        # Pairs of one shape contract their two-electron integrals together.
        self.shape = tuple(a + b for a, b in zip(fa.angular, fb.angular)) + (self.p.size,)
        self._overlap_prefactor = _scalar_pow(np.pi / self.p, 1.5)

    def hermite_row(self, axis: int) -> np.ndarray:
        """E_t^{ab} along ``axis`` for t = 0..(a + b), shape (a + b + 1, pairs)."""
        i, j = self.angular_a[axis], self.angular_b[axis]
        return self.hermite[axis][i, j, 1 : i + j + 2]

    def overlap(self, shift: Sequence[int] = (0, 0, 0)):
        """Primitive overlaps <a|b'>, b' being b with its powers raised by ``shift``."""
        powers = [power + step for power, step in zip(self.angular_b, shift)]
        if min(powers) < 0:
            return 0.0
        value = self._overlap_prefactor
        for axis in range(3):
            value = value * self.hermite[axis][self.angular_a[axis], powers[axis], 1]
        return value

    def kinetic(self) -> np.ndarray:
        """Primitive kinetic integrals via the standard expansion in shifted overlaps."""
        l_b, m_b, n_b = self.angular_b
        term_0 = self.beta * (2 * (l_b + m_b + n_b) + 3) * self.overlap((0, 0, 0))
        term_plus = (
            -2.0
            * _scalar_pow(self.beta, 2)
            * (self.overlap((2, 0, 0)) + self.overlap((0, 2, 0)) + self.overlap((0, 0, 2)))
        )
        term_minus = -0.5 * (
            l_b * (l_b - 1) * self.overlap((-2, 0, 0))
            + m_b * (m_b - 1) * self.overlap((0, -2, 0))
            + n_b * (n_b - 1) * self.overlap((0, 0, -2))
        )
        return term_0 + term_plus + term_minus

    def nuclear(self, nuclei: np.ndarray) -> np.ndarray:
        """Primitive attractions to unit charges at ``nuclei``, shape (nuclei, pairs)."""
        displacement = self.center[None, :, :] - nuclei[:, None, :]
        coulomb = _coulomb_table(
            np.broadcast_to(self.p, displacement.shape[:-1]), displacement
        )
        rows = [self.hermite_row(axis) for axis in range(3)]
        total = 0.0
        for t, u, v in product(*(_nonzero(row) for row in rows)):
            total = total + rows[0][t] * rows[1][u] * rows[2][v] * coulomb(t, u, v)
        return 2.0 * np.pi / self.p * total


def _nonzero(rows: np.ndarray) -> List[int]:
    """Indices t whose coefficients ``rows[t]`` are not all 0.0.

    A coefficient that is 0.0 for every primitive contributes only zero terms,
    so its loop iteration is skipped, as the scalar recursion skips it.
    """
    return [t for t in range(len(rows)) if rows[t].any()]


def _eri_batch(bra: Sequence[_Pair], ket: Sequence[_Pair]) -> np.ndarray:
    """Contracted (ab|cd) of quartets (bra[k], ket[k]).

    All bra pairs share one :attr:`_Pair.shape`, all ket pairs another.
    """
    p = np.stack([pair.p for pair in bra])[:, :, None]
    q = np.stack([pair.p for pair in ket])[:, None, :]
    displacement = (
        np.stack([pair.center for pair in bra])[:, :, None, :]
        - np.stack([pair.center for pair in ket])[:, None, :, :]
    )
    coulomb = _coulomb_table(p * q / (p + q), displacement)
    # (t, quartets, bra primitives, 1) and (t, quartets, 1, ket primitives)
    bra_rows = [
        np.stack([pair.hermite_row(axis) for pair in bra], 1)[..., None] for axis in range(3)
    ]
    ket_rows = [
        np.stack([pair.hermite_row(axis) for pair in ket], 1)[:, :, None] for axis in range(3)
    ]
    ket_index = list(product(*(_nonzero(rows) for rows in ket_rows)))

    total = 0.0
    for t, u, v in product(*(_nonzero(rows) for rows in bra_rows)):
        e1 = bra_rows[0][t] * bra_rows[1][u] * bra_rows[2][v]
        for tau, nu, phi in ket_index:
            parity = (-1) ** (tau + nu + phi)
            total = total + (
                e1 * ket_rows[0][tau] * ket_rows[1][nu] * ket_rows[2][phi]
                * parity * coulomb(t + tau, u + nu, v + phi)
            )
    prefactor = 2.0 * np.pi**2.5 / (p * q * np.sqrt(p + q))
    weights = (
        np.stack([pair.weights for pair in bra])[:, :, None]
        * np.stack([pair.weights_a for pair in ket])[:, None, :]
        * np.stack([pair.weights_b for pair in ket])[:, None, :]
    )
    terms = weights * (prefactor * total)
    return _ordered_sum(terms.reshape(len(bra), -1))


class IntegralEngine:
    """Computes AO-basis integral matrices for a list of basis functions."""

    def __init__(self, basis: Sequence[BasisFunction]):
        if not basis:
            raise ValueError("the basis set is empty")
        self._functions: List[_PreparedFunction] = [_PreparedFunction(f) for f in basis]
        self._pairs: Dict[Tuple[int, int], _Pair] = {}

    @property
    def num_basis_functions(self) -> int:
        return len(self._functions)

    # ------------------------------------------------------------------ #
    def overlap_matrix(self) -> np.ndarray:
        return self._one_body(lambda pair: _ordered_sum(pair.weights * pair.overlap()))

    def kinetic_matrix(self) -> np.ndarray:
        return self._one_body(lambda pair: _ordered_sum(pair.weights * pair.kinetic()))

    def nuclear_attraction_matrix(
        self, nuclear_charges: Sequence[int], nuclear_positions: np.ndarray
    ) -> np.ndarray:
        nuclei = np.asarray(nuclear_positions, dtype=float).reshape(-1, 3)

        def attraction(pair: _Pair) -> float:
            value = 0.0
            partials = _ordered_sum(pair.weights * pair.nuclear(nuclei))
            for charge, partial in zip(nuclear_charges, partials.tolist()):
                value -= charge * partial
            return value

        return self._one_body(attraction)

    def core_hamiltonian(
        self, nuclear_charges: Sequence[int], nuclear_positions: np.ndarray
    ) -> np.ndarray:
        return self.kinetic_matrix() + self.nuclear_attraction_matrix(
            nuclear_charges, nuclear_positions
        )

    def electron_repulsion_tensor(self) -> np.ndarray:
        """Chemist-notation two-electron integrals (ab|cd), using 8-fold symmetry."""
        size = len(self._functions)
        eri = np.zeros((size, size, size, size))
        pair_indices = [(a, b) for a in range(size) for b in range(a + 1)]
        pairs = [self._pair(a, b) for a, b in pair_indices]
        batches: Dict[tuple, List[Tuple[int, int]]] = {}
        for pair_ab_index, pair_ab in enumerate(pairs):
            for pair_cd_index in range(pair_ab_index + 1):
                key = (pair_ab.shape, pairs[pair_cd_index].shape)
                batches.setdefault(key, []).append((pair_ab_index, pair_cd_index))
        for quartets in batches.values():
            values = _eri_batch(
                [pairs[ab] for ab, _ in quartets], [pairs[cd] for _, cd in quartets]
            )
            a, b = np.array([pair_indices[ab] for ab, _ in quartets]).T
            c, d = np.array([pair_indices[cd] for _, cd in quartets]).T
            for i, j, k, l in (
                (a, b, c, d), (b, a, c, d), (a, b, d, c), (b, a, d, c),
                (c, d, a, b), (d, c, a, b), (c, d, b, a), (d, c, b, a),
            ):
                eri[i, j, k, l] = values
        return eri

    # ------------------------------------------------------------------ #
    def _pair(self, a: int, b: int) -> _Pair:
        pair = self._pairs.get((a, b))
        if pair is None:
            pair = self._pairs[(a, b)] = _Pair(self._functions[a], self._functions[b])
        return pair

    def _one_body(self, contracted_integral) -> np.ndarray:
        size = len(self._functions)
        matrix = np.zeros((size, size))
        for a in range(size):
            for b in range(a, size):
                matrix[a, b] = matrix[b, a] = contracted_integral(self._pair(a, b))
        return matrix
