"""Recursive McMurchie–Davidson integrals: the differential oracle.

This is the integral engine ``repro.chemistry.integrals`` used before its
Hermite coefficients and Hermite Coulomb integrals were tabulated: every
coefficient is a fresh recursive call and every primitive integral is a
scalar loop.  It is kept verbatim, outside ``src/``, so tests can assert that
the tabulated engine reproduces it bit for bit (``np.array_equal``).

References: McMurchie & Davidson, J. Comput. Phys. 26, 218 (1978);
Helgaker, Jorgensen & Olsen, "Molecular Electronic-Structure Theory".
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np
from scipy.special import gammainc, gamma

from repro.chemistry.basis.sto3g import BasisFunction


# --------------------------------------------------------------------------- #
# Boys function
# --------------------------------------------------------------------------- #
def boys_function(order: int, argument: float) -> float:
    """The Boys function F_n(x) used by Gaussian Coulomb integrals."""
    if argument < 1e-12:
        return 1.0 / (2.0 * order + 1.0)
    half = order + 0.5
    return float(gamma(half) * gammainc(half, argument) / (2.0 * argument**half))


# --------------------------------------------------------------------------- #
# Hermite expansion coefficients
# --------------------------------------------------------------------------- #
def hermite_expansion(
    i: int, j: int, t: int, distance: float, alpha: float, beta: float
) -> float:
    """Hermite expansion coefficient E_t^{ij} for a 1-D Gaussian product.

    ``distance`` is (A - B) along the axis, ``alpha`` and ``beta`` are the two
    primitive exponents.
    """
    p = alpha + beta
    q = alpha * beta / p
    if t < 0 or t > i + j:
        return 0.0
    if i == 0 and j == 0 and t == 0:
        return float(np.exp(-q * distance * distance))
    if j == 0:
        # decrement i
        return (
            hermite_expansion(i - 1, j, t - 1, distance, alpha, beta) / (2.0 * p)
            - (q * distance / alpha) * hermite_expansion(i - 1, j, t, distance, alpha, beta)
            + (t + 1) * hermite_expansion(i - 1, j, t + 1, distance, alpha, beta)
        )
    # decrement j
    return (
        hermite_expansion(i, j - 1, t - 1, distance, alpha, beta) / (2.0 * p)
        + (q * distance / beta) * hermite_expansion(i, j - 1, t, distance, alpha, beta)
        + (t + 1) * hermite_expansion(i, j - 1, t + 1, distance, alpha, beta)
    )


def hermite_coulomb(
    t: int, u: int, v: int, n: int, p: float, displacement: np.ndarray
) -> float:
    """Hermite Coulomb integral R^n_{tuv} (auxiliary recursion)."""
    x, y, z = displacement
    if t < 0 or u < 0 or v < 0:
        return 0.0
    if t == 0 and u == 0 and v == 0:
        distance_sq = float(x * x + y * y + z * z)
        return float((-2.0 * p) ** n) * boys_function(n, p * distance_sq)
    if t > 0:
        return (t - 1) * hermite_coulomb(t - 2, u, v, n + 1, p, displacement) + x * hermite_coulomb(
            t - 1, u, v, n + 1, p, displacement
        )
    if u > 0:
        return (u - 1) * hermite_coulomb(t, u - 2, v, n + 1, p, displacement) + y * hermite_coulomb(
            t, u - 1, v, n + 1, p, displacement
        )
    return (v - 1) * hermite_coulomb(t, u, v - 2, n + 1, p, displacement) + z * hermite_coulomb(
        t, u, v - 1, n + 1, p, displacement
    )


# --------------------------------------------------------------------------- #
# primitive integrals
# --------------------------------------------------------------------------- #
def _primitive_overlap(alpha, angular_a, center_a, beta, angular_b, center_b) -> float:
    p = alpha + beta
    value = (np.pi / p) ** 1.5
    for axis in range(3):
        value *= hermite_expansion(
            angular_a[axis], angular_b[axis], 0, center_a[axis] - center_b[axis], alpha, beta
        )
    return float(value)


def _primitive_kinetic(alpha, angular_a, center_a, beta, angular_b, center_b) -> float:
    """Kinetic energy via the standard expansion in shifted overlaps."""
    l_b, m_b, n_b = angular_b

    def overlap_shifted(db):
        shifted = (l_b + db[0], m_b + db[1], n_b + db[2])
        if min(shifted) < 0:
            return 0.0
        return _primitive_overlap(alpha, angular_a, center_a, beta, shifted, center_b)

    term_0 = beta * (2 * (l_b + m_b + n_b) + 3) * overlap_shifted((0, 0, 0))
    term_plus = (
        -2.0
        * beta**2
        * (
            overlap_shifted((2, 0, 0))
            + overlap_shifted((0, 2, 0))
            + overlap_shifted((0, 0, 2))
        )
    )
    term_minus = -0.5 * (
        l_b * (l_b - 1) * overlap_shifted((-2, 0, 0))
        + m_b * (m_b - 1) * overlap_shifted((0, -2, 0))
        + n_b * (n_b - 1) * overlap_shifted((0, 0, -2))
    )
    return float(term_0 + term_plus + term_minus)


def _primitive_nuclear(
    alpha, angular_a, center_a, beta, angular_b, center_b, nucleus
) -> float:
    p = alpha + beta
    composite = (alpha * np.asarray(center_a) + beta * np.asarray(center_b)) / p
    displacement = composite - np.asarray(nucleus)
    total = 0.0
    l1, m1, n1 = angular_a
    l2, m2, n2 = angular_b
    for t in range(l1 + l2 + 1):
        e_x = hermite_expansion(l1, l2, t, center_a[0] - center_b[0], alpha, beta)
        if e_x == 0.0:
            continue
        for u in range(m1 + m2 + 1):
            e_y = hermite_expansion(m1, m2, u, center_a[1] - center_b[1], alpha, beta)
            if e_y == 0.0:
                continue
            for v in range(n1 + n2 + 1):
                e_z = hermite_expansion(n1, n2, v, center_a[2] - center_b[2], alpha, beta)
                if e_z == 0.0:
                    continue
                total += e_x * e_y * e_z * hermite_coulomb(t, u, v, 0, p, displacement)
    return float(2.0 * np.pi / p * total)


def _primitive_eri(
    alpha, angular_a, center_a,
    beta, angular_b, center_b,
    gamma_, angular_c, center_c,
    delta, angular_d, center_d,
) -> float:
    p = alpha + beta
    q = gamma_ + delta
    composite_p = (alpha * np.asarray(center_a) + beta * np.asarray(center_b)) / p
    composite_q = (gamma_ * np.asarray(center_c) + delta * np.asarray(center_d)) / q
    displacement = composite_p - composite_q
    reduced = p * q / (p + q)

    l1, m1, n1 = angular_a
    l2, m2, n2 = angular_b
    l3, m3, n3 = angular_c
    l4, m4, n4 = angular_d

    total = 0.0
    for t in range(l1 + l2 + 1):
        e1x = hermite_expansion(l1, l2, t, center_a[0] - center_b[0], alpha, beta)
        if e1x == 0.0:
            continue
        for u in range(m1 + m2 + 1):
            e1y = hermite_expansion(m1, m2, u, center_a[1] - center_b[1], alpha, beta)
            if e1y == 0.0:
                continue
            for v in range(n1 + n2 + 1):
                e1z = hermite_expansion(n1, n2, v, center_a[2] - center_b[2], alpha, beta)
                if e1z == 0.0:
                    continue
                for tau in range(l3 + l4 + 1):
                    e2x = hermite_expansion(
                        l3, l4, tau, center_c[0] - center_d[0], gamma_, delta
                    )
                    if e2x == 0.0:
                        continue
                    for nu in range(m3 + m4 + 1):
                        e2y = hermite_expansion(
                            m3, m4, nu, center_c[1] - center_d[1], gamma_, delta
                        )
                        if e2y == 0.0:
                            continue
                        for phi in range(n3 + n4 + 1):
                            e2z = hermite_expansion(
                                n3, n4, phi, center_c[2] - center_d[2], gamma_, delta
                            )
                            if e2z == 0.0:
                                continue
                            parity = (-1) ** (tau + nu + phi)
                            total += (
                                e1x * e1y * e1z * e2x * e2y * e2z * parity
                                * hermite_coulomb(
                                    t + tau, u + nu, v + phi, 0, reduced, displacement
                                )
                            )
    prefactor = 2.0 * np.pi**2.5 / (p * q * np.sqrt(p + q))
    return float(prefactor * total)


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
        weights = np.asarray(function.coefficients, dtype=float) * norms
        # Renormalize the contracted function so <phi|phi> = 1.
        self_overlap = 0.0
        for wa, alpha in zip(weights, self.exponents):
            for wb, beta in zip(weights, self.exponents):
                self_overlap += wa * wb * _primitive_overlap(
                    alpha, self.angular, self.center, beta, self.angular, self.center
                )
        self.weights = weights / np.sqrt(self_overlap)


class IntegralEngine:
    """Computes AO-basis integral matrices for a list of basis functions."""

    def __init__(self, basis: Sequence[BasisFunction]):
        if not basis:
            raise ValueError("the basis set is empty")
        self._functions: List[_PreparedFunction] = [_PreparedFunction(f) for f in basis]

    @property
    def num_basis_functions(self) -> int:
        return len(self._functions)

    # ------------------------------------------------------------------ #
    def overlap_matrix(self) -> np.ndarray:
        return self._one_body(_primitive_overlap)

    def kinetic_matrix(self) -> np.ndarray:
        return self._one_body(_primitive_kinetic)

    def nuclear_attraction_matrix(
        self, nuclear_charges: Sequence[int], nuclear_positions: np.ndarray
    ) -> np.ndarray:
        size = len(self._functions)
        matrix = np.zeros((size, size))
        for a in range(size):
            for b in range(a, size):
                value = 0.0
                fa, fb = self._functions[a], self._functions[b]
                for charge, nucleus in zip(nuclear_charges, nuclear_positions):
                    partial = 0.0
                    for wa, alpha in zip(fa.weights, fa.exponents):
                        for wb, beta in zip(fb.weights, fb.exponents):
                            partial += wa * wb * _primitive_nuclear(
                                alpha, fa.angular, fa.center,
                                beta, fb.angular, fb.center,
                                np.asarray(nucleus, dtype=float),
                            )
                    value -= charge * partial
                matrix[a, b] = matrix[b, a] = value
        return matrix

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
        for pair_ab_index, (a, b) in enumerate(pair_indices):
            for c, d in pair_indices[: pair_ab_index + 1]:
                value = self._contracted_eri(a, b, c, d)
                for i, j, k, l in (
                    (a, b, c, d), (b, a, c, d), (a, b, d, c), (b, a, d, c),
                    (c, d, a, b), (d, c, a, b), (c, d, b, a), (d, c, b, a),
                ):
                    eri[i, j, k, l] = value
        return eri

    # ------------------------------------------------------------------ #
    def _one_body(self, primitive_integral) -> np.ndarray:
        size = len(self._functions)
        matrix = np.zeros((size, size))
        for a in range(size):
            for b in range(a, size):
                fa, fb = self._functions[a], self._functions[b]
                value = 0.0
                for wa, alpha in zip(fa.weights, fa.exponents):
                    for wb, beta in zip(fb.weights, fb.exponents):
                        value += wa * wb * primitive_integral(
                            alpha, fa.angular, fa.center, beta, fb.angular, fb.center
                        )
                matrix[a, b] = matrix[b, a] = value
        return matrix

    def _contracted_eri(self, a: int, b: int, c: int, d: int) -> float:
        fa, fb, fc, fd = (self._functions[i] for i in (a, b, c, d))
        value = 0.0
        for wa, alpha in zip(fa.weights, fa.exponents):
            for wb, beta in zip(fb.weights, fb.exponents):
                for wc, gamma_ in zip(fc.weights, fc.exponents):
                    for wd, delta in zip(fd.weights, fd.exponents):
                        value += wa * wb * wc * wd * _primitive_eri(
                            alpha, fa.angular, fa.center,
                            beta, fb.angular, fb.center,
                            gamma_, fc.angular, fc.center,
                            delta, fd.angular, fd.center,
                        )
        return value
