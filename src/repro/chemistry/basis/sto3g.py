"""STO-3G minimal basis set.

STO-3G expands each Slater-type orbital as a fixed contraction of three
Gaussian primitives (Hehre, Stewart & Pople, J. Chem. Phys. 51, 2657 (1969)).
The fit coefficients are universal; per-element orbital exponents are obtained
by scaling the fit exponents with the square of the element's Slater zeta.
The zeta values below are the standard STO-3G atomic scale factors, and the
resulting exponents match the published STO-3G tables (e.g. O 1s
130.709320, 23.808861, 6.443608).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.chemistry.geometry import Molecule
from repro.exceptions import ChemistryError

# Universal STO-3G expansion of a zeta=1 Slater orbital: (exponent, coefficient).
_FIT_1S = (
    (2.227660584, 0.154328967),
    (0.405771156, 0.535328142),
    (0.109818000, 0.444634542),
)
_FIT_2SP_EXPONENTS = (0.994203000, 0.231031000, 0.075138600)
_FIT_2S_COEFFS = (-0.099967229, 0.399512826, 0.700115468)
_FIT_2P_COEFFS = (0.155916275, 0.607683719, 0.391957393)

# Slater zeta scale factors per element: (zeta_1s, zeta_2sp or None).
_ZETA = {
    "H": (1.24, None),
    "He": (1.69, None),
    "Li": (2.69, 0.80),
    "Be": (3.68, 1.15),
    "B": (4.68, 1.50),
    "C": (5.67, 1.72),
    "N": (6.67, 1.95),
    "O": (7.66, 2.25),
    "F": (8.65, 2.55),
}

# Cartesian angular momenta for s and p shells.
_S_ANGULAR = ((0, 0, 0),)
_P_ANGULAR = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@dataclass(frozen=True)
class BasisFunction:
    """A contracted Cartesian Gaussian basis function.

    ``angular`` is the (l, m, n) Cartesian powers; ``exponents`` and
    ``coefficients`` define the contraction (coefficients refer to normalized
    primitives, and the contracted function is renormalized by the integral
    engine).
    """

    center: Tuple[float, float, float]
    angular: Tuple[int, int, int]
    exponents: Tuple[float, ...]
    coefficients: Tuple[float, ...]
    atom_index: int
    shell_label: str


def supported_elements() -> List[str]:
    """Element symbols with STO-3G data in this library."""
    return sorted(_ZETA)


def build_sto3g_basis(molecule: Molecule) -> List[BasisFunction]:
    """STO-3G basis functions for every atom of ``molecule``.

    Functions are ordered atom by atom; within an atom the order is
    1s, (2s, 2px, 2py, 2pz) when present, which yields the familiar minimal
    basis sizes (H: 1, Li–Ne: 5).
    """
    functions: List[BasisFunction] = []
    for atom_index, atom in enumerate(molecule.atoms):
        symbol = atom.symbol.strip().capitalize()
        if symbol not in _ZETA:
            raise ChemistryError(
                f"no STO-3G parameters for element {symbol!r}; supported: "
                f"{', '.join(supported_elements())}"
            )
        zeta_1s, zeta_2sp = _ZETA[symbol]
        functions.append(
            BasisFunction(
                center=atom.position,
                angular=(0, 0, 0),
                exponents=tuple(alpha * zeta_1s**2 for alpha, _ in _FIT_1S),
                coefficients=tuple(coeff for _, coeff in _FIT_1S),
                atom_index=atom_index,
                shell_label="1s",
            )
        )
        if zeta_2sp is None:
            continue
        exponents_2sp = tuple(alpha * zeta_2sp**2 for alpha in _FIT_2SP_EXPONENTS)
        functions.append(
            BasisFunction(
                center=atom.position,
                angular=(0, 0, 0),
                exponents=exponents_2sp,
                coefficients=_FIT_2S_COEFFS,
                atom_index=atom_index,
                shell_label="2s",
            )
        )
        for angular, axis in zip(_P_ANGULAR, "xyz"):
            functions.append(
                BasisFunction(
                    center=atom.position,
                    angular=angular,
                    exponents=exponents_2sp,
                    coefficients=_FIT_2P_COEFFS,
                    atom_index=atom_index,
                    shell_label=f"2p{axis}",
                )
            )
    return functions
