"""Fermion-to-qubit mappings: Jordan–Wigner and parity (with Z2 two-qubit reduction).

The paper constructs Hamiltonians "in the STO-3G basis with parity mapping and
Z2 symmetry / two qubit reduction".  Both mappings below are implemented over
an internal integer-bitmask Pauli representation (``x`` and ``z`` masks plus a
complex coefficient in the canonical ``X^x Z^z`` form), which keeps the
four-operator products of the two-electron terms fast.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.chemistry.fermion import FermionTerm
from repro.exceptions import ChemistryError
from repro.operators.pauli_sum import PauliSum

# Internal representation: a Pauli term is (x_mask, z_mask) -> coefficient, where
# the operator is  coefficient * (prod_j X_j^{x_j}) * (prod_j Z_j^{z_j}).
_BitTerm = Tuple[int, int]
_BitSum = Dict[_BitTerm, complex]

JORDAN_WIGNER = "jordan_wigner"
PARITY = "parity"
SUPPORTED_MAPPINGS = (JORDAN_WIGNER, PARITY)


# --------------------------------------------------------------------------- #
# bitmask Pauli algebra
# --------------------------------------------------------------------------- #
def _multiply_bit_terms(term_a: _BitTerm, term_b: _BitTerm) -> tuple[_BitTerm, complex]:
    """Product of two X^xZ^z-form Paulis; the sign comes from moving Z past X."""
    xa, za = term_a
    xb, zb = term_b
    sign = -1.0 if bin(za & xb).count("1") % 2 else 1.0
    return (xa ^ xb, za ^ zb), sign


def _multiply_bit_sums(sum_a: _BitSum, sum_b: _BitSum) -> _BitSum:
    product: _BitSum = {}
    for term_a, coeff_a in sum_a.items():
        for term_b, coeff_b in sum_b.items():
            term, sign = _multiply_bit_terms(term_a, term_b)
            product[term] = product.get(term, 0.0) + coeff_a * coeff_b * sign
    return product


def _bit_sum_to_labels(bit_sum: _BitSum, num_qubits: int) -> Dict[str, complex]:
    """Convert X^xZ^z-form terms into plain label terms (Y = i * XZ bookkeeping)."""
    labels: Dict[str, complex] = {}
    for (x_mask, z_mask), coefficient in bit_sum.items():
        if abs(coefficient) < 1e-14:
            continue
        num_y = bin(x_mask & z_mask).count("1")
        label_coefficient = coefficient * (-1j) ** num_y
        characters = []
        for qubit in range(num_qubits - 1, -1, -1):
            x = (x_mask >> qubit) & 1
            z = (z_mask >> qubit) & 1
            characters.append("IXZY"[x + 2 * z] if x + 2 * z != 3 else "Y")
        label = "".join(characters)
        labels[label] = labels.get(label, 0.0) + label_coefficient
    return labels


# --------------------------------------------------------------------------- #
# ladder operator encodings
# --------------------------------------------------------------------------- #
def _jordan_wigner_ladder(index: int, creation: bool, num_qubits: int) -> _BitSum:
    """a / a^dagger on spin orbital ``index`` under Jordan–Wigner."""
    del num_qubits
    parity_mask = (1 << index) - 1  # Z string on qubits below `index`
    x_mask = 1 << index
    # a   = (X + iY)/2 Z_<  ->  1/2 * X Z_<   -  1/2 * XZ Z_<
    # a^+ = (X - iY)/2 Z_<  ->  1/2 * X Z_<   +  1/2 * XZ Z_<
    sign = 1.0 if creation else -1.0
    return {
        (x_mask, parity_mask): 0.5,
        (x_mask, parity_mask | x_mask): 0.5 * sign,
    }


def _parity_ladder(index: int, creation: bool, num_qubits: int) -> _BitSum:
    """a / a^dagger on spin orbital ``index`` under the parity mapping."""
    update_mask = 0
    for qubit in range(index, num_qubits):
        update_mask |= 1 << qubit  # X on qubit `index` and everything above it
    lower_z = (1 << (index - 1)) if index > 0 else 0
    own_z = 1 << index
    # a^+ = 1/2 X_>= (X_j Z_{j-1} - i Y_j)  ->  1/2 * (X_>= Z_{j-1}) + 1/2 * (X_>= Z_j)
    # a   = 1/2 X_>= (X_j Z_{j-1} + i Y_j)  ->  1/2 * (X_>= Z_{j-1}) - 1/2 * (X_>= Z_j)
    sign = 1.0 if creation else -1.0
    return {
        (update_mask, lower_z): 0.5,
        (update_mask, own_z): 0.5 * sign,
    }


_LADDER_BUILDERS = {JORDAN_WIGNER: _jordan_wigner_ladder, PARITY: _parity_ladder}


# --------------------------------------------------------------------------- #
# public API
# --------------------------------------------------------------------------- #
def map_fermion_terms(
    terms: Iterable[FermionTerm],
    num_spin_orbitals: int,
    mapping: str = PARITY,
    constant: float = 0.0,
) -> PauliSum:
    """Map a sum of fermionic terms to a qubit :class:`PauliSum`."""
    if mapping not in _LADDER_BUILDERS:
        raise ChemistryError(
            f"unknown mapping {mapping!r}; supported: {', '.join(SUPPORTED_MAPPINGS)}"
        )
    builder = _LADDER_BUILDERS[mapping]
    accumulated: _BitSum = {}
    if constant:
        accumulated[(0, 0)] = complex(constant)
    for term in terms:
        product: _BitSum = {(0, 0): complex(term.coefficient)}
        for index, creation in term.operators:
            if not 0 <= index < num_spin_orbitals:
                raise ChemistryError(
                    f"spin orbital {index} out of range for {num_spin_orbitals} orbitals"
                )
            product = _multiply_bit_sums(product, builder(index, creation, num_spin_orbitals))
        for bit_term, coefficient in product.items():
            accumulated[bit_term] = accumulated.get(bit_term, 0.0) + coefficient
    labels = _bit_sum_to_labels(accumulated, num_spin_orbitals)
    return PauliSum(labels, num_qubits=num_spin_orbitals).simplify(1e-10)


def occupations_to_qubit_bits(
    occupations: Sequence[int], mapping: str = PARITY
) -> List[int]:
    """Qubit computational-basis bits encoding a fermionic occupation vector."""
    occupations = [int(bit) for bit in occupations]
    if mapping == JORDAN_WIGNER:
        return occupations
    if mapping == PARITY:
        bits = []
        running = 0
        for occupation in occupations:
            running = (running + occupation) % 2
            bits.append(running)
        return bits
    raise ChemistryError(f"unknown mapping {mapping!r}")


def taper_two_qubits(
    hamiltonian: PauliSum, num_spatial_orbitals: int, num_alpha: int, num_beta: int
) -> PauliSum:
    """Z2 two-qubit reduction of a parity-mapped, block-ordered Hamiltonian.

    Under the parity mapping with block spin ordering, qubit ``M-1`` stores
    the parity of the alpha-electron count and qubit ``2M-1`` the parity of
    the total electron count.  Both are symmetries of the electronic
    Hamiltonian, so those qubits can be removed and their Z operators replaced
    by the corresponding eigenvalues for the targeted particle sector.
    """
    num_qubits = hamiltonian.num_qubits
    if num_qubits != 2 * num_spatial_orbitals:
        raise ChemistryError(
            "two-qubit reduction expects a Hamiltonian on 2 * num_spatial_orbitals qubits"
        )
    if num_spatial_orbitals < 1:
        raise ChemistryError("need at least one spatial orbital")
    removed = (num_spatial_orbitals - 1, 2 * num_spatial_orbitals - 1)
    eigenvalues = {
        removed[0]: (-1.0) ** num_alpha,
        removed[1]: (-1.0) ** (num_alpha + num_beta),
    }

    reduced_terms: Dict[str, complex] = {}
    for term in hamiltonian.terms():
        label = term.label
        coefficient = term.coefficient
        kept_characters = []
        for qubit in range(num_qubits):
            character = label[num_qubits - 1 - qubit]
            if qubit in eigenvalues:
                if character in ("X", "Y"):
                    raise ChemistryError(
                        "Hamiltonian does not commute with the Z2 symmetries; "
                        "two-qubit reduction is invalid for this operator"
                    )
                if character == "Z":
                    coefficient = coefficient * eigenvalues[qubit]
            else:
                kept_characters.append(character)
        reduced_label = "".join(reversed(kept_characters))
        reduced_terms[reduced_label] = reduced_terms.get(reduced_label, 0.0) + coefficient
    return PauliSum(reduced_terms, num_qubits=num_qubits - 2).simplify(1e-10)


def taper_bits(bits: Sequence[int], num_spatial_orbitals: int) -> List[int]:
    """Drop the two reduced qubits from a parity-encoded bitstring."""
    removed = {num_spatial_orbitals - 1, 2 * num_spatial_orbitals - 1}
    return [int(bit) for index, bit in enumerate(bits) if index not in removed]
