"""The problem abstraction the CAFQA stack searches over.

CAFQA's bootstrap is defined for *any* Pauli-sum Hamiltonian — the paper
happens to demonstrate it on molecular ground states, but the identical
machinery applies to Ising Hamiltonians (Bhattacharyya & Ravi) and deflated
excited-state objectives (Excited-CAFQA).  :class:`ProblemSpec` is the
structural protocol every consumer (:class:`~repro.core.objective
.CliffordObjective`, and through it :class:`~repro.core.search.CafqaSearch`,
:class:`~repro.core.orchestrator.SearchOrchestrator`,
:class:`~repro.core.vqe.VQERunner`) accepts;
:class:`~repro.chemistry.hamiltonian.MolecularProblem` is one implementation,
and :class:`HamiltonianProblem` is the generic one the spin/graph builders
return.

A problem supplies:

* the qubit Hamiltonian to minimize,
* a classical *reference* — a computational-basis state (``reference_bits``)
  and its energy (``reference_energy``) — used to warm-start the search so
  the result is never worse than the classical baseline (Hartree–Fock for
  molecules, a product state for spin models, the empty cut for MaxCut),
* the exact ground-state energy when the system is small enough to
  diagonalize (``exact_energy``; ``None`` otherwise), and
* a stable :meth:`~ProblemSpec.fingerprint` so evaluation caches and
  checkpoints can be keyed on what is actually simulated.

Problems may optionally provide :meth:`~ProblemSpec.default_constraint`,
returning a constraint object whose ``penalties(problem)`` yields
``(operator, target, weight)`` triples, each charged as
``weight * (operator - target)^2`` (see :mod:`repro.core.constraints`);
problems without symmetry sectors simply return ``None``.  Constraints may
also charge state overlaps (``overlap_penalties()``), which is how the
deflated objectives of Excited-CAFQA reuse the same search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, runtime_checkable

from repro.exceptions import ReproError
from repro.operators.fingerprints import determinant_energy, hamiltonian_fingerprint
from repro.operators.pauli_sum import PauliSum

__all__ = [
    "ProblemSpec",
    "HamiltonianProblem",
    "reference_bits_of",
    "reference_energy_of",
    "default_constraint_of",
    "exact_spectrum_of",
    "hamiltonian_exact_spectrum",
]


@runtime_checkable
class ProblemSpec(Protocol):
    """Structural protocol for anything the CAFQA search stack can consume."""

    name: str

    @property
    def num_qubits(self) -> int: ...

    @property
    def hamiltonian(self) -> PauliSum: ...

    @property
    def reference_energy(self) -> float: ...

    @property
    def reference_bits(self) -> Sequence[int]: ...

    @property
    def exact_energy(self) -> Optional[float]: ...

    def fingerprint(self) -> str: ...


# --------------------------------------------------------------------------- #
# duck-typed accessors
# --------------------------------------------------------------------------- #
def reference_bits_of(problem) -> List[int]:
    """The problem's classical reference bitstring (all zeros if unspecified)."""
    bits = getattr(problem, "reference_bits", None)
    if bits is None:
        bits = getattr(problem, "hf_bits", None)
    if bits is None:
        return [0] * problem.num_qubits
    return [int(bit) for bit in bits]


def reference_energy_of(problem) -> float:
    """The problem's classical reference energy.

    Falls back to the diagonal-term energy of the reference bitstring when a
    problem does not record the value explicitly.
    """
    for attribute in ("reference_energy", "hf_energy"):
        value = getattr(problem, attribute, None)
        if value is not None:
            return float(value)
    return determinant_energy(problem.hamiltonian, reference_bits_of(problem))


def default_constraint_of(problem):
    """The problem's default objective constraint, or ``None``."""
    factory = getattr(problem, "default_constraint", None)
    return factory() if callable(factory) else None


def hamiltonian_exact_spectrum(problem, num_states: int) -> Optional[List[float]]:
    """Lowest-``num_states`` energies by direct diagonalization, or ``None``.

    Gated on the problem's ``exact_energy`` being present, so problems built
    beyond their diagonalization limit (or with exact references disabled)
    stay consistent between ground-state and spectrum validation.  The single
    implementation behind every ``exact_spectrum`` method and the
    :func:`exact_spectrum_of` fallback.
    """
    if getattr(problem, "exact_energy", None) is None:
        return None
    from repro.chemistry.exact import exact_lowest_energies

    return exact_lowest_energies(problem.hamiltonian, num_states)


def exact_spectrum_of(problem, num_states: int) -> Optional[List[float]]:
    """The problem's lowest-``num_states`` exact energies, or ``None``.

    Prefers a problem-supplied ``exact_spectrum(num_states)`` method;
    otherwise diagonalizes the Hamiltonian directly when the problem already
    has an exact ground-state energy (i.e. it is small enough that exact
    references were computed at build time).  Validates Excited-CAFQA-style
    deflated searches the way ``exact_energy`` validates ground states.
    """
    method = getattr(problem, "exact_spectrum", None)
    if callable(method):
        return method(num_states)
    return hamiltonian_exact_spectrum(problem, num_states)


# --------------------------------------------------------------------------- #
# the generic implementation
# --------------------------------------------------------------------------- #
@dataclass
class HamiltonianProblem:
    """A bare Pauli-sum ground-state problem (the non-chemistry workloads).

    ``reference_bits`` defaults to the all-zeros state and
    ``reference_energy`` to its diagonal-term energy, so a builder only needs
    to supply a Hamiltonian; picklable end-to-end, which is what lets the
    orchestrator ship these problems to worker processes.
    """

    name: str
    hamiltonian: PauliSum
    reference_bits: List[int] = None  # type: ignore[assignment]
    reference_energy: float = None  # type: ignore[assignment]
    exact_energy: Optional[float] = None
    metadata: Dict[str, object] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.reference_bits is None:
            self.reference_bits = [0] * self.hamiltonian.num_qubits
        self.reference_bits = [int(bit) for bit in self.reference_bits]
        if len(self.reference_bits) != self.hamiltonian.num_qubits:
            raise ReproError(
                f"{self.name}: reference state has {len(self.reference_bits)} bits "
                f"but the Hamiltonian acts on {self.hamiltonian.num_qubits} qubits"
            )
        if self.reference_energy is None:
            self.reference_energy = determinant_energy(
                self.hamiltonian, self.reference_bits
            )
        self.reference_energy = float(self.reference_energy)

    @property
    def num_qubits(self) -> int:
        return self.hamiltonian.num_qubits

    def fingerprint(self) -> str:
        return hamiltonian_fingerprint(self.hamiltonian)

    def default_constraint(self):
        return None

    def exact_spectrum(self, num_states: int) -> Optional[List[float]]:
        """Lowest-``num_states`` exact energies (``None`` past the diag limit)."""
        return hamiltonian_exact_spectrum(self, num_states)

    def __repr__(self) -> str:
        exact = "n/a" if self.exact_energy is None else f"{self.exact_energy:.6f}"
        return (
            f"HamiltonianProblem({self.name!r}, {self.num_qubits} qubits, "
            f"{self.hamiltonian.num_terms} terms, ref={self.reference_energy:.6f}, "
            f"exact={exact})"
        )
