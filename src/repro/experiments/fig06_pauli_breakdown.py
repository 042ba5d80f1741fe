"""Fig. 6 — per-Pauli-term expectation breakdown for LiH at a stretched geometry.

For every Pauli term of the LiH Hamiltonian, compares the expectation value
under (a) the Hartree–Fock computational-basis state, (b) the CAFQA Clifford
state, and (c) the exact ground state.  The qualitative results to reproduce:

* HF expectations are +/-1/0 and vanish on every non-diagonal term;
* CAFQA expectations are +/-1/0 but are non-zero on some non-diagonal terms
  (it captures correlation energy);
* CAFQA's expectations track the exact ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.chemistry.exact import exact_ground_state
from repro.chemistry.molecules import make_problem
from repro.core.objective import CliffordObjective
from repro.operators.pauli import Pauli
from repro.runspec import RunSpec, run
from repro.statevector.simulator import Statevector


@dataclass
class PauliBreakdownRow:
    """Expectations of a single Hamiltonian term under the three methods."""

    label: str
    coefficient: float
    is_diagonal: bool
    hartree_fock: float
    cafqa: float
    exact: float
    cafqa_selected: bool  # non-diagonal term with non-zero CAFQA expectation


@dataclass
class PauliBreakdownResult:
    molecule: str
    bond_length: float
    rows: List[PauliBreakdownRow]
    hf_energy: float
    cafqa_energy: float
    exact_energy: float

    @property
    def num_nondiagonal_selected(self) -> int:
        """Number of non-diagonal terms CAFQA gives non-zero expectation to."""
        return sum(1 for row in self.rows if row.cafqa_selected)

    @property
    def hf_nondiagonal_support(self) -> int:
        """Number of non-diagonal terms with non-zero HF expectation (should be 0)."""
        return sum(
            1 for row in self.rows if not row.is_diagonal and abs(row.hartree_fock) > 1e-9
        )


def run_pauli_breakdown(
    molecule: str = "LiH",
    bond_length: float = 4.8,
    max_evaluations: int = 300,
    seed: Optional[int] = 0,
    num_seeds: int = 2,
    max_workers: Optional[int] = None,
) -> PauliBreakdownResult:
    """Generate the Fig. 6 data for ``molecule`` at ``bond_length``.

    The breakdown is taken at the best point of a best-of-``num_seeds``
    orchestrated search (like the paper's per-molecule searches): whether a
    single restart escapes the diagonal HF basin at small budgets is seed
    luck, while the best of a few restarts reliably captures non-diagonal
    terms.
    """
    problem = make_problem(molecule, bond_length)
    spec = RunSpec(
        problem=molecule,
        problem_options={"bond_length": bond_length},
        max_evaluations=max_evaluations,
        num_seeds=num_seeds,
        max_workers=max_workers,
        seed=seed,
    )
    cafqa = run(spec, problem=problem).best

    hf_state = Statevector.from_bitstring(problem.hf_bits)
    exact = exact_ground_state(problem.hamiltonian)
    objective = CliffordObjective(problem, cafqa.ansatz)
    cafqa_expectations: Dict[str, int] = objective.term_expectations(cafqa.best_indices)

    rows: List[PauliBreakdownRow] = []
    for term in problem.hamiltonian.terms():
        pauli = Pauli(term.label)
        hf_value = float(np.real(hf_state.expectation(pauli)))
        exact_value = float(np.real(exact.state.expectation(pauli)))
        cafqa_value = float(cafqa_expectations[term.label])
        rows.append(
            PauliBreakdownRow(
                label=term.label,
                coefficient=float(np.real(term.coefficient)),
                is_diagonal=pauli.is_diagonal(),
                hartree_fock=hf_value,
                cafqa=cafqa_value,
                exact=exact_value,
                cafqa_selected=(not pauli.is_diagonal()) and abs(cafqa_value) > 1e-9,
            )
        )

    return PauliBreakdownResult(
        molecule=molecule,
        bond_length=bond_length,
        rows=rows,
        hf_energy=problem.hf_energy,
        cafqa_energy=cafqa.energy,
        exact_energy=exact.energy,
    )
