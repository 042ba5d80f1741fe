"""Fig. 13 — relative accuracy of CAFQA over Hartree–Fock across the suite.

For each molecule, the relative error reduction (HF error / CAFQA error) is
averaged over the evaluated bond lengths ("Average") and its maximum is
reported ("Maximum", usually at the largest bond length); a geometric-mean
summary row aggregates across molecules.  The qualitative results to
reproduce: every molecule's average is >= 1 (CAFQA never hurts), the maxima
are much larger than the averages, and strongly correlated chains (H6) show
the smallest gains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.chemistry.molecules import get_preset
from repro.core.metrics import geometric_mean, relative_accuracy
from repro.experiments.config import ExperimentScale, QUICK, spread_bond_lengths
from repro.runspec import RunSpec, run

# Molecules included in the paper's Fig. 13 (all but Cr2), mapped to this
# repository's presets (substitutions documented in DESIGN.md).
DEFAULT_SUITE = ("H2", "LiH", "H2O", "N2", "H6", "H8", "H4", "BeH2")


@dataclass
class RelativeAccuracyRow:
    molecule: str
    average: float
    maximum: float
    bond_lengths: List[float]
    per_bond_length: List[float]


@dataclass
class RelativeAccuracyResult:
    rows: List[RelativeAccuracyRow]

    @property
    def geomean_average(self) -> float:
        return geometric_mean([row.average for row in self.rows])

    @property
    def geomean_maximum(self) -> float:
        return geometric_mean([row.maximum for row in self.rows])

    def as_table(self) -> List[Dict[str, object]]:
        table = [
            {
                "molecule": row.molecule,
                "average_relative_accuracy": row.average,
                "maximum_relative_accuracy": row.maximum,
            }
            for row in self.rows
        ]
        table.append(
            {
                "molecule": "Geomean",
                "average_relative_accuracy": self.geomean_average,
                "maximum_relative_accuracy": self.geomean_maximum,
            }
        )
        return table


def run_relative_accuracy(
    molecules: Sequence[str] = DEFAULT_SUITE,
    scale: ExperimentScale = QUICK,
    bond_lengths_per_molecule: Optional[int] = None,
    seed: int = 0,
    ansatz_reps: int = 1,
) -> RelativeAccuracyResult:
    """Compute the Fig. 13 relative-accuracy summary over a molecule suite."""
    num_lengths = bond_lengths_per_molecule or max(2, scale.bond_lengths_per_curve // 2)
    rows: List[RelativeAccuracyRow] = []
    for molecule_index, molecule in enumerate(molecules):
        preset = get_preset(molecule)
        if (preset.expected_qubits or 0) > 16:
            # No exact reference available; the paper likewise omits Cr2 here.
            continue
        low, high = preset.bond_length_range
        lengths = spread_bond_lengths(low, high, num_lengths)
        budget = scale.search_evaluations(preset.expected_qubits or 12)
        ratios: List[float] = []
        for length_index, bond_length in enumerate(lengths):
            report = run(
                RunSpec(
                    problem=molecule,
                    problem_options={"bond_length": bond_length},
                    ansatz_reps=ansatz_reps,
                    max_evaluations=budget,
                    seed=seed + 100 * molecule_index + length_index,
                )
            )
            if report.exact_energy is None:
                continue
            ratios.append(
                relative_accuracy(report.energy, report.reference_energy, report.exact_energy)
            )
        if not ratios:
            continue
        rows.append(
            RelativeAccuracyRow(
                molecule=molecule,
                average=sum(ratios) / len(ratios),
                maximum=max(ratios),
                bond_lengths=list(lengths),
                per_bond_length=ratios,
            )
        )
    return RelativeAccuracyResult(rows=rows)
