"""Evaluation metrics used throughout the paper's evaluation section.

The four metrics of Section 6 ("Evaluation Metrics"):

1. ground-state energy (Hartree),
2. energy estimation error |E_method - E_exact| (Hartree),
3. recovered correlation energy (% of the HF-to-exact gap closed),
4. relative accuracy (HF error / CAFQA error).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

# "Chemical accuracy" threshold used throughout the paper (Hartree).
CHEMICAL_ACCURACY = 1.6e-3


def energy_error(estimate: float, exact: float) -> float:
    """Absolute energy estimation error in Hartree."""
    return abs(float(estimate) - float(exact))


def correlation_energy_recovered(
    estimate: float, hartree_fock: float, exact: float
) -> float:
    """Percentage of the correlation energy (HF -> exact gap) recovered.

    Clipped to [0, 100]: estimates above HF recover nothing, estimates at or
    below the exact energy recover everything.
    """
    gap = hartree_fock - exact
    if gap <= 1e-12:
        # No correlation energy to recover (HF already exact).
        return 100.0 if estimate <= hartree_fock + 1e-12 else 0.0
    recovered = (hartree_fock - estimate) / gap * 100.0
    return float(np.clip(recovered, 0.0, 100.0))


def relative_accuracy(
    cafqa_energy: float, hartree_fock_energy: float, exact: float
) -> float:
    """HF error divided by CAFQA error (the paper's Fig. 13 metric, higher is better)."""
    cafqa_error = energy_error(cafqa_energy, exact)
    hf_error = energy_error(hartree_fock_energy, exact)
    if cafqa_error < 1e-12:
        cafqa_error = 1e-12
    return hf_error / cafqa_error


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean, used for the Fig. 13 summary row."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("geometric mean of an empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return float(np.exp(np.mean(np.log(values))))


@dataclass(frozen=True)
class AccuracySummary:
    """Per-(molecule, bond length) accuracy record used by the dissociation figures."""

    molecule: str
    bond_length: float
    hf_energy: float
    cafqa_energy: float
    exact_energy: Optional[float]

    @property
    def hf_error(self) -> Optional[float]:
        if self.exact_energy is None:
            return None
        return energy_error(self.hf_energy, self.exact_energy)

    @property
    def cafqa_error(self) -> Optional[float]:
        if self.exact_energy is None:
            return None
        return energy_error(self.cafqa_energy, self.exact_energy)

    @property
    def recovered_correlation(self) -> Optional[float]:
        if self.exact_energy is None:
            return None
        return correlation_energy_recovered(
            self.cafqa_energy, self.hf_energy, self.exact_energy
        )

    @property
    def relative_accuracy(self) -> Optional[float]:
        if self.exact_energy is None:
            return None
        return relative_accuracy(self.cafqa_energy, self.hf_energy, self.exact_energy)
