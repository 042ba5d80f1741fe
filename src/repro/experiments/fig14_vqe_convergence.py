"""Fig. 14 — post-CAFQA VQE convergence vs Hartree–Fock initialization.

Tunes the LiH ansatz with SPSA starting from (a) the CAFQA Clifford point and
(b) the Hartree–Fock point, on both an ideal backend and a noisy fake device.
The qualitative results to reproduce: CAFQA-initialized tuning starts lower,
stays lower, and reaches any fixed energy threshold in fewer iterations
(about 2.5x fewer in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.chemistry.molecules import make_problem
from repro.core.vqe import VQERunner, VQEResult
from repro.noise.devices import fake_device
from repro.optim.spsa import SPSA
from repro.runspec import RunSpec, run


@dataclass
class ConvergenceComparison:
    """CAFQA-vs-HF VQE traces for one backend (ideal or noisy)."""

    cafqa: VQEResult
    hartree_fock: VQEResult

    def speedup_to_threshold(self, threshold: float) -> Optional[float]:
        """How many times faster CAFQA reaches ``threshold`` than HF (None if either fails)."""
        cafqa_iterations = self.cafqa.iterations_to_reach(threshold)
        hf_iterations = self.hartree_fock.iterations_to_reach(threshold)
        if cafqa_iterations is None or hf_iterations is None:
            return None
        return hf_iterations / max(cafqa_iterations, 1)


@dataclass
class VQEConvergenceResult:
    molecule: str
    bond_length: float
    exact_energy: Optional[float]
    hf_energy: float
    cafqa_energy: float
    comparisons: Dict[str, ConvergenceComparison]


def run_vqe_convergence(
    molecule: str = "LiH",
    bond_length: float = 4.0,
    search_evaluations: int = 300,
    vqe_iterations: int = 100,
    ansatz_reps: int = 1,
    noisy_device: str = "casablanca_like",
    seed: int = 0,
) -> VQEConvergenceResult:
    """Generate the Fig. 14 comparison for one molecule/bond length."""
    problem = make_problem(molecule, bond_length)
    spec = RunSpec(
        problem=molecule,
        problem_options={"bond_length": bond_length},
        ansatz_reps=ansatz_reps,
        max_evaluations=search_evaluations,
        seed=seed,
    )
    cafqa = run(spec, problem=problem).best

    comparisons: Dict[str, ConvergenceComparison] = {}
    for backend_name, noise_model in (("ideal", None), ("noisy", fake_device(noisy_device))):
        runner = VQERunner(
            problem,
            ansatz=cafqa.ansatz,
            noise_model=noise_model,
            optimizer=SPSA(seed=seed),
        )
        from_cafqa = runner.run_from_cafqa(cafqa, max_iterations=vqe_iterations)
        from_hf = runner.run_from_hartree_fock(max_iterations=vqe_iterations)
        comparisons[backend_name] = ConvergenceComparison(cafqa=from_cafqa, hartree_fock=from_hf)

    return VQEConvergenceResult(
        molecule=molecule,
        bond_length=bond_length,
        exact_energy=problem.exact_energy,
        hf_energy=problem.hf_energy,
        cafqa_energy=cafqa.energy,
        comparisons=comparisons,
    )
