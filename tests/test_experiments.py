"""Tests for the per-figure experiment drivers (fast configurations only)."""

import pytest

from repro.experiments import (
    QUICK,
    ExperimentScale,
    get_scale,
    microbenchmark_circuit,
    run_microbenchmark,
    run_pauli_breakdown,
    run_search_trace,
    spread_bond_lengths,
    xx_hamiltonian,
)
from repro.experiments import (
    fig06_pauli_breakdown,
    fig07_search_trace,
    fig12_large_molecule,
    fig14_vqe_convergence,
    fig15_search_iterations,
)
from repro.experiments.config import FULL, SMOKE
from repro.experiments.dissociation import run_dissociation_curve
from repro.experiments.fig12_large_molecule import run_large_molecule
from repro.experiments.fig13_relative_accuracy import run_relative_accuracy
from repro.experiments.fig14_vqe_convergence import run_vqe_convergence
from repro.experiments.fig15_search_iterations import run_search_iterations
from repro.experiments.fig16_clifford_t import run_clifford_t_curve
from repro.experiments.table1 import run_table1
from repro.chemistry.molecules import get_preset, make_problem
from repro.circuits import EfficientSU2Ansatz
from repro.core import CafqaSearch, CliffordObjective, SearchOrchestrator, VQERunner
from repro.noise.devices import fake_device
from repro.optim.spsa import SPSA
from repro.runspec import run


class TestConfig:
    def test_get_scale(self):
        assert get_scale("quick") is QUICK
        assert get_scale("full") is FULL
        with pytest.raises(KeyError):
            get_scale("huge")

    def test_budget_grows_with_problem_size(self):
        assert QUICK.search_evaluations(2) <= QUICK.search_evaluations(12)
        assert QUICK.search_evaluations(12) <= QUICK.search_evaluations(18)

    def test_spread_bond_lengths(self):
        lengths = spread_bond_lengths(1.0, 3.0, 5)
        assert lengths[0] == pytest.approx(1.0)
        assert lengths[-1] == pytest.approx(3.0)
        assert len(lengths) == 5
        assert spread_bond_lengths(1.0, 3.0, 1) == [2.0]


class TestMicrobenchmark:
    def test_series_shapes_and_minima(self):
        result = run_microbenchmark(num_points=17)
        assert len(result.ideal) == 17
        # The ideal sweep reaches the global minimum -1.
        assert result.ideal_minimum == pytest.approx(-1.0, abs=1e-9)
        # CAFQA's best Clifford point also reaches it (the paper's key claim).
        assert result.cafqa_minimum == pytest.approx(-1.0, abs=1e-9)
        # The noisy machines cannot reach the ideal minimum.
        for device in result.noisy:
            assert result.noisy_minimum(device) > -1.0
        # Hartree-Fock recovers nothing for the XX Hamiltonian.
        assert result.hartree_fock == pytest.approx(0.0)

    def test_noise_ordering(self):
        result = run_microbenchmark(num_points=9)
        assert result.noisy_minimum("manhattan_like") > result.noisy_minimum("casablanca_like")

    def test_circuit_sweep_covers_full_range(self):
        import numpy as np

        from repro.statevector import StatevectorSimulator

        values = [
            StatevectorSimulator().expectation(microbenchmark_circuit(theta), xx_hamiltonian())
            for theta in np.linspace(0, 2 * np.pi, 30)
        ]
        assert min(values) == pytest.approx(-1.0, abs=1e-2)
        assert max(values) == pytest.approx(1.0, abs=1e-2)


class TestPauliBreakdown:
    def test_h2_breakdown_structure(self):
        result = run_pauli_breakdown("H2", bond_length=2.0, max_evaluations=60, seed=0)
        # Every method's expectations are bounded by 1 in magnitude.
        for row in result.rows:
            assert abs(row.hartree_fock) <= 1.0 + 1e-9
            assert abs(row.cafqa) <= 1.0 + 1e-9
            assert abs(row.exact) <= 1.0 + 1e-9
            # HF and CAFQA give stabilizer-valued (+-1/0) expectations.
            assert round(abs(row.hartree_fock)) in (0, 1)
            assert round(abs(row.cafqa)) in (0, 1)
        # HF never has support on non-diagonal terms.
        assert result.hf_nondiagonal_support == 0
        # CAFQA captures at least one non-diagonal term at this stretched geometry.
        assert result.num_nondiagonal_selected >= 1
        # And its energy is below HF as a result.
        assert result.cafqa_energy < result.hf_energy


class TestSearchTrace:
    def test_trace_is_monotone_and_improves_after_warmup(self):
        result = run_search_trace("H2", bond_length=2.2, max_evaluations=80, seed=0)
        errors = result.errors
        assert all(later <= earlier + 1e-12 for earlier, later in zip(errors, errors[1:]))
        assert result.final_error <= result.hf_error + 1e-12
        assert result.warmup_evaluations > 0


class TestDissociation:
    def test_h2_curve_qualitative_shape(self):
        result = run_dissociation_curve("H2", scale=QUICK, bond_lengths=[0.74, 2.0, 2.9], seed=0)
        assert result.cafqa_never_worse_than_hf()
        # CAFQA error at the largest bond length beats HF error substantially.
        assert result.cafqa_errors[-1] < result.hf_errors[-1]
        # Correlation recovered grows toward dissociation.
        assert result.max_correlation_recovered() > 80.0


class TestRelativeAccuracy:
    def test_h2_ratios_are_pinned(self):
        # Bit for bit.  H4 is left out: its trajectories vary with the host.
        result = run_relative_accuracy(
            molecules=("H2",), scale=SMOKE, bond_lengths_per_molecule=2, seed=0
        )
        (row,) = result.rows
        assert row.bond_lengths == [0.37, 2.96]
        assert [ratio.hex() for ratio in row.per_bond_length] == [
            "0x1.000000000006dp+0",
            "0x1.52d56d85f339cp+8",
        ]


class TestVQEConvergenceAndCliffordT:
    def test_vqe_convergence_speedup(self):
        result = run_vqe_convergence(
            "H2", bond_length=2.0, search_evaluations=80, vqe_iterations=30, seed=0
        )
        ideal = result.comparisons["ideal"]
        # CAFQA starts at (or below) the HF initial energy.
        assert ideal.cafqa.initial_energy <= ideal.hartree_fock.initial_energy + 1e-9
        noisy = result.comparisons["noisy"]
        assert noisy.cafqa.initial_energy <= noisy.hartree_fock.initial_energy + 1e-9

    def test_clifford_t_never_hurts(self):
        result = run_clifford_t_curve(
            "H2", max_t_gates=1, bond_lengths=[1.5], seed=0, scale=QUICK
        )
        assert result.t_gates_never_hurt()
        assert result.points[0].num_t_gates_used <= 1


class TestTable1:
    def test_small_subset(self):
        result = run_table1(molecules=["H2", "H4"])
        assert len(result.rows) == 2
        by_name = {row.molecule: row for row in result.rows}
        assert by_name["H2"].num_qubits == 2
        assert by_name["H4"].num_qubits == 6
        assert by_name["H2"].exact_energy is not None


# --------------------------------------------------------------------------- #
# drivers through repro.run == the orchestrator and search they used to build
# --------------------------------------------------------------------------- #
def _recorded_reports(monkeypatch, module):
    """Every RunReport the driver ``module`` gets from ``repro.run``, in order."""
    reports = []

    def recording_run(spec, problem=None):
        report = run(spec, problem=problem)
        reports.append(report)
        return report

    monkeypatch.setattr(module, "run", recording_run)
    return reports


def _observations(observations):
    return [(o.point, o.value.hex(), o.phase) for o in observations]


def _assert_same_restarts(report, multi):
    assert report.best.energy.hex() == multi.best.energy.hex()
    assert report.best.constrained_energy.hex() == multi.best.constrained_energy.hex()
    assert len(report.result.traces) == len(multi.traces)
    for mine, theirs in zip(report.result.traces, multi.traces):
        assert mine.best_indices == theirs.best_indices
        assert _observations(mine.observations) == _observations(theirs.observations)


class TestDriversMatchTheirFormerConstruction:
    """Each driver that now enters through ``repro.run`` reproduces, bit for
    bit, the ``SearchOrchestrator`` or ``CafqaSearch`` it used to build."""

    def test_fig06_pauli_breakdown(self, monkeypatch):
        reports = _recorded_reports(monkeypatch, fig06_pauli_breakdown)
        result = run_pauli_breakdown(
            "H2", bond_length=2.0, max_evaluations=60, seed=0, max_workers=1
        )
        problem = make_problem("H2", 2.0)
        multi = SearchOrchestrator(
            problem, num_restarts=2, max_workers=1, seed=0
        ).run(max_evaluations=60)
        (report,) = reports
        _assert_same_restarts(report, multi)
        assert result.cafqa_energy.hex() == multi.best.energy.hex()
        expectations = CliffordObjective(problem, multi.best.ansatz).term_expectations(
            multi.best.best_indices
        )
        assert [row.cafqa for row in result.rows] == [
            float(expectations[row.label]) for row in result.rows
        ]

    def test_fig07_search_trace(self, monkeypatch):
        reports = _recorded_reports(monkeypatch, fig07_search_trace)
        result = run_search_trace(
            "H2", bond_length=2.2, max_evaluations=80, warmup_fraction=0.3, seed=0
        )
        problem = make_problem("H2", 2.2)
        multi = SearchOrchestrator(
            problem, num_restarts=1, seed=0, warmup_fraction=0.3
        ).run(max_evaluations=80)
        (report,) = reports
        _assert_same_restarts(report, multi)
        observations = multi.best_trace.observations
        energies = CliffordObjective(problem, multi.best.ansatz).energy_batch(
            [o.point for o in observations]
        )
        best, errors = float("inf"), []
        for energy in energies:
            best = min(best, float(energy))
            errors.append(abs(best - problem.exact_energy).hex())
        assert [error.hex() for error in result.errors] == errors
        assert result.phases == [o.phase for o in observations]

    def test_fig12_large_molecule(self, monkeypatch):
        reports = _recorded_reports(monkeypatch, fig12_large_molecule)
        result = run_large_molecule("H4", scale=SMOKE, bond_lengths=[1.0, 2.0], seed=0)
        budget = SMOKE.search_evaluations(get_preset("H4").expected_qubits or 18)
        assert len(reports) == len(result.points) == 2
        for index, (report, point) in enumerate(zip(reports, result.points)):
            problem = make_problem("H4", point.bond_length, compute_exact=False)
            multi = SearchOrchestrator(
                problem, num_restarts=1, seed=index
            ).run(max_evaluations=budget)
            _assert_same_restarts(report, multi)
            assert point.cafqa_energy.hex() == multi.best.energy.hex()
            assert point.hf_energy.hex() == problem.hf_energy.hex()
            assert point.search_iterations == multi.total_evaluations

    def test_fig15_search_iterations(self, monkeypatch):
        reports = _recorded_reports(monkeypatch, fig15_search_iterations)
        result = run_search_iterations(("H2", "LiH"), scale=SMOKE, seed=0)
        assert len(reports) == len(result.rows) == 2
        for index, (report, row) in enumerate(zip(reports, result.rows)):
            preset = get_preset(row.molecule)
            bond_length = min(
                preset.equilibrium_bond_length * 1.5, preset.bond_length_range[1]
            )
            problem = make_problem(row.molecule, bond_length, compute_exact=False)
            multi = SearchOrchestrator(problem, num_restarts=1, seed=index).run(
                max_evaluations=SMOKE.search_evaluations(problem.num_qubits)
            )
            _assert_same_restarts(report, multi)
            assert row.final_energy.hex() == multi.best.energy.hex()
            assert row.num_parameters == multi.best.ansatz.num_parameters
            assert row.total_evaluations == multi.best.num_iterations
            assert row.converged_iteration == multi.best.converged_iteration

    def test_fig14_vqe_convergence(self, monkeypatch):
        reports = _recorded_reports(monkeypatch, fig14_vqe_convergence)
        result = run_vqe_convergence(
            "H2", bond_length=2.0, search_evaluations=40, vqe_iterations=10, seed=0
        )
        problem = make_problem("H2", 2.0)
        search = CafqaSearch(
            CliffordObjective(problem, EfficientSU2Ansatz(problem.num_qubits, reps=1)),
            seed=0,
        )
        cafqa = search.run(max_evaluations=40)
        (report,) = reports
        assert _observations(report.best.search_result.observations) == _observations(
            cafqa.search_result.observations
        )
        assert result.cafqa_energy.hex() == cafqa.energy.hex()
        for name, noise_model in (("ideal", None), ("noisy", fake_device("casablanca_like"))):
            runner = VQERunner(
                problem, ansatz=search.ansatz, noise_model=noise_model, optimizer=SPSA(seed=0)
            )
            comparison = result.comparisons[name]
            for mine, theirs in (
                (comparison.cafqa, runner.run_from_cafqa(cafqa, max_iterations=10)),
                (comparison.hartree_fock, runner.run_from_hartree_fock(max_iterations=10)),
            ):
                assert [e.hex() for e in mine.history] == [e.hex() for e in theirs.history]
                assert mine.final_energy.hex() == theirs.final_energy.hex()
