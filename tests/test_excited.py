"""Excited-CAFQA: deflated objectives, the sequential driver, and the front door.

Pins the PR's acceptance contract: lowest-3 energies for the classical Ising
chain (n = 4 and n = 8), the XXZ chain, and H2 match dense-diagonalization
spectra through ``repro.run(RunSpec(num_states=3))``; deflation penalties go
through the stabilizer overlap kernel (never a ``2^n`` projector expansion);
spectrum runs checkpoint/resume and rerun bit-identically — including the
now-seeded VQE stage.
"""

import json

import numpy as np
import pytest

import repro
from repro.circuits.ansatz import EfficientSU2Ansatz
from repro.core import (
    CliffordObjective,
    CompositeConstraint,
    DeflationConstraint,
    OperatorPenalty,
    find_lowest_states,
)
from repro.operators.fingerprints import objective_fingerprint
from repro.operators.pauli_sum import PauliSum
from repro.problems import ising_chain, xxz_chain
from repro.problems.base import exact_spectrum_of
from repro.runspec import RunSpec, run
from repro.stabilizer import stabilizer_state_overlaps

# Stabilizer states cannot represent arbitrary excited eigenstates exactly;
# for H2 the per-level error is the same order as the ground-state CAFQA
# bootstrap error (measured: <= 0.021 Ha at equilibrium, <= 0.005 Ha
# stretched).  0.05 Ha distinguishes every H2 level (gaps are ~0.4 Ha).
H2_SPECTRUM_TOLERANCE = 0.05


# --------------------------------------------------------------------------- #
# the deflated objective
# --------------------------------------------------------------------------- #
class TestDeflatedObjective:
    @pytest.fixture(scope="class")
    def problem(self):
        return ising_chain(num_sites=3, transverse_field=0.0)

    def test_penalty_is_weight_times_kernel_overlap(self, problem):
        ansatz = EfficientSU2Ansatz(problem.num_qubits, reps=1)
        plain = CliffordObjective(problem, ansatz)
        ground = tuple([0] * ansatz.num_parameters)
        weight = 7.25
        deflated = CliffordObjective(
            problem,
            ansatz,
            constraint=DeflationConstraint(points=(ground,), weight=weight),
        )
        rng = np.random.default_rng(0)
        for _ in range(10):
            point = tuple(int(v) for v in rng.integers(0, 4, ansatz.num_parameters))
            overlap = stabilizer_state_overlaps(
                plain.tableau(point), plain.tableau(ground)
            )[0, 0]
            assert deflated(point) == plain(point) + weight * overlap

    def test_batch_matches_pointwise_bit_for_bit(self, problem):
        ansatz = EfficientSU2Ansatz(problem.num_qubits, reps=1)
        constraint = DeflationConstraint(
            points=(tuple([0] * ansatz.num_parameters),
                    tuple([2] * ansatz.num_parameters)),
        )
        rng = np.random.default_rng(1)
        points = rng.integers(0, 4, size=(40, ansatz.num_parameters))
        batched = CliffordObjective(problem, ansatz, constraint=constraint)
        pointwise = CliffordObjective(problem, ansatz, constraint=constraint)
        assert np.array_equal(
            batched.evaluate_batch(points),
            np.array([pointwise(point) for point in points]),
        )

    def test_fingerprints_namespace_levels(self, problem):
        ansatz = EfficientSU2Ansatz(problem.num_qubits, reps=1)
        ground = tuple([0] * ansatz.num_parameters)
        plain = CliffordObjective(problem, ansatz)
        level1 = CliffordObjective(
            problem, ansatz, constraint=DeflationConstraint(points=(ground,))
        )
        level2 = CliffordObjective(
            problem,
            ansatz,
            constraint=DeflationConstraint(points=(ground, tuple([1] * ansatz.num_parameters))),
        )
        fingerprints = {
            objective_fingerprint(o) for o in (plain, level1, level2)
        }
        assert len(fingerprints) == 3  # each level caches separately
        assert plain.deflation_digest is None
        assert level1.deflation_digest != level2.deflation_digest

    def test_composite_constraint_stacks_pauli_and_overlap_parts(self, problem):
        ansatz = EfficientSU2Ansatz(problem.num_qubits, reps=1)
        ground = tuple([0] * ansatz.num_parameters)
        magnetization = PauliSum(
            [("IIZ", 1.0), ("IZI", 1.0), ("ZII", 1.0)], num_qubits=3
        )
        composite = CompositeConstraint(
            parts=(
                OperatorPenalty(operator=magnetization, target=3.0, weight=1.5),
                DeflationConstraint(points=(ground,), weight=5.0),
            )
        )
        objective = CliffordObjective(problem, ansatz, constraint=composite)
        assert len(list(composite.penalties(problem))) == 1
        assert composite.overlap_penalties() == [(ground, 5.0)]
        # |000> reference: magnetization penalty vanishes, deflation is full.
        assert objective(ground) == objective.energy(ground) + 5.0

    def test_deflation_constraint_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            DeflationConstraint(points=((0, 1),), weight=-1.0)
        zero = DeflationConstraint(points=((0, 1),), weight=0.0)
        assert zero.overlap_penalties() == []


# --------------------------------------------------------------------------- #
# the sequential driver
# --------------------------------------------------------------------------- #
class TestFindLowestStates:
    def test_single_state_matches_plain_orchestrated_run(self):
        problem = ising_chain(num_sites=3, transverse_field=1.0)
        report = run(RunSpec(problem=problem, max_evaluations=40, seed=0))
        spectrum = find_lowest_states(problem, num_states=1, max_evaluations=40, seed=0)
        assert spectrum.ground.energy == report.energy
        assert spectrum.ground.indices == report.best_indices

    def test_levels_record_deflation_in_checkpoints_and_resume(self, tmp_path):
        problem = ising_chain(num_sites=4, transverse_field=0.0)
        first = find_lowest_states(
            problem,
            num_states=2,
            max_evaluations=60,
            num_restarts=2,
            seed=0,
            checkpoint_dir=tmp_path,
        )
        payloads = [
            json.loads(path.read_text())
            for path in sorted(tmp_path.glob("restart_*.json"))
        ]
        assert len(payloads) == 4  # 2 levels x 2 restarts
        deflated = [p for p in payloads if "deflation" in p]
        assert len(deflated) == 2
        assert all(
            p["deflation"]["points"] == [first.ground.indices] for p in deflated
        )
        assert all(p["deflation"]["weights"] == [10.0] for p in deflated)
        # A second run resumes every level's restarts bit-identically.
        second = find_lowest_states(
            problem,
            num_states=2,
            max_evaluations=60,
            num_restarts=2,
            seed=0,
            checkpoint_dir=tmp_path,
        )
        assert second.energies == first.energies
        assert [level.indices for level in second.levels] == [
            level.indices for level in first.levels
        ]
        assert all(
            trace.from_checkpoint
            for level in second.levels
            for trace in level.result.traces
        )

    def test_caller_seed_points_are_augmented_not_displaced(self):
        """User-supplied seed_points must not shadow the deflation seeds:
        level 1 of the degenerate classical chain is only found by refining
        off the (penalized) level-0 state."""
        problem = ising_chain(num_sites=4, transverse_field=0.0)
        user_seed = [1] + [0] * 15
        spectrum = find_lowest_states(
            problem,
            num_states=2,
            max_evaluations=60,
            num_restarts=2,
            seed=0,
            seed_points=[user_seed],
        )
        assert spectrum.energies == [-3.0, -3.0]  # degenerate pair found

    def test_rejects_degenerate_requests(self):
        problem = ising_chain(num_sites=3)
        with pytest.raises(Exception, match="at least one state"):
            find_lowest_states(problem, num_states=0)
        with pytest.raises(Exception, match="must be positive"):
            find_lowest_states(problem, num_states=2, deflation_weight=0.0)
        # More states than the Hilbert space holds fails before any search.
        with pytest.raises(Exception, match="Hilbert space"):
            find_lowest_states(problem, num_states=9)


# --------------------------------------------------------------------------- #
# the acceptance contract: lowest-3 vs dense diagonalization
# --------------------------------------------------------------------------- #
class TestSpectrumContract:
    @pytest.mark.parametrize("num_sites,budget", [(4, 80), (8, 100)])
    def test_classical_ising_chain_matches_dense_spectrum(self, num_sites, budget):
        spec = RunSpec(
            problem="ising_chain",
            problem_options={"num_sites": num_sites, "transverse_field": 0.0},
            max_evaluations=budget,
            num_seeds=2,
            seed=0,
            num_states=3,
        )
        report = repro.run(spec)
        exact = report.exact_spectrum
        assert exact == sorted(np.linalg.eigvalsh(
            report.problem.hamiltonian.to_matrix()
        )[:3].tolist())
        assert report.state_energies == pytest.approx(exact, abs=1e-9)

    def test_xxz_chain_matches_dense_spectrum(self):
        spec = RunSpec(
            problem="xxz_chain",
            problem_options={"num_sites": 2},
            max_evaluations=80,
            num_seeds=2,
            seed=0,
            num_states=3,
        )
        report = repro.run(spec)
        # Singlet ground state, then the two lowest triplet levels.
        assert report.state_energies == pytest.approx(
            report.exact_spectrum, abs=1e-9
        )

    def test_h2_matches_dense_spectrum_within_tolerance(self, h2_stretched_problem):
        spec = RunSpec(
            problem="H2",
            problem_options={"bond_length": 2.5},
            max_evaluations=100,
            num_seeds=2,
            seed=0,
            num_states=3,
        )
        report = run(spec, problem=h2_stretched_problem)
        exact = exact_spectrum_of(h2_stretched_problem, 3)
        assert report.exact_spectrum == exact
        for found, reference in zip(report.state_energies, exact):
            assert abs(found - reference) < H2_SPECTRUM_TOLERANCE
        # Levels come out in (weakly) ascending plain energy.
        assert report.state_energies == sorted(report.state_energies)

    def test_spectrum_runs_rerun_bit_identically_with_vqe_stage(self):
        spec = RunSpec(
            problem="ising_chain",
            problem_options={"num_sites": 3, "transverse_field": 1.5},
            max_evaluations=40,
            seed=3,
            num_states=2,
            vqe_iterations=6,
        )
        first = repro.run(spec)
        second = repro.run(spec)
        assert second.state_energies == first.state_energies
        assert [level.indices for level in second.states.levels] == [
            level.indices for level in first.states.levels
        ]
        assert second.vqe.final_energy == first.vqe.final_energy
        assert second.vqe.history == first.vqe.history
