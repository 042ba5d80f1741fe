"""The unified front door: RunSpec serialization, digests, and repro.run.

Pins the acceptance contract of the API redesign: a spec fully determines a
run (JSON round-trip, stable options digest shared with the checkpoint
layer), every run routes through the orchestrator (single-seed runs are
bit-identical to a direct ``CafqaSearch``; checkpointed runs resume), the
paper-style best-of-8-seeds H2 search reproduces the pinned PR-2/PR-3
energy bit-for-bit.
"""

import json

import pytest

import repro
from repro.circuits import EfficientSU2Ansatz
from repro.core import CafqaSearch, CliffordObjective
from repro.core.orchestrator import _OBJECTIVE_OPTIONS, options_digest
from repro.exceptions import IncompleteRunError, OptimizationError, ReproError
from repro.problems import ising_chain
from repro.runspec import RunSpec, run

# Best-of-8-seeds H2 @ 2.5 A, reps=2, seed 0, 400 evaluations — the value
# recorded in BENCH_orchestrator.json since PR 2 and unchanged by PR 3.
PINNED_H2_8SEED_ENERGY = -0.9316389097681868


# --------------------------------------------------------------------------- #
# serialization
# --------------------------------------------------------------------------- #
class TestRunSpecSerialization:
    def test_json_round_trip_preserves_everything(self):
        spec = RunSpec(
            problem="xxz_chain",
            problem_options={"num_sites": 4, "coupling_z": 0.5},
            ansatz_reps=2,
            max_evaluations=123,
            num_seeds=3,
            seed=7,
            max_workers=2,
            cache_dir="cache",
            checkpoint_dir="ckpt",
            checkpoint_interval=16,
            noise="casablanca_like",
            vqe_iterations=25,
            search_options={"warmup_fraction": 0.4, "local_refinement": False},
        )
        restored = RunSpec.from_json(spec.to_json())
        assert restored == spec
        # and the JSON itself is deterministic (sorted keys)
        assert spec.to_json() == restored.to_json()

    def test_unknown_fields_rejected(self):
        with pytest.raises(ReproError, match="unknown RunSpec fields"):
            RunSpec.from_dict({"problem": "H2", "budget": 10})
        with pytest.raises(ReproError, match="needs a problem"):
            RunSpec.from_dict({"max_evaluations": 10})
        with pytest.raises(ReproError, match="must be an object"):
            RunSpec.from_json("[1, 2]")

    def test_problem_instances_do_not_serialize(self):
        spec = RunSpec(problem=ising_chain(num_sites=3))
        assert spec.problem_label.startswith("ising_chain")
        with pytest.raises(ReproError, match="cannot be serialized"):
            spec.to_dict()

    def test_problem_options_require_a_registry_name(self):
        spec = RunSpec(
            problem=ising_chain(num_sites=3), problem_options={"num_sites": 4}
        )
        with pytest.raises(ReproError, match="registry name"):
            spec.resolve_problem()

    def test_spec_copies_caller_owned_option_dicts(self):
        """Regression: RunSpec used to alias the caller's dicts, so mutating
        the payload after construction silently changed the spec and its
        options digest."""
        problem_options = {"bond_length": 2.5}
        search_options = {"warmup_fraction": 0.5, "seed_points": [[0, 1, 2, 3]]}
        spec = RunSpec(
            problem="H2",
            problem_options=problem_options,
            search_options=search_options,
        )
        digest = spec.options_digest()
        problem_options["bond_length"] = 99.0
        search_options["warmup_fraction"] = 0.9
        search_options["local_refinement"] = False
        search_options["seed_points"][0][0] = 3  # nested mutation too
        assert spec.problem_options == {"bond_length": 2.5}
        assert spec.search_options == {
            "warmup_fraction": 0.5,
            "seed_points": [[0, 1, 2, 3]],
        }
        assert spec.options_digest() == digest

    def test_from_dict_payload_mutation_leaves_the_spec_unchanged(self):
        payload = {
            "problem": "xxz_chain",
            "problem_options": {"num_sites": 4},
            "search_options": {"warmup_fraction": 0.4},
        }
        spec = RunSpec.from_dict(payload)
        reference_json = spec.to_json()
        digest = spec.options_digest()
        payload["problem_options"]["num_sites"] = 12
        payload["search_options"]["warmup_fraction"] = 0.9
        assert spec.to_json() == reference_json
        assert spec.options_digest() == digest


# --------------------------------------------------------------------------- #
# options digest (shared with the checkpoint layer)
# --------------------------------------------------------------------------- #
class TestOptionsDigest:
    def test_digest_is_stable_and_option_sensitive(self):
        base = RunSpec(problem="H2", search_options={"warmup_fraction": 0.5})
        same = RunSpec.from_json(base.to_json())
        other = RunSpec(problem="H2", search_options={"warmup_fraction": 0.6})
        assert base.options_digest() == same.options_digest()
        assert base.options_digest() != other.options_digest()

    def test_digest_matches_orchestrator_convention(self):
        # Objective options (constraint / spin_z_target / penalty_weight)
        # are split off before digesting, exactly as the orchestrator does.
        loop_options = {"warmup_fraction": 0.5, "local_refinement": False}
        spec = RunSpec(
            problem="H2",
            search_options={**loop_options, "spin_z_target": 1.0},
        )
        assert "spin_z_target" in _OBJECTIVE_OPTIONS
        assert spec.options_digest() == options_digest(loop_options)

    def test_checkpoints_written_by_run_carry_the_spec_digest(
        self, h2_stretched_problem, tmp_path
    ):
        spec = RunSpec(
            problem="H2",
            max_evaluations=40,
            num_seeds=2,
            seed=1,
            checkpoint_dir=str(tmp_path),
        )
        first = run(spec, problem=h2_stretched_problem)
        payloads = [
            json.loads(path.read_text()) for path in sorted(tmp_path.glob("restart_*.json"))
        ]
        assert len(payloads) == 2
        assert all(p["options_digest"] == spec.options_digest() for p in payloads)
        # A second run of the same spec resumes every restart bit-for-bit.
        second = run(spec, problem=h2_stretched_problem)
        assert all(trace.from_checkpoint for trace in second.result.traces)
        assert second.energy == first.energy
        assert second.best_indices == first.best_indices


# --------------------------------------------------------------------------- #
# the front door
# --------------------------------------------------------------------------- #
class TestRunFrontDoor:
    def test_single_seed_run_matches_direct_search(self, h2_stretched_problem):
        ansatz = EfficientSU2Ansatz(h2_stretched_problem.num_qubits, reps=1)
        direct = CafqaSearch(
            CliffordObjective(h2_stretched_problem, ansatz), seed=4
        ).run(max_evaluations=50)
        report = run(
            RunSpec(problem="H2", max_evaluations=50, num_seeds=1, seed=4),
            problem=h2_stretched_problem,
        )
        assert report.energy == direct.energy
        assert report.best_indices == direct.best_indices
        assert report.best.constrained_energy == direct.constrained_energy
        assert report.reference_energy == h2_stretched_problem.hf_energy

    def test_storeless_run_memoizes_like_a_fresh_cache(
        self, h2_stretched_problem, tmp_path
    ):
        """Without a store the restart still memoizes, exactly as a cold cache does."""
        spec = RunSpec(problem="H2", max_evaluations=40, seed=3)
        storeless = run(spec, problem=h2_stretched_problem)
        cached = run(
            RunSpec(problem="H2", max_evaluations=40, seed=3, cache_dir=str(tmp_path)),
            problem=h2_stretched_problem,
        )
        (trace,), (cached_trace,) = storeless.result.traces, cached.result.traces
        assert trace.cache_hits > 0
        assert (trace.cache_hits, trace.cache_misses) == (
            cached_trace.cache_hits,
            cached_trace.cache_misses,
        )
        assert trace.observations == cached_trace.observations
        assert storeless.energy == cached.energy

    def test_spec_can_carry_a_problem_instance(self):
        spec = RunSpec(problem=ising_chain(num_sites=3), max_evaluations=30, seed=0)
        report = repro.run(spec)
        assert report.problem.num_qubits == 3
        assert report.energy <= report.reference_energy + 1e-9

    def test_vqe_stage_runs_after_the_search(self):
        spec = RunSpec(
            problem="ising_chain",
            problem_options={"num_sites": 3, "transverse_field": 1.5},
            max_evaluations=40,
            seed=0,
            vqe_iterations=10,
        )
        report = repro.run(spec)
        assert report.vqe is not None
        assert report.vqe.initial_label == "cafqa"
        assert not report.vqe.noisy
        assert report.final_energy <= report.energy + 1e-9
        assert "vqe_final_energy" in report.to_dict()

    def test_noise_without_a_vqe_stage_is_rejected(self, h2_problem):
        spec = RunSpec(problem="H2", max_evaluations=20, noise="casablanca_like")
        with pytest.raises(ReproError, match="vqe_iterations"):
            run(spec, problem=h2_problem)

    def test_noise_preset_reaches_the_vqe_stage(self, h2_problem):
        spec = RunSpec(
            problem="H2",
            max_evaluations=30,
            seed=0,
            vqe_iterations=5,
            noise="casablanca_like",
        )
        report = run(spec, problem=h2_problem)
        assert report.vqe is not None
        assert report.vqe.noisy

    def test_vqe_stage_is_seeded_by_the_spec(self, h2_problem):
        """Regression: VQERunner hard-coded SPSA(seed=0), so the VQE stage was
        identical across RunSpec seeds and the spec-determines-trajectory
        contract was broken."""
        from repro.core import VQERunner

        def vqe_history(seed):
            spec = RunSpec(
                problem="H2", max_evaluations=30, seed=seed, vqe_iterations=8
            )
            return run(spec, problem=h2_problem).vqe

        first, second = vqe_history(11), vqe_history(11)
        assert second.history == first.history  # same spec => bit-identical
        other = vqe_history(12)
        assert other.history != first.history  # seed reaches the SPSA stream
        # The stage matches a hand-seeded VQERunner on the same initialization.
        report = run(
            RunSpec(problem="H2", max_evaluations=30, seed=11, vqe_iterations=8),
            problem=h2_problem,
        )
        manual = VQERunner(
            h2_problem, ansatz=report.best.ansatz, seed=11
        ).run_from_cafqa(report.best, max_iterations=8)
        assert manual.final_energy == report.vqe.final_energy
        assert manual.history == report.vqe.history

    def test_vqe_runner_default_seed_is_backward_compatible(self, h2_problem):
        """VQERunner() without a seed still behaves like the historic
        SPSA(seed=0) default."""
        from repro.core import VQERunner
        from repro.optim.spsa import SPSA

        legacy = VQERunner(
            h2_problem, optimizer=SPSA(seed=0)
        ).run_from_reference(max_iterations=6)
        default = VQERunner(h2_problem).run_from_reference(max_iterations=6)
        assert default.history == legacy.history

    @pytest.mark.parametrize(
        "search_options",
        [
            {"warmup_fraction": 1.0},
            {"warmup_fractoin": 0.4},
            {"ansatz_reps": 2},
            {"ansatz": None},
        ],
        ids=["bad-value", "misspelt-name", "ansatz-reps", "ansatz"],
    )
    def test_bad_search_option_fails_before_any_restart(
        self, tmp_path, search_options
    ):
        spec = RunSpec(
            problem="ising_chain",
            problem_options={"num_sites": 3},
            max_workers=1,
            max_evaluations=20,
            checkpoint_dir=str(tmp_path / "ckpt"),
            search_options=search_options,
        )
        with pytest.raises(OptimizationError):
            repro.run(spec)
        assert not list(tmp_path.rglob("restart_*.json"))

    def test_incomplete_run_reports_attempts_actually_made(self):
        """A deterministic failure stops after one attempt; the message must
        not claim the policy's whole retry budget was spent."""
        spec = RunSpec(
            problem="ising_chain",
            problem_options={"num_sites": 3},
            max_workers=1,
            max_evaluations=20,
            search_options={"proposal_batch": 0},
        )
        with pytest.raises(IncompleteRunError) as excinfo:
            repro.run(spec)
        (failure,) = excinfo.value.failures
        assert failure.attempts == 1
        message = str(excinfo.value)
        assert "3 attempt" not in message
        assert "attempts=1" in message

    def test_pinned_8_seed_h2_energy_reproduces(self):
        """Acceptance pin: the PR-2/PR-3 best-of-8-seeds H2 search through
        the new front door is bit-for-bit the recorded benchmark energy."""
        spec = RunSpec(
            problem="H2",
            problem_options={"bond_length": 2.5},
            ansatz_reps=2,
            max_evaluations=400,
            num_seeds=8,
            seed=0,
        )
        report = repro.run(spec)
        assert report.energy == PINNED_H2_8SEED_ENERGY
        assert report.result.num_restarts == 8
