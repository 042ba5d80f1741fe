"""Fault-tolerant orchestration: policy, taxonomy, retries, and recovery.

These are the *fast* fault-tolerance tests: everything runs inline
(``max_workers=1``) or against tiny Ising problems so no process pool, no
chemistry, and no wall-clock timeouts are involved.  The end-to-end chaos
scenarios (worker crashes, hangs killed by the pool scheduler, corrupted
files mid-run) live in ``test_chaos.py`` behind the ``chaos`` marker.
"""

import json
import os

import numpy as np
import pytest

from chaos_faults import (
    FAULT_DIR_ENV,
    FAULT_SPEC_ENV,
    HOOK_FILE,
    SERVICE_FAULT_ENV,
    FaultInjectingObjective,
    FaultSpec,
    InjectedFaultError,
    faults_for_restart,
    load_fault_plan,
    load_service_fault_plan,
)
from repro.core.faults import FAULT_HOOKS_ENV, FailurePolicy
from repro.core.evalcache import EvaluationCache
from repro.exceptions import (
    DeterministicRestartError,
    IncompleteRunError,
    OptimizationError,
    ReproError,
    RestartTimeoutError,
    TransientRestartError,
    WorkerCrashError,
    is_transient_failure,
)
from repro.io import write_json_atomic
from repro.problems import ising_chain
from repro.runspec import RunSpec, run


@pytest.fixture(scope="module")
def chain_problem():
    """A 3-site transverse-field Ising chain: cheap, no chemistry."""
    return ising_chain(num_sites=3, transverse_field=1.0)


def _search(problem, **fields):
    """The merged result of ``repro.run`` on ``problem`` with these spec fields."""
    return run(RunSpec(problem=problem, **fields), problem=problem).result


# --------------------------------------------------------------------------- #
# FailurePolicy
# --------------------------------------------------------------------------- #
class TestFailurePolicy:
    def test_defaults(self):
        policy = FailurePolicy()
        assert policy.max_retries == 2
        assert policy.max_attempts == 3
        assert policy.restart_timeout is None
        assert policy.on_incomplete == "raise"

    def test_validation(self):
        with pytest.raises(OptimizationError):
            FailurePolicy(max_retries=-1)
        with pytest.raises(OptimizationError):
            FailurePolicy(restart_timeout=0.0)
        with pytest.raises(OptimizationError):
            FailurePolicy(backoff_seconds=-1.0)
        with pytest.raises(OptimizationError):
            FailurePolicy(backoff_multiplier=0.5)
        with pytest.raises(OptimizationError):
            FailurePolicy(on_incomplete="shrug")

    def test_dict_roundtrip(self):
        policy = FailurePolicy(
            max_retries=1, restart_timeout=5.0, backoff_seconds=0.1,
            on_incomplete="partial",
        )
        assert FailurePolicy.from_dict(policy.to_dict()) == policy
        assert json.loads(json.dumps(policy.to_dict())) == policy.to_dict()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ReproError, match="unknown FailurePolicy"):
            FailurePolicy.from_dict({"max_retries": 1, "max_retrees": 2})

    def test_coerce(self):
        assert FailurePolicy.coerce(None) == FailurePolicy()
        policy = FailurePolicy(max_retries=0)
        assert FailurePolicy.coerce(policy) is policy
        assert FailurePolicy.coerce({"max_retries": 5}).max_retries == 5
        with pytest.raises(ReproError):
            FailurePolicy.coerce("retry hard")

    def test_backoff_is_deterministic_and_capped(self):
        policy = FailurePolicy(backoff_seconds=1.0, max_backoff_seconds=3.0)
        delay = policy.backoff_delay(seed=7, restart_index=2, attempt=1)
        assert delay == policy.backoff_delay(seed=7, restart_index=2, attempt=1)
        assert 0.5 <= delay <= 1.0
        assert delay != policy.backoff_delay(seed=8, restart_index=2, attempt=1)
        # exponential growth hits the cap
        assert policy.backoff_delay(seed=7, restart_index=2, attempt=9) == 3.0

    def test_zero_backoff_means_no_wait(self):
        assert FailurePolicy().backoff_delay(0, 0, 1) == 0.0


# --------------------------------------------------------------------------- #
# failure taxonomy
# --------------------------------------------------------------------------- #
class TestTaxonomy:
    def test_transient_exception_classes(self):
        assert is_transient_failure(TransientRestartError("x"))
        assert is_transient_failure(WorkerCrashError("x"))
        assert is_transient_failure(RestartTimeoutError("x"))
        assert is_transient_failure(InjectedFaultError("x"))
        assert not is_transient_failure(DeterministicRestartError("x"))

    def test_transient_builtins(self):
        from concurrent.futures.process import BrokenProcessPool

        assert is_transient_failure(BrokenProcessPool("pool died"))
        assert is_transient_failure(OSError("disk hiccup"))
        assert is_transient_failure(TimeoutError("slow"))
        assert is_transient_failure(MemoryError())

    def test_deterministic_failures(self):
        assert not is_transient_failure(ValueError("bad input"))
        assert not is_transient_failure(OptimizationError("logic bug"))
        assert not is_transient_failure(TypeError("wrong type"))


# --------------------------------------------------------------------------- #
# fault plan parsing
# --------------------------------------------------------------------------- #
class TestFaultPlan:
    def test_absent_and_empty_mean_no_faults(self):
        assert load_fault_plan({}) == []
        assert load_fault_plan({FAULT_SPEC_ENV: "  "}) == []

    def test_parses_and_sorts_per_restart(self):
        plan = json.dumps(
            [
                {"restart": 1, "mode": "raise", "at": 9},
                {"restart": 0, "mode": "crash", "at": 4},
                {"restart": 1, "mode": "hang", "at": 3},
            ]
        )
        environ = {FAULT_SPEC_ENV: plan}
        assert len(load_fault_plan(environ)) == 3
        mine = faults_for_restart(1, environ)
        assert [f.mode for f in mine] == ["hang", "raise"]
        assert faults_for_restart(5, environ) == []

    def test_malformed_plans_raise(self):
        """Both plan variables reject the same malformations, ``times: 0`` too."""
        plans = [
            (FAULT_SPEC_ENV, load_fault_plan, {"restart": 0, "mode": "crash"}),
            (
                SERVICE_FAULT_ENV,
                load_service_fault_plan,
                {"event": "post_claim", "mode": "crash"},
            ),
        ]
        for env_var, load, valid in plans:

            def parse(entry):
                return load({env_var: json.dumps([entry])})

            assert len(parse(valid)) == 1
            with pytest.raises(ReproError, match="not valid JSON"):
                load({env_var: "{oops"})
            with pytest.raises(ReproError, match="JSON list"):
                load({env_var: json.dumps(valid)})
            with pytest.raises(ReproError, match="entries must be JSON objects"):
                load({env_var: "[1]"})
            with pytest.raises(ReproError, match="unknown fault fields"):
                parse({**valid, "when": 3})
            with pytest.raises(ReproError, match="mode"):
                parse({**valid, "mode": "explode"})
            with pytest.raises(ReproError, match="'times'"):
                parse({**valid, "times": 0})
        with pytest.raises(ReproError, match="event"):
            load_service_fault_plan(
                {SERVICE_FAULT_ENV: '[{"event": "mid_lease", "mode": "crash"}]'}
            )
        with pytest.raises(ReproError, match="'at'"):
            FaultSpec(restart=0, mode="crash", at=0)

    def test_marker_files_bound_firings_across_wrappers(self, tmp_path):
        fault = FaultSpec(restart=0, mode="raise", at=2, times=1)

        class Objective:
            def evaluate_batch(self, points):
                return np.zeros(len(points))

        objective = Objective()
        first = FaultInjectingObjective(
            objective, [fault], restart_index=0, marker_dir=tmp_path
        )
        first(None)
        with pytest.raises(InjectedFaultError):
            first(None)
        # a fresh wrapper (a retried attempt in a new process) sees the marker
        second = FaultInjectingObjective(
            objective, [fault], restart_index=0, marker_dir=tmp_path
        )
        second(None)
        second(None)
        second(None)
        marker = tmp_path / "fault_r000_0.fired"
        assert marker.read_text().splitlines() == ["raise@2"]


# --------------------------------------------------------------------------- #
# satellite: cache-shard robustness + atomic checkpoint writes
# --------------------------------------------------------------------------- #
class TestShardRobustness:
    def test_wrong_shaped_valid_json_lines_are_skipped(self, tmp_path):
        shard = tmp_path / "evals_bad.jsonl"
        rows = [
            json.dumps(["fp", [1, 2], -1.5]),
            json.dumps(["fp", "not-a-point", -2.0]),  # point not iterable of ints
            json.dumps(["fp", [3, "x"], -2.0]),  # non-integer coordinate
            json.dumps(["fp", [4], "not-a-number"]),  # value not a float
            json.dumps(["fp"]),  # wrong arity
            '["torn-by-fault-injection", [',  # torn tail, invalid JSON
            json.dumps(["fp", [5, 6], -3.0]),
        ]
        shard.write_text("\n".join(rows) + "\n")
        cache = EvaluationCache(tmp_path)
        assert cache.get("fp", (1, 2)) == -1.5
        assert cache.get("fp", (5, 6)) == -3.0
        assert len(cache) == 2

    def test_atomic_write_fsyncs_before_rename(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd)))
        replaced = []
        real_replace = os.replace
        monkeypatch.setattr(
            os,
            "replace",
            lambda src, dst: (
                replaced.append(len(synced)), real_replace(src, dst))[1],
        )
        target = tmp_path / "checkpoint.json"
        write_json_atomic(target, {"format": 1, "status": "finished"})
        assert json.loads(target.read_text()) == {"format": 1, "status": "finished"}
        # the temp file was fsynced before os.replace made it visible
        assert replaced and replaced[0] >= 1
        assert not list(tmp_path.glob("*.tmp*"))

    def test_truncated_checkpoint_is_stale_not_fatal(self, chain_problem, tmp_path):
        clean = _search(chain_problem, seed=3, max_evaluations=16, checkpoint_dir=tmp_path)
        checkpoint = next(tmp_path.glob("restart_*.json"))
        payload = checkpoint.read_text()
        checkpoint.write_text(payload[: len(payload) // 2])  # torn mid-write
        rerun = _search(chain_problem, seed=3, max_evaluations=16, checkpoint_dir=tmp_path)
        assert rerun.best.energy == clean.best.energy
        assert rerun.best.best_indices == clean.best.best_indices

    def test_zero_byte_checkpoint_is_stale_not_fatal(self, chain_problem, tmp_path):
        clean = _search(chain_problem, seed=3, max_evaluations=16, checkpoint_dir=tmp_path)
        next(tmp_path.glob("restart_*.json")).write_text("")
        rerun = _search(chain_problem, seed=3, max_evaluations=16, checkpoint_dir=tmp_path)
        assert rerun.best.energy == clean.best.energy


# --------------------------------------------------------------------------- #
# satellite: kill-mid-write recovery
# --------------------------------------------------------------------------- #
class TestKillMidWriteRecovery:
    def test_torn_shard_and_half_checkpoint_resume_bit_identically(
        self, chain_problem, tmp_path
    ):
        clean_dir = tmp_path / "clean"
        torn_dir = tmp_path / "torn"
        fields = dict(num_seeds=2, seed=0, max_evaluations=24)
        clean = _search(chain_problem, checkpoint_dir=clean_dir, **fields)
        # first pass populates shards + checkpoints, then we simulate a kill
        _search(chain_problem, checkpoint_dir=torn_dir, **fields)
        shard = next(torn_dir.glob("evals_*.jsonl"))
        with open(shard, "a") as handle:
            handle.write('["fp", [1, ')  # writer killed mid-line
        checkpoint = sorted(torn_dir.glob("restart_*.json"))[0]
        checkpoint.write_text('{"format": 1, "status": "do')  # half-written
        resumed = _search(chain_problem, checkpoint_dir=torn_dir, **fields)
        assert resumed.energies == clean.energies
        assert [t.best_indices for t in resumed.traces] == [
            t.best_indices for t in clean.traces
        ]
        # the torn checkpoint's restart re-ran off the surviving shard lines
        assert resumed.total_cache_hits > 0


# --------------------------------------------------------------------------- #
# retries, fail-fast, and partial results (one worker, in-process)
# --------------------------------------------------------------------------- #
class TestRetries:
    def _run(self, problem, monkeypatch, tmp_path, plan, policy, restarts=3):
        monkeypatch.setenv(FAULT_SPEC_ENV, json.dumps(plan))
        monkeypatch.setenv(FAULT_DIR_ENV, str(tmp_path / "markers"))
        monkeypatch.setenv(FAULT_HOOKS_ENV, HOOK_FILE)
        return _search(
            problem, num_seeds=restarts, max_workers=1, seed=0, max_evaluations=24,
            checkpoint_dir=tmp_path / "ckpt", failure_policy=policy,
        )

    def test_transient_fault_is_retried_bit_identically(
        self, chain_problem, monkeypatch, tmp_path
    ):
        baseline = _search(
            chain_problem, num_seeds=3, max_workers=1, seed=0, max_evaluations=24
        )
        result = self._run(
            chain_problem, monkeypatch, tmp_path,
            plan=[{"restart": 1, "mode": "raise", "at": 5, "times": 1}],
            policy=FailurePolicy(max_retries=2),
        )
        assert result.energies == baseline.energies
        assert not result.is_partial
        trace = result.traces[1]
        assert trace.attempts == 2
        assert len(trace.failures) == 1
        assert trace.failures[0].error_type == "InjectedFaultError"
        assert trace.failures[0].transient
        assert result.total_attempts == 4
        # untouched restarts carry clean metadata
        assert result.traces[0].attempts == 1 and not result.traces[0].failures

    def test_transient_fault_inside_refinement_is_retried_bit_identically(
        self, chain_problem, monkeypatch, tmp_path
    ):
        max_evaluations = 24
        baseline = _search(
            chain_problem, num_seeds=2, max_workers=1, seed=0, max_evaluations=max_evaluations
        )
        at = max_evaluations + 7  # past warm-up and proposals: inside refinement
        result = self._run(
            chain_problem, monkeypatch, tmp_path,
            plan=[{"restart": 1, "mode": "raise", "at": at, "times": 1}],
            policy=FailurePolicy(max_retries=2),
            restarts=2,
        )
        marker = tmp_path / "markers" / "fault_r001_0.fired"
        fired_at = int(marker.read_text().strip().split("@")[1])
        assert fired_at >= at
        trace, expected = result.traces[1], baseline.traces[1]
        assert trace.attempts == 2 and trace.failures[0].transient
        refine = [o for o in expected.observations if o.phase == "refine"]
        assert refine and fired_at <= refine[-1].iteration
        assert [(o.point, o.value, o.iteration, o.phase) for o in trace.observations] == [
            (o.point, o.value, o.iteration, o.phase) for o in expected.observations
        ]
        assert result.energies == baseline.energies
        assert trace.constrained_energy == expected.constrained_energy

    def test_deterministic_fault_fails_fast(
        self, chain_problem, monkeypatch, tmp_path
    ):
        with pytest.raises(IncompleteRunError) as excinfo:
            self._run(
                chain_problem, monkeypatch, tmp_path,
                plan=[{"restart": 0, "mode": "raise", "at": 3,
                       "times": 99, "transient": False}],
                policy=FailurePolicy(max_retries=3),
            )
        error = excinfo.value
        assert len(error.failures) == 1
        failure = error.failures[0]
        assert failure.restart_index == 0
        assert failure.attempts == 1  # no retry burned on a deterministic bug
        assert failure.last_error.error_type == "DeterministicRestartError"
        assert error.result is not None and error.result.is_partial

    def test_partial_mode_returns_survivors_with_metadata(
        self, chain_problem, monkeypatch, tmp_path
    ):
        baseline = _search(
            chain_problem, num_seeds=3, max_workers=1, seed=0, max_evaluations=24
        )
        result = self._run(
            chain_problem, monkeypatch, tmp_path,
            plan=[{"restart": 2, "mode": "raise", "at": 3,
                   "times": 99, "transient": False}],
            policy=FailurePolicy(on_incomplete="partial"),
        )
        assert result.is_partial
        assert result.num_failed_restarts == 1
        assert result.failed_restart_indices == [2]
        assert [t.restart_index for t in result.traces] == [0, 1]
        assert result.energies == baseline.energies[:2]
        assert "partial" in repr(result)

    def test_raise_mode_when_every_restart_fails(
        self, chain_problem, monkeypatch, tmp_path
    ):
        with pytest.raises(IncompleteRunError, match="2 of 2 restarts failed"):
            self._run(
                chain_problem, monkeypatch, tmp_path,
                plan=[{"restart": 0, "mode": "raise", "at": 1,
                       "times": 99, "transient": False},
                      {"restart": 1, "mode": "raise", "at": 1,
                       "times": 99, "transient": False}],
                policy=FailurePolicy(on_incomplete="partial"),
                restarts=2,
            )


# --------------------------------------------------------------------------- #
# VQE timeout
# --------------------------------------------------------------------------- #
class TestVQETimeout:
    def test_timeout_returns_graceful_partial(self, chain_problem):
        from repro.core import VQERunner

        runner = VQERunner(chain_problem, seed=0)
        initial = runner.reference_parameters()
        result = runner.run(initial, max_iterations=50, timeout_seconds=1e-9)
        assert result.timed_out
        assert not result.trace.converged
        assert result.final_energy <= result.initial_energy + 1e-12
        assert len(result.best_parameters) == len(initial)

    def test_no_timeout_path_is_unchanged(self, chain_problem):
        from repro.core import VQERunner

        runner = VQERunner(chain_problem, seed=0)
        initial = runner.reference_parameters()
        plain = runner.run(initial, max_iterations=8)
        timed = VQERunner(chain_problem, seed=0).run(
            initial, max_iterations=8, timeout_seconds=3600.0
        )
        assert not plain.timed_out and not timed.timed_out
        assert timed.final_energy == plain.final_energy
        np.testing.assert_array_equal(timed.best_parameters, plain.best_parameters)

    def test_rejects_nonpositive_timeout(self, chain_problem):
        from repro.core import VQERunner

        runner = VQERunner(chain_problem, seed=0)
        with pytest.raises(OptimizationError):
            runner.run(runner.reference_parameters(), timeout_seconds=0.0)


# --------------------------------------------------------------------------- #
# RunSpec plumbing
# --------------------------------------------------------------------------- #
class TestRunSpecPlumbing:
    def test_failure_policy_roundtrips_through_json(self):
        spec = RunSpec(
            problem="ising_chain",
            problem_options={"num_sites": 3},
            failure_policy={"max_retries": 1, "on_incomplete": "partial"},
            vqe_timeout_seconds=12.5,
        )
        clone = RunSpec.from_json(spec.to_json())
        assert clone.resolve_failure_policy() == FailurePolicy(
            max_retries=1, on_incomplete="partial"
        )
        assert clone.vqe_timeout_seconds == 12.5
        # an instance-valued policy serializes too (asdict recurses dataclasses)
        spec2 = RunSpec(
            problem="ising_chain",
            failure_policy=FailurePolicy(max_retries=4),
        )
        assert RunSpec.from_json(
            spec2.to_json()
        ).resolve_failure_policy().max_retries == 4

    def test_failure_policy_does_not_change_options_digest(self):
        plain = RunSpec(problem="ising_chain", problem_options={"num_sites": 3})
        tolerant = RunSpec(
            problem="ising_chain",
            problem_options={"num_sites": 3},
            failure_policy={"max_retries": 9},
            vqe_timeout_seconds=1.0,
        )
        assert plain.options_digest() == tolerant.options_digest()

    def test_report_carries_failure_metadata(self, monkeypatch, tmp_path):
        import repro

        monkeypatch.setenv(
            FAULT_SPEC_ENV,
            json.dumps([{"restart": 1, "mode": "raise", "at": 3,
                         "times": 99, "transient": False}]),
        )
        monkeypatch.setenv(FAULT_DIR_ENV, str(tmp_path))
        monkeypatch.setenv(FAULT_HOOKS_ENV, HOOK_FILE)
        report = repro.run(
            RunSpec(
                problem="ising_chain",
                problem_options={"num_sites": 3},
                num_seeds=2,
                max_evaluations=16,
                max_workers=1,
                failure_policy={"on_incomplete": "partial"},
            )
        )
        assert report.is_partial
        payload = report.to_dict()
        assert payload["num_failed_restarts"] == 1
        assert payload["total_attempts"] >= 2
        assert payload["failed_restarts"][0]["restart_index"] == 1
        assert "DeterministicRestartError" in payload["failed_restarts"][0]["last_error"]
