"""Chaos tests: orchestrated runs under injected worker crashes and hangs.

These tests kill real worker processes (``os._exit`` mid-evaluation), hang
them past the per-restart timeout so the scheduler terminates the pool, and
tear checkpoint/shard files mid-write — then assert the retry machinery
reproduces the fault-free run *bit for bit*.  They are excluded from the
fast tier-1 run (``-m "not chaos"``) and run in their own CI job with a hard
wall-clock ceiling: a scheduler bug here looks like a hang, not a failure.

The acceptance contract (ISSUE 6): an 8-seed orchestrated H2 run with faults
injected into two restarts — one crash, one hang past the timeout — must
complete under the retry policy and land the same pinned best energy as the
fault-free run.
"""

import json

import pytest

from repro.chemistry import make_problem
from repro.core import SearchOrchestrator
from chaos_faults import FAULT_DIR_ENV, FAULT_SPEC_ENV, HOOK_FILE
from repro.core.faults import FAULT_HOOKS_ENV, FailurePolicy
from repro.exceptions import IncompleteRunError

pytestmark = pytest.mark.chaos


@pytest.fixture(scope="module")
def h2_far_problem():
    """H2 at 3.5 A — same pinned problem as the orchestrator contract tests."""
    return make_problem("H2", 3.5)


def _set_faults(monkeypatch, tmp_path, plan):
    # ProcessPoolExecutor workers are forked after run() is called, so env
    # vars set here are inherited by every worker.
    monkeypatch.setenv(FAULT_SPEC_ENV, json.dumps(plan))
    monkeypatch.setenv(FAULT_DIR_ENV, str(tmp_path / "markers"))
    monkeypatch.setenv(FAULT_HOOKS_ENV, HOOK_FILE)


class TestChaosContract:
    def test_crash_and_hang_reproduce_fault_free_run(
        self, h2_far_problem, monkeypatch, tmp_path
    ):
        """The ISSUE 6 acceptance scenario: crash + hang, bit-identical result."""
        baseline = SearchOrchestrator(
            h2_far_problem, num_restarts=8, max_workers=2, seed=0
        ).run(max_evaluations=24)
        _set_faults(
            monkeypatch,
            tmp_path,
            [
                {"restart": 2, "mode": "crash", "at": 8},
                {"restart": 5, "mode": "hang", "at": 8, "times": 1},
            ],
        )
        result = SearchOrchestrator(
            h2_far_problem,
            num_restarts=8,
            max_workers=2,
            seed=0,
            failure_policy=FailurePolicy(max_retries=2, restart_timeout=3.0),
        ).run(max_evaluations=24, checkpoint_dir=tmp_path / "ckpt")

        # bit-for-bit identical to the uninterrupted run
        assert result.energies == baseline.energies
        assert [t.best_indices for t in result.traces] == [
            t.best_indices for t in baseline.traces
        ]
        assert result.best.energy == baseline.best.energy
        assert not result.is_partial

        crashed = result.traces[2]
        assert crashed.attempts >= 2
        assert any(f.error_type == "WorkerCrashError" for f in crashed.failures)
        hung = result.traces[5]
        assert hung.attempts >= 2
        assert any(f.error_type == "RestartTimeoutError" for f in hung.failures)
        assert result.wall_clock_lost_seconds > 0.0

    def test_corrupt_mode_resumes_from_torn_files(
        self, h2_far_problem, monkeypatch, tmp_path
    ):
        """A worker that tears its own checkpoint+shard mid-write, then dies."""
        baseline = SearchOrchestrator(
            h2_far_problem, num_restarts=2, max_workers=2, seed=0
        ).run(max_evaluations=24)
        _set_faults(
            monkeypatch, tmp_path, [{"restart": 0, "mode": "corrupt", "at": 8}]
        )
        result = SearchOrchestrator(
            h2_far_problem,
            num_restarts=2,
            max_workers=2,
            seed=0,
            failure_policy=FailurePolicy(max_retries=2),
        ).run(max_evaluations=24, checkpoint_dir=tmp_path / "ckpt")
        assert result.energies == baseline.energies
        assert result.traces[0].attempts >= 2

    def test_retries_exhausted_partial_returns_survivors(
        self, h2_far_problem, monkeypatch, tmp_path
    ):
        """With retries exhausted, ``partial`` yields survivors + metadata.

        ``raise`` mode (not ``crash``) keeps the fault inside one worker: an
        always-crashing fault breaks the shared pool and charges innocent
        in-flight siblings, which is correct scheduling but flaky to pin.
        """
        baseline = SearchOrchestrator(
            h2_far_problem, num_restarts=4, max_workers=2, seed=0
        ).run(max_evaluations=24)
        _set_faults(
            monkeypatch,
            tmp_path,
            [{"restart": 1, "mode": "raise", "at": 8, "times": 99}],
        )
        result = SearchOrchestrator(
            h2_far_problem,
            num_restarts=4,
            max_workers=2,
            seed=0,
            failure_policy=FailurePolicy(max_retries=1, on_incomplete="partial"),
        ).run(max_evaluations=24, checkpoint_dir=tmp_path / "ckpt")
        assert result.is_partial
        assert result.failed_restart_indices == [1]
        assert [t.restart_index for t in result.traces] == [0, 2, 3]
        survivors = [baseline.energies[i] for i in (0, 2, 3)]
        assert result.energies == survivors
        failure = result.failures[0]
        assert failure.attempts == 2  # max_retries=1 → two attempts
        assert failure.last_error.error_type == "InjectedFaultError"

    def test_retries_exhausted_raise_mode(
        self, h2_far_problem, monkeypatch, tmp_path
    ):
        _set_faults(
            monkeypatch,
            tmp_path,
            [{"restart": 1, "mode": "raise", "at": 8, "times": 99}],
        )
        with pytest.raises(IncompleteRunError) as excinfo:
            SearchOrchestrator(
                h2_far_problem,
                num_restarts=2,
                max_workers=2,
                seed=0,
                failure_policy=FailurePolicy(max_retries=1, on_incomplete="raise"),
            ).run(max_evaluations=24, checkpoint_dir=tmp_path / "ckpt")
        error = excinfo.value
        assert [f.restart_index for f in error.failures] == [1]
        assert error.result is not None  # the partial result rides along
        assert [t.restart_index for t in error.result.traces] == [0]


class TestChaosSweep:
    def test_sweep_records_one_crashed_point_and_finishes_the_rest(
        self, monkeypatch, tmp_path
    ):
        """ISSUE 7 acceptance: a campaign with one crashed worker still lands
        every other point, with the failure recorded in the aggregate report."""
        from repro.runspec import RunSpec
        from repro.sweepspec import SweepSpec, run_sweep

        # times=1 + a marker dir shared across the whole sweep: the crash
        # fires once (first point, restart 0) and never again.
        _set_faults(
            monkeypatch,
            tmp_path,
            [{"restart": 0, "mode": "crash", "at": 8, "times": 1}],
        )
        sweep = SweepSpec(
            base=RunSpec(
                problem="H2",
                problem_options={"bond_length": 3.5},
                max_evaluations=24,
                num_seeds=2,
                max_workers=2,
                seed=0,
                failure_policy={"max_retries": 0},
            ),
            axes={"seed": [0, 100]},
            cache_dir=str(tmp_path / "cache"),
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        report = run_sweep(sweep)
        assert report.is_partial
        assert report.num_completed == 1
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.index == 0
        assert failure.error_type == "IncompleteRunError"
        assert any(
            "WorkerCrashError" in (entry["last_error"] or "")
            for entry in failure.failed_restarts
        )
        survivor = report.runs[0]
        assert survivor.coords == {"seed": 100}
        assert survivor.summary["num_failed_restarts"] == 0
