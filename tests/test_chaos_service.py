"""Service-layer chaos: workers killed mid-lease, crashes between transitions.

The acceptance contract (ISSUE 8): submit a small job queue, ``kill -9`` a
worker while it holds a lease, and the system must converge — the dead
worker's job is reclaimed after TTL expiry and the retry, resuming from the
per-job checkpoints and the shared sqlite evaluation cache, lands an energy
bit-identical to an uninterrupted in-process run.  Crash-mode faults
(``os._exit`` at a lifecycle event) run in subprocess CLI workers so they
cannot take pytest down with them; raise-mode faults run in-process.

Like ``test_chaos.py`` these are excluded from tier-1 (``-m "not chaos"``)
and run in their own CI job under a hard wall-clock ceiling.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from chaos_faults import FAULT_DIR_ENV, HOOK_FILE, SERVICE_FAULT_ENV, marker_dir
from repro.core.faults import FAULT_HOOKS_ENV
from repro.runspec import RunSpec
from repro.service import ServiceWorker, open_store

pytestmark = pytest.mark.chaos

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def chain_spec(seed=0, num_sites=6, max_evaluations=400):
    """A single-seed job: the run executes inline in the worker process, so
    SIGKILLing the worker kills the search itself (no orphan pool children)."""
    return RunSpec(
        problem="ising_chain",
        problem_options={"num_sites": num_sites},
        max_evaluations=max_evaluations,
        num_seeds=1,
        seed=seed,
    )


def spawn_cli_worker(data, worker_id, lease_ttl=2.0, extra_env=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra_env or {})
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.service", "work",
            "--data", str(data),
            "--lease-ttl", str(lease_ttl),
            "--poll-interval", "0.1",
            "--worker-id", worker_id,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def wait_until(predicate, timeout, message):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    pytest.fail(f"timed out after {timeout}s waiting for {message}")


class TestSigkillReclaim:
    def test_killed_worker_job_reclaimed_bit_identical(self, tmp_path):
        """The acceptance scenario: 3 jobs, SIGKILL one worker mid-lease."""
        data = tmp_path / "svc"
        specs = [chain_spec(seed=seed) for seed in range(3)]
        baselines = {
            spec.run_digest(): repro.run(spec).energy for spec in specs
        }
        with open_store(data) as store:
            for spec in specs:
                store.submit(spec)

        victim = spawn_cli_worker(data, "victim", lease_ttl=2.0)
        try:
            with open_store(data) as store:
                wait_until(
                    lambda: store.counts()["leased"] >= 1,
                    timeout=60.0,
                    message="the victim to claim a job",
                )
            time.sleep(0.8)  # now mid-search, well inside the ~2.6s job
            victim.kill()
            victim.wait(timeout=30.0)
        finally:
            if victim.poll() is None:
                victim.kill()

        # A second worker drains the queue; the killed job becomes claimable
        # once its (real-clock) lease TTL runs out, so keep polling past the
        # first empty claim instead of exiting on it.
        stats = ServiceWorker(
            data, worker_id="survivor", lease_ttl=10.0,
            poll_interval=0.2, idle_timeout=8.0,
        ).run()
        assert stats.failed == 0

        with open_store(data) as store:
            records = store.jobs()
            assert [record.state for record in records] == ["done"] * 3
            reclaimed = [record for record in records if record.attempts >= 2]
            assert len(reclaimed) == 1  # exactly the job the victim died with
            for record in records:
                summary = store.result(record.digest)
                assert summary["energy"] == baselines[record.digest]

    def test_drain_signal_finishes_job_then_exits(self, tmp_path):
        """SIGTERM is graceful: the job in hand completes, nothing is lost."""
        data = tmp_path / "svc"
        spec = chain_spec(seed=0)
        with open_store(data) as store:
            digest = store.submit(spec).digest

        worker = spawn_cli_worker(data, "drained", lease_ttl=30.0)
        try:
            with open_store(data) as store:
                wait_until(
                    lambda: store.counts()["leased"] >= 1,
                    timeout=60.0,
                    message="the worker to claim the job",
                )
            worker.send_signal(signal.SIGTERM)
            output, _ = worker.communicate(timeout=60.0)
        finally:
            if worker.poll() is None:
                worker.kill()

        assert worker.returncode == 0
        stats = json.loads(output.strip().splitlines()[-1])
        assert stats["completed"] == 1 and stats["stopped_by_request"]
        with open_store(data) as store:
            assert store.get(digest).state == "done"
            assert store.result(digest)["energy"] == repro.run(spec).energy


class TestCrashBetweenTransitions:
    def test_crash_before_done_transition_recovers(self, tmp_path):
        """Torn transition: the run finishes, the worker dies before `done`.

        The job stays leased forever from the dead worker's point of view;
        after TTL expiry the reclaimer re-executes — every stabilizer
        evaluation a cache hit — and commits the same result.
        """
        data = tmp_path / "svc"
        spec = chain_spec(seed=0, num_sites=5, max_evaluations=150)
        baseline = repro.run(spec).energy
        with open_store(data) as store:
            digest = store.submit(spec).digest

        crasher = spawn_cli_worker(
            data, "crasher", lease_ttl=2.0,
            extra_env={
                SERVICE_FAULT_ENV: json.dumps(
                    [{"event": "pre_complete", "mode": "crash", "times": 1}]
                ),
                FAULT_DIR_ENV: str(marker_dir(data)),
                FAULT_HOOKS_ENV: HOOK_FILE,
            },
        )
        crasher.wait(timeout=120.0)
        assert crasher.returncode == 13  # died at the injected fault point

        marker = marker_dir(data) / "service_fault_0_pre_complete.fired"
        assert len(marker.read_text().splitlines()) == 1
        with open_store(data) as store:
            record = store.get(digest)
            assert record.state == "leased"  # torn: computed but never done
            assert record.attempts == 1

        stats = ServiceWorker(
            data, worker_id="reclaimer", lease_ttl=10.0,
            poll_interval=0.2, idle_timeout=8.0,
        ).run()
        assert stats.completed == 1
        with open_store(data) as store:
            record = store.get(digest)
            assert record.state == "done"
            assert record.attempts == 2
            assert store.result(digest)["energy"] == baseline

    def test_crash_after_done_transition_replays(self, tmp_path):
        """Crash after commit: the result survives; resubmission replays it."""
        data = tmp_path / "svc"
        spec = chain_spec(seed=0, num_sites=5, max_evaluations=150)
        with open_store(data) as store:
            digest = store.submit(spec).digest

        crasher = spawn_cli_worker(
            data, "crasher", lease_ttl=30.0,
            extra_env={
                SERVICE_FAULT_ENV: json.dumps(
                    [{"event": "post_complete", "mode": "crash", "times": 1}]
                ),
                FAULT_DIR_ENV: str(marker_dir(data)),
                FAULT_HOOKS_ENV: HOOK_FILE,
            },
        )
        crasher.wait(timeout=120.0)
        assert crasher.returncode == 13

        with open_store(data) as store:
            assert store.get(digest).state == "done"
            receipt = store.submit(spec, submitter="second-tenant")
            assert receipt.replayed
            assert store.result(digest)["energy"] is not None
        # Nothing left to execute: the stored result is the job.
        stats = ServiceWorker(data, worker_id="idle", lease_ttl=10.0).run()
        assert stats.claimed == 0


class TestRaiseModeFaults:
    def test_post_claim_fault_requeues_then_succeeds(self, tmp_path, monkeypatch):
        """A raise-mode fault right after claiming is a transient job failure:
        requeued, re-claimed, and completed once the fault is exhausted."""
        data = tmp_path / "svc"
        spec = chain_spec(seed=0, num_sites=4, max_evaluations=60)
        baseline = repro.run(spec).energy
        with open_store(data) as store:
            digest = store.submit(spec).digest

        monkeypatch.setenv(
            SERVICE_FAULT_ENV,
            json.dumps([{"event": "post_claim", "mode": "raise", "times": 1}]),
        )
        monkeypatch.setenv(FAULT_DIR_ENV, str(marker_dir(data)))
        monkeypatch.setenv(FAULT_HOOKS_ENV, HOOK_FILE)
        stats = ServiceWorker(data, worker_id="w1", lease_ttl=30.0).run()
        assert stats.claimed == 2  # faulted attempt + clean retry
        assert stats.failed == 1
        assert stats.completed == 1
        with open_store(data) as store:
            record = store.get(digest)
            assert record.state == "done"
            assert record.attempts == 2
            assert store.result(digest)["energy"] == baseline
