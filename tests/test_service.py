"""The durable search service: job store, lease machinery, workers, CLI.

The store tests exercise the durability contract directly — idempotent
digest-keyed submission, exactly-one-wins claims, lease expiry and reclaim
(driven by an injected fake clock, so "the worker died mid-job" is a
deterministic state, not a sleep), guarded transitions that zombies cannot
clobber, and corrupt stored results costing a recompute instead of a crash.
The worker tests then close the loop: a drained queue's stored energies are
bit-identical to direct in-process ``repro.run`` on the same specs.
"""

import json
import sqlite3
import threading

import pytest

import repro
from repro.exceptions import (
    BackpressureError,
    BudgetExceededError,
    JobNotFoundError,
    LeaseLostError,
    ReproError,
    is_transient_failure,
)
from repro.runspec import RunSpec
from repro.service import (
    JobStore,
    ServiceWorker,
    enqueue_sweep,
    open_store,
    queue_path,
    shared_cache_path,
    sweep_results,
)
from repro.service.__main__ import main as service_main
from repro.sweepspec import SweepSpec


def ising_spec(max_evaluations=12, seed=0, num_sites=3, **overrides):
    return RunSpec(
        problem="ising_chain",
        problem_options={"num_sites": num_sites},
        max_evaluations=max_evaluations,
        num_seeds=1,
        seed=seed,
        **overrides,
    )


class FakeClock:
    """Injectable monotonic clock: leases expire when the test says so."""

    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def store(tmp_path):
    with JobStore(tmp_path / "queue.sqlite") as handle:
        yield handle


# ------------------------------------------------------------------------- #
# submission
# ------------------------------------------------------------------------- #
class TestSubmit:
    def test_first_submission_creates_a_queued_job(self, store):
        receipt = store.submit(ising_spec(), submitter="alice")
        assert receipt.created and receipt.state == "queued"
        assert receipt.digest == ising_spec().run_digest()
        assert store.counts()["queued"] == 1

    def test_identical_spec_attaches_not_duplicates(self, store):
        first = store.submit(ising_spec(), submitter="alice")
        second = store.submit(ising_spec(), submitter="bob")
        assert second.digest == first.digest
        assert second.attached and not second.created
        assert store.counts()["queued"] == 1
        assert store.get(first.digest).submitters == ["alice", "bob"]

    def test_execution_only_knobs_do_not_fork_jobs(self, store, tmp_path):
        store.submit(ising_spec(), submitter="alice")
        moved = ising_spec(cache_dir=str(tmp_path / "x"), max_workers=7)
        receipt = store.submit(moved, submitter="bob")
        assert receipt.attached
        assert store.counts()["queued"] == 1

    def test_done_job_replays(self, store):
        digest = store.submit(ising_spec()).digest
        claim = store.claim("w1", lease_ttl=30.0)
        store.complete(digest, "w1", {"energy": -1.0})
        receipt = store.submit(ising_spec(), submitter="late")
        assert receipt.replayed and receipt.state == "done"
        assert claim.digest == digest

    def test_failed_job_resubmission_requeues_fresh(self, store):
        digest = store.submit(ising_spec()).digest
        store.claim("w1", lease_ttl=30.0)
        assert store.fail(digest, "w1", "boom", transient=False) == "failed"
        receipt = store.submit(ising_spec())
        assert receipt.state == "queued"
        record = store.get(digest)
        assert record.state == "queued"
        assert record.attempts == 0
        assert record.error is None

    def test_backpressure_limits_jobs_in_flight(self, tmp_path):
        with JobStore(tmp_path / "q.sqlite", max_pending_per_submitter=2) as store:
            store.submit(ising_spec(seed=0), submitter="alice")
            store.submit(ising_spec(seed=1), submitter="alice")
            with pytest.raises(BackpressureError) as excinfo:
                store.submit(ising_spec(seed=2), submitter="alice")
            assert is_transient_failure(excinfo.value)  # retry after drain
            # Another tenant is unaffected, and attaching never counts.
            store.submit(ising_spec(seed=2), submitter="bob")
            store.submit(ising_spec(seed=0), submitter="alice")

    def test_backpressure_clears_when_jobs_complete(self, tmp_path):
        with JobStore(tmp_path / "q.sqlite", max_pending_per_submitter=1) as store:
            digest = store.submit(ising_spec(seed=0), submitter="alice").digest
            with pytest.raises(BackpressureError):
                store.submit(ising_spec(seed=1), submitter="alice")
            store.claim("w1", lease_ttl=30.0)
            store.complete(digest, "w1", {"energy": -1.0})
            assert store.submit(ising_spec(seed=1), submitter="alice").created

    def test_evaluation_budget_admission_control(self, tmp_path):
        charge = ising_spec().evaluation_budget()
        with JobStore(
            tmp_path / "q.sqlite", evaluation_budget_per_submitter=charge
        ) as store:
            store.submit(ising_spec(seed=0), submitter="alice")
            with pytest.raises(BudgetExceededError) as excinfo:
                store.submit(ising_spec(seed=1), submitter="alice")
            assert not is_transient_failure(excinfo.value)  # not retryable
            # Attaching to the existing job charges nothing even at budget.
            receipt = store.submit(ising_spec(seed=0), submitter="alice")
            assert receipt.attached

    def test_accounting_rows(self, store):
        store.submit(ising_spec(seed=0), submitter="alice")
        store.submit(ising_spec(seed=0), submitter="bob")
        rows = {row["submitter"]: row for row in store.accounting()}
        assert rows["alice"]["submitted"] == 1
        assert rows["alice"]["evaluations_charged"] == ising_spec().evaluation_budget()
        assert rows["bob"]["attached"] == 1
        assert rows["bob"]["evaluations_charged"] == 0


# ------------------------------------------------------------------------- #
# leasing and the state machine
# ------------------------------------------------------------------------- #
class TestLeasing:
    def test_claim_leases_oldest_job(self, store):
        first = store.submit(ising_spec(seed=0)).digest
        store.submit(ising_spec(seed=1))
        claim = store.claim("w1", lease_ttl=30.0)
        assert claim.digest == first
        assert claim.attempts == 1 and not claim.reclaimed
        assert store.get(first).state == "leased"
        assert store.get(first).lease_owner == "w1"

    def test_empty_queue_claims_none(self, store):
        assert store.claim("w1", lease_ttl=30.0) is None

    def test_two_sequential_claimers_get_distinct_jobs(self, store):
        store.submit(ising_spec(seed=0))
        store.submit(ising_spec(seed=1))
        first = store.claim("w1", lease_ttl=30.0)
        second = store.claim("w2", lease_ttl=30.0)
        assert first.digest != second.digest
        assert store.claim("w3", lease_ttl=30.0) is None

    def test_concurrent_claim_exactly_one_wins(self, tmp_path):
        path = tmp_path / "q.sqlite"
        with JobStore(path) as submitting:
            submitting.submit(ising_spec())
        barrier = threading.Barrier(8)
        wins = []

        def contend(worker_id):
            with JobStore(path) as handle:
                barrier.wait()
                claim = handle.claim(worker_id, lease_ttl=30.0)
            if claim is not None:
                wins.append(worker_id)

        threads = [
            threading.Thread(target=contend, args=(f"w{i}",)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(wins) == 1
        with JobStore(path) as handle:
            (record,) = handle.jobs()
            assert record.state == "leased"
            assert record.lease_owner == wins[0]
            assert record.attempts == 1

    def test_heartbeat_renews_only_the_holder(self, store):
        digest = store.submit(ising_spec()).digest
        store.claim("w1", lease_ttl=30.0)
        assert store.heartbeat(digest, "w1", lease_ttl=30.0)
        assert not store.heartbeat(digest, "impostor", lease_ttl=30.0)

    def test_expired_lease_is_reclaimed(self, tmp_path):
        clock = FakeClock()
        with JobStore(tmp_path / "q.sqlite", clock=clock) as store:
            digest = store.submit(ising_spec()).digest
            assert store.claim("w1", lease_ttl=30.0) is not None
            # Unexpired: the job is invisible to other claimers.
            clock.advance(29.0)
            assert store.claim("w2", lease_ttl=30.0) is None
            clock.advance(2.0)
            reclaim = store.claim("w2", lease_ttl=30.0)
            assert reclaim is not None and reclaim.reclaimed
            assert reclaim.attempts == 2
            assert store.get(digest).lease_owner == "w2"

    def test_heartbeat_keeps_the_lease_alive(self, tmp_path):
        clock = FakeClock()
        with JobStore(tmp_path / "q.sqlite", clock=clock) as store:
            digest = store.submit(ising_spec()).digest
            store.claim("w1", lease_ttl=30.0)
            for _ in range(4):
                clock.advance(20.0)
                assert store.heartbeat(digest, "w1", lease_ttl=30.0)
            assert store.claim("w2", lease_ttl=30.0) is None  # still held

    def test_lease_from_another_boot_is_dead_on_arrival(self, tmp_path):
        path = tmp_path / "q.sqlite"
        with JobStore(path, boot_id="boot-1") as before_reboot:
            before_reboot.submit(ising_spec())
            assert before_reboot.claim("w1", lease_ttl=3600.0) is not None
        with JobStore(path, boot_id="boot-2") as after_reboot:
            reclaim = after_reboot.claim("w2", lease_ttl=30.0)
            assert reclaim is not None and reclaim.reclaimed

    def test_torn_transition_resumes_and_completes(self, tmp_path):
        # Crash window between `leased` and `done`: the claim committed, the
        # completion never arrived.  The store must hand the job to the next
        # worker, whose completion then lands normally.
        clock = FakeClock()
        with JobStore(tmp_path / "q.sqlite", clock=clock) as store:
            digest = store.submit(ising_spec()).digest
            store.claim("dead-worker", lease_ttl=30.0)  # ... SIGKILL here ...
            clock.advance(31.0)
            reclaim = store.claim("live-worker", lease_ttl=30.0)
            assert reclaim.reclaimed
            store.complete(digest, "live-worker", {"energy": -2.5})
            assert store.get(digest).state == "done"
            assert store.result(digest) == {"energy": -2.5}

    def test_zombie_cannot_clobber_the_reclaimer(self, tmp_path):
        clock = FakeClock()
        with JobStore(tmp_path / "q.sqlite", clock=clock) as store:
            digest = store.submit(ising_spec()).digest
            store.claim("zombie", lease_ttl=30.0)
            clock.advance(31.0)
            store.claim("reclaimer", lease_ttl=30.0)
            with pytest.raises(LeaseLostError):
                store.complete(digest, "zombie", {"energy": 999.0})
            with pytest.raises(LeaseLostError):
                store.fail(digest, "zombie", "boom")
            store.complete(digest, "reclaimer", {"energy": -2.5})
            assert store.result(digest) == {"energy": -2.5}

    def test_exhausted_attempts_fail_instead_of_cycling(self, tmp_path):
        clock = FakeClock()
        with JobStore(tmp_path / "q.sqlite", clock=clock, max_attempts=2) as store:
            digest = store.submit(ising_spec()).digest
            for attempt in (1, 2):
                claim = store.claim(f"w{attempt}", lease_ttl=30.0)
                assert claim.attempts == attempt
                clock.advance(31.0)
            # Both lease-holders died; the poison job must not lease again.
            assert store.claim("w3", lease_ttl=30.0) is None
            record = store.get(digest)
            assert record.state == "failed"
            assert "attempt" in record.error

    def test_transient_failure_requeues_permanent_fails(self, store):
        digest = store.submit(ising_spec()).digest
        store.claim("w1", lease_ttl=30.0)
        assert store.fail(digest, "w1", "flaky", transient=True) == "queued"
        store.claim("w1", lease_ttl=30.0)
        assert store.fail(digest, "w1", "broken", transient=False) == "failed"
        assert store.get(digest).error == "broken"

    def test_transient_failures_respect_max_attempts(self, tmp_path):
        with JobStore(tmp_path / "q.sqlite", max_attempts=2) as store:
            digest = store.submit(ising_spec()).digest
            store.claim("w1", lease_ttl=30.0)
            assert store.fail(digest, "w1", "flaky", transient=True) == "queued"
            store.claim("w1", lease_ttl=30.0)
            assert store.fail(digest, "w1", "flaky", transient=True) == "failed"

    def test_unloadable_spec_fails_not_crashes_the_claimer(self, store):
        good = store.submit(ising_spec()).digest
        store._connection.execute(
            "INSERT INTO jobs (digest, spec_json, state, max_attempts)"
            " VALUES ('bad00', 'not a spec {', 'queued', 5)"
        )
        # rowid order puts the good job first; drain it, then hit the bad row.
        assert store.claim("w1", lease_ttl=30.0).digest == good
        assert store.claim("w1", lease_ttl=30.0) is None
        record = store.get("bad00")
        assert record.state == "failed"
        assert "deserialize" in record.error


# ------------------------------------------------------------------------- #
# results
# ------------------------------------------------------------------------- #
class TestResults:
    def test_result_of_unfinished_job_is_none(self, store):
        digest = store.submit(ising_spec()).digest
        assert store.result(digest) is None

    def test_result_of_unknown_job_raises(self, store):
        with pytest.raises(JobNotFoundError):
            store.result("no-such-digest")

    def test_corrupt_result_record_requeues_not_crashes(self, store):
        digest = store.submit(ising_spec()).digest
        store.claim("w1", lease_ttl=30.0)
        store.complete(digest, "w1", {"energy": -2.5})
        store._connection.execute(
            "UPDATE jobs SET result_json='garbage {{' WHERE digest=?", (digest,)
        )
        assert store.result(digest) is None
        record = store.get(digest)
        assert record.state == "queued"  # recompute, don't serve garbage
        assert record.attempts == 0
        assert "corrupt" in record.error

    @pytest.mark.parametrize(
        "record",
        [
            json.dumps({"format": 99, "run_digest": "DIGEST", "summary": {}}),
            json.dumps({"format": 1, "run_digest": "other", "summary": {}}),
            json.dumps({"format": 1, "run_digest": "DIGEST", "summary": [1]}),
            json.dumps([1, 2, 3]),
            None,
        ],
    )
    def test_every_invalid_record_shape_is_rejected(self, store, record):
        digest = store.submit(ising_spec()).digest
        store.claim("w1", lease_ttl=30.0)
        store.complete(digest, "w1", {"energy": -2.5})
        payload = record.replace("DIGEST", digest) if record else record
        store._connection.execute(
            "UPDATE jobs SET result_json=? WHERE digest=?", (payload, digest)
        )
        assert store.result(digest) is None
        assert store.get(digest).state == "queued"

    def test_recorded_run_replays_and_charges_no_one(self, store):
        digest = store.record(ising_spec(), {"energy": -2.5})
        assert digest == ising_spec().run_digest()
        assert store.get(digest).state == "done"
        assert store.accounting() == []
        receipt = store.submit(ising_spec(), submitter="alice")
        assert receipt.replayed and receipt.digest == digest
        assert store.result(digest) == {"energy": -2.5}
        (alice,) = store.accounting()
        assert alice["replayed"] == 1 and alice["evaluations_charged"] == 0

    def test_record_overwrites_a_requeued_corrupt_row(self, store):
        digest = store.record(ising_spec(), {"energy": -2.5})
        store._connection.execute(
            "UPDATE jobs SET result_json='garbage {{' WHERE digest=?", (digest,)
        )
        assert store.result(digest) is None
        assert store.get(digest).state == "queued"
        store.record(ising_spec(), {"energy": -3.0})
        record = store.get(digest)
        assert record.state == "done" and record.error is None
        assert store.result(digest) == {"energy": -3.0}
        assert store.counts() == {"queued": 0, "leased": 0, "done": 1, "failed": 0}

    def test_valid_result_survives_revalidation(self, store):
        digest = store.submit(ising_spec()).digest
        store.claim("w1", lease_ttl=30.0)
        store.complete(digest, "w1", {"energy": -2.5, "problem": "ising_chain"})
        for _ in range(2):  # reads are repeatable, no accidental requeue
            assert store.result(digest)["energy"] == -2.5
        assert store.get(digest).state == "done"


# ------------------------------------------------------------------------- #
# workers
# ------------------------------------------------------------------------- #
class TestWorker:
    def test_worker_drains_queue_bit_identical_to_direct_run(self, tmp_path):
        data = tmp_path / "svc"
        specs = [ising_spec(seed=0), ising_spec(seed=7)]
        with open_store(data) as store:
            digests = [store.submit(spec).digest for spec in specs]
        stats = ServiceWorker(data, lease_ttl=60.0).run()
        assert stats.claimed == 2 and stats.completed == 2
        assert stats.failed == 0 and not stats.stopped_by_request
        with open_store(data) as store:
            summaries = [store.result(digest) for digest in digests]
        baselines = [repro.run(spec) for spec in specs]
        for summary, baseline, digest in zip(summaries, baselines, digests):
            assert summary["energy"] == baseline.energy  # bit-identical
            assert summary["run_digest"] == digest
        assert shared_cache_path(data).exists()  # one DB, no JSONL shards
        assert not list(data.glob("**/*.jsonl"))

    def test_resubmitted_spec_replays_with_zero_new_evaluations(self, tmp_path):
        data = tmp_path / "svc"
        with open_store(data) as store:
            digest = store.submit(ising_spec()).digest
        ServiceWorker(data, lease_ttl=60.0).run()

        def cache_rows():
            with sqlite3.connect(shared_cache_path(data)) as connection:
                (count,) = connection.execute(
                    "SELECT COUNT(*) FROM evaluations"
                ).fetchone()
            return count

        rows_before = cache_rows()
        with open_store(data) as store:
            receipt = store.submit(ising_spec(), submitter="second-tenant")
            assert receipt.replayed
            summary = store.result(digest)
        stats = ServiceWorker(data, lease_ttl=60.0).run()  # nothing to do
        assert stats.claimed == 0
        assert summary["energy"] is not None
        assert cache_rows() == rows_before  # zero new stabilizer evaluations

    def test_stop_requested_before_run_claims_nothing(self, tmp_path):
        data = tmp_path / "svc"
        with open_store(data) as store:
            store.submit(ising_spec())
        worker = ServiceWorker(data, lease_ttl=60.0)
        worker.request_stop()
        stats = worker.run()
        assert stats.claimed == 0 and stats.stopped_by_request
        with open_store(data) as store:
            assert store.counts()["queued"] == 1

    def test_max_jobs_bounds_the_loop(self, tmp_path):
        data = tmp_path / "svc"
        with open_store(data) as store:
            for seed in range(3):
                store.submit(ising_spec(seed=seed))
        stats = ServiceWorker(data, lease_ttl=60.0, max_jobs=1).run()
        assert stats.claimed == 1 and stats.completed == 1
        with open_store(data) as store:
            assert store.counts() == {
                "queued": 2, "leased": 0, "done": 1, "failed": 0,
            }

    def test_bad_problem_job_fails_without_killing_the_worker(self, tmp_path):
        data = tmp_path / "svc"
        bad = RunSpec(problem="no_such_problem", max_evaluations=4)
        with open_store(data, max_attempts=1) as store:
            bad_digest = store.submit(bad).digest
            good_digest = store.submit(ising_spec()).digest
        stats = ServiceWorker(data, lease_ttl=60.0).run()
        assert stats.claimed == 2
        assert stats.completed == 1 and stats.failed == 1
        with open_store(data) as store:
            assert store.get(bad_digest).state == "failed"
            assert store.get(good_digest).state == "done"


# ------------------------------------------------------------------------- #
# sweep integration
# ------------------------------------------------------------------------- #
class TestSweepIntegration:
    def sweep(self):
        return SweepSpec(
            base={"problem": "ising_chain",
                  "problem_options": {"num_sites": 3},
                  "max_evaluations": 10},
            axes={"seed": [0, 1, 2]},
            derive_seeds=False,
        )

    def test_enqueue_sweep_submits_every_point(self, tmp_path):
        with open_store(tmp_path / "svc") as store:
            receipts = enqueue_sweep(store, self.sweep())
            assert len(receipts) == 3
            assert all(receipt.created for receipt in receipts)
            assert store.counts()["queued"] == 3
            # Re-enqueueing the campaign is idempotent.
            again = enqueue_sweep(store, self.sweep())
            assert all(receipt.attached for receipt in again)
            assert store.counts()["queued"] == 3

    def test_sweep_results_fill_in_as_workers_drain(self, tmp_path):
        data = tmp_path / "svc"
        with open_store(data) as store:
            enqueue_sweep(store, self.sweep())
            assert sweep_results(store, self.sweep()) == [None, None, None]
        ServiceWorker(data, lease_ttl=60.0, max_jobs=2).run()
        with open_store(data) as store:
            summaries = sweep_results(store, self.sweep())
        assert sum(summary is not None for summary in summaries) == 2
        done = [summary for summary in summaries if summary is not None]
        assert all("energy" in summary for summary in done)

    def test_unsubmitted_sweep_reads_as_all_none(self, tmp_path):
        with open_store(tmp_path / "svc") as store:
            assert sweep_results(store, self.sweep()) == [None, None, None]


# ------------------------------------------------------------------------- #
# CLI
# ------------------------------------------------------------------------- #
class TestCli:
    def submit(self, data, capsys, *extra):
        code = service_main(
            ["submit", "--data", str(data), "--problem", "ising_chain",
             "--max-evaluations", "8", *extra]
        )
        assert code == 0
        return json.loads(capsys.readouterr().out)

    def test_submit_work_status_result_round_trip(self, tmp_path, capsys):
        data = tmp_path / "svc"
        receipt = self.submit(data, capsys)
        assert receipt["created"] and receipt["state"] == "queued"
        digest = receipt["digest"]

        assert service_main(["result", "--data", str(data), digest]) == 1
        capsys.readouterr()  # not done yet: exit 1, message on stderr

        assert service_main(["work", "--data", str(data), "--lease-ttl", "60"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        stats = json.loads(lines[-1])
        assert stats["completed"] == 1 and stats["failed"] == 0

        assert service_main(["status", "--data", str(data)]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["counts"]["done"] == 1
        assert status["jobs"] == [{"digest": digest, "state": "done"}]

        assert service_main(["status", "--data", str(data), digest]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["state"] == "done" and record["submitters"] == ["cli"]

        assert service_main(["result", "--data", str(data), digest]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["run_digest"] == digest
        assert summary["energy"] is not None

    def test_resubmit_replays(self, tmp_path, capsys):
        data = tmp_path / "svc"
        self.submit(data, capsys)
        service_main(["work", "--data", str(data), "--lease-ttl", "60"])
        capsys.readouterr()
        receipt = self.submit(data, capsys, "--submitter", "tenant-2")
        assert receipt["replayed"] and receipt["state"] == "done"

    def test_submit_spec_file_and_stdin_exclusivity(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(ising_spec().to_json())
        code = service_main(
            ["submit", "--data", str(tmp_path / "svc"), "--spec", str(spec_file)]
        )
        assert code == 0
        receipt = json.loads(capsys.readouterr().out)
        assert receipt["digest"] == ising_spec().run_digest()

        code = service_main(
            ["submit", "--data", str(tmp_path / "svc"),
             "--spec", str(spec_file), "--problem", "ising_chain"]
        )
        assert code == 2  # mutually exclusive → ReproError exit code
        assert "exclusive" in capsys.readouterr().err

    def test_submit_backpressure_surfaces_as_error_exit(self, tmp_path, capsys):
        data = tmp_path / "svc"
        self.submit(data, capsys, "--submitter", "alice", "--max-pending", "1")
        spec_file = tmp_path / "other.json"
        spec_file.write_text(ising_spec(seed=9).to_json())
        code = service_main(
            ["submit", "--data", str(data), "--spec", str(spec_file),
             "--submitter", "alice", "--max-pending", "1"]
        )
        assert code == 2
        assert "in flight" in capsys.readouterr().err

    def test_unknown_digest_is_an_error_not_a_traceback(self, tmp_path, capsys):
        data = tmp_path / "svc"
        self.submit(data, capsys)
        assert service_main(["status", "--data", str(data), "feedbeef"]) == 2
        assert "no job" in capsys.readouterr().err


class TestStoreValidation:
    def test_lease_ttl_must_be_positive(self, store):
        store.submit(ising_spec())
        with pytest.raises(ReproError):
            store.claim("w1", lease_ttl=0.0)

    def test_max_attempts_must_be_positive(self, tmp_path):
        with pytest.raises(ReproError):
            JobStore(tmp_path / "q.sqlite", max_attempts=0)

    def test_worker_rejects_nonpositive_ttl(self, tmp_path):
        with pytest.raises(ReproError):
            ServiceWorker(tmp_path, lease_ttl=-1.0)

    def test_queue_path_layout(self, tmp_path):
        assert queue_path(tmp_path).name == "queue.sqlite"
        assert shared_cache_path(tmp_path).name == "cache.sqlite"
