"""Lease-based service workers: claim, heartbeat, execute, complete.

A :class:`ServiceWorker` drains a :class:`~repro.service.store.JobStore`:
it claims jobs under a monotonic-clock lease, renews the lease from a
heartbeat thread while the search runs, executes the job through
:func:`repro.run` — i.e. through the PR-6 retrying restart scheduler, with
the job's checkpoints under ``<data>/jobs/<digest>/`` and its stabilizer
evaluations in the service's shared sqlite cache — and commits the
:class:`~repro.runspec.RunReport` summary with a lease-guarded ``done``
transition.

Crash contract: a worker killed at any instant (including ``kill -9``)
simply stops heartbeating; after TTL expiry the job is reclaimed by the
next worker, whose retry resumes from the dead worker's evaluation shards
and checkpoints — so the reclaimed run's result is bit-identical to an
uninterrupted one.  A worker that *survives* but loses its lease (paused
past TTL) finds out at completion time and drops its result rather than
clobbering the reclaimer's.

Graceful shutdown: :meth:`ServiceWorker.request_stop` (wired to SIGTERM and
SIGINT by the CLI) finishes the job in hand, then stops claiming — a
drained worker never abandons a lease it could have completed.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import List, Optional

from repro import telemetry
from repro.core.faults import fire_fault_hook
from repro.exceptions import (
    IncompleteRunError,
    LeaseLostError,
    ReproError,
    is_transient_failure,
)
from repro.service.store import (
    ClaimedJob,
    JobStore,
    job_checkpoint_dir,
    queue_path,
    shared_cache_path,
)

__all__ = ["ServiceWorker", "WorkerStats", "default_worker_id"]


def default_worker_id() -> str:
    """A globally distinguishable worker identity (host, pid, random tail)."""
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:8]}"


@dataclass
class WorkerStats:
    """What one worker loop did before returning."""

    worker_id: str = ""
    claimed: int = 0
    completed: int = 0
    failed: int = 0
    lease_lost: int = 0
    stopped_by_request: bool = False
    digests: List[str] = field(default_factory=list)


class _Heartbeat:
    """Background lease renewal for one claimed job.

    Opens its own :class:`JobStore` handle (sqlite connections are not
    shared across threads) and renews at a third of the TTL.  A failed
    renewal means the lease is gone — the flag is raised and the thread
    exits; the worker discovers it at the next store transition, which is
    lease-guarded anyway (defence in depth).
    """

    def __init__(self, store_path, digest: str, worker_id: str, lease_ttl: float):
        self._digest = digest
        self._worker_id = worker_id
        self._ttl = float(lease_ttl)
        self._store_path = store_path
        self._stop = threading.Event()
        self.lease_lost = False
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=self._ttl)

    def _loop(self) -> None:
        store = JobStore(self._store_path)
        try:
            while not self._stop.wait(self._ttl / 3.0):
                if not store.heartbeat(self._digest, self._worker_id, self._ttl):
                    self.lease_lost = True
                    return
        finally:
            store.close()


class ServiceWorker:
    """One worker process's claim/execute/complete loop over a data directory.

    ``max_jobs`` bounds how many jobs this worker executes (None = until the
    queue drains); ``idle_timeout`` keeps it polling that long after the
    queue looks empty (None = return on first empty poll), which lets a
    fleet outlive temporary gaps between submissions.
    """

    def __init__(
        self,
        data_dir: os.PathLike,
        worker_id: Optional[str] = None,
        lease_ttl: float = 30.0,
        poll_interval: float = 0.2,
        max_jobs: Optional[int] = None,
        idle_timeout: Optional[float] = None,
        log=None,
        telemetry_dir: Optional[os.PathLike] = None,
    ):
        if float(lease_ttl) <= 0:
            raise ReproError("lease_ttl must be positive")
        self._data_dir = data_dir
        self._queue_path = queue_path(data_dir)
        self._worker_id = worker_id or default_worker_id()
        self._lease_ttl = float(lease_ttl)
        self._poll_interval = float(poll_interval)
        self._max_jobs = max_jobs
        self._idle_timeout = idle_timeout
        self._log = log
        self._telemetry_dir = (
            str(telemetry_dir) if telemetry_dir is not None else None
        )
        self._stop_requested = threading.Event()

    # ------------------------------------------------------------------ #
    @property
    def worker_id(self) -> str:
        return self._worker_id

    def request_stop(self) -> None:
        """Finish the job in hand, then return from :meth:`run` (SIGTERM)."""
        self._stop_requested.set()

    def _emit(self, message: str) -> None:
        if self._log is not None:
            self._log(f"[worker {self._worker_id}] {message}")

    # ------------------------------------------------------------------ #
    def run(self) -> WorkerStats:
        """Drain the queue until empty, stopped, or ``max_jobs`` executed."""
        telemetry.init(self._telemetry_dir, tag="worker")
        stats = WorkerStats(worker_id=self._worker_id)
        store = JobStore(self._queue_path)
        idle_since: Optional[float] = None
        try:
            while not self._stop_requested.is_set():
                if self._max_jobs is not None and stats.claimed >= self._max_jobs:
                    break
                claim = store.claim(self._worker_id, self._lease_ttl)
                if claim is None:
                    now = time.monotonic()
                    if self._idle_timeout is None:
                        break
                    if idle_since is None:
                        idle_since = now
                    elif now - idle_since >= self._idle_timeout:
                        break
                    self._stop_requested.wait(self._poll_interval)
                    continue
                idle_since = None
                stats.claimed += 1
                stats.digests.append(claim.digest)
                self._sample_queue_gauges(store)
                self._execute(store, claim, stats)
        finally:
            store.close()
            telemetry.flush()
        stats.stopped_by_request = self._stop_requested.is_set()
        return stats

    def _sample_queue_gauges(self, store: JobStore) -> None:
        """Record queue depth/age gauges from the store's metrics snapshot."""
        if not telemetry.recording():
            return
        metrics = store.queue_metrics()
        for state, count in metrics["depth"].items():
            telemetry.gauge("queue.depth", count, state=state)
        oldest = metrics["oldest_queued_age_seconds"]
        if oldest is not None:
            telemetry.gauge("queue.oldest_queued_age_seconds", oldest)

    # ------------------------------------------------------------------ #
    def _execute(self, store: JobStore, claim: ClaimedJob, stats: WorkerStats):
        try:
            fire_fault_hook("post_claim")
        except ReproError as error:
            # A raise-mode fault here models "worker went bad right after
            # claiming": a transient job failure, not a dead worker loop.
            self._record_failure(store, claim, stats, error, transient=True)
            return
        self._emit(
            f"claimed {claim.digest} (attempt {claim.attempts}"
            f"{', reclaimed' if claim.reclaimed else ''})"
        )
        spec = claim.spec
        # The service owns execution placement: checkpoints/shards go under
        # the per-job directory (so a reclaimed retry resumes the dead
        # worker's progress bit-identically) and evaluations go to the
        # tenants-shared sqlite cache.  Both knobs are execution-only — they
        # cannot change the result, and they are excluded from run_digest.
        spec.checkpoint_dir = str(job_checkpoint_dir(self._data_dir, claim.digest))
        spec.cache_dir = str(shared_cache_path(self._data_dir))
        recorder = telemetry.current()
        if recorder is not None:
            # Thread the worker's telemetry directory into the run, so the
            # job's restarts (possibly in pool workers) shard alongside the
            # service events.  Execution-only, like checkpoint/cache_dir.
            spec.telemetry_dir = str(recorder.directory)

        heartbeat = _Heartbeat(
            self._queue_path, claim.digest, self._worker_id, self._lease_ttl
        )
        heartbeat.start()
        try:
            from repro.runspec import run

            with telemetry.span(
                "service.job",
                digest=claim.digest,
                attempt=claim.attempts,
                reclaimed=claim.reclaimed,
            ):
                report = run(spec)
            summary = report.to_dict()
        except IncompleteRunError as error:
            # The run's own FailurePolicy already exhausted its retries;
            # re-running the job would exhaust them identically.
            heartbeat.stop()
            self._record_failure(store, claim, stats, error, transient=False)
            return
        except Exception as error:  # noqa: BLE001 — job isolation boundary
            heartbeat.stop()
            self._record_failure(
                store, claim, stats, error, transient=is_transient_failure(error)
            )
            return
        heartbeat.stop()
        try:
            fire_fault_hook("pre_complete")
            store.complete(claim.digest, self._worker_id, summary)
            fire_fault_hook("post_complete")
        except LeaseLostError:
            stats.lease_lost += 1
            self._emit(f"lease lost on {claim.digest}; result dropped")
            return
        stats.completed += 1
        self._emit(f"completed {claim.digest} (E={summary.get('energy')})")

    def _record_failure(self, store, claim, stats, error, transient: bool):
        stats.failed += 1
        message = f"{type(error).__name__}: {error}"
        self._emit(f"job {claim.digest} failed ({message[:120]})")
        try:
            state = store.fail(
                claim.digest, self._worker_id, message, transient=transient
            )
        except LeaseLostError:
            stats.lease_lost += 1
            return
        self._emit(f"job {claim.digest} -> {state}")
