"""Durable search service: crash-safe job queue + result store over ``repro.run``.

The CAFQA bootstrap is a shared classical preprocessing service: many
tenants submit Hamiltonians as :class:`~repro.runspec.RunSpec` JSON, and
digest-keyed memoization means identical specs pay once.  This package is
the serving layer that makes that durable:

* :class:`~repro.service.store.JobStore` — a WAL-mode sqlite queue + result
  store with atomic state transitions, idempotent submission, lease-based
  dispatch, and per-submitter budget/backpressure accounting;
* :class:`~repro.service.worker.ServiceWorker` — lease-holding workers that
  heartbeat while executing through the fault-tolerant restart scheduler
  and drain gracefully on SIGTERM;
* a CLI front door: ``python -m repro.service submit|work|status|result``.

A sweep can be served too: :func:`enqueue_sweep` turns every point of a
declarative :class:`~repro.sweepspec.SweepSpec` into a queued job, so a
campaign's fan-out happens across service workers instead of one process.
"""

from __future__ import annotations

from typing import List, Optional

from repro.service.store import (
    JOB_STATES,
    ClaimedJob,
    JobRecord,
    JobStore,
    SubmitReceipt,
    job_checkpoint_dir,
    queue_path,
    shared_cache_path,
)
from repro.service.worker import ServiceWorker, WorkerStats, default_worker_id

__all__ = [
    "JOB_STATES",
    "ClaimedJob",
    "JobRecord",
    "JobStore",
    "SubmitReceipt",
    "ServiceWorker",
    "WorkerStats",
    "default_worker_id",
    "enqueue_sweep",
    "open_store",
    "queue_path",
    "shared_cache_path",
    "job_checkpoint_dir",
]


def open_store(data_dir, **store_options) -> JobStore:
    """The job store of a service data directory (created on first open)."""
    return JobStore(queue_path(data_dir), **store_options)


def enqueue_sweep(
    store: JobStore, sweep, submitter: str = "campaign"
) -> List[SubmitReceipt]:
    """Submit every point of a :class:`~repro.sweepspec.SweepSpec` as a job.

    Idempotent like any submission: re-enqueueing a sweep attaches to (or
    replays) the points already in the store, so a campaign can be resumed
    by resubmitting it and letting workers fill in the gaps.
    """
    return [store.submit(point.spec, submitter=submitter) for point in sweep.expand()]


def sweep_results(store: JobStore, sweep) -> List[Optional[dict]]:
    """Stored result summaries for a sweep's points (None where not done)."""
    from repro.exceptions import JobNotFoundError

    summaries: List[Optional[dict]] = []
    for point in sweep.expand():
        try:
            summaries.append(store.result(point.spec.run_digest()))
        except JobNotFoundError:
            summaries.append(None)
    return summaries
