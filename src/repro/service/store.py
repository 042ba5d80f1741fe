"""Crash-safe sqlite job queue + result store keyed by ``RunSpec.run_digest``.

The :class:`JobStore` is the durable heart of the search service.  One
WAL-mode sqlite database holds every job's full lifecycle:

``queued → leased → done | failed``

with each transition a single guarded ``UPDATE`` inside an immediate
transaction — a transition either commits completely or not at all, so a
worker killed between any two statements leaves the store in a valid state.

Durability properties the rest of the service builds on:

* **idempotent submission** — jobs are keyed by the spec's
  :meth:`~repro.runspec.RunSpec.run_digest` (the content address of the
  run's trajectory-determining config).  Submitting an identical spec twice
  attaches the second submitter to the existing job, or replays the stored
  result if the job already completed — identical specs pay once, which is
  the CAFQA multi-tenant serving story.
* **lease-based dispatch** — a claim grants a lease with a monotonic-clock
  TTL (plus the machine's boot id, so leases from before a reboot are
  recognized as dead even though the monotonic clock restarted).  A worker
  that stops heartbeating loses the job to the next claimer after TTL
  expiry; completing a job requires still holding the lease, so a
  resurrected zombie cannot clobber the reclaimer's result.
* **exactly-one claim** — claims serialize through ``BEGIN IMMEDIATE``
  write transactions; of N workers racing for the last queued job, exactly
  one wins and the rest see an unexpired lease.
* **validated results** — a stored result record is checked (format,
  digest echo, payload shape) on every read; a corrupt record requeues the
  job for recomputation instead of crashing readers.
* **admission control** — per-submitter accounting (jobs in flight,
  worst-case evaluations charged) with backpressure: past the configured
  bounds, submission raises :class:`~repro.exceptions.BackpressureError`
  (transient — retry after drain) or
  :class:`~repro.exceptions.BudgetExceededError` (permanent).
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro import telemetry
from repro.exceptions import (
    BackpressureError,
    BudgetExceededError,
    JobNotFoundError,
    LeaseLostError,
    ReproError,
)
from repro.runspec import RunSpec

__all__ = [
    "JobStore",
    "ClaimedJob",
    "JobRecord",
    "SubmitReceipt",
    "JOB_STATES",
    "RESULT_FORMAT",
    "queue_path",
    "shared_cache_path",
    "job_checkpoint_dir",
]

RESULT_FORMAT = 1

JOB_STATES = ("queued", "leased", "done", "failed")


# --------------------------------------------------------------------------- #
# service data-directory layout
# --------------------------------------------------------------------------- #
def queue_path(data_dir: os.PathLike) -> Path:
    """The job store database inside a service data directory."""
    return Path(data_dir) / "queue.sqlite"


def shared_cache_path(data_dir: os.PathLike) -> Path:
    """The tenants-shared sqlite evaluation cache (one DB, no per-pid shards)."""
    return Path(data_dir) / "cache.sqlite"


def job_checkpoint_dir(data_dir: os.PathLike, digest: str) -> Path:
    """Per-job checkpoint/shard directory (reclaimed retries resume from it)."""
    return Path(data_dir) / "jobs" / digest


def _read_boot_id() -> str:
    """This boot's identity, for recognizing leases from before a reboot.

    ``time.monotonic`` restarts at reboot, so a pre-reboot lease deadline can
    look arbitrarily far in the future; tagging leases with the boot id lets
    a claimer treat any other boot's lease as already expired.  An empty
    string (platform without the proc file) degrades to TTL-only expiry.
    """
    try:
        return Path("/proc/sys/kernel/random/boot_id").read_text().strip()
    except OSError:
        return ""


@dataclass(frozen=True)
class SubmitReceipt:
    """What one submission did: created, attached, or replayed.

    ``created`` — a new job row was enqueued.  ``attached`` — an identical
    spec is already in flight; this submitter was attached to it (and charged
    nothing: dedup is the point).  ``replayed`` — the job already completed;
    :meth:`JobStore.result` returns the stored report with zero new work.
    """

    digest: str
    state: str
    created: bool = False
    attached: bool = False
    replayed: bool = False


@dataclass(frozen=True)
class ClaimedJob:
    """One leased job: its digest, deserialized spec, and attempt number."""

    digest: str
    spec: RunSpec
    attempts: int
    reclaimed: bool = False


@dataclass(frozen=True)
class JobRecord:
    """A job row snapshot (for status displays and tests)."""

    digest: str
    state: str
    attempts: int
    max_attempts: int
    lease_owner: Optional[str]
    error: Optional[str]
    submitters: List[str]


class JobStore:
    """One handle onto the service's sqlite job database.

    Handles are cheap to open (workers, heartbeat threads, and CLI commands
    each open their own); cross-handle and cross-process consistency comes
    from sqlite's WAL locking plus guarded single-``UPDATE`` transitions.

    ``clock`` must be a monotonic clock shared by every handle on the
    machine (the default ``time.monotonic`` is system-wide on the platforms
    we run on); tests inject a fake to fast-forward lease expiry.
    """

    def __init__(
        self,
        path: os.PathLike,
        max_pending_per_submitter: Optional[int] = None,
        evaluation_budget_per_submitter: Optional[int] = None,
        max_attempts: int = 5,
        clock: Callable[[], float] = time.monotonic,
        boot_id: Optional[str] = None,
    ):
        if int(max_attempts) < 1:
            raise ReproError("max_attempts must be at least one")
        self._path = Path(path)
        self._max_pending = max_pending_per_submitter
        self._budget = evaluation_budget_per_submitter
        self._max_attempts = int(max_attempts)
        self._clock = clock
        self._boot_id = _read_boot_id() if boot_id is None else str(boot_id)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        # isolation_level=None puts sqlite3 in autocommit mode: transactions
        # are explicit BEGIN IMMEDIATE blocks, never implicit ones held open.
        self._connection = sqlite3.connect(
            str(self._path), timeout=30.0, isolation_level=None
        )
        self._connection.execute("PRAGMA journal_mode=WAL")
        self._connection.execute("PRAGMA synchronous=NORMAL")
        self._connection.execute("PRAGMA busy_timeout=30000")
        self._create_schema()
        # Every handle is an activation point: a CLI `submit`, a worker, and
        # a heartbeat thread each record into $REPRO_TELEMETRY_DIR when set.
        telemetry.init()

    # ------------------------------------------------------------------ #
    @property
    def path(self) -> Path:
        return self._path

    @property
    def boot_id(self) -> str:
        return self._boot_id

    def close(self) -> None:
        self._connection.close()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def _create_schema(self) -> None:
        cursor = self._connection
        cursor.execute("BEGIN IMMEDIATE")
        try:
            cursor.execute(
                "CREATE TABLE IF NOT EXISTS jobs ("
                " digest TEXT PRIMARY KEY,"
                " spec_json TEXT NOT NULL,"
                " state TEXT NOT NULL"
                "  CHECK (state IN ('queued','leased','done','failed')),"
                " attempts INTEGER NOT NULL DEFAULT 0,"
                " max_attempts INTEGER NOT NULL,"
                " evaluations_charged INTEGER NOT NULL DEFAULT 0,"
                " lease_owner TEXT,"
                " lease_expires REAL,"
                " lease_boot_id TEXT,"
                " result_json TEXT,"
                " error TEXT,"
                " enqueued_at REAL)"
            )
            try:
                cursor.execute("ALTER TABLE jobs ADD COLUMN enqueued_at REAL")
            except sqlite3.OperationalError:
                pass  # pre-existing database already migrated (or brand new)
            cursor.execute(
                "CREATE TABLE IF NOT EXISTS job_submitters ("
                " digest TEXT NOT NULL,"
                " name TEXT NOT NULL,"
                " PRIMARY KEY (digest, name))"
            )
            cursor.execute(
                "CREATE TABLE IF NOT EXISTS submitters ("
                " name TEXT PRIMARY KEY,"
                " submitted INTEGER NOT NULL DEFAULT 0,"
                " attached INTEGER NOT NULL DEFAULT 0,"
                " replayed INTEGER NOT NULL DEFAULT 0,"
                " evaluations_charged INTEGER NOT NULL DEFAULT 0)"
            )
            cursor.execute("COMMIT")
        except BaseException:
            cursor.execute("ROLLBACK")
            raise

    def _transaction(self):
        return _Transaction(self._connection)

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def submit(self, spec: RunSpec, submitter: str = "anonymous") -> SubmitReceipt:
        """Enqueue a spec (idempotently) and return what happened.

        A second identical spec — same :meth:`~repro.runspec.RunSpec
        .run_digest`, regardless of execution-only knobs — never creates a
        second job: it attaches to the in-flight one or replays the finished
        one.  Only genuinely new jobs are charged against the submitter's
        pending-jobs and evaluation budgets.
        """
        spec_json = spec.to_json()  # raises for non-serializable specs
        digest = spec.run_digest()
        charge = spec.evaluation_budget()
        with self._transaction() as cursor:
            row = cursor.execute(
                "SELECT state FROM jobs WHERE digest = ?", (digest,)
            ).fetchone()
            if row is not None:
                state = row[0]
                self._attach_submitter(cursor, digest, submitter, state)
                if state == "failed":
                    # Resubmission of a failed job is an explicit ask to try
                    # again: requeue with a fresh attempt budget.
                    cursor.execute(
                        "UPDATE jobs SET state='queued', attempts=0,"
                        " lease_owner=NULL, lease_expires=NULL,"
                        " lease_boot_id=NULL, error=NULL, enqueued_at=?"
                        " WHERE digest = ?",
                        (float(self._clock()), digest),
                    )
                    state = "queued"
                telemetry.event(
                    "service.submit",
                    submitter=submitter,
                    outcome="replayed" if state == "done" else "attached",
                )
                return SubmitReceipt(
                    digest=digest,
                    state=state,
                    attached=state != "done",
                    replayed=state == "done",
                )
            self._admit(cursor, submitter, charge)
            cursor.execute(
                "INSERT INTO jobs (digest, spec_json, state, max_attempts,"
                " evaluations_charged, enqueued_at) VALUES (?, ?, 'queued', ?, ?, ?)",
                (digest, spec_json, self._max_attempts, charge, float(self._clock())),
            )
            cursor.execute(
                "INSERT OR IGNORE INTO job_submitters (digest, name) VALUES (?, ?)",
                (digest, submitter),
            )
            cursor.execute(
                "INSERT INTO submitters (name, submitted, evaluations_charged)"
                " VALUES (?, 1, ?)"
                " ON CONFLICT(name) DO UPDATE SET"
                "  submitted = submitted + 1,"
                "  evaluations_charged = evaluations_charged + excluded"
                ".evaluations_charged",
                (submitter, charge),
            )
        telemetry.event("service.submit", submitter=submitter, outcome="created")
        return SubmitReceipt(digest=digest, state="queued", created=True)

    def _attach_submitter(self, cursor, digest: str, submitter: str, state: str):
        cursor.execute(
            "INSERT OR IGNORE INTO job_submitters (digest, name) VALUES (?, ?)",
            (digest, submitter),
        )
        column = "replayed" if state == "done" else "attached"
        cursor.execute(
            f"INSERT INTO submitters (name, {column}) VALUES (?, 1)"
            f" ON CONFLICT(name) DO UPDATE SET {column} = {column} + 1",
            (submitter,),
        )

    def _admit(self, cursor, submitter: str, charge: int) -> None:
        """Backpressure and budget checks for one *new* job by ``submitter``."""
        if self._max_pending is not None:
            (pending,) = cursor.execute(
                "SELECT COUNT(*) FROM jobs JOIN job_submitters USING (digest)"
                " WHERE job_submitters.name = ?"
                "  AND jobs.state IN ('queued', 'leased')",
                (submitter,),
            ).fetchone()
            if pending >= self._max_pending:
                raise BackpressureError(
                    f"submitter {submitter!r} has {pending} jobs in flight "
                    f"(limit {self._max_pending}); retry after some complete"
                )
        if self._budget is not None:
            row = cursor.execute(
                "SELECT evaluations_charged FROM submitters WHERE name = ?",
                (submitter,),
            ).fetchone()
            charged = row[0] if row is not None else 0
            if charged + charge > self._budget:
                raise BudgetExceededError(
                    f"submitter {submitter!r} would exceed its evaluation "
                    f"budget: {charged} charged + {charge} requested > "
                    f"{self._budget}"
                )

    # ------------------------------------------------------------------ #
    # leasing
    # ------------------------------------------------------------------ #
    def claim(self, worker_id: str, lease_ttl: float) -> Optional[ClaimedJob]:
        """Lease the oldest claimable job, or None when the queue is drained.

        Claimable: ``queued``, or ``leased`` with an expired TTL / a lease
        from another boot (the holder is dead).  Reclaiming counts the lost
        lease as a failed attempt; a job whose attempts are exhausted flips
        to ``failed`` instead of being leased again — a poisoned job cannot
        cycle through workers forever.
        """
        if float(lease_ttl) <= 0:
            raise ReproError("lease_ttl must be positive")
        while True:
            now = float(self._clock())
            with self._transaction() as cursor:
                row = cursor.execute(
                    "SELECT digest, spec_json, state, attempts, max_attempts"
                    " FROM jobs WHERE state = 'queued'"
                    "  OR (state = 'leased'"
                    "      AND (lease_expires <= ?"
                    "           OR COALESCE(lease_boot_id, '') != ?))"
                    " ORDER BY rowid LIMIT 1",
                    (now, self._boot_id),
                ).fetchone()
                if row is None:
                    return None
                digest, spec_json, state, attempts, max_attempts = row
                if state == "leased" and attempts >= max_attempts:
                    cursor.execute(
                        "UPDATE jobs SET state='failed', lease_owner=NULL,"
                        " lease_expires=NULL, lease_boot_id=NULL, error=?"
                        " WHERE digest = ?",
                        (
                            f"lease expired after {attempts} attempt(s) "
                            "without a completed run",
                            digest,
                        ),
                    )
                    telemetry.event(
                        "service.lease_exhausted", digest=digest, attempts=attempts
                    )
                    continue  # look for the next claimable job
                cursor.execute(
                    "UPDATE jobs SET state='leased', lease_owner=?,"
                    " lease_expires=?, lease_boot_id=?, attempts=attempts+1"
                    " WHERE digest = ?",
                    (worker_id, now + float(lease_ttl), self._boot_id, digest),
                )
            try:
                spec = RunSpec.from_json(spec_json)
            except Exception as error:  # noqa: BLE001 — any load error is fatal
                # An unloadable spec can never run (bad JSON raises a raw
                # ValueError, unknown fields a TypeError — not just
                # ReproError): fail it and keep claiming.
                self._fail_unloadable(digest, worker_id, str(error))
                continue
            telemetry.event(
                "service.claim",
                digest=digest,
                worker=worker_id,
                attempt=int(attempts) + 1,
                reclaimed=state == "leased",
            )
            return ClaimedJob(
                digest=digest,
                spec=spec,
                attempts=int(attempts) + 1,
                reclaimed=state == "leased",
            )

    def _fail_unloadable(self, digest: str, worker_id: str, message: str) -> None:
        with self._transaction() as cursor:
            cursor.execute(
                "UPDATE jobs SET state='failed', lease_owner=NULL,"
                " lease_expires=NULL, lease_boot_id=NULL, error=?"
                " WHERE digest = ? AND state='leased' AND lease_owner=?",
                (f"spec failed to deserialize: {message}"[:500], digest, worker_id),
            )

    def heartbeat(self, digest: str, worker_id: str, lease_ttl: float) -> bool:
        """Renew a held lease; False means the lease is gone (stop working)."""
        now = float(self._clock())
        with self._transaction() as cursor:
            cursor.execute(
                "UPDATE jobs SET lease_expires=? WHERE digest = ?"
                " AND state='leased' AND lease_owner=? AND lease_boot_id=?",
                (now + float(lease_ttl), digest, worker_id, self._boot_id),
            )
            renewed = cursor.rowcount == 1
        telemetry.counter("service.heartbeat", 1, renewed=renewed)
        return renewed

    # ------------------------------------------------------------------ #
    # completion
    # ------------------------------------------------------------------ #
    def complete(self, digest: str, worker_id: str, summary: Dict[str, object]):
        """Transition a held lease to ``done`` with its stored result record.

        Raises :class:`~repro.exceptions.LeaseLostError` if this worker no
        longer holds the lease — the job was reclaimed (and possibly already
        completed) by someone else, and a stale result must not overwrite a
        live state.
        """
        record = _result_record(digest, summary)
        with self._transaction() as cursor:
            cursor.execute(
                "UPDATE jobs SET state='done', result_json=?, lease_owner=NULL,"
                " lease_expires=NULL, lease_boot_id=NULL, error=NULL"
                " WHERE digest = ? AND state='leased' AND lease_owner=?",
                (record, digest, worker_id),
            )
            if cursor.rowcount != 1:
                raise LeaseLostError(
                    f"worker {worker_id!r} no longer holds the lease on "
                    f"job {digest}; result dropped"
                )
        telemetry.event("service.complete", digest=digest, worker=worker_id)

    def record(self, spec: RunSpec, summary: Dict[str, object]) -> str:
        """Store a run completed outside the queue as a ``done`` job.

        The campaign scheduler's whole-run memo: no lease is needed and no
        submitter is charged.  The row is upserted, so a missing job is
        created and a queued, leased or requeued-as-corrupt one is
        overwritten with this result.  A spec that cannot be serialized (an
        instance-built problem) is echoed as JSON ``null``; :meth:`claim`
        fails such a row cleanly if it is ever queued.  Returns the digest.
        """
        digest = spec.run_digest()
        try:
            spec_json = spec.to_json()
        except (TypeError, ValueError, ReproError):
            spec_json = "null"
        record = _result_record(digest, summary)
        with self._transaction() as cursor:
            cursor.execute(
                "INSERT INTO jobs (digest, spec_json, state, max_attempts,"
                " result_json, enqueued_at) VALUES (?, ?, 'done', ?, ?, ?)"
                " ON CONFLICT(digest) DO UPDATE SET state='done',"
                "  result_json=excluded.result_json, lease_owner=NULL,"
                "  lease_expires=NULL, lease_boot_id=NULL, error=NULL",
                (digest, spec_json, self._max_attempts, record, float(self._clock())),
            )
        return digest

    def fail(
        self, digest: str, worker_id: str, message: str, transient: bool = True
    ) -> str:
        """Record a failed execution: requeue (transient) or fail permanently.

        Returns the job's resulting state.  Requires holding the lease, like
        :meth:`complete`.
        """
        with self._transaction() as cursor:
            row = cursor.execute(
                "SELECT attempts, max_attempts FROM jobs WHERE digest = ?"
                " AND state='leased' AND lease_owner=?",
                (digest, worker_id),
            ).fetchone()
            if row is None:
                raise LeaseLostError(
                    f"worker {worker_id!r} no longer holds the lease on "
                    f"job {digest}; failure not recorded"
                )
            attempts, max_attempts = row
            state = "queued" if transient and attempts < max_attempts else "failed"
            cursor.execute(
                "UPDATE jobs SET state=?, lease_owner=NULL, lease_expires=NULL,"
                " lease_boot_id=NULL, error=?,"
                " enqueued_at=CASE WHEN ?='queued' THEN ? ELSE enqueued_at END"
                " WHERE digest = ?",
                (state, str(message)[:500], state, float(self._clock()), digest),
            )
        telemetry.event(
            "service.fail",
            digest=digest,
            worker=worker_id,
            state=state,
            transient=transient,
        )
        return state

    # ------------------------------------------------------------------ #
    # results and status
    # ------------------------------------------------------------------ #
    def result(self, digest: str) -> Optional[Dict[str, object]]:
        """A done job's stored summary, or None if it is not (validly) done.

        A corrupt result record — unparsable JSON, wrong format, digest
        mismatch, non-dict summary — requeues the job for recomputation and
        returns None: the worst case of stored-state corruption is a
        recompute, never a crashed reader or a served garbage result.
        """
        row = self._connection.execute(
            "SELECT state, result_json FROM jobs WHERE digest = ?", (digest,)
        ).fetchone()
        if row is None:
            raise JobNotFoundError(f"no job with digest {digest}")
        state, record = row
        if state != "done":
            return None
        summary = self._validate_result(digest, record)
        if summary is None:
            with self._transaction() as cursor:
                # Guarded on state: another handle may have requeued (or even
                # re-completed) the job between our read and this write.
                cursor.execute(
                    "UPDATE jobs SET state='queued', result_json=NULL,"
                    " attempts=0, error=?, enqueued_at=?"
                    " WHERE digest = ? AND state='done'"
                    " AND result_json IS ?",
                    (
                        "stored result record was corrupt; requeued",
                        float(self._clock()),
                        digest,
                        record,
                    ),
                )
            return None
        return summary

    @staticmethod
    def _validate_result(digest: str, record) -> Optional[Dict[str, object]]:
        if not isinstance(record, str):
            return None
        try:
            payload = json.loads(record)
        except ValueError:
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("format") != RESULT_FORMAT
            or payload.get("run_digest") != digest
            or not isinstance(payload.get("summary"), dict)
        ):
            return None
        return payload["summary"]

    def get(self, digest: str) -> JobRecord:
        row = self._connection.execute(
            "SELECT state, attempts, max_attempts, lease_owner, error"
            " FROM jobs WHERE digest = ?",
            (digest,),
        ).fetchone()
        if row is None:
            raise JobNotFoundError(f"no job with digest {digest}")
        submitters = [
            name
            for (name,) in self._connection.execute(
                "SELECT name FROM job_submitters WHERE digest = ? ORDER BY name",
                (digest,),
            )
        ]
        state, attempts, max_attempts, lease_owner, error = row
        return JobRecord(
            digest=digest,
            state=state,
            attempts=int(attempts),
            max_attempts=int(max_attempts),
            lease_owner=lease_owner,
            error=error,
            submitters=submitters,
        )

    def jobs(self, state: Optional[str] = None) -> List[JobRecord]:
        query = "SELECT digest FROM jobs"
        parameters: tuple = ()
        if state is not None:
            query += " WHERE state = ?"
            parameters = (state,)
        digests = [
            digest
            for (digest,) in self._connection.execute(
                query + " ORDER BY rowid", parameters
            )
        ]
        return [self.get(digest) for digest in digests]

    def counts(self) -> Dict[str, int]:
        counts = {state: 0 for state in JOB_STATES}
        for state, count in self._connection.execute(
            "SELECT state, COUNT(*) FROM jobs GROUP BY state"
        ):
            counts[state] = int(count)
        return counts

    def accounting(self) -> List[Dict[str, object]]:
        """Per-submitter rate/budget rows (for the status CLI)."""
        return [
            {
                "submitter": name,
                "submitted": int(submitted),
                "attached": int(attached),
                "replayed": int(replayed),
                "evaluations_charged": int(charged),
            }
            for name, submitted, attached, replayed, charged in (
                self._connection.execute(
                    "SELECT name, submitted, attached, replayed,"
                    " evaluations_charged FROM submitters ORDER BY name"
                )
            )
        ]

    def queue_metrics(self) -> Dict[str, object]:
        """Queue depth by state + oldest queued-job age, in one snapshot.

        The same numbers feed the worker's telemetry gauges and the status
        CLI.  ``oldest_queued_age_seconds`` is None with nothing queued (or
        when every queued row predates the ``enqueued_at`` migration); ages
        are measured on the store's clock and clamped at zero.
        """
        depth = self.counts()
        row = self._connection.execute(
            "SELECT MIN(enqueued_at) FROM jobs"
            " WHERE state='queued' AND enqueued_at IS NOT NULL"
        ).fetchone()
        oldest = None
        if row is not None and row[0] is not None:
            oldest = max(0.0, float(self._clock()) - float(row[0]))
        return {"depth": depth, "oldest_queued_age_seconds": oldest}

    def status(self) -> Dict[str, object]:
        return {
            "path": str(self._path),
            "counts": self.counts(),
            "queue": self.queue_metrics(),
            "submitters": self.accounting(),
        }


def _result_record(digest: str, summary: Dict[str, object]) -> str:
    """The stored result record :meth:`JobStore._validate_result` checks."""
    return json.dumps(
        {"format": RESULT_FORMAT, "run_digest": digest, "summary": summary}
    )


class _Transaction:
    """``BEGIN IMMEDIATE`` context manager over one sqlite connection.

    IMMEDIATE takes the write lock up front, so every state transition in
    the block observes a stable snapshot and two racing claimers serialize
    instead of both reading ``queued`` and both "winning".
    """

    def __init__(self, connection: sqlite3.Connection):
        self._connection = connection

    def __enter__(self) -> sqlite3.Cursor:
        self._cursor = self._connection.execute("BEGIN IMMEDIATE")
        return self._cursor

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if exc_type is None:
            self._connection.execute("COMMIT")
        else:
            self._connection.execute("ROLLBACK")
