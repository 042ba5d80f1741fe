"""Campaign scheduler: execute a sweep's runs on one shared fault-tolerant substrate.

:func:`run_campaign` is the execution half of the sweep engine
(:mod:`repro.sweepspec` is the declarative half).  Each expanded point runs
through :func:`repro.run` — i.e. through the PR-6 retrying restart scheduler,
so fan-out happens at the restart level where retries, timeouts, and
checkpoint resume already live, not in a second layer of bare futures.  On
top of that per-run substrate the campaign adds three cross-run properties:

* **one shared evaluation cache** — every run reads/writes the sweep's
  ``cache_dir``, so points with overlapping objectives (repeated sweeps,
  constrained re-runs of the same Hamiltonian, Clifford baselines shared
  across t-budgets) dedupe their stabilizer evaluations;
* **digest-level memoization** — a completed run is stored as a ``done``
  job keyed by :meth:`RunSpec.run_digest` in the
  :class:`~repro.service.store.JobStore` of ``checkpoint_dir``
  (``<checkpoint_dir>/queue.sqlite``, the service's data-directory layout),
  so an already-completed point in a resubmitted (or killed-and-restarted)
  sweep is a whole-run cache hit that never touches the orchestrator, and
  ``python -m repro.service status|result --data <checkpoint_dir>`` can
  read the sweep's points;
* **partial-sweep semantics** — a point whose run raises
  :class:`~repro.exceptions.IncompleteRunError` (its ``FailurePolicy``
  retries exhausted) is recorded in the :class:`SweepReport` with its
  per-restart failure metadata, and the remaining points still run.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro import telemetry
from repro.exceptions import IncompleteRunError, JobNotFoundError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.runspec import RunReport, RunSpec
    from repro.sweepspec import SweepPoint, SweepSpec

__all__ = [
    "SweepRun",
    "SweepPointFailure",
    "SweepReport",
    "run_campaign",
]

# Summary keys surfaced in ``SweepReport.as_table`` rows (one flat printable
# dict per point, coordinates first).
_TABLE_SUMMARY_KEYS = (
    "problem",
    "energy",
    "reference_energy",
    "exact_energy",
    "error",
    "improvement_over_reference",
    "total_evaluations",
    "num_failed_restarts",
)


@dataclass
class SweepRun:
    """One completed point: its coordinates, digest, and summary payload.

    ``summary`` is the run's :meth:`RunReport.to_dict` payload (also what the
    job store's result record holds).  ``report`` is the full in-memory
    :class:`~repro.runspec.RunReport` for freshly-executed points and ``None``
    for memoized ones — a memo hit deliberately skips problem construction
    and search entirely.
    """

    index: int
    coords: Dict[str, object]
    spec: "RunSpec" = field(repr=False)
    run_digest: str = ""
    summary: Dict[str, object] = field(default_factory=dict, repr=False)
    memoized: bool = False
    report: Optional["RunReport"] = field(default=None, repr=False)
    duration_seconds: float = 0.0

    @property
    def energy(self) -> float:
        return float(self.summary["energy"])


@dataclass
class SweepPointFailure:
    """A point whose run stayed incomplete after its retry policy: why."""

    index: int
    coords: Dict[str, object]
    run_digest: str
    error_type: str
    message: str
    failed_restarts: List[Dict[str, object]] = field(default_factory=list)

    def __repr__(self) -> str:
        return (
            f"SweepPointFailure(point={self.index}, {self.error_type}: "
            f"{self.message[:80]})"
        )


@dataclass
class SweepReport:
    """Aggregate outcome of one campaign: per-point rows + failure metadata."""

    sweep: "SweepSpec" = field(repr=False)
    runs: List[SweepRun]
    failures: List[SweepPointFailure] = field(default_factory=list)
    duration_seconds: float = 0.0
    #: aggregated telemetry of the campaign's recording directory; None when
    #: telemetry was off (the default) — execution metadata, not trajectory.
    telemetry_summary: Optional[Dict[str, object]] = field(default=None, repr=False)

    # ------------------------------------------------------------------ #
    @property
    def num_points(self) -> int:
        return len(self.runs) + len(self.failures)

    @property
    def num_completed(self) -> int:
        return len(self.runs)

    @property
    def num_memoized(self) -> int:
        return sum(1 for run in self.runs if run.memoized)

    @property
    def is_partial(self) -> bool:
        """Whether some points failed permanently (completed-points-only rows)."""
        return bool(self.failures)

    @property
    def energies(self) -> List[float]:
        return [run.energy for run in self.runs]

    def run_at(self, **coords) -> Optional[SweepRun]:
        """The completed run matching every given ``axis=value`` (or None)."""
        for run in self.runs:
            if all(run.coords.get(key) == value for key, value in coords.items()):
                return run
        return None

    # ------------------------------------------------------------------ #
    def as_table(self) -> List[Dict[str, object]]:
        """Flatten completed points into printable rows (coords first)."""
        rows = []
        for run in self.runs:
            row: Dict[str, object] = {"point": run.index, **run.coords}
            for key in _TABLE_SUMMARY_KEYS:
                if key in run.summary:
                    row[key] = run.summary[key]
            row["memoized"] = run.memoized
            rows.append(row)
        return rows

    def to_dict(self) -> Dict[str, object]:
        """JSON-able aggregate: rows, failure metadata, sweep echo."""
        payload: Dict[str, object] = {
            "name": self.sweep.name,
            "num_points": self.num_points,
            "num_completed": self.num_completed,
            "num_failed": len(self.failures),
            "num_memoized": self.num_memoized,
            "is_partial": self.is_partial,
            "axes": [[name, list(values)] for name, values in self.sweep.axes.items()],
            "rows": self.as_table(),
            "failures": [
                {
                    "point": failure.index,
                    "coords": dict(failure.coords),
                    "run_digest": failure.run_digest,
                    "error_type": failure.error_type,
                    "message": failure.message,
                    "failed_restarts": list(failure.failed_restarts),
                }
                for failure in self.failures
            ],
            "duration_seconds": self.duration_seconds,
        }
        if self.telemetry_summary is not None:
            payload["telemetry_summary"] = self.telemetry_summary
        return payload

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def __repr__(self) -> str:
        partial = f", partial ({len(self.failures)} failed)" if self.failures else ""
        return (
            f"SweepReport({self.num_points} points, "
            f"{self.num_memoized} memoized{partial})"
        )


# --------------------------------------------------------------------------- #
# the scheduler
# --------------------------------------------------------------------------- #
def _emit(log: Optional[Callable[[str], None]], message: str) -> None:
    if log is not None:
        log(message)


def run_campaign(
    sweep: "SweepSpec", log: Optional[Callable[[str], None]] = None
) -> SweepReport:
    """Run every point of a sweep and aggregate the results.

    Points execute in expansion order, each through :func:`repro.run` (the
    orchestrator's restart scheduler does the parallel fan-out, retries, and
    resume within a point).  Already-memoized points are whole-run cache
    hits; a point that raises :class:`~repro.exceptions.IncompleteRunError`
    is recorded and skipped when the sweep's ``on_failure`` is ``"partial"``.
    """
    from repro.runspec import run

    telemetry.init()
    started = time.monotonic()
    points = sweep.expand()
    store = None
    if sweep.memoize and sweep.checkpoint_dir is not None:
        from repro.service import open_store

        store = open_store(sweep.checkpoint_dir)

    runs: List[SweepRun] = []
    failures: List[SweepPointFailure] = []
    try:
        for point in points:
            digest = point.spec.run_digest()
            summary = None
            if store is not None:
                # A validated record, or None: missing, unfinished, or corrupt
                # (which the store requeues) — the worst case is a recompute.
                try:
                    summary = store.result(digest)
                except JobNotFoundError:
                    pass
            if summary is not None:
                telemetry.event(
                    "campaign.memo_hit", point=point.index, digest=digest
                )
                _emit(
                    log,
                    f"[campaign] point {point.index} ({point.label}): "
                    f"cache hit — memoized run {digest}",
                )
                runs.append(
                    SweepRun(
                        index=point.index,
                        coords=dict(point.coords),
                        spec=point.spec,
                        run_digest=digest,
                        summary=summary,
                        memoized=True,
                    )
                )
                continue
            point_started = time.monotonic()
            try:
                with telemetry.span(
                    "campaign.point", point=point.index, label=point.label
                ):
                    report = run(point.spec)
            except IncompleteRunError as error:
                if sweep.on_failure == "raise":
                    raise
                failure = _point_failure(point, digest, error)
                failures.append(failure)
                _emit(
                    log,
                    f"[campaign] point {point.index} ({point.label}): failed "
                    f"({failure.error_type}) — recorded, sweep continues",
                )
                continue
            elapsed = time.monotonic() - point_started
            summary = report.to_dict()
            if store is not None:
                store.record(point.spec, summary)
            _emit(
                log,
                f"[campaign] point {point.index} ({point.label}): "
                f"E={report.energy:+.6f} in {elapsed:.1f}s",
            )
            runs.append(
                SweepRun(
                    index=point.index,
                    coords=dict(point.coords),
                    spec=point.spec,
                    run_digest=digest,
                    summary=summary,
                    memoized=False,
                    report=report,
                    duration_seconds=elapsed,
                )
            )
    finally:
        if store is not None:
            store.close()
    telemetry_summary = None
    recorder = telemetry.current()
    if recorder is not None:
        from repro.telemetry.report import aggregate

        telemetry.flush()
        telemetry_summary = aggregate(recorder.directory)
    return SweepReport(
        sweep=sweep,
        runs=runs,
        failures=failures,
        duration_seconds=time.monotonic() - started,
        telemetry_summary=telemetry_summary,
    )


def _point_failure(
    point: "SweepPoint", digest: str, error: IncompleteRunError
) -> SweepPointFailure:
    return SweepPointFailure(
        index=point.index,
        coords=dict(point.coords),
        run_digest=digest,
        error_type=type(error).__name__,
        message=str(error)[:500],
        failed_restarts=[restart.summary() for restart in getattr(error, "failures", [])],
    )
