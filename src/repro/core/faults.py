"""Failure policy and deterministic fault injection for orchestrated searches.

Two halves, both consumed by :mod:`repro.core.orchestrator`:

* :class:`FailurePolicy` — the JSON-round-trippable retry contract of one
  orchestrated run: how many times a transiently-failed restart is re-run,
  the per-restart wall-clock timeout, a deterministic seeded backoff between
  attempts, and what to do when retries are exhausted (``raise`` an
  :class:`~repro.exceptions.IncompleteRunError` or return the surviving
  restarts as a ``partial`` result).  Retries resume from the per-restart
  evaluation shards and checkpoints, so a retried restart is bit-identical
  to an uninterrupted one.

* :class:`FaultInjectingObjective` + the ``REPRO_FAULT_SPEC`` env hook — a
  deterministic chaos harness.  A JSON fault plan prescribes, per restart,
  an evaluation count at which the worker crashes (``os._exit``), hangs
  (sleeps past any timeout), raises, or tears its own checkpoint/shard files
  mid-write before crashing (``corrupt``).  Firings are counted in marker
  files shared across attempts and processes, so a fault that fires ``times``
  times stops firing on the retry that should succeed — which turns chaos
  scenarios into ordinary deterministic pytest cases.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.exceptions import (
    DeterministicRestartError,
    InjectedFaultError,
    OptimizationError,
    ReproError,
)

__all__ = [
    "FailurePolicy",
    "FaultSpec",
    "FaultInjectingObjective",
    "FAULT_SPEC_ENV",
    "FAULT_DIR_ENV",
    "SERVICE_FAULT_ENV",
    "ServiceFaultSpec",
    "load_fault_plan",
    "load_service_fault_plan",
    "faults_for_restart",
    "maybe_fire_service_fault",
]

_ON_INCOMPLETE_CHOICES = ("raise", "partial")


@dataclass(frozen=True)
class FailurePolicy:
    """How an orchestrated run treats restart failures.

    ``max_retries`` bounds *re*-runs per restart (``max_retries=2`` means at
    most three attempts).  Only transient failures (see
    :func:`repro.exceptions.is_transient_failure`) are retried; deterministic
    ones fail fast.  ``restart_timeout`` is a per-attempt wall-clock limit in
    seconds, enforced by the parent when restarts run in worker processes —
    a worker past its deadline is killed and the attempt counts as a
    :class:`~repro.exceptions.RestartTimeoutError`.  It needs at least two
    workers: a one-worker run executes its restarts in this process through
    the same scheduler, which cannot preempt a hung evaluation there.
    Retries, backoff and the endgame apply the same way with one worker or
    many.  ``on_incomplete`` decides the endgame once retries are
    exhausted: ``"raise"`` (default) raises
    :class:`~repro.exceptions.IncompleteRunError`; ``"partial"`` returns the
    surviving restarts with the failures recorded on the result.

    Backoff between attempts is deterministic: ``backoff_seconds *
    backoff_multiplier**(attempt-1)``, jittered by a factor derived from
    ``(seed, restart_index, attempt)`` via ``SeedSequence`` — two runs of the
    same spec wait the same delays — and capped at ``max_backoff_seconds``.
    The default base of 0 disables waiting entirely (retries resume from
    checkpoints, so they are nearly free).
    """

    max_retries: int = 2
    restart_timeout: Optional[float] = None
    backoff_seconds: float = 0.0
    backoff_multiplier: float = 2.0
    max_backoff_seconds: float = 30.0
    on_incomplete: str = "raise"

    def __post_init__(self):
        if int(self.max_retries) < 0:
            raise OptimizationError("max_retries must be non-negative")
        if self.restart_timeout is not None and float(self.restart_timeout) <= 0:
            raise OptimizationError("restart_timeout must be positive when given")
        if float(self.backoff_seconds) < 0:
            raise OptimizationError("backoff_seconds must be non-negative")
        if float(self.backoff_multiplier) < 1.0:
            raise OptimizationError("backoff_multiplier must be at least 1")
        if self.on_incomplete not in _ON_INCOMPLETE_CHOICES:
            raise OptimizationError(
                f"on_incomplete must be one of {_ON_INCOMPLETE_CHOICES}, "
                f"got {self.on_incomplete!r}"
            )

    # ------------------------------------------------------------------ #
    @property
    def max_attempts(self) -> int:
        return int(self.max_retries) + 1

    def backoff_delay(
        self, seed: Optional[int], restart_index: int, attempt: int
    ) -> float:
        """Deterministic pre-retry delay (seconds) after a failed ``attempt``."""
        base = float(self.backoff_seconds) * float(self.backoff_multiplier) ** (
            max(1, int(attempt)) - 1
        )
        if base <= 0.0:
            return 0.0
        sequence = np.random.SeedSequence(
            entropy=(0 if seed is None else int(seed), int(restart_index), int(attempt))
        )
        jitter = float(sequence.generate_state(1, dtype=np.uint64)[0]) / float(2**64)
        return min(base * (0.5 + 0.5 * jitter), float(self.max_backoff_seconds))

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FailurePolicy":
        known = {policy_field.name for policy_field in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ReproError(f"unknown FailurePolicy fields: {', '.join(unknown)}")
        return cls(**payload)

    @classmethod
    def coerce(
        cls, value: Union[None, Dict[str, object], "FailurePolicy"]
    ) -> "FailurePolicy":
        """The policy named by ``value``: an instance, a JSON dict, or the default."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls.from_dict(value)
        raise ReproError(
            f"failure_policy must be a FailurePolicy or a dict, got {type(value).__name__}"
        )


# --------------------------------------------------------------------------- #
# fault injection
# --------------------------------------------------------------------------- #
FAULT_SPEC_ENV = "REPRO_FAULT_SPEC"
FAULT_DIR_ENV = "REPRO_FAULT_DIR"

_FAULT_MODES = ("crash", "hang", "raise", "corrupt")


def _claim_firing(marker: Path, times: int, note: str) -> bool:
    """Record one firing in ``marker`` unless it already holds ``times``.

    A marker file holds one line per firing, shared across attempts and
    processes.  The line is written and the file closed before the caller
    fires, so the record survives ``os._exit``.
    """
    try:
        fired = len(marker.read_text().splitlines())
    except OSError:
        fired = 0
    if fired >= int(times):
        return False
    with open(marker, "a") as handle:
        handle.write(f"{note}\n")
    return True


@dataclass(frozen=True)
class FaultSpec:
    """One prescribed fault: what happens to which restart, and when.

    ``at`` is the cumulative constrained-evaluation count that triggers the
    fault (batch evaluations advance the count by the batch size).  ``times``
    bounds how often the fault fires across attempts — counted in a marker
    file when a marker directory is available, so a retried restart replays
    to the same evaluation count and sails past an exhausted fault.
    ``transient=False`` turns ``raise`` mode into a
    :class:`~repro.exceptions.DeterministicRestartError` (fails fast).
    """

    restart: int
    mode: str
    at: int = 1
    times: int = 1
    hang_seconds: float = 3600.0
    transient: bool = True

    def __post_init__(self):
        if self.mode not in _FAULT_MODES:
            raise ReproError(
                f"fault mode must be one of {_FAULT_MODES}, got {self.mode!r}"
            )
        if int(self.at) < 1:
            raise ReproError("fault 'at' must be a positive evaluation count")
        if int(self.times) < 1:
            raise ReproError("fault 'times' must be a positive firing count")


def _load_plan(
    env_var: str, spec_type: type, environ: Optional[Dict[str, str]]
) -> list:
    """The fault plan in ``env_var`` (a JSON list of ``spec_type`` objects).

    An absent or empty variable means no faults; a malformed one raises — a
    chaos run with an unparsable plan must not silently run fault-free.
    """
    environ = os.environ if environ is None else environ
    raw = environ.get(env_var, "").strip()
    if not raw:
        return []
    try:
        payload = json.loads(raw)
    except ValueError as error:
        raise ReproError(f"{env_var} is not valid JSON: {error}") from error
    if not isinstance(payload, list):
        raise ReproError(f"{env_var} must be a JSON list of fault objects")
    known = {spec_field.name for spec_field in fields(spec_type)}
    plan = []
    for entry in payload:
        if not isinstance(entry, dict):
            raise ReproError(f"{env_var} entries must be JSON objects")
        unknown = sorted(set(entry) - known)
        if unknown:
            raise ReproError(
                f"unknown fault fields in {env_var}: {', '.join(unknown)}"
            )
        plan.append(spec_type(**entry))
    return plan


def load_fault_plan(environ: Optional[Dict[str, str]] = None) -> List[FaultSpec]:
    """The evaluation-level fault plan in ``REPRO_FAULT_SPEC``."""
    return _load_plan(FAULT_SPEC_ENV, FaultSpec, environ)


def faults_for_restart(
    restart_index: int, environ: Optional[Dict[str, str]] = None
) -> List[FaultSpec]:
    """The env-prescribed faults targeting one restart, in firing order."""
    return sorted(
        (f for f in load_fault_plan(environ) if int(f.restart) == int(restart_index)),
        key=lambda f: int(f.at),
    )


# --------------------------------------------------------------------------- #
# service-layer fault injection
# --------------------------------------------------------------------------- #
SERVICE_FAULT_ENV = "REPRO_SERVICE_FAULT_SPEC"

_SERVICE_FAULT_MODES = ("crash", "raise")

# The named points in the service worker's job lifecycle where a fault can
# fire.  ``post_claim`` is "crashed while holding a fresh lease";
# ``pre_complete`` is "crashed between the leased and done state transitions"
# (the job is fully computed but never marked done — the torn-transition
# scenario); ``post_complete`` is "crashed after commit" (a retry must replay
# the stored result, not recompute).
SERVICE_FAULT_EVENTS = ("post_claim", "pre_complete", "post_complete")


@dataclass(frozen=True)
class ServiceFaultSpec:
    """One prescribed service-layer fault: what fires at which lifecycle event.

    ``times`` bounds firings across worker processes — counted in a marker
    file under the fault directory (``REPRO_FAULT_DIR``), so the retry that
    should succeed sails past an exhausted fault, exactly like the
    evaluation-level :class:`FaultSpec` harness.
    """

    event: str
    mode: str = "crash"
    times: int = 1

    def __post_init__(self):
        if self.event not in SERVICE_FAULT_EVENTS:
            raise ReproError(
                f"service fault event must be one of {SERVICE_FAULT_EVENTS}, "
                f"got {self.event!r}"
            )
        if self.mode not in _SERVICE_FAULT_MODES:
            raise ReproError(
                f"service fault mode must be one of {_SERVICE_FAULT_MODES}, "
                f"got {self.mode!r}"
            )
        if int(self.times) < 1:
            raise ReproError("fault 'times' must be a positive firing count")


def load_service_fault_plan(
    environ: Optional[Dict[str, str]] = None,
) -> List[ServiceFaultSpec]:
    """The service-layer fault plan in ``REPRO_SERVICE_FAULT_SPEC``."""
    return _load_plan(SERVICE_FAULT_ENV, ServiceFaultSpec, environ)


def maybe_fire_service_fault(
    event: str,
    marker_dir: Optional[os.PathLike] = None,
    environ: Optional[Dict[str, str]] = None,
) -> None:
    """Fire any still-armed fault prescribed for this lifecycle event.

    Called by the service worker at each :data:`SERVICE_FAULT_EVENTS` point.
    Firings are counted in marker files (one per plan position) shared
    across worker processes; without a marker directory each process
    re-fires, which still terminates because a killed worker loses its lease
    and a *different* process retries.
    """
    environ = os.environ if environ is None else environ
    plan = load_service_fault_plan(environ)
    if not plan:
        return
    if marker_dir is None:
        raw_dir = environ.get(FAULT_DIR_ENV, "").strip()
        marker_dir = raw_dir or None
    directory = Path(marker_dir) if marker_dir is not None else None
    if directory is not None:
        directory.mkdir(parents=True, exist_ok=True)
    for position, fault in enumerate(plan):
        if fault.event != event:
            continue
        if directory is not None and not _claim_firing(
            directory / f"service_fault_{position}_{fault.event}.fired",
            fault.times,
            f"{fault.mode}@pid{os.getpid()}",
        ):
            continue
        if fault.mode == "crash":
            os._exit(13)
        raise InjectedFaultError(
            f"injected service fault at {fault.event} (pid {os.getpid()})"
        )


class FaultInjectingObjective:
    """Wraps an objective and fires prescribed faults at exact eval counts.

    The wrapper counts constrained evaluations (one per point of every
    batch, a scalar call being a batch of one) *including cache hits*: the
    count is a pure function of the search trajectory, so a retried restart —
    which replays cached evaluations — reaches the same count at the same
    trajectory position and re-arms exactly the faults the marker files say
    are still due.  All other attribute access falls through to the wrapped
    objective, so the wrapper composes with
    :class:`~repro.core.evalcache.CachedObjective`.
    """

    def __init__(
        self,
        objective,
        faults: Sequence[FaultSpec],
        restart_index: int,
        marker_dir: Optional[os.PathLike] = None,
        checkpoint_path: Optional[os.PathLike] = None,
        shard_path: Optional[os.PathLike] = None,
    ):
        self._objective = objective
        self._faults = sorted(faults, key=lambda f: int(f.at))
        self._restart_index = int(restart_index)
        self._marker_dir = Path(marker_dir) if marker_dir is not None else None
        self._checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        self._shard_path = Path(shard_path) if shard_path is not None else None
        self._count = 0
        # Per-process fallback when no marker directory exists: the fault
        # then fires on every attempt (each retry is a fresh process).
        self._memory_fired = [0] * len(self._faults)
        if self._marker_dir is not None:
            self._marker_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------ #
    @property
    def wrapped(self):
        return self._objective

    def __getattr__(self, name):
        return getattr(self._objective, name)

    # ------------------------------------------------------------------ #
    def _marker_path(self, fault_position: int) -> Path:
        return (
            self._marker_dir
            / f"fault_r{self._restart_index:03d}_{fault_position}.fired"
        )

    def _claim(self, fault_position: int, fault: FaultSpec) -> bool:
        """Whether the fault is still due, recording the firing if so."""
        if self._marker_dir is not None:
            return _claim_firing(
                self._marker_path(fault_position),
                fault.times,
                f"{fault.mode}@{self._count}",
            )
        if self._memory_fired[fault_position] >= int(fault.times):
            return False
        self._memory_fired[fault_position] += 1
        return True

    def _tear_own_files(self) -> None:
        """Simulate a kill mid-write: torn shard tail + half-written checkpoint."""
        flush = getattr(self._objective, "flush", None)
        if flush is not None:
            flush()
        if self._shard_path is not None and self._shard_path.exists():
            with open(self._shard_path, "a") as handle:
                handle.write('["torn-by-fault-injection", [')  # no newline: torn
        if self._checkpoint_path is not None:
            self._checkpoint_path.write_text('{"format": 1, "status": "do')

    def _fire(self, fault: FaultSpec) -> None:
        if fault.mode == "crash":
            os._exit(13)
        if fault.mode == "corrupt":
            self._tear_own_files()
            os._exit(13)
        if fault.mode == "hang":
            time.sleep(float(fault.hang_seconds))
            raise InjectedFaultError(
                f"restart {self._restart_index}: injected hang of "
                f"{fault.hang_seconds}s elapsed without the worker being killed"
            )
        if fault.transient:
            raise InjectedFaultError(
                f"restart {self._restart_index}: injected transient fault at "
                f"evaluation {self._count}"
            )
        raise DeterministicRestartError(
            f"restart {self._restart_index}: injected deterministic fault at "
            f"evaluation {self._count}"
        )

    def _advance(self, evaluations: int) -> None:
        self._count += int(evaluations)
        for position, fault in enumerate(self._faults):
            if self._count >= int(fault.at) and self._claim(position, fault):
                self._fire(fault)

    # ------------------------------------------------------------------ #
    def __call__(self, indices) -> float:
        return float(self.evaluate_batch([indices])[0])

    def evaluate_batch(self, points):
        values = self._objective.evaluate_batch(points)
        self._advance(len(points))
        return values
