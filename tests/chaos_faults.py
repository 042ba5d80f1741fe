"""Deterministic fault injection for the chaos tests.

Point ``REPRO_FAULT_HOOKS`` at this file and :func:`repro.core.faults
.fault_hooks` imports it once per process as ``chaos_faults``.  Two JSON
plans arm faults: ``REPRO_FAULT_SPEC`` (:class:`FaultSpec`) crashes, hangs,
raises in, or tears the files of a restart at an exact evaluation count, and
``REPRO_SERVICE_FAULT_SPEC`` (:class:`ServiceFaultSpec`) fires at the service
worker's lifecycle events.  Firings are counted in marker files under
``REPRO_FAULT_DIR``, shared across attempts and processes, so a fault that
fires ``times`` times stops on the retry that should succeed.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core.orchestrator import _checkpoint_path
from repro.exceptions import DeterministicRestartError, ReproError, TransientRestartError

Environ = Optional[Dict[str, str]]  # ``os.environ`` when None
HOOK_FILE = __file__  # the value of REPRO_FAULT_HOOKS that arms this harness
FAULT_SPEC_ENV = "REPRO_FAULT_SPEC"
FAULT_DIR_ENV = "REPRO_FAULT_DIR"
SERVICE_FAULT_ENV = "REPRO_SERVICE_FAULT_SPEC"

_FAULT_MODES = ("crash", "hang", "raise", "corrupt")
_SERVICE_FAULT_MODES = ("crash", "raise")
# Crashed holding a fresh lease; computed but never marked done; crashed after
# commit (a retry must replay the stored result, not recompute).
SERVICE_FAULT_EVENTS = ("post_claim", "pre_complete", "post_complete")


class InjectedFaultError(TransientRestartError):
    """Raised by an injected raise-mode (or outlived hang-mode) fault."""


def marker_dir(data_dir: os.PathLike) -> Path:
    """The marker directory the service chaos tests keep beside their data."""
    return Path(data_dir) / "markers"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ReproError(message)


def _require_choice(what: str, value: str, choices: tuple) -> None:
    _require(value in choices, f"{what} must be one of {choices}, got {value!r}")


def _marker_directory() -> Path:
    """The armed plan's marker directory, ``REPRO_FAULT_DIR`` (required)."""
    raw = os.environ.get(FAULT_DIR_ENV, "").strip()
    _require(bool(raw), f"an armed fault plan needs {FAULT_DIR_ENV}")
    Path(raw).mkdir(parents=True, exist_ok=True)
    return Path(raw)


def _claim_firing(marker: Path, times: int, note: str) -> bool:
    """Record one firing in ``marker`` unless it already holds ``times``
    (written and closed before the caller fires, so it survives ``os._exit``)."""
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

    ``at`` is the cumulative evaluation count that fires it; ``times`` bounds
    its firings across attempts; ``transient=False`` makes ``raise`` fail fast.
    """

    restart: int
    mode: str
    at: int = 1
    times: int = 1
    transient: bool = True

    def __post_init__(self):
        _require_choice("fault mode", self.mode, _FAULT_MODES)
        _require(int(self.at) >= 1, "fault 'at' must be a positive evaluation count")
        _require(int(self.times) >= 1, "fault 'times' must be a positive firing count")


@dataclass(frozen=True)
class ServiceFaultSpec:
    """One prescribed service-layer fault: what fires at which lifecycle event."""

    event: str
    mode: str = "crash"
    times: int = 1

    def __post_init__(self):
        _require_choice("service fault event", self.event, SERVICE_FAULT_EVENTS)
        _require_choice("service fault mode", self.mode, _SERVICE_FAULT_MODES)
        _require(int(self.times) >= 1, "fault 'times' must be a positive firing count")


def _load_plan(env_var: str, spec_type: type, environ: Environ) -> list:
    """The fault plan in ``env_var`` (a JSON list of ``spec_type`` objects): none
    when unset, and a malformed plan raises rather than run fault-free."""
    raw = (os.environ if environ is None else environ).get(env_var, "").strip()
    if not raw:
        return []
    try:
        payload = json.loads(raw)
    except ValueError as error:
        raise ReproError(f"{env_var} is not valid JSON: {error}") from error
    _require(isinstance(payload, list), f"{env_var} must be a JSON list of fault objects")
    known = {spec_field.name for spec_field in fields(spec_type)}
    plan = []
    for entry in payload:
        _require(isinstance(entry, dict), f"{env_var} entries must be JSON objects")
        unknown = sorted(set(entry) - known)
        _require(
            not unknown, f"unknown fault fields in {env_var}: {', '.join(unknown)}"
        )
        plan.append(spec_type(**entry))
    return plan


def load_fault_plan(environ: Environ = None) -> List[FaultSpec]:
    """The evaluation-level fault plan in ``REPRO_FAULT_SPEC``."""
    return _load_plan(FAULT_SPEC_ENV, FaultSpec, environ)


def load_service_fault_plan(environ: Environ = None) -> List[ServiceFaultSpec]:
    """The service-layer fault plan in ``REPRO_SERVICE_FAULT_SPEC``."""
    return _load_plan(SERVICE_FAULT_ENV, ServiceFaultSpec, environ)


def faults_for_restart(restart_index: int, environ: Environ = None) -> List[FaultSpec]:
    """The prescribed faults targeting one restart, in firing order."""
    return sorted(
        (f for f in load_fault_plan(environ) if int(f.restart) == int(restart_index)),
        key=lambda f: int(f.at),
    )


class FaultInjectingObjective:
    """Wraps an objective and fires prescribed faults at exact eval counts.

    The count includes cache hits, so a retried restart, replaying cached
    evaluations, reaches the same count at the same trajectory position and
    re-arms exactly the faults its marker files say are still due.
    """

    def __init__(self, objective, faults: Sequence[FaultSpec], restart_index: int,
                 marker_dir: os.PathLike, checkpoint_path=None, shard_path=None):
        self._objective = objective
        self._faults = sorted(faults, key=lambda f: int(f.at))
        self._restart_index = int(restart_index)
        self._marker_dir = Path(marker_dir)
        self._checkpoint_path = checkpoint_path
        self._shard_path = shard_path
        self._count = 0

    def __getattr__(self, name):
        return getattr(self._objective, name)

    def _tear_own_files(self) -> None:
        """Simulate a kill mid-write: torn shard tail + half-written checkpoint."""
        self._objective.flush()
        if self._shard_path is not None and self._shard_path.exists():
            with open(self._shard_path, "a") as handle:
                handle.write('["torn-by-fault-injection", [')  # no newline: torn
        if self._checkpoint_path is not None:
            self._checkpoint_path.write_text('{"format": 1, "status": "do')

    def _fire(self, fault: FaultSpec) -> None:
        if fault.mode == "corrupt":
            self._tear_own_files()
        if fault.mode in ("crash", "corrupt"):
            os._exit(13)
        if fault.mode == "hang":  # an hour, unless the scheduler kills us first
            time.sleep(3600.0)
        transient = fault.transient or fault.mode == "hang"
        raise (InjectedFaultError if transient else DeterministicRestartError)(
            f"restart {self._restart_index}: injected {fault.mode} fault at "
            f"evaluation {self._count}"
        )

    def _advance(self, evaluations: int) -> None:
        self._count += int(evaluations)
        for position, fault in enumerate(self._faults):
            name = f"fault_r{self._restart_index:03d}_{position}.fired"
            if self._count >= int(fault.at) and _claim_firing(
                self._marker_dir / name, fault.times, f"{fault.mode}@{self._count}"
            ):
                self._fire(fault)

    def __call__(self, indices) -> float:
        return float(self.evaluate_batch([indices])[0])

    def evaluate_batch(self, points):
        values = self._objective.evaluate_batch(points)
        self._advance(len(points))
        return values


# The REPRO_FAULT_HOOKS entry points.
def wrap_objective(objective, task):
    """Arm the restart's prescribed faults on its cached objective."""
    faults = faults_for_restart(task.restart_index)
    if not faults:
        return objective
    writer = objective._writer  # the CachedObjective's shard writer, or None
    checkpoint = _checkpoint_path(task) if task.checkpoint_dir else None
    shard = writer.path if writer is not None else None
    return FaultInjectingObjective(
        objective, faults, task.restart_index, _marker_directory(), checkpoint, shard
    )


def fire(event: str) -> None:
    """Fire any still-armed service fault prescribed for this lifecycle event."""
    plan = load_service_fault_plan()
    for position, fault in enumerate(plan):
        if fault.event == event and _claim_firing(
            _marker_directory() / f"service_fault_{position}_{event}.fired",
            fault.times,
            f"{fault.mode}@pid{os.getpid()}",
        ):
            if fault.mode == "crash":
                os._exit(13)
            raise InjectedFaultError(
                f"injected service fault at {event} (pid {os.getpid()})"
            )
