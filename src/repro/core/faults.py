"""Failure policy and the fault-injection seam of orchestrated searches.

* :class:`FailurePolicy` — the JSON-round-trippable retry contract of one
  orchestrated run: how many times a transiently-failed restart is re-run,
  the per-restart wall-clock timeout, a deterministic seeded backoff between
  attempts, and what to do when retries are exhausted (``raise`` an
  :class:`~repro.exceptions.IncompleteRunError` or return the surviving
  restarts as a ``partial`` result).  Retries resume from the per-restart
  evaluation shards and checkpoints, so a retried restart is bit-identical
  to an uninterrupted one.

* :func:`fault_hooks` — the one fault-injection seam: the Python file named
  by ``REPRO_FAULT_HOOKS`` (the chaos tests' ``tests/chaos_faults.py``)
  offers ``wrap_objective(objective, task)``, called on every restart's
  cached objective, and ``fire(event)``, called by the service worker at
  ``"post_claim"``, ``"pre_complete"`` and ``"post_complete"``.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from types import ModuleType
from typing import Dict, Optional, Union

import numpy as np

from repro.exceptions import OptimizationError, ReproError

__all__ = ["FailurePolicy", "FAULT_HOOKS_ENV", "fault_hooks", "fire_fault_hook"]

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


FAULT_HOOKS_ENV = "REPRO_FAULT_HOOKS"


def fault_hooks() -> Optional[ModuleType]:
    """The hook module named by ``REPRO_FAULT_HOOKS``, or ``None`` when unset.

    The variable is read on every call; the file is imported once per
    process, registered in ``sys.modules`` under its stem, so a test that
    imports it by that name shares its module object and exception classes.
    """
    location = os.environ.get(FAULT_HOOKS_ENV, "").strip()
    if not location:
        return None
    path = Path(location).resolve()
    module = sys.modules.get(path.stem)
    if module is None:
        spec = importlib.util.spec_from_file_location(path.stem, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[path.stem] = module
        try:
            spec.loader.exec_module(module)
        except BaseException:
            del sys.modules[path.stem]
            raise
    elif Path(getattr(module, "__file__", None) or "").resolve() != path:
        raise ReproError(f"{FAULT_HOOKS_ENV}: module name {path.stem!r} is taken")
    return module


def fire_fault_hook(event: str) -> None:
    """Hand a service lifecycle ``event`` to the hook module, if one is set."""
    hooks = fault_hooks()
    if hooks is not None:
        hooks.fire(event)
