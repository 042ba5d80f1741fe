"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish the subsystem that failed.
"""

from __future__ import annotations

from concurrent.futures import BrokenExecutor


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class CircuitError(ReproError):
    """Raised for malformed circuits, gates, or parameter bindings."""


class OperatorError(ReproError):
    """Raised for malformed Pauli operators or invalid operator algebra."""


class SimulationError(ReproError):
    """Raised when a simulator is asked to do something it cannot."""


class ChemistryError(ReproError):
    """Raised by the quantum chemistry stack (basis sets, SCF, mappings)."""


class ConvergenceError(ChemistryError):
    """Raised when an iterative procedure (e.g. SCF) fails to converge."""


class OptimizationError(ReproError):
    """Raised by classical optimizers and the Bayesian search."""


class NoiseModelError(ReproError):
    """Raised for inconsistent noise model definitions."""


# --------------------------------------------------------------------------- #
# failure taxonomy for the fault-tolerant orchestrator
# --------------------------------------------------------------------------- #
class RestartFailureError(ReproError):
    """Base class for failures of one orchestrated search restart.

    ``transient`` encodes the retry decision: a transient failure (worker
    crash, hang past the per-restart timeout, I/O hiccup) may succeed when the
    restart is re-run — and, thanks to replay-from-cache resume, the retry is
    bit-identical to an uninterrupted run.  A deterministic failure (bad
    input, a bug in the objective) would recur identically on every attempt,
    so the scheduler fails it fast instead of burning the retry budget.
    """

    transient = False


class TransientRestartError(RestartFailureError):
    """A restart failure that a retry can plausibly fix."""

    transient = True


class DeterministicRestartError(RestartFailureError):
    """A restart failure that would recur identically on retry."""

    transient = False


class WorkerCrashError(TransientRestartError):
    """The worker process running a restart died (e.g. killed, segfault)."""


class RestartTimeoutError(TransientRestartError):
    """A restart (or a VQE tuning stage) exceeded its wall-clock timeout."""


class IncompleteRunError(ReproError):
    """An orchestrated run could not complete every restart.

    Raised when restarts remain failed after the
    :class:`~repro.core.faults.FailurePolicy` retry budget is exhausted and
    the policy says ``on_incomplete="raise"`` — or when *every* restart
    failed, in which case there is no partial result to return regardless of
    policy.  ``failures`` carries one
    :class:`~repro.core.orchestrator.RestartFailure` per dead restart and
    ``result`` the partial :class:`~repro.core.orchestrator.MultiSeedResult`
    over the surviving restarts (``None`` if none survived).
    """

    def __init__(self, message: str, failures=(), result=None):
        super().__init__(message)
        self.failures = list(failures)
        self.result = result


# --------------------------------------------------------------------------- #
# search service (durable job queue + result store)
# --------------------------------------------------------------------------- #
class ServiceError(ReproError):
    """Base class for failures of the durable search service."""


class JobNotFoundError(ServiceError):
    """No job with the given run digest exists in the job store."""


class BackpressureError(ServiceError):
    """A submitter has too many jobs in flight; retry after some drain.

    Transient by construction: the same submission succeeds once the
    submitter's pending jobs complete.
    """

    transient = True


class BudgetExceededError(ServiceError):
    """A submission would exceed the submitter's evaluation budget."""

    transient = False


class LeaseLostError(ServiceError):
    """A worker's lease expired (or was reclaimed) before it finished.

    Raised by state transitions that require holding the lease — completing
    or failing a job.  The job has been (or will be) reclaimed by another
    worker; the late worker must drop its result on the floor, not store it.
    """

    transient = True


# Non-library exception types that still warrant a retry: infrastructure
# errors (file systems, sockets, memory pressure) rather than logic errors.
_TRANSIENT_BUILTIN_TYPES = (
    BrokenExecutor,  # includes concurrent.futures.process.BrokenProcessPool
    ConnectionError,
    InterruptedError,
    MemoryError,
    OSError,
    TimeoutError,
)


def is_transient_failure(error: BaseException) -> bool:
    """Whether a restart failure is worth retrying.

    Library failures carry their own classification
    (:attr:`RestartFailureError.transient`); infrastructure failures —
    a broken process pool, I/O errors, memory pressure, timeouts — are
    transient; everything else (``ValueError``, :class:`OptimizationError`,
    arbitrary bugs in an objective) is deterministic and fails fast.
    """
    if isinstance(error, RestartFailureError):
        return error.transient
    # Service-layer errors carry a class-level ``transient`` flag too (e.g.
    # BackpressureError is worth retrying, BudgetExceededError is not).
    transient = getattr(type(error), "transient", None)
    if isinstance(transient, bool):
        return transient
    return isinstance(error, _TRANSIENT_BUILTIN_TYPES)
