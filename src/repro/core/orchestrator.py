"""Parallel multi-seed CAFQA search orchestration with checkpoint/resume.

The paper's accuracy numbers come from best-of-many-restart searches: each
restart explores the Clifford space from a different random warm-up, and the
best incumbent across restarts is reported.  :class:`SearchOrchestrator`
shards those restarts across worker processes and merges the per-seed traces
into a :class:`MultiSeedResult`.  Each restart (:func:`run_restart`) builds
its :class:`~repro.core.objective.CliffordObjective`, wraps it in a
:class:`~repro.core.evalcache.CachedObjective` keyed on ``(objective
fingerprint, Clifford index tuple)`` (see
:func:`~repro.operators.fingerprints.objective_fingerprint`), and hands it to
a :class:`~repro.core.search.CafqaSearch`.  Callers go through
:func:`repro.run`, which builds the orchestrator from a
:class:`~repro.runspec.RunSpec`.

Checkpoint/resume works by replay-from-cache: every evaluated point is
appended to an on-disk shard (one file per worker process, so concurrent
writers never interleave), flushed every ``checkpoint_interval``
observations, and each finished restart writes a JSON checkpoint.  Because
the search trajectory is a pure function of the restart seed and the
observed values, re-running an interrupted restart with its evaluation shard
loaded reproduces the identical trajectory while paying nothing for the
already-simulated points; finished restarts are loaded straight from their
checkpoint and not re-run at all.

A checkpoint stores its observations as columns, each point one string of
one digit per slot, validated in one vectorized pass and kept as columns
until read; a checkpoint of another :data:`CHECKPOINT_FORMAT`, or one that
does not decode, is stale.  Programs compile once per ansatz shape, so a
replay builds no observation and compiles nothing it is not asked for.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
)
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.bayesopt.optimizer import BayesianOptimizationResult, Observation
from repro.circuits.ansatz import EfficientSU2Ansatz
from repro.circuits.clifford_points import indices_to_angles
from repro.core.constraints import overlap_penalties_of
from repro.core.faults import FailurePolicy, fault_hooks
from repro.core.evalcache import CachedObjective, EvaluationCacheBackend, open_cache
from repro.core.objective import CliffordObjective
from repro.core.search import CafqaResult, CafqaSearch
from repro.exceptions import (
    IncompleteRunError,
    OptimizationError,
    RestartTimeoutError,
    WorkerCrashError,
    is_transient_failure,
)
from repro.io import write_json_atomic
from repro.operators.fingerprints import objective_fingerprint
from repro.problems.base import ProblemSpec, reference_energy_of

CHECKPOINT_FORMAT = 2

# Search options that configure each restart's CliffordObjective; every
# other option configures the CafqaSearch loop that runs over it.
_OBJECTIVE_OPTIONS = ("constraint", "spin_z_target", "penalty_weight", "max_t_gates")

__all__ = [
    "SearchOrchestrator",
    "MultiSeedResult",
    "SeedTrace",
    "RestartTask",
    "AttemptFailure",
    "RestartFailure",
    "restart_seed",
    "options_digest",
    "run_restart",
]


# --------------------------------------------------------------------------- #
# restart tasks and results
# --------------------------------------------------------------------------- #
def restart_seed(base_seed: Optional[int], restart_index: int) -> Optional[int]:
    """Deterministic, well-separated RNG seed for one restart.

    Restart 0 reuses the base seed verbatim so a single-restart orchestrated
    run is bit-identical to a direct ``CafqaSearch(seed=...)`` run; later
    restarts derive independent streams through ``SeedSequence`` rather than
    ``base + k`` (which would collide with the ``seed + index`` convention
    the sweep drivers already use for neighbouring bond lengths).
    """
    if base_seed is None:
        return None
    if restart_index == 0:
        return int(base_seed)
    sequence = np.random.SeedSequence(entropy=(int(base_seed), int(restart_index)))
    return int(sequence.generate_state(1, dtype=np.uint64)[0])


def options_digest(options: Dict[str, object]) -> str:
    """Stable hex digest of search-loop options for checkpoint validation.

    Values with a value-stable ``repr`` are rendered directly; arbitrary
    objects (whose default repr may embed a memory address) are rendered as
    their type plus instance dict, so two runs configured the same way
    digest the same.  Every value digests like its own JSON round trip: at
    any depth of a plain dict/list/tuple, numpy scalars are rendered as the
    Python values they hold (``np.float64(0.75)`` digests like ``0.75``),
    tuples as lists, and dict keys are sorted.
    """
    parts = []
    for key in sorted(options):
        value = _plain(options[key])
        if isinstance(value, (int, float, str, bool, frozenset, type(None), tuple, list, dict)):
            rendered = repr(value)
        else:
            state = getattr(value, "__dict__", {})
            rendered = f"{type(value).__qualname__}({sorted(state.items())!r})"
        parts.append(f"{key}={rendered};")
    return hashlib.sha256("".join(parts).encode()).hexdigest()[:16]


def _plain(value):
    """``value`` shaped like its JSON round trip, recursively.

    Numpy scalars become Python ones, tuples lists, and dict keys are sorted.
    """
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        try:
            keys = sorted(value)
        except TypeError:  # keys that cannot be ordered keep insertion order
            keys = list(value)
        return {key: _plain(value[key]) for key in keys}
    if type(value) in (list, tuple):
        return [_plain(item) for item in value]
    return value


@dataclass
class RestartTask:
    """Everything one worker process needs to run (or resume) one restart."""

    restart_index: int
    seed: Optional[int]
    max_evaluations: int
    problem: ProblemSpec
    ansatz: EfficientSU2Ansatz
    objective_options: Dict[str, object]
    search_options: Dict[str, object]
    objective_fp: str
    options_digest: str
    store_dir: Optional[str]
    checkpoint_dir: Optional[str]
    checkpoint_interval: int
    telemetry_dir: Optional[str] = None


@dataclass
class AttemptFailure:
    """One failed attempt of one restart: what went wrong and what it cost."""

    attempt: int
    error_type: str
    message: str
    transient: bool
    elapsed_seconds: float = 0.0

    def __repr__(self) -> str:
        kind = "transient" if self.transient else "deterministic"
        return (
            f"AttemptFailure(attempt={self.attempt}, {self.error_type} "
            f"[{kind}]: {self.message})"
        )


@dataclass
class RestartFailure:
    """A restart that never completed: its full per-attempt failure history."""

    restart_index: int
    seed: Optional[int]
    attempts: int
    failures: List[AttemptFailure] = field(default_factory=list)
    wall_clock_lost_seconds: float = 0.0

    @property
    def last_error(self) -> Optional[AttemptFailure]:
        return self.failures[-1] if self.failures else None

    def summary(self) -> Dict[str, object]:
        """The JSON-able row reports and sweeps record for this restart."""
        last = self.last_error
        return {
            "restart_index": self.restart_index,
            "attempts": self.attempts,
            "last_error": None if last is None else f"{last.error_type}: {last.message}",
        }

    def __repr__(self) -> str:
        last = self.last_error
        detail = "" if last is None else f", last={last.error_type}: {last.message}"
        return (
            f"RestartFailure(restart={self.restart_index}, "
            f"attempts={self.attempts}{detail})"
        )


@dataclass
class SeedTrace:
    """The picklable outcome of one restart (one BO search + refinement).

    ``attempts``/``failures``/``wall_clock_lost_seconds`` record this run's
    scheduling history: how many times the restart was (re)submitted, what
    each failed attempt died of, and the worker wall-clock those failed
    attempts burned.  They describe execution, not trajectory — a retried
    restart's observations are bit-identical to an uninterrupted one's.
    """

    restart_index: int
    seed: Optional[int]
    best_indices: List[int]
    energy: float
    constrained_energy: float
    num_iterations: int
    converged_iteration: int
    observations: Sequence[Observation] = field(repr=False)
    duration_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    from_checkpoint: bool = False
    attempts: int = 1
    failures: List[AttemptFailure] = field(default_factory=list)
    wall_clock_lost_seconds: float = 0.0


@dataclass
class MultiSeedResult:
    """Merged outcome of all restarts of one orchestrated CAFQA search.

    ``failures`` is non-empty only for *partial* results (failure policy
    ``on_incomplete="partial"`` with some restarts dead after retries):
    ``traces``/``best`` then cover the surviving restarts, and ``failures``
    says which restarts are missing and why.
    """

    problem_name: str
    hf_energy: float
    exact_energy: Optional[float]
    traces: List[SeedTrace]
    best: CafqaResult = field(repr=False)
    failures: List[RestartFailure] = field(default_factory=list)

    @property
    def num_restarts(self) -> int:
        return len(self.traces)

    @property
    def is_partial(self) -> bool:
        """Whether some restarts failed permanently (survivors-only result)."""
        return bool(self.failures)

    @property
    def num_failed_restarts(self) -> int:
        return len(self.failures)

    @property
    def failed_restart_indices(self) -> List[int]:
        return [failure.restart_index for failure in self.failures]

    @property
    def total_attempts(self) -> int:
        """Restart attempts scheduled, including retries and dead restarts."""
        return sum(t.attempts for t in self.traces) + sum(
            f.attempts for f in self.failures
        )

    @property
    def wall_clock_lost_seconds(self) -> float:
        """Worker wall-clock burned by failed attempts across all restarts."""
        return float(
            sum(t.wall_clock_lost_seconds for t in self.traces)
            + sum(f.wall_clock_lost_seconds for f in self.failures)
        )

    @property
    def energies(self) -> List[float]:
        """Plain (unconstrained) best energy of each restart, by restart index."""
        return [trace.energy for trace in self.traces]

    @property
    def best_trace(self) -> SeedTrace:
        return min(
            self.traces,
            key=lambda t: (t.constrained_energy, t.energy, t.restart_index),
        )

    @property
    def best_energy(self) -> float:
        return self.best.energy

    @property
    def mean_energy(self) -> float:
        return float(np.mean(self.energies))

    @property
    def std_energy(self) -> float:
        return float(np.std(self.energies))

    @property
    def total_evaluations(self) -> int:
        return sum(trace.num_iterations for trace in self.traces)

    @property
    def total_cache_hits(self) -> int:
        return sum(trace.cache_hits for trace in self.traces)

    @property
    def error(self) -> Optional[float]:
        if self.exact_energy is None:
            return None
        return abs(self.best.energy - self.exact_energy)

    def __repr__(self) -> str:
        partial = (
            f", partial ({self.num_failed_restarts} failed)" if self.failures else ""
        )
        return (
            f"MultiSeedResult({self.problem_name!r}, {self.num_restarts} restarts, "
            f"best={self.best.energy:.6f} Ha, mean={self.mean_energy:.6f} Ha{partial})"
        )


# --------------------------------------------------------------------------- #
# worker
# --------------------------------------------------------------------------- #
def _checkpoint_path(task: RestartTask) -> Path:
    # Namespaced by the objective fingerprint so sweeps (e.g. a dissociation
    # curve) can share one checkpoint directory without clobbering each
    # bond length's checkpoints.
    return (
        Path(task.checkpoint_dir)
        / f"restart_{task.objective_fp}_{task.restart_index:03d}.json"
    )


def _encode_observations(observations: Sequence[Observation]) -> dict:
    """Checkpoint columns; each point is a string of one digit per slot."""
    return {
        "points": ["".join(map(str, o.point)) for o in observations],
        "values": [o.value for o in observations],
        "iterations": [o.iteration for o in observations],
        "phases": [o.phase for o in observations],
    }


def _decode_observations(columns: dict, width: int) -> "_CheckpointObservations":
    """Observations from :func:`_encode_observations` columns of ``width``-slot points.

    Ragged or non-list columns, points of another width, non-digit characters
    and values, iterations or phases of the wrong type raise ``ValueError``:
    the checkpoint is stale.  The observations are built only when read.
    """
    columns = [columns[name] for name in ("points", "values", "iterations", "phases")]
    if any(not isinstance(c, list) for c in columns) or len(set(map(len, columns))) != 1:
        raise ValueError("ragged or malformed observation columns")
    points, values, iterations, phases = columns
    digits = np.frombuffer("".join(points).encode("ascii"), dtype=np.uint8) - ord("0")
    if set(map(len, points)) - {width} or (digits > 9).any():
        raise ValueError(f"checkpoint points are not strings of {width} digits")
    if not (
        set(map(type, values)) <= {float, int}
        and set(map(type, iterations)) <= {int}
        and set(map(type, phases)) <= {str}
    ):
        raise ValueError("checkpoint values, iterations or phases of the wrong type")
    return _CheckpointObservations(
        digits.reshape(len(points), width), values, iterations, phases
    )


class _CheckpointObservations(Sequence):
    """A checkpoint's observations, held as its validated columns until read.

    The first element access builds every :class:`Observation` once; ``len``
    builds none.  Read-only, picklable as its columns, and equal to any
    sequence of equal observations.
    """

    def __init__(self, rows: np.ndarray, values: list, iterations: list, phases: list):
        self._columns = (rows, values, iterations, phases)
        self._built: Optional[Tuple[Observation, ...]] = None

    def _observations(self) -> Tuple[Observation, ...]:
        if self._built is None:
            rows = self._columns[0]
            self._built = tuple(
                Observation(tuple(row), float(value), int(iteration), str(phase))
                for row, value, iteration, phase in zip(rows.tolist(), *self._columns[1:])
            )
        return self._built

    def __len__(self) -> int:
        return len(self._columns[1])

    def __getitem__(self, index):
        built = self._observations()
        return list(built[index]) if isinstance(index, slice) else built[index]

    def __iter__(self):
        return iter(self._observations())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __reduce__(self):
        return type(self), self._columns


def _load_finished_checkpoint(task: RestartTask) -> Optional[SeedTrace]:
    """A completed restart's trace from its checkpoint, or None to (re)run.

    A checkpoint only short-circuits the restart when it matches the task's
    objective fingerprint, seed, and budget — a stale checkpoint from a
    different configuration is ignored, not trusted.  Unreadable payloads
    (truncated writes, garbage bytes, wrong JSON shape, missing fields) are
    likewise treated as stale rather than crashing the restart: the worst
    case of a corrupted checkpoint must be a recompute, never a failed run.
    """
    if task.checkpoint_dir is None:
        return None
    path = _checkpoint_path(task)
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    if (
        payload.get("format") != CHECKPOINT_FORMAT
        or payload.get("status") != "done"
        or payload.get("objective_fingerprint") != task.objective_fp
        or payload.get("options_digest") != task.options_digest
        or payload.get("seed") != task.seed
        or payload.get("max_evaluations") != task.max_evaluations
    ):
        return None
    try:
        return SeedTrace(
            restart_index=task.restart_index,
            seed=task.seed,
            best_indices=[int(v) for v in payload["best_indices"]],
            energy=float(payload["energy"]),
            constrained_energy=float(payload["constrained_energy"]),
            num_iterations=int(payload["num_iterations"]),
            converged_iteration=int(payload["converged_iteration"]),
            observations=_decode_observations(
                payload["observations"], task.ansatz.num_parameters
            ),
            from_checkpoint=True,
        )
    except (KeyError, TypeError, ValueError):
        return None


def _checkpoint_payload(task: RestartTask, **extra) -> dict:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "status": "done",
        "restart_index": task.restart_index,
        "seed": task.seed,
        "max_evaluations": task.max_evaluations,
        "objective_fingerprint": task.objective_fp,
        "options_digest": task.options_digest,
        "problem": task.problem.name,
    }
    # Deflated (excited-state) objectives record their overlap penalties, so
    # a checkpoint is self-describing: the fingerprint already namespaces per
    # level, and the payload says which states that level was deflated by.
    pairs = overlap_penalties_of(task.objective_options.get("constraint"))
    if pairs:
        payload["deflation"] = {
            "points": [[int(v) for v in point] for point, _ in pairs],
            "weights": [float(weight) for _, weight in pairs],
        }
    payload.update(extra)
    return payload


def run_restart(task: RestartTask) -> SeedTrace:
    """Run one restart to completion; the scheduler's per-restart entry point.

    A hook file named by ``REPRO_FAULT_HOOKS`` (:func:`~repro.core.faults
    .fault_hooks`) wraps the cached objective: the chaos tests' seam.
    """
    telemetry.init(task.telemetry_dir, tag=f"r{task.restart_index:03d}")
    finished = _load_finished_checkpoint(task)
    if finished is not None:
        telemetry.event("restart.from_checkpoint", restart=task.restart_index)
        telemetry.flush()
        return finished

    start = time.monotonic()
    objective = CliffordObjective(task.problem, task.ansatz, **task.objective_options)
    # Every restart memoizes its evaluations here, once: in memory, plus a
    # shard on disk when the run has a store.  Only the objective's own key
    # space is read from the store.
    cache = open_cache(task.store_dir, (objective_fingerprint(objective),))
    if cache is None:
        cache, writer = EvaluationCacheBackend(), None
    else:
        writer = cache.shard_writer(f"r{task.restart_index:03d}")
    objective = CachedObjective(objective, cache, writer)
    hooks = fault_hooks()
    if hooks is not None:
        objective = hooks.wrap_objective(objective, task)
    search = CafqaSearch(objective, seed=task.seed, **task.search_options)

    # Crash resume replays the search from the evaluation shard, so the
    # shard is flushed every ``checkpoint_interval`` observations; only a
    # finished restart writes a checkpoint file.
    observed_count = 0

    def on_observation(observation: Observation) -> None:
        nonlocal observed_count
        observed_count += 1
        if observed_count % max(1, task.checkpoint_interval) == 0:
            objective.flush()

    try:
        with telemetry.span(
            "restart", restart=task.restart_index, seed=task.seed
        ):
            result = search.run(
                max_evaluations=task.max_evaluations, callback=on_observation
            )
            telemetry.counter("search.evaluations", result.num_iterations)
    finally:
        objective.close()
        telemetry.flush()

    trace = SeedTrace(
        restart_index=task.restart_index,
        seed=task.seed,
        best_indices=list(result.best_indices),
        energy=float(result.energy),
        constrained_energy=float(result.constrained_energy),
        num_iterations=result.num_iterations,
        converged_iteration=result.converged_iteration,
        observations=list(result.search_result.observations),
        duration_seconds=time.monotonic() - start,
        cache_hits=cache.hits,
        cache_misses=cache.misses,
    )
    if task.checkpoint_dir is not None:
        write_json_atomic(
            _checkpoint_path(task),
            _checkpoint_payload(
                task,
                best_indices=trace.best_indices,
                energy=trace.energy,
                constrained_energy=trace.constrained_energy,
                num_iterations=trace.num_iterations,
                converged_iteration=trace.converged_iteration,
                observations=_encode_observations(trace.observations),
            ),
        )
    return trace


# --------------------------------------------------------------------------- #
# orchestrator
# --------------------------------------------------------------------------- #
@lru_cache(maxsize=32)
def _default_ansatz(num_qubits: int, reps: int) -> EfficientSU2Ansatz:
    """The default ansatz, one shared instance per ``(num_qubits, reps)``."""
    return EfficientSU2Ansatz(num_qubits, reps=reps)


class SearchOrchestrator:
    """Shards N independent CAFQA restarts across worker processes.

    Each restart gets its own deterministic RNG seed (see
    :func:`restart_seed`) and runs the full search — warm-up, surrogate
    rounds, coordinate-descent refinement — in a worker process, or in this
    process when there is only one worker.  With
    ``cache_dir`` (or a ``checkpoint_dir`` at :meth:`run` time) the
    stabilizer evaluations are persisted, so repeated or interrupted runs
    resume instead of recomputing.  ``checkpoint_interval`` is the number of
    observations between flushes of a restart's evaluation shard to disk:
    an interrupted restart resumes from what was flushed.

    ``max_workers=None`` uses ``min(num_restarts, cpu count)``;
    ``max_workers=1`` (or a single restart) runs the restarts one at a time
    in this process, which keeps single-seed runs free of process-pool
    overhead and bit-identical to a direct :class:`CafqaSearch` over the same
    objective.  Either way the restarts go through the same scheduler.
    :func:`repro.run` builds the orchestrator from a
    :class:`~repro.runspec.RunSpec`; drivers go through it.

    Scheduling is fault-tolerant under the run's
    :class:`~repro.core.faults.FailurePolicy`: every restart runs in its own
    future with exception isolation, transiently-failed restarts are retried
    (resuming from their evaluation shards and checkpoints, so a retried
    restart is bit-identical to an uninterrupted one), deterministic failures
    fail fast, a broken process pool is rebuilt and its in-flight restarts
    resubmitted, and a restart past ``restart_timeout`` is killed and counted
    as a timeout.  Once retries are exhausted the policy's ``on_incomplete``
    decides between raising :class:`~repro.exceptions.IncompleteRunError`
    and returning the surviving restarts as a partial result.
    """

    def __init__(
        self,
        problem: ProblemSpec,
        num_restarts: int = 4,
        max_workers: Optional[int] = None,
        seed: Optional[int] = 0,
        ansatz: Optional[EfficientSU2Ansatz] = None,
        ansatz_reps: int = 1,
        cache_dir: Optional[os.PathLike] = None,
        checkpoint_interval: int = 32,
        failure_policy: Optional[FailurePolicy] = None,
        telemetry_dir: Optional[os.PathLike] = None,
        **search_options,
    ):
        if num_restarts < 1:
            raise OptimizationError("the orchestrator needs at least one restart")
        if max_workers is not None and max_workers < 1:
            raise OptimizationError("max_workers must be at least one when given")
        self._failure_policy = FailurePolicy.coerce(failure_policy)
        self._problem = problem
        self._num_restarts = int(num_restarts)
        self._max_workers = max_workers
        self._seed = seed
        self._ansatz = ansatz if ansatz is not None else _default_ansatz(
            problem.num_qubits, int(ansatz_reps)
        )
        self._cache_dir = str(cache_dir) if cache_dir is not None else None
        self._telemetry_dir = str(telemetry_dir) if telemetry_dir is not None else None
        self._checkpoint_interval = int(checkpoint_interval)
        self._objective_options = {
            key: search_options.pop(key)
            for key in _OBJECTIVE_OPTIONS
            if key in search_options
        }
        self._search_options = search_options
        # The parent-side objective exists for fingerprinting and for
        # rebuilding the winning CafqaResult; it never simulates anything.
        self._objective = CliffordObjective(
            problem, self._ansatz, **self._objective_options
        )
        self._objective_fp = objective_fingerprint(self._objective)
        # Build one search here so a bad search option fails before any
        # restart is scheduled, not inside every restart.
        try:
            CafqaSearch(self._objective, seed=seed, **self._search_options)
        except TypeError as error:
            raise OptimizationError(f"invalid search option: {error}") from error

    # ------------------------------------------------------------------ #
    @property
    def objective_fingerprint(self) -> str:
        return self._objective_fp

    # ------------------------------------------------------------------ #
    def run(
        self,
        max_evaluations: int = 300,
        checkpoint_dir: Optional[os.PathLike] = None,
    ) -> MultiSeedResult:
        """Run every restart (resuming from checkpoints when possible)."""
        checkpoint = str(checkpoint_dir) if checkpoint_dir is not None else None
        store = self._cache_dir if self._cache_dir is not None else checkpoint
        if checkpoint is not None:
            Path(checkpoint).mkdir(parents=True, exist_ok=True)
        # Resolve the effective telemetry directory once: explicit knob,
        # $REPRO_TELEMETRY_DIR, or a recorder configured programmatically.
        # Passing it through the task keeps pool workers recording even when
        # activation did not travel through the environment.
        recorder = telemetry.init(self._telemetry_dir)
        telemetry_dir = str(recorder.directory) if recorder is not None else None
        digest = options_digest(self._search_options)
        tasks = [
            RestartTask(
                restart_index=index,
                seed=restart_seed(self._seed, index),
                max_evaluations=int(max_evaluations),
                problem=self._problem,
                ansatz=self._ansatz,
                objective_options=dict(self._objective_options),
                search_options=dict(self._search_options),
                objective_fp=self._objective_fp,
                options_digest=digest,
                store_dir=store,
                checkpoint_dir=checkpoint,
                checkpoint_interval=self._checkpoint_interval,
                telemetry_dir=telemetry_dir,
            )
            for index in range(self._num_restarts)
        ]

        workers = self._max_workers
        if workers is None:
            workers = min(self._num_restarts, os.cpu_count() or 1)
        workers = min(workers, self._num_restarts)

        policy = self._failure_policy
        with telemetry.span(
            "orchestrator.run",
            problem=self._problem.name,
            restarts=self._num_restarts,
            workers=workers,
        ):
            traces, failures = self._execute(tasks, workers, policy)
        telemetry.flush()

        if failures and (policy.on_incomplete == "raise" or not traces):
            partial = self._merge(traces, failures) if traces else None
            detail = "; ".join(repr(failure) for failure in failures)
            raise IncompleteRunError(
                f"{len(failures)} of {self._num_restarts} restarts failed: {detail}",
                failures=failures,
                result=partial,
            )
        return self._merge(traces, failures)

    # ------------------------------------------------------------------ #
    # fault-tolerant scheduling
    # ------------------------------------------------------------------ #
    def _execute(
        self, tasks: List[RestartTask], workers: int, policy: FailurePolicy
    ) -> Tuple[List[SeedTrace], List[RestartFailure]]:
        """Run restarts with exception isolation, retries and backoff.

        Each restart is a separate future; at most ``workers`` are in flight
        at once so the per-restart deadline measures execution, not queueing.
        Restarts, first attempts and retries alike, start in order of
        ``(ready time, restart index)``.  A timed-out restart is killed by
        terminating the pool's workers (restarts cannot be cancelled
        individually once running); in-flight siblings that die in that
        teardown — or in a ``BrokenProcessPool`` we inflicted — are
        resubmitted *without* being charged an attempt.
        A spontaneous pool break (a worker crashed on its own) cannot be
        attributed to one restart, so every in-flight restart is charged; a
        crashing restart can therefore burn siblings' retry budget, but the
        attempt bound keeps the scheduler loop finite, and retries resume
        from checkpoints so the repeated work is nearly free.

        With one worker the executor runs each restart in this process inside
        ``submit``: the future is already done when it is waited on, so
        ``restart_timeout`` never fires and the pool rules never apply.
        """
        state: Dict[int, dict] = {
            task.restart_index: {
                "task": task,
                "attempts": 0,
                "history": [],
                "lost": 0.0,
            }
            for task in tasks
        }
        completed: Dict[int, SeedTrace] = {}
        failed: Dict[int, RestartFailure] = {}
        ready: List[Tuple[float, int]] = [(0.0, task.restart_index) for task in tasks]
        running: Dict[object, Tuple[int, float, float]] = {}
        timed_out: set = set()
        killed_for_timeout = False
        needs_rebuild = False
        executor = _new_executor(workers)
        try:
            while ready or running:
                now = time.monotonic()
                if needs_rebuild and not running:
                    executor.shutdown(wait=False, cancel_futures=True)
                    executor = _new_executor(workers)
                    needs_rebuild = False
                    killed_for_timeout = False
                if not needs_rebuild:
                    ready.sort()
                    while ready and ready[0][0] <= now and len(running) < workers:
                        _, index = ready.pop(0)
                        entry = state[index]
                        entry["attempts"] += 1
                        try:
                            future = executor.submit(run_restart, entry["task"])
                        except (BrokenExecutor, RuntimeError):
                            entry["attempts"] -= 1
                            needs_rebuild = True
                            ready.append((now, index))
                            break
                        deadline = (
                            now + float(policy.restart_timeout)
                            if policy.restart_timeout is not None
                            else math.inf
                        )
                        running[future] = (index, now, deadline)
                if not running:
                    if ready:
                        ready.sort()
                        pause = ready[0][0] - time.monotonic()
                        if pause > 0:
                            time.sleep(min(pause, 0.05))
                    continue

                next_deadline = min(deadline for (_, _, deadline) in running.values())
                next_ready = math.inf
                if ready and len(running) < workers and not needs_rebuild:
                    next_ready = min(ready_at for ready_at, _ in ready)
                wake_at = min(next_deadline, next_ready)
                timeout = (
                    None
                    if math.isinf(wake_at)
                    else max(0.0, wake_at - time.monotonic())
                )
                done, _ = futures_wait(
                    set(running), timeout=timeout, return_when=FIRST_COMPLETED
                )
                now = time.monotonic()
                if not done:
                    overdue = [
                        future
                        for future, (_, _, deadline) in running.items()
                        if deadline <= now
                    ]
                    if overdue:
                        # A hung worker cannot be cancelled — kill the pool.
                        # Every running future then resolves as broken; the
                        # overdue ones are remapped to timeouts below, the
                        # rest are collateral and resubmitted uncharged.
                        timed_out.update(overdue)
                        killed_for_timeout = True
                        needs_rebuild = True
                        _terminate_pool_workers(executor)
                    continue

                for future in done:
                    index, started, _ = running.pop(future)
                    entry = state[index]
                    error = future.exception()
                    elapsed = now - started
                    if error is None:
                        trace = future.result()
                        trace.attempts = entry["attempts"]
                        trace.failures = list(entry["history"])
                        trace.wall_clock_lost_seconds = entry["lost"]
                        completed[index] = trace
                        continue
                    if isinstance(error, BrokenExecutor):
                        needs_rebuild = True
                    if future in timed_out:
                        timed_out.discard(future)
                        telemetry.event(
                            "restart.timeout",
                            restart=index,
                            attempt=entry["attempts"],
                            timeout=policy.restart_timeout,
                        )
                        error = RestartTimeoutError(
                            f"restart {index} exceeded the per-restart timeout of "
                            f"{policy.restart_timeout}s (attempt {entry['attempts']})"
                        )
                    elif isinstance(error, BrokenExecutor):
                        if killed_for_timeout:
                            # Collateral damage of our own pool teardown:
                            # resubmit without charging the retry budget.
                            entry["attempts"] -= 1
                            entry["lost"] += elapsed
                            ready.append((now, index))
                            continue
                        error = WorkerCrashError(
                            f"worker process running restart {index} died "
                            f"(attempt {entry['attempts']}): {error}"
                        )
                    record = AttemptFailure(
                        attempt=entry["attempts"],
                        error_type=type(error).__name__,
                        message=str(error)[:500],
                        transient=is_transient_failure(error),
                        elapsed_seconds=elapsed,
                    )
                    entry["history"].append(record)
                    entry["lost"] += elapsed
                    telemetry.event(
                        "restart.attempt_failed",
                        restart=index,
                        attempt=entry["attempts"],
                        error=record.error_type,
                        transient=record.transient,
                    )
                    if record.transient and entry["attempts"] < policy.max_attempts:
                        delay = policy.backoff_delay(self._seed, index, entry["attempts"])
                        telemetry.event(
                            "restart.retry",
                            restart=index,
                            attempt=entry["attempts"],
                            backoff=delay,
                        )
                        ready.append((now + delay, index))
                    else:
                        failed[index] = RestartFailure(
                            restart_index=index,
                            seed=entry["task"].seed,
                            attempts=entry["attempts"],
                            failures=list(entry["history"]),
                            wall_clock_lost_seconds=entry["lost"],
                        )
                if not running:
                    killed_for_timeout = False
        finally:
            if running or needs_rebuild:
                # Abnormal exit (or a pool we already broke): kill workers
                # first so shutdown cannot block on a hung evaluation.
                _terminate_pool_workers(executor)
            executor.shutdown(wait=True, cancel_futures=True)
        traces = [completed[index] for index in sorted(completed)]
        failures = [failed[index] for index in sorted(failed)]
        return traces, failures

    # ------------------------------------------------------------------ #
    def _merge(
        self,
        traces: List[SeedTrace],
        failures: Optional[List[RestartFailure]] = None,
    ) -> MultiSeedResult:
        best_trace = min(
            traces, key=lambda t: (t.constrained_energy, t.energy, t.restart_index)
        )
        search_result = BayesianOptimizationResult(
            best_point=tuple(best_trace.best_indices),
            best_value=best_trace.constrained_energy,
            observations=best_trace.observations,
            num_iterations=best_trace.num_iterations,
            converged_iteration=best_trace.converged_iteration,
        )
        best = CafqaResult(
            problem_name=self._problem.name,
            best_indices=list(best_trace.best_indices),
            best_angles=indices_to_angles(
                best_trace.best_indices, self._objective.cardinality
            ),
            energy=best_trace.energy,
            constrained_energy=best_trace.constrained_energy,
            hf_energy=reference_energy_of(self._problem),
            exact_energy=self._problem.exact_energy,
            num_iterations=best_trace.num_iterations,
            converged_iteration=best_trace.converged_iteration,
            search_result=search_result,
            ansatz=self._ansatz,
        )
        return MultiSeedResult(
            problem_name=self._problem.name,
            hf_energy=reference_energy_of(self._problem),
            exact_energy=self._problem.exact_energy,
            traces=list(traces),
            best=best,
            failures=list(failures) if failures else [],
        )


class _InProcessExecutor:
    """The one-worker executor: runs each submitted call on this thread.

    ``submit`` returns an already-resolved future holding the call's result
    or the ``Exception`` it raised, so a failing restart never surfaces as a
    broken executor; a ``BaseException`` such as ``KeyboardInterrupt``
    propagates.
    """

    def submit(self, fn, *args) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as error:  # noqa: BLE001 — isolation boundary
            future.set_exception(error)
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        pass


def _new_executor(workers: int):
    """A process pool of ``workers``, or the in-process executor for one."""
    if workers <= 1:
        return _InProcessExecutor()
    fault_hooks()  # the parent unpickles the exceptions a hook raises in workers
    return ProcessPoolExecutor(max_workers=workers)


def _terminate_pool_workers(executor: ProcessPoolExecutor) -> None:
    """Forcibly kill a pool's worker processes (for timeouts and teardown).

    ``shutdown(cancel_futures=True)`` cannot stop a worker that is already
    hung inside an evaluation, and leaving it alive would block interpreter
    exit — so the processes are terminated directly.  ``_processes`` is a
    private attribute, stable across supported CPython versions; if it ever
    disappears the degraded behavior is "no hang protection", not a crash.
    """
    processes = getattr(executor, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except (OSError, AttributeError):
            pass
