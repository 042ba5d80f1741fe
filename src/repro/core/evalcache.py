"""Pluggable evaluation-cache backends for orchestrated searches.

An evaluation cache stores objective values keyed by ``(fingerprint,
Clifford index tuple)``.  The contract every backend honours:

* **every committed write of the fingerprints asked for** — opening a cache
  loads everything past writers persisted under those fingerprints,
  whichever process computed it, and skips every other key space
  (``fingerprints=None`` loads everything);
* **bit-identical floats** — a cache read returns the exact stored double,
  which is what makes replay-based checkpoint resume exact;
* **crash safety** — records torn by a killed writer are skipped on load,
  never crash it, so a cache directory/file is safe to reuse after hard
  interruptions.

Two backends ship today.  :class:`EvaluationCache` is the original
JSONL-shard store (one append-only file per writing process, so concurrent
writers never interleave).  :class:`SqliteEvaluationCache` keeps all
evaluations in one WAL-mode sqlite file — concurrent tenants of the search
service share deduped evaluations through a single database instead of
growing per-pid shard files without bound.  :func:`open_cache` picks the
backend from the location's shape (``*.sqlite``/``*.db`` file vs.
directory), so every ``cache_dir`` knob in the stack accepts either.
:class:`CachedObjective` is the objective every orchestrated restart
searches: a :class:`~repro.core.objective.CliffordObjective` that reads and
writes one of these caches under its
:func:`~repro.operators.fingerprints.objective_fingerprint`.
"""

from __future__ import annotations

import json
import math
import os
import sqlite3
from pathlib import Path
from typing import Collection, Dict, IO, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.circuits.clifford_points import validate_clifford_points
from repro.core.objective import CliffordObjective
from repro.exceptions import OptimizationError
from repro.operators.fingerprints import objective_fingerprint

Point = Tuple[int, ...]

__all__ = [
    "CachedObjective",
    "EvaluationCacheBackend",
    "EvaluationCache",
    "CacheShardWriter",
    "SqliteEvaluationCache",
    "SqliteCacheWriter",
    "open_cache",
    "is_sqlite_cache_location",
]


def _as_point(point: Sequence[int]) -> Point:
    return point if type(point) is tuple else tuple(int(v) for v in point)


def _point_text(point: Point) -> str:
    """``json.dumps(list(point))`` for a tuple of ints, without the encoder."""
    return f"[{', '.join(map(str, point))}]"


class EvaluationCacheBackend:
    """Shared in-memory map + hit/miss accounting of every cache backend.

    Subclasses implement persistence by (a) populating ``_values`` at open
    and (b) returning a writer object from :meth:`shard_writer` whose
    ``record``/``flush``/``close`` durably append newly computed values.
    """

    #: telemetry label identifying the persistence backend; subclasses override.
    backend_label = "memory"

    def __init__(self):
        self._values: Dict[Tuple[str, Point], float] = {}
        self._hits = 0
        self._misses = 0

    # ------------------------------------------------------------------ #
    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    def __len__(self) -> int:
        return len(self._values)

    # ``CachedObjective`` hands over validated tuples of ints, which key the
    # map as they are; only other sequences are rebuilt.
    def __contains__(self, key: Tuple[str, Sequence[int]]) -> bool:
        fingerprint, point = key
        return (fingerprint, _as_point(point)) in self._values

    def get(self, fingerprint: str, point: Sequence[int]) -> Optional[float]:
        value = self._values.get((fingerprint, _as_point(point)))
        if value is None:
            self._misses += 1
            telemetry.counter("cache.miss", 1, backend=self.backend_label)
        else:
            self._hits += 1
            telemetry.counter("cache.hit", 1, backend=self.backend_label)
        return value

    def put(self, fingerprint: str, point: Sequence[int], value: float) -> None:
        self._values[(fingerprint, _as_point(point))] = float(value)
        telemetry.counter("cache.insert", 1, backend=self.backend_label)

    def shard_writer(self, tag: str):
        raise NotImplementedError


# --------------------------------------------------------------------------- #
# JSONL shard backend (the original per-pid append-only store)
# --------------------------------------------------------------------------- #
class EvaluationCache(EvaluationCacheBackend):
    """Objective values keyed by ``(fingerprint, Clifford index tuple)``.

    The in-memory map is plain; process safety comes from the on-disk layout:
    every writer appends to its own ``evals_*.jsonl`` shard (named with the
    writing pid), so concurrent worker processes never interleave writes, and
    every reader loads the union of all shards at startup.  A line that was
    cut short by a killed process is skipped on load, which makes the store
    safe to reuse after hard interruptions — exactly the property the
    orchestrator's replay-based resume relies on.
    """

    backend_label = "jsonl"

    def __init__(
        self, directory: Optional[os.PathLike] = None, fingerprints: Optional[Collection[str]] = None
    ):
        super().__init__()
        self._directory = Path(directory) if directory is not None else None
        if self._directory is not None:
            self._directory.mkdir(parents=True, exist_ok=True)
            self._load_shards(fingerprints)

    # ------------------------------------------------------------------ #
    def shard_writer(self, tag: str) -> "CacheShardWriter":
        if self._directory is None:
            raise OptimizationError("cache has no directory; cannot open a shard")
        path = self._directory / f"evals_{tag}_{os.getpid()}.jsonl"
        return CacheShardWriter(path)

    # ------------------------------------------------------------------ #
    def _load_shards(self, fingerprints: Optional[Collection[str]]) -> None:
        # Lines that hold none of the wanted fingerprints as a JSON string stay
        # undecoded (a stray match only loads a key this reader never asks for).
        tokens = [""] if fingerprints is None else [json.dumps(f) for f in fingerprints]
        for shard in sorted(self._directory.glob("evals_*.jsonl")):
            try:
                text = shard.read_text()
            except OSError:
                continue
            for line in text.splitlines():
                if not line.strip() or not any(t in line for t in tokens):
                    continue
                # Conversion happens inside the try: a wrong-shaped but
                # valid-JSON line (string point, non-numeric value) must be
                # skipped like a truncated one, not crash every run sharing
                # this cache directory.
                try:
                    fingerprint, point, value = json.loads(line)
                    key = (str(fingerprint), tuple(int(v) for v in point))
                    self._values[key] = float(value)
                except (ValueError, TypeError):
                    continue  # truncated or corrupted line of an interrupted writer


class CacheShardWriter:
    """Append-only JSONL writer for one process's newly computed evaluations."""

    def __init__(self, path: Path):
        self._path = path
        self._handle: Optional[IO[str]] = open(path, "a")

    @property
    def path(self) -> Path:
        return self._path

    def record(self, fingerprint: str, point: Point, value: float) -> None:
        if self._handle is None:
            raise OptimizationError("cache shard writer is closed")
        # The bytes of ``json.dumps([fingerprint, list(point), float(value)])``.
        value = float(value)
        text = repr(value) if math.isfinite(value) else json.dumps(value)
        self._handle.write(f"[{json.dumps(fingerprint)}, {_point_text(point)}, {text}]\n")

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


# --------------------------------------------------------------------------- #
# sqlite backend (one shared WAL-mode database)
# --------------------------------------------------------------------------- #
_SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")


def is_sqlite_cache_location(location: os.PathLike) -> bool:
    """Whether a cache location names the sqlite backend.

    A ``*.sqlite`` / ``*.sqlite3`` / ``*.db`` path selects sqlite even if
    the file does not exist yet; an existing regular file does too (it can
    only be a database — the JSONL backend's location is a directory).
    """
    path = Path(location)
    if path.suffix.lower() in _SQLITE_SUFFIXES:
        return True
    return path.is_file()


def _connect(path: Path) -> sqlite3.Connection:
    path.parent.mkdir(parents=True, exist_ok=True)
    connection = sqlite3.connect(str(path), timeout=30.0)
    # WAL lets concurrent worker processes read while one writes; NORMAL
    # synchronous is crash-safe (not power-loss-durable) under WAL, which is
    # the level the JSONL backend provides too.
    connection.execute("PRAGMA journal_mode=WAL")
    connection.execute("PRAGMA synchronous=NORMAL")
    connection.execute("PRAGMA busy_timeout=30000")
    connection.execute(
        "CREATE TABLE IF NOT EXISTS evaluations ("
        " fingerprint TEXT NOT NULL,"
        " point TEXT NOT NULL,"
        " value REAL NOT NULL,"
        " PRIMARY KEY (fingerprint, point))"
    )
    connection.commit()
    return connection


class SqliteEvaluationCache(EvaluationCacheBackend):
    """All evaluations in one WAL-mode sqlite file.

    Same union semantics as the JSONL backend — every reader sees every
    committed write — without per-pid file proliferation: concurrent service
    tenants and worker processes share one database, serialized by sqlite's
    WAL locking.  ``value`` is a sqlite ``REAL`` (an IEEE-754 double), so
    reads return the stored float bit-for-bit, preserving the exact-replay
    resume contract.
    """

    backend_label = "sqlite"

    def __init__(self, path: os.PathLike, fingerprints: Optional[Collection[str]] = None):
        super().__init__()
        self._path = Path(path)
        query, arguments = "SELECT fingerprint, point, value FROM evaluations", ()
        if fingerprints is not None:
            arguments = tuple(fingerprints)
            query += f" WHERE fingerprint IN ({', '.join('?' * len(arguments))})"
        connection = _connect(self._path)
        try:
            rows = connection.execute(query, arguments).fetchall()
        finally:
            connection.close()
        for fingerprint, point_text, value in rows:
            try:
                key = (str(fingerprint), tuple(int(v) for v in json.loads(point_text)))
                self._values[key] = float(value)
            except (ValueError, TypeError):
                continue  # a corrupted row must cost a recompute, not a crash

    # ------------------------------------------------------------------ #
    @property
    def path(self) -> Path:
        return self._path

    def shard_writer(self, tag: str) -> "SqliteCacheWriter":
        return SqliteCacheWriter(self._path)


class SqliteCacheWriter:
    """Buffered writer appending newly computed evaluations to the database.

    Records are buffered in memory and committed on :meth:`flush` (the
    orchestrator flushes at every checkpoint interval and on close), so a
    killed writer loses at most one interval of evaluations — the same
    window the JSONL shard writer's userspace buffer loses.  ``INSERT OR
    IGNORE`` keeps concurrent writers of the same deduped point from
    conflicting: whoever commits first wins, and both computed the identical
    deterministic value anyway.
    """

    def __init__(self, path: Path):
        self._db_path = Path(path)
        self._connection: Optional[sqlite3.Connection] = _connect(self._db_path)
        self._pending: list = []

    @property
    def path(self) -> None:
        """No per-writer shard file exists; tearing tests target JSONL shards."""
        return None

    def record(self, fingerprint: str, point: Point, value: float) -> None:
        if self._connection is None:
            raise OptimizationError("sqlite cache writer is closed")
        self._pending.append((str(fingerprint), _point_text(point), float(value)))

    def flush(self) -> None:
        if self._connection is None or not self._pending:
            return
        self._connection.executemany(
            "INSERT OR IGNORE INTO evaluations (fingerprint, point, value) "
            "VALUES (?, ?, ?)",
            self._pending,
        )
        self._connection.commit()
        self._pending = []

    def close(self) -> None:
        if self._connection is not None:
            try:
                self.flush()
            finally:
                self._connection.close()
                self._connection = None


# --------------------------------------------------------------------------- #
def open_cache(
    location: Optional[os.PathLike], fingerprints: Optional[Collection[str]] = None
) -> Optional[EvaluationCacheBackend]:
    """The evaluation cache living at ``location`` (None passes through).

    Dispatches on shape: a ``*.sqlite``/``*.db`` path (or an existing
    regular file) opens the sqlite backend; anything else is a shard
    directory for the JSONL backend.  Every ``cache_dir`` knob in the stack
    funnels through here, so callers opt into sqlite just by naming a
    database file.  With ``fingerprints`` only those key spaces are loaded;
    ``None`` loads everything.
    """
    if location is None:
        return None
    if is_sqlite_cache_location(location):
        return SqliteEvaluationCache(location, fingerprints)
    return EvaluationCache(location, fingerprints)


# --------------------------------------------------------------------------- #
# the cache-backed objective every restart evaluates through
# --------------------------------------------------------------------------- #
class CachedObjective:
    """A :class:`CliffordObjective` backed by an evaluation cache.

    Cache reads return the exact stored double (JSON round-trips floats
    bit-for-bit), so a search replayed on top of a warm cache follows the
    identical trajectory it would have followed computing everything —
    which is what makes checkpoint resume exact.  Attribute access falls
    through to the wrapped objective.
    """

    def __init__(
        self,
        objective: CliffordObjective,
        cache: EvaluationCacheBackend,
        writer=None,
    ):
        self._objective = objective
        self._cache = cache
        self._writer = writer
        self._fingerprint = objective_fingerprint(objective)

    # ------------------------------------------------------------------ #
    @property
    def fingerprint(self) -> str:
        return self._fingerprint

    @property
    def cache(self) -> EvaluationCacheBackend:
        return self._cache

    @property
    def wrapped(self) -> CliffordObjective:
        return self._objective

    def __getattr__(self, name):
        return getattr(self._objective, name)

    # ------------------------------------------------------------------ #
    def _points(self, points: Sequence[Sequence[int]]) -> List[Point]:
        objective = self._objective
        return validate_clifford_points(
            points, objective.num_parameters, objective.cardinality
        )

    def __call__(self, indices: Sequence[int]) -> float:
        return float(self.evaluate_batch([indices])[0])

    def evaluate_batch(self, points: Sequence[Sequence[int]]) -> np.ndarray:
        keys = self._points(points)
        values: Dict[Point, float] = {}
        for key in dict.fromkeys(keys):
            cached = self._cache.get(self._fingerprint, key)
            if cached is not None:
                values[key] = cached
        pending = [key for key in dict.fromkeys(keys) if key not in values]
        if pending:
            computed = self._objective.evaluate_batch(pending)
            for position, key in enumerate(pending):
                value = float(computed[position])
                values[key] = value
                self._cache.put(self._fingerprint, key, value)
                if self._writer is not None:
                    self._writer.record(self._fingerprint, key, value)
        return np.array([values[key] for key in keys], dtype=float)

    def flush(self) -> None:
        if self._writer is not None:
            self._writer.flush()

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
