"""Evaluation-cache backends: JSONL shards vs. the sqlite store.

The backend contract under test: union-of-writers reads, bit-identical
float round-trips (the exact-replay resume guarantee), corrupted records
costing a recompute instead of a crash, and ``open_cache`` dispatching on
the location's shape.  The orchestrator equivalence test pins the headline
property: a search run against the sqlite backend is bit-identical to one
run against JSONL shards — the backend is pure plumbing.
"""

import json
import sqlite3

import pytest

from repro.core import evalcache
from repro.core.evalcache import (
    CacheShardWriter,
    EvaluationCache,
    SqliteEvaluationCache,
    is_sqlite_cache_location,
    open_cache,
)
from repro.core.orchestrator import SearchOrchestrator
from repro.problems import ising_chain
from repro.runspec import RunSpec, run

# Values chosen to have no short decimal representation: a backend that
# round-trips through decimal formatting (rather than storing the double)
# would fail the bit-identity assertions.
UGLY = [0.1 + 0.2, -7.234567891234567e-3, 1.0 / 3.0, -76.27116243236735]


class TestOpenCacheDispatch:
    def test_none_passes_through(self):
        assert open_cache(None) is None

    def test_directory_opens_jsonl(self, tmp_path):
        cache = open_cache(tmp_path / "shards")
        assert isinstance(cache, EvaluationCache)

    @pytest.mark.parametrize("suffix", [".sqlite", ".sqlite3", ".db"])
    def test_database_suffix_opens_sqlite(self, tmp_path, suffix):
        cache = open_cache(tmp_path / f"evals{suffix}")
        assert isinstance(cache, SqliteEvaluationCache)

    def test_existing_regular_file_opens_sqlite(self, tmp_path):
        path = tmp_path / "evals"  # no telltale suffix
        SqliteEvaluationCache(path)  # creates the database file
        assert is_sqlite_cache_location(path)
        assert isinstance(open_cache(path), SqliteEvaluationCache)

    def test_missing_suffixless_path_opens_jsonl_directory(self, tmp_path):
        assert isinstance(open_cache(tmp_path / "plain_dir"), EvaluationCache)


class TestSqliteBackend:
    def test_put_get_roundtrip_and_hit_accounting(self, tmp_path):
        cache = SqliteEvaluationCache(tmp_path / "evals.sqlite")
        cache.put("fp", (1, 2, 3), UGLY[0])
        assert cache.get("fp", (1, 2, 3)) == UGLY[0]
        assert cache.get("fp", (9, 9, 9)) is None
        assert cache.hits == 1 and cache.misses == 1
        assert ("fp", (1, 2, 3)) in cache
        assert len(cache) == 1

    def test_writer_persists_bit_identical_floats(self, tmp_path):
        path = tmp_path / "evals.sqlite"
        writer = SqliteEvaluationCache(path).shard_writer("r000")
        for position, value in enumerate(UGLY):
            writer.record("fp", (position,), value)
        writer.close()  # flushes
        reloaded = SqliteEvaluationCache(path)
        for position, value in enumerate(UGLY):
            assert reloaded.get("fp", (position,)) == value

    def test_unflushed_records_not_visible_flushed_are(self, tmp_path):
        path = tmp_path / "evals.sqlite"
        writer = SqliteEvaluationCache(path).shard_writer("r000")
        writer.record("fp", (0,), 1.5)
        assert len(SqliteEvaluationCache(path)) == 0  # buffered, not committed
        writer.flush()
        assert SqliteEvaluationCache(path).get("fp", (0,)) == 1.5
        writer.close()

    def test_union_of_concurrent_writers(self, tmp_path):
        path = tmp_path / "evals.sqlite"
        first = SqliteEvaluationCache(path).shard_writer("a")
        second = SqliteEvaluationCache(path).shard_writer("b")
        first.record("fp", (0,), 1.0)
        second.record("fp", (1,), 2.0)
        # Interleaved flushes from two open connections must both commit.
        first.flush()
        second.flush()
        second.record("fp", (2,), 3.0)
        second.close()
        first.close()
        union = SqliteEvaluationCache(path)
        assert {union.get("fp", (i,)) for i in range(3)} == {1.0, 2.0, 3.0}

    def test_duplicate_point_first_commit_wins_no_conflict(self, tmp_path):
        path = tmp_path / "evals.sqlite"
        first = SqliteEvaluationCache(path).shard_writer("a")
        second = SqliteEvaluationCache(path).shard_writer("b")
        first.record("fp", (0,), 1.25)
        second.record("fp", (0,), 1.25)  # deduped point, identical value
        first.close()
        second.close()  # INSERT OR IGNORE: no IntegrityError
        assert SqliteEvaluationCache(path).get("fp", (0,)) == 1.25

    def test_corrupt_row_skipped_not_crash(self, tmp_path):
        path = tmp_path / "evals.sqlite"
        writer = SqliteEvaluationCache(path).shard_writer("a")
        writer.record("fp", (0,), 4.5)
        writer.close()
        connection = sqlite3.connect(path)
        connection.execute(
            "INSERT INTO evaluations (fingerprint, point, value)"
            " VALUES ('fp', 'not json [', 1.0)"
        )
        connection.commit()
        connection.close()
        cache = SqliteEvaluationCache(path)  # must not raise
        assert cache.get("fp", (0,)) == 4.5
        assert len(cache) == 1

    def test_writer_path_is_none_so_fault_tearing_skips_the_db(self, tmp_path):
        writer = SqliteEvaluationCache(tmp_path / "evals.sqlite").shard_writer("a")
        assert writer.path is None
        writer.close()

    def test_closed_writer_refuses_records(self, tmp_path):
        from repro.exceptions import OptimizationError

        writer = SqliteEvaluationCache(tmp_path / "e.sqlite").shard_writer("a")
        writer.close()
        with pytest.raises(OptimizationError):
            writer.record("fp", (0,), 1.0)


class TestJsonlBackendStillExact:
    def test_jsonl_roundtrip_bit_identical(self, tmp_path):
        cache = EvaluationCache(tmp_path)
        writer = cache.shard_writer("r000")
        for position, value in enumerate(UGLY):
            writer.record("fp", (position,), value)
        writer.close()
        reloaded = EvaluationCache(tmp_path)
        for position, value in enumerate(UGLY):
            assert reloaded.get("fp", (position,)) == value

    def test_torn_jsonl_line_skipped(self, tmp_path):
        writer = CacheShardWriter(tmp_path / "evals_torn_1.jsonl")
        writer.record("fp", (0,), 2.5)
        writer.close()
        with open(tmp_path / "evals_torn_1.jsonl", "a") as handle:
            handle.write(json.dumps(["fp", [1], 9.9])[:-4])  # torn tail
        cache = EvaluationCache(tmp_path)
        assert cache.get("fp", (0,)) == 2.5
        assert len(cache) == 1


class TestOrchestratorBackendEquivalence:
    @pytest.fixture(scope="class")
    def problem(self):
        return ising_chain(num_sites=4)

    def test_sqlite_and_jsonl_runs_bit_identical(self, problem, tmp_path):
        def run_with(cache_dir):
            spec = RunSpec(
                problem=problem, num_seeds=2, max_workers=1, seed=0,
                max_evaluations=20, cache_dir=cache_dir,
            )
            return run(spec, problem=problem).result

        bare = run_with(None)
        jsonl = run_with(tmp_path / "shards")
        sqlite_run = run_with(tmp_path / "evals.sqlite")
        assert jsonl.energies == bare.energies
        assert sqlite_run.energies == bare.energies
        assert [t.best_indices for t in sqlite_run.traces] == [
            t.best_indices for t in bare.traces
        ]
        assert (tmp_path / "evals.sqlite").exists()

    def test_warm_sqlite_cache_replays_with_zero_misses(self, problem, tmp_path):
        cache_db = tmp_path / "evals.sqlite"

        def run_once():
            spec = RunSpec(
                problem=problem, num_seeds=2, max_workers=1, seed=0,
                max_evaluations=20, cache_dir=cache_db,
            )
            return run(spec, problem=problem).result

        cold = run_once()
        warm = run_once()
        assert warm.energies == cold.energies
        assert all(t.cache_misses == 0 for t in warm.traces)
        assert all(t.cache_hits > 0 for t in warm.traces)


class TestScopedOpen:
    """A cache opened for some fingerprints reads only their entries."""

    FOREIGN = [f"foreign{k:03d}-0123abcd" for k in range(100)]

    @pytest.fixture(scope="class")
    def problem(self):
        return ising_chain(num_sites=4)

    @staticmethod
    def _own(problem):
        return {SearchOrchestrator(RunSpec(problem=problem), problem).objective_fingerprint}

    @staticmethod
    def _count_rows_read(monkeypatch):
        """Fingerprints of every evaluation row sqlite hands back."""
        read, connect = [], evalcache._connect

        def counting_connect(path):
            connection = connect(path)
            connection.row_factory = lambda cursor, row: read.append(row[0]) or row
            return connection

        monkeypatch.setattr(evalcache, "_connect", counting_connect)
        return read

    def test_backends_load_only_requested_fingerprints(self, tmp_path):
        database = tmp_path / "evals.sqlite"
        sqlite_writer = SqliteEvaluationCache(database).shard_writer("a")
        jsonl_writer = EvaluationCache(tmp_path / "shards").shard_writer("a")
        for writer in (sqlite_writer, jsonl_writer):
            for fingerprint in ("mine", "mine-pi4", "mine-pi4x", "other"):
                writer.record(fingerprint, (1, 2), UGLY[1])
            writer.close()
        with open(jsonl_writer.path, "a") as handle:
            handle.write('["mine", [7, 7], "not a number"]\n')
            handle.write(json.dumps(["mine", [9], 1.5])[:-3])  # torn tail
        for location in (database, tmp_path / "shards"):
            cache = open_cache(location, ("mine", "mine-pi4"))
            assert len(cache) == 2
            assert cache.get("mine", (1, 2)) == UGLY[1]
            assert cache.get("mine-pi4", (1, 2)) == UGLY[1]
            assert ("other", (1, 2)) not in cache
            assert len(open_cache(location)) == 4

    def test_restart_reads_only_its_own_rows(self, problem, tmp_path, monkeypatch):
        database = tmp_path / "evals.sqlite"
        writer = SqliteEvaluationCache(database).shard_writer("foreign")
        for fingerprint in self.FOREIGN:
            writer.record(fingerprint, (0,) * 16, UGLY[0])
        writer.close()
        read = self._count_rows_read(monkeypatch)

        def run_once():
            spec = RunSpec(
                problem=problem, num_seeds=1, max_workers=1, seed=0,
                max_evaluations=20, cache_dir=database,
            )
            return run(spec, problem=problem).result

        cold = run_once()
        assert read == []
        warm = run_once()
        own = self._own(problem)
        with sqlite3.connect(database) as connection:
            fingerprints = [row[0] for row in connection.execute(
                "SELECT fingerprint FROM evaluations"
            )]
        own_rows = sum(fingerprint in own for fingerprint in fingerprints)
        assert len(fingerprints) == own_rows + len(self.FOREIGN)
        assert own_rows > 0 and len(read) == own_rows
        assert set(read) <= own
        assert warm.energies == cold.energies
        assert warm.traces[0].cache_misses == 0

    def test_jobs_sharing_a_fingerprint_share_evaluations(self, problem, tmp_path):
        def run_seed(seed, cache_dir):
            spec = RunSpec(
                problem=problem, num_seeds=1, max_workers=1, seed=seed,
                max_evaluations=20, cache_dir=cache_dir,
            )
            return run(spec, problem=problem).result

        shared = tmp_path / "evals.sqlite"
        run_seed(0, shared)
        second = run_seed(1, shared)
        alone = run_seed(1, None)
        assert second.traces[0].cache_hits > alone.traces[0].cache_hits
        assert second.energies == alone.energies
        assert second.traces[0].best_indices == alone.traces[0].best_indices
        assert [o.value for o in second.traces[0].observations] == [
            o.value for o in alone.traces[0].observations
        ]

    @staticmethod
    def _stored_fingerprints(location):
        """The fingerprint of every row a store holds, duplicates kept."""
        if is_sqlite_cache_location(location):
            with sqlite3.connect(location) as connection:
                return [row[0] for row in connection.execute(
                    "SELECT fingerprint FROM evaluations"
                )]
        return [
            json.loads(line)[0]
            for shard in sorted(location.glob("evals_*.jsonl"))
            for line in shard.read_text().splitlines()
        ]

    @pytest.mark.parametrize("store", ["evals.sqlite", "shards"])
    def test_run_stores_rows_under_its_objective_fingerprint_only(
        self, tmp_path, store
    ):
        # LiH's plain and constrained Hamiltonians differ (H2's and the Ising
        # chain's coincide), so a second key space would show up here.
        location = tmp_path / store
        report = run(
            RunSpec(
                problem="LiH",
                max_evaluations=30,
                num_seeds=2,
                max_workers=1,
                cache_dir=str(location),
            )
        )
        own = SearchOrchestrator(
            RunSpec(problem=report.problem), report.problem
        ).objective_fingerprint
        stored = self._stored_fingerprints(location)
        assert set(stored) == {own}
        assert len(stored) == sum(t.cache_misses for t in report.result.traces)


class TestRecordBytes:
    """Writers build record text by string join; it must be ``json.dumps``'s bytes."""

    POINTS = [(), (0,), (3, 0, 2, 1), tuple(range(8)) * 25]
    VALUES = UGLY + [0.0, -0.0, 5e-324, -1.7976931348623157e308, 1e16, 1e-7, 12.0,
                     float("inf"), float("-inf"), float("nan")]

    def test_jsonl_lines_equal_json_dumps(self, tmp_path):
        writer = CacheShardWriter(tmp_path / "evals_r000_1.jsonl")
        expected = []
        for point in self.POINTS:
            for value in self.VALUES:
                for fingerprint in ("ab12-cd34", "ab12-cd34-t2-d9f"):
                    writer.record(fingerprint, point, value)
                    expected.append(json.dumps([fingerprint, list(point), value]))
        writer.close()
        assert writer.path.read_text().splitlines() == expected

    def test_sqlite_point_text_equals_json_dumps(self, tmp_path):
        path = tmp_path / "evals.sqlite"
        writer = SqliteEvaluationCache(path).shard_writer("r000")
        for value, point in zip(UGLY, self.POINTS):
            writer.record("fp", point, value)
        writer.close()
        with sqlite3.connect(path) as connection:
            stored = connection.execute(
                "SELECT point FROM evaluations ORDER BY value"
            ).fetchall()
        expected = [json.dumps(list(p)) for _, p in sorted(zip(UGLY, self.POINTS))]
        assert [text for (text,) in stored] == expected
