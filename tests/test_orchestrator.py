"""Tests for the multi-seed search orchestrator: caching, sharding, resume.

The end-to-end smoke test and the checkpoint/resume test run the real
pipeline (chemistry -> orchestrated Clifford search) on stretched H2, where
the exact ground state is close to a stabilizer state, so a small search
budget reaches chemical accuracy.
"""

import json

import numpy as np
import pytest

from repro.bayesopt import RandomForestRegressor
from repro.chemistry import make_problem
from repro.circuits import CliffordGateProgram, EfficientSU2Ansatz
from repro.core import (
    CHEMICAL_ACCURACY,
    CafqaSearch,
    CliffordObjective,
    SearchOrchestrator,
    hamiltonian_fingerprint,
    objective_fingerprint,
    restart_seed,
)
from repro.core.evalcache import CachedObjective, EvaluationCache
from chaos_faults import FAULT_DIR_ENV, FAULT_SPEC_ENV, HOOK_FILE
from repro.core.faults import FAULT_HOOKS_ENV, FailurePolicy
from repro.exceptions import IncompleteRunError, OptimizationError
from repro.operators import PauliSum
from repro.problems import ising_chain
from repro.runspec import RunSpec, run


@pytest.fixture(scope="module")
def h2_far_problem():
    """H2 at 3.5 A: the ground state is nearly a Bell (stabilizer) state."""
    return make_problem("H2", 3.5)


def _observation_rows(trace):
    return [(o.point, o.value, o.iteration, o.phase) for o in trace.observations]


def _format_1_rows(observations):
    """Observations as the one-row-per-observation lists of checkpoint format 1."""
    return [[list(o.point), o.value, o.iteration, o.phase] for o in observations]


# --------------------------------------------------------------------------- #
# fingerprints
# --------------------------------------------------------------------------- #
class TestFingerprints:
    def test_hamiltonian_fingerprint_is_stable_and_order_free(self):
        a = PauliSum({"XX": 0.5, "ZI": -1.0})
        b = PauliSum({"ZI": -1.0, "XX": 0.5})
        assert hamiltonian_fingerprint(a) == hamiltonian_fingerprint(b)
        assert hamiltonian_fingerprint(a) != hamiltonian_fingerprint(
            PauliSum({"XX": 0.5, "ZI": -1.0 + 1e-12})
        )

    def test_program_fingerprint_tracks_structure(self):
        def fingerprint(num_qubits, reps):
            ansatz = EfficientSU2Ansatz(num_qubits, reps=reps)
            return CliffordGateProgram.from_ansatz(ansatz).fingerprint

        base = fingerprint(3, 1)
        assert base == fingerprint(3, 1)
        assert base != fingerprint(3, 2)
        assert base != fingerprint(4, 1)

    def test_objective_fingerprint_tracks_constraint(self, h2_far_problem):
        ansatz = EfficientSU2Ansatz(h2_far_problem.num_qubits, reps=1)
        plain = CliffordObjective(h2_far_problem, ansatz)
        # H2's tapered number operators are constants, so target the spin
        # sector: a spin-Z penalty changes the constrained operator.
        penalized = CliffordObjective(h2_far_problem, ansatz, spin_z_target=1.0)
        assert objective_fingerprint(plain) != objective_fingerprint(penalized)


# --------------------------------------------------------------------------- #
# evaluation cache
# --------------------------------------------------------------------------- #
class TestEvaluationCache:
    def test_memory_roundtrip_and_hit_counting(self):
        cache = EvaluationCache()
        assert cache.get("fp", (1, 2)) is None
        cache.put("fp", (1, 2), -1.5)
        assert cache.get("fp", [1, 2]) == -1.5
        assert ("fp", (1, 2)) in cache
        assert cache.hits == 1 and cache.misses == 1

    def test_disk_shards_survive_reload(self, tmp_path):
        cache = EvaluationCache(tmp_path)
        writer = cache.shard_writer("r000")
        writer.record("fp", (0, 1, 2), -2.25)
        writer.record("other", (3,), 0.5)
        writer.close()
        reloaded = EvaluationCache(tmp_path)
        assert reloaded.get("fp", (0, 1, 2)) == -2.25
        assert reloaded.get("other", (3,)) == 0.5
        assert len(reloaded) == 2

    def test_truncated_shard_line_is_skipped(self, tmp_path):
        shard = tmp_path / "evals_r000_1.jsonl"
        shard.write_text(
            json.dumps(["fp", [1], -1.0]) + "\n" + '["fp", [2], -'  # cut mid-write
        )
        cache = EvaluationCache(tmp_path)
        assert cache.get("fp", (1,)) == -1.0
        assert len(cache) == 1

    def test_cached_objective_matches_and_dedups(self, h2_far_problem, tmp_path):
        ansatz = EfficientSU2Ansatz(h2_far_problem.num_qubits, reps=1)
        raw = CliffordObjective(h2_far_problem, ansatz)
        reference = CliffordObjective(h2_far_problem, ansatz)
        cache = EvaluationCache(tmp_path)
        cached = CachedObjective(raw, cache, cache.shard_writer("r000"))
        rng = np.random.default_rng(0)
        points = [tuple(rng.integers(0, 4, ansatz.num_parameters)) for _ in range(6)]
        batch = cached.evaluate_batch(points + points)  # duplicates cost nothing
        for point, value in zip(points, batch[: len(points)]):
            assert value == reference(point)
            assert cached(point) == value  # now a pure cache hit
        assert raw.num_evaluations == len(set(points))
        cached.close()
        # A second process/run sees the same values from disk.
        warm = EvaluationCache(tmp_path)
        for point, value in zip(points, batch):
            assert warm.get(cached.fingerprint, point) == value


# --------------------------------------------------------------------------- #
# rng threading (reproducibility)
# --------------------------------------------------------------------------- #
class TestRngInjection:
    def test_restart_seed_derivation(self):
        assert restart_seed(None, 3) is None
        assert restart_seed(7, 0) == 7
        laters = [restart_seed(7, k) for k in range(1, 5)]
        assert len(set(laters)) == len(laters)
        assert restart_seed(7, 1) == restart_seed(7, 1)
        assert restart_seed(8, 1) != restart_seed(7, 1)

    def test_forest_with_injected_rng_is_deterministic(self):
        rng = np.random.default_rng(3)
        features = rng.integers(0, 4, size=(80, 3)).astype(float)
        targets = features.sum(axis=1)
        first = RandomForestRegressor(num_trees=5, rng=np.random.default_rng(9))
        second = RandomForestRegressor(num_trees=5, rng=np.random.default_rng(9))
        np.testing.assert_array_equal(
            first.fit(features, targets).predict(features),
            second.fit(features, targets).predict(features),
        )


# --------------------------------------------------------------------------- #
# orchestrator
# --------------------------------------------------------------------------- #
class TestSearchOrchestrator:
    def test_single_restart_matches_direct_search(self, h2_far_problem):
        ansatz = EfficientSU2Ansatz(h2_far_problem.num_qubits, reps=1)
        direct = CafqaSearch(
            CliffordObjective(h2_far_problem, ansatz), seed=4
        ).run(max_evaluations=50)
        multi = SearchOrchestrator(
            h2_far_problem, num_restarts=1, max_workers=1, seed=4
        ).run(max_evaluations=50)
        assert multi.best.best_indices == direct.best_indices
        assert multi.best.energy == direct.energy
        assert multi.best.constrained_energy == direct.constrained_energy

    def test_deterministic_and_worker_count_independent(self, h2_far_problem):
        serial = SearchOrchestrator(
            h2_far_problem, num_restarts=3, max_workers=1, seed=2
        ).run(max_evaluations=40)
        parallel = SearchOrchestrator(
            h2_far_problem, num_restarts=3, max_workers=2, seed=2
        ).run(max_evaluations=40)
        assert [t.seed for t in serial.traces] == [t.seed for t in parallel.traces]
        for a, b in zip(serial.traces, parallel.traces):
            assert _observation_rows(a) == _observation_rows(b)
        assert serial.best.energy == parallel.best.energy

    def test_restarts_explore_distinct_warmups(self, h2_far_problem):
        multi = SearchOrchestrator(
            h2_far_problem, num_restarts=3, max_workers=1, seed=0
        ).run(max_evaluations=40)
        warmups = [
            tuple(o.point for o in t.observations if o.phase == "warmup")
            for t in multi.traces
        ]
        assert len(set(warmups)) == len(warmups)

    def test_merge_reports_best_restart(self, h2_far_problem):
        multi = SearchOrchestrator(
            h2_far_problem, num_restarts=3, max_workers=1, seed=0
        ).run(max_evaluations=40)
        assert multi.best.energy == min(multi.energies)
        assert multi.num_restarts == 3
        assert multi.total_evaluations == sum(t.num_iterations for t in multi.traces)
        assert multi.best_trace.energy == multi.best.energy

    def test_validation(self, h2_far_problem):
        with pytest.raises(OptimizationError):
            SearchOrchestrator(h2_far_problem, num_restarts=0)
        with pytest.raises(OptimizationError):
            SearchOrchestrator(h2_far_problem, num_restarts=2, max_workers=0)


# --------------------------------------------------------------------------- #
# one scheduler for one worker and many
# --------------------------------------------------------------------------- #
class TestOneScheduler:
    @pytest.fixture(scope="class")
    def problem(self):
        return ising_chain(num_sites=3, transverse_field=1.0)

    def test_one_worker_and_two_workers_record_the_same_faults(
        self, problem, monkeypatch, tmp_path
    ):
        # Raise-mode faults leave the worker alive, so this runs the real
        # pool: a transient fault on restart 1 (retried once) and a
        # deterministic one on restart 2 (failed fast).
        monkeypatch.setenv(
            FAULT_SPEC_ENV,
            json.dumps([
                {"restart": 1, "mode": "raise", "at": 5, "times": 1},
                {"restart": 2, "mode": "raise", "at": 3, "times": 99,
                 "transient": False},
            ]),
        )
        monkeypatch.setenv(FAULT_HOOKS_ENV, HOOK_FILE)
        results = {}
        for workers in (1, 2):
            monkeypatch.setenv(FAULT_DIR_ENV, str(tmp_path / f"markers{workers}"))
            results[workers] = SearchOrchestrator(
                problem, num_restarts=3, max_workers=workers, seed=0,
                failure_policy=FailurePolicy(on_incomplete="partial"),
            ).run(max_evaluations=24)
        one, two = results[1], results[2]

        def errors(records):
            return [(r.error_type, r.transient) for r in records]

        assert [t.restart_index for t in one.traces] == [0, 1]
        for a, b in zip(one.traces, two.traces, strict=True):
            assert _observation_rows(a) == _observation_rows(b)
            assert a.energy == b.energy and a.best_indices == b.best_indices
            assert a.attempts == b.attempts
            assert errors(a.failures) == errors(b.failures)
        assert [t.attempts for t in one.traces] == [1, 2]
        assert errors(one.traces[1].failures) == [("InjectedFaultError", True)]
        assert one.failed_restart_indices == two.failed_restart_indices == [2]
        for a, b in zip(one.failures, two.failures, strict=True):
            assert a.attempts == b.attempts == 1
            assert errors(a.failures) == errors(b.failures) == [
                ("DeterministicRestartError", False)
            ]

    def test_restart_runtime_error_is_one_deterministic_failure(
        self, problem, monkeypatch
    ):
        # A RuntimeError raised by a restart must not read as a broken
        # executor (which would rebuild and resubmit it forever).
        calls = []

        def failing_restart(task):
            # Fails the test instead of spinning if the restart is resubmitted.
            assert not calls, "the failed restart was resubmitted"
            calls.append(task.restart_index)
            raise RuntimeError("bug in the objective")

        monkeypatch.setattr("repro.core.orchestrator.run_restart", failing_restart)
        with pytest.raises(IncompleteRunError) as excinfo:
            SearchOrchestrator(
                problem, num_restarts=1, max_workers=1, seed=0,
                failure_policy=FailurePolicy(max_retries=2),
            ).run(max_evaluations=8)
        assert calls == [0]
        (failure,) = excinfo.value.failures
        assert failure.attempts == 1
        (record,) = failure.failures
        assert record.attempt == 1
        assert record.error_type == "RuntimeError"
        assert not record.transient

    def test_keyboard_interrupt_propagates_unrecorded(self, problem, monkeypatch):
        calls = []

        def interrupted_restart(task):
            calls.append(task.restart_index)
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.core.orchestrator.run_restart", interrupted_restart)
        # Recorded as a failure, it would surface as IncompleteRunError.
        with pytest.raises(KeyboardInterrupt):
            SearchOrchestrator(
                problem, num_restarts=2, max_workers=1, seed=0,
                failure_policy=FailurePolicy(on_incomplete="partial"),
            ).run(max_evaluations=8)
        assert calls == [0]


# --------------------------------------------------------------------------- #
# checkpoint / resume + end-to-end smoke
# --------------------------------------------------------------------------- #
class TestCheckpointResume:
    def test_completed_run_resumes_from_checkpoints(self, h2_far_problem, tmp_path):
        first = SearchOrchestrator(
            h2_far_problem, num_restarts=2, max_workers=1, seed=1
        ).run(max_evaluations=40, checkpoint_dir=tmp_path)
        assert not any(t.from_checkpoint for t in first.traces)
        second = SearchOrchestrator(
            h2_far_problem, num_restarts=2, max_workers=1, seed=1
        ).run(max_evaluations=40, checkpoint_dir=tmp_path)
        assert all(t.from_checkpoint for t in second.traces)
        assert second.best.energy == first.best.energy
        assert _observation_rows(second.best_trace) == _observation_rows(
            first.best_trace
        )

    def test_mid_search_checkpoint_resumes_to_identical_result(
        self, h2_far_problem, tmp_path
    ):
        """Interrupting a restart mid-search and resuming reproduces the
        uninterrupted run exactly (replay-from-cache is bit-identical)."""
        uninterrupted = SearchOrchestrator(
            h2_far_problem, num_restarts=2, max_workers=1, seed=3
        ).run(max_evaluations=40)

        checkpoint_dir = tmp_path / "ckpt"
        SearchOrchestrator(
            h2_far_problem, num_restarts=2, max_workers=1, seed=3
        ).run(max_evaluations=40, checkpoint_dir=checkpoint_dir)

        # Forge a mid-search interruption of restart 1: drop its "done"
        # checkpoint and truncate its evaluation shard to the first half.
        [checkpoint] = checkpoint_dir.glob("restart_*_001.json")
        checkpoint.unlink()
        [shard] = checkpoint_dir.glob("evals_r001_*.jsonl")
        lines = shard.read_text().splitlines()
        shard.write_text("\n".join(lines[: len(lines) // 2]) + "\n")

        resumed = SearchOrchestrator(
            h2_far_problem, num_restarts=2, max_workers=1, seed=3
        ).run(max_evaluations=40, checkpoint_dir=checkpoint_dir)
        assert resumed.traces[0].from_checkpoint
        assert not resumed.traces[1].from_checkpoint
        assert resumed.traces[1].cache_hits > 0  # replayed from the shard
        assert resumed.best.energy == uninterrupted.best.energy
        assert resumed.traces[1].best_indices == uninterrupted.traces[1].best_indices
        assert _observation_rows(resumed.traces[1]) == _observation_rows(
            uninterrupted.traces[1]
        )

    def test_stale_checkpoint_is_ignored(self, h2_far_problem, tmp_path):
        SearchOrchestrator(h2_far_problem, num_restarts=1, max_workers=1, seed=1).run(
            max_evaluations=40, checkpoint_dir=tmp_path
        )
        # A different budget invalidates the stored checkpoint.
        redone = SearchOrchestrator(
            h2_far_problem, num_restarts=1, max_workers=1, seed=1
        ).run(max_evaluations=44, checkpoint_dir=tmp_path)
        assert not redone.traces[0].from_checkpoint

    def test_changed_search_options_invalidate_checkpoint(
        self, h2_far_problem, tmp_path
    ):
        """A checkpoint from a differently-configured search must not be
        trusted: search-loop options change the trajectory."""
        first = SearchOrchestrator(
            h2_far_problem, num_restarts=1, max_workers=1, seed=1,
            warmup_fraction=0.5,
        ).run(max_evaluations=40, checkpoint_dir=tmp_path)
        redone = SearchOrchestrator(
            h2_far_problem, num_restarts=1, max_workers=1, seed=1,
            warmup_fraction=0.9,
        ).run(max_evaluations=40, checkpoint_dir=tmp_path)
        assert not redone.traces[0].from_checkpoint
        first_warmups = sum(
            1 for o in first.traces[0].observations if o.phase == "warmup"
        )
        redone_warmups = sum(
            1 for o in redone.traces[0].observations if o.phase == "warmup"
        )
        assert redone_warmups > first_warmups

    def test_sweeps_can_share_a_checkpoint_dir(self, h2_far_problem, tmp_path):
        """Checkpoints are namespaced by objective fingerprint, so different
        problems (e.g. bond lengths of a sweep) coexist in one directory."""
        other_problem = make_problem("H2", 3.0)
        for problem in (h2_far_problem, other_problem):
            SearchOrchestrator(problem, num_restarts=1, max_workers=1, seed=1).run(
                max_evaluations=40, checkpoint_dir=tmp_path
            )
        resumed = [
            SearchOrchestrator(problem, num_restarts=1, max_workers=1, seed=1).run(
                max_evaluations=40, checkpoint_dir=tmp_path
            )
            for problem in (h2_far_problem, other_problem)
        ]
        assert all(m.traces[0].from_checkpoint for m in resumed)

    def test_molecule_run_two_seeds_two_workers_smoke(self, h2_far_problem):
        spec = RunSpec(
            problem="H2",
            problem_options={"bond_length": 3.5},
            max_evaluations=80,
            seed=0,
            num_seeds=2,
            max_workers=2,
        )
        report = run(spec, problem=h2_far_problem)
        assert report.result.num_restarts == 2
        assert abs(report.energy - h2_far_problem.exact_energy) <= CHEMICAL_ACCURACY
        assert report.energy <= report.reference_energy + 1e-9
        assert report.reference_energy == h2_far_problem.hf_energy


# --------------------------------------------------------------------------- #
# checkpoint corruption
# --------------------------------------------------------------------------- #
class TestCheckpointCorruption:
    """A corrupted or mismatched restart_*.json must mean "recompute", never a
    crash or a silently-trusted stale result.  Covers every mismatch branch of
    ``_load_finished_checkpoint`` (format, fingerprint, digest, seed, budget)
    plus unreadable payload shapes."""

    @pytest.fixture()
    def finished_task(self, tmp_path):
        """A RestartTask whose checkpoint file exists with status 'done'."""
        from repro.core.orchestrator import (
            RestartTask,
            options_digest,
            run_restart,
        )
        from repro.problems import ising_chain

        problem = ising_chain(num_sites=3, transverse_field=1.0)
        ansatz = EfficientSU2Ansatz(problem.num_qubits, reps=1)
        objective = CliffordObjective(problem, ansatz)
        task = RestartTask(
            restart_index=0,
            seed=5,
            max_evaluations=24,
            problem=problem,
            ansatz=ansatz,
            objective_options={},
            search_options={},
            objective_fp=objective_fingerprint(objective),
            options_digest=options_digest({}),
            store_dir=None,
            checkpoint_dir=str(tmp_path),
            checkpoint_interval=8,
        )
        trace = run_restart(task)
        assert not trace.from_checkpoint
        return task

    def _checkpoint_file(self, task):
        from repro.core.orchestrator import _checkpoint_path

        return _checkpoint_path(task)

    def test_intact_checkpoint_loads(self, finished_task):
        from repro.core.orchestrator import _load_finished_checkpoint

        trace = _load_finished_checkpoint(finished_task)
        assert trace is not None and trace.from_checkpoint

    @pytest.mark.parametrize(
        "field,stale_value",
        [
            ("format", 999),
            ("status", "running"),
            ("objective_fingerprint", "deadbeef-deadbeef"),
            ("options_digest", "deadbeef"),
            ("seed", 6),
            ("max_evaluations", 25),
        ],
    )
    def test_every_mismatch_branch_is_treated_as_stale(
        self, finished_task, field, stale_value
    ):
        from repro.core.orchestrator import _load_finished_checkpoint

        path = self._checkpoint_file(finished_task)
        payload = json.loads(path.read_text())
        payload[field] = stale_value
        path.write_text(json.dumps(payload))
        assert _load_finished_checkpoint(finished_task) is None

    @pytest.mark.parametrize(
        "content",
        [
            "",  # empty file
            "{\"format\": 2, \"status\": \"do",  # truncated mid-write
            "not json at all \x00\x01",  # garbage bytes
            "[1, 2, 3]",  # valid JSON, wrong shape
            "null",
            "\"a string\"",
            # Format-2 observation columns, corrupted in an otherwise intact file.
            lambda columns: columns["values"].pop(),
            lambda columns: columns["points"].pop(),
            lambda columns: columns["phases"].append("search"),
            lambda columns: columns["points"].__setitem__(0, "x" + columns["points"][0][1:]),
            lambda columns: columns["points"].__setitem__(0, "/" + columns["points"][0][1:]),
            lambda columns: columns["points"].__setitem__(0, "\u00e9" + columns["points"][0][1:]),
            lambda columns: columns["points"].__setitem__(0, columns["points"][0][:-1]),
            lambda columns: columns.__setitem__("points", [p + "0" for p in columns["points"]]),
            lambda columns: columns.__setitem__(
                "points", [[int(v) for v in p] for p in columns["points"]]
            ),
            lambda columns: columns.__setitem__("points", "".join(columns["points"])),
            lambda columns: columns.__setitem__("values", dict(enumerate(columns["values"]))),
            lambda columns: columns.__setitem__("iterations", None),
            lambda columns: columns.__setitem__("values", ["x"] * len(columns["values"])),
            lambda columns: columns.pop("phases"),
        ],
        ids=[
            "empty", "truncated", "garbage", "array", "null", "string",
            "ragged-values", "ragged-points", "ragged-phases",
            "non-digit", "below-digit-zero", "non-ascii",
            "short-point", "wide-points",
            "points-not-strings", "points-one-string", "values-not-a-list",
            "iterations-null", "values-not-numbers", "missing-column",
        ],
    )
    def test_unreadable_payloads_are_treated_as_stale(self, finished_task, content):
        from repro.core.orchestrator import _load_finished_checkpoint

        path = self._checkpoint_file(finished_task)
        if callable(content):
            payload = json.loads(path.read_text())
            content(payload["observations"])
            content = json.dumps(payload)
        path.write_text(content)
        assert _load_finished_checkpoint(finished_task) is None

    def test_format_1_rows_under_a_format_2_header_are_stale(self, finished_task):
        from repro.core.orchestrator import _load_finished_checkpoint

        trace = _load_finished_checkpoint(finished_task)
        path = self._checkpoint_file(finished_task)
        payload = json.loads(path.read_text())
        payload["observations"] = _format_1_rows(trace.observations)
        path.write_text(json.dumps(payload))
        assert _load_finished_checkpoint(finished_task) is None

    def test_done_payload_with_missing_fields_is_treated_as_stale(
        self, finished_task
    ):
        from repro.core.orchestrator import _load_finished_checkpoint

        path = self._checkpoint_file(finished_task)
        payload = json.loads(path.read_text())
        del payload["observations"]
        path.write_text(json.dumps(payload))
        assert _load_finished_checkpoint(finished_task) is None

    def test_corrupted_checkpoint_recomputes_to_identical_result(self, tmp_path):
        from repro.problems import ising_chain

        problem = ising_chain(num_sites=3, transverse_field=1.0)
        first = SearchOrchestrator(
            problem, num_restarts=1, max_workers=1, seed=2
        ).run(max_evaluations=30, checkpoint_dir=tmp_path)
        for path in tmp_path.glob("restart_*.json"):
            path.write_text(path.read_text()[: len(path.read_text()) // 2])
        redone = SearchOrchestrator(
            problem, num_restarts=1, max_workers=1, seed=2
        ).run(max_evaluations=30, checkpoint_dir=tmp_path)
        assert not redone.traces[0].from_checkpoint
        assert redone.best.energy == first.best.energy
        assert redone.best.best_indices == first.best.best_indices

    def test_format_1_checkpoint_recomputes_once_from_the_cache(self, tmp_path):
        from repro.problems import ising_chain

        def orchestrator():
            return SearchOrchestrator(
                ising_chain(num_sites=3, transverse_field=1.0),
                num_restarts=2,
                max_workers=1,
                seed=4,
            )

        first = orchestrator().run(max_evaluations=30, checkpoint_dir=tmp_path)
        paths = sorted(tmp_path.glob("restart_*.json"))
        assert len(paths) == 2
        for path, trace in zip(paths, first.traces):
            payload = json.loads(path.read_text())
            payload["format"] = 1
            payload["observations"] = _format_1_rows(trace.observations)
            path.write_text(json.dumps(payload))
        redone = orchestrator().run(max_evaluations=30, checkpoint_dir=tmp_path)
        for again, original in zip(redone.traces, first.traces):
            assert not again.from_checkpoint
            assert again.cache_misses == 0 and again.cache_hits > 0
            assert _observation_rows(again) == _observation_rows(original)
            assert again.best_indices == original.best_indices
            assert again.energy == original.energy
        # The recompute rewrote the checkpoints in the current format.
        replayed = orchestrator().run(max_evaluations=30, checkpoint_dir=tmp_path)
        assert all(trace.from_checkpoint for trace in replayed.traces)
        assert [_observation_rows(t) for t in replayed.traces] == [
            _observation_rows(t) for t in first.traces
        ]


class TestObservationCodec:
    """The columnar checkpoint codec round-trips observations bit for bit."""

    @staticmethod
    def _observations(count, width, cardinality, seed):
        from repro.bayesopt.optimizer import Observation

        rng = np.random.default_rng(seed)
        points = rng.integers(0, cardinality, size=(count, width))
        points[0] = cardinality - 1  # every slot at the top digit
        values = rng.normal(size=count) * 10.0 ** rng.integers(-300, 300, size=count)
        values[:3] = (-0.0, 5e-324, -1.7976931348623157e308)[: min(3, count)]
        return [
            Observation(
                point=tuple(int(v) for v in point),
                value=float(value),
                iteration=index,
                phase=("seed", "warmup", "search", "refine")[index % 4],
            )
            for index, (point, value) in enumerate(zip(points, values))
        ]

    @pytest.mark.parametrize("width", [64, 65, 128, 129])
    @pytest.mark.parametrize("cardinality", [4, 8])
    def test_round_trip_through_json(self, width, cardinality):
        from repro.core.orchestrator import _decode_observations, _encode_observations

        observations = self._observations(40, width, cardinality, seed=width)
        columns = json.loads(json.dumps(_encode_observations(observations)))
        assert all(len(point) == width for point in columns["points"])
        decoded = _decode_observations(columns, width)
        assert decoded == observations
        assert [o.value.hex() for o in decoded] == [o.value.hex() for o in observations]
        assert all(type(v) is int for o in decoded for v in o.point)

    def test_empty_observation_list(self):
        from repro.core.orchestrator import _decode_observations, _encode_observations

        columns = json.loads(json.dumps(_encode_observations([])))
        assert columns == {"points": [], "values": [], "iterations": [], "phases": []}
        assert _decode_observations(columns, 64) == []


# --------------------------------------------------------------------------- #
# replay at read cost
# --------------------------------------------------------------------------- #
class TestLazyReplay:
    """A replayed restart builds no observation and compiles no program until read."""

    @pytest.fixture()
    def xxz50_spec(self, tmp_path):
        return RunSpec(
            problem="xxz_chain",
            problem_options={"num_sites": 50},
            max_evaluations=40,
            seed=0,
            max_workers=1,
            checkpoint_dir=str(tmp_path / "checkpoints"),
        )

    @staticmethod
    def _count_builds(monkeypatch):
        from repro.bayesopt.optimizer import Observation
        from repro.core import orchestrator

        built, compiled = [], []
        compile_circuit = CliffordGateProgram.compile.__func__

        def counting_observation(*args):
            built.append(args)
            return Observation(*args)

        def counting_compile(cls, circuit):
            compiled.append(circuit)
            return compile_circuit(cls, circuit)

        monkeypatch.setattr(orchestrator, "Observation", counting_observation)
        monkeypatch.setattr(CliffordGateProgram, "compile", classmethod(counting_compile))
        return built, compiled

    def test_replay_builds_nothing_until_observations_are_read(
        self, xxz50_spec, monkeypatch
    ):
        problem = xxz50_spec.resolve_problem()
        searched = run(xxz50_spec, problem=problem)
        assert not searched.result.traces[0].from_checkpoint
        built, compiled = self._count_builds(monkeypatch)
        replayed = run(xxz50_spec, problem=problem)
        trace = replayed.result.traces[0]
        assert trace.from_checkpoint
        assert replayed.energy == searched.energy
        assert replayed.best_indices == searched.best_indices
        assert len(trace.observations) == searched.result.total_evaluations
        assert built == [] and compiled == []
        observations = replayed.result.best.search_result.observations
        assert observations is trace.observations  # the merge does not copy
        assert list(observations) == searched.result.traces[0].observations
        assert len(built) == len(trace.observations) and compiled == []
        assert list(observations) == searched.result.best.search_result.observations
        assert len(built) == len(trace.observations)  # built once, then reused

    def test_second_orchestrator_on_a_shape_compiles_nothing(self, monkeypatch):
        problem = ising_chain(num_sites=5)
        first = SearchOrchestrator(problem, num_restarts=1)
        built, compiled = self._count_builds(monkeypatch)
        second = SearchOrchestrator(problem, num_restarts=1, seed=3)
        assert compiled == []
        assert second._objective.ansatz is first._objective.ansatz
        assert second._objective.program is first._objective.program
        assert second.objective_fingerprint == first.objective_fingerprint

    def test_checkpoint_observations_pickle_and_compare_with_lists(self, tmp_path):
        import pickle

        from repro.core.orchestrator import _decode_observations, _encode_observations

        observations = TestObservationCodec._observations(30, 33, 4, seed=1)
        columns = json.loads(json.dumps(_encode_observations(observations)))
        decoded = _decode_observations(columns, 33)
        revived = pickle.loads(pickle.dumps(decoded))
        assert revived._built is None  # pickled as columns, still unbuilt
        for lazy in (decoded, revived):
            assert lazy == observations and observations == lazy
            assert not lazy != observations
            assert lazy[:3] == observations[:3] and lazy[-1] == observations[-1]
        assert decoded != observations[:-1]
        assert pickle.loads(pickle.dumps(decoded)) == decoded  # built, then pickled
        with pytest.raises(TypeError):
            decoded[0] = observations[1]
