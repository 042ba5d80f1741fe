"""Campaign scheduler: shared cache, whole-run memoization, partial sweeps.

The ISSUE 7 acceptance scenarios live here: a 2-bond-length H2 sweep run
twice against the same cache/checkpoint directories must replay the second
pass entirely from memo records with zero new stabilizer evaluations, and a
sweep with one injected failure must still return every other point with the
failure recorded in the aggregate report.
"""

import dataclasses
import json
import sqlite3
from pathlib import Path

import numpy as np
import pytest

from chaos_faults import FAULT_DIR_ENV, FAULT_SPEC_ENV, HOOK_FILE
from repro.core.faults import FAULT_HOOKS_ENV
from repro.exceptions import IncompleteRunError, ReproError
from repro.experiments.config import SMOKE
from repro.experiments.dissociation import run_dissociation_curve
from repro.operators import PauliSum
from repro.problems.base import HamiltonianProblem
from repro.runspec import RunSpec
from repro.service import open_store, queue_path, sweep_results
from repro.sweepspec import SweepSpec, run_sweep

BOND_LENGTHS = [2.0, 2.5]


def h2_sweep(tmp_path, subdir="campaign", **overrides) -> SweepSpec:
    payload = {
        "base": RunSpec(problem="H2", max_evaluations=24, seed=3),
        "axes": {"problem_options.bond_length": BOND_LENGTHS},
        "cache_dir": str(tmp_path / subdir / "cache"),
        "checkpoint_dir": str(tmp_path / subdir / "ckpt"),
    }
    payload.update(overrides)
    return SweepSpec(**payload)


def cached_evaluations(sweep: SweepSpec) -> int:
    """Total stabilizer evaluations recorded in the sweep's cache shards."""
    cache = Path(sweep.cache_dir)
    if not cache.exists():
        return 0
    return sum(
        len(shard.read_text().splitlines()) for shard in cache.glob("evals_*.jsonl")
    )


def _inject_one_failure(monkeypatch, tmp_path):
    # One deterministic (non-retried) raise at evaluation 8 of restart 0.
    # ``times=1`` is counted in marker files shared across the sweep, so the
    # fault takes down exactly one point and later points sail past it.
    monkeypatch.setenv(
        FAULT_SPEC_ENV,
        json.dumps([{"restart": 0, "mode": "raise", "at": 8, "transient": False}]),
    )
    monkeypatch.setenv(FAULT_DIR_ENV, str(tmp_path / "markers"))
    monkeypatch.setenv(FAULT_HOOKS_ENV, HOOK_FILE)


def _clear_faults(monkeypatch):
    monkeypatch.delenv(FAULT_SPEC_ENV, raising=False)
    monkeypatch.delenv(FAULT_DIR_ENV, raising=False)


class TestMemoization:
    def test_resubmitted_sweep_is_all_cache_hits(self, tmp_path):
        """ISSUE 7 acceptance: second identical pass replays, zero new evals."""
        sweep = h2_sweep(tmp_path)
        first = run_sweep(sweep)
        assert first.num_completed == 2
        assert first.num_memoized == 0
        evaluations_after_first = cached_evaluations(sweep)
        assert evaluations_after_first > 0

        lines = []
        second = run_sweep(SweepSpec.from_json(sweep.to_json()), log=lines.append)
        assert second.num_memoized == 2
        assert all(run.memoized for run in second.runs)
        assert sum("cache hit" in line for line in lines) == 2
        # zero new stabilizer evaluations on the second pass
        assert cached_evaluations(sweep) == evaluations_after_first
        # bit-identical table (modulo the memoized flag)
        strip = lambda rows: [  # noqa: E731
            {k: v for k, v in row.items() if k != "memoized"} for row in rows
        ]
        assert strip(second.as_table()) == strip(first.as_table())
        assert [r.run_digest for r in second.runs] == [r.run_digest for r in first.runs]

    def test_fresh_checkpoint_same_cache_pays_no_new_evaluations(self, tmp_path):
        """Same cache, new memo dir: runs execute but every point is a cache hit."""
        sweep = h2_sweep(tmp_path)
        first = run_sweep(sweep)
        evaluations = cached_evaluations(sweep)
        rerun = h2_sweep(
            tmp_path, checkpoint_dir=str(tmp_path / "campaign" / "ckpt2")
        )
        third = run_sweep(rerun)
        assert third.num_memoized == 0  # fresh memo dir: runs truly re-execute
        assert cached_evaluations(sweep) == evaluations  # ... from cache alone
        assert third.energies == first.energies

    def test_growing_a_sweep_replays_the_finished_prefix(self, tmp_path):
        truncated = h2_sweep(
            tmp_path, axes={"problem_options.bond_length": BOND_LENGTHS[:1]}
        )
        first = run_sweep(truncated)
        full = h2_sweep(tmp_path)
        second = run_sweep(full)
        assert second.num_memoized == 1
        assert second.runs[0].memoized and not second.runs[1].memoized
        assert second.runs[0].energy == first.runs[0].energy

    def test_memoize_false_always_executes(self, tmp_path):
        sweep = h2_sweep(tmp_path, memoize=False)
        run_sweep(sweep)
        report = run_sweep(sweep)
        assert report.num_memoized == 0
        assert not queue_path(sweep.checkpoint_dir).exists()

    def test_corrupt_memo_record_recomputes(self, tmp_path):
        sweep = h2_sweep(tmp_path)
        first = run_sweep(sweep)
        with sqlite3.connect(queue_path(sweep.checkpoint_dir)) as connection:
            digests = [
                digest
                for (digest,) in connection.execute(
                    "SELECT digest FROM jobs WHERE state='done' ORDER BY digest"
                )
            ]
            assert len(digests) == 2
            for digest, record in zip(
                digests, ["{ not json", json.dumps({"format": 99})]
            ):
                connection.execute(
                    "UPDATE jobs SET result_json=? WHERE digest=?", (record, digest)
                )
        connection.close()
        report = run_sweep(sweep)
        assert report.num_memoized == 0
        assert report.energies == first.energies
        assert run_sweep(sweep).num_memoized == 2

    def test_numpy_axis_sweep_memoizes_after_json_round_trip(self, tmp_path):
        sweep = h2_sweep(
            tmp_path,
            axes={"problem_options.bond_length": list(np.linspace(2.0, 2.5, 2))},
        )
        first = run_sweep(sweep)
        second = run_sweep(SweepSpec.from_json(sweep.to_json()))
        assert second.num_memoized == 2
        assert second.energies == first.energies

    def test_instance_problem_sweep_memoizes(self, tmp_path):
        toy = HamiltonianProblem(
            name="toy", hamiltonian=PauliSum({"ZZ": -1.0, "XI": 0.5})
        )
        sweep = h2_sweep(
            tmp_path,
            base=RunSpec(problem=toy, max_evaluations=8, seed=1),
            axes={"seed": [1, 2]},
        )
        first = run_sweep(sweep)
        second = run_sweep(sweep)
        assert first.num_memoized == 0
        assert second.num_memoized == 2
        assert second.energies == first.energies

    def test_service_reads_campaign_points(self, tmp_path):
        sweep = h2_sweep(tmp_path)
        report = run_sweep(sweep)
        with open_store(sweep.checkpoint_dir) as store:
            assert sweep_results(store, sweep) == [run.summary for run in report.runs]
            assert store.counts()["done"] == 2


class TestPartialSweeps:
    def test_injected_failure_yields_partial_report(self, monkeypatch, tmp_path):
        """ISSUE 7 acceptance: one dead point, every other point still lands."""
        _inject_one_failure(monkeypatch, tmp_path)
        sweep = h2_sweep(tmp_path, base=RunSpec(
            problem="H2", max_evaluations=24, seed=3,
            failure_policy={"max_retries": 0},
        ))
        report = run_sweep(sweep)
        assert report.is_partial
        assert report.num_completed == 1
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.index == 0
        assert failure.error_type == "IncompleteRunError"
        assert failure.coords == {"problem_options.bond_length": 2.0}
        assert failure.run_digest
        assert failure.failed_restarts
        assert "DeterministicRestartError" in failure.failed_restarts[0]["last_error"]
        payload = json.loads(report.to_json())
        assert payload["is_partial"] and payload["num_failed"] == 1
        # the surviving point is a normal row
        assert report.runs[0].coords == {"problem_options.bond_length": 2.5}

    def test_resume_after_failure_is_bit_identical(self, monkeypatch, tmp_path):
        """Kill one point mid-sweep, clear the fault, resubmit: full report,
        bit-identical to a never-interrupted baseline."""
        baseline = run_sweep(h2_sweep(tmp_path, subdir="baseline"))

        _inject_one_failure(monkeypatch, tmp_path)
        sweep = h2_sweep(tmp_path)
        partial = run_sweep(sweep)
        assert partial.is_partial and partial.num_completed == 1

        _clear_faults(monkeypatch)
        resumed = run_sweep(sweep)
        assert not resumed.is_partial
        assert resumed.num_completed == 2
        assert resumed.num_memoized == 1  # the survivor replays from memo
        assert resumed.energies == baseline.energies
        assert [r.run_digest for r in resumed.runs] == [
            r.run_digest for r in baseline.runs
        ]

    def test_on_failure_raise_aborts_the_sweep(self, monkeypatch, tmp_path):
        _inject_one_failure(monkeypatch, tmp_path)
        sweep = h2_sweep(tmp_path, on_failure="raise", base=RunSpec(
            problem="H2", max_evaluations=24, seed=3,
            failure_policy={"max_retries": 0},
        ))
        with pytest.raises(IncompleteRunError):
            run_sweep(sweep)


class TestReport:
    def test_run_at_and_table_shape(self, tmp_path):
        report = run_sweep(h2_sweep(tmp_path))
        hit = report.run_at(**{"problem_options.bond_length": 2.5})
        assert hit is not None and hit.index == 1
        assert report.run_at(**{"problem_options.bond_length": 9.9}) is None
        rows = report.as_table()
        assert [row["point"] for row in rows] == [0, 1]
        for row in rows:
            assert {"problem_options.bond_length", "energy", "reference_energy",
                    "memoized"} <= set(row)
        # the aggregate report is JSON-serializable end to end
        payload = json.loads(report.to_json())
        assert payload["num_points"] == 2 and payload["num_memoized"] == 0


class TestDissociationCurveFrontDoor:
    def test_empty_numpy_bond_lengths_raise_cleanly(self):
        # Regression: an empty list or array used to reach
        # ``float(bond_lengths[0])`` and escape as a raw IndexError.
        for empty in ([], np.array([])):
            with pytest.raises(ReproError, match="at least one bond length"):
                run_dissociation_curve("H2", bond_lengths=empty)

    def test_numpy_linspace_input_works(self, tmp_path):
        scale = dataclasses.replace(SMOKE, name="tiny", search_evaluations_small=24)

        def curve(log):
            return run_dissociation_curve(
                "H2",
                scale=scale,
                bond_lengths=np.linspace(2.0, 2.5, 2),
                seed=3,
                cache_dir=str(tmp_path / "cache"),
                checkpoint_dir=str(tmp_path / "ckpt"),
                log=log,
            )

        first = curve(log=None)
        assert first.bond_lengths == BOND_LENGTHS
        assert first.cafqa_never_worse_than_hf()
        # a second call replays both points from the memo records
        lines = []
        replay = curve(log=lines.append)
        assert sum("cache hit" in line for line in lines) == 2
        assert [p.cafqa_energy for p in replay.points] == [
            p.cafqa_energy for p in first.points
        ]


class TestDriverKnobForwarding:
    def test_curve_sweepspec_forwards_every_knob(self, tmp_path):
        # Regression: the fig8-11 wrappers used to drop num_seeds/max_workers
        # and never shared a cache across their series.
        from repro.experiments.dissociation import curve_sweepspec

        sweep = curve_sweepspec(
            "H2",
            BOND_LENGTHS,
            max_evaluations=24,
            seed=5,
            num_seeds=3,
            max_workers=2,
            cache_dir=str(tmp_path / "cache"),
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        specs = [point.spec for point in sweep.expand()]
        assert all(spec.num_seeds == 3 for spec in specs)
        assert all(spec.max_workers == 2 for spec in specs)
        assert all(spec.cache_dir == str(tmp_path / "cache") for spec in specs)
        assert all(spec.checkpoint_dir == str(tmp_path / "ckpt") for spec in specs)
        assert [spec.seed for spec in specs] == [5, 6]
        assert [spec.problem_options["bond_length"] for spec in specs] == BOND_LENGTHS

    def test_table1_sweepspec_molecule_axis(self, tmp_path):
        from repro.experiments.table1 import table1_sweepspec

        sweep = table1_sweepspec(
            ["H2", "LiH"],
            search_evaluations=24,
            seed=9,
            num_seeds=2,
            max_workers=2,
            cache_dir=str(tmp_path / "cache"),
        )
        specs = [point.spec for point in sweep.expand()]
        assert [spec.problem for spec in specs] == ["H2", "LiH"]
        # unrelated problems share the same base seed (derive_seeds=False)
        assert [spec.seed for spec in specs] == [9, 9]
        assert all(spec.num_seeds == 2 and spec.max_workers == 2 for spec in specs)
        assert all(spec.cache_dir == str(tmp_path / "cache") for spec in specs)
