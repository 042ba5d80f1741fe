"""The benchmark workloads, each built to load a different layer.

Every workload has three timed legs, run in order on a fresh work
directory:

* ``setup``  -- build the problems (or open the service store and submit
  the batch); the part of the run before the first evaluation;
* ``search`` -- run the CAFQA searches to their ``RunReport``\\s (or drain
  the service queue);
* ``replay`` -- ask again for the finished runs: rerun each spec on its
  finished checkpoints (inline workloads), or resubmit each spec and fetch
  its stored result (``service_drain``).

Results are summarised as rows ``(label, energy, best indices,
evaluations, reference, exact)``; their digest is what the correctness
checks compare (pinned at seed 0, equal across repetitions, traced vs.
untraced, search vs. replay).
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sqlite3
import time
from pathlib import Path

from repro import problems
from repro.runspec import RunSpec, run
from repro.service import ServiceWorker, open_store, shared_cache_path

# A float comparison slack for ``exact <= best <= reference``: reference
# determinant energies and Clifford energies are summed in different orders.
ENERGY_SLACK = 1e-9

# Only the final "done" checkpoint per restart: the replay leg needs it, the
# workload does not need progress checkpoints.
FINAL_CHECKPOINT_ONLY = 10**9


class Outcome:
    """What one search leg produced: result rows and job counts."""

    def __init__(self, rows, evaluations, jobs, failed):
        self.rows = rows
        self.evaluations = int(evaluations)
        self.jobs = int(jobs)
        self.failed = int(failed)

    @property
    def best(self) -> float:
        return min(row[1] for row in self.rows)

    def digest(self) -> str:
        payload = json.dumps([row[:4] for row in self.rows])
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def bound_violations(self):
        """Rows breaking ``exact <= best <= reference`` (within slack)."""
        problems_found = []
        for label, energy, _, _, reference, exact in self.rows:
            if energy > reference + ENERGY_SLACK:
                problems_found.append(f"{label}: best {energy!r} above reference {reference!r}")
            if exact is not None and energy < exact - ENERGY_SLACK:
                problems_found.append(f"{label}: best {energy!r} below exact {exact!r}")
        return problems_found


def _report_rows(label, report):
    return [
        label,
        report.energy,
        [int(v) for v in report.best_indices],
        int(report.result.total_evaluations),
        report.reference_energy,
        report.exact_energy,
    ]


def _fresh(directory: Path) -> Path:
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    return directory


class Replay:
    """Round trips of one replay leg: per-round CPU seconds, hits, problems.

    The window is wall time; each round is timed in process CPU seconds,
    like every other leg (see ``run.py``).
    """

    def __init__(self):
        self.rounds = []
        self.trips = 0
        self.hits = 0
        self.problems = []
        self._start = time.monotonic()

    def more(self, window_s: float, rounds: int) -> bool:
        if rounds:
            return len(self.rounds) < rounds
        return not self.rounds or time.monotonic() - self._start < window_s

    def record(self, hit: bool, same: bool, label: str) -> None:
        self.trips += 1
        self.hits += bool(hit)
        if not hit:
            self.problems.append(f"{label}: replay was not served from stored results")
        if not same:
            self.problems.append(f"{label}: replayed result differs from the search")


class InlineWorkload:
    """Searches run in this process through ``repro.run`` (``max_workers=1``)."""

    name = ""
    repeatable_search = True

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)
        self.workdir = _fresh(workdir)
        self.specs = self.build_specs(self.workdir / "search_0")
        self.built = None
        self._searches = 0

    def build_specs(self, directory: Path):
        """The workload's run specs, persisting under ``directory``."""
        raise NotImplementedError

    def _spec(self, directory: Path, **fields):
        fields.setdefault("max_workers", 1)
        fields.setdefault("checkpoint_dir", str(directory / fields["problem"] / "checkpoints"))
        return RunSpec(seed=self.seed, **fields)

    def setup(self) -> None:
        self.built = [
            problems.get(spec.problem, **spec.problem_options) for spec in self.specs
        ]

    def search(self) -> Outcome:
        # Fresh cache and checkpoint directories: every search starts cold.
        self._searches += 1
        self.specs = self.build_specs(_fresh(self.workdir / f"search_{self._searches}"))
        rows, evaluations, jobs, failed = [], 0, 0, 0
        for spec, problem in zip(self.specs, self.built):
            report = run(spec, problem=problem)
            rows.append(_report_rows(spec.problem, report))
            evaluations += report.result.total_evaluations
            jobs += report.result.num_restarts + report.result.num_failed_restarts
            failed += report.result.num_failed_restarts
        return Outcome(rows, evaluations, jobs, failed)

    def replay(self, outcome: Outcome, window_s: float, rounds: int = 0) -> Replay:
        """Rerun every spec on its finished checkpoints, round after round.

        A round replays each spec once; a hit is a replayed run whose every
        restart came from its checkpoint and whose result equals the search's.
        """
        replay = Replay()
        while replay.more(window_s, rounds):
            started = time.process_time()
            for spec, problem, row in zip(self.specs, self.built, outcome.rows):
                report = run(spec, problem=problem)
                from_checkpoint = all(t.from_checkpoint for t in report.result.traces)
                same = _report_rows(spec.problem, report)[:4] == row[:4]
                replay.record(from_checkpoint, same, spec.problem)
            replay.rounds.append(time.process_time() - started)
        return replay


class Xxz50Refine(InlineWorkload):
    """A 50-site XXZ chain: coordinate-descent refinement dominates."""

    name = "xxz50_refine"

    def build_specs(self, directory):
        return [
            self._spec(
                directory,
                problem="xxz_chain",
                problem_options={"num_sites": 50},
                max_evaluations=100,
                checkpoint_interval=FINAL_CHECKPOINT_ONLY,
                search_options={"refinement_sweeps": 1},
            )
        ]


class MoleculeBuild(InlineWorkload):
    """LiH and H4 at equilibrium: building the problems dominates."""

    name = "molecule_build"

    def build_specs(self, directory):
        return [
            self._spec(
                directory,
                problem=name,
                max_evaluations=100,
                checkpoint_interval=FINAL_CHECKPOINT_ONLY,
            )
            for name in ("LiH", "H4")
        ]


class ServiceDrain:
    """24 distinct Ising jobs through the durable service, then their replay."""

    name = "service_drain"
    NUM_JOBS = 24
    # A drain empties the queue it was given; only a new setup refills it.
    repeatable_search = False

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)
        self.workdir = _fresh(workdir)
        self.specs = [
            RunSpec(
                problem="ising_chain",
                problem_options={
                    "num_sites": 4,
                    "transverse_field": 0.25 + 0.125 * index,
                },
                max_evaluations=60,
                seed=self.seed,
                search_options={"local_refinement": False},
            )
            for index in range(self.NUM_JOBS)
        ]
        self.data = None
        self.digests = None
        self._setups = 0

    def setup(self) -> None:
        # Each setup opens a brand-new store, so repeated setups all time the
        # same work; the last one is the one drained.
        self._setups += 1
        self.data = _fresh(self.workdir / f"service_{self._setups}")
        with open_store(self.data) as store:
            self.digests = [
                store.submit(spec, submitter="bench").digest for spec in self.specs
            ]

    def search(self) -> Outcome:
        stats = ServiceWorker(self.data, lease_ttl=60.0).run()
        rows = []
        evaluations = 0
        with open_store(self.data) as store:
            for spec, digest in zip(self.specs, self.digests):
                summary = store.result(digest)
                if summary is None:
                    continue
                rows.append(_summary_row(spec, summary))
                evaluations += int(summary["total_evaluations"])
        failed = stats.failed + (self.NUM_JOBS - len(rows))
        return Outcome(rows, evaluations, self.NUM_JOBS, failed)

    def cache_rows(self) -> int:
        with sqlite3.connect(shared_cache_path(self.data)) as connection:
            (count,) = connection.execute("SELECT COUNT(*) FROM evaluations").fetchone()
        return count

    def replay(self, outcome: Outcome, window_s: float, rounds: int = 0) -> Replay:
        """Resubmit each spec and fetch its stored result, round after round."""
        rows_before = self.cache_rows()
        expected = {row[0]: row for row in outcome.rows}
        replay = Replay()
        with open_store(self.data) as store:
            while replay.more(window_s, rounds):
                started = time.process_time()
                for spec in self.specs:
                    receipt = store.submit(spec, submitter="replay")
                    summary = store.result(receipt.digest)
                    row = _summary_row(spec, summary) if summary is not None else None
                    same = row is not None and row[:4] == expected.get(row[0], [None])[:4]
                    replay.record(receipt.replayed, same, receipt.digest)
                replay.rounds.append(time.process_time() - started)
        if self.cache_rows() != rows_before:
            replay.problems.append("replay added evaluation-cache rows")
        return replay

    def direct_check(self, outcome: Outcome):
        """Every drained result must equal a direct ``repro.run`` of its spec."""
        found = []
        drained = {row[0]: row for row in outcome.rows}
        for spec in self.specs:
            direct = _report_rows(_job_label(spec), run(spec))
            if drained.get(direct[0], [None])[:4] != direct[:4]:
                found.append(f"{direct[0]}: drained result differs from a direct run")
        return found


def _job_label(spec: RunSpec) -> str:
    return f"ising_chain(h={spec.problem_options['transverse_field']:g})"


def _summary_row(spec: RunSpec, summary):
    return [
        _job_label(spec),
        float(summary["energy"]),
        [int(v) for v in summary["best_indices"]],
        int(summary["total_evaluations"]),
        float(summary["reference_energy"]),
        summary["exact_energy"],
    ]


WORKLOADS = {
    workload.name: workload
    for workload in (Xxz50Refine, MoleculeBuild, ServiceDrain)
}
