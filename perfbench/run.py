"""End-to-end CAFQA benchmark: one workload per invocation.

    python3 perfbench/run.py --workload xxz50_refine --seed 0 --seconds 40 --trace 0

Repeats the workload (setup, search, replay legs; see ``workloads.py``) on
fresh work directories for about ``--seconds`` seconds, checks every result,
and prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured with no tracing
installed.  The repetitions give many samples per leg: every set-up,
every search and every replay window of the run.  Other tenants of a
shared host only ever add time, in bursts, so that one search of fixed
work ranges over +-30% within a run.  ``search_s`` is therefore the
fastest search of the run (``evals_per_s`` and ``jobs_per_s`` are its
rates), ``setup_s`` the fastest set-up, ``total_s`` their sum, and
``replays_per_s`` comes from the fastest replay round.  Over ten runs of
one workload the fastest search spread 4-19% of its median between
quartiles where the median search spread 11-20%, and the first, cold
search of the process is not the fastest.  Slow stretches of the host
that last minutes still move every timing; no estimator removes those.

Every leg is timed in CPU seconds of this process (``time.process_time``,
all threads), not in wall seconds.  The legs are single-threaded and
compute-bound, so the two differ only by the time the process waited for
a CPU (other processes, or steal time taken by the virtual machine's
host, which the kernel leaves out of CPU time) or for a disk write: about
3% of a ``service_drain`` drain and under 2% of the other searches on an
idle two-core machine.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of ``tracer.py``, plus ``trace.overhead``: the traced
``total_s`` over the untraced one.  The lines before the result give the
machine context and the layer report.

The program under test is imported from ``src/`` of the checkout this file
sits in; without it the benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One thread per BLAS/OpenMP pool, set before numpy loads: the workloads are
# single-process and the machine has two cores.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Cheap setups are repeated until they have taken this long (at most
# SETUP_MAX_REPEATS times).
SETUP_MIN_SECONDS = 0.3
SETUP_MAX_REPEATS = 30
# Cheap searches are repeated the same way (each on fresh directories).
SEARCH_MIN_SECONDS = 2.0
SEARCH_MAX_REPEATS = 10
# Wall seconds of replay rounds per untraced repetition.
REPLAY_WINDOW_SECONDS = 0.3

# Seed-0 results, pinned: (digest of every result row, best energy).
PINNED_SEED0 = {
    "xxz50_refine": ("8517cb95d4afba2d", -50.0),
    "molecule_build": ("fca29adce906111d", -7.861864454404143),
    "service_drain": ("f7fcb5738b61cd8c", -12.0),
}

# Layer groups of the traced run, and the end-to-end metric each should move.
LAYER_GROUPS = {
    "chemistry": "setup_s and total_s on molecule_build only",
    "bayesopt": "search_s, evals_per_s and jobs_per_s on service_drain; slightly xxz50_refine",
    "search/objective/stabilizer": "search_s and evals_per_s on xxz50_refine",
    "evalcache/orchestrator": "jobs_per_s and replays_per_s on service_drain",
    "service": "jobs_per_s and replays_per_s on service_drain only",
}

# The layer whose self time should be largest on each workload.
EXPECTED_TOP_LAYER = {
    "xxz50_refine": ("stabilizer.evolve", "search.refine"),
    "molecule_build": ("chemistry.", "operators.sparse"),
    "service_drain": ("service.", "evalcache."),
}

COVERAGE_TARGET = 0.90

END_TO_END_UNITS = {
    "setup_s": "s",
    "search_s": "s",
    "total_s": "s",
    "evals_per_s": "1/s",
    "jobs_per_s": "1/s",
    "replays_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Import ``repro`` from this checkout's ``src/`` (and nowhere else)."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure under {source}")
    for name in THREAD_ENV:
        os.environ.setdefault(name, "1")
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {source}")
    # Import every layer up front, so no repetition pays for module loading
    # and the tracer finds every binding of the functions it wraps.
    import repro.chemistry  # noqa: F401
    import repro.core.orchestrator  # noqa: F401
    import repro.service  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401


# --------------------------------------------------------------------------- #
# machine context
# --------------------------------------------------------------------------- #
def os_threads() -> int:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return threading.active_count()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_context():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {name: os.environ.get(name) for name in THREAD_ENV},
    }


# --------------------------------------------------------------------------- #
# one repetition
# --------------------------------------------------------------------------- #
class Repetition:
    """Times the legs of one workload instance; optionally under a tracer."""

    def __init__(self, workload_cls, seed, workdir, tracer=None):
        self.workload = workload_cls(seed, workdir)
        self.tracer = tracer
        self.setup_times = []
        self.searches = []  # (seconds, Outcome)
        self.replay = None
        self.peak_threads = os_threads()

    def _repeat(self, leg, samples, min_seconds, max_repeats):
        """Run ``leg`` until its samples add up to ``min_seconds``.

        A traced repetition runs each leg once, so layer counts stay exact.
        """
        while True:
            start = time.process_time()
            value = leg()
            samples.append((time.process_time() - start, value))
            if (
                self.tracer is not None
                or sum(seconds for seconds, _ in samples) >= min_seconds
                or len(samples) >= max_repeats
            ):
                return

    def _legs(self):
        setups = []
        self._repeat(self.workload.setup, setups, SETUP_MIN_SECONDS, SETUP_MAX_REPEATS)
        self.setup_times = [seconds for seconds, _ in setups]
        self.peak_threads = max(self.peak_threads, os_threads())
        repeats = SEARCH_MAX_REPEATS if self.workload.repeatable_search else 1
        self._repeat(self.workload.search, self.searches, SEARCH_MIN_SECONDS, repeats)
        self.peak_threads = max(self.peak_threads, os_threads())
        window, rounds = (0.0, 1) if self.tracer is not None else (REPLAY_WINDOW_SECONDS, 0)
        self.replay = self.workload.replay(self.outcome, window, rounds=rounds)

    def run(self):
        if self.tracer is None:
            self._legs()
        else:
            with self.tracer.root():
                self._legs()
        return self

    @property
    def outcome(self):
        return self.searches[-1][1]

    @property
    def setup_s(self):
        return statistics.fmean(self.setup_times)

    @property
    def search_s(self):
        return statistics.fmean(seconds for seconds, _ in self.searches)

    @property
    def total_s(self):
        return self.setup_s + self.search_s


def run_repetitions(workload_cls, args, workroot, traced, deadline):
    """Repeat until ``deadline`` would be passed; alternate when traced."""
    from tracer import Tracer

    plain, traced_runs = [], []
    index = 0
    while True:
        use_tracer = traced and index % 2 == 1
        started = time.monotonic()
        repetition = Repetition(
            workload_cls,
            args.seed,
            workroot / f"rep_{index}",
            tracer=Tracer() if use_tracer else None,
        ).run()
        (traced_runs if use_tracer else plain).append(repetition)
        shutil.rmtree(workroot / f"rep_{index}", ignore_errors=True)
        index += 1
        took = time.monotonic() - started
        needs_pair = traced and not traced_runs
        if not needs_pair and time.monotonic() + took > deadline:
            return plain, traced_runs


# --------------------------------------------------------------------------- #
# checks and metrics
# --------------------------------------------------------------------------- #
def check(workload_name, seed, repetitions, first_outcome_check):
    found = list(first_outcome_check)
    outcomes = [outcome for r in repetitions for _, outcome in r.searches]
    reference = outcomes[0].digest()
    for outcome in outcomes:
        found.extend(outcome.bound_violations())
        if outcome.digest() != reference:
            found.append("a repeated search (traced or not) gave a different result")
    for repetition in repetitions:
        found.extend(repetition.replay.problems)
    if seed == 0:
        digest, best = PINNED_SEED0[workload_name]
        if outcomes[0].digest() != digest:
            found.append(f"seed-0 digest {outcomes[0].digest()} != pinned {digest}")
        if outcomes[0].best != best:
            found.append(f"seed-0 best {outcomes[0].best!r} != pinned {best!r}")
    return sorted(set(found))


def end_to_end_metrics(plain):
    """Each end-to-end metric over the whole run (see the module docstring)."""
    setup = min(t for r in plain for t in r.setup_times)
    search, outcome = min(
        ((t, outcome) for r in plain for t, outcome in r.searches), key=lambda s: s[0]
    )
    trips_per_round = plain[0].replay.trips / len(plain[0].replay.rounds)
    values = {
        "setup_s": setup,
        "search_s": search,
        "total_s": setup + search,
        "evals_per_s": outcome.evaluations / search,
        "jobs_per_s": outcome.jobs / search,
        "replays_per_s": trips_per_round / min(t for r in plain for t in r.replay.rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": END_TO_END_UNITS[name]} for name in values}


def layer_values(repetition):
    """Per-layer metrics of one traced repetition."""
    tracer = repetition.tracer
    calls, self_s, items = tracer.calls, tracer.self_s, tracer.items
    trips, hits = repetition.replay.trips, repetition.replay.hits
    gets = calls["evalcache.get"]
    values = {
        "problems.build.s": self_s["problems.build"],
        "chemistry.scf.calls": calls["chemistry.scf"],
        "chemistry.scf.s": self_s["chemistry.scf"],
        "chemistry.integrals.eri.calls": calls["chemistry.integrals.eri"],
        "chemistry.integrals.eri.s": self_s["chemistry.integrals.eri"],
        "chemistry.mappings.s": self_s["chemistry.mappings"],
        "chemistry.exact.s": self_s["chemistry.exact"],
        "operators.sparse.s": self_s["operators.sparse"],
        "bayesopt.fit.calls": calls["bayesopt.fit"],
        "bayesopt.fit.s": self_s["bayesopt.fit"],
        "bayesopt.predict.s": self_s["bayesopt.predict"],
        "bayesopt.minimize.s": self_s["bayesopt.minimize"],
        "search.refine.calls": calls["search.refine"],
        "search.refine.evals": items["search.refine"],
        "search.refine.s": self_s["search.refine"],
        "objective.batch.calls": calls["objective.batch"],
        "objective.batch.points": items["objective.batch"],
        "objective.point.calls": calls["objective.point"],
        "objective.s": self_s["objective.batch"] + self_s["objective.point"],
        "stabilizer.evolve.calls": calls["stabilizer.evolve"],
        "stabilizer.evolve.states": items["stabilizer.evolve"],
        "stabilizer.evolve.s": self_s["stabilizer.evolve"],
        "stabilizer.expectation.calls": calls["stabilizer.expectation"],
        "stabilizer.expectation.states": items["stabilizer.expectation"],
        "stabilizer.expectation.s": self_s["stabilizer.expectation"],
        "evalcache.get.calls": gets,
        "evalcache.hit_ratio": items["evalcache.get"] / gets if gets else 0.0,
        "evalcache.put.calls": calls["evalcache.put"],
        "evalcache.s": self_s["evalcache.get"] + self_s["evalcache.put"],
        "evalcache.flush.s": self_s["evalcache.flush"],
        "orchestrator.restart.s": self_s["orchestrator.restart"],
        "orchestrator.checkpoint.calls": calls["orchestrator.checkpoint"],
        "orchestrator.checkpoint.s": self_s["orchestrator.checkpoint"],
        "orchestrator.failed": repetition.outcome.failed,
        "service.submit.s": self_s["service.submit"],
        "service.claim.s": self_s["service.claim"],
        "service.complete.s": self_s["service.complete"],
        "service.result.s": self_s["service.result"],
        "service.replay_hit_ratio": hits / trips if trips else 0.0,
        "other.s": self_s["other"],
        "trace.coverage": tracer.attributed_s() / tracer.root_s,
    }
    return values


LAYER_UNITS = {
    ".calls": "count",
    ".states": "count",
    ".points": "count",
    ".evals": "count",
    ".failed": "count",
    ".s": "s",
}


def layer_unit(name):
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "ratio"


def per_layer_metrics(workload_name, plain, traced_runs):
    rows = [layer_values(r) for r in traced_runs]
    values = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    values["trace.overhead"] = statistics.median(
        r.total_s for r in traced_runs
    ) / statistics.median(r.total_s for r in plain)
    tracer = traced_runs[0].tracer
    top = tracer.largest_layer()
    expected = EXPECTED_TOP_LAYER[workload_name]
    report = {
        "traced_results_identical": all(
            r.outcome.digest() == plain[0].outcome.digest() for r in traced_runs
        ),
        "root_s": tracer.root_s,
        "other_s": tracer.self_s["other"],
        "coverage": values["trace.coverage"],
        "coverage_ok": values["trace.coverage"] >= COVERAGE_TARGET,
        "largest_layer": top,
        "largest_layer_expected": list(expected),
        "largest_layer_ok": top.startswith(expected),
        "self_s": dict(sorted(tracer.self_s.items(), key=lambda kv: -kv[1])),
        "layer_groups_move": LAYER_GROUPS,
    }
    print("layers: " + json.dumps(report))
    return {name: {"value": value, "unit": layer_unit(name)} for name, value in values.items()}


# --------------------------------------------------------------------------- #
def main(argv=None):
    args = parse_args(argv)
    load_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    workload_cls = WORKLOADS[args.workload]
    print("machine: " + json.dumps(machine_context()))

    workroot = ROOT / ".perfbench_work" / str(os.getpid())
    deadline = time.monotonic() + args.seconds
    try:
        plain, traced_runs = run_repetitions(
            workload_cls, args, workroot, bool(args.trace), deadline
        )
        # After the clock has stopped: the direct runs take as long as a search.
        first = plain[0]
        first_checks = (
            first.workload.direct_check(first.outcome)
            if hasattr(first.workload, "direct_check")
            else []
        )
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            workroot.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    repetitions = plain + traced_runs
    found = check(args.workload, args.seed, repetitions, first_checks)
    outcome = repetitions[0].outcome
    summary = {
        "name": args.workload,
        "seed": args.seed,
        "repetitions": len(plain),
        "traced_repetitions": len(traced_runs),
        "setup_s": [round(r.setup_s, 4) for r in plain],
        "search_s": [round(t, 4) for r in plain for t, _ in r.searches],
        "replays_per_s": [round(r.replay.trips / sum(r.replay.rounds), 1) for r in plain],
        "traced_search_s": [round(r.search_s, 4) for r in traced_runs],
        "processes": 1 + len(multiprocessing.active_children()),
        "os_threads_after_legs": max(r.peak_threads for r in repetitions),
        "digest": outcome.digest(),
        "best_energy": outcome.best,
        "energy_gain": sum(row[4] - row[1] for row in outcome.rows),
        "evaluations": outcome.evaluations,
        "problems": found,
    }
    print("workload: " + json.dumps(summary))
    if args.trace:
        metrics = per_layer_metrics(args.workload, plain, traced_runs)
    else:
        metrics = end_to_end_metrics(plain)
    searches = [o for r in repetitions for _, o in r.searches]
    result = {
        "correct": not found,
        "attempted": sum(o.jobs for o in searches),
        "failed": sum(o.failed for o in searches),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
