#!/usr/bin/env python3
"""LiH dissociation curve as a declarative campaign (the paper's Fig. 9).

Declares the bond-length sweep as one :class:`repro.SweepSpec` and executes
it with :func:`repro.run_sweep`: every point runs a best-of-N-restarts CAFQA
search through the fault-tolerant orchestrator, all points share one
evaluation cache, and completed points are stored, keyed by digest, in the
job store of the work directory's ``checkpoints/`` (readable with
``python -m repro.service status --data <workdir>/checkpoints``).
Re-running the example against the same work directory replays every
finished point as a whole-run "cache hit" instead of searching again — kill
it mid-sweep and the resubmission picks up where it stopped.

Expect CAFQA to track Hartree-Fock near equilibrium and to pull well below
it (toward the exact curve) at stretched geometries.

Run:  python examples/lih_dissociation.py [num_points] [search_budget] [num_seeds] [workdir]

Environment: REPRO_EXAMPLE_EVALS / REPRO_EXAMPLE_SEEDS override the budget
and restart count (CI smoke runs use tiny values).
"""

import os
import sys

import repro


def main() -> None:
    num_points = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    budget = int(
        sys.argv[2] if len(sys.argv) > 2 else os.environ.get("REPRO_EXAMPLE_EVALS", "250")
    )
    num_seeds = int(
        sys.argv[3] if len(sys.argv) > 3 else os.environ.get("REPRO_EXAMPLE_SEEDS", "1")
    )
    workdir = sys.argv[4] if len(sys.argv) > 4 else None

    low, high = 1.2, 4.4
    bond_lengths = [
        round(low + i * (high - low) / (num_points - 1), 2) for i in range(num_points)
    ]
    print(
        f"LiH dissociation at {bond_lengths} A "
        f"(search budget {budget} per point, {num_seeds} restart(s))"
    )

    sweep = repro.SweepSpec(
        base=repro.RunSpec(
            problem="LiH",
            ansatz_reps=2,
            max_evaluations=budget,
            num_seeds=num_seeds,
            seed=0,
        ),
        axes={"problem_options.bond_length": bond_lengths},
        cache_dir=os.path.join(workdir, "cache") if workdir else None,
        checkpoint_dir=os.path.join(workdir, "checkpoints") if workdir else None,
        name="example:LiH-dissociation",
    )
    report = repro.run_sweep(sweep, log=print)

    header = (
        f"{'R (A)':>6} {'HF':>12} {'CAFQA':>12} {'exact':>12} "
        f"{'err':>10} {'memo':>5}"
    )
    print(header)
    print("-" * len(header))
    for row in report.as_table():
        print(
            f"{row['problem_options.bond_length']:6.2f} {row['reference_energy']:12.6f} "
            f"{row['energy']:12.6f} {row['exact_energy']:12.6f} "
            f"{row['error']:10.2e} {'yes' if row['memoized'] else 'no':>5}"
        )

    improvements = [run.summary["improvement_over_reference"] for run in report.runs]
    print(
        f"\n{report.num_completed}/{report.num_points} points completed, "
        f"{report.num_memoized} replayed from memo records."
    )
    print(
        f"CAFQA was never worse than Hartree-Fock "
        f"(best improvement {max(improvements):.6f} Ha)."
    )


if __name__ == "__main__":
    main()
