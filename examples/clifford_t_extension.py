#!/usr/bin/env python3
"""Beyond Clifford: adding a handful of T gates to the CAFQA ansatz (Fig. 16).

At intermediate bond lengths the best Clifford (stabilizer) state can sit
noticeably above the exact ground state.  Allowing a small number of T gates
(angles at odd multiples of pi/4) extends the reachable states while the
circuit remains classically simulable: the search option ``max_t_gates``
puts the angles on the pi/4 grid, and each point's energy is computed
exactly on the stabilizer kernels in the Heisenberg picture.

Run:  python examples/clifford_t_extension.py [bond_length] [max_t_gates]
"""

import sys

import repro
from repro.chemistry import make_problem
from repro.core import correlation_energy_recovered


def main() -> None:
    bond_length = float(sys.argv[1]) if len(sys.argv) > 1 else 1.5
    max_t_gates = int(sys.argv[2]) if len(sys.argv) > 2 else 1

    problem = make_problem("H2", bond_length)
    print(f"H2 at {bond_length:.2f} A   (HF {problem.hf_energy:.6f} Ha, exact {problem.exact_energy:.6f} Ha)")

    clifford = repro.run(repro.RunSpec(problem=problem, max_evaluations=120, seed=0)).best
    clifford_corr = correlation_energy_recovered(
        clifford.energy, problem.hf_energy, problem.exact_energy
    )
    print(f"Clifford-only CAFQA : {clifford.energy:.6f} Ha  ({clifford_corr:.1f}% correlation recovered)")

    # The same search on the pi/4 grid, started from the Clifford solution
    # (doubled indices are the same angles on that grid).
    t_spec = repro.RunSpec(
        problem=problem,
        max_evaluations=200,
        seed=0,
        search_options={
            "max_t_gates": max_t_gates,
            "seed_points": [[2 * index for index in clifford.best_indices]],
        },
    )
    clifford_t = repro.run(t_spec).best
    num_t_gates = sum(index % 2 for index in clifford_t.best_indices)
    best_energy = min(clifford_t.energy, clifford.energy)
    t_corr = correlation_energy_recovered(best_energy, problem.hf_energy, problem.exact_energy)
    print(
        f"CAFQA + <= {max_t_gates}T       : {best_energy:.6f} Ha  "
        f"({t_corr:.1f}% correlation recovered, {num_t_gates} T gate(s) used)"
    )


if __name__ == "__main__":
    main()
