"""Problem registry, builders, and the every-workload contract suite.

The contract suite is the point of the problem abstraction: every registered
problem family — chemistry and non-chemistry alike — must run end-to-end
through the one front door (``repro.run``) against an
exact-diagonalization-validated reference, with the search never landing
above the problem's classical reference state.
"""

import json

import numpy as np
import pytest

import repro
from repro import problems
from repro.core import CafqaSearch, CliffordObjective, VQERunner
from repro.circuits import EfficientSU2Ansatz
from repro.exceptions import ReproError
from repro.operators import PauliSum
from repro.operators.fingerprints import determinant_energy, hamiltonian_fingerprint
from repro.problems import (
    HamiltonianProblem,
    ProblemSpec,
    best_cut_brute_force,
    ising_chain,
    ising_lattice,
    maxcut_problem,
    maxcut_ring,
    xxz_chain,
)
from repro.problems.base import reference_bits_of, reference_energy_of


def dense_ground_energy(hamiltonian: PauliSum) -> float:
    """Independent exact reference: dense diagonalization, no Lanczos."""
    return float(np.linalg.eigvalsh(hamiltonian.to_matrix())[0])


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_builtins_are_registered(self):
        names = problems.list_problems()
        for expected in ("H2", "LiH", "ising_chain", "ising_lattice", "xxz_chain",
                         "maxcut", "maxcut_ring"):
            assert expected in names

    def test_unknown_problem_raises(self):
        with pytest.raises(ReproError, match="unknown problem"):
            problems.get("no_such_problem")

    def test_register_rejects_duplicates_unless_overwritten(self):
        def factory(**_):
            return ising_chain(num_sites=2)

        problems.register("registry_test_problem", factory)
        try:
            with pytest.raises(ReproError, match="already registered"):
                problems.register("registry_test_problem", factory)
            problems.register("registry_test_problem", factory, overwrite=True)
            built = problems.get("registry_test_problem")
            assert isinstance(built, ProblemSpec)
        finally:
            problems.unregister("registry_test_problem")
        assert not problems.is_registered("registry_test_problem")

    def test_factory_must_return_a_problem_spec(self):
        problems.register("registry_bad_problem", lambda **_: object())
        try:
            with pytest.raises(ReproError, match="ProblemSpec"):
                problems.get("registry_bad_problem")
        finally:
            problems.unregister("registry_bad_problem")

    def test_register_as_decorator(self):
        @problems.register("registry_decorated_problem")
        def build(**_):
            return ising_chain(num_sites=2)

        try:
            assert problems.get("registry_decorated_problem").num_qubits == 2
        finally:
            problems.unregister("registry_decorated_problem")


# --------------------------------------------------------------------------- #
# builders vs exact diagonalization
# --------------------------------------------------------------------------- #
class TestIsing:
    def test_chain_exact_matches_dense_diagonalization(self):
        problem = ising_chain(num_sites=3, transverse_field=0.7, coupling=1.3)
        assert problem.exact_energy == pytest.approx(
            dense_ground_energy(problem.hamiltonian), abs=1e-9
        )

    def test_lattice_exact_matches_dense_diagonalization(self):
        problem = ising_lattice(rows=2, cols=2, transverse_field=1.1)
        assert problem.num_qubits == 4
        # 4 bonds on a 2x2 plaquette.
        assert sum(1 for t in problem.hamiltonian.terms() if t.label.count("Z") == 2) == 4
        assert problem.exact_energy == pytest.approx(
            dense_ground_energy(problem.hamiltonian), abs=1e-9
        )

    def test_classical_limit_reference_is_exact(self):
        # h = 0: the ferromagnetic product state is the true ground state.
        problem = ising_chain(num_sites=5, transverse_field=0.0, coupling=2.0)
        assert problem.reference_energy == pytest.approx(-2.0 * 4)
        assert problem.exact_energy == pytest.approx(problem.reference_energy)

    def test_periodic_chain_has_extra_bond(self):
        open_chain = ising_chain(num_sites=4, periodic=False)
        ring = ising_chain(num_sites=4, periodic=True)
        count = lambda p: sum(  # noqa: E731
            1 for t in p.hamiltonian.terms() if t.label.count("Z") == 2
        )
        assert count(ring) == count(open_chain) + 1

    def test_too_small_chain_rejected(self):
        with pytest.raises(ReproError):
            ising_chain(num_sites=1)


class TestXXZ:
    def test_exact_matches_dense_diagonalization(self):
        problem = xxz_chain(num_sites=4, coupling_xy=1.0, coupling_z=0.5)
        assert problem.exact_energy == pytest.approx(
            dense_ground_energy(problem.hamiltonian), abs=1e-9
        )

    def test_antiferromagnet_uses_neel_reference(self):
        problem = xxz_chain(num_sites=4)
        assert problem.reference_bits in ([0, 1, 0, 1], [1, 0, 1, 0])
        assert problem.reference_energy == pytest.approx(
            determinant_energy(problem.hamiltonian, problem.reference_bits)
        )

    def test_classical_limit_reference_is_exact(self):
        # Jxy = 0: a classical antiferromagnetic Ising chain; Néel is exact.
        problem = xxz_chain(num_sites=4, coupling_xy=0.0, coupling_z=1.0)
        assert problem.exact_energy == pytest.approx(problem.reference_energy)


class TestMaxCut:
    def test_ring_exact_energy_is_minus_max_cut(self):
        even = maxcut_ring(num_vertices=4)
        odd = maxcut_ring(num_vertices=5)
        assert even.exact_energy == pytest.approx(-4.0)  # full bipartition
        assert odd.exact_energy == pytest.approx(-4.0)  # one frustrated edge

    def test_exact_matches_dense_diagonalization(self):
        problem = maxcut_problem([(0, 1, 2.0), (1, 2, 1.0), (0, 2, 1.0), (2, 3, 0.5)])
        assert problem.exact_energy == pytest.approx(
            dense_ground_energy(problem.hamiltonian), abs=1e-9
        )

    def test_brute_force_cut_is_consistent(self):
        edges = [(0, 1), (1, 2), (2, 0)]
        weight, bits = best_cut_brute_force(3, edges)
        assert weight == pytest.approx(2.0)  # triangle: best cut is 2 of 3 edges
        cut = sum(1.0 for i, j in edges if bits[i] != bits[j])
        assert cut == pytest.approx(weight)

    def test_reference_is_the_empty_cut(self):
        problem = maxcut_ring(num_vertices=5)
        assert problem.reference_bits == [0] * 5
        assert problem.reference_energy == pytest.approx(0.0)

    def test_invalid_graphs_rejected(self):
        with pytest.raises(ReproError):
            maxcut_problem([])
        with pytest.raises(ReproError):
            maxcut_problem([(2, 2)])
        with pytest.raises(ReproError):
            maxcut_problem([(0, 1)], num_vertices=1)


# --------------------------------------------------------------------------- #
# protocol conformance and plumbing
# --------------------------------------------------------------------------- #
class TestProblemSpecProtocol:
    def test_generic_and_molecular_problems_conform(self, h2_problem):
        assert isinstance(ising_chain(num_sites=3), ProblemSpec)
        assert isinstance(h2_problem, ProblemSpec)

    def test_molecular_reference_aliases_hartree_fock(self, h2_problem):
        assert h2_problem.reference_energy == h2_problem.hf_energy
        assert h2_problem.reference_bits == h2_problem.hf_bits
        assert reference_energy_of(h2_problem) == h2_problem.hf_energy
        assert reference_bits_of(h2_problem) == [int(b) for b in h2_problem.hf_bits]

    def test_fingerprints_are_stable_and_parameter_sensitive(self):
        first = ising_chain(num_sites=4, transverse_field=1.5)
        second = ising_chain(num_sites=4, transverse_field=1.5)
        other = ising_chain(num_sites=4, transverse_field=1.0)
        assert first.fingerprint() == second.fingerprint()
        assert first.fingerprint() != other.fingerprint()
        assert first.fingerprint() == hamiltonian_fingerprint(first.hamiltonian)

    def test_hamiltonian_problem_defaults_and_validation(self):
        hamiltonian = PauliSum({"ZZ": -1.0, "XI": -0.5})
        problem = HamiltonianProblem(name="bare", hamiltonian=hamiltonian)
        assert problem.reference_bits == [0, 0]
        assert problem.reference_energy == pytest.approx(-1.0)
        assert problem.default_constraint() is None
        with pytest.raises(ReproError):
            HamiltonianProblem(name="bad", hamiltonian=hamiltonian, reference_bits=[0])

    def test_search_stack_accepts_generic_problems(self):
        problem = xxz_chain(num_sites=3)
        ansatz = EfficientSU2Ansatz(problem.num_qubits, reps=1)
        objective = CliffordObjective(problem, ansatz)
        reference_point = CafqaSearch(objective, seed=0).reference_indices()
        # The reference Clifford point must prepare the reference bitstring:
        # its plain energy is exactly the diagonal determinant energy.
        assert objective.energy(reference_point) == pytest.approx(
            problem.reference_energy, abs=1e-12
        )

    def test_vqe_runner_accepts_generic_problems(self):
        problem = ising_chain(num_sites=3, transverse_field=1.5)
        runner = VQERunner(problem, ansatz=EfficientSU2Ansatz(3, reps=1))
        assert runner.energy(runner.reference_parameters()) == pytest.approx(
            problem.reference_energy, abs=1e-9
        )


# --------------------------------------------------------------------------- #
# the contract suite: every family end-to-end through repro.run
# --------------------------------------------------------------------------- #
CONTRACT_CASES = [
    pytest.param(
        "ising_chain", {"num_sites": 4, "transverse_field": 1.5}, 120, id="ising"
    ),
    pytest.param("xxz_chain", {"num_sites": 4}, 120, id="xxz"),
    pytest.param("maxcut_ring", {"num_vertices": 5}, 60, id="maxcut"),
    pytest.param("H2", {"bond_length": 2.5}, 60, id="h2"),
]


class TestProblemContract:
    @pytest.mark.parametrize("name,options,budget", CONTRACT_CASES)
    def test_end_to_end_through_front_door(self, name, options, budget):
        problem = problems.get(name, **options)
        assert isinstance(problem, ProblemSpec)
        assert problem.exact_energy is not None
        if not hasattr(problem, "hf_energy"):
            # Non-chemistry workloads: re-validate the builder's Lanczos /
            # brute-force exact energy against dense diagonalization.
            assert problem.exact_energy == pytest.approx(
                dense_ground_energy(problem.hamiltonian), abs=1e-8
            )
        reference = reference_energy_of(problem)
        assert problem.exact_energy <= reference + 1e-9

        spec = repro.RunSpec(
            problem=name,
            problem_options=options,
            max_evaluations=budget,
            num_seeds=1,
            seed=0,
        )
        report = repro.run(spec, problem=problem)
        # Variational window: never above the classical reference (it is a
        # seed point), never below the exact ground state.
        assert report.energy <= reference + 1e-9
        assert report.energy >= problem.exact_energy - 1e-9
        assert report.improvement_over_reference > 1e-6
        json.dumps(report.to_dict())  # the summary row must be JSON-able

    def test_maxcut_search_finds_the_exact_cut(self):
        report = repro.run(
            repro.RunSpec(
                problem="maxcut_ring",
                problem_options={"num_vertices": 5},
                max_evaluations=60,
                seed=0,
            )
        )
        assert report.energy == pytest.approx(report.exact_energy, abs=1e-12)
        assert report.error == pytest.approx(0.0, abs=1e-12)
