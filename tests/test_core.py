"""Tests for the CAFQA core: constraints, metrics, objective, search, VQE, and the pi/4 grid."""

import numpy as np
import pytest

import repro
from repro.circuits import EfficientSU2Ansatz
from repro.core import (
    CHEMICAL_ACCURACY,
    CafqaSearch,
    CliffordObjective,
    ParticleConstraint,
    VQERunner,
    constrained_hamiltonian,
    correlation_energy_recovered,
    energy_error,
    geometric_mean,
    quadratic_penalty,
    relative_accuracy,
)
from repro.circuits.clifford_points import hartree_fock_clifford_point, indices_to_angles
from repro.core.search import coordinate_descent
from repro.operators import PauliSum
from repro.optim import SPSA
from repro.problems import ising_chain
from repro.problems.base import reference_bits_of, reference_energy_of
from repro.statevector import Statevector


def _run(problem, max_evaluations, seed):
    """The best single-restart CAFQA result through the ``repro.run`` front door."""
    spec = repro.RunSpec(problem=problem, max_evaluations=max_evaluations, seed=seed)
    return repro.run(spec).best


class TestMetrics:
    def test_energy_error(self):
        assert energy_error(-1.0, -1.1) == pytest.approx(0.1)

    def test_chemical_accuracy(self):
        assert CHEMICAL_ACCURACY == pytest.approx(1.6e-3)

    def test_correlation_recovered_bounds(self):
        assert correlation_energy_recovered(-1.0, -1.0, -1.1) == pytest.approx(0.0)
        assert correlation_energy_recovered(-1.1, -1.0, -1.1) == pytest.approx(100.0)
        assert correlation_energy_recovered(-1.05, -1.0, -1.1) == pytest.approx(50.0)
        assert correlation_energy_recovered(-0.9, -1.0, -1.1) == 0.0

    def test_correlation_recovered_no_gap(self):
        assert correlation_energy_recovered(-1.0, -1.0, -1.0) == pytest.approx(100.0)

    def test_relative_accuracy(self):
        assert relative_accuracy(-1.09, -1.0, -1.1) == pytest.approx(10.0)

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, -1.0])


class TestConstraints:
    def test_quadratic_penalty_zero_at_target(self):
        number = PauliSum({"II": 1.0, "ZI": -0.5, "IZ": -0.5})  # JW number operator, 2 modes
        penalty = quadratic_penalty(number, target=1.0, weight=3.0)
        one_particle = Statevector.from_bitstring([1, 0])
        assert np.real(one_particle.expectation(penalty)) == pytest.approx(0.0)
        vacuum = Statevector.from_bitstring([0, 0])
        assert np.real(vacuum.expectation(penalty)) == pytest.approx(3.0)

    def test_constrained_hamiltonian_preserves_hf_energy(self, h2_problem):
        constrained = constrained_hamiltonian(h2_problem)
        hf_state = Statevector.from_bitstring(h2_problem.hf_bits)
        assert np.real(hf_state.expectation(constrained)) == pytest.approx(
            h2_problem.hf_energy, abs=1e-8
        )

    def test_constraint_penalizes_wrong_sector(self, h2_problem):
        constrained = constrained_hamiltonian(
            h2_problem, ParticleConstraint(num_alpha=1, num_beta=0, weight=10.0)
        )
        hf_state = Statevector.from_bitstring(h2_problem.hf_bits)
        assert np.real(hf_state.expectation(constrained)) > h2_problem.hf_energy

    def test_invalid_constraint(self):
        with pytest.raises(ValueError):
            ParticleConstraint(num_alpha=-1, num_beta=0)


class TestObjective:
    def test_hf_point_reproduces_hf_energy(self, h2_problem):
        ansatz = EfficientSU2Ansatz(h2_problem.num_qubits, reps=1)
        objective = CliffordObjective(h2_problem, ansatz)
        search = CafqaSearch(objective)
        hf_point = search.reference_indices()
        assert objective.energy(hf_point) == pytest.approx(h2_problem.hf_energy, abs=1e-8)
        # The constrained objective adds no penalty at the HF point.
        assert objective(hf_point) == pytest.approx(h2_problem.hf_energy, abs=1e-8)

    def test_all_points_respect_variational_bound(self, h2_problem):
        ansatz = EfficientSU2Ansatz(h2_problem.num_qubits, reps=1)
        objective = CliffordObjective(h2_problem, ansatz)
        rng = np.random.default_rng(0)
        for _ in range(25):
            point = tuple(rng.integers(0, 4, ansatz.num_parameters).tolist())
            assert objective.energy(point) >= h2_problem.exact_energy - 1e-9

    def test_qubit_mismatch_rejected(self, h2_problem):
        with pytest.raises(ValueError):
            CliffordObjective(h2_problem, EfficientSU2Ansatz(3, reps=1))

    def test_term_expectations_stabilizer_valued(self, h2_problem):
        ansatz = EfficientSU2Ansatz(h2_problem.num_qubits, reps=1)
        objective = CliffordObjective(h2_problem, ansatz)
        values = objective.term_expectations([0] * ansatz.num_parameters)
        assert set(values.values()) <= {-1, 0, 1}


class TestCafqaSearch:
    def test_h2_stretched_recovers_correlation(self, h2_stretched_problem):
        result = _run(h2_stretched_problem, max_evaluations=120, seed=0)
        assert result.energy <= result.hf_energy + 1e-9
        assert result.exact_energy <= result.energy + 1e-9
        recovered = correlation_energy_recovered(
            result.energy, result.hf_energy, result.exact_energy
        )
        assert recovered > 80.0

    def test_never_worse_than_hartree_fock(self, lih_problem):
        result = _run(lih_problem, max_evaluations=60, seed=1)
        assert result.energy <= result.hf_energy + 1e-9

    def test_circuit_is_clifford(self, h2_problem):
        result = _run(h2_problem, max_evaluations=40, seed=2)
        assert result.circuit.is_clifford()

    def test_result_describes_the_objective_problem(self):
        # Everything the result reports about the problem comes from the
        # objective the search was given: there is no second problem to
        # disagree with it.
        problem = ising_chain(num_sites=4, transverse_field=1.5)
        ansatz = EfficientSU2Ansatz(problem.num_qubits, reps=1)
        search = CafqaSearch(CliffordObjective(problem, ansatz), seed=0)
        result = search.run(max_evaluations=20)
        assert result.problem_name == problem.name
        assert result.hf_energy == reference_energy_of(problem)
        assert result.exact_energy == problem.exact_energy
        assert result.ansatz is ansatz
        assert search.reference_indices() == hartree_fock_clifford_point(
            ansatz, reference_bits_of(problem)
        )
        assert problem.exact_energy - 1e-9 <= result.energy <= result.hf_energy + 1e-9

    @pytest.mark.parametrize(
        "keyword",
        [
            "problem",
            "ansatz",
            "ansatz_reps",
            "constraint",
            "spin_z_target",
            "penalty_weight",
            "max_t_gates",
        ],
    )
    def test_objective_keywords_are_not_search_options(self, h2_problem, keyword):
        objective = CliffordObjective(
            h2_problem, EfficientSU2Ansatz(h2_problem.num_qubits, reps=1)
        )
        with pytest.raises(TypeError):
            CafqaSearch(objective, **{keyword: None})

    def test_search_respects_budget_plus_refinement(self, h2_problem):
        objective = CliffordObjective(h2_problem, EfficientSU2Ansatz(h2_problem.num_qubits, reps=1))
        search = CafqaSearch(objective, seed=3, local_refinement=False)
        result = search.run(max_evaluations=30)
        assert result.num_iterations <= 30

    def test_coordinate_descent_improves_or_keeps(self):
        def objective(point):
            return float(sum(point))

        best, value, observations = coordinate_descent(
            lambda points: [objective(p) for p in points], (3, 3, 3), cardinality=4
        )
        assert best == (0, 0, 0)
        assert value == 0.0
        assert all(obs.phase == "refine" for obs in observations)

    def test_invalid_budget(self, h2_problem):
        with pytest.raises(Exception):
            objective = CliffordObjective(h2_problem, EfficientSU2Ansatz(h2_problem.num_qubits, reps=1))
            CafqaSearch(objective, seed=0).run(max_evaluations=1)


class TestVQE:
    def test_cafqa_initialization_not_worse_than_hf(self, h2_stretched_problem):
        ansatz = EfficientSU2Ansatz(h2_stretched_problem.num_qubits, reps=1)
        search = CafqaSearch(CliffordObjective(h2_stretched_problem, ansatz), seed=0)
        cafqa = search.run(max_evaluations=100)
        runner = VQERunner(
            h2_stretched_problem, ansatz=search.ansatz, optimizer=SPSA(seed=0)
        )
        assert runner.energy(cafqa.best_angles) == pytest.approx(cafqa.energy, abs=1e-8)
        hf_energy = runner.energy(runner.hartree_fock_parameters())
        assert hf_energy == pytest.approx(h2_stretched_problem.hf_energy, abs=1e-8)

    def test_vqe_improves_from_hf(self, h2_stretched_problem):
        runner = VQERunner(h2_stretched_problem, optimizer=SPSA(seed=1))
        result = runner.run_from_hartree_fock(max_iterations=60)
        assert result.final_energy <= result.initial_energy + 1e-9

    def test_vqe_final_energy_bounded_by_exact(self, h2_problem):
        runner = VQERunner(h2_problem, optimizer=SPSA(seed=2))
        result = runner.run_from_hartree_fock(max_iterations=60)
        assert result.final_energy >= h2_problem.exact_energy - 1e-9

    def test_wrong_parameter_count_rejected(self, h2_problem):
        runner = VQERunner(h2_problem)
        with pytest.raises(Exception):
            runner.run([0.0], max_iterations=5)


class TestCliffordTSearch:
    """CAFQA+kT: the same search with ``max_t_gates`` (the pi/4 grid)."""

    def test_indices_to_angles(self):
        assert indices_to_angles([0, 1, 4], 8) == pytest.approx([0.0, np.pi / 4, np.pi])
        assert indices_to_angles([0, 1, 3]) == pytest.approx([0.0, np.pi / 2, 3 * np.pi / 2])

    def test_t_gates_improve_on_clifford_when_seeded(self, h2_problem):
        ansatz = EfficientSU2Ansatz(h2_problem.num_qubits, reps=1)
        clifford_search = CafqaSearch(CliffordObjective(h2_problem, ansatz), seed=0)
        clifford = clifford_search.run(max_evaluations=60)
        t_search = CafqaSearch(
            CliffordObjective(h2_problem, ansatz, max_t_gates=1),
            seed=0,
            seed_points=[[2 * i for i in clifford.best_indices]],
        )
        result = t_search.run(max_evaluations=80)
        assert result.energy <= clifford.energy + 1e-9
        assert sum(i % 2 for i in result.best_indices) <= 1
        assert result.best_angles == indices_to_angles(result.best_indices, 8)
        assert t_search.reference_indices() == [2 * i for i in clifford_search.reference_indices()]

    def test_respects_t_gate_budget(self, h2_problem):
        ansatz = EfficientSU2Ansatz(h2_problem.num_qubits, reps=1)
        search = CafqaSearch(CliffordObjective(h2_problem, ansatz, max_t_gates=2), seed=1)
        result = search.run(max_evaluations=60)
        assert sum(i % 2 for i in result.best_indices) <= 2
        assert all(0 <= i < 8 for o in result.search_result.observations for i in o.point)


class TestPipeline:
    def test_molecule_run_beats_hartree_fock(self, h2_stretched_problem):
        spec = repro.RunSpec(
            problem="H2", problem_options={"bond_length": 2.5}, max_evaluations=80, seed=0
        )
        report = repro.run(spec, problem=h2_stretched_problem)
        cafqa, hf, exact = report.energy, report.reference_energy, report.exact_energy
        assert hf == h2_stretched_problem.hf_energy
        assert cafqa <= hf + 1e-9
        assert correlation_energy_recovered(cafqa, hf, exact) >= 0.0
        assert relative_accuracy(cafqa, hf, exact) >= 1.0
