"""Refinement neighbourhoods: evaluation without re-simulating the circuit.

``CliffordObjective.evaluate_batch`` prices points that differ in a single
parameter slot from a cached prefix state and a Hamiltonian conjugated back
through the rest of the program.  These tests hold it to the full
simulation bit for bit:

* ``coordinate_descent`` records exactly the observations of the previous
  implementation (kept in ``tests/reference_search.py``);
* neighbourhood values are ``np.array_equal`` to one-point evaluations at
  the packed-word boundaries, with Pauli and overlap (deflation) penalties;
* the inverse-gate table behind the backward pass agrees with forward
  simulation and with the statevector backend on every op kind.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.circuits import QuantumCircuit
from repro.circuits.ansatz import EfficientSU2Ansatz
from repro.circuits.clifford_points import CliffordGateProgram
from repro.circuits.parameters import Parameter
from repro.core.constraints import DeflationConstraint, ParticleConstraint
from repro.core.objective import CliffordObjective
from repro.core.search import CafqaSearch, coordinate_descent
from repro.operators import PauliSum, random_pauli
from repro.operators.commuting import label_bit_matrix
from repro.problems import registry
from repro.stabilizer import BatchedCliffordTableau
from repro.stabilizer.expectation import PauliSumEvaluator
from repro.stabilizer.symplectic import pack_bits, stabilizer_expectations
from repro.statevector import StatevectorSimulator
from repro.telemetry.report import aggregate
from tests import reference_search


def _observations(result):
    point, value, observations = result
    return point, value, [(o.point, o.value, o.iteration, o.phase) for o in observations]


def _neighbourhood(base, dimension):
    points = []
    for value in range(4):
        point = list(base)
        point[dimension] = value
        points.append(tuple(point))
    return points


@pytest.fixture(scope="module")
def deflated_ising():
    problem = registry.get("ising_chain", num_sites=6)
    num_parameters = EfficientSU2Ansatz(6, reps=1).num_parameters
    constraint = DeflationConstraint(
        points=(tuple([0] * num_parameters), tuple([2, 1] * (num_parameters // 2))),
        weight=3.0,
    )
    return problem, constraint


# --------------------------------------------------------------------------- #
# differential oracle: the previous coordinate_descent
# --------------------------------------------------------------------------- #
class TestAgainstPreviousCoordinateDescent:
    def _assert_same(self, problem, starts, max_sweeps=2, **objective_options):
        ansatz = EfficientSU2Ansatz(problem.num_qubits, reps=1)
        current = CliffordObjective(problem, ansatz, **objective_options)
        previous = CliffordObjective(problem, ansatz, **objective_options)
        for start in starts:
            expected = reference_search.coordinate_descent(
                previous, start, cardinality=4, max_sweeps=max_sweeps, start_iteration=7
            )
            actual = coordinate_descent(
                current.evaluate_batch,
                start,
                cardinality=4,
                max_sweeps=max_sweeps,
                start_iteration=7,
            )
            assert _observations(actual) == _observations(expected)

    @staticmethod
    def _random_starts(num_parameters, count, seed):
        rng = np.random.default_rng(seed)
        return [
            tuple(int(v) for v in rng.integers(0, 4, num_parameters)) for _ in range(count)
        ]

    def test_h2(self, h2_problem):
        starts = self._random_starts(8, 4, seed=0)
        self._assert_same(h2_problem, starts, max_sweeps=3, penalty_weight=1.0)

    def test_lih(self, lih_problem):
        starts = self._random_starts(16, 3, seed=1)
        self._assert_same(lih_problem, starts, max_sweeps=3, penalty_weight=1.0)

    def test_deflated_ising(self, deflated_ising):
        problem, constraint = deflated_ising
        starts = self._random_starts(24, 3, seed=2) + [constraint.points[0]]
        self._assert_same(problem, starts, max_sweeps=3, constraint=constraint)

    def test_xxz_chain_50(self):
        problem = registry.get("xxz_chain", num_sites=50)
        # The Neel state (ry(pi) on odd sites in the last ry layer): both
        # sweeps improve part-way through, so the previous implementation
        # runs its one-point fallback and the neighbourhood path advances its
        # cursor past improvements and rebuilds its backward snapshots.
        neel = [0] * 100 + [2 * (site % 2) for site in range(50)] + [0] * 50
        self._assert_same(problem, [tuple(neel)], max_sweeps=2)


# --------------------------------------------------------------------------- #
# neighbourhood values == one-point values
# --------------------------------------------------------------------------- #
def _assert_neighbourhoods_match(problem, dimensions, seed=0, **objective_options):
    ansatz = EfficientSU2Ansatz(problem.num_qubits, reps=1)
    neighbourhood = CliffordObjective(problem, ansatz, **objective_options)
    single = CliffordObjective(problem, ansatz, **objective_options)
    rng = np.random.default_rng(seed)
    base = [int(v) for v in rng.integers(0, 4, ansatz.num_parameters)]
    for dimension in dimensions:
        # Move one other slot between calls so the forward cursor and the
        # backward snapshots are both invalidated some of the time.
        base[int(rng.integers(0, ansatz.num_parameters))] = int(rng.integers(0, 4))
        points = _neighbourhood(base, dimension)
        values = neighbourhood.evaluate_batch(points)
        expected = np.array([single.evaluate_batch([point])[0] for point in points])
        assert np.array_equal(values, expected)


class TestNeighbourhoodValues:
    @pytest.mark.parametrize("num_sites", [4, 64, 65, 128, 129])
    def test_packed_word_boundaries(self, num_sites):
        problem = registry.get("xxz_chain", num_sites=num_sites)
        last = 4 * num_sites - 1
        dimensions = [0, 1, last // 2, last - 1, last]
        _assert_neighbourhoods_match(problem, dimensions, seed=num_sites)

    def test_pauli_penalty(self, h2_problem):
        constraint = ParticleConstraint(
            h2_problem.num_alpha, h2_problem.num_beta, weight=1.0
        )
        _assert_neighbourhoods_match(h2_problem, range(8), constraint=constraint)

    def test_deflation_penalty(self, deflated_ising):
        problem, constraint = deflated_ising
        _assert_neighbourhoods_match(problem, [0, 5, 11, 17, 23, 2], constraint=constraint)

    def test_any_call_order(self, lih_problem):
        """Descending, repeated and scattered slots stay exact (only speed varies)."""
        _assert_neighbourhoods_match(
            lih_problem, [15, 3, 3, 9, 0, 15, 7], seed=5, penalty_weight=1.0
        )

    def test_counts_neighbourhood_states(self, h2_problem, tmp_path):
        ansatz = EfficientSU2Ansatz(h2_problem.num_qubits, reps=1)
        objective = CliffordObjective(h2_problem, ansatz, penalty_weight=1.0)
        telemetry.configure(tmp_path)
        try:
            objective.evaluate_batch(_neighbourhood([0] * ansatz.num_parameters, 2))
        finally:
            telemetry.shutdown()
        assert aggregate(tmp_path)["counters"]["objective.neighbourhood.states"] == 4
        assert objective.num_evaluations == 4


# --------------------------------------------------------------------------- #
# inverse gates: backward conjugation == forward simulation == statevector
# --------------------------------------------------------------------------- #
_SINGLE = ["h", "s", "sdg", "sx", "sxdg", "x", "y", "z"]
_PAIR = ["cx", "cz", "swap"]
_ROTATIONS = ["rx", "ry", "rz"]


def _every_op_circuit(num_qubits, rng):
    """A random circuit holding every single-, two-qubit and rotation op kind."""
    kinds = _SINGLE + _PAIR + [f"fixed-{name}" for name in _ROTATIONS] + _ROTATIONS
    kinds += [str(kind) for kind in rng.choice(kinds, size=12)]
    rng.shuffle(kinds)
    circuit = QuantumCircuit(num_qubits)
    for position, kind in enumerate(kinds):
        qubit = int(rng.integers(0, num_qubits))
        if kind in _SINGLE:
            circuit._append_named(kind, (qubit,))
        elif kind in _PAIR:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit._append_named(kind, (int(a), int(b)))
        elif kind.startswith("fixed-"):
            angle = float(rng.integers(1, 4)) * np.pi / 2.0
            circuit._append_named(kind[len("fixed-"):], (qubit,), angle)
        else:
            circuit._append_named(kind, (qubit,), Parameter(f"theta{position}"))
    return circuit


@pytest.mark.parametrize("seed", range(6))
def test_inverse_program_matches_forward_and_statevector(seed):
    rng = np.random.default_rng(seed)
    num_qubits = int(rng.integers(2, 6))
    circuit = _every_op_circuit(num_qubits, rng)
    program = CliffordGateProgram.compile(circuit)
    assert {op.name for op in program.ops} >= set(_SINGLE + _PAIR + _ROTATIONS)
    assert any(op.fixed_index is not None for op in program.ops)
    indices = rng.integers(0, 4, (1, program.num_parameters))
    labels = {random_pauli(num_qubits, rng).label for _ in range(10)}
    labels = sorted(labels - {"I" * num_qubits})
    operator = PauliSum({label: float(rng.normal()) for label in labels})
    evaluator = PauliSumEvaluator(operator)
    x_bits, z_bits = label_bit_matrix(evaluator.labels, num_qubits)

    full = BatchedCliffordTableau.from_program(program, indices)
    forward = evaluator.term_expectations_batch(full)[0]
    bound = circuit.bind([float(k) * np.pi / 2.0 for k in indices[0]])
    state = StatevectorSimulator().run(bound)
    exact = [
        np.real(state.expectation(PauliSum({label: 1.0}))) for label in evaluator.labels
    ]
    assert np.allclose(forward, exact, atol=1e-9)

    for split in range(program.num_ops + 1):
        prefix = BatchedCliffordTableau(1, num_qubits)
        prefix.apply_program(program, indices, 0, split)
        rows = BatchedCliffordTableau._from_arrays(
            pack_bits(x_bits)[None],
            pack_bits(z_bits)[None],
            np.zeros((1, len(labels)), dtype=bool),
            num_qubits,
        )
        rows.apply_program(program, indices, split, None, inverse=True)
        view = rows.symplectic_view()
        stab, destab = prefix.stabilizer_block(), prefix.destabilizer_block()
        values = stabilizer_expectations(
            stab.x, stab.z, stab.r, destab.x, destab.z, view.x[0], view.z[0]
        )[0]
        assert np.array_equal(np.where(view.r[0], -values, values), forward)
        assert np.array_equal(
            evaluator.conjugated_expectation_batch(prefix, view.x[0], view.z[0], view.r[0]),
            evaluator.expectation_batch(full),
        )


# --------------------------------------------------------------------------- #
# refinement cost bound
# --------------------------------------------------------------------------- #
class TestRefinementBound:
    def test_pre_improvement_incumbent_is_retried(self):
        """One dimension can record ``cardinality`` observations, not one fewer."""
        values = {0: 0.0, 1: 1.0, 2: 0.5, 3: 1.0}
        _, value, observations = coordinate_descent(
            lambda points: [values[p[0]] for p in points], (2,), cardinality=4, max_sweeps=1
        )
        assert value == 0.0
        assert [o.point for o in observations] == [(0,), (1,), (2,), (3,)]

    def test_observations_per_sweep_bounded(self, h2_problem):
        ansatz = EfficientSU2Ansatz(h2_problem.num_qubits, reps=1)
        objective = CliffordObjective(h2_problem, ansatz, penalty_weight=1.0)
        rng = np.random.default_rng(9)
        for _ in range(6):
            start = tuple(int(v) for v in rng.integers(0, 4, ansatz.num_parameters))
            _, _, observations = coordinate_descent(
                objective.evaluate_batch, start, cardinality=4, max_sweeps=1
            )
            assert len(observations) <= 4 * ansatz.num_parameters

    def test_search_bounded_by_budget_plus_refinement(self, h2_problem):
        # On the pi/4 grid (max_t_gates >= 1) a sweep tries 8 values per slot:
        # one sweep there records more than 4 * num_parameters observations.
        for max_t_gates, sweeps in ((0, 2), (1, 1)):
            objective = CliffordObjective(
                h2_problem,
                EfficientSU2Ansatz(h2_problem.num_qubits, reps=1),
                max_t_gates=max_t_gates,
            )
            search = CafqaSearch(objective, seed=0, refinement_sweeps=sweeps)
            result = search.run(max_evaluations=30)
            cardinality = search.objective.cardinality
            refinement = sweeps * cardinality * search.ansatz.num_parameters
            assert result.num_iterations <= 30 + refinement
        assert result.num_iterations > 30 + sweeps * 4 * search.ansatz.num_parameters
