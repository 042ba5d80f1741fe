"""The pi/4 grid (CAFQA+kT) on the stabilizer kernels, against its dense oracle.

``CliffordObjective(max_t_gates=k)`` prices points with odd (pi/4-turn)
indices in the Heisenberg picture.  These tests hold it to the branch
expansion simulator kept in ``tests/cliffordt_oracle.py``:

* random points at n = 2..8 with k <= 4 agree with the oracle to 1e-12
  relative, with and without Pauli penalty terms;
* points with no odd index equal the Clifford objective at ``index // 2``
  bit for bit, pointwise, batched and as refinement neighbourhoods;
* the one-qubit row lookup of a pi/4 turn matches Pauli algebra at the
  packed-word boundaries, and T slots that commute with ``H`` at n = 64/65
  and 128/129 leave the Clifford energy unchanged;
* cache fingerprints keep the grids and T budgets apart.
"""

import numpy as np
import pytest

import repro
from repro.circuits import EfficientSU2Ansatz, Gate, QuantumCircuit
from repro.circuits.clifford_points import indices_to_angles
from repro.core.constraints import DeflationConstraint, OperatorPenalty
from repro.core.objective import INFEASIBLE_PENALTY, CliffordObjective, _split_on_pi4_turn
from repro.core.evalcache import CachedObjective, EvaluationCacheBackend
from repro.exceptions import CircuitError
from repro.operators import Pauli, PauliSum, random_pauli
from repro.operators.commuting import label_bit_matrix
from repro.operators.fingerprints import objective_fingerprint
from repro.problems import HamiltonianProblem, registry
from repro.stabilizer.symplectic import pack_bits
from repro.statevector import StatevectorSimulator
from tests.cliffordt_oracle import CliffordTSimulator, count_non_clifford_gates, expand_gate
from tests.test_backend_contract import random_hamiltonian


class TestDecomposition:
    def test_clifford_gate_single_branch(self):
        branches = expand_gate(Gate("h", (0,)))
        assert len(branches) == 1
        assert branches[0].coefficient == pytest.approx(1.0)

    @pytest.mark.parametrize("name", ["t", "tdg"])
    def test_t_gate_two_branches_reconstruct_matrix(self, name):
        branches = expand_gate(Gate(name, (0,)))
        assert len(branches) == 2
        identity = np.eye(2, dtype=complex)
        z_matrix = np.diag([1.0, -1.0]).astype(complex)
        reconstructed = np.zeros((2, 2), dtype=complex)
        for branch in branches:
            term = identity.copy()
            for gate in branch.gates:
                term = gate.matrix() @ term
            reconstructed += branch.coefficient * term
        np.testing.assert_allclose(reconstructed, Gate(name, (0,)).matrix(), atol=1e-12)

    @pytest.mark.parametrize("name,theta", [("rx", 0.4), ("ry", 1.1), ("rz", 2.3)])
    def test_rotation_branches_reconstruct_matrix(self, name, theta):
        branches = expand_gate(Gate(name, (0,), theta))
        reconstructed = np.zeros((2, 2), dtype=complex)
        for branch in branches:
            term = np.eye(2, dtype=complex)
            for gate in branch.gates:
                term = gate.matrix() @ term
            reconstructed += branch.coefficient * term
        np.testing.assert_allclose(reconstructed, Gate(name, (0,), theta).matrix(), atol=1e-12)

    def test_count_non_clifford(self):
        circuit = QuantumCircuit(2).h(0).t(0).cx(0, 1).rz(np.pi / 4, 1).rz(np.pi, 0)
        assert count_non_clifford_gates(circuit.gates) == 2


class TestCliffordTSimulator:
    """The oracle itself agrees with the dense statevector simulator."""

    def test_matches_statevector_on_clifford_t_circuits(self):
        rng = np.random.default_rng(0)
        simulator = CliffordTSimulator()
        reference = StatevectorSimulator()
        for _ in range(8):
            circuit = QuantumCircuit(3)
            for _ in range(12):
                choice = rng.integers(0, 4)
                qubit = int(rng.integers(0, 3))
                if choice == 0:
                    circuit.h(qubit)
                elif choice == 1:
                    other = (qubit + 1) % 3
                    circuit.cx(qubit, other)
                elif choice == 2:
                    circuit.t(qubit)
                else:
                    circuit.rz(float(rng.integers(0, 4)) * np.pi / 2, qubit)
            hamiltonian = PauliSum({"XXI": 0.5, "ZZZ": 1.0, "IYX": -0.3, "ZII": 0.7})
            expected = reference.expectation(circuit, hamiltonian)
            assert simulator.expectation(circuit, hamiltonian) == pytest.approx(expected, abs=1e-9)

    def test_branch_count(self):
        circuit = QuantumCircuit(2).t(0).t(1).h(0)
        assert CliffordTSimulator().num_branches(circuit) == 4

    def test_pi4_rotation_matches_statevector(self):
        circuit = QuantumCircuit(2).ry(np.pi / 4, 0).cx(0, 1).rz(3 * np.pi / 4, 1)
        hamiltonian = PauliSum({"XX": 1.0, "ZZ": 0.5})
        expected = StatevectorSimulator().expectation(circuit, hamiltonian)
        assert CliffordTSimulator().expectation(circuit, hamiltonian) == pytest.approx(
            expected, abs=1e-9
        )

    def test_pure_clifford_circuit_single_branch(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        simulator = CliffordTSimulator()
        assert simulator.num_branches(circuit) == 1
        assert simulator.expectation(circuit, PauliSum({"XX": 1.0})) == pytest.approx(1.0)


# --------------------------------------------------------------------------- #
# the pi/4 grid on the stabilizer kernels
# --------------------------------------------------------------------------- #
def _pi4_point(num_parameters, num_turns, rng):
    """A random pi/4-grid point with exactly ``num_turns`` odd indices."""
    point = [2 * int(v) for v in rng.integers(0, 4, size=num_parameters)]
    for slot in rng.choice(num_parameters, size=num_turns, replace=False):
        point[slot] += 1
    return point


_BLOCKS = (("ry", "rz"), ("rx", "ry", "rz"), ("rx", "rz"))


class TestPi4Grid:
    @pytest.mark.parametrize("num_qubits", range(2, 9))
    @pytest.mark.parametrize("penalized", [False, True])
    def test_matches_branch_oracle(self, num_qubits, penalized):
        rng = np.random.default_rng(100 * num_qubits + penalized)
        problem = HamiltonianProblem(
            name="random", hamiltonian=random_hamiltonian(num_qubits, 12, rng)
        )
        constraint = None
        if penalized:
            sector = PauliSum({random_pauli(num_qubits, rng).label: 1.0})
            constraint = OperatorPenalty(sector, target=0.5, weight=2.0)
        oracle = CliffordTSimulator()
        for trial in range(3):
            blocks = _BLOCKS[trial % len(_BLOCKS)]
            ansatz = EfficientSU2Ansatz(num_qubits, reps=1, rotation_blocks=blocks)
            max_t_gates = int(rng.integers(1, 5))
            objective = CliffordObjective(
                problem, ansatz, constraint=constraint, max_t_gates=max_t_gates
            )
            point = _pi4_point(ansatz.num_parameters, max_t_gates, rng)
            circuit = ansatz.bind(indices_to_angles(point, 8))
            for value, operator in (
                (objective(point), objective.operator),
                (objective.energy(point), problem.hamiltonian),
            ):
                expected = oracle.expectation(circuit, operator)
                assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))
            assert objective.evaluate_batch([point])[0] == objective(point)

    @pytest.mark.parametrize("problem_name,options", [
        ("H2", None),
        ("xxz_chain", {"num_sites": 8}),
        ("xxz_chain", {"num_sites": 50}),
    ])
    def test_even_points_equal_the_clifford_objective(
        self, problem_name, options, h2_problem
    ):
        problem = h2_problem if options is None else registry.get(problem_name, **options)
        ansatz = EfficientSU2Ansatz(problem.num_qubits, reps=1)
        clifford = CliffordObjective(problem, ansatz)
        pi4 = CliffordObjective(problem, ansatz, max_t_gates=2)
        rng = np.random.default_rng(7)
        points = [list(p) for p in rng.integers(0, 4, size=(6, ansatz.num_parameters))]
        doubled = [[2 * v for v in point] for point in points]
        assert np.array_equal(pi4.evaluate_batch(doubled), clifford.evaluate_batch(points))
        assert np.array_equal(pi4.energy_batch(doubled), clifford.energy_batch(points))
        for point, even in zip(points[:2], doubled[:2]):
            assert pi4(even) == clifford(point)
            assert pi4.energy(even) == clifford.energy(point)
        # A refinement neighbourhood: one slot varies over its even values.
        slot = ansatz.num_parameters // 2
        neighbourhood = []
        for value in range(4):
            point = list(points[0])
            point[slot] = value
            neighbourhood.append(point)
        assert np.array_equal(
            pi4.evaluate_batch([[2 * v for v in p] for p in neighbourhood]),
            clifford.evaluate_batch(neighbourhood),
        )

    def test_over_budget_points_get_the_penalty(self, h2_problem):
        ansatz = EfficientSU2Ansatz(2, reps=1)
        objective = CliffordObjective(h2_problem, ansatz, max_t_gates=1)
        point = [0] * ansatz.num_parameters
        point[0], point[3], point[5] = 1, 3, 5
        assert objective(point) == INFEASIBLE_PENALTY * 3
        assert objective.evaluate_batch([point])[0] == INFEASIBLE_PENALTY * 3
        # The plain energy of the same point is still computed exactly.
        circuit = ansatz.bind(indices_to_angles(point, 8))
        expected = CliffordTSimulator().expectation(circuit, h2_problem.hamiltonian)
        assert objective.energy(point) == pytest.approx(expected, abs=1e-12)
        with pytest.raises(CircuitError):
            objective([8] + [0] * (ansatz.num_parameters - 1))

    @pytest.mark.parametrize("num_qubits", [64, 65, 128, 129])
    @pytest.mark.parametrize("name,kind", [("rx", "X"), ("ry", "Y"), ("rz", "Z")])
    def test_turn_lookup_matches_pauli_algebra(self, num_qubits, name, kind):
        rng = np.random.default_rng(num_qubits)
        labels = [random_pauli(num_qubits, rng).label for _ in range(48)]
        x_bits, z_bits = label_bit_matrix(labels, num_qubits)
        signs = rng.random(len(labels)) < 0.5
        weights = rng.normal(size=len(labels))
        for qubit in (63, 64, 127, 128):
            if qubit >= num_qubits:
                continue
            axis = Pauli.single(num_qubits, qubit, kind)
            x, z, r, w = _split_on_pi4_turn(
                pack_bits(x_bits), pack_bits(z_bits), signs, weights, name, qubit
            )
            added = len(labels)
            for row, label in enumerate(labels):
                product = Pauli(label) @ axis
                if product.phase in (1, -1):  # commutes: kept as it is
                    assert w[row] == weights[row]
                    continue
                assert w[row] == pytest.approx(weights[row] * np.sqrt(0.5))
                # -i QP is Hermitian: its phase is real.
                new = -1j * product.phase
                expected_x, expected_z = label_bit_matrix([product.label], num_qubits)
                assert np.array_equal(x[added], pack_bits(expected_x)[0])
                assert np.array_equal(z[added], pack_bits(expected_z)[0])
                assert r[added] == (signs[row] ^ (new.real < 0))
                assert w[added] == w[row]
                added += 1
            assert added == len(x)

    @pytest.mark.parametrize("num_qubits", [64, 65, 128, 129])
    def test_commuting_turns_at_word_boundaries(self, num_qubits):
        """T slots on qubits 63/64/127/128 whose axis commutes with ``H``.

        The turns sit in the last rotation block (rz), so the rows they see
        are ``H`` itself; ``H`` holds only I/Z on those qubits (X and Y on
        their neighbours), so each turn leaves ``H`` unchanged and the
        energy must equal the Clifford point with the turns removed.
        """
        rng = np.random.default_rng(num_qubits)
        turn_qubits = [q for q in (63, 64, 127, 128) if q < num_qubits]
        terms = {}
        while len(terms) < 40:
            chars = list(random_pauli(num_qubits, rng).label)
            for qubit in turn_qubits:
                chars[num_qubits - 1 - qubit] = "IZ"[int(rng.integers(2))]
            for qubit in turn_qubits:
                for neighbour in (qubit - 1, qubit + 1):
                    if 0 <= neighbour < num_qubits and neighbour not in turn_qubits:
                        chars[num_qubits - 1 - neighbour] = "XY"[int(rng.integers(2))]
            terms.setdefault("".join(chars), float(rng.normal()))
        problem = HamiltonianProblem(name="boundary", hamiltonian=PauliSum(terms))
        ansatz = EfficientSU2Ansatz(num_qubits, reps=1)
        clifford = CliffordObjective(problem, ansatz)
        pi4 = CliffordObjective(problem, ansatz, max_t_gates=len(turn_qubits))
        point = [int(v) for v in rng.integers(0, 4, size=ansatz.num_parameters)]
        last_rz = ansatz.num_parameters - num_qubits
        turned = [2 * v for v in point]
        for qubit in turn_qubits:
            turned[last_rz + qubit] += 1
        value = pi4.energy(turned)
        expected = clifford.energy(point)
        assert value == pytest.approx(expected, abs=1e-9 * max(1.0, abs(expected)))

    def test_fingerprints_keep_grids_and_budgets_apart(self):
        problem = registry.get("ising_chain", num_sites=4)
        ansatz = EfficientSU2Ansatz(4, reps=1)
        clifford = CliffordObjective(problem, ansatz)
        one, two = (CliffordObjective(problem, ansatz, max_t_gates=k) for k in (1, 2))
        # The Clifford grid keeps its keys, so existing caches still replay.
        assert objective_fingerprint(clifford) == "1453e366523bf723-54144b7c145c1879"
        assert len({objective_fingerprint(o) for o in (clifford, one, two)}) == 3
        # Equal keys on the two grids are different states and never share values.
        cache = EvaluationCacheBackend()
        point = [2] * ansatz.num_parameters
        value = CachedObjective(clifford, cache)(point)
        pi4_value = CachedObjective(one, cache)(point)
        assert pi4_value == clifford([1] * ansatz.num_parameters) != value

    def test_deflation_cannot_mix_grids(self, h2_problem):
        ansatz = EfficientSU2Ansatz(2, reps=1)
        deflation = DeflationConstraint(points=(tuple([0] * ansatz.num_parameters),))
        with pytest.raises(ValueError, match="max_t_gates"):
            CliffordObjective(h2_problem, ansatz, constraint=deflation, max_t_gates=1)

    def test_xxz_chain_50_runs_through_repro_run(self, tmp_path):
        """CAFQA+2T at 50 qubits, past any dense simulator, with a warm-cache replay."""
        num_parameters = EfficientSU2Ansatz(50, reps=1).num_parameters
        # Random pi/4 points at d = 200 almost all exceed the T budget, so a
        # seed with two turns makes sure the small run prices some.
        two_turns = [1, 3] + [0] * (num_parameters - 2)
        spec = repro.RunSpec(
            problem="xxz_chain",
            problem_options={"num_sites": 50},
            max_evaluations=24,
            cache_dir=str(tmp_path),
            search_options={
                "max_t_gates": 2,
                "local_refinement": False,
                "seed_points": [two_turns],
            },
        )
        report = repro.run(spec)
        best = report.result.best
        assert best.energy <= report.problem.reference_energy + 1e-9
        assert sum(v % 2 for v in best.best_indices) <= 2
        assert best.best_angles == indices_to_angles(best.best_indices, 8)
        priced = [
            o.value
            for o in best.search_result.observations
            if 0 < sum(v % 2 for v in o.point) <= 2
        ]
        assert priced and all(abs(value) < INFEASIBLE_PENALTY for value in priced)
        replay = repro.run(spec)
        assert replay.result.best.energy == best.energy
        assert replay.result.traces[0].cache_misses == 0
