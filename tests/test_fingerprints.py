"""Fingerprints and determinant energies against their term-by-term oracles.

``hamiltonian_fingerprint`` and ``determinant_energy`` read the operator's
label -> coefficient dict, and ``objective_fingerprint`` hashes the program
the objective already compiled.  The oracles below are the earlier
implementations — one ``Pauli`` per term through ``terms()``, and a second
compile of the ansatz — so every checkpoint filename, cache key and reference
energy is pinned to be byte- and bit-identical to what they produced.
"""

import hashlib
from functools import cached_property

import numpy as np
import pytest

from repro import problems
from repro.circuits import EfficientSU2Ansatz
from repro.circuits import clifford_points
from repro.circuits.clifford_points import CliffordGateProgram
from repro.core import CliffordObjective, DeflationConstraint, SearchOrchestrator
from repro.operators.fingerprints import (
    determinant_energy,
    hamiltonian_fingerprint,
    objective_fingerprint,
)
from repro.problems import ising_chain, xxz_chain
from repro.problems.base import reference_bits_of
from repro.runspec import RunSpec
from repro.stabilizer import expectation


def oracle_hamiltonian_fingerprint(operator):
    digest = hashlib.sha256()
    for term in sorted(operator.terms(), key=lambda t: t.label):
        coefficient = complex(term.coefficient)
        digest.update(
            f"{term.label}:{coefficient.real!r}:{coefficient.imag!r};".encode()
        )
    return digest.hexdigest()[:16]


def oracle_ansatz_fingerprint(ansatz):
    program = CliffordGateProgram.compile(ansatz.circuit)
    digest = hashlib.sha256()
    digest.update(f"{program.num_qubits}:{program.num_parameters};".encode())
    for op in program.ops:
        digest.update(
            f"{op.name}:{op.qubits}:{op.parameter_index}:{op.fixed_index};".encode()
        )
    return digest.hexdigest()[:16]


def oracle_objective_fingerprint(objective):
    base = (
        f"{oracle_hamiltonian_fingerprint(objective.operator)}"
        f"-{oracle_ansatz_fingerprint(objective.ansatz)}"
    )
    if objective.max_t_gates:
        base = f"{base}-t{objective.max_t_gates}"
    deflation = objective.deflation_digest
    return base if deflation is None else f"{base}-d{deflation}"


def oracle_determinant_energy(hamiltonian, bits):
    energy = 0.0
    num_qubits = hamiltonian.num_qubits
    for term in hamiltonian.terms():
        label = term.label
        if not set(label) <= {"I", "Z"}:
            continue
        sign = 1.0
        for qubit in range(num_qubits):
            if label[num_qubits - 1 - qubit] == "Z" and bits[qubit]:
                sign = -sign
        energy += float(np.real(term.coefficient)) * sign
    return energy


def _objective(case, request):
    if case in ("H2", "LiH", "H4"):
        problem = request.getfixturevalue(f"{case.lower()}_problem")
        return CliffordObjective(problem, EfficientSU2Ansatz(problem.num_qubits, reps=1))
    if case == "xxz_chain_50":
        problem = xxz_chain(num_sites=50)
        return CliffordObjective(problem, EfficientSU2Ansatz(50, reps=1))
    problem = ising_chain(num_sites=4)
    ansatz = EfficientSU2Ansatz(4, reps=1)
    if case == "t_gates_2":
        return CliffordObjective(problem, ansatz, max_t_gates=2)
    if case == "deflated":
        ground = tuple([0] * ansatz.num_parameters)
        return CliffordObjective(
            problem, ansatz, constraint=DeflationConstraint(points=(ground,))
        )
    return CliffordObjective(problem, ansatz)


OBJECTIVE_CASES = ["H2", "LiH", "H4", "ising_chain", "xxz_chain_50", "t_gates_2", "deflated"]


class TestFingerprintOracles:
    @pytest.mark.parametrize("case", OBJECTIVE_CASES)
    def test_fingerprints_equal_the_terms_loop(self, case, request):
        objective = _objective(case, request)
        for operator in (objective.operator, objective.problem.hamiltonian):
            assert hamiltonian_fingerprint(operator) == oracle_hamiltonian_fingerprint(
                operator
            )
        program = CliffordGateProgram.from_ansatz(objective.ansatz)
        assert program.fingerprint == oracle_ansatz_fingerprint(objective.ansatz)
        assert objective_fingerprint(objective) == oracle_objective_fingerprint(objective)

    def test_complex_coefficients_hash_like_the_terms_loop(self):
        from repro.operators import PauliSum

        operator = PauliSum({"XY": 0.5 - 0.25j, "ZI": -1e-17 + 3.0j, "IY": 2.0})
        assert hamiltonian_fingerprint(operator) == oracle_hamiltonian_fingerprint(
            operator
        )

    def test_objective_fingerprint_compiles_no_second_program(self, monkeypatch):
        objective = _objective("ising_chain", None)
        calls = []
        compile_program = CliffordGateProgram.from_ansatz

        def counting(ansatz):
            calls.append(ansatz)
            return compile_program(ansatz)

        monkeypatch.setattr(CliffordGateProgram, "from_ansatz", staticmethod(counting))
        objective_fingerprint(objective)
        assert calls == []


class TestLazyEvaluators:
    def test_parent_objective_of_the_orchestrator_compiles_no_evaluator(
        self, monkeypatch
    ):
        compiled = []
        init = expectation.PauliSumEvaluator.__init__

        def counting(self, *args, **kwargs):
            compiled.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(expectation.PauliSumEvaluator, "__init__", counting)
        problem = ising_chain(num_sites=4)
        orchestrator = SearchOrchestrator(RunSpec(problem=problem), problem)
        assert orchestrator.objective_fingerprint
        assert compiled == []

    def test_orchestrator_and_fingerprints_build_no_segment_table(self, monkeypatch):
        """The replay leg never evolves a state, so it compiles no segments.

        Programs are shared per ansatz shape across the process, so an
        earlier test may have built this shape's table: start from an empty
        memo, so the orchestrator compiles a fresh program.
        """
        monkeypatch.setattr(clifford_points, "_PROGRAMS", {})
        built = []
        segments = CliffordGateProgram.segments.func

        def counting(program):
            built.append(program)
            return segments(program)

        monkeypatch.setattr(CliffordGateProgram, "segments", cached_property(counting))
        CliffordGateProgram.segments.__set_name__(CliffordGateProgram, "segments")
        problem = xxz_chain(num_sites=50)
        orchestrator = SearchOrchestrator(RunSpec(problem=problem), problem)
        objective = orchestrator._objective
        assert objective_fingerprint(objective) == orchestrator.objective_fingerprint
        assert built == []
        objective.evaluate_batch([[0] * objective.num_parameters])
        assert built == [objective.program]

    def test_non_hermitian_operator_is_still_rejected_at_construction(self):
        from repro.exceptions import SimulationError
        from repro.operators import PauliSum
        from repro.problems import HamiltonianProblem

        problem = HamiltonianProblem("non_hermitian", PauliSum({"XX": 1 + 0.5j, "ZZ": 0.5}))
        with pytest.raises(SimulationError, match="'XX' has non-real coefficient"):
            SearchOrchestrator(RunSpec(problem=problem), problem)


def _registry_problems():
    cases = [(name, {"compute_exact": False}) for name in problems.list_problems()]
    options = {
        "ising_chain": {"num_sites": 6},
        "ising_lattice": {"rows": 2, "cols": 3},
        "xxz_chain": {"num_sites": 50},
        "maxcut": {"edges": [(0, 1), (1, 2, 0.5), (2, 3), (3, 0, 2.0), (0, 2)]},
        "maxcut_ring": {"num_vertices": 6},
    }
    return [
        pytest.param(name, options.get(name, default), id=name)
        for name, default in cases
    ]


class TestDeterminantEnergyOracle:
    @pytest.mark.parametrize("name,options", _registry_problems())
    def test_equals_the_terms_loop_on_every_registry_family(self, name, options):
        problem = problems.get(name, **options)
        hamiltonian = problem.hamiltonian
        rng = np.random.default_rng(len(name))
        bit_strings = [reference_bits_of(problem), [1] * problem.num_qubits]
        bit_strings += [list(rng.integers(0, 2, problem.num_qubits)) for _ in range(3)]
        for bits in bit_strings:
            assert determinant_energy(hamiltonian, bits) == oracle_determinant_energy(
                hamiltonian, bits
            )
