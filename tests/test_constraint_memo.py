"""The constrained operator and its fingerprint, built once per process.

:func:`~repro.core.constraints.constrained_hamiltonian` memoizes its result
by content — the Hamiltonian's fingerprint plus ``(operator fingerprint,
target, weight)`` for every penalty — and ``hamiltonian_fingerprint`` keeps
its digest on the operator.  The tests pin the memoized operators label by
label and bit by bit against the expanding builder of
``tests/constraints_oracle.py``, count the work a replay still does, and
check that the memo is bounded and holds no problem.
"""

import gc
import weakref
from types import SimpleNamespace

import pytest

import repro
from repro.chemistry import make_problem
from repro.circuits import EfficientSU2Ansatz
from repro.core import constraints
from repro.core.constraints import (
    CompositeConstraint,
    DeflationConstraint,
    OperatorPenalty,
    ParticleConstraint,
    constrained_hamiltonian,
)
from repro.core.objective import CliffordObjective
from repro.operators import PauliSum, fingerprints
from repro.operators.fingerprints import hamiltonian_fingerprint
from repro.problems import ising_chain, xxz_chain
from tests.constraints_oracle import oracle_constrained_hamiltonian


@pytest.fixture
def memo(monkeypatch):
    """An empty operator memo for the test, restored afterwards."""
    fresh = {}
    monkeypatch.setattr(constraints, "_OPERATORS", fresh)
    return fresh


@pytest.fixture(scope="module")
def h2_pair():
    """H2 and H2+ at one geometry."""
    return (
        make_problem("H2", 1.06, compute_exact=False),
        make_problem("H2+", 1.06, compute_exact=False),
    )


def exact_terms(operator):
    """Labels with the bit patterns of both parts of every coefficient."""
    return operator.num_qubits, sorted(
        (label, complex(c).real.hex(), complex(c).imag.hex())
        for label, c in operator.to_dict().items()
    )


def assert_matches_oracle(problem, **options):
    built = constrained_hamiltonian(problem, **options)
    expected = exact_terms(oracle_constrained_hamiltonian(problem, **options))
    assert exact_terms(built) == expected
    # The memo hit hands back the very same operator.
    assert constrained_hamiltonian(problem, **options) is built
    return built


def count_operator_digests(monkeypatch):
    """A list that grows by one per digest ``hamiltonian_fingerprint`` computes."""
    digests, sha256 = [], fingerprints.hashlib.sha256

    def counting_sha256(*args):
        digests.append(1)
        return sha256(*args)

    monkeypatch.setattr(fingerprints, "hashlib", SimpleNamespace(sha256=counting_sha256))
    return digests


def magnetization(num_qubits):
    return PauliSum(
        [("I" * (num_qubits - 1 - q) + "Z" + "I" * q, 1.0) for q in range(num_qubits)]
    )


class TestDifferentialAgainstOracle:
    def test_molecules(self, memo, lih_problem, h4_problem, h2_pair):
        for problem in (lih_problem, h4_problem, *h2_pair):
            assert_matches_oracle(problem)
        assert len(memo) == 4

    def test_h2_and_cation_never_share_an_entry(self, memo, h2_pair):
        h2, cation = h2_pair
        neutral_operator = assert_matches_oracle(h2)
        assert assert_matches_oracle(cation) is not neutral_operator
        # One Hamiltonian in the cation's sector: only the sector triples
        # tell the two keys apart.
        cation_sector = ParticleConstraint(cation.num_alpha, cation.num_beta)
        in_cation_sector = assert_matches_oracle(h2, constraint=cation_sector)
        assert in_cation_sector is not neutral_operator
        assert exact_terms(in_cation_sector) != exact_terms(neutral_operator)
        assert len(memo) == 3

    @pytest.mark.parametrize(
        "build", [lambda: ising_chain(num_sites=4), lambda: xxz_chain(num_sites=6)]
    )
    def test_unconstrained_spin_models(self, memo, build):
        problem = build()
        operator = assert_matches_oracle(problem)
        assert exact_terms(operator) == exact_terms(problem.hamiltonian)

    def test_operator_penalty(self, memo):
        problem = ising_chain(num_sites=4)
        constraint = OperatorPenalty(magnetization(4), target=2.0, weight=1.5)
        assert_matches_oracle(problem, constraint=constraint)

    def test_composite_with_deflation_part(self, memo):
        problem = ising_chain(num_sites=3)
        composite = CompositeConstraint(
            parts=(
                OperatorPenalty(magnetization(3), target=3.0, weight=1.5),
                DeflationConstraint(points=((0,) * 12,), weight=5.0),
            )
        )
        assert len(list(composite.penalties(problem))) == 1
        assert_matches_oracle(problem, constraint=composite)

    def test_spin_z_target(self, memo, lih_problem):
        plain = assert_matches_oracle(lih_problem)
        pinned = assert_matches_oracle(lih_problem, spin_z_target=0.0)
        stacked = assert_matches_oracle(
            lih_problem, constraint=ParticleConstraint(1, 1, weight=3.0), spin_z_target=1.0
        )
        assert len({id(plain), id(pinned), id(stacked)}) == 3

    def test_weight_zero_adds_nothing(self, memo, lih_problem):
        operator = assert_matches_oracle(
            lih_problem, constraint=ParticleConstraint(1, 1, weight=0.0)
        )
        assert exact_terms(operator) == exact_terms(lih_problem.hamiltonian.simplify(1e-10))
        assert_matches_oracle(
            lih_problem, constraint=OperatorPenalty(magnetization(4), 1.0, weight=0.0)
        )

    def test_every_part_of_the_key_separates_entries(self, memo, lih_problem):
        problem = ising_chain(num_sites=4)
        hopping = PauliSum({"XXII": 1.0, "IXXI": 1.0, "IIXX": 1.0})
        variants = [
            OperatorPenalty(magnetization(4), target=2.0, weight=1.5),
            OperatorPenalty(magnetization(4), target=2.0, weight=2.5),
            OperatorPenalty(magnetization(4), target=1.0, weight=1.5),
            OperatorPenalty(hopping, target=2.0, weight=1.5),
        ]
        built = [assert_matches_oracle(problem, constraint=c) for c in variants]
        sectors = [ParticleConstraint(1, 1, weight=w) for w in (1.0, 3.0)]
        built += [assert_matches_oracle(lih_problem, constraint=c) for c in sectors]
        assert len({id(operator) for operator in built}) == len(memo) == 6

    def test_content_equal_builds_share_one_operator(self, memo):
        first, second = ising_chain(num_sites=5), ising_chain(num_sites=5)
        assert first is not second and first.hamiltonian is not second.hamiltonian
        assert constrained_hamiltonian(first) is constrained_hamiltonian(second)
        h2, again = make_problem("H2", 0.9), make_problem("H2", 0.9)
        ansatz = EfficientSU2Ansatz(h2.num_qubits, reps=1)
        operator = CliffordObjective(h2, ansatz).operator
        assert CliffordObjective(again, ansatz).operator is operator
        assert len(memo) == 2


class TestWorkCounters:
    def test_replayed_molecules_do_no_operator_algebra(
        self, monkeypatch, tmp_path, lih_problem, h4_problem
    ):
        specs = [
            (
                repro.RunSpec(
                    problem=problem.name,
                    max_evaluations=30,
                    max_workers=1,
                    checkpoint_dir=str(tmp_path / problem.name),
                ),
                problem,
            )
            for problem in (lih_problem, h4_problem)
        ]
        first = [repro.run(spec, problem=problem).best.energy for spec, problem in specs]

        products, matmul = [], PauliSum.__matmul__

        def counting_matmul(self, other):
            products.append(1)
            return matmul(self, other)

        monkeypatch.setattr(PauliSum, "__matmul__", counting_matmul)
        digests = count_operator_digests(monkeypatch)
        for _ in range(2):
            for (spec, problem), energy in zip(specs, first):
                report = repro.run(spec, problem=problem)
                assert all(trace.from_checkpoint for trace in report.result.traces)
                assert report.best.energy == energy
        assert products == []
        assert digests == []

    def test_second_fingerprint_computes_no_digest(self, monkeypatch):
        operator = xxz_chain(num_sites=8).hamiltonian
        digests = count_operator_digests(monkeypatch)
        first = hamiltonian_fingerprint(operator)
        assert hamiltonian_fingerprint(operator) == first
        assert len(digests) == 1
        # An equal operator built separately digests to the same key.
        assert hamiltonian_fingerprint(PauliSum(operator.to_dict())) == first
        assert len(digests) == 2

    def test_problem_construction_computes_no_fingerprint(self, monkeypatch):
        digests = count_operator_digests(monkeypatch)
        ising_chain(num_sites=4)
        make_problem("H2", 0.8, compute_exact=False)
        assert digests == []


class TestMemoBounds:
    def test_oldest_entry_is_evicted_past_the_bound(self, memo):
        fields = [0.1 * (k + 1) for k in range(constraints._MAX_OPERATORS + 1)]
        problems = [ising_chain(num_sites=3, transverse_field=h) for h in fields]
        first_key = None
        for problem in problems:
            constrained_hamiltonian(problem)
            first_key = first_key or next(iter(memo))
        assert len(memo) == constraints._MAX_OPERATORS
        assert first_key not in memo
        # The evicted operator is rebuilt, bit-identically, on the next ask.
        rebuilt = constrained_hamiltonian(problems[0])
        assert exact_terms(rebuilt) == exact_terms(
            oracle_constrained_hamiltonian(problems[0])
        )
        assert next(reversed(memo)) == first_key

    def test_memo_holds_no_problem(self, memo):
        problem = make_problem("H2", 0.8, compute_exact=False)
        alive = weakref.ref(problem)
        objective = CliffordObjective(problem, EfficientSU2Ansatz(problem.num_qubits))
        assert objective.operator is constrained_hamiltonian(problem)
        del objective, problem
        gc.collect()
        assert alive() is None
        assert len(memo) == 1

    def test_non_hermitian_operator_is_not_memoized(self, memo):
        from repro.exceptions import SimulationError
        from repro.problems import HamiltonianProblem

        problem = HamiltonianProblem("non_hermitian", PauliSum({"XX": 1 + 0.5j}))
        for _ in range(2):
            with pytest.raises(SimulationError, match="non-real coefficient"):
                constrained_hamiltonian(problem)
        assert memo == {}
