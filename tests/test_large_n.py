"""Large-n stabilizer contracts: 50/70/100-qubit Ising, XXZ, and MaxCut.

No statevector can check these sizes, so correctness rests on
stabilizer-vs-stabilizer contracts instead: the grouped and dense kernels
must agree bit-for-bit on random stabilizer states, computational-basis
energies must reproduce the closed-form determinant evaluation, and the
all-``|+>`` state must see exactly the X-sector of the Hamiltonian.  The
70- and 100-qubit cases additionally exercise the multi-word (W=2) packed
path end to end.
"""

import numpy as np
import pytest

from repro.operators.commuting import measurement_settings_count
from repro.operators.fingerprints import determinant_energy
from repro.problems import ising_chain, maxcut_ring, xxz_chain
from repro.stabilizer.expectation import PauliSumEvaluator
from repro.stabilizer.symplectic import num_words
from repro.stabilizer.tableau import BatchedCliffordTableau

SIZES = (50, 70, 100)

FAMILIES = {
    "ising": lambda n: ising_chain(num_sites=n),
    "xxz": lambda n: xxz_chain(num_sites=n),
    "maxcut": lambda n: maxcut_ring(num_vertices=n),
}


def _scrambled_states(num_qubits, batch, seed, depth=3):
    """Deterministic per-element random stabilizer states.

    Every layer gives each batch element its own ``ry`` and ``rz`` Clifford
    index on every qubit, then entangles random qubit pairs with CX.
    """
    rng = np.random.default_rng(seed)
    states = BatchedCliffordTableau(batch, num_qubits)
    for _ in range(depth):
        for qubit in range(num_qubits):
            states.apply_rotation("ry", qubit, rng.integers(0, 4, batch))
            states.apply_rotation("rz", qubit, rng.integers(0, 4, batch))
        order = rng.permutation(num_qubits)
        for control, target in zip(order[::2], order[1::2]):
            states.apply_cx(int(control), int(target))
    return states


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("size", SIZES)
def test_grouped_matches_dense_at_scale(family, size):
    hamiltonian = FAMILIES[family](size).hamiltonian
    assert hamiltonian.num_qubits == size
    states = _scrambled_states(size, batch=6, seed=size + hash(family) % 97)
    grouped = PauliSumEvaluator(hamiltonian, grouped=True)
    dense = PauliSumEvaluator(hamiltonian, grouped=False)
    values_g = grouped.term_expectations_batch(states)
    values_d = dense.term_expectations_batch(states)
    assert np.array_equal(values_g, values_d)
    assert np.array_equal(
        grouped.expectation_batch(states), dense.expectation_batch(states)
    )
    # Pointwise extraction rides the same contract.
    tableau = states.extract(0)
    assert grouped.expectation(tableau) == dense.expectation(tableau)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("size", SIZES)
def test_basis_state_energy_matches_determinant(family, size):
    hamiltonian = FAMILIES[family](size).hamiltonian
    rng = np.random.default_rng(size)
    bits = (rng.random(size) < 0.5).astype(int)
    states = BatchedCliffordTableau(2, size)
    for qubit in range(size):
        if bits[qubit]:
            states.apply_x(qubit)
    evaluator = PauliSumEvaluator(hamiltonian, grouped=True)
    energies = evaluator.expectation_batch(states)
    expected = determinant_energy(hamiltonian, bits)
    assert energies[0] == energies[1]
    assert energies[0] == pytest.approx(expected, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("size", SIZES)
def test_plus_state_sees_exactly_the_x_sector(family, size):
    hamiltonian = FAMILIES[family](size).hamiltonian
    states = BatchedCliffordTableau(1, size)
    for qubit in range(size):
        states.apply_h(qubit)
    evaluator = PauliSumEvaluator(hamiltonian, grouped=True)
    energy = float(evaluator.expectation_batch(states)[0])
    x_sector = sum(
        hamiltonian.coefficient(label).real
        for label in hamiltonian.labels
        if set(label) <= {"I", "X"}
    )
    assert energy == pytest.approx(x_sector, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("size", (70, 100))
def test_large_sizes_run_multiword(size):
    assert num_words(size) == 2
    states = _scrambled_states(size, batch=3, seed=7)
    assert states.num_words == 2


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_partitions_stay_coarse_at_scale(family):
    # The grouped kernel's whole advantage at large n is that these families
    # partition into a handful of groups regardless of size.
    for size in SIZES:
        hamiltonian = FAMILIES[family](size).hamiltonian
        assert measurement_settings_count(hamiltonian) <= 4
