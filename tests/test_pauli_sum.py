"""Tests for PauliSum (weighted Pauli sums / Hamiltonians)."""

import numpy as np
import pytest

from repro.exceptions import OperatorError
from repro.operators import PauliSum, group_commuting_terms, measurement_settings_count
from repro.operators.pauli_sum import _bit_parity


def kron_sum_matrix(total):
    """Dense-matrix oracle: the per-term sum of Kronecker-product Pauli matrices."""
    dim = 2**total.num_qubits
    matrix = np.zeros((dim, dim), dtype=complex)
    for term in total.terms():
        matrix += term.coefficient * term.pauli.to_matrix()
    return matrix


def random_pauli_sum(num_qubits, seed):
    """Random complex-weighted sum with shared X masks and an all-Y term."""
    rng = np.random.default_rng(seed)
    labels = ["".join(rng.choice(list("IXYZ"), num_qubits)) for _ in range(24)]
    # Relabel Y <-> X and drop Z: new terms that share X masks with old ones.
    labels += [label.translate(str.maketrans("XY", "YX")) for label in labels[:8]]
    labels += [label.replace("Z", "I") for label in labels[8:16]]
    labels.append("Y" * num_qubits)
    return PauliSum(
        [(label, complex(rng.normal(), rng.normal())) for label in labels],
        num_qubits=num_qubits,
    )


class TestConstruction:
    def test_merges_duplicate_labels(self):
        total = PauliSum([("XX", 1.0), ("XX", 2.0)])
        assert total.num_terms == 1
        assert total.coefficient("XX") == pytest.approx(3.0)

    def test_drops_tiny_coefficients(self):
        total = PauliSum({"XX": 1.0, "ZZ": 1e-15})
        assert total.labels == ["XX"]

    def test_mismatched_lengths(self):
        with pytest.raises(OperatorError):
            PauliSum({"X": 1.0, "XX": 2.0})

    def test_invalid_label(self):
        with pytest.raises(OperatorError):
            PauliSum({"XQ": 1.0})

    def test_zero_and_identity(self):
        assert PauliSum.zero(3).num_terms == 0
        identity = PauliSum.identity(3, 2.5)
        assert identity.coefficient("III") == pytest.approx(2.5)

    def test_needs_size_information(self):
        with pytest.raises(OperatorError):
            PauliSum({})


class TestAlgebra:
    def test_addition_and_scalar(self):
        a = PauliSum({"XX": 1.0})
        b = PauliSum({"XX": 0.5, "ZZ": 2.0})
        total = a + b
        assert total.coefficient("XX") == pytest.approx(1.5)
        assert (2 * a).coefficient("XX") == pytest.approx(2.0)

    def test_scalar_addition_adds_identity(self):
        shifted = PauliSum({"Z": 1.0}) + 3.0
        assert shifted.coefficient("I") == pytest.approx(3.0)

    def test_subtraction(self):
        result = PauliSum({"XX": 1.0}) - PauliSum({"XX": 1.0})
        assert result.num_terms == 0

    def test_matmul_matches_matrices(self):
        a = PauliSum({"XI": 0.5, "ZZ": 1.0})
        b = PauliSum({"XX": 2.0, "IY": -0.5})
        product = a @ b
        np.testing.assert_allclose(product.to_matrix(), a.to_matrix() @ b.to_matrix(), atol=1e-12)

    def test_square_of_hermitian_is_hermitian(self):
        a = PauliSum({"XY": 0.3, "ZI": -0.7, "YZ": 1.1})
        square = a @ a
        assert square.is_hermitian()

    def test_mismatched_addition(self):
        with pytest.raises(OperatorError):
            PauliSum({"X": 1.0}) + PauliSum({"XX": 1.0})

    def test_diagonal_offdiagonal_split(self):
        total = PauliSum({"ZZ": 1.0, "XZ": 2.0, "II": 3.0})
        assert set(total.diagonal_part().labels) == {"ZZ", "II"}
        assert total.offdiagonal_part().labels == ["XZ"]
        recombined = total.diagonal_part() + total.offdiagonal_part()
        assert recombined == total

    def test_to_sparse_matches_dense(self):
        total = PauliSum({"XY": 0.5, "ZZ": -1.0, "II": 0.25})
        np.testing.assert_allclose(
            total.to_sparse_matrix().toarray(), kron_sum_matrix(total), atol=1e-12
        )
        np.testing.assert_allclose(total.to_matrix(), kron_sum_matrix(total), atol=1e-12)

    def test_equality(self):
        assert PauliSum({"XX": 1.0, "ZZ": 0.5}) == PauliSum({"ZZ": 0.5, "XX": 1.0})


class TestSparseMatrix:
    @pytest.mark.parametrize("num_qubits", range(1, 9))
    def test_matches_dense_on_random_sums(self, num_qubits):
        total = random_pauli_sum(num_qubits, seed=100 + num_qubits)
        np.testing.assert_allclose(
            total.to_sparse_matrix().toarray(), kron_sum_matrix(total), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("num_qubits", range(1, 7))
    def test_dense_matrix_matches_kron_oracle(self, num_qubits):
        total = random_pauli_sum(num_qubits, seed=200 + num_qubits)
        dense = total.to_matrix()
        assert dense.dtype == complex and dense.shape == (2**num_qubits,) * 2
        np.testing.assert_allclose(dense, kron_sum_matrix(total), rtol=0, atol=1e-12)

    def test_first_label_character_is_the_most_significant_qubit(self):
        # Columns are input basis states, rows outputs; |q0 q1> = index 2*q0 + q1.
        flip_first = PauliSum({"XI": 1.0}).to_sparse_matrix().toarray()
        assert flip_first[2, 0] == 1 and flip_first[0, 2] == 1
        assert np.count_nonzero(flip_first) == 4
        phase = PauliSum({"ZY": 1.0}).to_sparse_matrix().toarray()
        # Y|0> = i|1> and Y|1> = -i|0> on the second qubit; Z signs the first.
        assert phase[1, 0] == 1j and phase[0, 1] == -1j
        assert phase[3, 2] == -1j and phase[2, 3] == 1j

    def test_empty_sum(self):
        empty = PauliSum.zero(3).to_sparse_matrix()
        assert empty.shape == (8, 8) and empty.nnz == 0
        assert np.array_equal(PauliSum.zero(3).to_matrix(), np.zeros((8, 8), dtype=complex))

    def test_bit_parity_without_bitwise_count(self):
        rng = np.random.default_rng(7)
        values = np.concatenate(
            [np.arange(1024), rng.integers(0, 2**62, 500), [2**63 - 1]]
        ).astype(np.int64)
        expected = [bin(int(value)).count("1") % 2 for value in values]
        assert _bit_parity(values).tolist() == expected
        assert PauliSum({"XX": 1.0}) != PauliSum({"XX": 1.1})


class TestCommutingGroups:
    def test_groups_cover_all_terms(self):
        hamiltonian = PauliSum({"XX": 1.0, "YY": 0.5, "ZZ": 0.2, "ZI": 0.1, "IX": 0.4})
        groups = group_commuting_terms(hamiltonian)
        labels = sorted(term.label for group in groups for term in group)
        assert labels == sorted(hamiltonian.labels)

    def test_groups_internally_commute(self):
        hamiltonian = PauliSum({"XX": 1.0, "YY": 0.5, "ZZ": 0.2, "XY": 0.3, "YX": 0.3})
        for group in group_commuting_terms(hamiltonian, qubitwise=True):
            for i, a in enumerate(group):
                for b in group[i + 1 :]:
                    assert a.pauli.qubitwise_commutes_with(b.pauli)

    def test_fewer_settings_than_terms(self, h2_problem):
        hamiltonian = h2_problem.hamiltonian
        assert measurement_settings_count(hamiltonian) <= hamiltonian.num_terms
