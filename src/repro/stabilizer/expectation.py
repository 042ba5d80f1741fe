"""Fast batched Pauli-sum expectations for stabilizer states.

The CAFQA objective evaluates the same Hamiltonian for thousands of candidate
circuits.  :class:`PauliSumEvaluator` packs the Hamiltonian's Pauli terms
into uint64 bit matrices once, then evaluates *every term for every state in
a batch* with one call into the vectorized symplectic kernel — the
anticommutation tests, destabilizer decompositions, and phase accumulation
are GF(2) matmuls and popcounts with no Python loop over terms or batch
elements (see :func:`repro.stabilizer.symplectic.stabilizer_expectations`).

For structured Hamiltonians (molecules, spin chains, MaxCut) most of that
per-term work is redundant: the evaluator also compiles the operator's
qubit-wise commuting partition (:mod:`repro.operators.commuting`) at
construction and, when the partition is coarse enough, routes batches
through :func:`repro.stabilizer.symplectic.stabilizer_group_expectations`
— one shared tableau pass per *group* instead of per term, with per-term
values scattered back into label order before the multiply-then-sum reduce.
Both kernels produce the same exact integers in ``{-1, 0, +1}``, so grouped,
ungrouped, batched, and pointwise energies are bit-for-bit identical.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import telemetry
from repro.exceptions import SimulationError
from repro.operators.commuting import compile_commuting_groups, label_bit_matrix
from repro.operators.pauli_sum import PauliSum
from repro.stabilizer.symplectic import (
    group_reduction_context,
    num_words,
    pack_bits,
    stabilizer_expectations,
    stabilizer_group_expectations,
)
from repro.stabilizer.tableau import BatchedCliffordTableau, CliffordTableau

# Cap the (batch, terms, generators, words) intermediates at ~32 MB per array
# by chunking the batch axis.
_CHUNK_ELEMENTS = 1 << 22

# Auto mode only routes batches of at least this many states through the
# grouped kernel: a single state cannot amortize the per-group Python
# dispatch, and both kernels are exact so the choice is invisible.
_GROUPED_MIN_BATCH = 2


class PauliSumEvaluator:
    """Pre-compiled Pauli-sum expectation evaluator for stabilizer states.

    ``grouped`` selects the evaluation strategy: ``None`` (default) compiles
    the qubit-wise commuting partition and uses the grouped kernel
    automatically when it is coarse enough to pay off (at most half as many
    groups as terms — random Pauli sums barely group and stay on the dense
    kernel); ``True`` forces the grouped path for every batch (including
    single states); ``False`` disables grouping entirely.  All three settings
    return bit-identical values.
    """

    def __init__(self, hamiltonian: PauliSum, grouped: Optional[bool] = None):
        self._num_qubits = hamiltonian.num_qubits
        labels = hamiltonian.labels
        self._coefficients = hamiltonian.real_coefficients()
        x_bits, z_bits = label_bit_matrix(labels, self._num_qubits)
        self._labels = labels
        self._term_x = pack_bits(x_bits)
        self._term_z = pack_bits(z_bits)

        self._groups = (
            compile_commuting_groups(hamiltonian)
            if labels and grouped is not False
            else None
        )
        self._grouped_forced = grouped is True
        if self._groups is None:
            self._grouped_mode = False
        elif grouped is None:
            self._grouped_mode = 2 * self._groups.num_groups <= self._groups.num_terms
        else:
            self._grouped_mode = True
        self._group_data = []
        self._max_group_terms = 0
        if self._grouped_mode:
            for group in range(self._groups.num_groups):
                indices = self._groups.term_indices(group)
                gx = self._groups.x_bits[indices]
                gz = self._groups.z_bits[indices]
                self._group_data.append(
                    (
                        indices,
                        self._groups.rep_x[group],
                        self._groups.rep_z[group],
                        # Transposed support masks (nq, Tg), contiguous for the
                        # fused parity matmul.
                        np.ascontiguousarray((gx | gz).T.astype(np.float32)),
                        (gx & gz).sum(axis=1).astype(np.float32),  # Y-counts (Tg,)
                    )
                )
                self._max_group_terms = max(self._max_group_terms, len(indices))

    # ------------------------------------------------------------------ #
    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def num_terms(self) -> int:
        return len(self._labels)

    @property
    def labels(self) -> list[str]:
        return list(self._labels)

    @property
    def num_groups(self) -> Optional[int]:
        """Size of the compiled commuting partition (``None`` if not compiled)."""
        return self._groups.num_groups if self._groups is not None else None

    @property
    def grouped(self) -> bool:
        """Whether batches route through the grouped (per-group-pass) kernel."""
        return self._grouped_mode

    # ------------------------------------------------------------------ #
    def term_expectations(self, tableau: CliffordTableau) -> np.ndarray:
        """Expectation of every term (each exactly -1, 0, or +1), in label order."""
        self._check_qubits(tableau)
        stab = tableau.stabilizer_block()
        destab = tableau.destabilizer_block()
        values = self._values(
            stab.x[None], stab.z[None], stab.r[None], destab.x[None], destab.z[None]
        )
        return values[0].astype(float)

    def expectation(self, tableau: CliffordTableau) -> float:
        """Coefficient-weighted expectation of the whole Pauli sum."""
        return float(self._reduce(self.term_expectations(tableau)[None])[0])

    def term_expectations_batch(self, tableaux: BatchedCliffordTableau) -> np.ndarray:
        """Per-term expectations for a whole batch: ``(batch, terms)`` floats."""
        self._check_qubits(tableaux)
        stab = tableaux.stabilizer_block()
        destab = tableaux.destabilizer_block()
        values = self._values(stab.x, stab.z, stab.r, destab.x, destab.z)
        return values.astype(float)

    def expectation_batch(self, tableaux: BatchedCliffordTableau) -> np.ndarray:
        """Coefficient-weighted expectations for a whole batch: ``(batch,)`` floats."""
        return self._reduce(self.term_expectations_batch(tableaux))

    @property
    def packed_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """Packed ``(x, z)`` bit rows of the terms in label order: ``(terms, words)``."""
        return self._term_x, self._term_z

    @property
    def coefficients(self) -> np.ndarray:
        """The terms' real weights in label order (a copy): ``(terms,)``."""
        return self._coefficients.copy()

    def conjugated_expectation_batch(
        self,
        tableaux: BatchedCliffordTableau,
        term_x: np.ndarray,
        term_z: np.ndarray,
        term_signs: np.ndarray,
    ) -> np.ndarray:
        """Energies with term ``i`` replaced by the signed row ``(-1)^signs[i] P_i``.

        The rows are this operator's terms conjugated through a Clifford
        ``U`` (see :meth:`BatchedCliffordTableau.apply_program` with
        ``inverse``), so the result is ``<psi| U^dag H U |psi>`` per state.
        Conjugation maps each term to exactly one signed Pauli, so every
        per-term value is the same integer the forward simulation gives, and
        the shared :meth:`_reduce` keeps the energies bit-for-bit identical.
        """
        self._check_qubits(tableaux)
        stab = tableaux.stabilizer_block()
        destab = tableaux.destabilizer_block()
        values = stabilizer_expectations(
            stab.x, stab.z, stab.r, destab.x, destab.z, term_x, term_z
        )
        return self._reduce(np.where(term_signs, -values, values).astype(float))

    def _reduce(self, term_values: np.ndarray) -> np.ndarray:
        # Multiply-then-sum (not BLAS dot/gemv, whose reduction order varies
        # with batch shape) so batched and single-point energies are
        # bit-for-bit identical.  Grouped evaluation scatters per-term values
        # back into label order *before* this reduce, so the summation order
        # never depends on the partition either.
        return (term_values * self._coefficients).sum(axis=-1)

    # ------------------------------------------------------------------ #
    def _check_qubits(self, tableau) -> None:
        if tableau.num_qubits != self._num_qubits:
            raise SimulationError("tableau and Hamiltonian qubit counts differ")

    def _use_grouped(self, batch: int) -> bool:
        if not self._grouped_mode:
            return False
        return self._grouped_forced or batch >= _GROUPED_MIN_BATCH

    def _values(self, stab_x, stab_z, signs, destab_x, destab_z) -> np.ndarray:
        batch = stab_x.shape[0]
        if self._use_grouped(batch):
            kernel = self._values_grouped
            # The grouped path's largest per-state intermediates are the four
            # unpacked (n, nq) generator blocks + (n, n) cross table and the
            # per-group (n, max(nq, Tg)) parity-count matmuls.
            per_element = max(
                1,
                self._num_qubits
                * max(4 * self._num_qubits, self._max_group_terms),
            )
        else:
            kernel = self._values_dense
            # The dense kernel's largest intermediates are (B, T, n, W)
            # anticommutation tables and the (B, n, n, W) pairwise cross
            # table; size the chunk by whichever dominates.
            per_element = max(
                1,
                max(self.num_terms, self._num_qubits)
                * self._num_qubits
                * num_words(self._num_qubits),
            )
        chunk = max(1, _CHUNK_ELEMENTS // per_element)
        if batch <= chunk:
            return kernel(stab_x, stab_z, signs, destab_x, destab_z)
        pieces = [
            kernel(
                stab_x[start : start + chunk],
                stab_z[start : start + chunk],
                signs[start : start + chunk],
                destab_x[start : start + chunk],
                destab_z[start : start + chunk],
            )
            for start in range(0, batch, chunk)
        ]
        return np.concatenate(pieces, axis=0)

    def _values_dense(self, stab_x, stab_z, signs, destab_x, destab_z) -> np.ndarray:
        telemetry.counter("stabilizer.kernel.dense.calls")
        telemetry.counter("stabilizer.kernel.dense.states", value=stab_x.shape[0])
        return stabilizer_expectations(
            stab_x, stab_z, signs, destab_x, destab_z, self._term_x, self._term_z
        )

    def _values_grouped(self, stab_x, stab_z, signs, destab_x, destab_z) -> np.ndarray:
        batch = stab_x.shape[0]
        context = group_reduction_context(
            stab_x, stab_z, signs, destab_x, destab_z, self._num_qubits
        )
        values = np.zeros((batch, self.num_terms), dtype=np.int8)
        for indices, rep_x, rep_z, support_t, y_term in self._group_data:
            values[:, indices] = stabilizer_group_expectations(
                context, rep_x, rep_z, support_t, y_term
            )
        telemetry.counter("stabilizer.kernel.grouped.calls")
        telemetry.counter("stabilizer.kernel.grouped.states", value=batch)
        telemetry.counter(
            "stabilizer.kernel.grouped.group_passes", value=len(self._group_data)
        )
        return values
