"""Discrete search spaces for Bayesian optimization.

CAFQA's search space is one categorical variable per ansatz parameter, each
taking one of the four Clifford rotation indices {0, 1, 2, 3} (or one of the
eight pi/4 indices {0..7} with ``max_t_gates``).  The space
abstraction is kept generic (per-dimension cardinality) so the optimizer can
also be unit-tested on synthetic combinatorial problems.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.exceptions import OptimizationError

# Per-coordinate flip probability of a :meth:`DiscreteSpace.neighbors_array` mutant.
MUTATION_RATE = 0.15


class DiscreteSpace:
    """A product of finite categorical dimensions."""

    def __init__(self, cardinalities: Sequence[int]):
        cards = [int(c) for c in cardinalities]
        if not cards:
            raise OptimizationError("the search space needs at least one dimension")
        if any(c < 1 for c in cards):
            raise OptimizationError("every dimension needs at least one value")
        self._cardinalities = tuple(cards)
        self._cards = np.array(cards, dtype=np.int64)
        self._mutable = self._cards > 1
        # Key layout (see ``keys``): slot j sits at bit ``_shifts[j]`` of its
        # uint64 word, and word w holds the slots from ``_word_starts[w]`` on.
        shifts, word_starts, used = [], [0], 0
        for slot, bits in enumerate((c - 1).bit_length() for c in cards):
            if used + bits > 64:
                word_starts.append(slot)
                used = 0
            shifts.append(used)
            used += bits
        self._shifts = np.array(shifts, dtype=np.uint64)
        self._word_starts = np.array(word_starts)

    # ------------------------------------------------------------------ #
    @property
    def num_dimensions(self) -> int:
        return len(self._cardinalities)

    @property
    def size(self) -> int:
        """Total number of points in the space."""
        total = 1
        for cardinality in self._cardinalities:
            total *= cardinality
        return total

    def contains(self, point: Sequence[int]) -> bool:
        if len(point) != self.num_dimensions:
            return False
        return all(0 <= int(v) < c for v, c in zip(point, self._cardinalities))

    def validate(self, point: Sequence[int]) -> Tuple[int, ...]:
        if not self.contains(point):
            raise OptimizationError(f"point {tuple(point)} is outside the search space")
        return tuple(int(v) for v in point)

    def keys(self, rows: np.ndarray) -> np.ndarray:
        """One exact key per point of a ``(count, d)`` array, as a 1-D array.

        Points are packed into uint64 words at ``ceil(log2(cardinality))``
        bits per slot, no slot straddling two words.  A key is the word, or a
        void view of the words past one; ``tolist()`` gives ints or bytes.
        """
        shifted = np.asarray(rows, dtype=np.uint64) << self._shifts
        words = np.add.reduceat(shifted, self._word_starts, axis=1)
        if len(self._word_starts) == 1:
            return words[:, 0]
        return np.ascontiguousarray(words).view(f"V{8 * words.shape[1]}")[:, 0]

    def unique(self, rows: np.ndarray) -> Tuple[np.ndarray, list]:
        """``rows`` without repeats (first occurrences, in order), and their keys."""
        keys = self.keys(rows)
        _, first = np.unique(keys, return_index=True)
        first.sort()
        return rows[first], keys[first].tolist()

    # ------------------------------------------------------------------ #
    def sample_array(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform random samples (with replacement) as a ``(count, d)`` array.

        One vectorized draw for the whole block — the array-native hot path
        used by the optimizer's warm-up and candidate pools.
        """
        return rng.integers(0, self._cards, size=(int(count), len(self._cards)))

    def neighbors_array(
        self, point: Sequence[int], rng: np.random.Generator, count: int
    ) -> np.ndarray:
        """Random mutations of ``point`` as a ``(count, d)`` array.

        Each coordinate of each mutant flips with probability
        :data:`MUTATION_RATE` to a uniformly random *different* value (via a
        uniform non-zero offset modulo the cardinality).  A mutant with no
        flips gets one uniformly chosen coordinate flipped instead — like
        the per-point loop this replaces, that fallback draws over *all*
        dimensions, so in a mixed space it can land on a cardinality-1
        dimension and leave the mutant equal to ``point``.  In spaces whose
        dimensions all have at least two values (e.g. the Clifford space)
        every mutant differs from ``point``.
        """
        point = np.asarray(self.validate(point), dtype=np.int64)
        count = int(count)
        dims = len(self._cards)
        flip = rng.random((count, dims)) < MUTATION_RATE
        flip &= self._mutable
        # A uniform offset in [1, cardinality) modulo the cardinality is a
        # uniform draw over the values different from the current one.
        # Cardinality-1 dimensions never flip; clip keeps integers() happy.
        offsets = rng.integers(1, np.maximum(self._cards, 2), size=(count, dims))
        mutated = np.where(flip, (point + offsets) % self._cards, point)
        unchanged = ~flip.any(axis=1)
        if unchanged.any():
            stuck = np.nonzero(unchanged)[0]
            dimensions = rng.integers(0, dims, size=len(stuck))
            forced = (
                point[dimensions]
                + rng.integers(1, np.maximum(self._cards[dimensions], 2))
            ) % self._cards[dimensions]
            mutated[stuck, dimensions] = np.where(
                self._mutable[dimensions], forced, mutated[stuck, dimensions]
            )
        return mutated

    def __repr__(self) -> str:
        if len(set(self._cardinalities)) == 1:
            return f"DiscreteSpace({self.num_dimensions} dims x {self._cardinalities[0]})"
        return f"DiscreteSpace({self._cardinalities})"
