"""Core data types for unit-demand market instances.

A market has n consumers and n items, each item in unit supply and each
consumer buying exactly one item.  Valuations are nonnegative integers;
all arithmetic in this package is exact 64-bit integer arithmetic, which
makes equality checks between independently computed prices exact rather
than tolerance-based.

Index convention: rows are consumers, columns are items.  After an
allocation is applied (:func:`reorder`), index i refers simultaneously to
item i and to the consumer who won item i.

Ownership: :class:`ValuationMatrix` and :class:`UtilityGapMatrix` wrap an
int64, C-contiguous array that owns its data as it is, without a copy,
and mark it read-only, so the caller's array can no longer be written.
Any other input (a list, a view, a non-contiguous or non-int64 array) is
copied first.  :func:`reorder` copies nothing either: a
:class:`ReorderedValuation` holds the source matrix, the item-to-consumer
order and the winning valuations, and builds its ``values`` on demand.
:func:`build_gap_matrix` then gathers the rows and subtracts the winning
valuations in place, so one solve holds the valuation matrix, the gap
matrix and O(n) state besides.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

#: Largest magnitude allowed for a single valuation entry of an n x n
#: matrix, chosen so that any sum of n entries fits in signed 64 bits.
INT64_MAX = 2**63 - 1
INT64_MIN = -(2**63)


class InstanceTooLargeError(ValueError):
    """Raised when an exhaustive-search utility is asked to handle an
    instance beyond its factorial/exponential size guard."""


def max_entry_for(n: int) -> int:
    """Largest per-entry value such that summing n entries cannot overflow."""
    return INT64_MAX // max(n, 1)


def _owned_int64(arr) -> bool:
    """Whether a wrapper may keep arr itself instead of a copy."""
    return (
        type(arr) is np.ndarray
        and arr.dtype == np.int64
        and arr.flags.c_contiguous
        and arr.flags.owndata
    )


def _as_int_matrix(values) -> np.ndarray:
    if _owned_int64(values):
        return values
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        raise TypeError(f"integer valuations required, got dtype {arr.dtype}")
    return arr.astype(np.int64)


@dataclass(frozen=True)
class ValuationMatrix:
    """Square matrix of consumer valuations, values[i][j] = value that
    consumer i assigns to item j.

    Entries are nonnegative and bounded so that any n-entry sum stays
    within signed 64-bit range.  Instances are immutable and safe to
    share across threads.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = _as_int_matrix(self.values)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"valuation matrix must be square, got shape {arr.shape}")
        n = arr.shape[0]
        if n < 1:
            raise ValueError("valuation matrix must have n >= 1")
        if arr.min() < 0:
            raise ValueError("valuations must be nonnegative")
        if arr.max() > max_entry_for(n):
            raise ValueError(
                f"valuation entries above {max_entry_for(n)} may overflow n-entry sums"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class Allocation:
    """A perfect matching of items to consumers.

    assignment[i] is the item given to consumer i; assignment is a
    permutation of 0..n-1.  weight is the total valuation collected by
    the allocation on its source matrix.
    """

    assignment: np.ndarray
    weight: int

    def __post_init__(self):
        arr = np.array(self.assignment, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("assignment must be a flat index array")
        n = arr.shape[0]
        if not np.array_equal(np.sort(arr), np.arange(n)):
            raise ValueError("assignment must be a permutation of 0..n-1")
        arr.flags.writeable = False
        object.__setattr__(self, "assignment", arr)
        object.__setattr__(self, "weight", int(self.weight))

    @classmethod
    def from_assignment(cls, v: ValuationMatrix, assignment) -> "Allocation":
        """Build an allocation, recomputing its weight from the matrix."""
        arr = np.asarray(assignment, dtype=np.int64)
        if arr.shape != (v.n,):
            raise ValueError(
                f"assignment length {arr.shape} does not match matrix size {v.n}"
            )
        weight = int(v.values[np.arange(v.n), arr].sum())
        return cls(assignment=arr, weight=weight)

    @property
    def n(self) -> int:
        return self.assignment.shape[0]

    def item_to_consumer(self) -> np.ndarray:
        """Inverse permutation: entry i is the consumer who won item i."""
        inv = np.empty(self.n, dtype=np.int64)
        inv[self.assignment] = np.arange(self.n)
        return inv


@dataclass(frozen=True)
class ReorderedValuation:
    """Valuation matrix with rows permuted by an allocation, built lazily.

    Row i of ``values`` is the valuation row of the consumer who received
    item i, so the diagonal holds each item's winning valuation and the
    trace equals the allocation weight.  Only the source matrix, the
    item-to-consumer order and the winning valuations are kept; ``values``
    is gathered anew, as a read-only n x n array, each time it is read.
    """

    source: np.ndarray
    order: np.ndarray
    winning: np.ndarray

    @property
    def n(self) -> int:
        return self.order.shape[0]

    @property
    def values(self) -> np.ndarray:
        arr = np.take(self.source, self.order, axis=0)
        arr.flags.writeable = False
        return arr

    @property
    def trace(self) -> int:
        return int(self.winning.sum())

    def winning_valuations(self) -> np.ndarray:
        return self.winning


@dataclass(frozen=True)
class UtilityGapMatrix:
    """Matrix of utility gaps between winners, gaps[j][k] = amount by
    which item j's winner would prefer item k over their own item if item
    k were priced at its winner's full valuation.

    The diagonal is identically zero.  When the source allocation is
    welfare-optimal, every directed cycle over the gaps has nonpositive
    sum, which is what makes the pricing fixed point finite.
    """

    gaps: np.ndarray

    def __post_init__(self):
        arr = self.gaps if _owned_int64(self.gaps) else np.array(self.gaps, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"gap matrix must be square, got shape {arr.shape}")
        if np.any(np.diagonal(arr) != 0):
            raise ValueError("gap matrix diagonal must be zero")
        arr.flags.writeable = False
        object.__setattr__(self, "gaps", arr)

    @property
    def n(self) -> int:
        return self.gaps.shape[0]


def reorder(v: ValuationMatrix, a: Allocation) -> ReorderedValuation:
    """Permute rows of v so that row i belongs to the winner of item i.

    Equivalent to multiplying by the transpose of the allocation's
    permutation matrix.  The trace of the result equals the allocation
    weight.
    """
    if a.n != v.n:
        raise ValueError(f"allocation size {a.n} does not match matrix size {v.n}")
    order = a.item_to_consumer()
    winning = v.values[order, np.arange(v.n)]
    winning.flags.writeable = False
    order.flags.writeable = False
    return ReorderedValuation(source=v.values, order=order, winning=winning)


def build_gap_matrix(vp: ReorderedValuation) -> UtilityGapMatrix:
    """Subtract each item's winning valuation from its column.

    One gather of the reordered rows, then an in-place subtraction: the
    gap matrix is the only n x n array made.
    """
    gaps = np.take(vp.source, vp.order, axis=0)
    gaps -= vp.winning
    return UtilityGapMatrix(gaps=gaps)


def check_cycle_nonpositivity(u: UtilityGapMatrix, max_cycle_len: int) -> bool:
    """Exhaustively test that every directed cycle of length at most
    max_cycle_len has nonpositive gap sum.

    A cycle (i1, ..., ir) is summed as gaps[i1][ir] + sum of
    gaps[i(k+1)][ik], i.e. following arcs from each index to the next.
    Exponential in max_cycle_len; intended as a certificate check on
    small instances.
    """
    n = u.n
    if max_cycle_len > n:
        raise ValueError(f"max_cycle_len {max_cycle_len} exceeds matrix size {n}")
    g = u.gaps
    for r in range(2, max_cycle_len + 1):
        for combo in itertools.combinations(range(n), r):
            first = combo[0]
            # Fix the smallest index first to enumerate each cyclic order once;
            # both orientations of a cycle appear as distinct orderings.
            for rest in itertools.permutations(combo[1:]):
                cycle = (first,) + rest
                total = g[cycle[0]][cycle[-1]]
                for k in range(r - 1):
                    total += g[cycle[k + 1]][cycle[k]]
                if total > 0:
                    return False
    return True
