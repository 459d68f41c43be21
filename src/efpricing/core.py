"""Core data types for unit-demand market instances.

A market has n consumers and n items, each item in unit supply and each
consumer buying exactly one item.  Valuations are nonnegative integers;
all arithmetic in this package is exact 64-bit integer arithmetic, which
makes equality checks between independently computed prices exact rather
than tolerance-based.

Index convention: rows are consumers, columns are items.  After an
allocation is applied (:func:`reorder`), index i refers simultaneously to
item i and to the consumer who won item i.

Ownership: :class:`ValuationMatrix`, and :class:`ReorderedValuation`
for its source matrix, wrap an int64, C-contiguous array that owns its
data as it is, without a copy, and mark it read-only, so the caller's
array can no longer be written.  Any other input (a list, a view, a
non-contiguous or non-int64 array) is copied first.

No n x n integer array is derived from the matrix on the solve path.
:func:`reorder` returns a :class:`ReorderedValuation`: one O(n) view
that holds the source matrix, the item-to-consumer order and the
winning valuations, and checks on construction that they fit together.
It is both the reordered matrix and the utility-gap matrix, so
:func:`build_gap_matrix` returns it unchanged.  Its ``values`` and
``gaps`` are built only on demand, by the tests.  The solver reads
the source rows in blocks instead (:func:`row_blocks`), so one solve
holds the valuation matrix and O(n) state besides, plus the matcher's
n x n booleans and the arcs efpm keeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Largest magnitude allowed for a single valuation entry of an n x n
#: matrix, chosen so that any sum of n entries fits in signed 64 bits.
INT64_MAX = 2**63 - 1
INT64_MIN = -(2**63)

#: The fewest entries in a block of the int64 rows that :func:`row_blocks`
#: reads a matrix in: 64 KiB.  A pass that keeps part of what it reads
#: (efpm's arcs, the checks' tight arcs) holds the block buffer besides,
#: and numpy allocates a buffer of as many entries for each broadcasting
#: operation on the block, so the block is kept well below a matrix of
#: a few hundred rows.  Larger matrices are read in blocks of a 64th of
#: them, so that a pass costs few numpy calls per row.
_ROW_BLOCK = 1 << 13


class InstanceTooLargeError(ValueError):
    """Raised when an exhaustive-search utility is asked to handle an
    instance beyond its factorial/exponential size guard."""


def max_entry_for(n: int) -> int:
    """Largest per-entry value such that summing n entries cannot overflow."""
    return INT64_MAX // max(n, 1)


def rows_per_block(n: int, itemsize: int = 8) -> int:
    """Rows of an n x n matrix of itemsize-byte entries in one block.

    A block takes as many bytes as max(``_ROW_BLOCK``, n * n // 64)
    int64 entries.
    """
    return max(1, max(_ROW_BLOCK, n * n // 64) * 8 // itemsize // n)


def row_blocks(matrix: np.ndarray, dtype=np.int64):
    """Yield (first row, rows, scratch) for each block of matrix's rows.

    Blocks are sized by :func:`rows_per_block`.  scratch has the block's
    shape and the given dtype; it is a view of one buffer, reused by
    every block and freed with the generator.
    """
    step = min(rows_per_block(matrix.shape[1], np.dtype(dtype).itemsize), matrix.shape[0])
    buffer = np.empty((step, matrix.shape[1]), dtype=dtype)
    for lo in range(0, matrix.shape[0], step):
        rows = matrix[lo : lo + step]
        yield lo, rows, buffer[: rows.shape[0]]


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
        # Built before the matrix is indexed, so that an item index out of
        # range is refused as not a permutation.
        allocation = cls(assignment=arr, weight=0)
        weight = int(v.values[np.arange(v.n), allocation.assignment].sum())
        object.__setattr__(allocation, "weight", weight)
        return allocation

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
    """Valuation matrix with rows permuted by an allocation, and its gaps.

    Held as a view over three arrays: the source matrix, the
    item-to-consumer order and the winning valuations, winning[k] =
    source[order[k]][k].  Row i of ``values`` is the row of the consumer
    who won item i, so its diagonal holds the winning valuations and
    sums to the allocation weight.  ``gaps`` is the utility-gap matrix,
    gaps[j][k] = values[j][k] - winning[k]: the amount by which item j's
    winner would prefer item k over their own item if item k were
    priced at its winner's full valuation; its diagonal is identically
    zero.  Both are built anew, as read-only n x n arrays, each time
    they are read; the pricing methods read the source rows instead.  An
    explicit gap array g is the view (g, identity, zeros).

    When the allocation is welfare-optimal, every directed cycle over
    the gaps has nonpositive sum, which is what makes the pricing fixed
    point finite.
    """

    source: np.ndarray
    order: np.ndarray
    winning: np.ndarray

    def __post_init__(self):
        source = _as_int_matrix(self.source)
        if source.ndim != 2 or source.shape[0] != source.shape[1]:
            raise ValueError(f"gap matrix must be square, got shape {source.shape}")
        n = source.shape[0]
        order = np.array(self.order, dtype=np.int64)
        winning = np.array(self.winning, dtype=np.int64)
        if order.shape != (n,) or winning.shape != (n,):
            raise ValueError(
                f"order {order.shape} and winning {winning.shape} must have length {n}"
            )
        if not np.array_equal(np.sort(order), np.arange(n)):
            raise ValueError("order must be a permutation of 0..n-1")
        if not np.array_equal(source[order, np.arange(n)], winning):
            raise ValueError("gap matrix diagonal must be zero")
        for name, arr in (("source", source), ("order", order), ("winning", winning)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.order.shape[0]

    @property
    def values(self) -> np.ndarray:
        arr = np.take(self.source, self.order, axis=0)
        arr.flags.writeable = False
        return arr

    @property
    def gaps(self) -> np.ndarray:
        arr = np.take(self.source, self.order, axis=0)
        arr -= self.winning
        arr.flags.writeable = False
        return arr


def reorder(v: ValuationMatrix, a: Allocation) -> ReorderedValuation:
    """Permute rows of v so that row i belongs to the winner of item i.

    Equivalent to multiplying by the transpose of the allocation's
    permutation matrix.  The winning valuations of the result sum to the
    allocation weight.
    """
    if a.n != v.n:
        raise ValueError(f"allocation size {a.n} does not match matrix size {v.n}")
    order = a.item_to_consumer()
    winning = v.values[order, np.arange(v.n)]
    return ReorderedValuation(source=v.values, order=order, winning=winning)


def build_gap_matrix(vp: ReorderedValuation) -> ReorderedValuation:
    """The gap matrix of vp: vp itself, whose ``gaps`` it is."""
    return vp
