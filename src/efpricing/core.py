"""Core data types for unit-demand market instances.

A market has n consumers and n items, each item in unit supply and each
consumer buying exactly one item.  Valuations are nonnegative integers;
all arithmetic in this package is exact 64-bit integer arithmetic, which
makes equality checks between independently computed prices exact rather
than tolerance-based.

Index convention: rows are consumers, columns are items.  After an
allocation is applied (:func:`reorder`), index i refers simultaneously to
item i and to the consumer who won item i.

Ownership: every value type (the three here, and pricing's
UtilityVector and PriceVector) takes an int64, C-contiguous array that
owns its data as it is, without a copy, and marks it read-only, so the
caller's array can no longer be written.  Any other input (a list, a
view, a Fortran-order or non-int64 array) is copied, in C order.  A
non-integer dtype, or a uint64 entry above the int64 range, is refused.
No value type takes as an input a field that can be derived from its
others: an :class:`Allocation` is its permutation alone, and a view
derives its winning valuations.  The value types compare and hash by
identity: an array field has no single truth value, so a generated
field-wise ``==`` would raise.

No n x n integer array is derived from the matrix on the solve path.
:func:`reorder` returns a :class:`ReorderedValuation`: one O(n) view
that holds the source matrix and the item-to-consumer order, and
derives the winning valuations from them.  An explicit gap array g,
whose diagonal is zero, is the view (g, identity).  The view stands for
both the reordered matrix and the utility-gap matrix, so
:func:`build_gap_matrix` returns it unchanged, and it builds neither as
an array: the solver reads the source rows in blocks instead
(:func:`row_blocks`), so one solve holds the valuation matrix and O(n)
state besides, plus the matcher's n x n booleans and the arcs efpm
keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def _int64_array(values, what: str, check=None) -> np.ndarray:
    """values as a read-only, C-contiguous int64 array (see Ownership).

    ``astype`` would truncate 0.7 to 0, read True as 1 and wrap a uint64
    above INT64_MAX, so those are refused.  check(arr) runs before the
    array is frozen, so that an array it refuses stays writeable.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        raise TypeError(f"integer {what} required, got dtype {arr.dtype}")
    if not (arr.dtype == np.int64 and arr.flags.c_contiguous and arr.flags.owndata):
        if arr.dtype.kind == "u" and arr.size and arr.max() > INT64_MAX:
            raise ValueError(f"{what} must lie in the int64 range {INT64_MIN}..{INT64_MAX}")
        arr = arr.astype(np.int64, order="C")
    if check is not None:
        check(arr)
    arr.flags.writeable = False
    return arr


def _square(arr: np.ndarray) -> None:
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"valuation matrix must be square, got shape {arr.shape}")


def _permutation(values, what: str, n: int | None = None) -> np.ndarray:
    """:func:`_int64_array` of a permutation of 0..n-1, n its length by default."""
    def check(arr):
        if arr.ndim != 1:
            raise ValueError(f"{what} must be a flat index array")
        if n is not None and arr.shape[0] != n:
            raise ValueError(f"{what} length {arr.shape[0]} does not match matrix size {n}")
        if not np.array_equal(np.sort(arr), np.arange(arr.shape[0])):
            raise ValueError(f"{what} must be a permutation of 0..n-1")

    return _int64_array(values, what, check)


@dataclass(frozen=True, eq=False)
class ValuationMatrix:
    """Square matrix of consumer valuations, values[i][j] = value that
    consumer i assigns to item j.

    Entries are nonnegative and bounded so that any n-entry sum stays
    within signed 64-bit range.  Instances are immutable and safe to
    share across threads.
    """

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _int64_array(self.values, "valuations", self._check))

    @staticmethod
    def _check(arr: np.ndarray) -> None:
        _square(arr)
        n = arr.shape[0]
        if n < 1:
            raise ValueError("valuation matrix must have n >= 1")
        if arr.min() < 0:
            raise ValueError("valuations must be nonnegative")
        if arr.max() > max_entry_for(n):
            raise ValueError(
                f"valuation entries above {max_entry_for(n)} may overflow n-entry sums"
            )

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class Allocation:
    """A perfect matching of items to consumers.

    assignment[i] is the item given to consumer i; assignment is a
    permutation of 0..n-1.  The allocation holds nothing else: its
    weight on a valuation matrix is derived from that matrix, and
    :func:`reorder` and the certificate check that the sizes agree.
    """

    assignment: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "assignment", _permutation(self.assignment, "assignment"))

    @property
    def n(self) -> int:
        return self.assignment.shape[0]

    def item_to_consumer(self) -> np.ndarray:
        """Inverse permutation: entry i is the consumer who won item i."""
        inv = np.empty(self.n, dtype=np.int64)
        inv[self.assignment] = np.arange(self.n)
        return inv


@dataclass(frozen=True, eq=False)
class ReorderedValuation:
    """Valuation matrix with rows permuted by an allocation, and its gaps.

    Built from two arrays, the source matrix and the item-to-consumer
    order, it derives the winning valuations winning[k] =
    source[order[k]][k] from them.  Row i of the reordered matrix V' is
    source[order[i]], the row of the consumer who won item i, so its
    diagonal holds the winning valuations and sums to the allocation
    weight.  The utility-gap matrix is gaps[j][k] = V'[j][k] -
    winning[k]: the amount by which item j's winner would prefer item k
    over their own item if item k were priced at its winner's full
    valuation; its diagonal is identically zero.  Neither is held as an
    n x n array: the pricing methods read the source rows in blocks.  An
    explicit gap array g, whose diagonal is zero, is the view (g,
    identity).

    When the allocation is welfare-optimal, every directed cycle over
    the gaps has nonpositive sum, which is what makes the pricing fixed
    point finite.
    """

    source: np.ndarray
    order: np.ndarray
    winning: np.ndarray = field(init=False)

    def __post_init__(self):
        source = _int64_array(self.source, "valuations", _square)
        n = source.shape[0]
        order = _permutation(self.order, "order", n)
        winning = _int64_array(source[order, np.arange(n)], "winning valuations")
        for name, arr in (("source", source), ("order", order), ("winning", winning)):
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.order.shape[0]


def reorder(v: ValuationMatrix, a: Allocation) -> ReorderedValuation:
    """Permute rows of v so that row i belongs to the winner of item i.

    Equivalent to multiplying by the transpose of the allocation's
    permutation matrix.  The winning valuations of the result sum to the
    allocation weight.
    """
    if a.n != v.n:
        raise ValueError(f"allocation size {a.n} does not match matrix size {v.n}")
    return ReorderedValuation(v.values, a.item_to_consumer())


def build_gap_matrix(vp: ReorderedValuation) -> ReorderedValuation:
    """The gap matrix of vp: vp itself, whose ``gaps`` it is."""
    return vp
