"""Maximum-weight perfect matching on the complete consumer-item graph.

The solver is the shortest augmenting path method of Jonker and
Volgenant (1987), written for dense integer matrices.  It minimises the
cost ``cost[i][j] = colmax[j] - values[i][j]``, in which every column's
best entries are zero and all entries lie in 0..M with
M = ``max_entry_for(n)``, in three steps:

1. Column reduction.  Each column goes to one of its zero-cost rows,
   preferring a row that is still free, so that tied columns spread
   over the rows instead of piling onto one.
2. Augmenting row reduction.  A free row takes its cheapest column at
   reduced cost; when that column is held, its potential drops by the
   gap to the row's second-cheapest column and the holder is freed to
   bid in turn.  Each pass stops after a fixed number of steps per row,
   which keeps the bound O(n^3): without a cap this step's progress
   depends on the size of the entries.
3. Shortest augmenting paths.  Each row still free grows one Dijkstra
   tree over the reduced costs until it reaches a free column.  The
   column potentials are updated once per augmentation, not once per
   step.

Alongside the matching the solver returns integer row/column potentials
so that callers can verify optimality through the standard dual
certificate:

    row_pot[i] + col_pot[j] >= values[i][j]   for all i, j
    row_pot[i] + col_pot[j] == values[i][j]   on matched pairs

which together imply the matching weight equals the potential sum and no
permutation can do better.

All arithmetic is int64 and exact.  The column potentials of ``cost``
only ever decrease, a free column's never moves from zero, and every
matched row is at its minimum reduced cost.  Together these keep every
potential in -M..0, every reduced cost in 0..2M and every path length
the search compares in 0..3M (0..2M when n = 2, where 3M would not fit:
the only column a path can still reach there is free), so nothing wraps
for any valid matrix.

A factorial brute-force oracle is provided for cross-checking on small
instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import INT64_MAX, Allocation, InstanceTooLargeError, ValuationMatrix

#: Augmenting row reduction steps allowed per row in each of its passes.
ARR_STEPS_PER_ROW = 4

#: Hard guard for the factorial oracle.
BRUTE_FORCE_LIMIT = 10


@dataclass(frozen=True)
class MatchingResult:
    """An optimal allocation plus the solver's dual potentials.

    dual_potentials is a (row, column) pair of integer vectors when the
    solver emits them (the brute-force oracle does not).
    """

    allocation: Allocation
    dual_potentials: Optional[tuple[np.ndarray, np.ndarray]] = None

    def __post_init__(self):
        if self.dual_potentials is not None:
            for vec in self.dual_potentials:
                vec.flags.writeable = False


def solve_assignment(v: ValuationMatrix) -> MatchingResult:
    """Compute a maximum-weight perfect matching of items to consumers.

    Deterministic: a given matrix always yields the same allocation and
    potentials.  Which of several optimal allocations is returned is not
    specified; the prices derived from any of them are the same.
    """
    n = v.n
    values = v.values
    colmax = values.max(axis=0)
    cost = colmax - values
    pot = np.zeros(n, dtype=np.int64)
    row_of_col, col_of_row = _reduce_columns(values == colmax)
    free = [i for i in range(n) if col_of_row[i] < 0]
    for _ in range(2):  # two passes, as Jonker and Volgenant run it
        if not free:
            break
        free = _reduce_rows(cost, pot, row_of_col, col_of_row, free)
    for root in free:
        _augment(cost, pot, row_of_col, col_of_row, root)

    assignment = np.array(col_of_row, dtype=np.int64)
    row_pot = pot[assignment] - cost[np.arange(n), assignment]
    allocation = Allocation.from_assignment(v, assignment)
    return MatchingResult(
        allocation=allocation,
        dual_potentials=(row_pot, colmax - pot),
    )


def _reduce_columns(tight: np.ndarray) -> tuple[list[int], list[int]]:
    """Give each column, in index order, a row where it costs zero.

    tight[i][j] marks the zero-cost entries.  A column takes its lowest
    such row that is still free and stays free when there is none.
    """
    n = tight.shape[0]
    first = tight.argmax(axis=0).tolist()
    tied = (tight.sum(axis=0) > 1).tolist()
    row_free = np.ones(n, dtype=bool)
    row_of_col = [-1] * n
    col_of_row = [-1] * n
    for j in range(n):
        i = first[j]
        if col_of_row[i] >= 0:
            if not tied[j]:
                continue
            candidates = tight[:, j] & row_free
            i = int(candidates.argmax())
            if not candidates[i]:
                continue
        row_of_col[j] = i
        col_of_row[i] = j
        row_free[i] = False
    return row_of_col, col_of_row


def _reduce_rows(cost, pot, row_of_col, col_of_row, free: list[int]) -> list[int]:
    """One pass of augmenting row reduction; returns the rows left free.

    A free row takes its cheapest column at reduced cost.  If another row
    holds that column, the column's potential drops by the gap between
    the row's two cheapest reduced costs and the holder bids next.  On a
    tie there is no gap: the row takes its second-cheapest column instead
    and a displaced holder waits for the next pass.  The pass stops after
    ARR_STEPS_PER_ROW steps per row of the matrix.
    """
    pending = free[::-1]  # a stack: the next row to bid is at the end
    deferred = []
    for _ in range(ARR_STEPS_PER_ROW * len(row_of_col)):
        if not pending:
            break
        i = pending.pop()
        reduced = cost[i] - pot
        j1 = int(reduced.argmin())
        u1 = int(reduced[j1])
        reduced[j1] = INT64_MAX
        j2 = int(reduced.argmin())
        u2 = int(reduced[j2])
        holder = row_of_col[j1]
        if u1 < u2:
            if holder >= 0:
                pot[j1] -= u2 - u1
        elif holder >= 0:
            j1 = j2
            holder = row_of_col[j2]
        row_of_col[j1] = i
        col_of_row[i] = j1
        if holder >= 0:
            col_of_row[holder] = -1
            if u1 < u2:
                pending.append(holder)
            else:
                deferred.append(holder)
    return pending[::-1] + deferred


def _augment(cost, pot, row_of_col, col_of_row, root: int) -> None:
    """Match a free row through one shortest path to a free column.

    dist holds each column's tentative path length from root; a column
    whose length is final is marked -1, which is larger than every length
    when read as unsigned and smaller than every length when compared
    signed, so neither the minimum search nor the relaxation touches it.
    Scanned columns keep their lengths in a list, and their potentials
    move by (length - mu) once the path of length mu is found.
    """
    n = cost.shape[0]
    dist = cost[root] - pot
    unsigned = dist.view(np.uint64)
    pred = np.full(n, root, dtype=np.int64)
    cand = np.empty(n, dtype=np.int64)
    better = np.empty(n, dtype=bool)
    free_cols = np.array([j for j in range(n) if row_of_col[j] < 0], dtype=np.int64)
    scanned = []
    lengths = []
    while True:
        j = int(unsigned.argmin())
        mu = int(dist[j])
        i = row_of_col[j]
        if i < 0:
            break
        if lengths and lengths[-1] == mu:
            # Columns tie at this length: a free one among them ends the
            # path now, instead of after every tied column is scanned.
            free_dist = dist.take(free_cols)
            k = int(free_dist.argmin())
            if free_dist[k] == mu:
                j = int(free_cols[k])
                break
        scanned.append(j)
        lengths.append(mu)
        dist[j] = -1
        # Row i reaches its own column j at length mu; its other columns
        # cost their reduced cost more.
        np.subtract(cost[i], pot, out=cand)
        cand -= int(cost[i, j]) - int(pot[j]) - mu
        np.less(cand, dist, out=better)
        np.copyto(dist, cand, where=better)
        np.copyto(pred, i, where=better)
    if scanned:
        pot[scanned] -= mu - np.array(lengths, dtype=np.int64)
    while True:
        i = int(pred[j])
        row_of_col[j] = i
        col_of_row[i], j = j, col_of_row[i]
        if i == root:
            break


def brute_force_assignment(v: ValuationMatrix) -> MatchingResult:
    """Exact maximum by enumerating all n! assignments.

    Among equal-weight maxima the lexicographically smallest assignment
    is returned.  Guarded to n <= 10.
    """
    n = v.n
    if n > BRUTE_FORCE_LIMIT:
        raise InstanceTooLargeError(
            f"brute-force enumeration limited to n <= {BRUTE_FORCE_LIMIT}, got {n}"
        )
    rows = np.arange(n)
    perms = itertools.permutations(range(n))
    best_weight = -1
    best = None
    while True:
        chunk = list(itertools.islice(perms, 40320))
        if not chunk:
            break
        block = np.array(chunk, dtype=np.int64)
        weights = v.values[rows, block].sum(axis=1)
        k = int(np.argmax(weights))
        if int(weights[k]) > best_weight:
            best_weight = int(weights[k])
            best = block[k]
    return MatchingResult(allocation=Allocation(assignment=best, weight=best_weight))
