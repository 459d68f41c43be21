"""Maximum-weight perfect matching on the complete consumer-item graph.

The solver is the shortest augmenting path method of Jonker and
Volgenant (1987), written for dense integer matrices.  It minimises the
cost ``cost[i][j] = colmax[j] - values[i][j]``, in which every column's
best entries are zero and all entries lie in 0..M with
M = ``max_entry_for(n)``.  The cost matrix is never built: the solver
keeps h = colmax - pot, with pot the column potentials of ``cost``, and
reads the reduced cost of row i as ``h - values[i]``, so it holds no
n x n array but the input and the n x n booleans of step 1.  It runs in
three steps:

1. Column reduction.  Each column goes to one of its zero-cost rows,
   preferring a row that is still free, so that tied columns spread
   over the rows instead of piling onto one.
2. Augmenting row reduction.  A free row takes its cheapest column at
   reduced cost; when that column is held, its h rises by the gap to
   the row's second-cheapest column and the holder is freed to bid in
   turn.  Each pass stops after a fixed number of steps per row,
   which keeps the bound O(n^3): without a cap this step's progress
   depends on the size of the entries.
3. Shortest augmenting paths.  Each row still free grows one Dijkstra
   tree over the reduced costs until it reaches a free column.  A step
   relaxes the tentative lengths with one elementwise minimum and keeps
   no predecessors: once the path is found, each column on it goes to
   the first row, in scan order, that reaches it at its final length,
   which is the row a strict ``<`` update would have kept.  h is
   updated once per augmentation, not once per step.

Both loops write a row's reduced costs into one buffer of n entries,
allocated once per call.

All arithmetic is int64 and exact.  h only ever grows, a free column's
h never moves from colmax, and every matched row is at its minimum
reduced cost.  Together these keep h in colmax..colmax+M, a subset of
0..2M, every reduced cost ``h[j] - values[i][j]`` in 0..2M and every
path length the search compares in 0..3M (0..2M when n = 2, where 3M
would not fit: the only column a path can still reach there is free),
so nothing wraps for any valid matrix.

The factorial brute-force oracle that cross-checks it on small
instances lives with the tests, in ``tests/helpers.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import INT64_MAX, Allocation, ValuationMatrix, rows_per_block

#: Augmenting row reduction steps allowed per row in each of its passes.
ARR_STEPS_PER_ROW = 4


@dataclass(frozen=True)
class MatchingResult:
    """An optimal allocation, the matcher's only output.

    A one-field record rather than the bare allocation, because the
    benchmark's checks read ``solve_assignment(v).allocation``.
    """

    allocation: Allocation


def solve_assignment(v: ValuationMatrix) -> MatchingResult:
    """Compute a maximum-weight perfect matching of items to consumers.

    Deterministic: a given matrix always yields the same allocation.
    Which of several optimal allocations is returned is not specified;
    the prices derived from any of them are the same.
    """
    n = v.n
    values = v.values
    h = values.max(axis=0)
    row_of_col, col_of_row = _reduce_columns(values == h)
    free = [i for i in range(n) if col_of_row[i] < 0]
    row = np.empty(n, dtype=np.int64)  # h - values[i] for the row in hand
    for _ in range(2):  # two passes, as Jonker and Volgenant run it
        if not free:
            break
        free = _reduce_rows(values, h, row_of_col, col_of_row, free, row)
    for root in free:
        _augment(values, h, row_of_col, col_of_row, root, row)

    return MatchingResult(Allocation(np.array(col_of_row, dtype=np.int64)))


def _reduce_columns(tight: np.ndarray) -> tuple[list[int], list[int]]:
    """Give each column, in index order, a row where it costs zero.

    tight[i][j] marks the zero-cost entries.  A column takes its lowest
    such row that is still free and stays free when there is none.
    """
    n = tight.shape[0]
    # Each column's first tight row and its count of tight rows, read in
    # blocks of at most 255 rows, so that a uint8 count cannot wrap:
    # argmax down the columns of the whole matrix would make a
    # transposed copy of it.  argmax runs only on the columns that a
    # block reaches first.
    first = np.full(n, n, dtype=np.int64)
    count = np.zeros(n, dtype=np.int64)
    step = min(255, rows_per_block(n, itemsize=1))
    for lo in range(0, n, step):
        rows = tight[lo : lo + step].view(np.uint8)
        hits = rows.sum(axis=0, dtype=np.uint8)
        count += hits
        cols = np.flatnonzero((first == n) & (hits > 0))
        first[cols] = lo + rows[:, cols].argmax(axis=0)
    first = first.tolist()
    tied = (count > 1).tolist()
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


def _reduce_rows(values, h, row_of_col, col_of_row, free: list[int], reduced) -> list[int]:
    """One pass of augmenting row reduction; returns the rows left free.

    A free row takes its cheapest column at reduced cost ``h - values[i]``,
    at once when that column is free.  If another row holds it, the
    column's h rises by the gap between the row's two cheapest reduced
    costs and the holder bids next.  On a tie there is no gap: the row
    takes its second-cheapest column instead and a displaced holder
    waits for the next pass.  The pass stops after ARR_STEPS_PER_ROW
    steps per row of the matrix.
    reduced is the n-entry buffer the row's reduced costs are written to.
    """
    pending = free[::-1]  # a stack: the next row to bid is at the end
    deferred = []
    for _ in range(ARR_STEPS_PER_ROW * len(row_of_col)):
        if not pending:
            break
        i = pending.pop()
        np.subtract(h, values[i], out=reduced)
        j1 = int(reduced.argmin())
        holder = row_of_col[j1]
        if holder < 0:
            # A free column is taken as it is: no gap, no second column.
            row_of_col[j1] = i
            col_of_row[i] = j1
            continue
        u1 = reduced.item(j1)
        reduced[j1] = INT64_MAX
        j2 = int(reduced.argmin())
        u2 = reduced.item(j2)
        if u1 < u2:
            h[j1] += u2 - u1
        else:
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


def _augment(values, h, row_of_col, col_of_row, root: int, cand) -> None:
    """Match a free row through one shortest path to a free column.

    dist holds each column's tentative path length from root; a column
    whose length is final is marked -1, which is larger than every length
    when read as unsigned and smaller than every length when compared
    signed, so neither the minimum search nor the relaxation touches it.
    Scanning column j, held by row i at length mu, writes row i's
    lengths ``h - values[i] - offset`` into the buffer cand, where
    ``offset = h[j] - values[i][j] - mu``, and takes the elementwise
    minimum with dist.  Row i is at its minimum reduced cost in column
    j, so every entry of cand is at least mu >= 0 and the -1 marks stay.

    No predecessor is kept during the search.  Each scanned row is kept
    with its offset, root first with offset 0.  Once the path is found,
    each column on it goes to the first row, among those scanned before
    the column's length became final, that reaches it at that length.
    A strict ``<`` update of a predecessor array keeps the same row:
    lengths only fall, so the last row that lowered a column is the
    first that reached its final length.  Scanned columns keep their
    lengths in a list, and their h values rise by (mu - length) once the
    path of length mu is found and walked.
    """
    n = values.shape[0]
    dist = h - values[root]
    unsigned = dist.view(np.uint64)
    free_cols = np.array([j for j in range(n) if row_of_col[j] < 0], dtype=np.int64)
    scanned = []
    lengths = []
    rows = [root]  # rows[t + 1] holds scanned[t]
    offsets = [0]
    while True:
        j = int(unsigned.argmin())
        mu = dist.item(j)
        i = row_of_col[j]
        if i < 0:
            break
        if lengths and lengths[-1] == mu:
            # Columns tie at this length: a free one among them ends the
            # path now, instead of after every tied column is scanned.
            free_dist = dist.take(free_cols)
            k = int(free_dist.argmin())
            if free_dist.item(k) == mu:
                j = free_cols.item(k)
                break
        scanned.append(j)
        lengths.append(mu)
        dist[j] = -1
        # Row i reaches its own column j at length mu; its other columns
        # cost their reduced cost more.
        np.subtract(h, values[i], out=cand)
        offset = cand.item(j) - mu
        cand -= offset
        np.minimum(dist, cand, out=dist)
        rows.append(i)
        offsets.append(offset)
    # Walk the path back from its free column j, whose final length is
    # mu and which every scanned row could reach.  The column that the
    # chosen row rows[t] leaves is scanned[t - 1]: rows[:t] reached it.
    reached = len(rows)
    length = mu
    if reached > 1:
        row_index = np.array(rows, dtype=np.int64)
        row_offset = np.array(offsets, dtype=np.int64)
    while True:
        t = 0
        if reached > 1:
            hit = h.item(j) - values[row_index[:reached], j] - row_offset[:reached] == length
            t = int(hit.argmax())
        i = rows[t]
        row_of_col[j] = i
        col_of_row[i], j = j, col_of_row[i]
        if t == 0:
            break
        reached = t
        length = lengths[t - 1]
    if scanned:
        h[scanned] += mu - np.array(lengths, dtype=np.int64)
