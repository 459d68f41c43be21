"""Revenue-maximizing envy-free prices for an optimal allocation.

Both methods run one fixed-point iteration: starting from the first
sweep applied to all-zero buyer utilities, they sweep the utility
vector y over the utility-gap matrix until it stops changing, at the
unique minimal stable fixed point.  They differ only in the sweep:

* :func:`prices_efpm` reads only the arcs that can still raise a
  utility.
* :func:`prices_bellman_ford` reads every arc.  Its sweep is the
  synchronous relaxation pass of the equivalent shortest-path problem
  (a virtual source connected to every item node, plus an arc of
  weight -gaps[j][k] per ordered item pair), written on utilities
  y = -d: y'[j] = max over k of y[k] + gaps[j][k], a dense row maximum
  over the gap matrix.

Both sweeps return the same vector from the same y, so the two methods
give the same iterates, sweep counts and refusals by construction.

Stability means y[j] >= y[k] + gaps[j][k] for all j != k: no item's
winner could gain by taking another item at that item's price.  Prices
are then p[j] = winning[j] - y[j], with the winning valuations that the
view derives from its order; a :class:`PriceVector` holds the prices
alone and sums them for its revenue.  This module holds only the
pricing methods; the certificate that their utilities are the minimal
stable vector, :func:`~efpricing.verify.minimality_certificate`, is the
envy-freeness check of :mod:`efpricing.verify` run on those prices.

Both methods are called as ``method(gaps, vp)``, the gap matrix and the
reordered matrix of the paper's pipeline.  One
:class:`~efpricing.core.ReorderedValuation` view is both
(``build_gap_matrix(vp)`` returns ``vp``), so everything is read from the
first argument, and a second argument that is not that same view
raises ValueError: a pair of different views would price one market
with another's winning valuations.  The two-argument shape stays so
that callers holding the pair, the benchmark's tracing among them,
keep passing it unchanged.

Neither method builds the gap matrix.  Both read the valuation rows of
the view in blocks of rows (:func:`~efpricing.core.row_blocks`) into
one reused buffer, and subtract the winning valuations there.  They
work in consumer-row order: row i of the source is the row of the
consumer who won some item j, and the tail k of an arc (j, k) is read
as the utility of item k's winner, so the rows are never gathered into
item order.

efpm prunes its sweeps exactly.  Each time it chooses its arcs, for
the utilities y_r of that moment and a threshold theta > max(y_r), it
keeps the arcs (j, k) whose slack y_r[j] - gaps[j][k] is below theta,
and the same pass returns the slack bound B, the least slack of the
dropped arcs (INT64_MAX when none is dropped).  The proof obligation is
that B >= theta, and that no dropped arc can raise y[j] while max(y) <=
B.  The first holds because a dropped arc's slack is at least theta.
For the second, utilities only rise, so while max(y) <= B a dropped arc
gives y[k] + gaps[j][k] <= B + gaps[j][k] <= y_r[j] <= y[j].  The
diagonal term of a sweep is y[j] itself, so no diagonal arc is stored.
Every sweep therefore returns the vector the dense sweep would.

The kept arcs are laid out in two levels, as the hybrid (ELL + COO)
format of sparse matrix-vector products splits short rows from long
ones (Bell and Garland, 2009): each row's first kept arc off the
diagonal goes into two length-n arrays, a tail and a weight, and the
rest go into a row-ordered list.  A sweep is one dense step, y'[j] =
max(y[j], y[tail[j]] + weight[j]), and then a segmented maximum over
the list, only for the rows that keep more than one arc.  On a chain,
where each row keeps at most the arc to its successor, the list is
empty and a sweep costs a few O(n) steps.

Only when max(y) passes B are the arcs chosen again, with theta = 2 *
max(y) and one blocked pass over the rows; B >= theta, so theta at
least doubles each time, and there are O(log max y) such choices.
max(y) itself is read only when it may have passed B: a sweep raises
it by at most the largest gap G, so the last value read plus G per
sweep since bounds it, and while that bound is at most B the arcs stay.
With gap entries in -M..M, M = ``max_entry_for(n)`` (the view's
source is the values of a :class:`~efpricing.core.ValuationMatrix`,
entries in 0..M), and utilities in 0..(n - 1) * M, every slack lies
in -M..n * M, within int64.  In the
worst case every arc stays kept, and a sweep costs O(n^2) as the dense
one does, with a larger constant; the O(n^3) bound stands.

Both methods require the allocation behind the gap matrix to be
welfare-optimal.  On other inputs the gap matrix contains a positive
cycle, the iterates grow forever, and the iteration aborts with
:class:`NonOptimalAllocation` instead of looping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import INT64_MAX, ReorderedValuation, _int64_array, row_blocks


class NonOptimalAllocation(ValueError):
    """The pricing input was not built from an optimal allocation.

    Detected when the utility iteration, with either method's sweep, is
    still changing after the n - 1 sweeps that optimal inputs provably
    need at most.  The ``sweeps`` attribute records how many sweeps ran
    before aborting, the first sweep from zero included.
    """

    def __init__(self, message: str, sweeps: int):
        super().__init__(message)
        self.sweeps = sweeps


@dataclass(frozen=True, eq=False)
class UtilityVector:
    """Converged buyer utilities plus the sweep count that produced them.

    At convergence y is the minimal nonnegative stable vector: it is a
    fixed point of the max-plus sweep, at least one entry is zero, and no
    entry can be lowered without breaking stability.
    """

    y: np.ndarray
    iterations_used: int

    def __post_init__(self):
        object.__setattr__(self, "y", _int64_array(self.y, "utilities", self._check))

    @staticmethod
    def _check(y: np.ndarray) -> None:
        if y.size and y.min() < 0:
            raise ValueError("utilities must be nonnegative")


@dataclass(frozen=True, eq=False)
class PriceVector:
    """Envy-free item prices; revenue is their exact sum."""

    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _int64_array(self.p, "prices"))

    @property
    def revenue(self) -> int:
        # Summed in Python integers: an int64 sum of n prices may wrap.
        return sum(self.p.tolist())


def prices_efpm(
    u: ReorderedValuation, vp: ReorderedValuation
) -> tuple[UtilityVector, PriceVector]:
    """Utility-iteration pricing.

    Starts from the row maxima of the gap matrix (the first sweep applied
    to all-zero utilities), filled in by the first arc choice, and passes
    its pruned sweep to the loop both methods share, which sweeps while
    any entry grows.  A largest gap of zero leaves the row maxima at
    zero, the fixed point, and no arc is chosen.

    Each sweep is y'[j] = max(y[j], max over kept k of y[k] +
    gaps[j][k]): a gather over each row's first kept arc off the
    diagonal, and a segmented maximum over the other kept arcs of the
    rows that have any (see :func:`_choose_arcs`).  Invariant: an arc
    (j, k) is kept when its slack y_r[j] - gaps[j][k] is below theta,
    where y_r is y when the arcs were last chosen and theta > max(y_r),
    and the same choice returns the slack bound B >= theta of the
    dropped arcs; no dropped arc can raise y[j] while max(y) <= B (see
    the module docstring), so every iterate equals the dense sweep's.
    When max(y) passes B, the arcs are chosen again with theta = 2 *
    max(y), capped at INT64_MAX; max(y) is read only once the bound
    from the largest gap per sweep passes B.  Worst case: nearly every
    arc stays kept, and a sweep costs O(n^2) as a dense one does, but
    about 1.5 to 2 times as long.

    With gap entries of at most M = max_entry_for(n) in magnitude, each
    sweep raises max(y) by at most M, so max(y) <= (n - 1) * M < INT64_MAX
    before every sweep that runs, even when the allocation is not
    optimal: the capped theta still exceeds max(y), and no slack
    y_r[j] - gaps[j][k] wraps.
    """
    _check_same_view(u, vp)
    # The largest gap is max(y) after the first sweep.
    gap = int((u.source.max(axis=0) - u.winning).max())
    if gap == 0:
        return _finish(u, np.zeros(u.n, dtype=np.int64), 0)
    # y[i] is the utility of the consumer of source row i; the arc tails
    # are those consumers' rows, so y is put in item order only at the end.
    y = np.empty(u.n, dtype=np.int64)
    arcs, bound = _choose_arcs(u, y, 2 * gap, fill=True)
    # A sweep raises max(y) by at most the largest gap, so top bounds
    # max(y) from above, and max(y) is read only when top passes B.
    top = gap

    def sweep(y):
        nonlocal arcs, bound, top
        if top > bound:
            top = y.item(y.argmax())
            if top > bound:
                arcs, bound = _choose_arcs(u, y, min(2 * top, INT64_MAX))
        first_tails, first_weights, weights, tails, segments, rows = arcs
        # The first level, then the diagonal: y itself.
        y_next = y[first_tails]
        y_next += first_weights
        np.maximum(y_next, y, out=y_next)
        if len(rows):
            reach = y[tails]
            reach += weights
            more = np.maximum.reduceat(reach, segments)
            y_next[rows] = np.maximum(more, y_next[rows], out=more)
        top += gap
        return y_next

    return _iterate(u, y, sweep)


def _choose_arcs(u: ReorderedValuation, y, theta: int, fill: bool = False):
    """The arcs efpm keeps for y_r = y and theta, and their slack bound.

    Returns ((first_tails, first_weights, weights, tails, segments,
    rows), bound): the kept arcs in two levels, and the least slack
    y_r[j] - gaps[j][k] of the dropped arcs, INT64_MAX if none is.
    The first level is one arc per row: first_tails[i] is the source row
    of the tail and first_weights[i] the gap of row i's first kept arc
    off the diagonal, or (i, 0), its diagonal, when it keeps none.  The
    rest of the kept arcs, in row order, are the second level: their
    gaps and tails, and, for each row that keeps any of them, its first
    arc among them (segments) and the row itself (rows).  With ``fill``,
    y is first filled with the row maxima, the first sweep from zero,
    block by block as the rows are read.  The pass keeps only the arcs'
    flat indices; their gaps are read again once its buffer is freed.
    """
    n = u.n
    arcs, bound = _kept_arcs(u, y, theta, fill)
    arcs = np.concatenate(arcs)
    bounds = np.searchsorted(arcs, np.arange(0, n * n + 1, n))
    starts = bounds[:-1]
    counts = bounds[1:] - starts
    # first holds each row's diagonal entry until its first arc off it
    # is known; diagonal holds their places among the arcs.
    first = np.arange(0, n * n, n)
    first[u.order] += np.arange(n)
    diagonal = np.searchsorted(arcs, first)
    # Every row keeps its diagonal (gap 0 > y_r[i] - theta, as theta >
    # max(y_r)), so a row's first arc off it is the first or the second
    # of its segment; a row that keeps no other arc takes its diagonal,
    # (i, 0).
    found = np.flatnonzero(counts > 1)
    after = starts[found]
    after += arcs[after] == first[found]
    first[found] = arcs[after]
    arcs = np.delete(arcs, np.concatenate((diagonal, after)))
    rows = np.flatnonzero(counts > 2)
    segments = np.searchsorted(arcs, rows * n)
    first_weights, first_tails = _read_arcs(u, first)
    weights, tails = _read_arcs(u, arcs)
    return (first_tails, first_weights, weights, tails, segments, rows), bound


def _kept_arcs(u: ReorderedValuation, y, theta: int, fill: bool):
    """The flat indices of the kept arcs, one array per block, and B.

    Each block's slack y_r[j] - gaps[j][k] is formed in the block
    buffer; an arc is kept where it is below theta.  The kept entries
    are then set to INT64_MAX, so the block's least slack is the least
    over its dropped arcs.  A function of its own, so that the block
    buffer is freed before the arcs are joined.
    """
    arcs = []
    bound = INT64_MAX
    for lo, rows, out in row_blocks(u.source):
        y_r = y[lo : lo + len(rows)]
        slack = np.subtract(rows, u.winning, out=out)
        if fill:
            slack.max(axis=1, out=y_r)
        np.subtract(y_r[:, np.newaxis], slack, out=slack)
        kept = np.flatnonzero(slack < theta)
        np.put(slack, kept, INT64_MAX)
        bound = min(bound, int(slack.min()))
        kept += lo * u.n
        arcs.append(kept)
    return arcs, bound


def _read_arcs(u: ReorderedValuation, arcs):
    """The gaps and tails of arcs given by flat index; arcs is overwritten."""
    weights = u.source.reshape(-1)[arcs]
    cols = np.remainder(arcs, u.n, out=arcs)
    weights -= u.winning[cols]
    return weights, u.order[cols]


def prices_bellman_ford(
    u: ReorderedValuation, vp: ReorderedValuation
) -> tuple[UtilityVector, PriceVector]:
    """Shortest-path baseline on the pricing network, swept densely.

    Nodes are a virtual source plus one node per item; the source reaches
    every node at cost zero and each ordered pair (k, j) carries an arc of
    weight -gaps[j][k].  A Bellman-Ford pass relaxes every arc at once
    from the previous pass's distances, d'[j] = min over k of d[k] -
    gaps[j][k], where the k = j term is d[j] itself because the diagonal
    is zero.  On utilities y = -d that pass is the dense sweep y'[j] =
    max over k of y[k] + gaps[j][k], which efpm's pruned sweep equals.
    Distances start at zero (source arcs pre-relaxed), so the first pass
    is the first sweep from zero, and the iteration, its n - 1 pass
    budget (enough for any negative-cycle-free network) and its refusal
    are efpm's.
    """
    _check_same_view(u, vp)

    def sweep(y):
        # y[i] is the utility of the consumer of source row i.  With y_k
        # the utility of item k's winner, y_k + gaps[j][k] is
        # source[row of j's winner][k] - (winning[k] - y_k); y_k lies in
        # 0..(n - 1) * M before every sweep, so nothing wraps.
        reach = u.winning - y[u.order]
        y_next = np.empty_like(y)
        for lo, rows, out in row_blocks(u.source):
            np.subtract(rows, reach, out=out).max(axis=1, out=y_next[lo : lo + len(rows)])
        return y_next

    return _iterate(u, sweep(np.zeros(u.n, dtype=np.int64)), sweep)


def _check_same_view(u: ReorderedValuation, vp) -> None:
    if vp is not u:
        raise ValueError(
            "the reordered matrix does not match the gap matrix: "
            "pass build_gap_matrix(vp) and vp itself"
        )


def _iterate(u: ReorderedValuation, y, sweep):
    """Sweep y, the first sweep from zero, until it stops changing.

    y and each sweep's result are in source-row order.  A zero y is
    the fixed point already.  iterations_used counts the sweeps after
    the first; on optimal input there are at most n - 1 of them, the
    last confirming the fixed point, and a vector still changing then
    raises :class:`NonOptimalAllocation`.
    """
    n = u.n
    iterations = 0
    changed = y.any()
    while changed:
        if iterations >= n - 1:
            raise NonOptimalAllocation(
                "utility iteration still rising after its sweep budget; "
                "the input allocation is not revenue-optimal",
                sweeps=iterations + 1,
            )
        y_next = sweep(y)
        iterations += 1
        # Comparing the bytes costs a fifth of an elementwise != and any().
        changed = y_next.tobytes() != y.tobytes()
        y = y_next
    return _finish(u, y[u.order], iterations)


def _finish(u: ReorderedValuation, y, iterations: int):
    return UtilityVector(y, iterations), PriceVector(u.winning - y)
