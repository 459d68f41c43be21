"""Revenue-maximizing envy-free prices for an optimal allocation.

Two independent methods compute the same integer price vector:

* :func:`prices_efpm` raises a vector of buyer utilities by repeated
  max-plus sweeps over the utility-gap matrix until it reaches the
  unique minimal stable fixed point.  Each sweep reads only the arcs
  that can still raise a utility.
* :func:`prices_bellman_ford` solves the equivalent shortest-path
  problem (a virtual source connected to every item node, plus one arc
  per ordered item pair) by synchronous relaxation passes, each a dense
  row minimum over the gap matrix; utilities are the negated distances.

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

efpm prunes its sweeps exactly.  It keeps a bound theta >= max(y) and
the utilities y_r of the moment it last chose its arcs, and sweeps only
the arcs (j, k) with gaps[j][k] > y_r[j] - theta.  While max(y) <= theta,
a dropped arc gives y[k] + gaps[j][k] <= theta + y_r[j] - theta <= y[j],
because utilities only rise, so it can never raise y[j].  The diagonal
term of a sweep is y[j] itself, so no diagonal arc is stored.  Every
sweep therefore returns the vector the dense sweep would.

The kept arcs are laid out in two levels, as the hybrid (ELL + COO)
format of sparse matrix-vector products splits short rows from long
ones (Bell and Garland, 2009): each row's first kept arc off the
diagonal goes into two length-n arrays, a tail and a weight, and the
rest go into a row-ordered list.  A sweep is one dense step, y'[j] =
max(y[j], y[tail[j]] + weight[j]), and then a segmented maximum over
the list, only for the rows that keep more than one arc.  On a chain,
where each row keeps at most the arc to its successor, the list is
empty and a sweep costs a few O(n) steps.

The first time max(y) passes theta, one blocked pass finds the slack
bound B = min over dropped arcs (j, k) of y_r[j] - gaps[j][k].  B >= theta,
and while max(y) <= B a dropped arc gives y[k] + gaps[j][k] <= B +
gaps[j][k] <= y_r[j] <= y[j] by the same argument, so the same arcs stay
exact.  Only when max(y) passes B as well does theta become 2 * max(y)
and the arcs get chosen again, with one blocked pass over the rows; so
there are O(log max y) such rebuilds.  The bound is computed only when
it is needed: a choice whose theta is never passed pays nothing for it.
With gap entries in -M..M, M = ``max_entry_for(n)``, and utilities in
0..(n - 1) * M, every y_r[j] - gaps[j][k] lies in -M..n * M, within
int64.  In the worst case every arc stays kept, and a sweep costs O(n^2)
as the dense one does, with a larger constant; the O(n^3) bound stands.

Both methods require the allocation behind the gap matrix to be
welfare-optimal.  On other inputs the gap matrix contains a positive
cycle, the iterates grow forever, and both methods abort with
:class:`NonOptimalAllocation` instead of looping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import INT64_MAX, ReorderedValuation, _int64_array, row_blocks


class NonOptimalAllocation(ValueError):
    """The pricing input was not built from an optimal allocation.

    Detected when the utility iteration (or a relaxation pass) is still
    changing after the sweep budget that optimal inputs provably respect.
    The ``sweeps`` attribute records how many sweeps ran before aborting.
    """

    def __init__(self, message: str, sweeps: int):
        super().__init__(message)
        self.sweeps = sweeps


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    to all-zero utilities) and keeps sweeping while any entry grows.  On
    optimal input the loop body runs at most n - 1 times; one extra sweep
    confirms the fixed point.  iterations_used counts the loop body runs.

    Each sweep is y'[j] = max(y[j], max over kept k of y[k] +
    gaps[j][k]): a gather over each row's first kept arc off the
    diagonal, and a segmented maximum over the other kept arcs of the
    rows that have any (see :func:`_choose_arcs`).  Invariant: an arc
    (j, k) is kept when gaps[j][k] > y_r[j] - theta, where y_r is y when
    the arcs were last chosen and theta > max(y_r); no dropped arc can
    raise y[j] while max(y) <= theta (see the module docstring), so
    every iterate equals the dense sweep's.  When max(y) passes theta,
    the slack bound B >= theta of the current arcs is computed once;
    when max(y) passes B too, theta becomes 2 * max(y), capped at
    INT64_MAX, and the arcs are chosen again.  Worst case: nearly every
    arc stays kept, and a sweep costs O(n^2) as a dense one does, but
    about 1.5 to 2 times as long.

    With gap entries of at most M = max_entry_for(n) in magnitude, each
    sweep raises max(y) by at most M, so max(y) <= (n - 1) * M < INT64_MAX
    before every sweep that runs, even when the allocation is not
    optimal: the capped theta still exceeds max(y), and y - theta does
    not wrap.
    """
    _check_same_view(u, vp)
    n = u.n
    # The largest gap is max(y) after the first sweep.
    top = int((u.source.max(axis=0) - u.winning).max())
    if top == 0:
        return _finish(u, np.zeros(n, dtype=np.int64), 0)
    # y[i] is the utility of the consumer of source row i; the arc tails
    # are those consumers' rows, so y is put in item order only at the end.
    y = np.empty(n, dtype=np.int64)
    theta = 2 * top
    arcs = _choose_arcs(u, y, theta, fill=True)
    y_r, limit, bounded = y, theta, False
    iterations = 0
    changed = True
    while changed:
        if iterations >= n - 1:
            raise NonOptimalAllocation(
                "utility iteration still rising after its sweep budget; "
                "the input allocation is not revenue-optimal",
                sweeps=iterations + 1,
            )
        top = int(y.max())
        if top > limit and not bounded:
            limit, bounded = _slack_bound(u, y_r, theta), True
        if top > limit:
            theta = min(2 * top, INT64_MAX)
            arcs = _choose_arcs(u, y, theta)
            y_r, limit, bounded = y, theta, False
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
        iterations += 1
        changed = bool((y_next != y).any())
        y = y_next
    return _finish(u, y[u.order], iterations)


def _choose_arcs(u: ReorderedValuation, y, theta: int, fill: bool = False):
    """The arcs efpm keeps for y_r = y and theta, in two levels.

    Returns (first_tails, first_weights, weights, tails, segments, rows).
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
    arcs = np.concatenate(_kept_arcs(u, y, theta, fill))
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
    return first_tails, first_weights, weights, tails, segments, rows


def _kept_arcs(u: ReorderedValuation, y, theta: int, fill: bool) -> list:
    """The flat indices of the kept arcs, one array per block of rows.

    A function of its own, so that the block buffer is freed before the
    arcs are joined.
    """
    arcs = []
    for lo, gaps in _gap_rows(u):
        y_r = y[lo : lo + len(gaps)]
        if fill:
            gaps.max(axis=1, out=y_r)
        kept = np.flatnonzero(gaps > (y_r - theta)[:, np.newaxis])
        kept += lo * u.n
        arcs.append(kept)
    return arcs


def _read_arcs(u: ReorderedValuation, arcs):
    """The gaps and tails of arcs given by flat index; arcs is overwritten."""
    weights = u.source.reshape(-1)[arcs]
    cols = np.remainder(arcs, u.n, out=arcs)
    weights -= u.winning[cols]
    return weights, u.order[cols]


def _slack_bound(u: ReorderedValuation, y_r, theta: int) -> int:
    """The slack bound B of the arcs chosen for y_r and theta.

    B is the least y_r[j] - gaps[j][k] over the dropped arcs, those with
    y_r[j] - gaps[j][k] >= theta; INT64_MAX when every arc is kept.
    """
    bound = INT64_MAX
    for lo, gaps in _gap_rows(u):
        slack = np.subtract(y_r[lo : lo + len(gaps), np.newaxis], gaps, out=gaps)
        bound = min(bound, int(slack.min(where=slack >= theta, initial=INT64_MAX)))
    return bound


def _gap_rows(u: ReorderedValuation):
    """(first row, gap rows) per block of source rows, in one reused buffer."""
    for lo, rows, out in row_blocks(u.source):
        yield lo, np.subtract(rows, u.winning, out=out)


def prices_bellman_ford(
    u: ReorderedValuation, vp: ReorderedValuation
) -> tuple[UtilityVector, PriceVector]:
    """Shortest-path baseline on the pricing network.

    Nodes are a virtual source plus one node per item; the source reaches
    every node at cost zero and each ordered pair (k, j) carries an arc of
    weight -gaps[j][k].  Distances start at zero (source arcs pre-relaxed)
    and every pass relaxes every arc at once from the previous pass's
    distances: d'[j] = min over k of d[k] - gaps[j][k], where the k = j
    term is d[j] itself because the diagonal is zero.  Utilities are
    y = -d.

    A pass that still relaxes after the n - 1 passes sufficient for any
    negative-cycle-free network means a negative cycle is reachable, i.e.
    the allocation was not optimal.
    """
    _check_same_view(u, vp)
    n = u.n
    # d[i] is the distance of the consumer of source row i.
    d = np.zeros(n, dtype=np.int64)
    d_next = np.empty_like(d)
    passes = 0
    while True:
        # With d_k the distance of item k, d_k - gaps[j][k] is
        # (d_k + winning[k]) - source[row of j's winner][k]; d_k lies in
        # -(n - 1) * M..0 before every pass, so nothing wraps.
        reach = d[u.order] + u.winning
        for lo, rows, out in row_blocks(u.source):
            np.subtract(reach, rows, out=out).min(axis=1, out=d_next[lo : lo + len(rows)])
        if np.array_equal(d_next, d):
            break
        passes += 1
        if passes > n - 1:
            raise NonOptimalAllocation(
                "distances still relaxing after the pass budget; "
                "a negative cycle is reachable, so the input allocation "
                "is not revenue-optimal",
                sweeps=passes,
            )
        d, d_next = d_next, d
    return _finish(u, -d[u.order], passes)


def _check_same_view(u: ReorderedValuation, vp) -> None:
    if vp is not u:
        raise ValueError(
            "the reordered matrix does not match the gap matrix: "
            "pass build_gap_matrix(vp) and vp itself"
        )


def _finish(u: ReorderedValuation, y, iterations: int):
    return UtilityVector(y, iterations), PriceVector(u.winning - y)
