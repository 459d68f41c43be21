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
are then p[j] = winning_valuation[j] - y[j].

efpm prunes its sweeps exactly.  It keeps a bound theta >= max(y) and
the utilities y_r of the moment it last chose its arcs, and sweeps only
the arcs (j, k) with gaps[j][k] > y_r[j] - theta.  While max(y) <= theta,
a dropped arc gives y[k] + gaps[j][k] <= theta + y_r[j] - theta <= y[j],
because utilities only rise, so it can never raise y[j]; the diagonal
(gap 0 > y_r[j] - theta, as theta > max(y_r)) is always kept.  Every
sweep therefore returns the vector the dense sweep would.  When max(y)
passes theta, theta becomes 2 * max(y) and the arcs are chosen again
with one n x n compare, so there are O(log max y) such rebuilds.  In
the worst case every arc stays kept, and a sweep costs O(n^2) as the
dense one does, with a larger constant; the O(n^3) bound stands.

Both methods require the allocation behind the gap matrix to be
welfare-optimal.  On other inputs the gap matrix contains a positive
cycle, the iterates grow forever, and both methods abort with
:class:`NonOptimalAllocation` instead of looping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import INT64_MAX, ReorderedValuation, UtilityGapMatrix


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
        arr = np.array(self.y, dtype=np.int64)
        if arr.size and arr.min() < 0:
            raise ValueError("utilities must be nonnegative")
        arr.flags.writeable = False
        object.__setattr__(self, "y", arr)


@dataclass(frozen=True)
class PriceVector:
    """Envy-free item prices and the revenue they collect."""

    p: np.ndarray
    revenue: int

    def __post_init__(self):
        arr = np.array(self.p, dtype=np.int64)
        arr.flags.writeable = False
        object.__setattr__(self, "p", arr)
        object.__setattr__(self, "revenue", int(self.revenue))


def iterate_once(u: UtilityGapMatrix, y) -> np.ndarray:
    """One max-plus sweep: y'[j] = max over k of y[k] + gaps[j][k].

    The k = j term contributes y[j] + 0, so the result is pointwise >= y.
    """
    vec = np.asarray(y, dtype=np.int64)
    return (u.gaps + vec[np.newaxis, :]).max(axis=1)


def prices_efpm(
    u: UtilityGapMatrix, vp: ReorderedValuation
) -> tuple[UtilityVector, PriceVector]:
    """Utility-iteration pricing.

    Starts from the row maxima of the gap matrix (the first sweep applied
    to all-zero utilities) and keeps sweeping while any entry grows.  On
    optimal input the loop body runs at most n - 1 times; one extra sweep
    confirms the fixed point.  iterations_used counts the loop body runs.

    Each sweep is y'[j] = max over kept k of y[k] + gaps[j][k], a gather
    and a segmented maximum over the kept arcs in row order.  Invariant:
    an arc (j, k) is kept when gaps[j][k] > y_r[j] - theta, where y_r is
    y when the arcs were last chosen and theta > max(y_r); no dropped arc
    can raise y[j] while max(y) <= theta (see the module docstring), so
    every iterate equals the dense sweep's.  Rebuild: when max(y) passes
    theta, theta becomes 2 * max(y), capped at INT64_MAX, and the arcs
    are chosen again.  Worst case: nearly every arc stays kept, and a
    sweep costs O(n^2) as a dense one does, but about 1.5 to 2 times as
    long.

    With gap entries of at most M = max_entry_for(n) in magnitude, each
    sweep raises max(y) by at most M, so max(y) <= (n - 1) * M < INT64_MAX
    before every sweep that runs, even when the allocation is not
    optimal: the capped theta still exceeds max(y), and y - theta does
    not wrap.
    """
    _check_sizes(u, vp)
    n = u.n
    gaps = u.gaps
    y = gaps.max(axis=1)
    theta = 0
    iterations = 0
    changed = bool((y > 0).any())
    while changed:
        if iterations >= n - 1:
            raise NonOptimalAllocation(
                "utility iteration still rising after its sweep budget; "
                "the input allocation is not revenue-optimal",
                sweeps=iterations + 1,
            )
        top = int(y.max())
        if top > theta:
            theta = min(2 * top, INT64_MAX)
            arcs = np.flatnonzero(gaps > (y - theta)[:, np.newaxis])
            weights = gaps.reshape(-1)[arcs]
            tails = arcs % n
            # Every row keeps its diagonal, so no segment is empty.
            segments = np.searchsorted(arcs, np.arange(0, n * n, n))
        y_next = np.maximum.reduceat(y[tails] + weights, segments)
        iterations += 1
        changed = bool((y_next != y).any())
        y = y_next
    return _finish(vp, y, iterations)


def prices_bellman_ford(
    u: UtilityGapMatrix, vp: ReorderedValuation
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
    _check_sizes(u, vp)
    n = u.n
    gaps = u.gaps
    work = np.empty_like(gaps)
    d = np.zeros(n, dtype=np.int64)
    passes = 0
    while True:
        np.subtract(d[np.newaxis, :], gaps, out=work)
        d_next = work.min(axis=1)
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
        d = d_next
    return _finish(vp, -d, passes)


def minimality_certificate(u: UtilityGapMatrix, y: UtilityVector) -> bool:
    """Check that a stable utility vector cannot be lowered anywhere.

    Every entry with y[j] > 0 must be held up by a tight arc
    (y[j] == y[k] + gaps[j][k] for some k != j) and chains of tight arcs
    must bottom out at a zero-utility entry.  Equivalently: following
    tight arcs, every node reaches the zero set.  A reverse breadth-first
    search from the zero set finds the nodes that do, one level at a
    time; each node enters one level, so each row of tight arcs is read
    once and the check is O(n^2).  Returns False as well if the vector
    is not stable at all.
    """
    vec = np.asarray(y.y, dtype=np.int64)
    # slack[k, j] = y[j] - y[k] - gaps[j][k]: zero when k holds j up.
    slack = vec[np.newaxis, :] - vec[:, np.newaxis] - u.gaps.T
    if slack.min() < 0:
        return False
    held = slack == 0
    reached = vec == 0
    frontier = np.flatnonzero(reached)
    while frontier.size:
        newly = np.flatnonzero(held[frontier].any(axis=0) & ~reached)
        reached[newly] = True
        frontier = newly
    return bool(reached.all())


def _check_sizes(u: UtilityGapMatrix, vp: ReorderedValuation) -> None:
    if u.n != vp.n:
        raise ValueError(f"gap matrix size {u.n} does not match matrix size {vp.n}")


def _finish(vp, y, iterations: int):
    prices = vp.winning_valuations() - y
    utilities = UtilityVector(y=y, iterations_used=iterations)
    return utilities, PriceVector(p=prices, revenue=int(prices.sum()))
