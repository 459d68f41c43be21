"""Independent checks for allocations, prices and utilities.

Nothing here reuses the solver paths.  :func:`check_envy_free` is the
one certificate: a single pass over the valuation rows, in blocks,
computes every consumer's exact gain from each switch, and from the
gains the violations, the own utilities and the tight arcs (gain zero),
kept in one n x n boolean matrix.  The blocks may come from a matrix or
straight from an instance file (:func:`~efpricing.instance.stream_instance`),
each certified as soon as it is decoded, so that ``verify`` never holds
the matrix.  For envy-free prices, a reverse search along the tight
arcs from the zero-utility consumers finds the consumers whose prices
could still rise.  Where every consumer has zero utility, as on
tie-heavy markets, no consumer is left to reach and nothing is
searched.  Else the arcs are counted first.  When they are few, at
most ``FEW_ARCS`` per consumer (random and chain markets have two:
each consumer's own item and one more), they are gathered as
lists, grouped by item, and searched item by item in Python, in
O(n + arcs) steps.  A dense market that still has consumers to reach
(a block of consumers tied over many items, say) is searched one level
at a time on the boolean matrix, a few numpy calls per level.
:func:`minimality_certificate` runs the same check on the view's matrix
and allocation, at the prices of a utility vector.  The small-instance
revenue oracle lives in :mod:`efpricing.oracles`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (INT64_MAX, Allocation, ReorderedValuation, ValuationMatrix, max_entry_for,
                   row_blocks)
from .pricing import PriceVector, UtilityVector

#: Tight arcs per consumer up to which the reverse search runs item by
#: item in Python; each consumer's arc to its own item counts.  Random
#: and chain markets have two per consumer (798 on random-400, 799 and
#: 999 on chain-400 and chain-500), and there the level search pays a
#: few numpy calls for each of up to n levels.  Tie-heavy markets have
#: dozens (about 25 on entries 0..7 at n = 200) but skip both searches,
#: since every consumer there has zero utility.  A dense market that
#: still has consumers to reach, such as a block of consumers tied over
#: half the items, takes a few levels, each costing a tenth of a Python
#: step per arc.  On generated markets at n = 400 the two searches cost
#: the same at 2.5 to 4 arcs per consumer.  Each search stays for the
#: markets the other serves badly (2-core x86 host): the level search
#: alone takes 4-6x as long on chain-400 and chain-500 (about 1 ms
#: against 0.2 ms).  The item-by-item search alone, on a block of 989
#: consumers with 990 tight arcs each at n = 1000, makes the whole
#: certificate take 20x as long (62 ms against 3 ms) and hold 6.95x the
#: matrix in lists against 0.27x (7.5x, 230 MiB, at n = 2000).
FEW_ARCS = 3


@dataclass(frozen=True)
class EnvyReport:
    """Outcome of an envy-freeness check.

    violations lists (consumer, preferred_item, utility_gain) for every
    strictly profitable switch; negative_utility_consumers lists consumers
    who would rather buy nothing.  envy_free, derived from them, is true
    exactly when both lists are empty.

    For envy-free prices, raisable lists the consumers whose prices can
    rise together; it is empty exactly when the revenue is the maximum
    for this allocation.  For other prices it is left empty.
    """

    violations: list[tuple[int, int, int]] = field(default_factory=list)
    negative_utility_consumers: list[int] = field(default_factory=list)
    raisable: list[int] = field(default_factory=list)

    @property
    def envy_free(self) -> bool:
        return not (self.violations or self.negative_utility_consumers)


def check_envy_free(v, a: Allocation, p: PriceVector) -> EnvyReport:
    """Compare every consumer's assigned utility against all alternatives.

    v is a :class:`ValuationMatrix`, or the rows of one in blocks
    (first row, rows, scratch), as ``row_blocks`` and
    :func:`~efpricing.instance.stream_instance` yield them, with entries
    in 0..max_entry_for(n).  Each block must start where the one before
    it ended, the first at row 0, and the last must end at row n, or
    ValueError is raised: every row is read exactly once, in order.

    A consumer may be indifferent between several items; only strict
    improvements count as envy.  Consumers whose assigned utility is
    negative are reported separately (buying nothing beats buying).
    Gains are exact for every int64 price.

    Consumer i is held by consumer k when i likes k's item exactly as
    much as its own (a tight arc): raising i's price forces raising
    k's.  A zero-utility consumer cannot pay more, nor can anyone held,
    through a chain of tight arcs, by one.  The consumers no such chain
    reaches can have their prices raised together, and are reported as
    ``raisable``.
    """
    if isinstance(v, ValuationMatrix):
        return _certify(row_blocks(v.values), v.n, a.assignment, p.p)
    return _certify(v, a.n, a.assignment, p.p)


def minimality_certificate(u: ReorderedValuation, y: UtilityVector) -> bool:
    """Check that a stable utility vector cannot be lowered anywhere.

    y is the utility vector of the prices winning - y, with the view's
    allocation.  Stability, y[j] >= y[k] + gaps[j][k], is envy-freeness
    of those prices, and every entry is held up by a chain of tight arcs
    that ends at a zero entry exactly when no price can rise.  Returns
    False as well if the vector is not stable at all.
    """
    # winning - y would broadcast a y of another length.
    _check_sizes(u.n, u.allocation.assignment, y.y)
    report = check_envy_free(u.matrix, u.allocation, PriceVector(u.winning - y.y))
    return report.envy_free and not report.raisable


def _check_sizes(n: int, assignment: np.ndarray, prices: np.ndarray) -> None:
    if len(assignment) != n or prices.shape != (n,):
        raise ValueError(
            f"inconsistent sizes: matrix {n}, allocation {len(assignment)}, "
            f"prices {prices.shape}"
        )


def _certify(blocks, n: int, assignment: np.ndarray, prices: np.ndarray) -> EnvyReport:
    """check_envy_free on the row blocks of an n x n matrix, entries in 0..max_entry_for(n)."""
    _check_sizes(n, assignment, prices)
    # Utilities lie in -max(p)..M - min(p), and gains within their
    # spread; past int64, the pass runs on Python integers instead.  The
    # prices are int64, so -max(p) is never below INT64_MIN.
    low, high = -int(prices.max()), max_entry_for(n) - int(prices.min())
    if high - min(low, 0) > INT64_MAX:
        prices = prices.astype(object)
    # Each block of rows becomes the utilities, in its scratch buffer
    # (the rows' own, when a stream hands its decode buffer over).  A
    # row's tight arcs are its utilities equal to its own, and it envies
    # an item only if its best utility beats its own: only those rows'
    # gains are formed, and violations come out in row-major order.
    own = np.empty(n, dtype=prices.dtype)
    tight = np.empty((n, n), dtype=bool)
    violations = []
    hi = 0
    for lo, rows, out in blocks:
        if rows.shape[1] != n:
            _check_sizes(rows.shape[1], assignment, prices)
        if lo != hi or hi + len(rows) > n:
            raise ValueError(f"rows {lo}..{lo + len(rows) - 1} do not follow rows 0..{hi - 1} "
                             f"of {n}")
        hi = lo + len(rows)
        if out.dtype == prices.dtype:
            utilities = np.subtract(rows, prices, out=out)
        else:
            utilities = rows - prices
        mine = own[lo:hi]
        mine[:] = utilities[np.arange(hi - lo), assignment[lo:hi]]
        envious = np.flatnonzero(utilities.max(axis=1) > mine)
        if envious.size:
            gains = utilities[envious] - mine[envious, np.newaxis]
            violations.extend(
                (lo + int(envious[r]), int(j), int(gains[r, j]))
                for r, j in np.argwhere(gains > 0)
            )
        np.equal(utilities, mine[:, np.newaxis], out=tight[lo:hi])
    if hi != n:
        raise ValueError(f"the row blocks end at row {hi} of {n}")
    negative = np.flatnonzero(own < 0).tolist()
    if violations or negative:
        return EnvyReport(violations, negative)
    # Where every consumer is at zero utility, as on tie-heavy markets,
    # there is no one left to reach, and no search.
    unreached = own != 0
    if not unreached.any():
        return EnvyReport()
    # Counted before any arc is gathered, so that a dense market never
    # lists its n * n arcs.
    if np.count_nonzero(tight) <= FEW_ARCS * n:
        return EnvyReport(raisable=_search_arcs(tight, unreached, assignment))
    return EnvyReport(raisable=_search_levels(tight, unreached, assignment))


def _search_arcs(tight: np.ndarray, unreached: np.ndarray, assignment: np.ndarray
                 ) -> list[int]:
    """The consumers no tight chain links to a zero-utility one, item by item.

    The tight arcs are gathered as lists, grouped by item in
    ``holders``: the consumers held by consumer k, those with a tight
    arc to k's item, are holders[first[k]:last[k]].  A depth-first
    search from the zero-utility consumers then visits each arc once,
    in Python, with no numpy call per step.  Each consumer's arc to its
    own item, which leads nowhere new, is cleared from tight first.
    """
    n = len(tight)
    tight[np.arange(n), assignment] = False
    # Flat indices: np.nonzero on the matrix costs ten times as much.
    consumers, items = np.divmod(np.flatnonzero(tight), n)
    holders = consumers[np.argsort(items, kind="stable")].tolist()
    counts = np.bincount(items, minlength=n)
    ends = counts.cumsum()
    first = (ends - counts)[assignment].tolist()
    last = ends[assignment].tolist()
    stack = np.flatnonzero(~unreached).tolist()
    unreached = unreached.tolist()
    while stack:
        k = stack.pop()
        for i in holders[first[k] : last[k]]:
            if unreached[i]:
                unreached[i] = False
                stack.append(i)
    return [i for i, left in enumerate(unreached) if left]


def _search_levels(tight: np.ndarray, unreached: np.ndarray, assignment: np.ndarray
                   ) -> list[int]:
    """The same consumers, by a reverse breadth-first search one level at a time.

    The consumers with a tight arc to an item of the frontier join it.
    Each item enters the frontier once, so the search reads each column
    of tight once.  A lone item's column is read as a strided view, not
    copied.
    """
    frontier = assignment[~unreached]
    while frontier.size:
        if frontier.size == 1:
            held = tight[:, frontier[0]]
        else:
            held = tight[:, frontier].any(axis=1)
        newly = (held & unreached).nonzero()[0]
        unreached[newly] = False
        frontier = assignment[newly]
    return unreached.nonzero()[0].tolist()
