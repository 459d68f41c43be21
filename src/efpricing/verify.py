"""Independent checks for allocations, prices and utilities.

Nothing here reuses the solver paths.  :func:`check_envy_free` is the
one certificate: a single pass over the valuation rows, in blocks,
computes every consumer's exact gain from each switch, and from the
gains the violations, the own utilities and the tight arcs (gain zero),
kept in one n x n boolean matrix.  For envy-free prices, a reverse
search along the tight arcs from the zero-utility consumers finds the
consumers whose prices could still rise.  :func:`minimality_certificate`
runs the same pass on the prices of a utility vector.  The
small-instance revenue oracle lives in :mod:`efpricing.oracles`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (INT64_MAX, INT64_MIN, Allocation, ReorderedValuation, ValuationMatrix,
                   row_blocks)
from .pricing import PriceVector, UtilityVector


@dataclass(frozen=True)
class EnvyReport:
    """Outcome of an envy-freeness check.

    violations lists (consumer, preferred_item, utility_gain) for every
    strictly profitable switch; negative_utility_consumers lists consumers
    who would rather buy nothing.  envy_free is true exactly when both
    lists are empty.

    For envy-free prices, raisable lists the consumers whose prices can
    rise together; it is empty exactly when the revenue is the maximum
    for this allocation.  For other prices it is left empty.
    """

    envy_free: bool
    violations: list[tuple[int, int, int]] = field(default_factory=list)
    negative_utility_consumers: list[int] = field(default_factory=list)
    raisable: list[int] = field(default_factory=list)


def check_envy_free(v: ValuationMatrix, a: Allocation, p: PriceVector) -> EnvyReport:
    """Compare every consumer's assigned utility against all alternatives.

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
    n = v.n
    if a.n != n or p.p.shape != (n,):
        raise ValueError(
            f"inconsistent sizes: matrix {n}, allocation {a.n}, prices {p.p.shape}"
        )
    return _certify(v.values, a.assignment, p.p)


def minimality_certificate(u: ReorderedValuation, y: UtilityVector) -> bool:
    """Check that a stable utility vector cannot be lowered anywhere.

    y is the utility vector of the prices winning - y, with item k sold
    to its winner, the consumer of source row order[k].  Stability,
    y[j] >= y[k] + gaps[j][k], is envy-freeness of those prices, and
    every entry is held up by a chain of tight arcs that ends at a zero
    entry exactly when no price can rise.  Returns False as well if the
    vector is not stable at all.
    """
    item_of = np.empty(u.n, dtype=np.int64)
    item_of[u.order] = np.arange(u.n)
    report = _certify(u.source, item_of, u.winning - y.y)
    return report.envy_free and not report.raisable


def _certify(values: np.ndarray, assignment: np.ndarray, prices: np.ndarray) -> EnvyReport:
    """check_envy_free on plain arrays, whose valuations may be negative."""
    n = len(assignment)
    # Utilities lie in low..high, and gains within their spread; past
    # int64, the pass runs on Python integers instead.
    low = int(values.min()) - int(prices.max())
    high = int(values.max()) - int(prices.min())
    if low < INT64_MIN or high - min(low, 0) > INT64_MAX:
        prices = prices.astype(object)
    # Each block of rows starts as the utilities and becomes the gains
    # in place; violations come out in row-major order.
    own = np.empty(n, dtype=prices.dtype)
    tight = np.empty((n, n), dtype=bool)
    violations = []
    for lo, rows, out in row_blocks(values, dtype=prices.dtype):
        hi = lo + len(rows)
        gains = np.subtract(rows, prices, out=out)
        own[lo:hi] = gains[np.arange(hi - lo), assignment[lo:hi]]
        gains -= own[lo:hi, np.newaxis]
        envied = gains > 0
        if envied.any():
            violations.extend(
                (lo + int(i), int(j), int(gains[i, j])) for i, j in np.argwhere(envied)
            )
        np.equal(gains, 0, out=tight[lo:hi])
    negative = np.flatnonzero(own < 0).tolist()
    if violations or negative:
        return EnvyReport(False, violations, negative)
    # A reverse breadth-first search, one level at a time: the consumers
    # with a tight arc to an item of the frontier join it.  Each item
    # enters the frontier once, so the search reads each column of tight
    # once.  A lone item's column is read as a strided view, not copied.
    unreached = own != 0
    frontier = assignment[~unreached]
    while frontier.size:
        if frontier.size == 1:
            held = tight[:, frontier[0]]
        else:
            held = tight[:, frontier].any(axis=1)
        newly = (held & unreached).nonzero()[0]
        unreached[newly] = False
        frontier = assignment[newly]
    return EnvyReport(True, raisable=unreached.nonzero()[0].tolist())
