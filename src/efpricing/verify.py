"""Independent checks for allocations and prices.

Nothing here reuses the solver paths: envy-freeness is checked directly
against the definition, and revenue-maximality by a search along the
tight arcs of the prices' utilities.  Both read the valuation rows in
blocks of rows, so neither builds an n x n int64 array.  The small-instance revenue oracle lives in
:mod:`efpricing.oracles`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import INT64_MAX, Allocation, ValuationMatrix, row_blocks
from .pricing import PriceVector


@dataclass(frozen=True)
class EnvyReport:
    """Outcome of an envy-freeness check.

    violations lists (consumer, preferred_item, utility_gain) for every
    strictly profitable switch; negative_utility_consumers lists consumers
    who would rather buy nothing.  envy_free is true exactly when both
    lists are empty.
    """

    envy_free: bool
    violations: list[tuple[int, int, int]] = field(default_factory=list)
    negative_utility_consumers: list[int] = field(default_factory=list)


def check_envy_free(v: ValuationMatrix, a: Allocation, p: PriceVector) -> EnvyReport:
    """Compare every consumer's assigned utility against all alternatives.

    A consumer may be indifferent between several items; only strict
    improvements count as envy.  Consumers whose assigned utility is
    negative are reported separately (buying nothing beats buying).
    Gains are exact for every int64 price.
    """
    n = v.n
    if a.n != n or p.p.shape != (n,):
        raise ValueError(
            f"inconsistent sizes: matrix {n}, allocation {a.n}, prices {p.p.shape}"
        )
    prices = p.p
    # Utilities lie in -max(p)..max(v)-min(p), and gains within their
    # spread; past int64, the check runs on Python integers instead.
    pmax = int(prices.max())
    if int(v.values.max()) - int(prices.min()) + max(pmax, 0) > INT64_MAX:
        prices = prices.astype(object)
    # Each block of rows starts as the utilities and becomes the gains
    # in place; violations come out in row-major order.
    own = np.empty(n, dtype=prices.dtype)
    violations = []
    for lo, rows, out in row_blocks(v.values, dtype=prices.dtype):
        hi = lo + len(rows)
        gains = np.subtract(rows, prices, out=out)
        own[lo:hi] = gains[np.arange(hi - lo), a.assignment[lo:hi]]
        gains -= own[lo:hi, np.newaxis]
        envied = gains > 0
        if envied.any():
            violations.extend(
                (lo + int(i), int(j), int(gains[i, j])) for i, j in np.argwhere(envied)
            )
    negative = [int(i) for i in np.flatnonzero(own < 0)]
    return EnvyReport(
        envy_free=not violations and not negative,
        violations=violations,
        negative_utility_consumers=negative,
    )


def raisable_consumers(v: ValuationMatrix, a: Allocation, p: PriceVector) -> list[int]:
    """Consumers whose item could be sold at a higher price.

    Assumes p is envy-free for a.  Consumer i is held by consumer k when
    i likes k's item exactly as much as its own (a tight arc): raising
    i's price forces raising k's.  A zero-utility consumer cannot pay
    more, nor can anyone held, through a chain of tight arcs, by one.  A
    reverse breadth-first search from the zero-utility consumers finds
    them all; each item enters the frontier once, so the search is
    O(n^2).  The consumers it never reaches can have their prices raised
    together without envy or negative utility, so the list is empty
    exactly when the revenue is the maximum for this allocation.

    The int64 arithmetic is exact here: envy-free prices are at most M =
    ``max_entry_for(n)``, so every surplus lies in -M..M+2**63, a span
    below 2**64, and wrapped surpluses are equal only when true ones are.
    """
    n = v.n
    own = v.values[np.arange(n), a.assignment] - p.p[a.assignment]
    # tight[i, j]: consumer i likes item j exactly as much as its own.
    tight = np.empty((n, n), dtype=bool)
    for lo, rows, out in row_blocks(v.values):
        surplus = np.subtract(rows, p.p, out=out)
        np.equal(surplus, own[lo : lo + len(rows), np.newaxis], out=tight[lo : lo + len(rows)])
    # holders[j, i] = tight[i, j]: the search reads the consumers an item holds.
    holders = np.ascontiguousarray(tight.T)
    reached = own == 0
    frontier = a.assignment[reached].tolist()
    while frontier:
        newly = np.flatnonzero(holders[frontier.pop()] & ~reached)
        reached[newly] = True
        frontier.extend(a.assignment[newly].tolist())
    return np.flatnonzero(~reached).tolist()
