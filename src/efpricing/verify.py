"""Independent checks for allocations and prices.

Nothing here reuses the solver paths: envy-freeness is checked directly
against the definition, revenue-maximality by a search along the tight
arcs of the prices' utilities, and the small-instance revenue oracle enumerates
every allocation and solves each one's stability system by longest-path
closure over its gap matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .core import (
    INT64_MAX,
    Allocation,
    InstanceTooLargeError,
    ValuationMatrix,
)
from .pricing import PriceVector

#: Guard for the factorial revenue oracle.
REVENUE_ORACLE_LIMIT = 6

_NEG = -(2**62)


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
    values, prices = v.values, p.p
    # Utilities lie in -max(p)..max(v)-min(p), and gains within their
    # spread; past int64, the check runs on Python integers instead.
    pmax = int(prices.max())
    if int(values.max()) - int(prices.min()) + max(pmax, 0) > INT64_MAX:
        values, prices = values.astype(object), prices.astype(object)
    utilities = values - prices[np.newaxis, :]
    own = utilities[np.arange(n), a.assignment]
    gains = utilities - own[:, np.newaxis]
    violations = [
        (int(i), int(j), int(gains[i, j]))
        for i, j in np.argwhere(gains > 0)
    ]
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
    surplus = v.values - p.p[np.newaxis, :]
    own = surplus[np.arange(n), a.assignment]
    # holders[j, i]: consumer i likes item j exactly as much as its own.
    holders = np.ascontiguousarray((surplus == own[:, np.newaxis]).T)
    reached = own == 0
    frontier = a.assignment[reached].tolist()
    while frontier:
        newly = np.flatnonzero(holders[frontier.pop()] & ~reached)
        reached[newly] = True
        frontier.extend(a.assignment[newly].tolist())
    return np.flatnonzero(~reached).tolist()


def brute_force_max_revenue(v: ValuationMatrix) -> int:
    """Highest revenue over all (allocation, envy-free prices) pairs.

    Enumerates every permutation; for each, takes the longest-path
    closure of its gap matrix, which yields the minimal stable utilities
    (and so the maximal prices) supported by that allocation, or reveals
    a positive cycle meaning the allocation supports no envy-free prices.
    Allocations whose maximal prices dip below zero are discarded.
    """
    n = v.n
    if n > REVENUE_ORACLE_LIMIT:
        raise InstanceTooLargeError(
            f"revenue oracle limited to n <= {REVENUE_ORACLE_LIMIT}, got {n}"
        )
    # int64 is exact as long as no intermediate path sum can reach the
    # -2**62 sentinel; fall back to Python-int (object) arithmetic for
    # astronomically large valuations.
    exact64 = int(v.values.max()) <= (2**61) // max(2 * n, 1)
    rows = np.arange(n)
    best = None
    for perm in itertools.permutations(range(n)):
        assignment = np.array(perm, dtype=np.int64)
        inv = np.empty(n, dtype=np.int64)
        inv[assignment] = rows
        vp = v.values[inv, :]
        diag = np.diagonal(vp).copy()
        gaps = vp - diag[np.newaxis, :]
        revenue = _max_revenue_for_gaps(gaps, diag, exact64)
        if revenue is not None and (best is None or revenue > best):
            best = revenue
    # The identity allocation always supports all-zero utilities when its
    # gaps are nonpositive, and some allocation always does; still, guard.
    if best is None:
        raise AssertionError("no allocation admitted envy-free prices")
    return best


def _max_revenue_for_gaps(gaps, diag, exact64: bool):
    """Minimal stable utilities for one allocation via longest paths.

    Returns the revenue trace(V') - sum(y), or None when the allocation
    admits no envy-free nonnegative price vector.
    """
    n = gaps.shape[0]
    if exact64:
        closure = gaps.astype(np.int64).copy()
        neg = _NEG
    else:
        # tolist() boxes entries as arbitrary-precision Python ints.
        closure = np.array(gaps.tolist(), dtype=object)
        neg = -(10**30)
    np.fill_diagonal(closure, neg)
    for m in range(n):
        through = closure[:, m : m + 1] + closure[m : m + 1, :]
        np.maximum(closure, through, out=closure)
    if (np.diagonal(closure) > 0).any():
        return None  # positive cycle: stability system infeasible
    y = np.maximum(closure.max(axis=1), 0)
    prices = diag - y
    if (prices < 0).any():
        return None
    return int(prices.sum())
