"""The exhaustive revenue oracle, kept in the package for the benchmark.

:func:`brute_force_max_revenue` enumerates every allocation and solves
each one's stability system by longest-path closure over its gap
matrix; the tests and the benchmark's checks compare the revenue of the
computed prices against it.  It is not on the solve path, and it is
factorial: it is meant for small instances.  The matching oracle lives
with the tests; this one stays in the package only because the
benchmark's checks reach it as ``efpricing.brute_force_max_revenue``.
"""

from __future__ import annotations

import itertools

import numpy as np

from .core import InstanceTooLargeError, ValuationMatrix

#: Guard for the factorial revenue oracle.
REVENUE_ORACLE_LIMIT = 6

_NEG = -(2**62)


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
