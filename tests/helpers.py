"""Shared helpers for the test suite."""

import contextlib

import numpy as np

from efpricing import ReorderedValuation, ValuationMatrix
from efpricing import core


def random_matrix(rng, n, hi):
    return ValuationMatrix(rng.integers(0, hi + 1, size=(n, n)))


def explicit_gaps(rows):
    """A gap matrix given entry by entry: the view (rows, identity, zeros)."""
    n = len(rows)
    return ReorderedValuation(
        source=rows, order=np.arange(n), winning=np.zeros(n, dtype=np.int64)
    )


@contextlib.contextmanager
def blocks_of(entries):
    """Run the blocked passes over matrix rows in blocks of about this many entries."""
    saved = core._ROW_BLOCK
    core._ROW_BLOCK = entries
    try:
        yield
    finally:
        core._ROW_BLOCK = saved


def permutation_matrix(assignment):
    """Binary matrix with a one at (consumer, assigned item)."""
    n = len(assignment)
    x = np.zeros((n, n), dtype=np.int64)
    x[np.arange(n), assignment] = 1
    return x


def reference_efpm(u):
    """efpm as a dense loop: every sweep reads the whole gap matrix.

    Returns (y, iterations_used), or (None, sweeps) where prices_efpm
    raises NonOptimalAllocation after that many sweeps.
    """
    n = u.n
    gaps = u.gaps
    y = gaps.max(axis=1)
    work = np.empty_like(gaps)
    iterations = 0
    changed = bool((y > 0).any())
    while changed:
        if iterations >= n - 1:
            return None, iterations + 1
        np.add(gaps, y[np.newaxis, :], out=work)
        y_next = work.max(axis=1)
        iterations += 1
        changed = not np.array_equal(y_next, y)
        y = y_next
    return y, iterations
