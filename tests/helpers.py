"""Shared helpers for the test suite, and the oracles it checks against."""

import contextlib
import itertools

import numpy as np
from scipy.optimize import linprog

from efpricing import Allocation, InstanceTooLargeError, ReorderedValuation, ValuationMatrix
from efpricing import core

#: Hard guard for the factorial assignment oracle.
BRUTE_FORCE_LIMIT = 10


def random_matrix(rng, n, hi):
    return ValuationMatrix(rng.integers(0, hi + 1, size=(n, n)))


def explicit_gaps(rows):
    """A gap matrix given entry by entry, its diagonal zero: the view (rows, identity)."""
    return ReorderedValuation(source=rows, order=np.arange(len(rows)))


def reordered_values(u):
    """The reordered matrix V' of a view: row i is the row of item i's winner."""
    return np.take(u.source, u.order, axis=0)


def gap_array(u):
    """The gap matrix of a view as an array: gaps[j][k] = V'[j][k] - winning[k]."""
    return reordered_values(u) - u.winning


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
    gaps = gap_array(u)
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


def reference_minimality(u, y):
    """Whether y is minimal, growing the reached set in dense n x n rounds."""
    vec = np.asarray(y.y, dtype=np.int64)
    n = u.n
    diff = vec[:, np.newaxis] - vec[np.newaxis, :] - gap_array(u)
    if diff.min() < 0:
        return False
    tight = (diff == 0) & ~np.eye(n, dtype=bool)
    reached = vec == 0
    while True:
        grown = reached | (tight & reached[np.newaxis, :]).any(axis=1)
        if np.array_equal(grown, reached):
            break
        reached = grown
    return bool(reached.all())


def chain(n, seed, rows, cols, step=1, drop=0):
    """Consumer i values item i at H and item i + 1 at H + step.

    Consumer 0 values item 1 at H + step - drop instead.  With the
    other entries more than (n - 1) * step below H the identity is the
    only optimum, the minimal stable utilities are y[i] = step * (n - 1 - i)
    except y[0] = step * (n - 1) - drop (for drop below that), and efpm
    needs exactly n - 1 sweeps.  rows and cols relabel the market.
    """
    h = 10**6
    values = np.random.default_rng(seed).integers(0, 5 * 10**5, size=(n, n))
    idx = np.arange(n)
    values[idx, idx] = h
    values[idx[:-1], idx[:-1] + 1] = h + step
    values[0, 1] -= drop
    return values[np.array(rows)][:, np.array(cols)]


def weight(v, allocation):
    """Total valuation that allocation collects on the matrix v."""
    return int(v.values[np.arange(v.n), allocation.assignment].sum())


def brute_force_assignment(v):
    """Exact maximum-weight allocation by enumerating all n! assignments.

    Among equal-weight maxima the lexicographically smallest assignment
    is returned.  Guarded to n <= BRUTE_FORCE_LIMIT.
    """
    n = v.n
    if n > BRUTE_FORCE_LIMIT:
        raise InstanceTooLargeError(
            f"brute-force enumeration limited to n <= {BRUTE_FORCE_LIMIT}, got {n}"
        )
    rows = np.arange(n)
    perms = itertools.permutations(range(n))
    best_weight = -1
    best = None
    while True:
        chunk = list(itertools.islice(perms, 40320))
        if not chunk:
            break
        block = np.array(chunk, dtype=np.int64)
        weights = v.values[rows, block].sum(axis=1)
        k = int(np.argmax(weights))
        if int(weights[k]) > best_weight:
            best_weight = int(weights[k])
            best = block[k]
    return Allocation(best)


def lp_prices(v, allocation):
    """The revenue-maximising envy-free prices of allocation, by linear programming.

    HiGHS maximises sum(p) subject to p[a(i)] - p[j] <= v[i][a(i)] - v[i][j]
    for every consumer i and item j != a(i), and p[a(i)] <= v[i][a(i)].
    Each constraint bounds a difference of two prices or one price, so
    the optimum is integral, and for entries below 2**40 the float
    solution rounds to it.
    """
    n = v.n
    own = allocation.assignment
    rows = np.arange(n)
    values = v.values.astype(float)
    eye = np.eye(n)
    # Constraint (i, j) is row i * n + j.  For j = a(i) the envy
    # constraint reads 0 <= 0, so that row bounds p[a(i)] instead.
    a_ub = eye[own][:, np.newaxis, :] - eye[np.newaxis, :, :]
    a_ub[rows, own] = eye[own]
    b_ub = values[rows, own][:, np.newaxis] - values
    b_ub[rows, own] = values[rows, own]
    res = linprog(-np.ones(n), A_ub=a_ub.reshape(n * n, n), b_ub=b_ub.reshape(-1),
                  bounds=(None, None), method="highs")
    assert res.status == 0, res.message
    return np.rint(res.x).astype(np.int64)
