"""Shared helpers for the test suite, and the oracles it checks against."""

import contextlib
import itertools
import sys

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog

from efpricing import (Allocation, EnvyReport, ParseError, PriceVector, ValuationMatrix,
                       build_gap_matrix, read_instance, read_solution, reorder,
                       solve_assignment)
from efpricing import core, instance
from efpricing.core import INT64_MAX, INT64_MIN
from efpricing.oracles import InstanceTooLargeError
from efpricing.matching import _reduce_columns, _reduce_rows

#: Hard guard for the factorial assignment oracle.
BRUTE_FORCE_LIMIT = 10


def random_matrix(rng, n, hi):
    return ValuationMatrix(rng.integers(0, hi + 1, size=(n, n)))


def explicit_gaps(rows):
    """A gap matrix given entry by entry, its diagonal zero, as the identity view.

    A valuation matrix lies in 0..max_entry_for(n), so each column is
    shifted by its minimum; its winning valuation moves with it, and the
    gaps stay the same.
    """
    g = np.asarray(rows, dtype=np.int64)
    return reorder(ValuationMatrix(g - g.min(axis=0)), Allocation(np.arange(len(g))))


def priced(values, assignment=None):
    """Gap matrix and reordered matrix for an allocation, optimal by default."""
    v = ValuationMatrix(values)
    if assignment is None:
        allocation = solve_assignment(v).allocation
    else:
        allocation = Allocation(assignment)
    vp = reorder(v, allocation)
    return build_gap_matrix(vp), vp


def reordered_values(u):
    """The reordered matrix V' of a view: row i is the row of item i's winner."""
    return np.take(u.source, u.order, axis=0)


def gap_array(u):
    """The gap matrix of a view as an array: gaps[j][k] = V'[j][k] - winning[k]."""
    return reordered_values(u) - u.winning


@contextlib.contextmanager
def blocks_of(entries):
    """Run the blocked passes over matrix rows, and stream instance files,
    in blocks of about this many entries."""
    saved = core._ROW_BLOCK, instance._STREAM_BLOCK
    core._ROW_BLOCK = instance._STREAM_BLOCK = entries
    try:
        yield
    finally:
        core._ROW_BLOCK, instance._STREAM_BLOCK = saved


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


def chained(n, c, rows, cols):
    """Consumer 0, a chain of c consumers after it, and a block of the rest.

    With H = n + 10, consumer 0 values item 0 at 5, chain consumer
    i = 1..c values item i at H and item i - 1 at H - 1, each block
    consumer values every block item (c + 1 .. n - 1) at H and item c at
    H - 1, and every other entry is 0.  At the optimal prices consumer 0
    alone has zero utility, chain consumer i is held by consumer i - 1
    alone, and the block by chain consumer c.  A block of n / 2 or more
    has more than ``FEW_ARCS`` tight arcs per consumer, so the level
    search takes c levels of one item, then the block's.  rows and cols
    relabel the market.
    """
    h = n + 10
    values = np.zeros((n, n), dtype=np.int64)
    values[0, 0] = 5
    links = np.arange(1, c + 1)
    values[links, links] = h
    values[links, links - 1] = h - 1
    values[c + 1 :, c + 1 :] = h
    values[c + 1 :, c] = h - 1
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


def reference_assignment(v):
    """The matcher with an eager predecessor array, as a permutation.

    Column and row reduction are the package's.  Each Dijkstra step
    updates ``pred`` where a row strictly lowers a column's length, so
    each column keeps the first row that reaches its final length.
    solve_assignment must return the same permutation.
    """
    n = v.n
    values = v.values
    h = values.max(axis=0)
    row_of_col, col_of_row = _reduce_columns(values == h)
    free = [i for i in range(n) if col_of_row[i] < 0]
    reduced = np.empty(n, dtype=np.int64)
    for _ in range(2):
        if not free:
            break
        free = _reduce_rows(values, h, row_of_col, col_of_row, free, reduced)
    for root in free:
        _reference_augment(values, h, row_of_col, col_of_row, root)
    return np.array(col_of_row, dtype=np.int64)


def _reference_augment(values, h, row_of_col, col_of_row, root):
    n = values.shape[0]
    dist = h - values[root]
    unsigned = dist.view(np.uint64)
    pred = np.full(n, root, dtype=np.int64)
    cand = np.empty(n, dtype=np.int64)
    better = np.empty(n, dtype=bool)
    free_cols = np.array([j for j in range(n) if row_of_col[j] < 0], dtype=np.int64)
    scanned = []
    lengths = []
    while True:
        j = int(unsigned.argmin())
        mu = int(dist[j])
        i = row_of_col[j]
        if i < 0:
            break
        if lengths and lengths[-1] == mu:
            free_dist = dist.take(free_cols)
            k = int(free_dist.argmin())
            if free_dist[k] == mu:
                j = int(free_cols[k])
                break
        scanned.append(j)
        lengths.append(mu)
        dist[j] = -1
        np.subtract(h, values[i], out=cand)
        cand -= int(h[j]) - int(values[i, j]) - mu
        np.less(cand, dist, out=better)
        np.copyto(dist, cand, where=better)
        np.copyto(pred, i, where=better)
    if scanned:
        h[scanned] += mu - np.array(lengths, dtype=np.int64)
    while True:
        i = int(pred[j])
        row_of_col[j] = i
        col_of_row[i], j = j, col_of_row[i]
        if i == root:
            break


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


def marginal_prices(values):
    """Each item's marginal contribution to the maximum weight: p[j] = W - W_-j.

    W is the maximum weight of the market, and W_-j the maximum weight
    with item j's column removed, so that one consumer goes without.
    In the assignment game these are the seller-optimal core prices
    (Leonard 1983; Demange, Gale and Sotomayor 1986): the
    revenue-maximising envy-free prices of every optimal allocation.
    Each of the n + 1 maxima comes from scipy's Hungarian method in
    float64, which is exact only while sums of n entries stay below
    2**52, so larger entries are refused; the weights of the
    assignments it picks are summed again in Python integers.
    """
    values = np.asarray(values, dtype=np.int64)
    n = len(values)
    if values.max() > 2**52 // n:
        raise ValueError(f"entries above 2**52 // {n} are not summed exactly in float64")

    def best(cols):
        rows, picked = linear_sum_assignment(values[:, cols].astype(float), maximize=True)
        return sum(values[rows, cols[picked]].tolist())

    items = np.arange(n)
    total = best(items)
    return np.array([total - best(np.delete(items, j)) for j in items], dtype=np.int64)


def reference_check_envy_free(v, a, p):
    """check_envy_free as one pass over a held matrix and a level-synchronous search.

    The int64-or-Python-integer choice comes from the matrix's own
    minimum and maximum, and the reverse search runs one level at a
    time on the n x n tight arcs whatever their number.
    """
    values, assignment, prices = v.values, a.assignment, p.p
    n = len(values)
    if len(assignment) != n or prices.shape != (n,):
        raise ValueError(
            f"inconsistent sizes: matrix {n}, allocation {len(assignment)}, "
            f"prices {prices.shape}"
        )
    low = int(values.min()) - int(prices.max())
    high = int(values.max()) - int(prices.min())
    if low < INT64_MIN or high - min(low, 0) > INT64_MAX:
        prices = prices.astype(object)
    gains = values - prices
    own = gains[np.arange(n), assignment]
    gains -= own[:, np.newaxis]
    violations = [(int(i), int(j), int(gains[i, j])) for i, j in np.argwhere(gains > 0)]
    negative = np.flatnonzero(own < 0).tolist()
    if violations or negative:
        return EnvyReport(violations, negative)
    tight = gains == 0
    unreached = own != 0
    frontier = assignment[~unreached]
    while frontier.size:
        newly = (tight[:, frontier].any(axis=1) & unreached).nonzero()[0]
        unreached[newly] = False
        frontier = assignment[newly]
    return EnvyReport(raisable=unreached.nonzero()[0].tolist())


def reference_verify(instance, solution):
    """``main(["verify", instance, solution])`` as it read the whole matrix first.

    Prints what the command prints and returns its exit code.
    """
    try:
        return _reference_verify(instance, solution)
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _reference_verify(instance, solution):
    v = read_instance(instance)
    record = read_solution(solution)
    if record.n != v.n:
        print(f"size mismatch: instance n={v.n}, solution n={record.n}", file=sys.stderr)
        return 2
    try:
        allocation = Allocation(record.assignment)
    except ValueError as exc:
        print(f"invalid assignment: {exc}", file=sys.stderr)
        return 1
    failures = 0
    if sum(record.prices) != record.revenue:
        print(
            f"revenue mismatch: record says {record.revenue}, prices sum to {sum(record.prices)}"
        )
        failures += 1
    report = reference_check_envy_free(v, allocation, PriceVector(record.prices))
    for consumer, item, gain in report.violations:
        print(f"envy: consumer {consumer} gains {gain} by taking item {item}")
    for consumer in report.negative_utility_consumers:
        print(f"negative utility: consumer {consumer} would rather buy nothing")
    if not report.envy_free:
        return 1
    raisable = report.raisable
    if len(raisable) == v.n:
        print("not revenue-maximal: no consumer has zero utility, so every price can rise")
        failures += 1
    elif raisable:
        print(
            f"not revenue-maximal: {len(raisable)} of {v.n} consumers (first: {raisable[0]}) "
            "reach no zero-utility consumer along tight arcs, so their prices can rise"
        )
        failures += 1
    if failures:
        return 1
    print(f"ok: envy-free and revenue-maximal, revenue {record.revenue}")
    return 0


def reference_plain_header(lines, size):
    """``instance._plain_header`` as a byte scan and ``int()``, before the
    header became one pattern: n from a plain header line, or None where
    the token loop must decide."""
    header = next(lines, b"")
    # The header: splitlines() ends it at any carriage return, so one may
    # only end the line.
    rest = header.translate(None, b"0123456789 \t\n")
    if not (
        bool(header)
        and not header.isspace()
        and (not rest or rest == b"\r" and header.endswith((b"\r\n", b"\r")))
    ):
        return None
    try:
        n = int(header)
    except ValueError:
        return None
    if n < 1 or size < len(header) + 2 * n * n - 1:
        return None
    return n
