"""efpm and the minimality certificate against their dense reference loops.

``reference_efpm`` sweeps the whole gap matrix; ``prices_efpm`` sweeps
only the arcs that can still raise a utility, so every iterate, the
sweep count and the sweep at which a non-optimal allocation is refused
must be the same.  ``reference_minimality`` grows the reached set in
rounds of dense n x n passes; ``minimality_certificate`` searches
backwards from the zero set, and must give the same verdict.
``reference_bellman_ford`` relaxes an explicit arc list;
``prices_bellman_ford`` takes a dense row minimum per pass, and must
give the same distances, passes and refusals.

The methods read the valuation rows in blocks; the ``blocked`` tests
draw the rows a block holds, from one to all of them, so that block
boundaries fall anywhere.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efpricing import (
    Allocation,
    NonOptimalAllocation,
    UtilityVector,
    ValuationMatrix,
    build_gap_matrix,
    minimality_certificate,
    prices_bellman_ford,
    prices_efpm,
    reorder,
    solve_assignment,
)
from efpricing.core import max_entry_for

from efpricing import pricing

from helpers import blocks_of, reference_efpm


def reference_minimality(u, y):
    vec = np.asarray(y.y, dtype=np.int64)
    n = u.n
    diff = vec[:, np.newaxis] - vec[np.newaxis, :] - u.gaps
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


def reference_bellman_ford(u):
    """Bellman-Ford over the arc list (k -> j, weight -gaps[j][k], k != j).

    Returns (y, passes), or (None, sweeps) where prices_bellman_ford
    raises NonOptimalAllocation after that many passes.
    """
    n = u.n
    idx = np.arange(n)
    offdiag = ~np.eye(n, dtype=bool)
    heads = np.repeat(idx, n - 1)
    tails = np.tile(idx, (n, 1))[offdiag]
    weights = (-u.gaps)[offdiag]
    d = np.zeros(n, dtype=np.int64)
    passes = 0
    while True:
        d_next = d.copy()
        np.minimum.at(d_next, heads, d[tails] + weights)
        if np.array_equal(d_next, d):
            return -d, passes
        passes += 1
        if passes > n - 1:
            return None, passes
        d = d_next


def priced(values, assignment=None):
    """Gap matrix and reordered matrix for an allocation, optimal by default."""
    v = ValuationMatrix(values)
    if assignment is None:
        allocation = solve_assignment(v).allocation
    else:
        allocation = Allocation.from_assignment(v, assignment)
    vp = reorder(v, allocation)
    return build_gap_matrix(vp), vp


def assert_efpm_matches_reference(gaps, vp):
    """Run both loops; returns efpm's (y, iterations) or (None, sweeps)."""
    expected = reference_efpm(gaps)
    try:
        utilities, _ = prices_efpm(gaps, vp)
    except NonOptimalAllocation as exc:
        assert (None, exc.sweeps) == expected
        return expected
    assert utilities.iterations_used == expected[1]
    assert expected[0] is not None and np.array_equal(utilities.y, expected[0])
    return utilities.y, utilities.iterations_used


def square(draw, entries, n):
    return draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))


def extreme_entries(n):
    m = max_entry_for(n)
    return st.one_of(st.integers(0, 3), st.sampled_from([m // 2, m - 1, m]))


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


def staircase(n):
    """A chain whose other arcs efpm can hardly prune: its worst case.

    Gaps are 1 on the chain, 0 on the other forward arcs and -(j - k)
    on each backward arc (j, k), so every cycle sums to at most zero and
    the identity is optimal.  The backward arcs tie the chain at the
    fixed point.  Half the arcs are kept from the first sweep on, and
    after the last rebuild all of them are.
    """
    h = 10**6
    j, k = np.indices((n, n))
    values = np.where(k < j, h - (j - k), h)
    idx = np.arange(n - 1)
    values[idx, idx + 1] = h + 1
    return values


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_efpm_matches_the_dense_loop_on_random_entries(data):
    hi = data.draw(st.sampled_from([3, 10**6]))
    values = square(data.draw, st.integers(0, hi), data.draw(st.integers(1, 14)))
    assert_efpm_matches_reference(*priced(values))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_efpm_spends_the_whole_budget_on_chains(data):
    # With drop >= 3 * step, the arc that lifts y[0] lies below the
    # pruning threshold of the first sweeps and is needed only after the
    # bound has grown.
    n = data.draw(st.integers(2, 40))
    seed = data.draw(st.integers(0, 2**32 - 1))
    step = data.draw(st.sampled_from([1, 7, 1000]))
    drop = 0
    if n >= 5 and data.draw(st.booleans()):
        drop = data.draw(st.integers(3 * step, (n - 1) * step - 1))
    rows = data.draw(st.permutations(range(n)))
    cols = data.draw(st.permutations(range(n)))
    y, iterations = assert_efpm_matches_reference(
        *priced(chain(n, seed, rows, cols, step, drop)))
    assert iterations == n - 1
    expected = [step * (n - 1 - i) for i in range(n)]
    expected[0] -= drop
    assert sorted(y.tolist()) == sorted(expected)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_efpm_matches_the_dense_loop_at_the_entry_bound(data):
    n = data.draw(st.integers(1, 8))
    values = square(data.draw, extreme_entries(n), n)
    assert_efpm_matches_reference(*priced(values))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_efpm_matches_the_dense_loop_on_worst_weight_allocations(data):
    # The lightest allocation is non-optimal unless every allocation
    # weighs the same; efpm must refuse it after the reference's sweeps.
    n = data.draw(st.integers(2, 6))
    entries = data.draw(st.sampled_from(
        [st.integers(0, 3), st.integers(0, 10**6), extreme_entries(n)]))
    values = np.array(square(data.draw, entries, n), dtype=np.int64)
    rows = np.arange(n)
    worst = min(itertools.permutations(range(n)),
                key=lambda p: int(values[rows, list(p)].sum()))
    assert_efpm_matches_reference(*priced(values, list(worst)))


@pytest.mark.parametrize("n", [2, 3, 5, 8, 21])
def test_efpm_refuses_a_diverging_allocation_at_the_entry_bound(n):
    # Off the diagonal every entry is M, on it zero: under the identity
    # every utility rises by M a sweep up to n * M, and the arc bound
    # reaches its int64 cap without wrapping.
    m = max_entry_for(n)
    values = m * (1 - np.eye(n, dtype=np.int64))
    assert assert_efpm_matches_reference(*priced(values, list(range(n)))) == (None, n)


@pytest.mark.parametrize("n", [2, 3, 10, 60])
def test_efpm_matches_the_dense_loop_when_most_arcs_stay_kept(n):
    y, iterations = assert_efpm_matches_reference(*priced(staircase(n), list(range(n))))
    assert iterations == n - 1
    assert y.tolist() == list(range(n - 1, -1, -1))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_minimality_certificate_matches_the_round_loop(data):
    # Stable vectors come from sweeping a random start to its fixed
    # point, which is minimal only sometimes; the raw start is also
    # checked, and is usually unstable.
    n = data.draw(st.integers(1, 8))
    hi = data.draw(st.sampled_from([3, 50]))
    gaps, _ = priced(square(data.draw, st.integers(0, hi), n))
    start = np.array(data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)),
                     dtype=np.int64)
    y = start
    for _ in range(n):
        y = (gaps.gaps + y[np.newaxis, :]).max(axis=1)
    for vec in (start, y, y - y.min()):
        utilities = UtilityVector(y=vec, iterations_used=0)
        assert minimality_certificate(gaps, utilities) == reference_minimality(gaps, utilities)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_bellman_ford_matches_the_arc_list(data):
    # Optimal allocations on random and extreme entries, and the lightest
    # allocation, which makes both refuse after the same pass.
    n = data.draw(st.integers(1, 7))
    entries = data.draw(st.sampled_from(
        [st.integers(0, 3), st.integers(0, 10**6), extreme_entries(n)]))
    values = np.array(square(data.draw, entries, n), dtype=np.int64)
    assignment = None
    if n > 1 and data.draw(st.booleans()):
        rows = np.arange(n)
        assignment = list(min(itertools.permutations(range(n)),
                              key=lambda p: int(values[rows, list(p)].sum())))
    gaps, vp = priced(values, assignment)
    expected = reference_bellman_ford(gaps)
    try:
        utilities, _ = prices_bellman_ford(gaps, vp)
    except NonOptimalAllocation as exc:
        assert (None, exc.sweeps) == expected
        return
    assert np.array_equal(utilities.y, expected[0])
    assert utilities.iterations_used == expected[1]


@pytest.mark.parametrize("n", [2, 10, 40])
def test_bellman_ford_matches_the_arc_list_on_chains(n):
    gaps, vp = priced(chain(n, n, range(n), range(n)))
    utilities, _ = prices_bellman_ford(gaps, vp)
    assert (utilities.y.tolist(), utilities.iterations_used) == (
        reference_bellman_ford(gaps)[0].tolist(), n - 1)


def assert_bellman_ford_matches_reference(gaps, vp):
    expected = reference_bellman_ford(gaps)
    try:
        utilities, _ = prices_bellman_ford(gaps, vp)
    except NonOptimalAllocation as exc:
        assert (None, exc.sweeps) == expected
        return
    assert np.array_equal(utilities.y, expected[0])
    assert utilities.iterations_used == expected[1]


def assert_blocked_methods_match(data, gaps, vp):
    """Both methods against their references, with blocks of 1..n rows."""
    n = gaps.n
    rows = data.draw(st.integers(1, n), label="rows per block")
    with blocks_of(rows * n):
        result = assert_efpm_matches_reference(gaps, vp)
        assert_bellman_ford_matches_reference(gaps, vp)
    return result


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_blocked_methods_match_the_dense_loops_on_random_entries(data):
    hi = data.draw(st.sampled_from([3, 10, 10**6]))
    n = data.draw(st.integers(1, 14))
    assert_blocked_methods_match(data, *priced(square(data.draw, st.integers(0, hi), n)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_blocked_methods_match_the_dense_loops_at_the_entry_bound(data):
    n = data.draw(st.integers(1, 8))
    assert_blocked_methods_match(data, *priced(square(data.draw, extreme_entries(n), n)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_blocked_methods_refuse_worst_weight_allocations_at_the_same_sweep(data):
    n = data.draw(st.integers(2, 6))
    entries = data.draw(st.sampled_from(
        [st.integers(0, 3), st.integers(0, 10**6), extreme_entries(n)]))
    values = np.array(square(data.draw, entries, n), dtype=np.int64)
    rows = np.arange(n)
    worst = min(itertools.permutations(range(n)),
                key=lambda p: int(values[rows, list(p)].sum()))
    assert_blocked_methods_match(data, *priced(values, list(worst)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_blocked_methods_match_the_dense_loops_on_chains(data):
    # drop >= 3 * step puts the arc that lifts y[0] below the first
    # choice's threshold, so the slack bound and a rebuild decide it.
    n = data.draw(st.integers(2, 40))
    step = data.draw(st.sampled_from([1, 7, 1000]))
    drop = 0
    if n >= 5 and data.draw(st.booleans()):
        drop = data.draw(st.integers(3 * step, (n - 1) * step - 1))
    values = chain(n, data.draw(st.integers(0, 2**32 - 1)),
                   data.draw(st.permutations(range(n))), data.draw(st.permutations(range(n))),
                   step, drop)
    _, iterations = assert_blocked_methods_match(data, *priced(values))
    assert iterations == n - 1


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_blocked_methods_match_the_dense_loops_on_staircases(data):
    n = data.draw(st.sampled_from([2, 3, 10, 33]))
    y, _ = assert_blocked_methods_match(data, *priced(staircase(n), list(range(n))))
    assert y.tolist() == list(range(n - 1, -1, -1))


@pytest.mark.parametrize("n", [40, 400])
def test_the_slack_bound_spares_chains_every_rebuild(n, monkeypatch):
    # theta starts at 2 and y climbs to n - 1, so doubling alone would
    # choose the arcs again about log2(n) times; the other entries lie far
    # below the chain, so the bound holds the first choice to the end.
    choices = []
    choose = pricing._choose_arcs

    def counted(*args, **kwargs):
        choices.append(args[2])
        return choose(*args, **kwargs)

    monkeypatch.setattr(pricing, "_choose_arcs", counted)
    utilities, _ = prices_efpm(*priced(chain(n, n, range(n), range(n))))
    assert utilities.iterations_used == n - 1
    assert choices == [2]
