"""efpm and the minimality certificate against their dense reference loops.

``reference_efpm`` sweeps the whole gap matrix; ``prices_efpm`` sweeps
only the arcs that can still raise a utility, so every iterate, the
sweep count and the sweep at which a non-optimal allocation is refused
must be the same.  ``reference_minimality`` grows the reached set in
rounds of dense n x n passes; ``minimality_certificate`` searches
backwards from the zero set, and must give the same verdict.
``reference_bellman_ford`` relaxes an explicit arc list;
``prices_bellman_ford`` takes a dense row minimum per pass, and must
give the same distances, passes and refusals.  ``lp_prices`` solves the
envy-freeness linear program of an allocation, and its optimum must be
efpm's prices.  ``marginal_prices`` prices each item at its marginal
contribution to the maximum weight, from n + 1 of scipy's assignments,
and must give both methods' prices up to n = 300.  The two methods run
one loop with two sweeps, so they must agree exactly: the same
utilities, prices and sweep count, or the same refusal.

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
    generate,
    minimality_certificate,
    prices_bellman_ford,
    prices_efpm,
    reorder,
    solve_assignment,
)
from efpricing.core import INT64_MAX, max_entry_for

from efpricing import pricing

from helpers import (blocks_of, chain, gap_array, lp_prices, marginal_prices,
                     reference_efpm, reference_minimality)


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
    weights = (-gap_array(u))[offdiag]
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
        allocation = Allocation(assignment)
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


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_efpm_prices_are_the_lp_optimum(data):
    # Beyond the revenue oracle's n <= 6.  The rounded LP answer is
    # checked by the dense reference, not by the package's certificate.
    family = data.draw(st.sampled_from(["random", "ties", "chain", "staircase", "product"]))
    n = data.draw(st.integers(2 if family == "chain" else 1, 60))
    seed = data.draw(st.integers(0, 2**32 - 1))
    if family == "random":
        values = generate(n, seed, data.draw(st.sampled_from([10**6, 2**40 - 1]))).values
    elif family == "ties":
        values = generate(n, seed, 3).values
    elif family == "chain":
        values = chain(n, seed, data.draw(st.permutations(range(n))),
                       data.draw(st.permutations(range(n))))
    elif family == "staircase":
        values = staircase(n)
    else:
        values = np.outer(np.arange(n), np.arange(n))
    v = ValuationMatrix(values)
    allocation = solve_assignment(v).allocation
    vp = reorder(v, allocation)
    _, prices = prices_efpm(build_gap_matrix(vp), vp)
    lp = lp_prices(v, allocation)
    assert reference_minimality(vp, UtilityVector(vp.winning - lp, 0))
    assert np.array_equal(prices.p, lp)


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
        y = (gap_array(gaps) + y[np.newaxis, :]).max(axis=1)
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


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_blocked_methods_match_the_dense_loops_on_chains_with_extra_arcs(data):
    # Some rows also value items further along the chain, at gaps of
    # -step + 1..step, which the first choice keeps, so that rows with
    # no arc off the diagonal (the last), with one (the chain's) and with
    # several meet in one market.  Those arcs all point forward, and
    # every backward entry lies far below the chain, so the identity
    # stays the only optimum.
    n = data.draw(st.integers(2, 40))
    step = data.draw(st.sampled_from([1, 7, 1000]))
    values = chain(n, data.draw(st.integers(0, 2**32 - 1)), range(n), range(n), step)
    if n >= 3:
        extra = data.draw(st.lists(
            st.tuples(st.integers(0, n - 3), st.integers(2, n - 1), st.integers(1 - step, step)),
            min_size=1, max_size=3 * n))
        for row, reach, gap in extra:
            values[row, min(row + reach, n - 1)] = 10**6 + gap
    rows = np.array(data.draw(st.permutations(range(n))))
    cols = np.array(data.draw(st.permutations(range(n))))
    assert_blocked_methods_match(data, *priced(values[rows][:, cols]))


@pytest.mark.parametrize("n", [2, 40, 400])
def test_chains_fit_the_first_level(n, monkeypatch):
    # Each chain row keeps at most its arc to the next item, so the
    # first level holds every kept arc and no segmented rest is built:
    # the sweep is the dense step alone.
    layouts = []
    choose = pricing._choose_arcs

    def recorded(*args, **kwargs):
        layouts.append(choose(*args, **kwargs))
        return layouts[-1]

    monkeypatch.setattr(pricing, "_choose_arcs", recorded)
    utilities, _ = prices_efpm(*priced(chain(n, n, range(n), range(n))))
    assert utilities.iterations_used == n - 1
    assert len(layouts) == 1
    (first_tails, first_weights, weights, tails, segments, rows), _ = layouts[0]
    assert first_tails.tolist() == list(range(1, n)) + [n - 1]
    assert first_weights.tolist() == [1] * (n - 1) + [0]
    assert len(weights) == len(tails) == len(segments) == len(rows) == 0


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


@pytest.mark.parametrize("values", [
    chain(400, 400, range(400), range(400)),
    generate(400, 11).values,
], ids=["chain", "random"])
def test_each_arc_choice_is_one_blocked_pass(values, monkeypatch):
    # The slack bound comes out of the pass that chooses the arcs, so a
    # chain, whose bound is needed, reads its rows once, as random
    # entries do.
    passes = []
    blocks = pricing.row_blocks

    def counted(*args, **kwargs):
        passes.append(args)
        return blocks(*args, **kwargs)

    monkeypatch.setattr(pricing, "row_blocks", counted)
    prices_efpm(*priced(values))
    assert len(passes) == 1


def recorded_choices(gaps, vp):
    """(y, theta, fill, arcs, bound) of each arc choice of one prices_efpm."""
    calls = []
    choose = pricing._choose_arcs

    def recorded(u, y, theta, fill=False):
        arcs, bound = choose(u, y, theta, fill)
        calls.append((y.copy(), theta, fill, arcs, bound))
        return arcs, bound

    pricing._choose_arcs = recorded
    try:
        prices_efpm(gaps, vp)
    finally:
        pricing._choose_arcs = choose
    return calls


def kept_triples(u, arcs):
    """The kept arcs of a layout as (j, k, gaps[j][k]) in item order."""
    first_tails, first_weights, weights, tails, segments, rows = arcs
    item = np.argsort(u.order)
    triples = set()
    for i, (tail, weight) in enumerate(zip(first_tails.tolist(), first_weights.tolist())):
        if tail == i:
            assert weight == 0 and i not in rows
        else:
            triples.add((int(item[i]), int(item[tail]), weight))
    ends = np.append(segments[1:], len(tails))
    for row, lo, hi in zip(rows.tolist(), segments.tolist(), ends.tolist()):
        assert hi - lo >= 1 and first_tails[row] != row
        for tail, weight in zip(tails[lo:hi].tolist(), weights[lo:hi].tolist()):
            triples.add((int(item[row]), int(item[tail]), weight))
    return triples


def drawn_market(data):
    """Gap matrix and reordered matrix of a drawn random, tie-heavy,
    chain-with-drop or staircase market."""
    family = data.draw(st.sampled_from(["random", "ties", "chain", "staircase"]))
    if family == "staircase":
        n = data.draw(st.sampled_from([2, 3, 10, 33]))
        return priced(staircase(n), list(range(n)))
    if family == "chain":
        n = data.draw(st.integers(2, 40))
        step = data.draw(st.sampled_from([1, 7, 1000]))
        drop = 0
        if n >= 5:
            drop = data.draw(st.integers(0, (n - 1) * step - 1))
        return priced(chain(n, data.draw(st.integers(0, 2**32 - 1)),
                            data.draw(st.permutations(range(n))),
                            data.draw(st.permutations(range(n))), step, drop))
    n = data.draw(st.integers(1, 14))
    hi = 3 if family == "ties" else 10**6
    return priced(square(data.draw, st.integers(0, hi), n))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_the_fused_bound_matches_the_dense_slack(data):
    # Each arc choice of a real efpm run, the first and every rebuild,
    # is replayed with blocks of 1..n rows.  Kept are the arcs with
    # slack y_r[j] - gaps[j][k] below theta; the bound is the least
    # slack of the others.
    gaps, vp = drawn_market(data)
    n = gaps.n
    rows = data.draw(st.integers(1, n), label="rows per block")
    g = gap_array(gaps)
    for y_r, theta, fill, arcs, bound in recorded_choices(gaps, vp):
        y = np.empty(n, dtype=np.int64) if fill else y_r.copy()
        with blocks_of(rows * n):
            arcs, got = pricing._choose_arcs(gaps, y, theta, fill)
        assert np.array_equal(y, y_r)
        slack = y_r[gaps.order][:, np.newaxis] - g
        dropped = slack[slack >= theta]
        assert got == bound == (int(dropped.min()) if dropped.size else INT64_MAX)
        assert got >= theta
        kept = slack < theta
        np.fill_diagonal(kept, False)
        assert kept_triples(gaps, arcs) == {
            (j, k, int(g[j, k])) for j, k in zip(*np.nonzero(kept))}


def choices_reading_max_every_sweep(gaps):
    """(sweep, theta) of each arc choice when max(y) is read before every sweep.

    The iterates are the dense loop's; the arcs are chosen again when
    max(y) passes the bound of the last choice, as efpm does, and the
    bounds come from efpm's own choice.  Also returns the iterates, in
    efpm's row order.
    """
    n = gaps.n
    g = gap_array(gaps)

    def in_rows(y):
        rows = np.empty_like(y)
        rows[gaps.order] = y
        return rows

    y = g.max(axis=1)
    iterates = [in_rows(y).tolist()]
    if not y.any():
        return [], iterates
    theta = 2 * int(y.max())
    choices = [(0, theta)]
    _, bound = pricing._choose_arcs(gaps, in_rows(y), theta)
    for sweep in range(n - 1):
        top = int(y.max())
        if top > bound:
            theta = min(2 * top, INT64_MAX)
            choices.append((sweep, theta))
            _, bound = pricing._choose_arcs(gaps, in_rows(y), theta)
        y_next = (g + y[np.newaxis, :]).max(axis=1)
        if np.array_equal(y_next, y):
            break
        y = y_next
        iterates.append(in_rows(y).tolist())
    return choices, iterates


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_arcs_are_chosen_again_at_the_sweeps_that_reading_max_every_sweep_gives(data):
    # efpm reads max(y) only once the largest gap per sweep may have
    # carried it past the bound; it must choose again at the same
    # sweeps, with the same theta, as a loop that reads it every sweep.
    gaps, vp = drawn_market(data)
    expected, iterates = choices_reading_max_every_sweep(gaps)
    got = [(iterates.index(y.tolist()), theta)
           for y, theta, _, _, _ in recorded_choices(gaps, vp)]
    assert got == expected


def test_the_staircase_chooses_its_arcs_again():
    # The family on which the test above sees rebuilds after sweep 0.
    choices, _ = choices_reading_max_every_sweep(priced(staircase(33), list(range(33)))[0])
    assert len(choices) > 2


def outcome(method, gaps, vp):
    """A method's (y, prices, iterations_used), or (text, sweeps) of its refusal."""
    try:
        utilities, prices = method(gaps, vp)
    except NonOptimalAllocation as exc:
        return str(exc), exc.sweeps
    return utilities.y.tolist(), prices.p.tolist(), utilities.iterations_used


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_both_methods_follow_one_rule(data):
    # Each market is priced under its optimal allocation and under a
    # drawn one, which both methods most often refuse.
    family = data.draw(st.sampled_from(["drawn", "one item", "zeros"]))
    if family == "drawn":
        values = drawn_market(data)[1].source
    elif family == "one item":
        values = [[data.draw(st.integers(0, 10**6))]]
    else:
        values = np.zeros((data.draw(st.integers(1, 14)),) * 2, dtype=np.int64)
    for assignment in (None, data.draw(st.permutations(range(len(values))))):
        gaps, vp = priced(values, assignment)
        assert outcome(prices_efpm, gaps, vp) == outcome(prices_bellman_ford, gaps, vp)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_both_methods_price_at_the_marginal_contributions(data):
    gaps, vp = drawn_market(data)
    expected = marginal_prices(vp.source).tolist()
    assert prices_efpm(gaps, vp)[1].p.tolist() == expected
    assert prices_bellman_ford(gaps, vp)[1].p.tolist() == expected


def relabelled(values, seed):
    rng = np.random.default_rng(seed)
    n = len(values)
    return values[rng.permutation(n)][:, rng.permutation(n)]


@pytest.mark.parametrize("values", [
    relabelled(generate(300, 3).values, 3),
    relabelled(generate(200, 4, 7).values, 4),
    relabelled(chain(300, 300, range(300), range(300)), 5),
    relabelled(np.outer(np.arange(1, 151), np.arange(1, 151)), 150),
], ids=["random-300", "ties-200", "chain-300", "product-150"])
def test_both_methods_price_large_markets_at_the_marginal_contributions(values):
    gaps, vp = priced(values)
    expected = marginal_prices(values).tolist()
    assert prices_efpm(gaps, vp)[1].p.tolist() == expected
    assert prices_bellman_ford(gaps, vp)[1].p.tolist() == expected
