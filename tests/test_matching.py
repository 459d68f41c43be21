import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from efpricing import (
    ValuationMatrix,
    build_gap_matrix,
    generate,
    matching,
    prices_efpm,
    reorder,
    solve_assignment,
)
from efpricing.core import max_entry_for
from efpricing.oracles import InstanceTooLargeError

from helpers import (
    blocks_of,
    brute_force_assignment,
    chain,
    random_matrix,
    reference_assignment,
    weight,
)


def test_two_by_two_prefers_diagonal():
    v = ValuationMatrix([[3, 1], [1, 2]])
    res = solve_assignment(v)
    assert res.allocation.assignment.tolist() == [0, 1]
    assert weight(v, res.allocation) == 5


def test_two_by_two_prefers_swap():
    v = ValuationMatrix([[0, 10], [10, 0]])
    res = solve_assignment(v)
    assert res.allocation.assignment.tolist() == [1, 0]
    assert weight(v, res.allocation) == 20


def test_constant_matrix_returns_valid_permutation():
    n = 6
    v = ValuationMatrix(np.full((n, n), 3))
    res = solve_assignment(v)
    assert sorted(res.allocation.assignment.tolist()) == list(range(n))
    assert weight(v, res.allocation) == n * 3
    # Column reduction gives each column its lowest free tied row.
    assert res.allocation.assignment.tolist() == list(range(n))


def test_single_item():
    v = ValuationMatrix([[7]])
    res = solve_assignment(v)
    assert res.allocation.assignment.tolist() == [0]
    assert weight(v, res.allocation) == 7


def test_deterministic_across_calls():
    rng = np.random.default_rng(23)
    v = random_matrix(rng, 40, 5)  # small value range forces many ties
    first = solve_assignment(v)
    second = solve_assignment(v)
    assert np.array_equal(first.allocation.assignment, second.allocation.assignment)


def test_brute_force_examples():
    for rows, best in (([[3, 1], [1, 2]], 5), ([[7]], 7)):
        v = ValuationMatrix(rows)
        assert weight(v, brute_force_assignment(v)) == best


def test_brute_force_breaks_ties_lexicographically():
    res = brute_force_assignment(ValuationMatrix(np.full((4, 4), 2)))
    assert res.assignment.tolist() == [0, 1, 2, 3]


def test_brute_force_size_guard():
    v = ValuationMatrix(np.ones((11, 11), dtype=np.int64))
    with pytest.raises(InstanceTooLargeError):
        brute_force_assignment(v)


def test_weights_match_brute_force_oracle():
    rng = np.random.default_rng(31)
    for _ in range(250):
        n = int(rng.integers(2, 9))
        hi = int(rng.choice([2, 10, 1000, 10**6]))
        v = random_matrix(rng, n, hi)
        fast = solve_assignment(v)
        exact = brute_force_assignment(v)
        assert weight(v, fast.allocation) == weight(v, exact)
        assert sorted(fast.allocation.assignment.tolist()) == list(range(n))


def product(n):
    """values[i][j] = i * j: every column but the first peaks on the
    last row, so column reduction leaves n - 2 rows free and nearly all
    of them augment."""
    i = np.arange(n, dtype=np.int64)
    return ValuationMatrix(np.outer(i, i))


def uniform(hi):
    rng = np.random.default_rng(37)
    return [random_matrix(rng, n, hi) for n in (25, 60, 120) for _ in range(5)]


# Entries in 0..10^6 hardly tie; entries in 0..3 tie heavily.  Products
# at n = 300 run 296 augmentations, and are exact in float64.
@pytest.mark.parametrize(
    "instances",
    [
        pytest.param(lambda: uniform(10**6), id="1000000"),
        pytest.param(lambda: uniform(3), id="3"),
        pytest.param(lambda: [product(300)], id="product"),
    ],
)
def test_weights_match_scipy_on_larger_instances(instances):
    for v in instances():
        res = solve_assignment(v)
        r, c = linear_sum_assignment(v.values, maximize=True)
        assert weight(v, res.allocation) == int(v.values[r, c].sum())


@pytest.mark.parametrize("n, max_value, seed", [(400, 10**6, 101), (300, 1000, 9), (150, 50, 4)])
def test_row_reduction_takes_a_free_column_as_it_is(n, max_value, seed, monkeypatch):
    # A row whose cheapest column is free takes it, and h stays as it
    # is.  The comparison with the eager-predecessor matcher reuses
    # _reduce_rows, so it cannot see a fault there: after each pass,
    # every matched row must be at its least reduced cost and no free
    # column's h may have moved from its column maximum, and the weight
    # must be scipy's.
    v = generate(n, seed, max_value)
    values = v.values
    colmax = values.max(axis=0)
    reduce_rows = matching._reduce_rows
    taken = []

    def checked(values_, h, row_of_col, col_of_row, free, reduced):
        was_free = [j for j in range(n) if row_of_col[j] < 0]
        left = reduce_rows(values_, h, row_of_col, col_of_row, free, reduced)
        taken.append(sum(row_of_col[j] >= 0 for j in was_free))
        for i, j in enumerate(col_of_row):
            if j >= 0:
                assert h[j] - values[i, j] == (h - values[i]).min()
        assert (h >= colmax).all()
        assert all(h[j] == colmax[j] for j in range(n) if row_of_col[j] < 0)
        return left

    monkeypatch.setattr(matching, "_reduce_rows", checked)
    res = solve_assignment(v)
    assert sum(taken) > 0
    r, c = linear_sum_assignment(values, maximize=True)
    assert weight(v, res.allocation) == int(values[r, c].sum())


def efpm_prices(v, allocation):
    vp = reorder(v, allocation)
    return prices_efpm(build_gap_matrix(vp), vp)[1].p


def square(n, entries):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def small_entries(draw):
    n = draw(st.integers(1, 7))
    return draw(square(n, st.integers(0, 3)))


@st.composite
def constant_matrices(draw):
    n = draw(st.integers(1, 7))
    c = draw(st.integers(0, max_entry_for(n)))
    return [[c] * n for _ in range(n)]


@st.composite
def extreme_entries(draw):
    n = draw(st.integers(1, 7))
    m = max_entry_for(n)
    return draw(square(n, st.sampled_from([0, m // 2, m - 1, m])))


@st.composite
def chains(draw):
    """Consumer i values item i at h and item i+1 at h+1; the rest is
    filler below h, drawn from a small range so that it ties."""
    n = draw(st.integers(1, 7))
    h = draw(st.integers(2, max_entry_for(n) - 1))
    filler = draw(st.sampled_from([0, h // 2, h - 1]))
    rows = [[filler] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = h
        if i + 1 < n:
            rows[i][i + 1] = h + 1
    return rows


@st.composite
def tie_heavy(draw):
    n = draw(st.integers(1, 40))
    return draw(square(n, st.integers(0, 3)))


@st.composite
def products(draw):
    """i * j, its rows and columns relabelled."""
    n = draw(st.integers(1, 40))
    rows = draw(st.permutations(range(n)))
    cols = draw(st.permutations(range(n)))
    return product(n).values[rows][:, cols].tolist()


@pytest.mark.parametrize(
    "family", [small_entries, constant_matrices, extreme_entries, chains]
)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_matcher_properties(family, data):
    v = ValuationMatrix(data.draw(family()))
    res = solve_assignment(v)
    exact = brute_force_assignment(v)
    assert weight(v, res.allocation) == weight(v, exact)
    again = solve_assignment(v)
    assert np.array_equal(again.allocation.assignment, res.allocation.assignment)
    # Shapley-Shubik: the minimal stable prices do not depend on which
    # optimal allocation they are computed for, so tie-breaks may change.
    assert np.array_equal(efpm_prices(v, res.allocation), efpm_prices(v, exact))


def test_extreme_entries_regression():
    # Entries at max_entry_for(6) and half of it.  Uncapped augmenting row
    # reduction lowers potentials here by steps far smaller than the
    # entries and does not finish in any reasonable time; the step cap
    # per pass hands the rows left to the shortest path step instead.
    m = max_entry_for(6)
    h = m // 2
    v = ValuationMatrix([
        [0, m - 1, m, 0, m, 0],
        [m, 0, m - 1, m, m - 1, 0],
        [0, 0, m - 1, h, 0, m],
        [m - 1, 0, m, h, 0, h],
        [m - 1, 0, m - 1, h, 0, 0],
        [m, h, m - 1, 0, h, 0],
    ])
    res = solve_assignment(v)
    assert weight(v, res.allocation) == weight(v, brute_force_assignment(v))


@pytest.mark.parametrize("family", [small_entries, constant_matrices, chains])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_blocks_leave_assignment_unchanged(family, data):
    # Column reduction reads the tight entries in row blocks; with blocks
    # from one row to the whole matrix, the assignment is the same.
    v = ValuationMatrix(data.draw(family()))
    res = solve_assignment(v)
    with blocks_of(data.draw(st.integers(1, v.n * v.n), label="entries per block")):
        blocked = solve_assignment(v)
    assert np.array_equal(blocked.allocation.assignment, res.allocation.assignment)


@pytest.mark.parametrize("family", [small_entries, extreme_entries, chains, tie_heavy, products])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_same_allocation_as_eager_predecessors(family, data):
    # Each path column goes to the first scanned row that reaches its
    # final length, the row a strict < update of a predecessor array keeps.
    v = ValuationMatrix(data.draw(family()))
    res = solve_assignment(v)
    assert res.allocation.assignment.tolist() == reference_assignment(v).tolist()


class CountingNumpy:
    """numpy, with its ``minimum`` calls counted.

    ``_augment`` relaxes its Dijkstra tree with one ``np.minimum`` per
    step, and nothing else in the matcher calls it, so the count is the
    matcher's Dijkstra steps.  Every other attribute is numpy's own.
    """

    def __init__(self):
        self.steps = 0

    def minimum(self, *args, **kwargs):
        self.steps += 1
        return np.minimum(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.parametrize("n, seed", [(200, s) for s in range(1, 6)] + [(800, 11)])
def test_tie_heavy_markets_take_few_dijkstra_steps(monkeypatch, n, seed):
    # Entries in 0..7 tie everywhere.  A path ends at the first free
    # column among those tied at its length, in 22-55 steps on these
    # markets; scanning every tied column first takes 931-2,363, with
    # the same allocation weights.
    counter = CountingNumpy()
    monkeypatch.setattr(matching, "np", counter)
    solve_assignment(generate(n, seed, 7))
    assert 0 < counter.steps <= 100


@pytest.mark.parametrize("n", [50, 400, 500])
def test_chain_markets_need_no_augmenting_path(monkeypatch, n):
    # Column and row reduction match every consumer of a chain, relabelled
    # as perfbench relabels its chain markets.
    calls = []
    augment = matching._augment
    monkeypatch.setattr(matching, "_augment", lambda *args: calls.append(1) or augment(*args))
    rng = np.random.default_rng(n)
    rows, cols = rng.permutation(n), rng.permutation(n)
    assignment = solve_assignment(ValuationMatrix(chain(n, n, rows, cols))).allocation.assignment
    # Consumer rows[r] wins its own item, which is column r' with cols[r'] = rows[r].
    assert np.array_equal(cols[assignment], rows)
    assert calls == []


def test_row_reduction_leaves_few_rows_to_augment(monkeypatch):
    # Two passes of row reduction, in which a holder displaced on a tie
    # waits for the next pass, leave 13 of these rows to the shortest
    # path step.  One pass leaves 38, and the matcher takes 1.2-1.5x as
    # long; a displaced holder that bids again at once leaves 86, at
    # 1.9-2x the time.
    calls = []
    augment = matching._augment
    monkeypatch.setattr(matching, "_augment", lambda *args: calls.append(1) or augment(*args))
    solve_assignment(generate(1000, 11))
    assert len(calls) <= 20
