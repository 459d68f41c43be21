import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efpricing import (
    Allocation,
    PriceVector,
    UtilityVector,
    ValuationMatrix,
    check_envy_free,
    minimality_certificate,
    reorder,
)
from efpricing import verify, write_instance
from efpricing.cli import solve_and_price
from efpricing.core import INT64_MAX, max_entry_for
from efpricing.instance import stream_instance
from efpricing.oracles import InstanceTooLargeError, brute_force_max_revenue

from helpers import (blocks_of, chain, random_matrix, reference_check_envy_free,
                     reference_minimality)


def efpm(v):
    """The optimal allocation of v and its efpm prices."""
    solved = solve_and_price(v, ["efpm"])
    return solved.allocation, solved.priced["efpm"][1]


def price_vector(values):
    return PriceVector(np.array(values, dtype=np.int64))


class TestCheckEnvyFree:
    def test_ties_are_allowed(self):
        v = ValuationMatrix([[5, 4], [1, 2]])
        a = Allocation([0, 1])
        report = check_envy_free(v, a, price_vector([3, 2]))
        assert report.envy_free
        assert report.violations == []
        assert report.negative_utility_consumers == []

    def test_strict_envy_is_flagged(self):
        v = ValuationMatrix([[5, 4], [1, 2]])
        a = Allocation([0, 1])
        report = check_envy_free(v, a, price_vector([4, 2]))
        assert not report.envy_free
        assert report.violations == [(0, 1, 1)]

    def test_negative_utility_is_flagged(self):
        v = ValuationMatrix([[5, 4], [1, 2]])
        a = Allocation([0, 1])
        report = check_envy_free(v, a, price_vector([6, 3]))
        assert not report.envy_free
        assert 0 in report.negative_utility_consumers

    def test_zero_prices_reduce_to_row_argmax(self):
        v = ValuationMatrix([[9, 1], [2, 8]])  # diagonal-dominant
        a = Allocation([0, 1])
        assert check_envy_free(v, a, price_vector([0, 0])).envy_free
        v2 = ValuationMatrix([[1, 9], [2, 8]])
        report = check_envy_free(v2, a, price_vector([0, 0]))
        assert not report.envy_free

    def test_extreme_prices_give_exact_gains(self):
        # Utilities of 2**63 and more do not fit int64: consumer 0's own
        # utility is 2**63 + 4 and it envies nothing; consumer 1 gains
        # exactly 2**63 on item 0.
        v = ValuationMatrix([[5, 4], [1, 2]])
        a = Allocation([0, 1])
        report = check_envy_free(v, a, price_vector([-(2**63 - 1), 2]))
        assert report.violations == [(1, 0, 2**63)]
        assert report.negative_utility_consumers == []
        assert not report.envy_free

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_python_integers_for_any_int64_prices(self, data):
        n = data.draw(st.integers(1, 4))
        m = max_entry_for(n)
        entries = st.one_of(st.integers(0, 3), st.sampled_from([m - 1, m]))
        rows = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                  min_size=n, max_size=n))
        int64 = st.integers(-(2**63), 2**63 - 1)
        prices = data.draw(st.lists(st.one_of(int64, st.integers(-3, 3)),
                                    min_size=n, max_size=n))
        assignment = data.draw(st.permutations(range(n)))
        v = ValuationMatrix(rows)
        report = check_envy_free(v, Allocation(assignment), price_vector(prices))
        own = [rows[i][assignment[i]] - prices[assignment[i]] for i in range(n)]
        gains = [(i, j, rows[i][j] - prices[j] - own[i]) for i in range(n) for j in range(n)]
        assert report.violations == [(i, j, g) for i, j, g in gains if g > 0]
        assert report.negative_utility_consumers == [i for i in range(n) if own[i] < 0]

    def test_dimension_mismatch(self):
        v = ValuationMatrix([[5, 4], [1, 2]])
        a = Allocation([0, 1])
        with pytest.raises(ValueError, match="sizes"):
            check_envy_free(v, a, price_vector([1, 2, 3]))
        # A utility vector of one entry too few or too many is refused
        # the same way, not broadcast against the winning valuations.
        vp = reorder(v, a)
        for y in ([0], [0, 0, 0]):
            with pytest.raises(ValueError, match="inconsistent sizes"):
                minimality_certificate(vp, UtilityVector(y=y, iterations_used=0))


    @pytest.mark.parametrize("spans", [
        [(0, 2), (4, 6)],
        [(0, 4), (2, 6)],
        [(0, 2), (0, 6)],
        [(0, 6), (6, 7)],
    ], ids=["gap", "overlap", "restart", "past the last row"])
    def test_blocks_must_give_each_row_once_in_order(self, spans):
        # Consumer 2 envies item 3 at these prices, which a pass that
        # skipped or redid rows 2 and 3 could miss.
        values = 10 * np.eye(6, dtype=np.int64)
        values[2, 3] = 20
        v, a, p = ValuationMatrix(values), Allocation(np.arange(6)), price_vector([0] * 6)
        assert check_envy_free(v, a, p).violations == [(2, 3, 10)]
        rows = np.vstack([values, values])
        blocks = ((lo, rows[lo:hi], np.empty((hi - lo, 6), dtype=np.int64))
                  for lo, hi in spans)
        with pytest.raises(ValueError, match="do not follow"):
            check_envy_free(blocks, a, p)

class TestBruteForceMaxRevenue:
    def test_worked_examples(self):
        assert brute_force_max_revenue(ValuationMatrix([[5, 4], [1, 2]])) == 5
        assert brute_force_max_revenue(ValuationMatrix([[3, 1], [1, 2]])) == 5

    def test_single_item_prices_at_valuation(self):
        assert brute_force_max_revenue(ValuationMatrix([[13]])) == 13

    def test_size_guard(self):
        with pytest.raises(InstanceTooLargeError):
            brute_force_max_revenue(ValuationMatrix(np.ones((7, 7), dtype=np.int64)))

    def test_huge_valuations_use_exact_arithmetic(self):
        big = 2**60
        v = ValuationMatrix([[big, big - 1], [big - 3, big]])
        # Identity allocation, gaps [[0, -1], [-3, 0]]: utilities stay zero.
        assert brute_force_max_revenue(v) == 2 * big

    def test_pipeline_revenue_matches_oracle(self):
        rng = np.random.default_rng(73)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            hi = int(rng.choice([3, 12, 10**6]))
            v = random_matrix(rng, n, hi)
            _, prices = efpm(v)
            assert prices.revenue == brute_force_max_revenue(v)

    def test_no_other_allocation_beats_pipeline_revenue(self):
        # The oracle maximizes over every permutation, so equality with the
        # pipeline shows the optimal matching supports the best prices.
        rng = np.random.default_rng(79)
        for _ in range(50):
            v = random_matrix(rng, 5, 30)
            allocation, prices = efpm(v)
            oracle = brute_force_max_revenue(v)
            assert prices.revenue == oracle


class TestPipelineEnvyFreeness:
    def test_pipeline_outputs_are_envy_free(self):
        rng = np.random.default_rng(83)
        for _ in range(150):
            n = int(rng.integers(1, 20))
            v = random_matrix(rng, n, int(rng.choice([4, 10**6])))
            allocation, prices = efpm(v)
            assert check_envy_free(v, allocation, prices).envy_free

    def test_tampered_price_breaks_envy_freeness(self):
        rng = np.random.default_rng(89)
        tampered_caught = 0
        for _ in range(40):
            n = int(rng.integers(2, 10))
            v = random_matrix(rng, n, 1000)
            allocation, prices = efpm(v)
            bumped = prices.p.copy()
            j = int(rng.integers(0, n))
            bumped[j] += 1
            report = check_envy_free(v, allocation, price_vector(bumped.tolist()))
            if not report.envy_free:
                tampered_caught += 1
        # Raising any single optimal price must always create envy or a
        # negative utility, because minimal utilities leave no slack.
        assert tampered_caught == 40


class TestRaisableConsumers:
    def test_optimal_prices_leave_nothing_to_raise(self):
        v = ValuationMatrix([[5, 4], [1, 2]])
        a = Allocation([0, 1])
        assert check_envy_free(v, a, price_vector([3, 2])).raisable == []

    def test_zero_prices_leave_everyone_raisable(self):
        v = ValuationMatrix([[5, 4], [1, 2]])
        a = Allocation([0, 1])
        assert check_envy_free(v, a, price_vector([0, 0])).raisable == [0, 1]

    def test_tight_chain_reaches_the_zero_set(self):
        # Utilities (2, 1, 0): consumer 2 is at zero, 1 likes item 2 as
        # much as its own and 0 likes item 1 as much as its own.
        v = ValuationMatrix([[8, 6, 0], [0, 5, 4], [0, 0, 3]])
        a = Allocation([0, 1, 2])
        report = check_envy_free(v, a, price_vector([6, 4, 3]))
        assert report.envy_free
        assert report.raisable == []
        # A lower price on item 0 cuts consumer 0's tight arc, and only its.
        report = check_envy_free(v, a, price_vector([5, 4, 3]))
        assert report.envy_free
        assert report.raisable == [0]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_only_the_pipeline_prices_pass(self, data):
        """Among envy-free prices for an optimal allocation, exactly the
        revenue-maximal ones leave no consumer raisable."""
        n = data.draw(st.integers(1, 5))
        hi = data.draw(st.sampled_from([3, 1000]))
        rows = data.draw(st.lists(st.lists(st.integers(0, hi), min_size=n, max_size=n),
                                  min_size=n, max_size=n))
        v = ValuationMatrix(rows)
        allocation, prices = efpm(v)
        cuts = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        lowered = price_vector((prices.p - np.array(cuts)).tolist())
        report = check_envy_free(v, allocation, lowered)
        if not report.envy_free:
            return
        raisable = report.raisable
        assert (raisable == []) == (not any(cuts))
        if n <= 4:
            assert (raisable == []) == (lowered.revenue == brute_force_max_revenue(v))


def reference_raisable(rows, assignment, prices):
    """The consumers no tight chain links to a zero-utility one, in Python ints."""
    n = len(rows)
    owner = {assignment[i]: i for i in range(n)}
    own = [rows[i][assignment[i]] - prices[assignment[i]] for i in range(n)]
    reached = {i for i in range(n) if own[i] == 0}
    grown = True
    while grown:
        grown = False
        for i in range(n):
            if i not in reached and any(
                rows[i][j] - prices[j] == own[i] and owner[j] in reached for j in range(n)
            ):
                reached.add(i)
                grown = True
    return [i for i in range(n) if i not in reached]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_blocked_checks_match_python_integers(data):
    # Blocks of 1..n rows.  Drawn prices near the int64 limits send
    # check_envy_free to Python integers; lowered pipeline prices are
    # mostly envy-free, so that the raisable consumers get checked too.
    n = data.draw(st.integers(1, 9))
    m = max_entry_for(n)
    entries = data.draw(st.sampled_from([st.integers(0, 3), st.sampled_from([0, m - 1, m])]))
    rows = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    v = ValuationMatrix(rows)
    if data.draw(st.booleans(), label="pipeline prices"):
        allocation, optimal = efpm(v)
        assignment = allocation.assignment.tolist()
        cuts = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        prices = [int(p) - c for p, c in zip(optimal.p, cuts)]
    else:
        assignment = data.draw(st.permutations(range(n)))
        prices = data.draw(st.lists(
            st.one_of(st.integers(-3, 3), st.sampled_from([-(2**63), 2**63 - 1, m])),
            min_size=n, max_size=n))
    a = Allocation(assignment)
    own = [rows[i][assignment[i]] - prices[assignment[i]] for i in range(n)]
    gains = [(i, j, rows[i][j] - prices[j] - own[i]) for i in range(n) for j in range(n)]
    # The matrix, and the same market streamed from its file, whose
    # entries are bounded by max_entry_for(n) alone.
    with blocks_of(data.draw(st.integers(1, n), label="rows per block") * n), \
            tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "market.txt")
        write_instance(v, path)
        for report in (check_envy_free(v, a, price_vector(prices)),
                       check_envy_free(stream_instance(path)[1], a, price_vector(prices))):
            assert report.violations == [(i, j, g) for i, j, g in gains if g > 0]
            assert report.negative_utility_consumers == [i for i in range(n) if own[i] < 0]
            if report.envy_free:
                assert report.raisable == reference_raisable(rows, assignment, prices)
            else:
                assert report.raisable == []


@pytest.mark.parametrize("cut", [0, 1, 30, 59, 60])
def test_a_relabelled_chain_is_searched_one_item_a_level(cut):
    # Chain consumer i is held only by consumer i + 1, and only consumer
    # n - 1 has zero utility, so the search takes n levels of one item.
    # Lowering the prices of chain items 0..cut-1 by one cuts the chain
    # there: exactly the chain consumers 0..cut-1 become raisable.
    n = 60
    rng = np.random.default_rng(cut)
    rows, cols = rng.permutation(n), rng.permutation(n)
    values = chain(n, n, rows, cols)
    v = ValuationMatrix(values)
    allocation, optimal = efpm(v)
    prices = (optimal.p - (cols < cut)).tolist()
    report = check_envy_free(v, allocation, price_vector(prices))
    assert report.envy_free
    assert report.raisable == reference_raisable(
        values.tolist(), allocation.assignment.tolist(), prices)
    assert report.raisable == np.flatnonzero(rows < cut).tolist()
    vp = reorder(v, allocation)
    utilities = UtilityVector(y=vp.winning - np.array(prices), iterations_used=0)
    assert minimality_certificate(vp, utilities) == reference_minimality(vp, utilities)
    assert minimality_certificate(vp, utilities) == (cut == 0)


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


@st.composite
def priced_markets(draw):
    """A market, its optimal allocation, and its optimal prices, lowered or not.

    Chains hold each consumer by the next one only, so the search takes
    n levels; markets of entries 0..2, and of one entry everywhere, have
    more than ``FEW_ARCS`` tight arcs per consumer, and chained markets
    too, with consumers left to reach.  Lowering one price breaks
    envy-freeness where another consumer was tight with that item, and
    lowering them all leaves no zero-utility consumer.  A price far
    below zero takes the certificate to Python integers.
    """
    family = draw(st.sampled_from(["chain", "ties", "equal", "chained"]))
    n = draw(st.integers(12, 40))
    if family in ("chain", "chained"):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        rows, cols = rng.permutation(n), rng.permutation(n)
        if family == "chain":
            values = chain(n, n, rows, cols)
        else:
            values = chained(n, draw(st.integers(1, n // 2 - 1)), rows, cols)
    elif family == "ties":
        values = draw(st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n),
                               min_size=n, max_size=n))
    else:
        values = [[draw(st.integers(0, max_entry_for(n)))] * n] * n
    v = ValuationMatrix(values)
    allocation, optimal = efpm(v)
    prices = optimal.p.copy()
    lowered = draw(st.sampled_from(["none", "one", "all", "far"]))
    cut = draw(st.integers(1, 3))
    if lowered == "one":
        prices[draw(st.integers(0, n - 1))] -= cut
    elif lowered == "all":
        prices -= cut
    elif lowered == "far":
        # Utilities past INT64_MAX where the entries are large.
        prices[draw(st.integers(0, n - 1))] = max_entry_for(n) // 2 - INT64_MAX
    return v, allocation, PriceVector(prices)


@settings(max_examples=150, deadline=None)
@given(market=priced_markets(), rows=st.integers(1, 8))
def test_both_searches_and_the_stream_match_the_reference(market, rows):
    # The matrix and the same market streamed from its file, in blocks
    # of a few rows, each against the level search on the whole matrix.
    v, allocation, prices = market
    expected = reference_check_envy_free(v, allocation, prices)
    with tempfile.TemporaryDirectory() as tmp, blocks_of(rows * v.n):
        path = Path(tmp, "market.txt")
        write_instance(v, path)
        n, blocks = stream_instance(path)
        assert n == v.n
        for report in (check_envy_free(v, allocation, prices),
                       check_envy_free(blocks, allocation, prices)):
            assert report.violations == expected.violations
            assert report.negative_utility_consumers == expected.negative_utility_consumers
            assert report.raisable == expected.raisable


@pytest.mark.parametrize("family, searches", [
    ("random", ["_search_arcs"]),
    ("chain", ["_search_arcs"]),
    ("ties", []),
    ("chained", ["_search_levels"]),
], ids=["random", "chain", "ties", "chained"])
def test_the_arcs_are_counted_before_either_search(family, searches, monkeypatch):
    # Random and chain markets keep two tight arcs per consumer, under
    # the cut-off, and chained ones half the row in the block.  Tie-heavy
    # ones keep about a quarter of the row, but every consumer there has
    # zero utility, so neither search runs.
    n = 200
    if family == "chain":
        values = chain(n, 1, np.arange(n), np.arange(n))
    elif family == "chained":
        values = chained(n, n // 2 - 1, np.arange(n), np.arange(n))
    else:
        values = np.array(random_matrix(np.random.default_rng(7), n,
                                        7 if family == "ties" else 10**6).values)
    v = ValuationMatrix(values)
    allocation, prices = efpm(v)
    ran = []
    for name in ("_search_arcs", "_search_levels"):
        found = getattr(verify, name)
        monkeypatch.setattr(verify, name,
                            lambda *args, name=name, found=found: ran.append(name) or found(*args))
    report = check_envy_free(v, allocation, prices)
    assert ran == searches
    assert report.envy_free and report.raisable == []


class ColumnReads(np.ndarray):
    """A boolean matrix that counts the reads of its columns."""

    def __getitem__(self, key):
        self.reads += 1
        return self.view(np.ndarray)[key]


@pytest.mark.parametrize("n, c", [(12, 1), (40, 19), (200, 99)])
def test_a_chained_market_is_searched_one_chain_item_a_level(n, c, monkeypatch):
    # The level search reads the frontier's columns once per level: one
    # chain item per level from consumer 0's item to item c, then the
    # block's items, which reach no one new.  Lowering the block items'
    # prices by one cuts the block off from item c: all of it becomes
    # raisable, and the search stops after item c.
    rng = np.random.default_rng(n)
    rows, cols = rng.permutation(n), rng.permutation(n)
    values = chained(n, c, rows, cols)
    v = ValuationMatrix(values)
    allocation, optimal = efpm(v)
    reads = []

    def counted(tight, unreached, assignment, found=verify._search_levels):
        tight = tight.view(ColumnReads)
        tight.reads = 0
        result = found(tight, unreached, assignment)
        reads.append(tight.reads)
        return result

    monkeypatch.setattr(verify, "_search_levels", counted)
    for cut, raisable in ((0, []), (1, np.flatnonzero(rows > c).tolist())):
        prices = (optimal.p - cut * (cols > c)).tolist()
        report = check_envy_free(v, allocation, price_vector(prices))
        assert report.envy_free
        assert report.raisable == raisable == reference_raisable(
            values.tolist(), allocation.assignment.tolist(), prices)
    assert reads == [c + 2, c + 1]
