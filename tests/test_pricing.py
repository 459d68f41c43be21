import itertools

import numpy as np
import pytest

from efpricing import (
    NonOptimalAllocation,
    PriceVector,
    ReorderedValuation,
    UtilityVector,
    generate,
    minimality_certificate,
    prices_bellman_ford,
    prices_efpm,
    reorder,
)
from efpricing.cli import solve_and_price
from efpricing.core import INT64_MAX

from helpers import explicit_gaps, priced, random_matrix, reference_efpm, reordered_values

ALL_METHODS = [prices_efpm, prices_bellman_ford]


@pytest.mark.parametrize("pricing_fn", ALL_METHODS, ids=["efpm", "bellman-ford"])
class TestSmallMarkets:
    def test_worked_example(self, pricing_fn):
        utilities, prices = pricing_fn(*priced([[5, 4], [1, 2]], range(2)))
        assert utilities.y.tolist() == [2, 0]
        assert prices.p.tolist() == [3, 2]
        assert prices.revenue == 5
        assert utilities.iterations_used <= 1

    def test_all_negative_gaps_price_at_valuations(self, pricing_fn):
        utilities, prices = pricing_fn(*priced([[3, 1], [1, 2]], range(2)))
        assert utilities.y.tolist() == [0, 0]
        assert prices.p.tolist() == [3, 2]
        assert prices.revenue == 5

    def test_single_item(self, pricing_fn):
        utilities, prices = pricing_fn(*priced([[9]], range(1)))
        assert utilities.y.tolist() == [0]
        assert prices.p.tolist() == [9]
        assert utilities.iterations_used == 0

    def test_antidiagonal_market(self, pricing_fn):
        utilities, prices = pricing_fn(*priced([[0, 10], [10, 0]]))
        assert utilities.y.tolist() == [0, 0]
        assert prices.revenue == 20


@pytest.mark.parametrize("pricing_fn", ALL_METHODS, ids=["efpm", "bellman-ford"])
@pytest.mark.parametrize("rows, expected", [
    ([[0, 2], [-4, 0]], [2, 0]),
    ([[0, -1], [-2, 0]], [0, 0]),
    # Utility flows along the path 2 -> 1 -> 0 one sweep at a time.
    ([[0, 1, -5], [-5, 0, 1], [-5, -5, 0]], [2, 1, 0]),
    # A tight cycle lifts nothing: zero is its fixed point.
    ([[0, 0], [0, 0]], [0, 0]),
    # The two-arc path 0 -> 1 -> 2 outweighs the direct arc 0 -> 2.
    ([[0, 1, 1], [-5, 0, 1], [-5, -5, 0]], [2, 1, 0]),
    # Two rows reach the sink directly, and row 1 through row 0 too.
    ([[0, -1, 3], [-1, 0, 2], [-5, -5, 0]], [3, 2, 0]),
], ids=["one-positive-gap", "nonpositive-gaps", "path", "tight-cycle", "longer-path",
        "star"])
def test_explicit_gaps_reach_the_dense_fixed_point(pricing_fn, rows, expected):
    gaps = explicit_gaps(rows)
    utilities, _ = pricing_fn(gaps, gaps)
    y, iterations = reference_efpm(gaps)
    assert utilities.y.tolist() == y.tolist() == expected
    assert utilities.iterations_used == iterations


@pytest.mark.parametrize("pricing_fn", ALL_METHODS, ids=["efpm", "bellman-ford"])
def test_every_optimal_allocation_gets_the_same_prices(pricing_fn):
    # Tie-heavy matrices have many optimal allocations; each one prices
    # without NonOptimalAllocation, and (Shapley-Shubik) every item gets
    # the same minimal price whichever optimum sells it.
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        v = random_matrix(rng, n, 3)
        weights = {p: int(v.values[np.arange(n), p].sum())
                   for p in itertools.permutations(range(n))}
        best = max(weights.values())
        seen = set()
        for perm, weight in weights.items():
            if weight != best:
                continue
            _, prices = pricing_fn(*priced(v.values, perm))
            seen.add(tuple(prices.p.tolist()))
        assert len(seen) == 1


class TestConvergedProperties:
    @pytest.mark.parametrize("method", ["efpm", "bellman-ford"])
    def test_invariants_hold_at_convergence(self, method):
        rng = np.random.default_rng(67)
        for _ in range(80):
            n = int(rng.integers(1, 25))
            v = random_matrix(rng, n, int(rng.choice([5, 10**6])))
            solved = solve_and_price(v, [method])
            vp = gaps = reorder(v, solved.allocation)
            utilities, prices, _ = solved.priced[method]
            y = utilities.y
            assert utilities.iterations_used <= max(n - 1, 0)
            assert y.min() == 0
            assert np.all(y >= 0)
            # The dense loop's fixed point.
            assert np.array_equal(reference_efpm(gaps)[0], y)
            # Price bounds and revenue accounting.
            diag = np.diagonal(reordered_values(vp))
            assert np.all(prices.p >= 0)
            assert np.all(prices.p <= diag)
            assert prices.revenue == int(vp.winning.sum()) - int(y.sum())
            assert minimality_certificate(gaps, utilities)


def test_revenue_is_the_exact_sum_of_the_prices():
    # An int64 sum of these prices wraps around to -2.
    assert PriceVector([INT64_MAX, INT64_MAX]).revenue == 2 * INT64_MAX


class TestMinimalityCertificate:
    def test_certifies_converged_vector(self):
        gaps = explicit_gaps([[0, 2], [-4, 0]])
        assert minimality_certificate(gaps, UtilityVector(y=[2, 0], iterations_used=0))

    def test_rejects_stable_but_inflated_vector(self):
        gaps = explicit_gaps([[0, 2], [-4, 0]])
        assert not minimality_certificate(gaps, UtilityVector(y=[3, 0], iterations_used=0))

    def test_all_zero_is_vacuously_minimal(self):
        gaps = explicit_gaps([[0, -1], [-2, 0]])
        assert minimality_certificate(gaps, UtilityVector(y=[0, 0], iterations_used=0))

    def test_rejects_unstable_vector(self):
        gaps = explicit_gaps([[0, 2], [-4, 0]])
        assert not minimality_certificate(gaps, UtilityVector(y=[0, 0], iterations_used=0))

    def test_rejects_uniform_lift_held_up_by_a_tight_cycle(self):
        # Stable and every positive entry has a tight arc, but the tight
        # arcs only form a cycle: nothing anchors the vector at zero.
        gaps = explicit_gaps([[0, 0], [0, 0]])
        assert not minimality_certificate(gaps, UtilityVector(y=[1, 1], iterations_used=0))


@pytest.mark.parametrize("pricing_fn", ALL_METHODS, ids=["efpm", "bellman-ford"])
@pytest.mark.parametrize("values", [
    [[0, 10], [10, 0]],
    [[0, 0, 10], [10, 0, 0], [0, 10, 0]],
], ids=["antidiagonal", "three-cycle"])
def test_suboptimal_allocation_raises(pricing_fn, values):
    # The identity is suboptimal on both markets; it is refused at the
    # dense loop's sweep.
    n = len(values)
    gaps, vp = priced(values, range(n))
    with pytest.raises(NonOptimalAllocation) as excinfo:
        pricing_fn(gaps, vp)
    assert excinfo.value.sweeps <= n
    assert (None, excinfo.value.sweeps) == reference_efpm(gaps)


def twin(vp):
    """A view and a second, equal view of the same allocation."""
    return vp, ReorderedValuation(vp.matrix, vp.allocation)


@pytest.mark.parametrize("pricing_fn", ALL_METHODS, ids=["efpm", "bellman-ford"])
@pytest.mark.parametrize("views", [
    # Two markets of one size: the second one's winning valuations would
    # price the first market wrongly, with no other sign of the mix-up.
    lambda: (priced(generate(5, 1).values)[0], priced(generate(5, 2).values)[1]),
    lambda: twin(priced(generate(5, 1).values)[1]),
    lambda: (priced([[5, 4], [1, 2]])[0], priced(np.eye(3, dtype=np.int64))[1]),
], ids=["same-size", "twin", "other-size"])
def test_pricing_refuses_a_second_view_that_is_not_the_first(pricing_fn, views):
    with pytest.raises(ValueError, match="does not match"):
        pricing_fn(*views())
