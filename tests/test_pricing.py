import numpy as np
import pytest

from efpricing import (
    Allocation,
    NonOptimalAllocation,
    PriceVector,
    ReorderedValuation,
    UtilityVector,
    ValuationMatrix,
    build_gap_matrix,
    generate,
    minimality_certificate,
    prices_bellman_ford,
    prices_efpm,
    reorder,
)
from efpricing.cli import solve_and_price
from efpricing.core import INT64_MAX

from helpers import explicit_gaps, random_matrix, reference_efpm, reordered_values

ALL_METHODS = [prices_efpm, prices_bellman_ford]


def reordered_pair(values, assignment=None):
    v = ValuationMatrix(values)
    if assignment is None:
        assignment = list(range(v.n))
    vp = reorder(v, Allocation(assignment))
    return build_gap_matrix(vp), vp


class TestPricesEfpm:
    def test_worked_example(self):
        gaps, vp = reordered_pair([[5, 4], [1, 2]])
        utilities, prices = prices_efpm(gaps, vp)
        assert utilities.y.tolist() == [2, 0]
        assert prices.p.tolist() == [3, 2]
        assert prices.revenue == 5
        assert utilities.iterations_used <= 1

    def test_all_negative_gaps_price_at_valuations(self):
        gaps, vp = reordered_pair([[3, 1], [1, 2]])
        utilities, prices = prices_efpm(gaps, vp)
        assert utilities.y.tolist() == [0, 0]
        assert prices.p.tolist() == [3, 2]
        assert prices.revenue == 5

    def test_single_item(self):
        gaps, vp = reordered_pair([[9]])
        utilities, prices = prices_efpm(gaps, vp)
        assert utilities.y.tolist() == [0]
        assert prices.p.tolist() == [9]
        assert utilities.iterations_used == 0

    def test_antidiagonal_market(self):
        v = ValuationMatrix([[0, 10], [10, 0]])
        utilities, prices, _ = solve_and_price(v, ["efpm"]).priced["efpm"]
        assert utilities.y.tolist() == [0, 0]
        assert prices.revenue == 20


class TestPricesBellmanFord:
    def test_worked_example(self):
        gaps, vp = reordered_pair([[5, 4], [1, 2]])
        utilities, prices = prices_bellman_ford(gaps, vp)
        assert utilities.y.tolist() == [2, 0]
        assert prices.p.tolist() == [3, 2]

    def test_single_item(self):
        gaps, vp = reordered_pair([[4]])
        utilities, prices = prices_bellman_ford(gaps, vp)
        assert utilities.y.tolist() == [0]
        assert prices.p.tolist() == [4]


@pytest.mark.parametrize("pricing_fn", ALL_METHODS, ids=["efpm", "bellman-ford"])
@pytest.mark.parametrize("rows, expected", [
    ([[0, 2], [-4, 0]], [2, 0]),
    ([[0, -1], [-2, 0]], [0, 0]),
    # Utility flows along the path 2 -> 1 -> 0 one sweep at a time.
    ([[0, 1, -5], [-5, 0, 1], [-5, -5, 0]], [2, 1, 0]),
], ids=["one-positive-gap", "nonpositive-gaps", "path"])
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
        weights = {p: int(v.values[np.arange(n), p].sum()) for p in _all_perms(n)}
        best = max(weights.values())
        seen = set()
        for perm, weight in weights.items():
            if weight != best:
                continue
            gaps, vp = reordered_pair(v.values, list(perm))
            _, prices = pricing_fn(gaps, vp)
            seen.add(tuple(prices.p.tolist()))
        assert len(seen) == 1


class TestCrossMethod:
    def test_identical_results_on_random_instances(self):
        rng = np.random.default_rng(61)
        for _ in range(150):
            n = int(rng.integers(2, 9))
            hi = int(rng.choice([2, 10, 10**6]))
            v = random_matrix(rng, n, hi)
            solved = solve_and_price(v, ["efpm", "bellman-ford"])
            u1, p1, _ = solved.priced["efpm"]
            u2, p2, _ = solved.priced["bellman-ford"]
            assert np.array_equal(u1.y, u2.y)
            assert np.array_equal(p1.p, p2.p)
            assert p1.revenue == p2.revenue
            assert u1.iterations_used == u2.iterations_used


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


class TestNonOptimalDetection:
    @pytest.mark.parametrize("pricing_fn", ALL_METHODS, ids=["efpm", "bellman-ford"])
    def test_suboptimal_allocation_raises(self, pricing_fn):
        v = ValuationMatrix([[0, 10], [10, 0]])
        gaps, vp = reordered_pair(v.values, [0, 1])  # identity is suboptimal here
        with pytest.raises(NonOptimalAllocation) as excinfo:
            pricing_fn(gaps, vp)
        assert excinfo.value.sweeps <= v.n

    @pytest.mark.parametrize("pricing_fn", ALL_METHODS, ids=["efpm", "bellman-ford"])
    def test_random_suboptimal_allocations_raise_or_price_validly(self, pricing_fn):
        # A non-optimal allocation either trips the sweep budget or, if its
        # gap cycles happen to be nonpositive, yields stable prices anyway.
        rng = np.random.default_rng(71)
        raised = 0
        for _ in range(60):
            n = int(rng.integers(2, 8))
            v = random_matrix(rng, n, 1000)
            worst = min(
                (np.array(p) for p in _all_perms(n)),
                key=lambda p: int(v.values[np.arange(n), p].sum()),
            )
            gaps, vp = reordered_pair(v.values, worst.tolist())
            try:
                utilities, _ = pricing_fn(gaps, vp)
            except NonOptimalAllocation as exc:
                raised += 1
                if pricing_fn is prices_efpm:
                    assert (None, exc.sweeps) == reference_efpm(gaps)
                else:
                    assert exc.sweeps <= n
            else:
                assert np.array_equal(reference_efpm(gaps)[0], utilities.y)
        assert raised > 0

    def test_dimension_mismatch_rejected(self):
        gaps, _ = reordered_pair([[5, 4], [1, 2]])
        _, vp3 = reordered_pair([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(ValueError, match="match"):
            prices_efpm(gaps, vp3)


@pytest.mark.parametrize("pricing_fn", ALL_METHODS, ids=["efpm", "bellman-ford"])
def test_pricing_refuses_a_second_view_that_is_not_the_first(pricing_fn):
    # Two markets of one size: the second one's winning valuations would
    # price the first market wrongly, with no other sign of the mix-up.
    v1, v2 = generate(5, 1), generate(5, 2)
    vp1 = reorder(v1, solve_and_price(v1, []).allocation)
    vp2 = reorder(v2, solve_and_price(v2, []).allocation)
    with pytest.raises(ValueError, match="does not match"):
        pricing_fn(build_gap_matrix(vp1), vp2)
    twin = ReorderedValuation(vp1.matrix, vp1.allocation)
    with pytest.raises(ValueError, match="does not match"):
        pricing_fn(vp1, twin)


def _all_perms(n):
    import itertools

    return itertools.permutations(range(n))
