"""Each of the benchmark's checks accepts right answers and catches wrong ones.

Run with ``python3 -m pytest perfbench`` from the root of the repository.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import efpricing as ef  # noqa: E402
from checks import check_record, instance_text  # noqa: E402
from workloads import WORKLOADS, build_markets, chain_revenue, chain_values, relabel  # noqa: E402
from run import Tally  # noqa: E402


def record(assignment, prices, iterations_used=0):
    return json.dumps({
        "assignment": [int(x) for x in assignment],
        "iterations_used": iterations_used,
        "n": len(assignment),
        "prices": [int(x) for x in prices],
        "revenue": int(sum(prices)),
    })


def solve(values):
    """The program's own answer, as the solve command records it."""
    v = ef.ValuationMatrix(values)
    allocation = ef.solve_assignment(v).allocation
    vp = ef.reorder(v, allocation)
    utilities, prices = ef.prices_efpm(ef.build_gap_matrix(vp), vp)
    # Prices come out indexed by item, as in the record.
    return allocation.assignment, prices.p, utilities.iterations_used


SMALL = np.array([[5, 4], [1, 2]])


def test_accepts_the_optimum_of_the_small_market():
    assert check_record(SMALL, record([0, 1], [3, 2])) == []


def test_zero_prices_are_not_revenue_maximal():
    problems = check_record(SMALL, record([0, 1], [0, 0]))
    assert problems == ["not revenue-maximal: some price can be raised"]


@pytest.mark.parametrize("seed", range(5))
def test_any_price_raised_by_one_is_rejected(seed):
    values = np.random.default_rng(seed).integers(0, 50, size=(6, 6))
    assignment, prices, _ = solve(values)
    assert check_record(values, record(assignment, prices)) == []
    for item in range(6):
        raised = prices.copy()
        raised[item] += 1
        problems = check_record(values, record(assignment, raised))
        assert problems and ("envy" in problems[0] or "negative" in problems[0])


def test_a_raised_price_creates_envy_on_the_small_market():
    problems = check_record(SMALL, record([0, 1], [4, 2]))
    assert problems == ["envy: consumer 0 gains 1"]


def test_non_optimal_allocation_is_rejected_whatever_the_prices():
    values = np.random.default_rng(7).integers(0, 50, size=(5, 5))
    assignment, prices, _ = solve(values)
    swapped = assignment.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    rows = np.arange(5)
    assert values[rows, swapped].sum() < values[rows, assignment].sum()
    own_values = np.empty(5, dtype=np.int64)
    own_values[swapped] = values[rows, swapped]
    for candidate in (prices, np.zeros(5, dtype=np.int64), own_values):
        assert check_record(values, record(swapped, candidate)) != []


def test_revenue_must_be_the_sum_of_prices():
    doc = json.loads(record([0, 1], [3, 2]))
    doc["revenue"] = 6
    problems = check_record(SMALL, json.dumps(doc))
    assert problems == ["revenue 6 is not the sum of prices 5"]


def test_closed_form_must_match():
    problems = check_record(SMALL, record([0, 1], [3, 2], iterations_used=1),
                            expected_revenue=6, expected_sweeps=2)
    assert problems == ["revenue 5, closed form gives 6", "1 sweeps, closed form gives 2"]


@pytest.mark.parametrize("n", range(2, 7))
def test_chain_closed_form_agrees_with_brute_force(n):
    rng = np.random.default_rng(n)
    values = relabel(chain_values(n, rng), rng)
    assert ef.brute_force_max_revenue(ef.ValuationMatrix(values)) == chain_revenue(n)
    assignment, prices, sweeps = solve(values)
    assert sweeps == n - 1
    assert check_record(values, record(assignment, prices, sweeps),
                        chain_revenue(n), n - 1) == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workloads_depend_on_the_seed_but_keep_their_size(name):
    first = build_markets(WORKLOADS[name], 1, ef.generate)
    second = build_markets(WORKLOADS[name], 2, ef.generate)
    for a, b in zip(first, second):
        assert a.values.shape == b.values.shape
        assert not np.array_equal(a.values, b.values)
        assert len(instance_text(a.values)) == len(instance_text(b.values))


def test_instance_text_matches_the_program_writer():
    values = np.random.default_rng(3).integers(0, 10**6, size=(4, 4))
    assert instance_text(values) == ef.serialize(ef.ValuationMatrix(values))


def test_a_check_that_cannot_read_the_answer_fails_the_operation(tmp_path):
    tally = Tally()
    tally.run("solve", lambda: None, lambda _: (tmp_path / "missing.json").read_text())
    assert (tally.attempted, tally.failed, len(tally.wrong)) == (1, 1, 1)
