"""Acceptance suite: one test per release criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion with its measured numbers.  The random-instance criteria use
the package's own seeded generator, so every run checks identical
instances.
"""

import time

import numpy as np
import pytest

from efpricing import (
    Allocation,
    NonOptimalAllocation,
    ValuationMatrix,
    build_gap_matrix,
    check_envy_free,
    generate,
    minimality_certificate,
    prices_bellman_ford,
    prices_efpm,
    read_solution,
    reorder,
    solve_assignment,
)
from efpricing.cli import main, run_bench, solve_and_price
from efpricing.oracles import brute_force_max_revenue

from helpers import brute_force_assignment, weight

BASE_SEED = 20260808


@pytest.fixture(scope="module")
def pipeline_batch():
    """1000 solved instances with n in 2..50, both pricing methods.

    Value ranges mix the benchmark scale (0..10^6) with tie-heavy small
    ranges; shared by the envy-freeness, cross-method and termination
    criteria so the batch is computed once.
    """
    records = []
    t0 = time.perf_counter()
    for i in range(1000):
        n = 2 + (i % 49)
        hi = 7 if i % 4 == 3 else 10**6
        v = generate(n, BASE_SEED + i, max_value=hi)
        solved = solve_and_price(v, ["efpm", "bellman-ford"])
        ue, pe, _ = solved.priced["efpm"]
        ub, pb, _ = solved.priced["bellman-ford"]
        gaps = reorder(v, solved.allocation)
        records.append(
            {
                "n": n,
                "envy_free": check_envy_free(v, solved.allocation, pe).envy_free,
                "y_equal": np.array_equal(ue.y, ub.y),
                "p_equal": np.array_equal(pe.p, pb.p),
                "revenue_equal": pe.revenue == pb.revenue,
                "iterations": (ue.iterations_used, ub.iterations_used),
                "min_y": int(ue.y.min()),
                "certified": minimality_certificate(gaps, ue)
                and minimality_certificate(gaps, ub),
            }
        )
    elapsed = time.perf_counter() - t0
    return records, elapsed


@pytest.fixture(scope="module")
def bench_report():
    t0 = time.perf_counter()
    report = run_bench(
        sizes=[1000, 2000],
        trials=15,
        seed=BASE_SEED,
        methods=["efpm", "bellman-ford"],
    )
    elapsed = time.perf_counter() - t0
    return report, elapsed


def test_criterion_1_matching_oracle_equivalence():
    t0 = time.perf_counter()
    rng_seed = BASE_SEED
    for i in range(1000):
        n = 2 + (i % 7)
        v = generate(n, rng_seed + i, max_value=100)
        fast = solve_assignment(v).allocation
        exact = brute_force_assignment(v)
        assert weight(v, fast) == weight(v, exact), f"instance {i} (n={n})"
        assert sorted(fast.assignment.tolist()) == list(range(n))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"matching oracle sweep took {elapsed:.1f}s"
    print(f"criterion 1 matching oracle equivalence: 1000/1000 exact, {elapsed:.1f}s")


def test_criterion_2_revenue_oracle_equivalence():
    t0 = time.perf_counter()
    for i in range(1000):
        n = 2 + (i % 5)
        hi = 9 if i % 3 == 2 else 10**6
        v = generate(n, BASE_SEED + 10_000 + i, max_value=hi)
        _, prices, _ = solve_and_price(v, ["efpm"]).priced["efpm"]
        assert prices.revenue == brute_force_max_revenue(v), f"instance {i} (n={n})"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"revenue oracle sweep took {elapsed:.1f}s"
    print(f"criterion 2 revenue oracle equivalence: 1000/1000 exact, {elapsed:.1f}s")


def test_criterion_3_envy_freeness(pipeline_batch):
    records, elapsed = pipeline_batch
    failures = [r for r in records if not r["envy_free"]]
    assert not failures, f"{len(failures)} instances produced envy"
    print(f"criterion 3 envy-freeness: 1000/1000 envy-free (batch {elapsed:.1f}s)")


def test_criterion_4_cross_method_exactness(pipeline_batch):
    records, _ = pipeline_batch
    for r in records:
        assert r["y_equal"] and r["p_equal"] and r["revenue_equal"]
    print("criterion 4 cross-method exactness: 1000/1000 identical (y, p)")


def test_criterion_5_termination_bound_and_certificates(pipeline_batch):
    records, _ = pipeline_batch
    for r in records:
        bound = r["n"] - 1
        assert r["iterations"][0] <= bound and r["iterations"][1] <= bound
        assert r["min_y"] == 0
        assert r["certified"]
    worst = max(r["iterations"][0] / (r["n"] - 1) for r in records if r["n"] > 1)
    print(
        "criterion 5 termination bound: all sweeps <= n-1 "
        f"(worst usage {worst:.2f} of budget), zero witness and certificate on all"
    )


def test_criterion_6_non_optimal_detection():
    v = ValuationMatrix([[0, 10], [10, 0]])
    identity = Allocation([0, 1])
    vp = reorder(v, identity)
    gaps = build_gap_matrix(vp)
    sweeps = {}
    for name, fn in (("efpm", prices_efpm), ("bellman-ford", prices_bellman_ford)):
        with pytest.raises(NonOptimalAllocation) as excinfo:
            fn(gaps, vp)
        # The sweep cap is structural: n - 1 loop sweeps plus one
        # verification sweep, so no call can run more than n sweeps.
        assert excinfo.value.sweeps <= v.n
        sweeps[name] = excinfo.value.sweeps
    print(f"criterion 6 non-optimal detection: both methods raised, sweeps={sweeps}")


def test_criterion_7_benchmark_trend(bench_report):
    report, elapsed = bench_report
    assert elapsed < 600.0, f"benchmark took {elapsed:.0f}s, budget is 10 minutes"
    means = {(s.n, s.method): s.mean_seconds for s in report.summaries}
    for n in (1000, 2000):
        assert means[(n, "efpm")] < means[(n, "bellman-ford")], (
            f"n={n}: efpm mean {means[(n, 'efpm')]:.4f}s not below "
            f"bellman-ford mean {means[(n, 'bellman-ford')]:.4f}s"
        )
    reductions = ", ".join(f"n={n}: {pct:.1f}%" for n, pct in report.reductions.items())
    print(
        f"criterion 7 benchmark trend: efpm strictly faster on paired trials "
        f"({reductions}; total {elapsed:.0f}s)"
    )


def test_criterion_8_scaling_sanity(bench_report):
    report, _ = bench_report
    means = {(s.n, s.method): s.mean_seconds for s in report.summaries}
    ratios = {
        method: means[(2000, method)] / means[(1000, method)]
        for method in ("efpm", "bellman-ford")
    }
    # Informational: logged, not asserted.
    print(
        "criterion 8 scaling sanity: pricing time ratio n=2000/n=1000 is "
        + ", ".join(f"{m}: {r:.1f}x" for m, r in ratios.items())
        + (" (superlinear)" if all(r > 2 for r in ratios.values()) else " (sublinear!)")
    )


def test_criterion_9_determinism(tmp_path):
    inst_a = tmp_path / "a.txt"
    inst_b = tmp_path / "b.txt"
    assert main(["gen", "--n", "60", "--seed", "77", "--out", str(inst_a)]) == 0
    assert main(["gen", "--n", "60", "--seed", "77", "--out", str(inst_b)]) == 0
    assert inst_a.read_bytes() == inst_b.read_bytes()

    sol_a = tmp_path / "a.json"
    sol_b = tmp_path / "b.json"
    for method in ("efpm", "bellman-ford"):
        assert main(["solve", str(inst_a), "--method", method, "--out", str(sol_a)]) == 0
        assert main(["solve", str(inst_b), "--method", method, "--out", str(sol_b)]) == 0
        assert sol_a.read_bytes() == sol_b.read_bytes()
    # And the two methods' records agree byte-for-byte as well.
    assert main(["solve", str(inst_a), "--method", "efpm", "--out", str(sol_a)]) == 0
    assert main(["solve", str(inst_a), "--method", "bellman-ford", "--out", str(sol_b)]) == 0
    assert sol_a.read_bytes() == sol_b.read_bytes()
    rec = read_solution(sol_a)
    assert rec.n == 60 and sum(rec.prices) == rec.revenue
    print("criterion 9 determinism: instance files and solution records byte-identical")
