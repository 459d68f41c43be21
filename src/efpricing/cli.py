"""Command-line frontend: generate, solve, verify and benchmark.

``solve`` and ``bench`` run one pipeline, :func:`solve_and_price`: it
matches an instance once and prices the one reordered view with each
method asked for.  It reaches every layer through this module's names
(``solve_assignment``, ``reorder``, ``build_gap_matrix`` and
``PRICING_METHODS``), which the benchmark's tracing wraps.  Benchmarking
pairs the pricing methods on identical inputs: each trial generates one
instance and calls the pipeline once, so the matching runs once per
trial and every method is timed on the same view.  Matching time is
reported separately and never mixed into pricing time.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error
(a file that cannot be read or written included), 3 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from .core import Allocation, ValuationMatrix, build_gap_matrix, reorder
from .instance import (
    ParseError,
    SolutionRecord,
    generate,
    read_instance,
    read_solution,
    write_instance,
    write_solution,
)
from .matching import solve_assignment
from .pricing import (
    NonOptimalAllocation,
    PriceVector,
    UtilityVector,
    prices_bellman_ford,
    prices_efpm,
)
from .verify import check_envy_free

PRICING_METHODS = {
    "efpm": prices_efpm,
    "bellman-ford": prices_bellman_ford,
}

CSV_HEADER = ["n", "method", "trial", "pricing_seconds", "matching_seconds", "iterations"]


@dataclass(frozen=True)
class Solved:
    """One instance matched once and priced by each method.

    priced maps each method to (utilities, prices, pricing seconds);
    matching_seconds covers the matching and the reordered view.
    """

    allocation: Allocation
    matching_seconds: float
    priced: dict[str, tuple[UtilityVector, PriceVector, float]]


def solve_and_price(v: ValuationMatrix, methods) -> Solved:
    """The paper's pipeline: optimal matching, reordered view, pricing."""
    t0 = time.perf_counter()
    allocation = solve_assignment(v).allocation
    vp = reorder(v, allocation)
    gaps = build_gap_matrix(vp)
    matching_seconds = time.perf_counter() - t0
    priced = {}
    for method in methods:
        t0 = time.perf_counter()
        utilities, prices = PRICING_METHODS[method](gaps, vp)
        priced[method] = (utilities, prices, time.perf_counter() - t0)
    return Solved(allocation, matching_seconds, priced)


@dataclass(frozen=True)
class BenchTrial:
    n: int
    method: str
    trial: int
    pricing_seconds: float
    matching_seconds: float
    iterations: int


@dataclass(frozen=True)
class MethodSummary:
    n: int
    method: str
    trials: int
    mean_seconds: float
    std_seconds: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class BenchReport:
    trials: list[BenchTrial]
    summaries: list[MethodSummary]
    #: (n -> percent) mean pricing-time reduction of efpm vs bellman-ford,
    #: present only when both methods were benchmarked.
    reductions: dict[int, float]


def run_bench(
    sizes: list[int],
    trials: int,
    seed: int,
    methods: list[str],
    warmup: int = 0,
) -> BenchReport:
    """Paired benchmark over freshly generated instances.

    Trial t of every size uses seed + t, so both methods always see the
    same inputs.  With warmup > 0, the first instance of each size is
    solved that many extra times, untimed, before any timing starts.
    A method named twice is benchmarked once.  Each size reports on
    stderr when its trials are done.
    """
    if trials < 2:
        raise ValueError(f"need at least 2 trials for a confidence interval, got {trials}")
    if warmup < 0:
        raise ValueError(f"warmup must be nonnegative, got {warmup}")
    if any(n < 1 for n in sizes):
        raise ValueError(f"sizes must be positive, got {sizes}")
    methods = list(dict.fromkeys(methods))
    rows: list[BenchTrial] = []
    for n in sizes:
        for trial in range(trials):
            v = generate(n, seed + trial)
            if trial == 0:
                for _ in range(warmup):
                    solve_and_price(v, methods)
            solved = solve_and_price(v, methods)
            for method, (utilities, _, seconds) in solved.priced.items():
                rows.append(
                    BenchTrial(
                        n=n,
                        method=method,
                        trial=trial,
                        pricing_seconds=seconds,
                        matching_seconds=solved.matching_seconds,
                        iterations=utilities.iterations_used,
                    )
                )
            _check_agreement(solved.priced, n, trial)
        print(f"benchmarked n={n} ({trials} trials)", file=sys.stderr)
    return _summarize(rows, methods)


def _check_agreement(priced, n, trial):
    if len(priced) < 2:
        return
    (m0, (u0, p0, _)), (m1, (u1, p1, _)) = list(priced.items())[:2]
    if not (np.array_equal(u0.y, u1.y) and np.array_equal(p0.p, p1.p)):
        raise RuntimeError(
            f"methods {m0} and {m1} disagree on n={n} trial={trial}; "
            "this is a solver bug"
        )


def student_t_quantile(q: float, df: int) -> float:
    """The q-quantile of Student's t with df degrees of freedom, 0.5 < q < 1.

    Hill (1970), Algorithm 396: exact for df = 1 and 2, and otherwise an
    expansion about the normal quantile for the two-tailed probability
    p = 2(1 - q), or one in powers of p where p is small.
    """
    # Imported here: only bench needs it, and every command pays for the
    # CLI's imports.
    from statistics import NormalDist

    p = 2.0 * (1.0 - q)
    if df == 1:
        return 1.0 / math.tan(p * math.pi / 2.0)
    if df == 2:
        return math.sqrt(2.0 / (p * (2.0 - p)) - 2.0)
    a = 1.0 / (df - 0.5)
    b = 48.0 / (a * a)
    c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + c) - 3.0) / b + 1.0) * math.sqrt(a * math.pi / 2.0) * df
    y = (d * p) ** (2.0 / df)
    if y > 0.05 + a:
        x = NormalDist().inv_cdf(p / 2.0)
        y = x * x
        if df < 5:
            c += 0.3 * (df - 4.5) * (x + 0.6)
        c = (((0.05 * d * x - 5.0) * x - 7.0) * x - 2.0) * x + b + c
        y = (((((0.4 * y + 6.3) * y + 36.0) * y + 94.5) / c - y - 3.0) / b + 1.0) * x
        y = math.expm1(a * y * y)
    else:
        y = (
            (1.0 / (((df + 6.0) / (df * y) - 0.089 * d - 0.822) * (df + 2.0) * 3.0)
             + 0.5 / (df + 4.0)) * y - 1.0
        ) * (df + 1.0) / (df + 2.0) + 1.0 / y
    return math.sqrt(df * y)


def _summarize(rows: list[BenchTrial], methods: list[str]) -> BenchReport:
    summaries = []
    means: dict[tuple[int, str], float] = {}
    sizes = sorted({r.n for r in rows})
    for n in sizes:
        for method in methods:
            xs = [r.pricing_seconds for r in rows if r.n == n and r.method == method]
            k = len(xs)
            mean = sum(xs) / k
            var = sum((x - mean) ** 2 for x in xs) / (k - 1)
            std = math.sqrt(var)
            half = student_t_quantile(0.975, k - 1) * std / math.sqrt(k)
            summaries.append(
                MethodSummary(
                    n=n,
                    method=method,
                    trials=k,
                    mean_seconds=mean,
                    std_seconds=std,
                    ci_low=mean - half,
                    ci_high=mean + half,
                )
            )
            means[(n, method)] = mean
    reductions = {}
    if "efpm" in methods and "bellman-ford" in methods:
        for n in sizes:
            bf = means[(n, "bellman-ford")]
            if bf > 0:
                reductions[n] = (1.0 - means[(n, "efpm")] / bf) * 100.0
    return BenchReport(trials=rows, summaries=summaries, reductions=reductions)


def render_table(report: BenchReport) -> str:
    out = io.StringIO()
    header = f"{'n':>8}  {'method':<14}{'trials':>7}  {'mean (s)':>12}  {'std (s)':>12}  95% CI"
    print(header, file=out)
    print("-" * len(header), file=out)
    for s in report.summaries:
        print(
            f"{s.n:>8}  {s.method:<14}{s.trials:>7}  {s.mean_seconds:>12.6f}  "
            f"{s.std_seconds:>12.6f}  ({s.ci_low:.6f}, {s.ci_high:.6f})",
            file=out,
        )
    for n, pct in report.reductions.items():
        print(f"pricing-time reduction of efpm vs bellman-ford at n={n}: {pct:.1f}%", file=out)
    return out.getvalue()


def render_csv(report: BenchReport) -> str:
    # Every field is a number or a method name, so none needs quoting.
    lines = [",".join(CSV_HEADER)]
    for r in report.trials:
        lines.append(
            f"{r.n},{r.method},{r.trial},{r.pricing_seconds:.9f},{r.matching_seconds:.9f},"
            f"{r.iterations}"
        )
    return "\n".join(lines) + "\n"


def render_json(report: BenchReport) -> str:
    doc = {
        "summaries": [asdict(s) for s in report.summaries],
        "reductions": {str(n): pct for n, pct in report.reductions.items()},
        "trials": [asdict(r) for r in report.trials],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="efpricing",
        description="Optimal allocations and revenue-maximizing envy-free prices "
        "for unit-demand markets with as many items as consumers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance file")
    gen.add_argument("--n", type=int, required=True, help="number of consumers/items")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--max-value", type=int, default=1_000_000)
    gen.add_argument("--out", required=True, help="instance file to write")
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("instance", help="instance file to read")
    solve.add_argument("--method", choices=sorted(PRICING_METHODS), default="efpm")
    solve.add_argument("--out", help="solution file to write (default: stdout)")
    solve.set_defaults(func=_cmd_solve)

    verify = sub.add_parser("verify", help="check a solution against its instance")
    verify.add_argument("instance")
    verify.add_argument("solution")
    verify.set_defaults(func=_cmd_verify)

    bench = sub.add_parser("bench", help="benchmark the pricing methods")
    bench.add_argument("--sizes", required=True, help="comma-separated instance sizes")
    bench.add_argument("--trials", type=int, required=True)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--method",
        action="append",
        choices=sorted(PRICING_METHODS),
        help="restrict to one method (repeatable; default: both)",
    )
    bench.add_argument("--warmup", type=int, default=0, help="untimed solves per size before timing")
    bench.add_argument("--out", help="write the machine-readable report here")
    bench.add_argument("--format", choices=["text", "csv", "json"], default="csv",
                       help="format of the --out report (table always goes to stdout)")
    bench.set_defaults(func=_cmd_bench)
    return parser


def _cmd_gen(args) -> int:
    v = generate(args.n, args.seed, args.max_value)
    write_instance(v, args.out)
    print(f"wrote {args.out}: n={v.n} seed={args.seed} max_value={args.max_value}")
    return 0


def _cmd_solve(args) -> int:
    v = read_instance(args.instance)
    solved = solve_and_price(v, [args.method])
    utilities, prices, pricing_seconds = solved.priced[args.method]
    record = SolutionRecord(
        n=v.n,
        assignment=[int(x) for x in solved.allocation.assignment],
        prices=[int(x) for x in prices.p],
        revenue=prices.revenue,
        iterations_used=utilities.iterations_used,
    )
    if args.out:
        write_solution(record, args.out)
    else:
        sys.stdout.write(record.to_json())
    print(
        f"n={record.n} method={args.method} revenue={record.revenue} "
        f"iterations={record.iterations_used} "
        f"matching_seconds={solved.matching_seconds:.6f} "
        f"pricing_seconds={pricing_seconds:.6f}",
        file=sys.stderr,
    )
    return 0


def _cmd_verify(args) -> int:
    v = read_instance(args.instance)
    record = read_solution(args.solution)
    if record.n != v.n:
        print(f"size mismatch: instance n={v.n}, solution n={record.n}", file=sys.stderr)
        return 2
    try:
        allocation = Allocation(record.assignment)
    except ValueError as exc:
        print(f"invalid assignment: {exc}", file=sys.stderr)
        return 1
    prices = PriceVector(record.prices)
    failures = 0
    if sum(record.prices) != record.revenue:
        print(
            f"revenue mismatch: record says {record.revenue}, prices sum to {sum(record.prices)}"
        )
        failures += 1
    report = check_envy_free(v, allocation, prices)
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


def _cmd_bench(args) -> int:
    sizes = _parse_sizes(args.sizes)
    methods = args.method or sorted(PRICING_METHODS)
    with _report_file(args.out) as out:
        report = run_bench(sizes, args.trials, args.seed, methods, warmup=args.warmup)
        sys.stdout.write(render_table(report))
        if out is not None:
            renderer = {"text": render_table, "csv": render_csv, "json": render_json}[args.format]
            out.truncate(0)
            out.write(renderer(report))
    if args.out:
        print(f"wrote {args.format} report to {args.out}", file=sys.stderr)
    return 0


@contextlib.contextmanager
def _report_file(path):
    """The --out file, opened before the first trial (None without --out).

    A path that cannot be written fails at once, not after the run.  It
    is opened for appending, so an existing report stays as it is until
    the caller truncates it; a file opened new is removed again when the
    run fails.
    """
    if path is None:
        yield None
        return
    existed = os.path.exists(path)
    fh = open(path, "a")
    try:
        with fh:
            yield fh
    except BaseException:
        if not existed:
            os.remove(path)
        raise


def _parse_sizes(raw: str) -> list[int]:
    try:
        sizes = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"bad --sizes value: {raw!r}") from None
    if not sizes:
        raise ValueError("no sizes given")
    return sizes


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NonOptimalAllocation, RuntimeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
