"""Run two sets of benchmark runs of the same code and compare them.

    python3 perfbench/compare.py [--workload NAME ...] [--runs 10] [--seed 1000]

Runs of set A and set B alternate, and which set goes first alternates
from one pair to the next; every run has a seed of its own.  For each
workload and end-to-end metric it prints each set's median and
quartiles, and says whether the two sets agree within BENCHMARK.json's
bounds: each set's quartile spread is within the bound, set B's median
is not worse than set A's by more than the bound, and both sets fail
the same share of operations.  Every run's result is written to
.perfbench_runs/compare.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({proc.returncode}): {' '.join(argv)}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def worse_by(metric: dict, before: float, after: float) -> float:
    """Share by which ``after`` is worse than ``before`` (negative: better)."""
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def compare(bench: dict, workload: str, sets: dict[str, list[dict]]) -> bool:
    agree = True
    print(f"\n{workload}: {len(sets['A'])} runs per set")
    print(f"  {'metric':<14}{'set':>4}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        medians = {}
        for label, results in sets.items():
            values = [r["metrics"][name]["value"] for r in results]
            median, q1, q3 = summarize(values)
            spread = (q3 - q1) / median
            medians[label] = median
            ok = spread <= bound
            agree &= ok
            print(f"  {name:<14}{label:>4}{median:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                  f"{spread:>8.1%}{'' if ok else '  spread above bound'}")
        shift = worse_by(metric, medians["A"], medians["B"])
        ok = shift <= bound
        agree &= ok
        print(f"  {name:<14}  B vs A {shift:+.1%} (bound {bound:.0%})"
              f"{'' if ok else '  WORSE BEYOND BOUND'}")
    shares = {label: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
              for label, rs in sets.items()}
    correct = all(r["correct"] for rs in sets.values() for r in rs)
    agree &= shares["A"] == shares["B"] and correct
    print(f"  failed share A {shares['A']:.4f}  B {shares['B']:.4f}; "
          f"all answers correct: {correct}")
    return agree


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="repeatable; default: every workload in BENCHMARK.json")
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--seed", type=int, default=1000, help="seed of the first run")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    results = {w: {"A": [], "B": []} for w in workloads}
    seed = args.seed
    for i in range(args.runs):
        for workload in workloads:
            for label in ("AB" if i % 2 == 0 else "BA"):
                results[workload][label].append(
                    run_once(workload, seed, bench["run_seconds"]))
                seed += 1
                print(f"run {i + 1}/{args.runs} {workload} set {label} done",
                      file=sys.stderr, flush=True)

    out = ROOT / ".perfbench_runs"
    out.mkdir(exist_ok=True)
    (out / "compare.json").write_text(json.dumps(results, indent=1) + "\n")
    agree = all([compare(bench, w, results[w]) for w in workloads])
    print(f"\nsets agree within the bounds: {agree}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
