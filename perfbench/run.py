"""Benchmark of efpricing's user-facing operations, end to end and per layer.

    python3 perfbench/run.py --workload {random,chain,ties} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ./src.
Every run first solves the first instance once under tracemalloc for
its peak memory, untimed.  With --trace 0 it then times whole rounds of
the set-up (the program making the instance files), ``efpricing
solve``, ``efpricing verify``, ``write_instance`` and a fresh CLI
process, untraced; each metric is a median over the run's samples.
With --trace 1 it repeats the operations with a span around every call
the CLI makes into a layer, runs the Bellman-Ford baseline and the
minimality certificate on the solve's own inputs, and takes per-layer
peaks from the memory pass.  Spans are written to .perfbench_runs/.
Every answer is checked with perfbench/checks.py.

The last line of standard output is one JSON object: correct,
attempted, failed and metrics (each a value with its unit).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import check_record, instance_text
from tracing import Tracer, instrument
from workloads import WORKLOADS, Market, build_markets

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_runs"

MIN_ROUNDS = 3
MIB = 2**20
#: What the ``efpricing`` console script runs.
CLI_ENTRY = "import sys; from efpricing.cli import main; sys.exit(main())"
ONE_ITEM = np.array([[7]], dtype=np.int64)


@dataclass
class Case:
    """One instance with its files and the bytes its file must hold."""

    index: int
    market: Market
    matrix: object  # efpricing.ValuationMatrix
    text: bytes
    instance: Path
    solution: Path
    written: Path


class Tally:
    """Counts operations.

    An operation fails when it raises (a command that exits non-zero
    raises) or when its check finds a wrong answer; an answer that the
    check cannot read is wrong.  Only a wrong answer makes the run
    incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def run(self, what: str, fn, check) -> float:
        """Time fn() and check its result; returns the seconds it took.

        A failed operation is timed too, so that an operation that fails
        every time still gives its metric; ``failed`` reports it.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn()
        except Exception:  # a failing operation is counted; the run goes on
            elapsed = time.perf_counter() - start
            self.failed += 1
            print(f"{what}: raised\n{traceback.format_exc()}", file=sys.stderr)
            return elapsed
        elapsed = time.perf_counter() - start
        try:
            problems = check(result)
        except Exception as exc:  # an answer that cannot be read is wrong
            problems = [f"check raised {exc!r}"]
        if problems:
            self.failed += 1
            self.wrong.append(f"{what}: {problems[0]}")
            print(f"{what}: wrong answer: {problems}", file=sys.stderr)
        return elapsed


def set_up(workload, seed: int, work: Path, ef) -> tuple[list[Case], float]:
    """Make the instance files as ``efpricing gen`` does.

    The program draws the random and tie-heavy matrices (``generate``),
    builds each relabelled matrix (``ValuationMatrix``) and writes its
    file (``write_instance``).  Returns the cases and the seconds spent in
    those three calls; the benchmark's own work (drawing the chain,
    relabelling, checking the files) is not timed.  Each file must equal,
    byte for byte, the benchmark's own rendering of the matrix.
    """
    program_s = 0.0

    def timed(fn):
        def call(*args):
            nonlocal program_s
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                program_s += time.perf_counter() - start

        return call

    generate, matrix_of = timed(ef.generate), timed(ef.ValuationMatrix)
    write_instance = timed(ef.write_instance)
    cases = []
    for k, market in enumerate(build_markets(workload, seed, generate)):
        matrix = matrix_of(market.values)
        instance = work / f"{market.name}.txt"
        write_instance(matrix, instance)
        text = instance_text(market.values).encode()
        if instance.read_bytes() != text:
            raise RuntimeError(f"set-up: write_instance wrote a wrong {instance.name}")
        cases.append(
            Case(
                index=k,
                market=market,
                matrix=matrix,
                text=text,
                instance=instance,
                solution=work / f"{market.name}.json",
                written=work / f"{market.name}.written.txt",
            )
        )
    return cases, program_s


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


class Operations:
    """The user-facing operations, each run through the tally.

    With a tracer, every operation is the root span of its own trace and
    the CLI's calls into the layers are its child spans.
    """

    def __init__(self, ef, cli, tally: Tally, tracer: Tracer | None = None):
        self.ef = ef
        self.cli = cli
        self.tally = tally
        self.tracer = tracer

    def _root(self, name, case, **attrs):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, new_trace=True, case=case, **attrs)

    def solve(self, c: Case):
        def fn():
            with self._root("cli.main", c.index, command="solve"):
                code, output = call_cli(
                    self.cli, ["solve", str(c.instance), "--out", str(c.solution)])
            if code != 0:
                raise RuntimeError(f"solve exited {code}: {output.strip()}")

        def check(_):
            m = c.market
            return check_record(
                m.values, c.solution.read_text(), m.expected_revenue, m.expected_sweeps
            )

        c.solution.unlink(missing_ok=True)
        return self.tally.run(f"solve {c.market.name}", fn, check)

    def verify(self, c: Case):
        def fn():
            with self._root("cli.main", c.index, command="verify"):
                return call_cli(self.cli, ["verify", str(c.instance), str(c.solution)])

        def check(result):
            # The exit code is verify's answer: 0 says the record is right.
            code, output = result
            return [] if code == 0 else [f"verify exited {code}: {output.strip()}"]

        return self.tally.run(f"verify {c.market.name}", fn, check)

    def write(self, c: Case):
        write_instance = self.ef.write_instance
        if self.tracer is not None:
            write_instance = self.tracer.wrap("instance.write_instance", write_instance)

        def fn():
            with self._root("bench.write", c.index):
                write_instance(c.matrix, c.written)

        def check(_):
            return [] if c.written.read_bytes() == c.text else ["written file differs"]

        c.written.unlink(missing_ok=True)
        return self.tally.run(f"write {c.market.name}", fn, check)

    def startup(self, one_item: Path, import_times: list | None = None):
        """A fresh ``efpricing solve`` process on a one-item market.

        With import_times given, the process runs under -X importtime and
        the import time of efpricing.cli is appended to the list.
        """
        flags = ["-X", "importtime"] if import_times is not None else []
        solution = one_item.with_suffix(".json")
        argv = [sys.executable, *flags, "-c", CLI_ENTRY, "solve", str(one_item),
                "--out", str(solution)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )

        def fn():
            with self._root("bench.startup", None):
                proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                                      timeout=120)
            if proc.returncode != 0:
                raise RuntimeError(f"startup solve exited {proc.returncode}: "
                                   f"{proc.stderr[-500:]}")
            return proc

        def check(proc):
            if import_times is not None:
                import_times.append(_cli_import_seconds(proc.stderr))
            return check_record(ONE_ITEM, solution.read_text())

        solution.unlink(missing_ok=True)
        return self.tally.run("startup", fn, check)


def _cli_import_seconds(importtime_log: str) -> float:
    """Cumulative import time of efpricing.cli from -X importtime output."""
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "efpricing.cli":
            return int(parts[1]) / 1e6
    raise ValueError("no efpricing.cli line in the -X importtime output")


def run_rounds(seconds: float, one_round) -> int:
    """Run whole rounds for about ``seconds``, and at least MIN_ROUNDS.

    A round starts only when the mean round so far still fits in the time left.
    """
    start = time.perf_counter()
    rounds = 0
    while True:
        one_round()
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= MIN_ROUNDS and elapsed + elapsed / rounds > seconds:
            return rounds


def per_instance(samples: list[list[float]], stat=statistics.median) -> float:
    """Mean over instances of ``stat`` over each instance's repeats.

    A layer that no operation reached (because they failed first) reads 0.
    """
    values = [stat(xs) for xs in samples if xs]
    return statistics.fmean(values) if values else 0.0


def timed_pass(ops: Operations, workload, seed: int, work: Path, cases, one_item,
               seconds) -> tuple[dict, dict]:
    """Time whole rounds of the operations; returns the metrics and the raw samples.

    Each round starts with a fresh set-up, which rewrites the same files.
    """
    times = {op: [[] for _ in cases] for op in ("solve_s", "verify_s", "write_s")}
    samples = {"setup_s": [], "startup_s": []}
    repeats = workload.repeats

    def one_round():
        samples["setup_s"].append(set_up(workload, seed, work, ops.ef)[1])
        for _ in range(repeats["startup"]):
            samples["startup_s"].append(ops.startup(one_item))
        for c in cases:
            for _ in range(repeats["solve"]):
                times["solve_s"][c.index].append(ops.solve(c))
            for _ in range(repeats["verify"]):
                times["verify_s"][c.index].append(ops.verify(c))
            for _ in range(repeats["write"]):
                times["write_s"][c.index].append(ops.write(c))

    run_rounds(seconds, one_round)
    metrics = {name: (per_instance(xs), "s") for name, xs in times.items()}
    metrics["startup_s"] = (statistics.median(samples["startup_s"]), "s")
    metrics["setup_s"] = (statistics.median(samples["setup_s"]), "s")
    samples.update(times)
    return metrics, samples


def memory_pass(ef, cli, tally: Tally, case: Case) -> Tracer:
    """Solve one instance under tracemalloc, with a peak on every span."""
    tracer = Tracer(memory=True)
    tracemalloc.start()
    try:
        with instrument(tracer, cli):
            Operations(ef, cli, tally, tracer).solve(case)
    finally:
        tracemalloc.stop()
    return tracer


def traced_pass(ops: Operations, cases, one_item, seconds) -> dict:
    tracer, tally, ef = ops.tracer, ops.tally, ops.ef
    import_times: list[float] = []
    sweeps: list[int] = []
    certificate = tracer.wrap("pricing.minimality_certificate", ef.minimality_certificate)

    def one_round():
        ops.startup(one_item, import_times)
        for c in cases:
            ops.solve(c)
            if "pricing.prices_efpm" in tracer.last:
                (gaps, vp), (utilities, prices) = tracer.last.pop("pricing.prices_efpm")
                sweeps.append(utilities.iterations_used)
                compare_bellman_ford(ops, c, gaps, vp, utilities, prices)

                def certify():
                    with tracer.span("bench.certificate", new_trace=True, case=c.index):
                        return certificate(gaps, utilities)

                tally.run(f"certificate {c.market.name}", certify,
                          lambda ok: [] if ok else ["minimality certificate rejected"])
            ops.verify(c)
            ops.write(c)

    with instrument(tracer, ops.cli):
        run_rounds(seconds, one_round)

    metrics = {"cli.import_s": (statistics.median(import_times), "s")}
    for command in ("solve", "verify"):
        metrics[f"cli.{command}_s"] = (
            _span_metric(tracer, cases, "cli.main", command=command), "s")
    metrics["cli.solve_self_s"] = (
        _span_metric(tracer, cases, "cli.main", self_time=True, command="solve"), "s")
    for name in ("instance.read_instance", "instance.read_solution",
                 "instance.write_solution", "instance.write_instance",
                 "matching.solve_assignment", "core.reorder", "core.build_gap_matrix",
                 "pricing.prices_efpm", "pricing.prices_bellman_ford",
                 "pricing.minimality_certificate", "verify.check_envy_free"):
        metrics[f"{name}_s"] = (_span_metric(tracer, cases, name), "s")
    metrics["pricing.efpm_sweeps"] = (statistics.fmean(sweeps), "count")
    metrics["instance.bytes"] = (statistics.fmean(len(c.text) for c in cases), "B")
    return metrics


def compare_bellman_ford(ops: Operations, c: Case, gaps, vp, utilities, prices) -> None:
    bellman_ford = ops.cli.PRICING_METHODS["bellman-ford"]

    def fn():
        with ops.tracer.span("bench.bellman_ford", new_trace=True, case=c.index):
            return bellman_ford(gaps, vp)

    def check(result):
        bf_utilities, bf_prices = result
        same = np.array_equal(bf_utilities.y, utilities.y) and np.array_equal(
            bf_prices.p, prices.p)
        return [] if same else ["bellman-ford and efpm prices differ"]

    ops.tally.run(f"bellman-ford {c.market.name}", fn, check)


def _span_metric(tracer: Tracer, cases, name: str, self_time=False, **attrs) -> float:
    """Mean over instances of the median duration of the named spans.

    With self_time, each span's duration is less the time of its child spans.
    """
    child_ns = dict.fromkeys(range(len(tracer.spans)), 0)
    if self_time:
        for s in tracer.spans:
            if s.parent is not None:
                child_ns[s.parent] += s.end_ns - s.start_ns
    case_of = {s.trace: s.attrs["case"] for s in tracer.spans
               if s.parent is None and s.attrs.get("case") is not None}
    samples = [[] for _ in cases]
    for s in tracer.spans:
        if s.name == name and s.trace in case_of and all(
                s.attrs.get(k) == v for k, v in attrs.items()):
            samples[case_of[s.trace]].append((s.end_ns - s.start_ns - child_ns[s.id]) / 1e9)
    return per_instance(samples)


def _peak_mb(tracer: Tracer, name: str) -> float:
    return max((s.peak_bytes for s in tracer.spans if s.name == name), default=0) / MIB


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        import efpricing as ef
        from efpricing import cli
    except ImportError as exc:
        print(f"perfbench: cannot import efpricing from {SRC}: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    tally = Tally()
    try:
        cases, _ = set_up(workload, args.seed, work, ef)
        one_item = work / "one-item.txt"
        one_item.write_text(instance_text(ONE_ITEM))

        phase = time.perf_counter()
        memory = memory_pass(ef, cli, tally, cases[0])
        print(f"memory pass {time.perf_counter() - phase:.1f} s", file=sys.stderr)
        phase = time.perf_counter()
        if args.trace:
            tracer = Tracer()
            metrics = traced_pass(Operations(ef, cli, tally, tracer), cases, one_item,
                                  args.seconds)
            for name in ("instance.read_instance", "matching.solve_assignment",
                         "core.reorder", "pricing.prices_efpm"):
                metrics[f"{name}_peak_mb"] = (_peak_mb(memory, name), "MiB")
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            with open(spans, "w") as fh:
                json.dump({"traced": tracer.rows(), "memory": memory.rows()}, fh)
        else:
            metrics, samples = timed_pass(Operations(ef, cli, tally), workload, args.seed,
                                          work, cases, one_item, args.seconds)
            metrics["peak_mem_mb"] = (_peak_mb(memory, "cli.main"), "MiB")
            for name, xs in samples.items():
                per_case = xs if isinstance(xs[0], list) else [xs]
                print(f"{name}: {len(per_case[0])} samples per instance, median "
                      f"{per_instance(per_case):.5g}, fastest {per_instance(per_case, min):.5g}",
                      file=sys.stderr)
        print(f"{'traced' if args.trace else 'timed'} pass {time.perf_counter() - phase:.1f} s",
              file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
