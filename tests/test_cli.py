import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import efpricing
from efpricing import SolutionRecord, generate, read_solution, serialize
from efpricing import cli, core
from efpricing.cli import CSV_HEADER, main, student_t_quantile

from helpers import blocks_of, reference_verify


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def instance_2x2(tmp_path):
    path = tmp_path / "small.txt"
    path.write_text("2\n5 4\n1 2\n")
    return path


class TestGen:
    def test_writes_expected_line_count(self, tmp_path, capsys):
        out = tmp_path / "inst.txt"
        assert run_cli("gen", "--n", "100", "--seed", "1", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 101
        assert lines[0] == "100"

    def test_byte_identical_across_runs(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        run_cli("gen", "--n", "30", "--seed", "9", "--out", str(a))
        run_cli("gen", "--n", "30", "--seed", "9", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_zero_size_is_usage_error(self, tmp_path, capsys):
        code = run_cli("gen", "--n", "0", "--seed", "1", "--out", str(tmp_path / "x"))
        assert code == 2


class TestSolve:
    def test_solution_file_contents(self, instance_2x2, tmp_path, capsys):
        out = tmp_path / "sol.json"
        code = run_cli("solve", str(instance_2x2), "--method", "efpm", "--out", str(out))
        assert code == 0
        rec = read_solution(out)
        assert rec == SolutionRecord(
            n=2, assignment=[0, 1], prices=[3, 2], revenue=5, iterations_used=1
        )
        err = capsys.readouterr().err
        assert "revenue=5" in err
        assert "pricing_seconds=" in err

    def test_methods_produce_identical_bytes(self, instance_2x2, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_cli("solve", str(instance_2x2), "--method", "efpm", "--out", str(a))
        run_cli("solve", str(instance_2x2), "--method", "bellman-ford", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_repeat_runs_are_byte_identical(self, instance_2x2, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_cli("solve", str(instance_2x2), "--out", str(a))
        run_cli("solve", str(instance_2x2), "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_when_no_out_path(self, instance_2x2, capsys):
        assert run_cli("solve", str(instance_2x2)) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["revenue"] == 5

    def test_single_item_instance(self, tmp_path, capsys):
        path = tmp_path / "one.txt"
        path.write_text("1\n7\n")
        run_cli("solve", str(path))
        assert json.loads(capsys.readouterr().out)["prices"] == [7]

    def test_missing_file_is_usage_error(self, capsys):
        assert run_cli("solve", "/nonexistent/instance.txt") == 2

    def test_malformed_instance_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("3\n1 2 3\n4 5 6\n")
        assert run_cli("solve", str(path)) == 2


@pytest.mark.parametrize("command", ["solve BAD", "verify BAD SOL", "verify INST BAD"])
def test_a_file_that_is_not_utf8_is_usage_error(command, instance_2x2, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"2\n5 4\n1 \xff\n")
    sol = tmp_path / "sol.json"
    sol.write_text('{"assignment":[0,1],"iterations_used":0,"n":2,"prices":[3,2],"revenue":5}\n')
    names = {"BAD": str(bad), "INST": str(instance_2x2), "SOL": str(sol)}
    assert run_cli(*[names.get(word, word) for word in command.split()]) == 2
    assert capsys.readouterr().err.startswith("error: not UTF-8 text")


@pytest.mark.parametrize("command", ["solve DIR", "solve INST --out DIR", "verify INST DIR"])
def test_a_directory_for_a_file_is_usage_error(command, instance_2x2, tmp_path, capsys):
    # Exit 1 is verify's answer that a record is wrong; an unreadable or
    # unwritable path is the caller's mistake, like a missing file.
    names = {"DIR": str(tmp_path), "INST": str(instance_2x2)}
    assert run_cli(*[names.get(word, word) for word in command.split()]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


class TestVerify:
    def test_pipeline_output_verifies(self, instance_2x2, tmp_path, capsys):
        sol = tmp_path / "sol.json"
        run_cli("solve", str(instance_2x2), "--out", str(sol))
        assert run_cli("verify", str(instance_2x2), str(sol)) == 0
        assert "ok: envy-free" in capsys.readouterr().out

    def test_tampered_price_fails(self, instance_2x2, tmp_path, capsys):
        sol = tmp_path / "sol.json"
        run_cli("solve", str(instance_2x2), "--out", str(sol))
        rec = read_solution(sol)
        tampered = SolutionRecord(
            n=rec.n,
            assignment=rec.assignment,
            prices=[rec.prices[0] + 1, rec.prices[1]],
            revenue=rec.revenue + 1,
            iterations_used=rec.iterations_used,
        )
        sol.write_text(tampered.to_json())
        assert run_cli("verify", str(instance_2x2), str(sol)) == 1
        out = capsys.readouterr().out
        assert "envy" in out or "negative utility" in out

    def test_zero_prices_are_not_revenue_maximal(self, instance_2x2, tmp_path, capsys):
        # Envy-free, but every price can rise: the optimal revenue is 5.
        sol = tmp_path / "sol.json"
        rec = SolutionRecord(n=2, assignment=[0, 1], prices=[0, 0], revenue=0, iterations_used=0)
        sol.write_text(rec.to_json())
        assert run_cli("verify", str(instance_2x2), str(sol)) == 1
        out = capsys.readouterr().out
        assert "not revenue-maximal: no consumer has zero utility" in out
        assert "ok" not in out

    def test_prices_off_the_zero_set_are_not_revenue_maximal(self, tmp_path, capsys):
        # Consumer 0 has zero utility, but consumer 1 likes item 0 less
        # than its own, so nothing holds its price down: it can rise from 1 to 3.
        path = tmp_path / "inst.txt"
        path.write_text("2\n5 0\n1 3\n")
        sol = tmp_path / "sol.json"
        rec = SolutionRecord(n=2, assignment=[0, 1], prices=[5, 1], revenue=6, iterations_used=0)
        sol.write_text(rec.to_json())
        assert run_cli("verify", str(path), str(sol)) == 1
        assert "1 of 2 consumers (first: 1) reach no zero-utility" in capsys.readouterr().out

    @pytest.mark.parametrize("assignment", [[0, 5], [0, -1]])
    def test_item_out_of_range_is_an_invalid_assignment(
        self, instance_2x2, tmp_path, capsys, assignment
    ):
        sol = tmp_path / "sol.json"
        rec = SolutionRecord(n=2, assignment=assignment, prices=[3, 2], revenue=5, iterations_used=0)
        sol.write_text(rec.to_json())
        assert run_cli("verify", str(instance_2x2), str(sol)) == 1
        captured = capsys.readouterr()
        assert captured.err == "invalid assignment: assignment must be a permutation of 0..n-1\n"
        assert captured.out == ""

    def test_price_beyond_int64_is_usage_error(self, instance_2x2, tmp_path, capsys):
        sol = tmp_path / "sol.json"
        sol.write_text(
            '{"assignment":[0,1],"iterations_used":1,"n":2,'
            '"prices":[3,99999999999999999999],"revenue":3}\n'
        )
        assert run_cli("verify", str(instance_2x2), str(sol)) == 2
        assert "prices[1] = 99999999999999999999" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "changes, named",
        [
            ({"prices": [3.9, 2]}, "prices[0] = 3.9 is not an integer"),
            ({"assignment": [0, 1.7], "iterations_used": True}, "assignment[1] = 1.7"),
            ({"iterations_used": True}, "iterations_used = true is not an integer"),
            ({"revenue": "5"}, 'revenue = "5" is not an integer'),
            ({"prices": ["3", "2"]}, 'prices[0] = "3" is not an integer'),
        ],
    )
    def test_non_integer_numbers_are_usage_errors(
        self, instance_2x2, tmp_path, capsys, changes, named
    ):
        # Each of these records reads as the correct one, [3, 2] at revenue
        # 5, if its numbers are converted with int().
        doc = {"assignment": [0, 1], "iterations_used": 1, "n": 2, "prices": [3, 2], "revenue": 5}
        doc.update(changes)
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps(doc))
        assert run_cli("verify", str(instance_2x2), str(sol)) == 2
        captured = capsys.readouterr()
        assert named in captured.err
        assert "ok" not in captured.out

    @pytest.mark.parametrize(
        "changes, named",
        [
            ({"prices": [3, 2, 0]}, "prices has 3 entries, but n = 2"),
            ({"assignment": [0, 1, 2]}, "assignment has 3 entries, but n = 2"),
            ({"n": 0, "assignment": [], "prices": []}, "n = 0 is below 1"),
            ({"iterations_used": -4}, "iterations_used = -4 is negative"),
        ],
    )
    def test_a_record_that_contradicts_itself_is_a_usage_error(
        self, instance_2x2, tmp_path, capsys, changes, named
    ):
        doc = {"assignment": [0, 1], "iterations_used": 1, "n": 2, "prices": [3, 2], "revenue": 5}
        doc.update(changes)
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps(doc))
        assert run_cli("verify", str(instance_2x2), str(sol)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: malformed solution record: {named}\n"
        assert captured.out == ""

    def test_a_deeply_nested_record_is_a_usage_error(self, instance_2x2, tmp_path, capsys):
        # json reads it recursively; the RecursionError is a malformed
        # file, not an internal error.
        sol = tmp_path / "sol.json"
        sol.write_text("[" * 100_000)
        assert run_cli("verify", str(instance_2x2), str(sol)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: malformed solution record: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_each_allocation_checks_its_permutation_once(
        self, instance_2x2, tmp_path, monkeypatch, capsys
    ):
        # The view takes the checked allocation: it checks no order of its own.
        sol = tmp_path / "sol.json"
        checked = []
        permutation = core._permutation

        def counted(values, what):
            checked.append(what)
            return permutation(values, what)

        monkeypatch.setattr(core, "_permutation", counted)
        assert run_cli("solve", str(instance_2x2), "--out", str(sol)) == 0
        assert checked == ["assignment"]
        checked.clear()
        assert run_cli("verify", str(instance_2x2), str(sol)) == 0
        assert checked == ["assignment"]

    def test_one_solve_checks_its_matrix_once(self, tmp_path, monkeypatch, capsys):
        # The matrix is checked when it is read, and the view takes it as it is.
        path = tmp_path / "m.txt"
        path.write_text(serialize(generate(30, 1)))
        checked = []
        check = core.ValuationMatrix._check

        def counted(arr):
            checked.append(arr.shape)
            return check(arr)

        monkeypatch.setattr(core.ValuationMatrix, "_check", staticmethod(counted))
        assert run_cli("solve", str(path)) == 0
        assert checked == [(30, 30)]

    def test_extreme_prices_report_the_exact_gain(self, instance_2x2, tmp_path, capsys):
        sol = tmp_path / "sol.json"
        rec = SolutionRecord(
            n=2, assignment=[0, 1], prices=[-(2**63 - 1), 2],
            revenue=-(2**63 - 1) + 2, iterations_used=0,
        )
        sol.write_text(rec.to_json())
        assert run_cli("verify", str(instance_2x2), str(sol)) == 1
        out = capsys.readouterr().out
        assert out == f"envy: consumer 1 gains {2**63} by taking item 0\n"

    def test_size_mismatch_is_usage_error(self, instance_2x2, tmp_path, capsys):
        sol = tmp_path / "sol.json"
        rec = SolutionRecord(n=3, assignment=[0, 1, 2], prices=[1, 1, 1], revenue=3, iterations_used=0)
        sol.write_text(rec.to_json())
        assert run_cli("verify", str(instance_2x2), str(sol)) == 2

    def test_bad_revenue_fails(self, instance_2x2, tmp_path, capsys):
        sol = tmp_path / "sol.json"
        run_cli("solve", str(instance_2x2), "--out", str(sol))
        rec = read_solution(sol)
        broken = SolutionRecord(
            n=rec.n,
            assignment=rec.assignment,
            prices=rec.prices,
            revenue=rec.revenue + 10,
            iterations_used=rec.iterations_used,
        )
        sol.write_text(broken.to_json())
        assert run_cli("verify", str(instance_2x2), str(sol)) == 1
        assert "revenue mismatch" in capsys.readouterr().out


class TestBench:
    def test_small_benchmark_with_csv(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = run_cli(
            "bench", "--sizes", "15,25", "--trials", "3", "--seed", "4",
            "--out", str(out), "--format", "csv",
        )
        assert code == 0
        table = capsys.readouterr().out
        assert "efpm" in table and "bellman-ford" in table
        assert "pricing-time reduction" in table
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert re.fullmatch(r"15,bellman-ford,0,\d+\.\d{9},\d+\.\d{9},\d+", lines[1])
        # 2 sizes x 3 trials x 2 methods
        assert len(lines) == 1 + 12

    @pytest.mark.parametrize("methods, listed", [
        (["efpm", "efpm"], ["efpm"]),
        (["efpm", "bellman-ford", "efpm"], ["efpm", "bellman-ford"]),
    ])
    def test_a_method_named_twice_runs_once(self, methods, listed, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        argv = ["bench", "--sizes", "10", "--trials", "2", "--out", str(out)]
        assert run_cli(*argv, *[arg for m in methods for arg in ("--method", m)]) == 0
        rows = capsys.readouterr().out.splitlines()[2 : 2 + len(listed)]
        assert [row.split()[1:3] for row in rows] == [[m, "2"] for m in listed]
        assert len(out.read_text().splitlines()) == 1 + 2 * len(listed)

    def test_a_size_named_twice_runs_once_in_ascending_order(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        argv = ["bench", "--sizes", "12,8,12", "--trials", "2", "--seed", "3", "--out", str(out)]
        assert run_cli(*argv) == 0
        captured = capsys.readouterr()
        rows = [row.split()[:3] for row in captured.out.splitlines()[2:6]]
        assert rows == [["8", "bellman-ford", "2"], ["8", "efpm", "2"],
                        ["12", "bellman-ford", "2"], ["12", "efpm", "2"]]
        assert captured.err.splitlines()[:2] == [
            "benchmarked n=8 (2 trials)", "benchmarked n=12 (2 trials)"]
        lines = out.read_text().splitlines()
        # 2 sizes x 2 trials x 2 methods
        assert [line.split(",")[:3] for line in lines[1:]] == [
            [n, method, trial] for n in ("8", "12") for trial in ("0", "1")
            for method in ("bellman-ford", "efpm")]

    def test_unwritable_out_fails_before_the_first_trial(self, tmp_path, capsys):
        out = tmp_path / "missing" / "bench.csv"
        assert run_cli("bench", "--sizes", "3", "--trials", "2", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "benchmarked" not in err and "bench.csv" in err

    def test_a_report_is_replaced_only_by_a_finished_run(self, tmp_path, capsys):
        old = tmp_path / "old.csv"
        old.write_text("x" * 10_000)
        new = tmp_path / "new.csv"
        for out in (old, new):  # one trial is a usage error, found after --out is opened
            assert run_cli("bench", "--sizes", "3", "--trials", "1", "--out", str(out)) == 2
        assert old.read_text() == "x" * 10_000
        assert not new.exists()
        assert run_cli("bench", "--sizes", "3", "--trials", "2", "--out", str(old)) == 0
        lines = old.read_text().splitlines()
        assert lines[0] == ",".join(CSV_HEADER) and len(lines) == 1 + 4

    def test_single_method_has_no_reduction(self, capsys):
        code = run_cli("bench", "--sizes", "10", "--trials", "2", "--method", "efpm")
        assert code == 0
        out = capsys.readouterr().out
        assert "reduction" not in out
        assert "bellman-ford" not in out

    def test_json_report(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        run_cli("bench", "--sizes", "10", "--trials", "2", "--out", str(out), "--format", "json")
        doc = json.loads(out.read_text())
        assert {s["method"] for s in doc["summaries"]} == {"efpm", "bellman-ford"}
        assert "10" in doc["reductions"]
        assert len(doc["trials"]) == 4

    def test_warmup_runs(self, capsys):
        assert run_cli("bench", "--sizes", "8", "--trials", "2", "--warmup", "2") == 0

    def test_too_few_trials_is_usage_error(self, capsys):
        assert run_cli("bench", "--sizes", "10", "--trials", "1") == 2

    def test_negative_warmup_is_usage_error(self, capsys):
        assert run_cli("bench", "--sizes", "10", "--trials", "2", "--warmup", "-3") == 2
        assert "warmup" in capsys.readouterr().err

    def test_bad_sizes_is_usage_error(self, capsys):
        assert run_cli("bench", "--sizes", "ten", "--trials", "2") == 2
        assert run_cli("bench", "--sizes", "0", "--trials", "2") == 2


def test_the_solve_pipeline_runs_through_the_names_the_benchmark_traces(
    instance_2x2, tmp_path, monkeypatch, capsys
):
    # perfbench times each layer by wrapping efpricing.cli's own names;
    # a pipeline that reached the layers another way would leave its
    # per-layer metrics at zero without failing.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from tracing import Tracer, instrument

    tracer = Tracer()
    with instrument(tracer, cli):
        assert run_cli("solve", str(instance_2x2), "--out", str(tmp_path / "sol.json")) == 0
    names = {s.name for s in tracer.spans}
    assert {"matching.solve_assignment", "core.reorder", "pricing.prices_efpm"} <= names
    args, _ = tracer.last["pricing.prices_efpm"]
    assert len(args) == 2


def test_verify_certifies_in_the_one_call_the_benchmark_traces(
    instance_2x2, tmp_path, monkeypatch, capsys
):
    # perfbench times the certificate as the verify.check_envy_free
    # span; a check that verify ran around that call would go untimed.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from tracing import Tracer, instrument

    optimal = tmp_path / "optimal.json"
    assert run_cli("solve", str(instance_2x2), "--out", str(optimal)) == 0
    zero = tmp_path / "zero.json"
    zero.write_text(
        SolutionRecord(n=2, assignment=[0, 1], prices=[0, 0], revenue=0, iterations_used=0).to_json()
    )
    tracer = Tracer()
    with instrument(tracer, cli):
        assert run_cli("verify", str(instance_2x2), str(optimal)) == 0
        assert run_cli("verify", str(instance_2x2), str(zero)) == 1
    assert [s.name for s in tracer.spans].count("verify.check_envy_free") == 2
    _, report = tracer.last["verify.check_envy_free"]
    assert report.raisable == [0, 1]
    assert "not revenue-maximal: no consumer has zero utility" in capsys.readouterr().out


def test_main_builds_its_parser_once(instance_2x2, tmp_path, monkeypatch, capsys):
    # Each in-process command parses its arguments with the one parser,
    # which keeps no state from the command before.
    parser = cli._build_parser()
    commands = []
    parse_args = parser.parse_args

    def recorded(argv):
        commands.append(argv[0])
        return parse_args(argv)

    monkeypatch.setattr(parser, "parse_args", recorded)
    solution = tmp_path / "sol.json"
    assert run_cli("solve", str(instance_2x2), "--out", str(solution)) == 0
    assert run_cli("verify", str(instance_2x2), str(solution)) == 0
    assert run_cli("solve", str(instance_2x2), "--method", "bellman-ford") == 0
    assert '"prices":[3,2]' in capsys.readouterr().out
    assert commands == ["solve", "verify", "solve"]
    assert cli._build_parser() is parser


def test_student_t_quantile_matches_scipy():
    from scipy.stats import t

    for q in (0.9, 0.95, 0.975, 0.995):
        for df in range(1, 201):
            assert student_t_quantile(q, df) == pytest.approx(t.ppf(q, df), rel=1e-5)


def test_cli_import_leaves_scipy_unloaded():
    # Every command pays for what importing the CLI loads; scipy alone
    # costs most of a second, and the package does not depend on it.
    src = str(Path(efpricing.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, efpricing.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_a_size_this_machine_cannot_hold_is_a_usage_error(tmp_path):
    # The child caps its own address space at 4 GiB before numpy loads,
    # so the 74.5 GiB matrix of n = 100000 fails to allocate at once,
    # whatever the host's overcommit setting, and no test allocates it.
    src = str(Path(efpricing.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    code = ("import resource, sys; limit = resource.RLIMIT_AS; "
            "resource.setrlimit(limit, (4 << 30, resource.getrlimit(limit)[1])); "
            "from efpricing.cli import main; sys.exit(main(sys.argv[1:]))")
    for argv in (["gen", "--n", "100000", "--out", str(tmp_path / "big.txt")],
                 ["bench", "--sizes", "100000", "--trials", "2",
                  "--out", str(tmp_path / "big.csv")]):
        done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: Unable to allocate"), done.stderr
    assert list(tmp_path.iterdir()) == []


def run_piped(text, *argv):
    """Run the CLI in a fresh process, with text on its stdin, a pipe."""
    src = str(Path(efpricing.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-m", "efpricing.cli", *argv], input=text,
                          env=env, capture_output=True, text=True)


def test_an_instance_can_come_from_a_pipe(tmp_path):
    # A pipe has no size, and its bytes are gone once read: it is read
    # once, whole, as a text, and gives the file's record and answers.
    path = tmp_path / "m.txt"
    efpricing.write_instance(generate(30, 5), path)
    assert run_cli("solve", str(path), "--out", str(tmp_path / "file.json")) == 0
    piped = run_piped(path.read_text(), "solve", "/dev/stdin",
                      "--out", str(tmp_path / "pipe.json"))
    assert piped.returncode == 0, piped.stderr
    assert (tmp_path / "pipe.json").read_bytes() == (tmp_path / "file.json").read_bytes()
    checked = run_piped(path.read_text(), "verify", "/dev/stdin", str(tmp_path / "file.json"))
    assert checked.returncode == 0 and checked.stdout.startswith("ok: "), checked.stderr
    bad = run_piped("2\n1 x\n3 4\n", "solve", "/dev/stdin")
    assert (bad.returncode, bad.stdout, bad.stderr) == (
        2, "", "error: row 0, column 1: non-integer token 'x'\n")


def test_oracles_stay_out_of_the_api_but_within_reach():
    # The exhaustive revenue oracle is not exported and not loaded with
    # the CLI, but the package still hands it out by name, for the
    # benchmark's checks.  Its size error is reached in efpricing.oracles
    # alone.
    src = str(Path(efpricing.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, efpricing.cli; print('efpricing.oracles' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
    from efpricing import oracles

    assert "brute_force_max_revenue" not in efpricing.__all__
    assert efpricing.brute_force_max_revenue is oracles.brute_force_max_revenue
    assert not hasattr(efpricing, "InstanceTooLargeError")
    assert not hasattr(core, "InstanceTooLargeError")


#: The market of the verify cases below, streamed in blocks of four rows.
VERIFY_N = 48


@pytest.fixture(scope="module")
def verify_files(tmp_path_factory):
    """Instance texts and solution records that verify must answer as before.

    The middle and last rows are refused partway, after the first blocks
    have been certified.  A sign on the last row is refused by the block
    reader but accepted by the token loop, which yields the rows not yet
    certified.
    """
    tmp = tmp_path_factory.mktemp("verify")
    n = VERIFY_N
    v = generate(n, 5)
    solved = cli.solve_and_price(v, ["efpm"])
    assignment = solved.allocation.assignment.tolist()
    prices = solved.priced["efpm"][1].p.tolist()
    rows = serialize(v).splitlines()[1:]

    def with_row(r, text):
        return "\n".join([str(n), *rows[:r], text, *rows[r + 1:]]) + "\n"

    instances = {
        "ok": serialize(v),
        "bad header": f"{n}x\n" + "\n".join(rows) + "\n",
        "bad middle row": with_row(n // 2, rows[n // 2] + " 7"),
        "bad last row": with_row(n - 1, "+5"),
        "signed last row": with_row(n - 1, "+" + rows[n - 1]),
    }
    # The first item that a consumer other than its buyer likes as much
    # as its own: that consumer envies it once its price falls.
    gains = v.values - solved.priced["efpm"][1].p
    gains -= gains[np.arange(n), assignment][:, np.newaxis]
    gains[np.arange(n), assignment] = -1
    lowered = list(prices)
    lowered[np.argwhere(gains == 0)[0][1]] -= 1

    def record(n=n, assignment=assignment, prices=prices, revenue=None):
        revenue = sum(prices) if revenue is None else revenue
        return SolutionRecord(n, assignment, prices, revenue, 0).to_json()

    solutions = {
        "ok": record(),
        "malformed JSON": "{",
        "wrong n": record(n + 1, [*assignment, n], [*prices, 0]),
        "invalid assignment": record(assignment=[assignment[1], *assignment[1:]]),
        "revenue mismatch": record(revenue=sum(prices) + 1),
        "lowered price": record(prices=lowered),
    }
    paths = {}
    for kind, texts in (("instance", instances), ("solution", solutions)):
        for name, text in texts.items():
            paths[kind, name] = tmp / f"{kind}-{name.replace(' ', '-')}"
            paths[kind, name].write_text(text)
    return paths


@pytest.mark.parametrize("solution", ["ok", "malformed JSON", "wrong n", "invalid assignment",
                                      "revenue mismatch", "lowered price"])
@pytest.mark.parametrize("instance", ["ok", "bad header", "bad middle row", "bad last row",
                                      "signed last row"])
def test_verify_answers_as_when_it_read_the_matrix_first(instance, solution, verify_files,
                                                         capsys):
    argv = [str(verify_files["instance", instance]), str(verify_files["solution", solution])]
    with blocks_of(4 * VERIFY_N):
        code = main(["verify", *argv])
    streamed = capsys.readouterr()
    expected = reference_verify(*argv)
    reference = capsys.readouterr()
    assert (code, streamed.out, streamed.err) == (expected, reference.out, reference.err)


# Bytes that the instance and record formats give a meaning to, or that
# sit on an edge of the token reader.
FUZZ_BYTES = b" \t\r\n-+_.e0123456789\x00\xff"
FUZZ_LIMIT = 2048


@st.composite
def mutated(draw, text: bytes) -> bytes:
    """text after a few byte flips, insertions, deletions and repeated runs."""
    data = bytearray(text)
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["flip", "insert", "delete", "repeat"]))
        at = draw(st.integers(0, len(data)))
        if op == "flip" and at < len(data):
            data[at] ^= 1 << draw(st.integers(0, 7))
        elif op == "insert":
            data[at:at] = bytes(draw(st.lists(st.sampled_from(FUZZ_BYTES), min_size=1, max_size=4)))
        elif op == "delete":
            del data[at : at + draw(st.integers(1, 8))]
        elif op == "repeat":
            data[at:at] = data[at : at + draw(st.integers(1, 8))] * draw(st.integers(1, 4))
    return bytes(data[:FUZZ_LIMIT])


@st.composite
def cli_inputs(draw) -> tuple[bytes, bytes]:
    """An instance file and a solution record, each valid, mutated or arbitrary."""
    n = draw(st.integers(1, 8))
    v = generate(n, draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from([3, 10**6])))
    solved = cli.solve_and_price(v, ["efpm"])
    utilities, prices, _ = solved.priced["efpm"]
    record = SolutionRecord(
        n=n,
        assignment=solved.allocation.assignment.tolist(),
        prices=prices.p.tolist(),
        revenue=prices.revenue,
        iterations_used=utilities.iterations_used,
    ).to_json().encode()
    files = []
    for text in (serialize(v).encode(), record):
        kind = draw(st.sampled_from(["valid", "mutated", "arbitrary"]))
        if kind == "mutated":
            text = draw(mutated(text))
        elif kind == "arbitrary":
            text = draw(st.binary(max_size=FUZZ_LIMIT))
        files.append(text)
    return tuple(files)


def assert_documented_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), err.getvalue()
    if code == 2:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")


@settings(max_examples=300, deadline=None)
@example(files=(b"2\n5 4\n1 2\n", b"[" * 100_000))
@given(files=cli_inputs())
def test_solve_and_verify_map_any_file_to_a_documented_exit_code(files):
    # Exit 3 is an internal error: no input file may cause it, and no
    # exception may escape main.
    with tempfile.TemporaryDirectory() as tmp:
        instance, record = Path(tmp, "instance.txt"), Path(tmp, "record.json")
        instance.write_bytes(files[0])
        record.write_bytes(files[1])
        assert_documented_exit(["solve", str(instance)])
        assert_documented_exit(["verify", str(instance), str(record)])
        # What verify prints and returns is what it did reading the matrix first.
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            streamed = (main(["verify", str(instance), str(record)]), out.getvalue(),
                        err.getvalue())
            out.seek(0), out.truncate(), err.seek(0), err.truncate()
            code = reference_verify(str(instance), str(record))
        assert streamed == (code, out.getvalue(), err.getvalue())
