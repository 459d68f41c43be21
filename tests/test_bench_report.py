"""`efpricing bench`, byte for byte, on a clock that counts its calls.

The clock that ``efpricing.cli`` reads is replaced by a counter whose
k-th reading is k**2 / 64 seconds, so every pricing and matching time
is a distinct dyadic fraction and every report is deterministic.  The
literals below pin stdout, stderr and the ``--out`` file of each
``--format``: sizes 5 and 10, whose ``reductions`` keys sort as
strings ("10" before "5"), and an efpm-only run, which has none.
"""

import itertools
import types

import pytest

from efpricing import cli

TABLE = """\
       n  method         trials      mean (s)       std (s)  95% CI
-------------------------------------------------------------------
       5  bellman-ford        2      0.171875      0.132583  (-1.019332, 1.363082)
       5  efpm                2      0.234375      0.132583  (-0.956832, 1.425582)
      10  bellman-ford        2      0.546875      0.132583  (-0.644332, 1.738082)
      10  efpm                2      0.609375      0.132583  (-0.581832, 1.800582)
pricing-time reduction of efpm vs bellman-ford at n=5: -36.4%
pricing-time reduction of efpm vs bellman-ford at n=10: -11.4%
"""

CSV = """\
n,method,trial,pricing_seconds,matching_seconds,iterations
5,bellman-ford,0,0.078125000,0.015625000,2
5,efpm,0,0.140625000,0.015625000,2
5,bellman-ford,1,0.265625000,0.203125000,4
5,efpm,1,0.328125000,0.203125000,4
10,bellman-ford,0,0.453125000,0.390625000,2
10,efpm,0,0.515625000,0.390625000,2
10,bellman-ford,1,0.640625000,0.578125000,4
10,efpm,1,0.703125000,0.578125000,4
"""

JSON = """\
{
  "reductions": {
    "10": -11.428571428571432,
    "5": -36.36363636363635
  },
  "summaries": [
    {
      "ci_high": 1.3630816940163775,
      "ci_low": -1.0193316940163775,
      "mean_seconds": 0.171875,
      "method": "bellman-ford",
      "n": 5,
      "std_seconds": 0.13258252147247765,
      "trials": 2
    },
    {
      "ci_high": 1.4255816940163775,
      "ci_low": -0.9568316940163775,
      "mean_seconds": 0.234375,
      "method": "efpm",
      "n": 5,
      "std_seconds": 0.13258252147247765,
      "trials": 2
    },
    {
      "ci_high": 1.7380816940163775,
      "ci_low": -0.6443316940163775,
      "mean_seconds": 0.546875,
      "method": "bellman-ford",
      "n": 10,
      "std_seconds": 0.13258252147247765,
      "trials": 2
    },
    {
      "ci_high": 1.8005816940163775,
      "ci_low": -0.5818316940163775,
      "mean_seconds": 0.609375,
      "method": "efpm",
      "n": 10,
      "std_seconds": 0.13258252147247765,
      "trials": 2
    }
  ],
  "trials": [
    {
      "iterations": 2,
      "matching_seconds": 0.015625,
      "method": "bellman-ford",
      "n": 5,
      "pricing_seconds": 0.078125,
      "trial": 0
    },
    {
      "iterations": 2,
      "matching_seconds": 0.015625,
      "method": "efpm",
      "n": 5,
      "pricing_seconds": 0.140625,
      "trial": 0
    },
    {
      "iterations": 4,
      "matching_seconds": 0.203125,
      "method": "bellman-ford",
      "n": 5,
      "pricing_seconds": 0.265625,
      "trial": 1
    },
    {
      "iterations": 4,
      "matching_seconds": 0.203125,
      "method": "efpm",
      "n": 5,
      "pricing_seconds": 0.328125,
      "trial": 1
    },
    {
      "iterations": 2,
      "matching_seconds": 0.390625,
      "method": "bellman-ford",
      "n": 10,
      "pricing_seconds": 0.453125,
      "trial": 0
    },
    {
      "iterations": 2,
      "matching_seconds": 0.390625,
      "method": "efpm",
      "n": 10,
      "pricing_seconds": 0.515625,
      "trial": 0
    },
    {
      "iterations": 4,
      "matching_seconds": 0.578125,
      "method": "bellman-ford",
      "n": 10,
      "pricing_seconds": 0.640625,
      "trial": 1
    },
    {
      "iterations": 4,
      "matching_seconds": 0.578125,
      "method": "efpm",
      "n": 10,
      "pricing_seconds": 0.703125,
      "trial": 1
    }
  ]
}
"""

EFPM_TABLE = """\
       n  method         trials      mean (s)       std (s)  95% CI
-------------------------------------------------------------------
       5  efpm                2      0.140625      0.088388  (-0.653513, 0.934763)
      10  efpm                2      0.390625      0.088388  (-0.403513, 1.184763)
"""

EFPM_JSON = """\
{
  "reductions": {},
  "summaries": [
    {
      "ci_high": 0.9347627960109184,
      "ci_low": -0.6535127960109184,
      "mean_seconds": 0.140625,
      "method": "efpm",
      "n": 5,
      "std_seconds": 0.08838834764831845,
      "trials": 2
    },
    {
      "ci_high": 1.1847627960109184,
      "ci_low": -0.4035127960109184,
      "mean_seconds": 0.390625,
      "method": "efpm",
      "n": 10,
      "std_seconds": 0.08838834764831845,
      "trials": 2
    }
  ],
  "trials": [
    {
      "iterations": 2,
      "matching_seconds": 0.015625,
      "method": "efpm",
      "n": 5,
      "pricing_seconds": 0.078125,
      "trial": 0
    },
    {
      "iterations": 4,
      "matching_seconds": 0.140625,
      "method": "efpm",
      "n": 5,
      "pricing_seconds": 0.203125,
      "trial": 1
    },
    {
      "iterations": 2,
      "matching_seconds": 0.265625,
      "method": "efpm",
      "n": 10,
      "pricing_seconds": 0.328125,
      "trial": 0
    },
    {
      "iterations": 4,
      "matching_seconds": 0.390625,
      "method": "efpm",
      "n": 10,
      "pricing_seconds": 0.453125,
      "trial": 1
    }
  ]
}
"""

PROGRESS = "benchmarked n=5 (2 trials)\nbenchmarked n=10 (2 trials)\n"


@pytest.fixture
def counting_clock(monkeypatch):
    calls = itertools.count()
    clock = types.SimpleNamespace(perf_counter=lambda: next(calls) ** 2 / 64)
    monkeypatch.setattr(cli, "time", clock)


@pytest.mark.parametrize("methods, fmt, table, report", [
    ([], "csv", TABLE, CSV),
    ([], "json", TABLE, JSON),
    ([], "text", TABLE, TABLE),
    (["--method", "efpm"], "json", EFPM_TABLE, EFPM_JSON),
])
def test_bench_writes_these_bytes(methods, fmt, table, report, counting_clock, tmp_path, capsys):
    out = tmp_path / "report"
    argv = ["bench", "--sizes", "5,10", "--trials", "2", "--seed", "3", *methods,
            "--format", fmt, "--out", str(out)]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == table
    assert captured.err == PROGRESS + f"wrote {fmt} report to {out}\n"
    assert out.read_bytes() == report.encode()
