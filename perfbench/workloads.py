"""The benchmark's markets: random, chain and tie-heavy.

Each workload is a fixed list of base instances, so that the work in a
run is the same whatever the seed: the number of efpm sweeps and the file
sizes are properties of the base instance, and so are the free rows after
column reduction, except that on ``ties`` a row permutation changes which
of the tied rows is picked (167 to 177 free rows of 200 on seeds 1 and 2).
The run's ``--seed`` relabels every base instance by a seeded row
permutation and a seeded column permutation (and, on ``chain``, also
draws the filler entries).  Relabelling gives the program new files and
new answers but leaves the market, and so its revenue and its sweep
count, unchanged.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

#: Winning valuation on the chain; the item after a consumer's own is
#: worth H + 1 to them.  Every other entry is filler with six digits, so
#: that the file size, like the rest of the work, does not depend on the seed.
CHAIN_H = 1_000_000
CHAIN_FILLER = (100_000, 500_000)


@dataclass(frozen=True)
class Market:
    """One instance of a workload, as the benchmark builds it."""

    name: str
    values: np.ndarray
    #: Closed-form revenue and efpm sweep count, where the family has them.
    expected_revenue: int | None = None
    expected_sweeps: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    #: (label, n, base seed) of each instance.
    instances: tuple[tuple[str, int, int], ...]
    #: Times per round that a fresh process starts, and that each instance
    #: is solved, verified and written.  The machine's speed drifts over
    #: seconds, so each timed operation gets a similar share of the run,
    #: spread over all of it.
    repeats: dict[str, int]
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "random",
            (("random-400-a", 400, 101), ("random-400-b", 400, 102)),
            {"startup": 1, "solve": 3, "verify": 4, "write": 4},
            "uniform entries in 0..10^6 from the package generator: instance "
            "I/O and matching share the time, efpm is a minor part",
        ),
        Workload(
            "chain",
            (("chain-400", 400, 0), ("chain-500", 500, 0)),
            {"startup": 1, "solve": 3, "verify": 4, "write": 4},
            "adversarial chain: efpm spends its whole budget of n-1 sweeps "
            "while matching is one short augmentation",
        ),
        Workload(
            "ties",
            (("ties-200-a", 200, 201), ("ties-200-b", 200, 202)),
            {"startup": 1, "solve": 3, "verify": 12, "write": 12},
            "uniform entries in 0..7: about 90% of rows stay free after "
            "column reduction, so matching dominates and efpm does no sweeps",
        ),
    )
}


def chain_values(n: int, rng: np.random.Generator) -> np.ndarray:
    """Consumer i values item i at H and item i+1 at H+1; the rest is filler.

    The identity allocation is the unique optimum because filler stays
    far below H, and the minimal stable utilities are y[i] = n-1-i, so
    revenue is n*H - n(n-1)/2 and efpm needs exactly n-1 sweeps.
    """
    values = rng.integers(*CHAIN_FILLER, size=(n, n), dtype=np.int64)
    idx = np.arange(n)
    values[idx, idx] = CHAIN_H
    values[idx[:-1], idx[:-1] + 1] = CHAIN_H + 1
    return values


def chain_revenue(n: int) -> int:
    return n * CHAIN_H - n * (n - 1) // 2


def relabel(values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Permute consumers and items; the market stays the same market."""
    n = values.shape[0]
    return np.ascontiguousarray(values[rng.permutation(n)][:, rng.permutation(n)])


def build_markets(workload: Workload, seed: int, generate) -> list[Market]:
    """Build the workload's instances for one seed.

    ``generate`` is the package's SplitMix64 generator; the random and
    tie-heavy families are defined by it.
    """
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    markets = []
    for label, n, base_seed in workload.instances:
        if workload.name == "chain":
            values = chain_values(n, rng)
            markets.append(
                Market(label, relabel(values, rng), chain_revenue(n), n - 1)
            )
        else:
            max_value = 7 if workload.name == "ties" else 1_000_000
            values = np.array(generate(n, base_seed, max_value).values)
            markets.append(Market(label, relabel(values, rng)))
    return markets
