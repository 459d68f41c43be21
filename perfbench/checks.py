"""Checks of the program's answers, computed apart from the program.

Nothing here imports efpricing.  Every check works from the valuation
matrix the benchmark built and from the solution record as the program
wrote it, and returns a list of problems (empty when the answer is right).
"""

from __future__ import annotations

import json

import numpy as np


def check_record(values: np.ndarray, text: str, expected_revenue=None, expected_sweeps=None):
    """Check a solution record against its instance from the definitions.

    * the assignment is a permutation and the revenue is the sum of prices;
    * every utility is nonnegative and no consumer strictly prefers
      another item at its price (envy-freeness).  Together these make
      (utilities, prices) a feasible dual of the assignment LP that is
      tight on the allocation, so by LP duality the allocation is
      welfare-optimal;
    * some consumer has zero utility, and every consumer reaches a
      zero-utility consumer along tight edges (i -> owner of an item that
      i likes as much as its own).  No price can then be raised without
      creating envy or a negative utility: the revenue is maximal;
    * where the family has a closed form, revenue and sweeps match it.
    """
    try:
        doc = json.loads(text)
        assignment = np.array(doc["assignment"], dtype=np.int64)
        prices = np.array(doc["prices"], dtype=np.int64)
        revenue = int(doc["revenue"])
        sweeps = int(doc["iterations_used"])
        n_record = int(doc["n"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable record: {exc}"]
    n = values.shape[0]
    if n_record != n or assignment.shape != (n,) or prices.shape != (n,):
        return [f"record sizes do not match n={n}"]
    if not np.array_equal(np.sort(assignment), np.arange(n)):
        return ["assignment is not a permutation"]
    problems = []
    if revenue != int(prices.sum()):
        problems.append(f"revenue {revenue} is not the sum of prices {int(prices.sum())}")
    surplus = values - prices[np.newaxis, :]
    utility = surplus[np.arange(n), assignment]
    if utility.min() < 0:
        problems.append("a consumer has negative utility")
    envy = surplus.max(axis=1) - utility
    if envy.max() > 0:
        problems.append(f"envy: consumer {int(envy.argmax())} gains {int(envy.max())}")
    if not problems and not _tight_edges_reach_zero(surplus, utility, assignment):
        problems.append("not revenue-maximal: some price can be raised")
    if expected_revenue is not None and revenue != expected_revenue:
        problems.append(f"revenue {revenue}, closed form gives {expected_revenue}")
    if expected_sweeps is not None and sweeps != expected_sweeps:
        problems.append(f"{sweeps} sweeps, closed form gives {expected_sweeps}")
    return problems


def _tight_edges_reach_zero(surplus, utility, assignment) -> bool:
    """Breadth-first search back from the zero-utility consumers.

    Consumer i is held at its utility by consumer k when i likes k's item
    as much as its own.  A consumer not reached from the zero set could
    have its own item's price raised together with the prices of every
    consumer it reaches, without any of them envying the rest.
    """
    n = utility.shape[0]
    tight = surplus == utility[:, np.newaxis]
    reached = utility == 0
    frontier = list(np.flatnonzero(reached))
    while frontier:
        k = frontier.pop()
        newly = tight[:, assignment[k]] & ~reached
        reached |= newly
        frontier.extend(np.flatnonzero(newly))
    return n > 0 and bool(reached.all())


def instance_text(values: np.ndarray) -> str:
    """The instance file format: n, then n rows of space-separated integers."""
    rows = [" ".join(map(str, row)) for row in values.tolist()]
    return f"{values.shape[0]}\n" + "\n".join(rows) + "\n"
