"""Instance generation and file persistence.

Random instances follow a fixed, named generator so that a seed produces
bit-identical matrices on every platform: the SplitMix64 sequence, with
outputs mapped onto {0, ..., max_value} by threshold rejection (no modulo
bias).  Matrix entries consume the stream in row-major order; a rejected
draw is replaced, in position order, by values taken from the
continuation of the stream until accepted.

Instance text format:
    line 1:              n
    lines 2 .. n + 1:    n whitespace-separated nonnegative integers

Reading and writing run in numpy and build no Python object per entry.
:func:`parse` checks the header and the row count on ``splitlines()``,
reads the body with ``np.loadtxt`` and checks its shape and bounds with
array operations.  That fast path is taken only for ASCII text without
blank lines: ``loadtxt`` skips blank lines, and on numpy 2.4 it reads
some non-ASCII letters as digits (5, U+01FE, 6 reads as 5126).  When
the fast path is not taken or refuses the body (an unreadable token, a
ragged row, a negative entry or one above the bound), the per-token loop
reads the text again.  The loop is the only place that words a
:class:`ParseError`, and it also accepts what ``int()`` accepts but
``loadtxt`` does not (``1_000``, non-ASCII digits), so both paths accept
the same texts with the same values.  :func:`serialize` formats blocks
of entries as right-aligned digit tables and keeps the bytes after each
entry's leading padding; the blocks bound its working memory.

Solution files are a single canonical JSON document (sorted keys, no
spaces, one trailing newline) holding assignment, prices, revenue and
iterations_used.  Per-phase timings are deliberately not part of the
record so that repeated solves of one instance are byte-identical.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import INT64_MAX, INT64_MIN, ValuationMatrix, max_entry_for

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

GENERATOR_NAME = "splitmix64"


class ParseError(ValueError):
    """An instance or solution file does not match its documented format."""


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _stream(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs start .. start+count-1 of the SplitMix64 sequence for seed."""
    base = np.uint64(seed & _MASK64)
    steps = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _mix64(base + steps * np.uint64(_GOLDEN))


def generate(n: int, seed: int, max_value: int = 1_000_000) -> ValuationMatrix:
    """Draw an n x n matrix of i.i.d. uniform integers in {0..max_value}.

    Identical (n, seed, max_value) gives identical matrices everywhere;
    the generator algorithm is part of the format contract.
    """
    if n < 1:
        raise ValueError(f"instance size must be >= 1, got {n}")
    if max_value < 0:
        raise ValueError(f"max_value must be >= 0, got {max_value}")
    if max_value > max_entry_for(n):
        raise ValueError(
            f"max_value {max_value} exceeds the overflow-safe entry bound for n={n}"
        )
    span = max_value + 1
    count = n * n
    draws = _stream(seed, 0, count)
    leftover = (1 << 64) % span
    if leftover:
        limit = np.uint64((1 << 64) - leftover)
        pending = np.flatnonzero(draws >= limit)
        cursor = count
        while pending.size:
            fresh = _stream(seed, cursor, pending.size)
            cursor += pending.size
            draws[pending] = fresh
            pending = pending[fresh >= limit]
    values = (draws % np.uint64(span)).astype(np.int64).reshape(n, n)
    return ValuationMatrix(values)


#: Entries formatted per block by :func:`serialize`.  Each entry takes a
#: few dozen bytes of temporaries, so a block works in about 1 MiB.
_BLOCK = 1 << 14
#: 10, 100, ..., 10**18: an entry below 10**k has at most k digits.
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)


def serialize(v: ValuationMatrix) -> str:
    """Render a matrix in the instance text format."""
    return "".join(str(chunk, "ascii") for chunk in _render(v))


def _render(v: ValuationMatrix) -> Iterator[bytes | np.ndarray]:
    """The instance text as consecutive ASCII buffers, one per block.

    Each block becomes a table with one row per entry: the entry's digits
    right-aligned, then its separator (a newline after the last column, a
    space elsewhere).  A mask keeps each row's last digits + 1 bytes.
    """
    n = v.n
    flat = v.values.reshape(-1)
    width = int(np.searchsorted(_POWERS_OF_TEN, flat.max(), side="right")) + 2
    # keep[k]: the bytes kept of a row whose entry has k + 1 digits.
    keep = np.arange(width) >= (width - 2 - np.arange(width - 1))[:, np.newaxis]
    yield f"{n}\n".encode()
    for start in range(0, flat.size, _BLOCK):
        block = flat[start : start + _BLOCK]
        table = np.empty((block.size, width), dtype=np.uint8)
        rest = block.copy()
        quotient = np.empty_like(rest)
        for col in range(width - 2, -1, -1):
            np.floor_divide(rest, 10, out=quotient)
            table[:, col] = rest - quotient * 10
            rest, quotient = quotient, rest
        table += ord("0")
        table[:, -1] = ord(" ")
        table[(n - 1 - start) % n :: n, -1] = ord("\n")
        digits = np.searchsorted(_POWERS_OF_TEN, block, side="right")
        yield table[keep.take(digits, axis=0)]


def parse(text: str) -> ValuationMatrix:
    """Parse the instance text format, rejecting anything malformed."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty instance file")
    try:
        n = int(lines[0])
    except ValueError:
        raise ParseError(f"malformed header, expected an integer: {lines[0]!r}") from None
    if n < 1:
        raise ParseError(f"instance size must be >= 1, got {n}")
    body = lines[1:]
    if len(body) != n:
        raise ParseError(f"expected {n} rows, found {len(body)}")
    values = _load_body(text, body, n)
    if values is None:
        values = _parse_tokens(body, n)
    return ValuationMatrix(values)


def _load_body(text: str, body: list[str], n: int):
    """The body as an n x n int64 array, or None where the token loop must decide."""
    if not text.isascii() or not all(line and not line.isspace() for line in body):
        return None
    try:
        values = np.loadtxt(body, dtype=np.int64, comments=None, ndmin=2)
    except (ValueError, OverflowError):
        return None
    if values.shape != (n, n) or values.min() < 0 or values.max() > max_entry_for(n):
        return None
    return values


def _parse_tokens(body: list[str], n: int) -> np.ndarray:
    """Read the body token by token, raising the ParseError for the first fault."""
    bound = max_entry_for(n)
    rows = []
    for r, line in enumerate(body):
        tokens = line.split()
        if len(tokens) != n:
            raise ParseError(f"row {r}: expected {n} values, found {len(tokens)}")
        row = []
        for c, tok in enumerate(tokens):
            try:
                value = int(tok)
            except ValueError:
                raise ParseError(f"row {r}, column {c}: non-integer token {tok!r}") from None
            if value < 0:
                raise ParseError(f"row {r}, column {c}: valuations must be nonnegative")
            if value > bound:
                raise ParseError(
                    f"row {r}, column {c}: value {value} exceeds the "
                    f"overflow-safe bound {bound} for n={n}"
                )
            row.append(value)
        rows.append(row)
    return np.array(rows, dtype=np.int64)


def write_instance(v: ValuationMatrix, path) -> None:
    with open(path, "wb") as fh:
        fh.writelines(_render(v))


def read_instance(path) -> ValuationMatrix:
    return parse(Path(path).read_text())


@dataclass(frozen=True)
class SolutionRecord:
    """A solved instance: who gets what, at which prices."""

    n: int
    assignment: list[int]
    prices: list[int]
    revenue: int
    iterations_used: int

    def to_json(self) -> str:
        doc = {
            "assignment": list(self.assignment),
            "iterations_used": self.iterations_used,
            "n": self.n,
            "prices": list(self.prices),
            "revenue": self.revenue,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SolutionRecord":
        """Read a record; every number must fit a signed 64-bit integer."""
        try:
            doc = json.loads(text)
            record = cls(
                n=int(doc["n"]),
                assignment=[int(x) for x in doc["assignment"]],
                prices=[int(x) for x in doc["prices"]],
                revenue=int(doc["revenue"]),
                iterations_used=int(doc["iterations_used"]),
            )
            for name in ("n", "revenue", "iterations_used"):
                _check_int64(name, getattr(record, name))
            for name in ("assignment", "prices"):
                xs = getattr(record, name)
                if xs and (min(xs) < INT64_MIN or max(xs) > INT64_MAX):
                    for k, x in enumerate(xs):
                        _check_int64(f"{name}[{k}]", x)
            return record
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed solution record: {exc}") from None


def _check_int64(field: str, x: int) -> None:
    if not INT64_MIN <= x <= INT64_MAX:
        raise ValueError(f"{field} = {x} is outside the signed 64-bit range")


def write_solution(record: SolutionRecord, path) -> None:
    Path(path).write_text(record.to_json())


def read_solution(path) -> SolutionRecord:
    return SolutionRecord.from_json(Path(path).read_text())
