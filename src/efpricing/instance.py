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

:func:`read_instance` streams: it reads a file of plain ASCII digits,
spaces and newlines in blocks of rows of about ``_BLOCK`` entries each,
straight into the one n x n array it returns, so it never holds the
whole text or its list of lines.  A file with any other byte (a tab, a
carriage return, a sign, a non-ASCII digit) or with a row that the block
reader refuses is read whole and handed to :func:`parse`, which gives
the same value or words the same error.

Solution files are a single canonical JSON document (sorted keys, no
spaces, one trailing newline) holding assignment, prices, revenue and
iterations_used.  Per-phase timings are deliberately not part of the
record so that repeated solves of one instance are byte-identical.
"""

from __future__ import annotations

import json
import os
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


def _stream(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs start .. start+count-1 of the SplitMix64 sequence for seed.

    Computed in place, modulo 2**64, in the array it returns.
    """
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(seed & _MASK64)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


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
    leftover = (1 << 64) % span
    # Draws at or above limit are rejected; when span divides 2**64, none is.
    limit = np.uint64((1 << 64) - leftover) if leftover else None
    # Blocks of draws are reduced straight into the result; the positions
    # of rejected draws are kept, in order, for the continuation.
    values = np.empty((n, n), dtype=np.int64)
    flat = values.reshape(-1)
    rejected = [np.empty(0, dtype=np.int64)]
    for start in range(0, count, _BLOCK):
        draws = _stream(seed, start, min(_BLOCK, count - start))
        if leftover:
            rejected.append(start + np.flatnonzero(draws >= limit))
        np.remainder(draws, np.uint64(span), out=draws)
        flat[start : start + draws.size] = draws
    pending = np.concatenate(rejected)
    cursor = count
    while pending.size:
        fresh = _stream(seed, cursor, pending.size)
        cursor += pending.size
        accepted = fresh < limit
        flat[pending[accepted]] = fresh[accepted] % np.uint64(span)
        pending = pending[~accepted]
    return ValuationMatrix(values)


#: Entries drawn per block by :func:`generate` and formatted per block by
#: :func:`serialize`, and about the entries read per block by
#: :func:`read_instance`.  Each entry takes a few dozen bytes of
#: temporaries, so a block works in about 1 MiB.
_BLOCK = 1 << 14
#: The bytes a streamed instance may hold; any other sends it to parse.
_PLAIN = b"0123456789 \n"
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
    """Read an instance file, streaming it when it is plain (see above)."""
    values = _read_plain(path)
    if values is None:
        return parse(Path(path).read_text())
    return ValuationMatrix(values)


def _read_plain(path):
    """The matrix of a plain instance file, or None where parse must decide.

    Plain means: a header of digits and spaces, then exactly n rows of
    digits and spaces, each ended by a newline (the last one may end at
    the end of the file instead), and nothing after them.  Every row
    must hold n entries within the bound.  Each block of rows is read
    with ``np.loadtxt``, which agrees with ``int()`` on plain digits.
    The matrix is allocated only once the file is large enough to hold
    it, at two bytes or more per entry, so a wrong header cannot ask for
    more than four times the file's size.
    """
    with open(path, "rb") as fh:
        header = fh.readline()
        if not _is_plain_line(header):
            return None
        try:
            n = int(header)
        except ValueError:
            return None
        if n < 1 or os.fstat(fh.fileno()).st_size < len(header) + 2 * n * n - 1:
            return None
        bound = max_entry_for(n)
        values = np.empty((n, n), dtype=np.int64)
        step = max(1, _BLOCK // n)
        for start in range(0, n, step):
            if not _read_plain_rows(fh, values[start : start + step], bound):
                return None
        if fh.read(1):
            return None
    return values


def _read_plain_rows(fh, out: np.ndarray, bound: int) -> bool:
    """Fill out with the next rows of fh; False if they are not plain.

    A function of its own, so that one block's lines and array are freed
    before the next block is read.
    """
    lines = [fh.readline() for _ in range(out.shape[0])]
    if not all(map(_is_plain_line, lines)):
        return False
    try:
        block = np.loadtxt(lines, dtype=np.int64, comments=None, ndmin=2)
    except (ValueError, OverflowError):
        return False
    if block.shape != out.shape or block.max() > bound:
        return False
    out[...] = block
    return True


def _is_plain_line(line: bytes) -> bool:
    # loadtxt skips blank rows, which parse counts.
    return bool(line) and not line.isspace() and not line.translate(None, _PLAIN)


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
        """Read a record; every number must be a JSON integer within int64.

        Floats, strings and booleans are refused, not converted: ``int()``
        would read 3.9 as 3, "5" as 5 and true as 1.
        """
        try:
            doc = json.loads(text)
            return cls(
                n=_integer("n", doc["n"]),
                assignment=_integers("assignment", doc["assignment"]),
                prices=_integers("prices", doc["prices"]),
                revenue=_integer("revenue", doc["revenue"]),
                iterations_used=_integer("iterations_used", doc["iterations_used"]),
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed solution record: {exc}") from None


def _integer(field: str, x) -> int:
    # bool is a subclass of int, so the type is compared exactly.
    if type(x) is not int:
        raise ValueError(f"{field} = {json.dumps(x)} is not an integer")
    if not INT64_MIN <= x <= INT64_MAX:
        raise ValueError(f"{field} = {x} is outside the signed 64-bit range")
    return x


def _integers(field: str, xs) -> list[int]:
    if type(xs) is not list:
        raise ValueError(f"{field} = {json.dumps(xs)} is not a list")
    # The type and range checks run in C; the loop only names the culprit.
    if xs and (set(map(type, xs)) != {int} or min(xs) < INT64_MIN or max(xs) > INT64_MAX):
        for k, x in enumerate(xs):
            _integer(f"{field}[{k}]", x)
    return xs


def write_solution(record: SolutionRecord, path) -> None:
    Path(path).write_text(record.to_json())


def read_solution(path) -> SolutionRecord:
    return SolutionRecord.from_json(Path(path).read_text())
