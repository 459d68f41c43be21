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
One block reader, :func:`_read_plain`, reads every plain instance (ASCII
digits, spaces, tabs and line ends) in blocks of rows of about
``_READ_BLOCK`` entries, straight into the one n x n array it returns,
so it never holds the whole text or its list of lines.  It reads a
block a word at a time: it checks the block's bytes by counting each
kind, finds every token's last digit in one pass over the digit mask,
gathers the eight bytes that end there as one 64-bit word and folds the
word's digits into their number in three multiply-shift steps; a token
of more than eight digits adds the words before it.
:func:`read_instance` streams a file through it, and :func:`parse`
hands it an ASCII text one encoded line at a time.  What it refuses (a
blank line, a sign, a ragged row, a token of more than 19 digits, an
entry above the bound, any other character) is read once more, whole,
by the per-token loop.
The loop is the only place that words a :class:`ParseError`, and it
also accepts what ``int()`` accepts but the block reader does not
(``1_000``, non-ASCII digits, a zero-padded token of 20 digits), so
both readers give the same values.  A file that is not UTF-8 raises
:class:`ParseError` too.

:func:`serialize` and :func:`write_instance` format blocks of entries
one decimal place at a time into a place-major digit table (one row
per place, one column per entry), dividing in int32 when the matrix
maximum fits, and keep each place whose quotient is nonzero; the
blocks bound their working memory.

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
#: :func:`serialize`.  Each entry takes a few dozen bytes of temporaries,
#: so a block works in about 1 MiB.
_BLOCK = 1 << 14
#: About the entries read per block by :func:`_read_plain`.  Each holds
#: its bytes, its token end and a word or two, about 24 bytes, so a block
#: works in about 0.2 MiB.
_READ_BLOCK = _BLOCK // 2
#: The bytes a plain header may hold, besides a carriage return at its end.
_PLAIN = b"0123456789 \t\n"
#: Put before each block's rows, so that the eight bytes that end at any
#: token's last digit, and the sixteen before them, lie in the block.
_FRONT = b" " * 8
#: Bit 4 of every byte: set in each digit, clear in space, tab, \n and \r.
_DIGIT_BITS = 0x1010101010101010
#: The digit bits of a word's four lowest bytes.
_FOUR_DIGITS = 0x10101010


def serialize(v: ValuationMatrix) -> str:
    """Render a matrix in the instance text format."""
    return "".join(str(chunk, "ascii") for chunk in _render(v))


def _render(v: ValuationMatrix) -> Iterator[bytes | np.ndarray]:
    """The instance text as consecutive ASCII buffers, one per block.

    Each block becomes a place-major table, one column per entry: row 0
    holds the digits at the highest decimal place of the matrix maximum,
    row ``digits - 1`` the units and the last row the separators (a
    newline after the matrix's last column, a space elsewhere), so every
    write is one contiguous row.  The places are taken from the units
    up, in int32 when the matrix maximum fits and in int64 otherwise.  A
    place is kept while the quotient it was taken from is nonzero; the
    units and the separator are always kept.  The kept bytes, read
    column by column, are the block's text.
    """
    n = v.n
    flat = v.values.reshape(-1)
    top = int(flat.max())
    digits = len(str(top))
    dtype = np.int32 if top < 2**31 else np.int64
    yield f"{n}\n".encode()
    for start in range(0, flat.size, _BLOCK):
        rest = flat[start : start + _BLOCK].astype(dtype)
        quotient = np.empty_like(rest)
        table = np.empty((digits + 1, rest.size), dtype=np.uint8)
        keep = np.empty(table.shape, dtype=bool)
        for place in range(digits - 1, -1, -1):
            np.floor_divide(rest, 10, out=quotient)
            np.not_equal(rest, 0, out=keep[place])
            rest -= quotient * 10
            table[place] = rest
            rest, quotient = quotient, rest
        table[:digits] += ord("0")
        table[digits] = ord(" ")
        table[digits, (n - 1 - start) % n :: n] = ord("\n")
        keep[digits - 1 :] = True
        yield table.T[keep.T]


def parse(text: str) -> ValuationMatrix:
    """Parse the instance text format, rejecting anything malformed."""
    # Only ASCII can be plain, and a lone surrogate cannot even be encoded.
    if text.isascii():
        values = _read_plain(_encoded_lines(text), len(text))
        if values is not None:
            return ValuationMatrix(values)
    return ValuationMatrix(_parse_tokens(text))


def _encoded_lines(text: str) -> Iterator[bytes]:
    """The lines of an ASCII text, each with its newline, encoded one at a
    time as a binary file yields them, so that the text is never copied
    whole."""
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield text[start:end].encode()
        start = end


def _parse_tokens(text: str) -> np.ndarray:
    """Read the text token by token, raising the ParseError for the first fault."""
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
    """Read an instance file: streamed when plain, else by the token loop."""
    # A buffer of about half a block's bytes: the default 8 KiB costs a
    # read call for every three rows of a file with n = 400.
    with open(path, "rb", buffering=4 * _READ_BLOCK) as fh:
        values = _read_plain(fh, os.fstat(fh.fileno()).st_size)
    if values is None:
        values = _parse_tokens(_read_text(path))
    return ValuationMatrix(values)


def _read_plain(lines: Iterator[bytes], size: int):
    """The matrix of a plain instance, or None where the token loop must decide.

    lines yields the instance's lines, each ending in its newline, as a
    binary file of size bytes does.  Plain means: a header, then exactly
    n rows of n entries within the bound, each line of digits, spaces
    and tabs, ended by a newline or a carriage return and newline (the
    last line may end at the end of the file instead, or in a lone
    carriage return), and nothing after them; no token has more than 19
    digits.  The rows are read in blocks of about
    ``_READ_BLOCK`` entries, each a word at a time by
    :func:`_read_plain_rows`.  The matrix is allocated only once the file
    is large enough to hold it, at two bytes or more per entry, so a
    wrong header cannot ask for more than four times the file's size.
    """
    header = next(lines, b"")
    if not _is_plain_line(header):
        return None
    try:
        n = int(header)
    except ValueError:
        return None
    if n < 1 or size < len(header) + 2 * n * n - 1:
        return None
    bound = max_entry_for(n)
    values = np.empty((n, n), dtype=np.int64)
    step = max(1, _READ_BLOCK // n)
    for start in range(0, n, step):
        if not _read_plain_rows(lines, values[start : start + step], bound):
            return None
    if next(lines, b""):
        return None
    return values


def _read_plain_rows(lines: Iterator[bytes], out: np.ndarray, bound: int) -> bool:
    """Fill out with the next rows of lines; False if they are not plain.

    The rows are joined behind ``_FRONT`` and read as one byte array.
    Every byte must be a digit, a space, a tab, a newline or a carriage
    return that ends a line; row j must end after token n * (j + 1).  The
    eight bytes that end at each token's last digit are gathered as one
    word, straight into out, and :func:`_fold_digits` turns each word
    into its number.  A token of more than eight digits adds the words
    before it; one of more than nineteen, or an entry above the bound,
    is not plain.  A function of its own, so that one block's bytes and
    arrays are freed before the next block is read.
    """
    k, n = out.shape
    rows = [next(lines, b"") for _ in range(k)]
    # The last byte of each row: its newline, unless the file ends there.
    stops = np.fromiter(map(len, rows), np.intp, k).cumsum() + (len(_FRONT) - 1)
    data = b"".join([_FRONT, *rows, b" "])
    del rows
    a = np.frombuffer(data, dtype=np.uint8)
    digit = (a - 48) < 10
    plain = np.count_nonzero(digit) + np.count_nonzero(a == 32) + np.count_nonzero(a == 10)
    if plain < a.size:
        returns = np.flatnonzero(a == 13)
        if plain + np.count_nonzero(a == 9) + returns.size < a.size:
            return False
        # splitlines() ends a row at any carriage return, so one may only
        # end a line: before its newline, or as the last byte of the file.
        if not np.all((a[returns + 1] == 10) | (returns == a.size - 2)):
            return False
    # Each array is dropped once used, so a block holds at most its bytes
    # and two arrays of one word per token.
    last = digit[:-1] > digit[1:]
    del digit
    at = np.flatnonzero(last)
    del last
    if not (np.searchsorted(at, stops, side="right") == np.arange(n, n * k + 1, n)).all():
        return False
    # Word i is bytes i .. i + 7 read big-endian, so the word that ends at
    # a token's last digit holds its units digit in its lowest byte.
    words = np.ndarray(a.size - 7, dtype=">u8", buffer=data, strides=(1,))
    at -= 7
    value = out.reshape(-1).view(np.uint64)
    value[...] = words[at]
    full = np.flatnonzero(_fold_digits(value))
    if full.size:
        # A token that fills its word may go on in the word before.
        at = at[full] - 8
        high = words[at].astype(np.uint64)
        deep = np.flatnonzero(_fold_digits(high))
        high *= 10**8
        value[full] += high
        if deep.size:
            top = words[at[deep] - 8].astype(np.uint64)
            # A twentieth digit: more than any entry within a bound has.
            if np.any((top & _FOUR_DIGITS) == _FOUR_DIGITS):
                return False
            _fold_digits(top)
            top *= 10**16
            value[full[deep]] += top
    return not value.max() > bound


def _fold_digits(w: np.ndarray) -> np.ndarray:
    """Replace each word by the number that its lowest digits spell.

    The words are modified in place.  A byte is cleared when it, or a
    byte below it, is not a digit: multiplying the non-digit flags by
    ``0x0101010101010101`` adds to each byte the flags of the bytes
    below it.  The digits left are folded pairwise in three
    multiply-shift steps (Langdale and Lemire's eight-digit parse).
    Returns whether each word was all digits, that is, whether its token
    goes on in the word before.
    """
    other = ~w
    other &= _DIGIT_BITS
    full = other == 0
    # After the multiply each byte counts, 0x10 apiece, the non-digits at
    # or below it: at most eight, so no byte carries into the next.  Adding
    # 0x70 sets bit 7 of each byte that counts one or more.
    other *= 0x0101010101010101
    other += 0x7070707070707070
    other &= 0x8080808080808080
    other >>= 7
    other *= 0x0F
    other ^= 0x0F0F0F0F0F0F0F0F  # the low four bits of each byte to keep
    w &= other
    del other
    w *= 2**8 + 10
    w >>= 8
    w &= 0x00FF00FF00FF00FF
    w *= 2**16 + 100
    w >>= 16
    w &= 0x0000FFFF0000FFFF
    w *= 2**32 + 10000
    w >>= 32
    return full


def _is_plain_line(line: bytes) -> bool:
    # The header: splitlines() ends it at any carriage return, so one may
    # only end the line.
    rest = line.translate(None, _PLAIN)
    return (
        bool(line)
        and not line.isspace()
        and (not rest or rest == b"\r" and line.endswith((b"\r\n", b"\r")))
    )


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
        would read 3.9 as 3, "5" as 5 and true as 1.  So is a record that
        contradicts itself: n below 1, an assignment or a price list
        whose length is not n, or a negative iterations_used, and one
        nested too deeply to read.
        """
        try:
            doc = json.loads(text)
            record = cls(
                n=_integer("n", doc["n"]),
                assignment=_integers("assignment", doc["assignment"]),
                prices=_integers("prices", doc["prices"]),
                revenue=_integer("revenue", doc["revenue"]),
                iterations_used=_integer("iterations_used", doc["iterations_used"]),
            )
            if record.n < 1:
                raise ValueError(f"n = {record.n} is below 1")
            for field in ("assignment", "prices"):
                size = len(getattr(record, field))
                if size != record.n:
                    raise ValueError(f"{field} has {size} entries, but n = {record.n}")
            if record.iterations_used < 0:
                raise ValueError(f"iterations_used = {record.iterations_used} is negative")
            return record
        # json reads nested lists recursively, so a deeply nested record
        # raises RecursionError: a malformed file, not an internal error.
        except (json.JSONDecodeError, KeyError, RecursionError, TypeError, ValueError) as exc:
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
    return SolutionRecord.from_json(_read_text(path))


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
