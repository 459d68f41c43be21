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
One generator, :func:`_instance_blocks`, reads every instance: a plain
one (ASCII digits, spaces, tabs and line ends) in blocks of rows, into
one buffer, so it never holds the whole text or its list of lines.
:func:`read_instance` and :func:`parse` give it a buffer of n rows,
read about ``_READ_BLOCK`` entries at a time, which is the matrix they
return; :func:`stream_instance` one reused buffer of a few rows, read
in larger parts, whose rows ``verify`` certifies as they come.  A file
is read as it streams from disk, and :func:`parse` hands over its ASCII
text one encoded line at a time.  Each part is read a word at a time:
the part's bytes are checked by counting each kind, every token's last
digit is found in one pass over the digit mask, the eight bytes that
end there are gathered as one 64-bit word, and the word's digits are
folded into their number in three multiply-shift steps; a token of
more than eight digits adds the words before it.  The header is read
by one pattern, ``_HEADER``: n in at most 19 ASCII digits between
spaces and tabs, so a header zero-padded past 19 digits goes to the
token loop, as a longer token does in a row.  What the block reader
refuses (a blank line, a sign, a ragged row, a token of more
than 19 digits, an entry above the bound, any other character) the
same generator reads once more, whole, by the per-token loop, and
yields from it the rows not yet yielded, so each row comes once.  The
loop is the only place that words a :class:`ParseError`, and it also
accepts what ``int()`` accepts but the block reader does not
(``1_000``, non-ASCII digits, a zero-padded token of 20 digits), so
both readers give the same values.  A file that is not UTF-8 raises
:class:`ParseError` too.

:func:`serialize` and :func:`write_instance` write the text in blocks
of entries, a 64-bit word per entry (more when the matrix maximum has
eight digits or more), the inverse of the reader's fold: three
multiply-shift steps split each word's number into its digits, one
per byte, most significant first.  The bytes before an entry's first
nonzero digit are cleared to 0, its last byte is its separator, and
one ``bytes.translate`` drops the cleared bytes.  A block holds fewer
entries the more words each takes, so it works in about the same
memory at every width.

Solution files are a single canonical JSON document (sorted keys, no
spaces, one trailing newline) holding assignment, prices, revenue and
iterations_used.  Per-phase timings are deliberately not part of the
record so that repeated solves of one instance are byte-identical.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import INT64_MAX, INT64_MIN, ValuationMatrix, max_entry_for, rows_per_block

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
        # draws - (draws // span) * span: numpy's uint64 remainder by a
        # scalar takes twice as long as its floor division by one.
        quotient = draws // np.uint64(span)
        quotient *= np.uint64(span)
        draws -= quotient
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


#: Entries drawn per block by :func:`generate`, and 64-bit words of
#: entries formatted per block by :func:`serialize`.  Each takes a few
#: dozen bytes of temporaries, so a block works in under 1 MiB.
_BLOCK = 1 << 14
#: About the entries :func:`read_instance` and :func:`parse` read at a
#: time.  Each holds its bytes, its token end and a word or two, about 24
#: bytes, so a read works in about 0.2 MiB.
_READ_BLOCK = _BLOCK // 2
#: About the entries :func:`stream_instance` reads at a time.  It holds
#: no matrix, so it can spend 0.4 MiB on a read; each read pays about 60
#: us of numpy calls, and a 400-row file takes 10 reads instead of 20.
_STREAM_BLOCK = 2 * _READ_BLOCK
#: A plain header line: n in at most 19 ASCII digits, spaces and tabs
#: around it, and a carriage return only before the newline, since
#: splitlines() ends a line at any carriage return.
_HEADER = re.compile(rb"[ \t]*([0-9]{1,19})[ \t]*\r?\n?")
#: Put before each block's rows, so that the eight bytes that end at any
#: token's last digit, and the sixteen before them, lie in the block.
_FRONT = b" " * 8
#: Bit 4 of every byte: set in each digit, clear in space, tab, \n and \r.
_DIGIT_BITS = 0x1010101010101010
#: The digit bits of a word's four lowest bytes.
_FOUR_DIGITS = 0x10101010
#: Added to an entry's words of digits 0..9 per byte, then masked with
#: 0x80 per byte, to flag its nonzero digits; the last word flags its
#: units digit, byte 6, whatever it is.
_FLAG_ADD = np.array([0x7F7F7F7F7F7F7F7F] * 2 + [0x7F807F7F7F7F7F7F], dtype=np.uint64)
#: ORed into an entry's words of digits: ASCII digits, and a space in the
#: last word's separator byte.
_ASCII = np.array([0x3030303030303030] * 2 + [0x2030303030303030], dtype=np.uint64)


def serialize(v: ValuationMatrix) -> str:
    """Render a matrix in the instance text format."""
    return "".join(str(chunk, "ascii") for chunk in _render(v))


def _render(v: ValuationMatrix) -> Iterator[bytes]:
    """The instance text as consecutive ASCII buffers, one per block.

    Each entry takes ``words`` 64-bit words, enough for the digits of the
    matrix maximum and a separator, and a block holds ``_BLOCK // words``
    entries, so that every block works in the same memory whatever the
    width.
    """
    n = v.n
    flat = v.values.reshape(-1)
    words = len(str(int(flat.max()))) // 8 + 1
    step = _BLOCK // words
    yield f"{n}\n".encode()
    for start in range(0, flat.size, step):
        yield _render_block(flat[start : start + step], words, (n - 1 - start) % n, n)


def _render_block(x: np.ndarray, words: int, newline: int, n: int) -> bytes:
    """The text of the entries x, each in ``words`` little-endian words.

    An entry's last word holds its last seven digits and its separator,
    and each word before it eight more digits, most significant first,
    one per byte.  Each word's number is split into its digits in three
    multiply-shift steps: into two 4-digit halves, into 2-digit lanes
    and into single digits (the inverse of :func:`_fold_digits`).  Every
    digit becomes ASCII, and the bytes before the entry's first nonzero
    digit, found as the lowest set bit of the nonzero-digit flags, are
    cleared to 0; the units digit is always kept.  The separator is a
    space, or a newline after entry ``newline`` and every n-th one after
    it.  Dropping the cleared bytes leaves the text.  A function of its
    own, so that one block's arrays are freed before the next is made.
    """
    w = np.empty((x.size, words), dtype=np.uint64)
    rest, place = x, 10**7
    for i in range(words - 1, 0, -1):
        quotient = rest // place
        w[:, i] = rest - quotient * place
        rest, place = quotient, 10**8
    w[:, 0] = rest
    # Every word is below 10**8.  Each step splits each lane of w by d
    # into q + ((w - q * d) << s), the quotient in the low half of the
    # lane and the remainder in the high half, computed as
    # (w << s) - q * ((d << s) - 1).
    t = w * 0xD1B71759
    t >>= 45
    w <<= 32
    t *= 10000 * 2**32 - 1
    w -= t
    np.multiply(w, 5243, out=t)
    t >>= 19
    t &= 0x0000007F0000007F
    w <<= 16
    t *= 100 * 2**16 - 1
    w -= t
    np.multiply(w, 103, out=t)
    t >>= 10
    t &= 0x000F000F000F000F
    w <<= 8
    t *= 10 * 2**8 - 1
    w -= t
    del t
    # The last word's number is below 10**7, so its first byte is 0: the
    # digits move down one byte, and the top byte is the separator's.
    w[:, -1] >>= 8
    # 0x80 in each nonzero digit, and in every units digit.
    flags = w + _FLAG_ADD[-words:]
    flags &= 0x8080808080808080
    keep = np.negative(flags)
    keep &= flags
    del flags
    # The byte of each word's lowest flag and every byte above it, and
    # the whole of each word after one that keeps a byte.
    keep >>= 7
    np.negative(keep, out=keep)
    for i in range(1, words):
        keep[keep[:, i - 1] != 0, i] = _MASK64
    w |= _ASCII[-words:]
    w &= keep
    del keep
    w[newline::n, -1] ^= (ord(" ") ^ ord("\n")) << 56
    text = w.astype("<u8", copy=False).tobytes()
    del w
    return text.translate(None, b"\0")


def parse(text: str) -> ValuationMatrix:
    """Parse the instance text format, rejecting anything malformed."""
    # Only ASCII can be plain, and a lone surrogate cannot even be encoded.
    if not text.isascii():
        return ValuationMatrix(_parse_tokens(text))
    _, (_, values, _) = _instance_blocks(None, text, whole=True)
    return ValuationMatrix(values)


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
    _, (_, values, _) = _instance_blocks(path, None, whole=True)
    return ValuationMatrix(values)


def stream_instance(path) -> tuple[int, Iterator[tuple[int, np.ndarray, np.ndarray]]]:
    """An instance file's n, and its rows in blocks, never the whole matrix.

    The blocks are (first row, rows, scratch), as
    :func:`~efpricing.core.row_blocks` yields them, of
    ``rows_per_block(n)`` rows or about ``_STREAM_BLOCK`` entries,
    whichever is more.  A plain file is decoded block by block into one
    buffer, which each block hands over as its rows and its scratch
    both: the next block overwrites it.  Where the block reader refuses
    the file, partway or at its header, the token loop reads the whole
    text, raising its :class:`ParseError`, and one last block holds the
    rows not yet yielded, from the matrix it returns.  So each block
    starts where the one before it ended, and every row comes exactly
    once.  n, read when this is called, is the same either way.
    Entries lie in 0..max_entry_for(n), the bounds both readers enforce.
    """
    blocks = _instance_blocks(path, None, whole=False)
    return next(blocks), blocks


def _instance_blocks(path, text: str | None, whole: bool):
    """Yield n, then an instance's rows in blocks (first row, rows, rows).

    The instance is the file at path, or the ASCII text when path is
    None.  A plain instance is read into one buffer, whose rows each
    block hands over as its rows and its scratch both.  With whole, the
    buffer holds all n rows, read in parts of about ``_READ_BLOCK``
    entries, and is itself the one block, so that
    :class:`ValuationMatrix` takes it without a copy.  Else it holds the
    rows of :func:`stream_instance`'s blocks, read in parts of about
    ``_STREAM_BLOCK`` entries, and the next block overwrites it.

    Plain means: a header that ``_HEADER`` matches, then exactly n rows
    of n entries within the bound, each line of digits, spaces and tabs,
    ended by a newline or a carriage return and newline (the last line
    may end at the end of the file instead, or in a lone carriage
    return), and nothing after them; no token has more than 19 digits.  At the first block that is not
    plain, and at the last one if anything follows it, the token loop
    reads the whole text, raising its :class:`ParseError`, and the rows
    of its matrix not yet yielded, from that block's first row on, are
    the one block left (with whole, the matrix itself).  n comes first
    either way.
    """
    # A file is read through a buffer of about half a block's bytes: the
    # default 8 KiB costs a read call for every three rows when n = 400.
    lines = (_encoded_lines(text) if path is None
             else open(path, "rb", buffering=4 * _READ_BLOCK))
    lo = 0
    with contextlib.closing(lines):
        n = _plain_header(lines, len(text) if path is None else os.fstat(lines.fileno()).st_size)
        if n is not None:
            yield n
            part = _READ_BLOCK if whole else _STREAM_BLOCK
            height = n if whole else min(max(rows_per_block(n), part // n), n)
            buffer = np.empty((height, n), dtype=np.int64)
            bound, step = max_entry_for(n), max(1, part // n)
            for lo in range(0, n, height):
                rows = buffer[: n - lo] if lo + height > n else buffer
                plain = all(_read_plain_rows(lines, rows[start : start + step], bound)
                            for start in range(0, len(rows), step))
                if not plain or lo + height >= n and next(lines, b""):
                    break
                yield lo, rows, rows
            else:
                return
            # Freed before the token loop reads the text.
            del buffer, rows
    values = _parse_tokens(text if path is None else _read_text(path))
    if n is None:
        yield len(values)
    if lo:
        values = values[lo:]
    yield lo, values, values


def _plain_header(lines: Iterator[bytes], size: int) -> int | None:
    """n from a header line that ``_HEADER`` matches, or None where the
    token loop must decide.

    A header zero-padded past 19 digits does not match, and the token
    loop reads it as ``int()`` does: the same n, or the same error.  The
    matrix is allocated only once the file is large enough to hold
    it, at two bytes or more per entry, so a wrong header cannot ask for
    more than four times the file's size.
    """
    header = next(lines, b"")
    match = _HEADER.fullmatch(header)
    if match is None:
        return None
    n = int(match[1])
    if n < 1 or size < len(header) + 2 * n * n - 1:
        return None
    return n


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


@dataclass(frozen=True)
class SolutionRecord:
    """A solved instance: who gets what, at which prices."""

    n: int
    assignment: list[int]
    prices: list[int]
    revenue: int
    iterations_used: int

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True, separators=(",", ":")) + "\n"

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
