"""The numpy instance reader and writer against per-token reference loops.

``reference_parse`` and ``reference_serialize`` are the reader and writer
as they were before the I/O layer moved to numpy.  Every text must give
the same matrix, or a ParseError with the same message, and every matrix
the same bytes.  The streamed file reader, ``read_instance``, must in turn
give what ``parse`` gives on the file's text.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efpricing import (
    ParseError,
    ValuationMatrix,
    generate,
    parse,
    read_instance,
    serialize,
    write_instance,
)
from efpricing import instance
from efpricing.core import max_entry_for


def reference_parse(text):
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
    return ValuationMatrix(np.array(rows, dtype=np.int64))


def reference_serialize(v):
    lines = [str(v.n)]
    lines.extend(" ".join(str(int(x)) for x in row) for row in v.values)
    return "\n".join(lines) + "\n"


def outcome(read, text):
    try:
        return "ok", read(text).values.tolist()
    except ParseError as exc:
        return "error", str(exc)


#: Tokens that are not runs of ASCII digits, which int() reads in its own
#: ways (a sign, an underscore, a non-ASCII digit) or refuses (U+01FE
#: between digits, a comma, an exponent), and entries of 19 and 20 digits.
ODD_TOKENS = [
    "+5", "-0", "-7", "007", "1_000", "٣", "5Ǿ6", "#5", "1.0", "5,2",
    "1e3", "0x10", str(2**63), str(2**64 + 5), "-" + str(2**63 + 1),
]
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c"]
SEPARATORS = [" ", "  ", "\t", " \t ", "\xa0", "\x1f"]
MUTATIONS = [
    "none", "odd token", "over bound", "blank line", "missing row", "extra row",
    "ragged row", "long row", "hash comment",
]


@st.composite
def matrices(draw, max_n=6):
    """A square matrix that includes 0 and max_entry_for(n) often."""
    n = draw(st.integers(1, max_n))
    bound = max_entry_for(n)
    entry = st.one_of(st.sampled_from([0, bound]), st.integers(0, 999), st.integers(0, bound))
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


@st.composite
def instance_texts(draw):
    rows = draw(matrices())
    n = len(rows)
    tokens = [[str(x) for x in row] for row in rows]
    mutation = draw(st.sampled_from(MUTATIONS))
    r = draw(st.integers(0, n - 1))
    c = draw(st.integers(0, n - 1))
    if mutation == "odd token":
        tokens[r][c] = draw(st.sampled_from(ODD_TOKENS))
    elif mutation == "over bound":
        tokens[r][c] = str(max_entry_for(n) + draw(st.integers(1, 10)))
    elif mutation == "ragged row":
        del tokens[r][c]
    elif mutation == "long row":
        tokens[r].append("1")
    elif mutation == "hash comment":
        tokens[r].append("#")
    sep = draw(st.sampled_from(SEPARATORS))
    body = [sep.join(row) for row in tokens]
    if mutation == "blank line":
        body.insert(draw(st.integers(0, n)), draw(st.sampled_from(["", "  ", "\t"])))
    elif mutation == "missing row":
        del body[r]
    elif mutation == "extra row":
        body.insert(r, sep.join(["1"] * n))
    breaks = st.sampled_from(LINE_BREAKS)
    text = str(n)
    for line in body:
        text += draw(breaks) + draw(st.sampled_from(["", " "])) + line
    return text + draw(st.sampled_from(["", "\n", "\r\n"]))


@settings(max_examples=400, deadline=None)
@given(instance_texts())
def test_parse_matches_the_token_loop(text):
    assert outcome(parse, text) == outcome(reference_parse, text)


@pytest.mark.parametrize("text", [
    "1\n5Ǿ6\n",
    "2\n1 2\n\n3 4\n",
    "2\n\n\n",
    "2\r\n1 2\r\n3 4\r\n",
    "\r2\n1 2\n3 4\n",
    "2\r\r\n1 2\n3 4\n",
    "2\n1 2\n3 4\r\r",
    "2\n1\x0b2\n3 4\n",
    "2\n1 2\x0c3 4\n",
    "2\n+5 -0\n1_000 ٣\n",
    "2\n#5 1\n2 3\n",
    "2\n1 2 # note\n3 4\n",
    "2\n1.0 2\n3 4\n",
    "2\n5,2 1\n3 4\n",
    "2\n1 -3\n3 4\n",
    "2\n\ud800 1\n2 3\n",
    f"1\n{2**63}\n",
    f"2\n{max_entry_for(2)} 0\n0 {max_entry_for(2) + 1}\n",
    "3\n1 2 3\n4 5\n6 7 8\n",
    "3\n1 2 3\n4 5 6\n",
])
@pytest.mark.filterwarnings("error")
def test_parse_matches_the_token_loop_on_known_pitfalls(text):
    assert outcome(parse, text) == outcome(reference_parse, text)


#: Rows per block are _READ_BLOCK // n, so n = 90 fits in one block with
#: a row to spare, n = 91 leaves one row for a second block, n = 127 is
#: read in blocks of 64 and 63 rows, n = 128 in two of 64, and n = 129 in
#: blocks of 63, 63 and 3.
BOUNDARY_SIZES = [90, 91, 127, 128, 129]
assert [n % (instance._READ_BLOCK // n) for n in BOUNDARY_SIZES] == [90, 1, 63, 0, 3]


def renderings(v):
    """The instance text of v as written, tab-separated and with CRLF line ends."""
    text = serialize(v)
    return [text, text.replace(" ", "\t"), text.replace("\n", "\r\n")]


def test_plain_ascii_never_reaches_the_token_loop(monkeypatch):
    def refuse(text):
        raise AssertionError("the token loop ran on a plain instance")

    monkeypatch.setattr(instance, "_parse_tokens", refuse)
    sizes = [(1, 0), (7, max_entry_for(7)), (40, 10**6)] + [(n, 10**6) for n in BOUNDARY_SIZES]
    for n, max_value in sizes:
        v = generate(n, n, max_value)
        for text in renderings(v):
            assert np.array_equal(parse(text).values, v.values)


@settings(max_examples=200, deadline=None)
@given(matrices(max_n=12))
def test_serialize_matches_the_row_join(rows):
    v = ValuationMatrix(rows)
    assert serialize(v) == reference_serialize(v)


def test_serialize_matches_the_row_join_for_every_digit_width():
    rng = np.random.default_rng(2024)
    for n in range(1, 13):
        bound = max_entry_for(n)
        tops = [min(bound, 10**width - 1) for width in range(1, len(str(bound)) + 1)]
        # The writer divides in int32 below 2**31 and in int64 from there.
        for top in tops + [2**31 - 1, 2**31]:
            values = rng.integers(0, top, size=(n, n), endpoint=True)
            values.flat[rng.integers(n * n)] = top
            v = ValuationMatrix(values)
            assert serialize(v) == reference_serialize(v), (n, top)


def test_serialize_and_write_span_several_blocks(tmp_path):
    n = 150  # 22,500 entries: more than one block, with rows split across blocks
    assert n * n > instance._BLOCK
    v = generate(n, 3, max_value=max_entry_for(n))
    expected = reference_serialize(v)
    assert serialize(v) == expected
    path = tmp_path / "instance.txt"
    write_instance(v, path)
    assert path.read_bytes() == expected.encode()


def test_generated_instance_digest():
    # Taken from the per-row writer, before serialize moved to numpy.
    digest = hashlib.sha256(serialize(generate(50, 7)).encode()).hexdigest()
    assert digest == "0b0495cb5a86d919a5cb5e47a9bfc2e86ea0dfeeef64b08fffa3fb715a5a773a"


def read_outcome(tmp_path, text):
    """read_instance on text written as a file, as outcome() reports it.

    A lone surrogate, which has no UTF-8 form, is written as the three
    bytes that would encode it.
    """
    path = tmp_path / "instance.txt"
    path.write_bytes(text.encode(errors="surrogatepass"))
    return outcome(lambda _: read_instance(path), text)


@settings(max_examples=300, deadline=None)
@given(instance_texts())
def test_read_instance_matches_parse(tmp_path_factory, text):
    tmp_path = tmp_path_factory.mktemp("read")
    assert read_outcome(tmp_path, text) == outcome(parse, text)


def plain_text(n, seed=1):
    return serialize(generate(n, seed))


def replace_row(text, r, row):
    lines = text.split("\n")
    lines[r + 1] = row
    return "\n".join(lines)


@pytest.mark.parametrize("text", [
    "2\n1\x0b2\n3 4\n",
    "2\n1 2\x0c3 4\n",
    "2\n1 2\n3\x1c4\n",
    "2\n1 2\x1d3 4\n",
    "2\n1 2\n3 4\x1e",
    "2\n1 2\r3 4\r",
    "2\n1\r2\n3 4\n",
    "2\n1 2\n3 4\r",
    "2\n1 2\n3 4\r\r",
    "\r2\n1 2\n3 4\n",
    "2\r\n1 2\r\n3 4\r\n",
    "2\n1 2\n3 4",
    "2\n1 2\n3 4\n\n",
    "2\n1 2\n3 4\n  ",
    "2\n1 2\n  \n3 4\n",
    "2\n   \n1 2\n",
    "2\n\n\n",
    "2\n      \n      \n",
    "+3\n1 2 3\n4 5 6\n7 8 9\n",
    " 3 \n1 2 3\n4 5 6\n7 8 9\n",
    "3_0\n" + "1 " * 29 + "1\n",
    " 2\n 01  2 \n3   004\n",
    "0\n",
    "1 2\n1\n",
    "99999999999\n1\n",
    "4" * 5000 + "\n1\n",
    "2\n",
    "2",
    "",
    "\n",
    f"1\n{2**63}\n",
    f"1\n{2**64 + 5}\n",
    f"2\n{max_entry_for(2)} 0\n0 {max_entry_for(2) + 1}\n",
    "3\n1 2 3\n4 5\n6 7 8\n",
    "3\n1 2 3\n4 5 6 7\n8 9\n",
    "2\n1\t2\n3 4\n",
    "2\n1 2\n3 ٣\n",
    "2\n\ud800 1\n2 3\n",
    # Tokens of 7, 8, 9, 16, 17 and 19 digits; the block's first token is
    # read from a word that reaches into the bytes put before the rows.
    "2\n1234567 12345678\n123456789 1234567890123456\n",
    "2\n1234567890123456 12345678901234567\n1234567890123456789 0\n",
    f"1\n{max_entry_for(1)}\n",
    "2\n00000000000000000005 1\n2 3\n",
    "2\n 1 \t  2\t\n3\t \t4  \n",
    # Each byte next to the plain ones, and two beyond ASCII.
    *[f"2\n1 {c}2\n3 4\n" for c in "/:+-,_\x0b\x0c\x80\xa0"],
])
@pytest.mark.filterwarnings("error")
def test_read_instance_matches_parse_on_fixed_cases(tmp_path, text):
    got, expected = read_outcome(tmp_path, text), outcome(parse, text)
    assert expected == outcome(reference_parse, text)
    if "\ud800" in text:
        # Its file is not UTF-8, which read_instance refuses first.
        assert got[0] == expected[0] == "error" and got[1].startswith("not UTF-8")
    else:
        assert got == expected


@pytest.mark.parametrize("n", BOUNDARY_SIZES)
@pytest.mark.parametrize("fault", [
    "none", "no final newline", "trailing blank line", "blank last row", "tab in last row",
    "short last row", "over bound in last row", "missing last row",
    "carriage return ends the first block", "bound opens the last block",
])
def test_read_instance_matches_parse_at_block_boundaries(tmp_path, n, fault):
    text = plain_text(n)
    last = " ".join(["7"] * n)
    rows = instance._READ_BLOCK // n
    if fault == "no final newline":
        text = text[:-1]
    elif fault == "trailing blank line":
        text += "\n"
    elif fault == "blank last row":
        text = replace_row(text, n - 1, "")
    elif fault == "tab in last row":
        text = replace_row(text, n - 1, last.replace(" ", "\t", 1))
    elif fault == "short last row":
        text = replace_row(text, n - 1, last[2:])
    elif fault == "over bound in last row":
        text = replace_row(text, n - 1, last + "0" * 18)
    elif fault == "missing last row":
        text = text[: text.rindex("\n", 0, -1) + 1]
    elif fault == "carriage return ends the first block":
        # The file's last byte when one block holds every row, else a lone
        # line end that the token loop reads.
        at = len(text) - len(text.split("\n", min(rows, n) + 1)[-1]) - 1
        text = text[:at] + "\r" + text[at + 1 :]
    elif fault == "bound opens the last block":
        r = (n - 1) // rows * rows
        text = replace_row(text, r, " ".join([str(max_entry_for(n))] + ["7"] * (n - 1)))
    expected = outcome(parse, text)
    assert read_outcome(tmp_path, text) == expected == outcome(reference_parse, text)
    assert (expected[0] == "ok") == (fault in (
        "none", "no final newline", "tab in last row", "carriage return ends the first block",
        "bound opens the last block",
    ))


def test_plain_files_are_streamed_not_parsed(tmp_path, monkeypatch):
    def refuse(text):
        raise AssertionError("a plain file was read whole")

    monkeypatch.setattr(instance, "parse", refuse)
    monkeypatch.setattr(instance, "_parse_tokens", refuse)
    for n in (1, 2, *BOUNDARY_SIZES, 300):
        v = generate(n, n, max_entry_for(n) if n < 3 else 10**6)
        path = tmp_path / f"plain-{n}.txt"
        write_instance(v, path)
        assert np.array_equal(read_instance(path).values, v.values)
        for text in renderings(v)[1:]:
            path.write_bytes(text.encode())
            assert np.array_equal(read_instance(path).values, v.values)


@pytest.mark.parametrize("text", ["2\n1 +2\n3 4\n", "2\r1 2\r3 4\r", "2\n1 2\n3 4\n\n"])
def test_a_refused_file_is_read_by_the_block_reader_once(tmp_path, monkeypatch, text):
    calls = []
    read_plain = instance._read_plain

    def counted(lines, size):
        calls.append(size)
        return read_plain(lines, size)

    monkeypatch.setattr(instance, "_read_plain", counted)
    assert read_outcome(tmp_path, text) == outcome(reference_parse, text)
    assert len(calls) == 1
