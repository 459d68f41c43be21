import json
import re

import numpy as np
import pytest

from efpricing import (
    ParseError,
    SolutionRecord,
    ValuationMatrix,
    generate,
    parse,
    read_instance,
    read_solution,
    serialize,
    write_instance,
)
from efpricing.core import max_entry_for

MASK64 = (1 << 64) - 1


def splitmix64_reference(seed, count):
    """Scalar reference implementation of the generator's stream."""
    out = []
    state = seed & MASK64
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


class TestGenerate:
    def test_matches_scalar_reference(self):
        for seed in (0, 1, 42, -5, 2**63 + 11):
            draws = splitmix64_reference(seed, 16)
            expected = [d % 1_000_001 for d in draws]
            got = generate(4, seed).values.flatten().tolist()
            assert got == expected

    def test_golden_matrix(self):
        assert generate(3, 42).values.tolist() == [
            [422102, 749988, 154674],
            [544698, 878641, 879365],
            [941009, 217957, 875008],
        ]
        assert generate(3, 42, 100).values.tolist() == [
            [23, 63, 43],
            [5, 42, 59],
            [93, 100, 45],
        ]

    def test_same_seed_same_matrix(self):
        a = generate(3, 42)
        b = generate(3, 42)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        assert not np.array_equal(generate(8, 1).values, generate(8, 2).values)

    def test_value_range(self):
        v = generate(1000, 7)
        assert v.values.min() >= 0
        assert v.values.max() <= 10**6

    def test_small_range_hits_both_endpoints(self):
        v = generate(30, 3, max_value=2)
        assert set(np.unique(v.values)) == {0, 1, 2}

    def test_zero_max_value_gives_zero_matrix(self):
        assert generate(5, 1, max_value=0).values.sum() == 0

    def test_rejects_empty_instance(self):
        with pytest.raises(ValueError):
            generate(0, 1)

    def test_rejects_overflow_prone_max_value(self):
        with pytest.raises(ValueError, match="overflow"):
            generate(4, 1, max_value=max_entry_for(4) + 1)

    def test_roughly_uniform(self):
        v = generate(100, 11, max_value=9)
        counts = np.bincount(v.values.flatten(), minlength=10)
        assert counts.min() > 800  # 10_000 draws over 10 buckets


class TestInstanceFormat:
    def test_serialize_layout(self):
        text = serialize(ValuationMatrix([[3, 1], [1, 2]]))
        assert text == "2\n3 1\n1 2\n"

    def test_round_trip(self):
        rng = np.random.default_rng(97)
        for _ in range(20):
            n = int(rng.integers(1, 15))
            v = ValuationMatrix(rng.integers(0, 10**6, size=(n, n)))
            assert np.array_equal(parse(serialize(v)).values, v.values)

    def test_file_round_trip(self, tmp_path):
        v = generate(10, 5)
        path = tmp_path / "instance.txt"
        write_instance(v, path)
        assert np.array_equal(read_instance(path).values, v.values)

    def test_missing_rows(self):
        with pytest.raises(ParseError, match="expected 3 rows"):
            parse("3\n1 2 3\n4 5 6\n")

    def test_extra_rows(self):
        with pytest.raises(ParseError, match="expected 1 rows"):
            parse("1\n4\n7\n")

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            parse("two\n1 2\n3 4\n")

    def test_wrong_row_length(self):
        with pytest.raises(ParseError, match="expected 2 values"):
            parse("2\n1 2 3\n4 5\n")

    def test_non_integer_token(self):
        with pytest.raises(ParseError, match="non-integer"):
            parse("2\n1 x\n3 4\n")

    def test_negative_entry(self):
        with pytest.raises(ParseError, match="nonnegative"):
            parse("2\n1 -2\n3 4\n")

    def test_overflowing_entry(self):
        big = max_entry_for(2) + 1
        with pytest.raises(ParseError, match="overflow-safe"):
            parse(f"2\n1 {big}\n3 4\n")

    def test_empty_file(self):
        with pytest.raises(ParseError, match="empty"):
            parse("")

    def test_a_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "instance.txt"
        path.write_bytes(b"2\n5 4\n1 \xff\n")
        with pytest.raises(ParseError, match="not UTF-8"):
            read_instance(path)


class TestSolutionRecord:
    def test_canonical_json_bytes(self):
        rec = SolutionRecord(n=2, assignment=[0, 1], prices=[3, 2], revenue=5, iterations_used=1)
        text = rec.to_json()
        assert text == (
            '{"assignment":[0,1],"iterations_used":1,"n":2,"prices":[3,2],"revenue":5}\n'
        )
        assert SolutionRecord.from_json(text) == rec

    def test_malformed_record(self):
        with pytest.raises(ParseError):
            SolutionRecord.from_json('{"n": 2}')
        with pytest.raises(ParseError):
            SolutionRecord.from_json("not json")

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("n", 2**63, "n = 9223372036854775808"),
            ("revenue", -(2**63) - 1, "revenue = -9223372036854775809"),
            ("iterations_used", 10**20, "iterations_used = 100000000000000000000"),
            ("assignment", [0, 2**64], "assignment[1] = 18446744073709551616"),
            ("prices", [3, 10**20], "prices[1] = 100000000000000000000"),
        ],
    )
    def test_numbers_beyond_int64_are_refused(self, field, value, named):
        doc = {"assignment": [0, 1], "iterations_used": 1, "n": 2, "prices": [3, 2], "revenue": 5}
        doc[field] = value
        with pytest.raises(ParseError, match=re.escape(named)):
            SolutionRecord.from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("n", 2.0, "n = 2.0 is not an integer"),
            ("n", True, "n = true is not an integer"),
            ("revenue", "5", 'revenue = "5" is not an integer'),
            ("iterations_used", False, "iterations_used = false is not an integer"),
            ("iterations_used", None, "iterations_used = null is not an integer"),
            ("assignment", [0, 1.7], "assignment[1] = 1.7 is not an integer"),
            ("assignment", [True, 0], "assignment[0] = true is not an integer"),
            ("prices", [3.9, 2], "prices[0] = 3.9 is not an integer"),
            ("prices", [3, "2"], 'prices[1] = "2" is not an integer'),
            ("prices", [3, 1e300], "prices[1] = 1e+300 is not an integer"),
            ("prices", "32", 'prices = "32" is not a list'),
            ("assignment", {"0": 0}, 'assignment = {"0": 0} is not a list'),
        ],
    )
    def test_only_json_integers_are_accepted(self, field, value, named):
        doc = {"assignment": [0, 1], "iterations_used": 1, "n": 2, "prices": [3, 2], "revenue": 5}
        doc[field] = value
        with pytest.raises(ParseError, match=re.escape(named)):
            SolutionRecord.from_json(json.dumps(doc))

    def test_a_document_that_is_not_an_object_is_refused(self):
        with pytest.raises(ParseError, match="malformed solution record"):
            SolutionRecord.from_json("[2, 5]")

    def test_a_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "sol.json"
        path.write_bytes(b'{"n":\xff}')
        with pytest.raises(ParseError, match="not UTF-8"):
            read_solution(path)

    def test_int64_extremes_are_accepted(self):
        lo, hi = -(2**63), 2**63 - 1
        rec = SolutionRecord(n=2, assignment=[0, 1], prices=[lo, hi], revenue=-1, iterations_used=0)
        assert SolutionRecord.from_json(rec.to_json()) == rec
