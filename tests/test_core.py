import numpy as np
import pytest

from efpricing import (
    Allocation,
    PriceVector,
    ReorderedValuation,
    UtilityVector,
    ValuationMatrix,
    build_gap_matrix,
    reorder,
)
from efpricing.core import max_entry_for

from helpers import (explicit_gaps, gap_array, permutation_matrix, random_matrix,
                     reordered_values, weight)


class TestValuationMatrix:
    def test_accepts_square_nonnegative_ints(self):
        v = ValuationMatrix([[3, 1], [1, 2]])
        assert v.n == 2
        assert v.values.dtype == np.int64

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            ValuationMatrix([[1, 2, 3], [4, 5, 6]])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ValuationMatrix([[1, -2], [3, 4]])

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            ValuationMatrix([[1.5, 2.0], [3.0, 4.0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ValuationMatrix(np.zeros((0, 0), dtype=np.int64))

    def test_rejects_sum_overflow_risk(self):
        big = max_entry_for(2) + 1
        with pytest.raises(ValueError, match="overflow"):
            ValuationMatrix([[big, 0], [0, 0]])

    def test_values_are_frozen(self):
        v = ValuationMatrix([[3, 1], [1, 2]])
        with pytest.raises(ValueError):
            v.values[0, 0] = 9


class TestAllocation:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            Allocation(assignment=[0, 0])


class TestReorder:
    def test_identity_is_noop(self):
        v = ValuationMatrix([[3, 1], [1, 2]])
        a = Allocation([0, 1])
        vp = reorder(v, a)
        assert np.array_equal(reordered_values(vp), v.values)
        assert int(vp.winning.sum()) == 5 == weight(v, a)

    def test_swap_rows(self):
        # Oracle: multiply by the transposed permutation matrix.
        v = ValuationMatrix([[3, 1], [1, 2]])
        a = Allocation([1, 0])
        vp = reorder(v, a)
        expected = permutation_matrix(a.assignment).T @ v.values
        assert np.array_equal(reordered_values(vp), expected)
        assert reordered_values(vp).tolist() == [[1, 2], [3, 1]]
        assert int(vp.winning.sum()) == 2 == weight(v, a)

    def test_identity_trace_is_diagonal_sum(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            v = random_matrix(rng, n, 50)
            a = Allocation(np.arange(n))
            assert int(reorder(v, a).winning.sum()) == int(np.trace(v.values))

    def test_matches_matrix_multiply_oracle_on_random_permutations(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 10))
            v = random_matrix(rng, n, 1000)
            assignment = rng.permutation(n)
            a = Allocation(assignment)
            vp = reorder(v, a)
            expected = permutation_matrix(assignment).T @ v.values
            assert np.array_equal(reordered_values(vp), expected)
            assert int(vp.winning.sum()) == weight(v, a)

    def test_dimension_mismatch(self):
        v = ValuationMatrix([[3, 1], [1, 2]])
        a = Allocation([2, 0, 1])
        with pytest.raises(ValueError, match="does not match"):
            reorder(v, a)


class TestGapMatrix:
    def test_direct_subtraction_examples(self):
        vp = reorder(
            ValuationMatrix([[3, 1], [1, 2]]),
            Allocation(assignment=[0, 1]),
        )
        assert gap_array(build_gap_matrix(vp)).tolist() == [[0, -1], [-2, 0]]
        vp = reorder(
            ValuationMatrix([[5, 4], [1, 2]]),
            Allocation(assignment=[0, 1]),
        )
        assert gap_array(build_gap_matrix(vp)).tolist() == [[0, 2], [-4, 0]]

    def test_diagonal_only_matrix(self):
        v = ValuationMatrix(np.diag([4, 7, 9]))
        a = Allocation([0, 1, 2])
        gaps = gap_array(build_gap_matrix(reorder(v, a)))
        for j in range(3):
            for k in range(3):
                assert gaps[j, k] == (0 if j == k else -v.values[k, k])

    def test_diagonal_always_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            v = random_matrix(rng, n, 10**6)
            a = Allocation(rng.permutation(n))
            gaps = gap_array(build_gap_matrix(reorder(v, a)))
            assert np.all(np.diagonal(gaps) == 0)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(5)
        v = random_matrix(rng, 6, 100)
        a = Allocation(rng.permutation(6))
        vp = reorder(v, a)
        gaps = gap_array(build_gap_matrix(vp))
        values = reordered_values(vp)
        for j in range(6):
            for k in range(6):
                assert gaps[j, k] == values[j, k] - values[k, k]


class TestGapMatrixView:
    def test_build_gap_matrix_copies_nothing(self):
        v = ValuationMatrix(np.arange(16).reshape(4, 4))
        vp = reorder(v, Allocation([2, 0, 3, 1]))
        assert build_gap_matrix(vp) is vp
        assert vp.source is v.values
        assert vp.winning.tolist() == [4, 13, 2, 11]

    def test_explicit_gaps_are_the_identity_view(self):
        gaps = [[0, 2], [-4, 0]]
        u = explicit_gaps(gaps)
        assert u.order.tolist() == [0, 1] and u.source.min() == 0
        assert gap_array(u).tolist() == gaps

    @pytest.mark.parametrize("matrix, allocation", [
        (np.array([[3, 1], [1, 2]]), Allocation([0, 1])),
        ([[3, 1], [1, 2]], Allocation([0, 1])),
        (ValuationMatrix([[3, 1], [1, 2]]), np.array([0, 1])),
        (ValuationMatrix([[3, 1], [1, 2]]), [0, 1]),
    ], ids=["matrix array", "matrix list", "allocation array", "allocation list"])
    def test_refuses_an_array_or_a_list_for_either_argument(self, matrix, allocation):
        # The view checks no values: the matrix and the allocation own
        # those checks, so it takes nothing else.
        with pytest.raises(TypeError, match="ValuationMatrix and an Allocation"):
            ReorderedValuation(matrix, allocation)
        with pytest.raises(TypeError, match="ValuationMatrix and an Allocation"):
            reorder(matrix, allocation)


@pytest.mark.parametrize("build", [
    lambda v: Allocation([0.7, 1.2]),
    lambda v: Allocation([True, False]),
    lambda v: Allocation(assignment=np.array([1.0, 0.0])),
    lambda v: UtilityVector(y=[1.5, 0.0], iterations_used=0),
    lambda v: PriceVector(p=[2.9, 0.5]),
], ids=["float assignment", "bool assignment", "float array", "float utilities",
        "float prices"])
def test_index_arrays_refuse_non_integer_dtypes(build):
    with pytest.raises(TypeError, match="integer"):
        build(ValuationMatrix([[3, 1], [1, 2]]))


# astype would wrap 2**63 around to -2**63.
BIG = np.array([2**63, 0], dtype=np.uint64)


@pytest.mark.parametrize("build", [
    lambda v: ValuationMatrix(BIG[:1].reshape(1, 1)),
    lambda v: Allocation(assignment=BIG),
    lambda v: UtilityVector(y=BIG, iterations_used=0),
    lambda v: PriceVector(p=BIG),
], ids=["valuations", "assignment", "utilities", "prices"])
def test_uint64_entries_above_the_int64_range_are_refused(build):
    with pytest.raises(ValueError, match="int64 range"):
        build(ValuationMatrix([[3, 1], [1, 2]]))


@pytest.mark.parametrize("build", [
    lambda: ValuationMatrix([[3, 1], [1, 2]]),
    lambda: Allocation(assignment=[0, 1]),
    lambda: ReorderedValuation(ValuationMatrix([[3, 1], [1, 2]]), Allocation([1, 0])),
    lambda: UtilityVector(y=[2, 0], iterations_used=1),
    lambda: PriceVector(p=[3, 2]),
], ids=["valuations", "allocation", "reordered", "utilities", "prices"])
def test_value_types_compare_and_hash_by_identity(build):
    x, twin = build(), build()
    assert x == x
    assert x != twin
    assert hash(x) == hash(x)
