import numpy as np
import pytest

from efpricing import (
    Allocation,
    ReorderedValuation,
    ValuationMatrix,
    build_gap_matrix,
    reorder,
)
from efpricing.core import max_entry_for

from helpers import permutation_matrix, random_matrix


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
            Allocation(assignment=[0, 0], weight=0)

    def test_from_assignment_recomputes_weight(self):
        v = ValuationMatrix([[3, 1], [1, 2]])
        a = Allocation.from_assignment(v, [1, 0])
        assert a.weight == 1 + 1

    def test_length_mismatch(self):
        v = ValuationMatrix([[3, 1], [1, 2]])
        with pytest.raises(ValueError):
            Allocation.from_assignment(v, [0, 1, 2])


class TestReorder:
    def test_identity_is_noop(self):
        v = ValuationMatrix([[3, 1], [1, 2]])
        a = Allocation.from_assignment(v, [0, 1])
        vp = reorder(v, a)
        assert np.array_equal(vp.values, v.values)
        assert int(vp.winning.sum()) == 5 == a.weight

    def test_swap_rows(self):
        # Oracle: multiply by the transposed permutation matrix.
        v = ValuationMatrix([[3, 1], [1, 2]])
        a = Allocation.from_assignment(v, [1, 0])
        vp = reorder(v, a)
        expected = permutation_matrix(a.assignment).T @ v.values
        assert np.array_equal(vp.values, expected)
        assert vp.values.tolist() == [[1, 2], [3, 1]]
        assert int(vp.winning.sum()) == 2 == a.weight

    def test_identity_trace_is_diagonal_sum(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            v = random_matrix(rng, n, 50)
            a = Allocation.from_assignment(v, np.arange(n))
            assert int(reorder(v, a).winning.sum()) == int(np.trace(v.values))

    def test_matches_matrix_multiply_oracle_on_random_permutations(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 10))
            v = random_matrix(rng, n, 1000)
            assignment = rng.permutation(n)
            a = Allocation.from_assignment(v, assignment)
            vp = reorder(v, a)
            assert np.array_equal(vp.values, permutation_matrix(assignment).T @ v.values)
            assert int(vp.winning.sum()) == a.weight

    def test_dimension_mismatch(self):
        v = ValuationMatrix([[3, 1], [1, 2]])
        other = ValuationMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        a = Allocation.from_assignment(other, [2, 0, 1])
        with pytest.raises(ValueError, match="does not match"):
            reorder(v, a)


class TestGapMatrix:
    def test_direct_subtraction_examples(self):
        vp = reorder(
            ValuationMatrix([[3, 1], [1, 2]]),
            Allocation(assignment=[0, 1], weight=5),
        )
        assert build_gap_matrix(vp).gaps.tolist() == [[0, -1], [-2, 0]]
        vp = reorder(
            ValuationMatrix([[5, 4], [1, 2]]),
            Allocation(assignment=[0, 1], weight=7),
        )
        assert build_gap_matrix(vp).gaps.tolist() == [[0, 2], [-4, 0]]

    def test_diagonal_only_matrix(self):
        v = ValuationMatrix(np.diag([4, 7, 9]))
        a = Allocation.from_assignment(v, [0, 1, 2])
        gaps = build_gap_matrix(reorder(v, a)).gaps
        for j in range(3):
            for k in range(3):
                assert gaps[j, k] == (0 if j == k else -v.values[k, k])

    def test_diagonal_always_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            v = random_matrix(rng, n, 10**6)
            a = Allocation.from_assignment(v, rng.permutation(n))
            gaps = build_gap_matrix(reorder(v, a)).gaps
            assert np.all(np.diagonal(gaps) == 0)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(5)
        v = random_matrix(rng, 6, 100)
        a = Allocation.from_assignment(v, rng.permutation(6))
        vp = reorder(v, a)
        gaps = build_gap_matrix(vp).gaps
        for j in range(6):
            for k in range(6):
                assert gaps[j, k] == vp.values[j, k] - vp.values[k, k]


class TestGapMatrixView:
    def test_build_gap_matrix_copies_nothing(self):
        v = ValuationMatrix(np.arange(16).reshape(4, 4))
        vp = reorder(v, Allocation.from_assignment(v, [2, 0, 3, 1]))
        assert build_gap_matrix(vp) is vp
        assert vp.source is v.values
        assert vp.winning.tolist() == [4, 13, 2, 11]

    def test_gaps_are_built_anew_and_read_only(self):
        v = ValuationMatrix([[5, 4], [1, 2]])
        u = build_gap_matrix(reorder(v, Allocation.from_assignment(v, [0, 1])))
        first = u.gaps
        assert first is not u.gaps and np.array_equal(first, u.gaps)
        with pytest.raises(ValueError):
            first[0, 1] = 0

    def test_explicit_gaps_are_the_identity_view(self):
        gaps = [[0, 2], [-4, 0]]
        u = ReorderedValuation(source=gaps, order=[0, 1], winning=[0, 0])
        assert u.gaps.tolist() == gaps

    def test_rejects_a_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            ReorderedValuation(source=[[1, 2], [3, 4]], order=[0, 1], winning=[1, 3])

    def test_rejects_an_order_that_is_no_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            ReorderedValuation(source=[[0, 2], [3, 0]], order=[0, 0], winning=[0, 2])

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="length"):
            ReorderedValuation(source=[[0, 2], [3, 0]], order=[0, 1, 2], winning=[0, 0])
        with pytest.raises(ValueError, match="square"):
            ReorderedValuation(source=[[0, 2, 1], [3, 0, 1]], order=[0, 1], winning=[0, 0])
