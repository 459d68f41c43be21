"""Memory of the solve path: about one valuation matrix and nothing n x n besides.

The gap matrix is a view, and pricing and the checks read the matrix
rows in blocks, so a solve holds the matrix, the blocks and what a
layer keeps (efpm's arcs).  verify never builds the matrix: it streams
the instance file into the certificate a block of rows at a time, and
holds that block, the certificate's n x n booleans of tight arcs (an
eighth of the matrix) and, for the item-by-item search, the arcs as
lists.  The writer holds one block of entries whatever n is.  Peaks
are taken with tracemalloc, above what is allocated when the call
starts.  One small solve runs first, untraced, so that the imports and
caches a first command fills (argparse's messages, locale tables) are
not counted against the matrix.
"""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from efpricing import (
    Allocation,
    PriceVector,
    ReorderedValuation,
    UtilityVector,
    ValuationMatrix,
    build_gap_matrix,
    check_envy_free,
    generate,
    parse,
    prices_efpm,
    read_instance,
    reorder,
    serialize,
    solve_assignment,
    write_instance,
)
from efpricing import instance
from efpricing.cli import main, solve_and_price
from efpricing.core import max_entry_for

from helpers import chain

N = 300
MATRIX_BYTES = N * N * 8


def traced_peak(fn, *args):
    """Bytes allocated by fn(*args) at its peak, above the allocation at entry."""
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing this process")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def solve(path, out):
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["solve", str(path), "--out", str(out)]) == 0


def verify(path, solution):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", str(path), str(solution)]) == 0


@pytest.fixture
def instance_file(tmp_path):
    warm = tmp_path / "warm.txt"
    write_instance(generate(3, 1), warm)
    solve(warm, tmp_path / "warm.json")
    path = tmp_path / "instance.txt"
    write_instance(generate(N, 23), path)
    return path


def test_solve_holds_about_one_matrix(instance_file, tmp_path):
    peak = traced_peak(solve, instance_file, tmp_path / "solution.json")
    assert peak <= 1.5 * MATRIX_BYTES


def test_verify_holds_about_one_matrix(instance_file, tmp_path):
    solution = tmp_path / "solution.json"
    solve(instance_file, solution)
    verify(instance_file, solution)
    assert traced_peak(verify, instance_file, solution) <= 1.5 * MATRIX_BYTES


@pytest.mark.parametrize("max_value", [1_000_000, 7])
def test_verify_streams_the_matrix(max_value, tmp_path):
    # The certificate takes each block of rows as it is read: verify
    # holds the tight arcs, an eighth of the matrix, one block of rows
    # (a 64th) and the reader's temporaries, never the matrix.  It
    # peaked at 1.15x the matrix when it read the matrix first.  On
    # entries 0..7 every consumer has zero utility, and a search from
    # all of them would copy every column of the tight arcs (0.27x).
    n = 2000
    path = tmp_path / "instance.txt"
    write_instance(generate(n, 11, max_value), path)
    solution = tmp_path / "solution.json"
    solve(path, solution)
    verify(path, solution)
    assert traced_peak(verify, path, solution) <= 0.2 * n * n * 8


def test_read_instance_holds_about_one_matrix(instance_file):
    peak = traced_peak(read_instance, instance_file)
    assert peak <= 1.5 * MATRIX_BYTES


def test_parse_holds_one_line_of_the_text_besides_the_matrix():
    # The text is encoded a line at a time, not copied whole first.
    n = 1000
    text = serialize(generate(n, 11))
    assert traced_peak(parse, text) <= 1.25 * n * n * 8


def test_reorder_builds_no_matrix():
    v = generate(N, 5)
    a = Allocation(np.random.default_rng(5).permutation(N))
    assert traced_peak(reorder, v, a) <= MATRIX_BYTES / 20
    vp = reorder(v, a)
    assert traced_peak(build_gap_matrix, vp) <= MATRIX_BYTES / 20


def test_efpm_holds_a_fraction_of_a_matrix():
    v = generate(N, 5)
    vp = reorder(v, solve_assignment(v).allocation)
    gaps = build_gap_matrix(vp)
    assert traced_peak(prices_efpm, gaps, vp) <= 0.3 * MATRIX_BYTES


def test_the_checks_hold_a_fraction_of_a_matrix():
    # The certificate's tight arcs take an eighth of the matrix.  At N
    # the 64 KiB block buffer and numpy's temporaries for it weigh more
    # than that, so this check runs on a larger matrix.
    n = 1000
    v = generate(n, 5)
    solved = solve_and_price(v, ["efpm"])
    prices = solved.priced["efpm"][1]
    assert traced_peak(check_envy_free, v, solved.allocation, prices) <= 0.2 * n * n * 8


@pytest.mark.parametrize("widest", [False, True], ids=["default", "max_entry_for"])
@pytest.mark.parametrize("n", [1000, 2000])
def test_write_instance_holds_a_block_not_a_matrix(n, widest, tmp_path):
    # The writer formats _BLOCK words at a time, one to three per entry,
    # so its peak grows neither with n nor with the entries' width: 40
    # bytes per block entry is 0.625 MiB.
    v = generate(n, 11, max_entry_for(n)) if widest else generate(n, 11)
    peak = traced_peak(write_instance, v, tmp_path / "instance.txt")
    assert peak <= 40 * instance._BLOCK


def identity_view(source):
    """The view of source under the identity allocation."""
    return ReorderedValuation(ValuationMatrix(source), Allocation(np.arange(len(source))))


@pytest.mark.parametrize("wrap, field, arr", [
    (ValuationMatrix, "values", np.zeros((4, 4), dtype=np.int64)),
    (identity_view, "source", np.zeros((4, 4), dtype=np.int64)),
    (Allocation, "assignment", np.arange(4, dtype=np.int64)),
    (lambda y: UtilityVector(y, 0), "y", np.arange(4, dtype=np.int64)),
    (PriceVector, "p", np.arange(4, dtype=np.int64)),
], ids=["ValuationMatrix", "ReorderedValuation", "Allocation", "UtilityVector", "PriceVector"])
def test_an_owned_int64_array_is_taken_not_copied(wrap, field, arr):
    wrapped = getattr(wrap(arr), field)
    assert np.shares_memory(wrapped, arr)
    assert not arr.flags.writeable
    with pytest.raises(ValueError):
        arr[0, 0] = 1


@pytest.mark.parametrize("wrap, field", [
    (ValuationMatrix, "values"),
    (identity_view, "source"),
])
@pytest.mark.parametrize("make", [
    lambda: np.zeros((6, 4), dtype=np.int64)[1:5],
    lambda: np.zeros((4, 8), dtype=np.int64)[:, ::2],
    lambda: np.zeros((4, 4), dtype=np.int64, order="F"),
    lambda: np.zeros((4, 4), dtype=np.int32),
    lambda: np.zeros((4, 4), dtype=np.uint64),
    lambda: np.zeros((4, 4), dtype=">i8"),
], ids=["row view", "strided view", "fortran order", "int32", "uint64", "big endian"])
def test_other_input_is_copied(wrap, field, make):
    arr = make()
    wrapped = getattr(wrap(arr), field)
    assert not np.shares_memory(wrapped, arr)
    assert wrapped.dtype == np.int64 and not wrapped.flags.writeable
    assert wrapped.flags.c_contiguous
    assert arr.flags.writeable


def test_a_relabelled_chain_is_held_and_solved_in_c_order():
    # Indexing the columns of a matrix gives a Fortran-order array.
    n = 60
    rng = np.random.default_rng(4)
    values = chain(n, 4, rng.permutation(n), rng.permutation(n))
    assert not values.flags.c_contiguous
    v = ValuationMatrix(values)
    assert v.values.flags.c_contiguous
    assert reorder(v, solve_assignment(v).allocation).source.flags.c_contiguous
    methods = ["efpm", "bellman-ford"]
    solved = solve_and_price(v, methods)
    expected = solve_and_price(ValuationMatrix(np.ascontiguousarray(values)), methods)
    assert np.array_equal(solved.allocation.assignment, expected.allocation.assignment)
    for method in methods:
        assert np.array_equal(solved.priced[method][1].p, expected.priced[method][1].p)


def test_a_refused_array_stays_writeable():
    arr = -np.ones((3, 3), dtype=np.int64)
    with pytest.raises(ValueError, match="nonnegative"):
        ValuationMatrix(arr)
    assert arr.flags.writeable
