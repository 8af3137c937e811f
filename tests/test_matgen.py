import random
import time
from fractions import Fraction
from itertools import product

import pytest

import ripr.matgen as matgen
from ripr.matgen import (
    add_translation_column,
    arithmetic_progression_matrix,
    band_matrix,
    block_sums_matrix,
    constant_rowsum_rows,
    deuber_matrix,
    doubling_block_matrix,
    doubling_block_row,
    doubling_system,
    finite_sums_matrix,
    finite_sums_row,
    first_entry_constants,
    grouped_sum_matrix,
    identity_matrix,
    is_first_entries,
    milliken_taylor_rows,
    mpc_matrix,
    pairwise_sum_rows,
    schur_matrix,
    stack,
)
from ripr.ratcore import FiniteMatrix, SparseRow, apply, image
from ripr.seqs import compress, fs_over_sets, mt_image


def test_finite_sums_row_supports_are_binary():
    assert finite_sums_row(0).dense(3) == (1, 0, 0)
    assert finite_sums_row(1).dense(3) == (0, 1, 0)
    assert finite_sums_row(2).dense(3) == (1, 1, 0)
    assert finite_sums_row(6).dense(3) == (1, 1, 1)
    # support of row i is the binary support of i+1, which is a bijection
    for i in range(64):
        supp = finite_sums_row(i).support()
        assert sum(2**b for b in supp) == i + 1


def test_finite_sums_matrix_and_schur():
    F2 = finite_sums_matrix(2)
    assert F2.dense() == [(1, 0), (0, 1), (1, 1)]
    assert schur_matrix() == F2
    assert len(finite_sums_matrix(3)) == 7


def test_finite_sums_matrix_build_guard(monkeypatch):
    # f:20 would build 2**20 - 1 rows, past the build guard of 2**19
    with pytest.raises(ValueError, match="more than 524288 rows"):
        finite_sums_matrix(20)
    # f:19 is inside it; stub the rows to see that without building them
    monkeypatch.setattr(matgen, "finite_sums_row", lambda i: None)
    monkeypatch.setattr(matgen, "FiniteMatrix", lambda rows, width: (len(rows), width))
    assert finite_sums_matrix(19) == (2**19 - 1, 19)


@pytest.mark.parametrize("build, small, large, rows", [
    (identity_matrix, (5,), (2**19 + 1,), 2**19 + 1),
    (arithmetic_progression_matrix, (4,), (2**19 + 1,), 2**19 + 1),
    (band_matrix, ((1, 2), 3), ((1,), 600000), 600000),
    (mpc_matrix, (3, 2, 1), (13, 2, 1), (3**13 - 1) // 2),
    (deuber_matrix, (3, 1, 2), (13, 1, 1), (3**13 - 1) // 2),
    (block_sums_matrix, ([schur_matrix(), identity_matrix(1)],), ([identity_matrix(1)] * 20,),
     2**20 - 1),
])
def test_row_families_build_guard(monkeypatch, build, small, large, rows):
    # the guard counts exactly the rows built: a guard at that count lets them through
    n = len(build(*small).rows)
    monkeypatch.setattr(matgen, "_BUILD_GUARD", n)
    assert len(build(*small).rows) == n
    monkeypatch.setattr(matgen, "_BUILD_GUARD", n - 1)
    with pytest.raises(ValueError, match="more than %d rows" % (n - 1)):
        build(*small)
    # past the guard the builder refuses before it builds a row and names the guard
    monkeypatch.undo()
    with pytest.raises(ValueError, match="build more than 524288 rows"):
        build(*large)
    # it handed the guard the exact count, which the refusal no longer prints
    counts = []

    def refuse(count, unit, what):
        counts.append(count)
        raise ValueError(what)

    monkeypatch.setattr(matgen, "_check_built", refuse)
    with pytest.raises(ValueError):
        build(*large)
    assert counts == [rows]


@pytest.mark.parametrize("build, small, large", [
    (milliken_taylor_rows, ((2, 1), 5), ((1,), 20)),
    # the rows come in order, so only the rows a budget keeps count
    (milliken_taylor_rows, ((1, -1, 1), 6, 4), ((2, 1), 3000, 524289)),
    (constant_rowsum_rows, (4, 3, 2), (11, 23, 1)),
    (constant_rowsum_rows, (4, 3, 2, 4), (11, 23, 1, 524289)),
])
def test_counted_families_build_guard(monkeypatch, build, small, large):
    # past the guard the builder refuses at once and names the guard, not a count past it
    with pytest.raises(ValueError, match="build more than 524288 rows"):
        build(*large)
    # the count is exact: a guard at the rows built lets them through
    n = len(build(*small).rows)
    monkeypatch.setattr(matgen, "_BUILD_GUARD", n)
    assert len(build(*small).rows) == n
    monkeypatch.setattr(matgen, "_BUILD_GUARD", n - 1)
    with pytest.raises(ValueError, match="more than %d rows" % (n - 1)):
        build(*small)


def test_pairwise_sum_rows():
    M = pairwise_sum_rows(3)
    assert len(M) == 6  # 3 singles + 3 pairs
    assert all(len(r) <= 2 for r in M.rows)
    assert len(pairwise_sum_rows(4, row_budget=5)) == 5


@pytest.mark.parametrize("build", [mpc_matrix, deuber_matrix])
def test_first_entry_families_refuse_huge_m_at_once(build):
    # 2^m - 1 rows at least: refused before (p+1)^m, some 20 million bits, is computed
    start = time.monotonic()
    with pytest.raises(ValueError, match="build more than 524288 rows"):
        build(10**6, 10**6, 1)
    assert time.monotonic() - start < 0.5


def test_milliken_taylor_rows_compress_back():
    M = milliken_taylor_rows((2, 1), 3)
    dense = sorted(r.dense(3) for r in M.rows)
    assert dense == [(0, 2, 1), (2, 0, 1), (2, 1, 0), (2, 1, 1), (2, 2, 1)]
    for r in M.rows:
        assert compress(r.dense(3)) == (2, 1)


def _dense_sweep_mt_rows(a, column_bound, row_budget=None):
    """Every dense row over {0} and the terms of a, in lexicographic order,
    kept when it compresses to a; a budget stops the sweep after that many
    rows, and after the first one when it is below one."""
    rows = []
    for dense in product(sorted({0, *a}), repeat=column_bound):
        if any(dense) and compress(dense) == a:
            rows.append(SparseRow((c, v) for c, v in enumerate(dense) if v))
            if row_budget is not None and len(rows) >= row_budget:
                break
    return FiniteMatrix(rows, column_bound)


@pytest.mark.parametrize("a", [(2, 1), (1,), (1, -1, 1), (3, 1, 2), (-1, 2), (1, 2, 1, 2),
                               (Fraction(1, 2), -3)])
def test_milliken_taylor_rows_match_dense_sweep(a):
    for w in range(9):
        for row_budget in (None, -1, 0, 1, 3, 10):
            got = milliken_taylor_rows(a, w, row_budget).to_obj()
            assert got == _dense_sweep_mt_rows(a, w, row_budget).to_obj(), (w, row_budget)


def test_milliken_taylor_rows_budget_stops_early():
    # 3000 columns hold about 1500 * 2^3000 rows; a budget of five builds the least five
    M = milliken_taylor_rows((2, 1), 3000, 5)
    assert [sorted(r.items()) for r in M.rows] == [
        [(2998, 2), (2999, 1)],
        [(2997, 2), (2999, 1)],
        [(2997, 2), (2998, 1)],
        [(2997, 2), (2998, 1), (2999, 1)],
        [(2997, 2), (2998, 2), (2999, 1)],
    ]


def test_milliken_taylor_rows_route_matches_direct_image():
    rng = random.Random(42)
    for a in [(1,), (2, 1), (1, 2), (-1, 2)]:
        for _ in range(10):
            n = rng.randint(len(a), 5)
            x = [rng.randint(1, 12) for _ in range(n)]
            M = milliken_taylor_rows(a, n)
            assert image(M, x) == mt_image(a, x)


def test_band_matrix():
    B = band_matrix((1, 2, 1), 3)
    assert B.dense() == [(1, 2, 1, 0, 0), (0, 1, 2, 1, 0), (0, 0, 1, 2, 1)]
    with pytest.raises(ValueError):
        band_matrix((1, 2), 3, width=3)
    with pytest.raises(ValueError):
        band_matrix((0, 1), 2)


def test_mpc_counts_and_display():
    assert mpc_matrix(2, 2, 1).dense() == [(1, 0), (1, 1), (1, 2), (0, 1)]
    for m in range(1, 5):
        for p in range(1, 5):
            assert len(mpc_matrix(m, p, 1)) == ((p + 1) ** m - 1) // p


def test_deuber_display_and_counts():
    D = deuber_matrix(2, 2, 1)
    assert D.dense() == [(1, -2), (1, -1), (1, 0), (1, 1), (1, 2), (0, 1)]
    assert apply(D, (5, 1)) == (3, 4, 5, 6, 7, 1)
    for m in range(1, 4):
        for p in range(1, 4):
            assert len(deuber_matrix(m, p, 2)) == ((2 * p + 1) ** m - 1) // (2 * p)


def test_doubling_rows():
    assert doubling_block_row(0).dense(2) == (2, 1)
    assert doubling_block_row(1).dense(4) == (0, 2, 1, 1)
    r2 = doubling_block_row(2)
    assert r2.dense(8) == (0, 0, 2, 0, 1, 1, 1, 1)
    assert doubling_block_matrix(2).dense() == [(2, 1, 0, 0), (0, 2, 1, 1)]
    sys1 = doubling_system(1)
    assert sys1.dense() == [(1, 0), (0, 1), (2, 1)]


def test_grouped_sum_matrix():
    G1 = grouped_sum_matrix((7,))
    assert G1.dense() == [(1, 0), (0, 1), (7, 1)]
    G2 = grouped_sum_matrix((2, 3))
    assert G2.dense() == [
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (2, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (3, 0, 1, 1),
    ]
    # block n adds n + 1 rows on top of the leading singleton row
    for k in range(1, 5):
        G = grouped_sum_matrix(tuple(range(2, k + 2)))
        assert len(G) == 1 + sum(n + 1 for n in range(1, k + 1))
        assert G.width == k * (k + 1) // 2 + 1


def test_constant_rowsum_rows():
    M = constant_rowsum_rows(2, 2)
    assert M.dense() == [(0, 2), (1, 1), (2, 0)]
    assert all(sum(r.dense(3)) == 3 for r in constant_rowsum_rows(3, 3, 2).rows)
    with pytest.raises(ValueError):
        constant_rowsum_rows(5, 2, 1)  # unreachable total
    # a total past width * entry_bound is refused before any count or sweep
    for bound in (0, -1, 1):
        with pytest.raises(ValueError, match="no rows"):
            constant_rowsum_rows(10**5 + 1, 10**5, bound)


def test_constant_rowsum_row_count_is_exact(monkeypatch):
    # the guard's inclusion-exclusion count against a sweep of the box
    for total, width, bound in product(range(1, 7), range(1, 6), (None, -1, 0, 1, 2, 3, 7)):
        top = total if bound is None else bound
        rows = sum(sum(d) == total for d in product(range(top + 1), repeat=width))
        monkeypatch.setattr(matgen, "_BUILD_GUARD", rows)
        if not rows:
            with pytest.raises(ValueError, match="no rows"):
                constant_rowsum_rows(total, width, bound)
            continue
        assert len(constant_rowsum_rows(total, width, bound).rows) == rows
        monkeypatch.setattr(matgen, "_BUILD_GUARD", rows - 1)
        with pytest.raises(ValueError, match="more than %d rows" % (rows - 1)):
            constant_rowsum_rows(total, width, bound)


def test_block_sums_matrix():
    D = block_sums_matrix([schur_matrix(), identity_matrix(1)])
    assert len(D) == (3 + 1) * (1 + 1) - 1 == 7
    assert D.width == 3
    x = (1, 2, 10)
    left = image(D, x)
    right = fs_over_sets([image(schur_matrix(), (1, 2)).values, {10}])
    assert left == right


def test_stack_and_translation_column():
    S = stack(FiniteMatrix.from_dense([(1, 2)]), finite_sums_matrix(2))
    assert S.dense() == [(1, 2), (1, 0), (0, 1), (1, 1)]
    T = add_translation_column(FiniteMatrix.from_dense([(2, 1)]))
    assert T.dense() == [(1, 2, 1)]
    # stacking a matrix on itself keeps both copies
    SS = stack(schur_matrix(), schur_matrix())
    assert len(SS) == 6


def test_identity_and_progressions():
    assert identity_matrix(2).dense() == [(1, 0), (0, 1)]
    assert arithmetic_progression_matrix(3).dense() == [(1, 0), (1, 1), (1, 2)]
    assert arithmetic_progression_matrix(1).dense() == [(1,)]


def test_first_entries_predicate():
    assert is_first_entries(finite_sums_matrix(3))
    assert is_first_entries(mpc_matrix(3, 2, 2))
    assert is_first_entries(deuber_matrix(2, 2, 1))
    assert is_first_entries(band_matrix((1, 2, 1), 3))
    assert first_entry_constants(mpc_matrix(2, 3, 2)) == {0: 2, 1: 2}
    # clashing first entries in column 0
    assert not is_first_entries(doubling_system(1))
    assert not is_first_entries(FiniteMatrix.from_dense([(-1, 2)]))
    assert not is_first_entries(FiniteMatrix.from_dense([(1, 0), (2, 0)]))
    assert not is_first_entries(FiniteMatrix([{}, {0: 1}], 1))


def test_generators_are_deterministic():
    a = milliken_taylor_rows((2, 1), 4).to_obj()
    b = milliken_taylor_rows((2, 1), 4).to_obj()
    assert a == b
    assert deuber_matrix(2, 2, 1).to_obj() == deuber_matrix(2, 2, 1).to_obj()
