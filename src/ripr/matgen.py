"""Generators for the matrix families used throughout the package.

All generators are deterministic: calling one twice with the same arguments
yields equal matrices with rows in the same order, so serialized output is
byte-stable.  Row budgets truncate the enumeration, never reorder it.
"""

import math
from itertools import accumulate, chain, combinations, islice, product

from .ratcore import FiniteMatrix, SparseRow
from .seqs import _mt_row_counts, _mt_row_maps, coeff_seq

_ENUM_GUARD = 10**7


def _check_budget(count, what):
    if count > _ENUM_GUARD:
        raise ValueError("%s would enumerate more than %d candidates; too large"
                         % (what, _ENUM_GUARD))


# Rows (or columns) one matrix may be built with, and rows one search may
# compile: a row takes several hundred bytes (about 700 compiled at a
# 17-entry prefix), so a request just inside the guard needs 300-400 MiB.
_BUILD_GUARD = 2**19


def _check_built(count, unit, what):
    if count > _BUILD_GUARD:
        raise ValueError("%s would build more than %d %s; too large" % (what, _BUILD_GUARD, unit))


def _check_counted(counts, what, row_budget=None):
    """The rows row_budget keeps of the sum of counts, refused with ValueError
    past the build guard; counting stops once the running total passes it."""
    total = 0
    for total in accumulate(counts):
        if total > _BUILD_GUARD:
            break
    kept = _kept(total, row_budget)
    _check_built(kept, "rows", what)
    return kept


def _kept(count, row_budget):
    """Rows a row budget keeps of count: all without one, else at least one."""
    return count if row_budget is None else min(count, max(row_budget, 1))


def finite_sums_row(i):
    """Row i of the finite-sums system: 1 exactly at the binary support of i+1.

    Applying row i to x yields the subset sum of x over that support, so the
    full system's image at x is the set of all finite sums of the entries.
    """
    if i < 0:
        raise ValueError("row index must be >= 0")
    n = i + 1
    return SparseRow((b, 1) for b in range(n.bit_length()) if (n >> b) & 1)


def finite_sums_matrix(v):
    """All 2^v - 1 finite-sums rows over v columns."""
    if v < 1:
        raise ValueError("need at least one column")
    _check_built(2**v - 1, "rows", "finite_sums_matrix")
    return FiniteMatrix([finite_sums_row(i) for i in range(2**v - 1)], v)


def schur_matrix():
    """x, y, x+y as a 3x2 system."""
    return finite_sums_matrix(2)


def pairwise_sum_rows(column_bound, row_budget=None):
    """Finite-sums rows with at most two ones: single entries and pairwise sums."""
    if column_bound < 1:
        raise ValueError("need at least one column")
    count = _kept(column_bound * (column_bound + 1) // 2, row_budget)
    _check_built(count, "rows", "pairwise_sum_rows")
    singles = ({c: 1} for c in range(column_bound))
    pairs = ({c: 1, d: 1} for c, d in combinations(range(column_bound), 2))
    return FiniteMatrix([SparseRow(r) for r in islice(chain(singles, pairs), count)],
                        column_bound)


def milliken_taylor_rows(a, column_bound, row_budget=None):
    """All rows over column_bound columns that compress to the coefficient
    sequence a, one per block tuple, in ascending order of their dense tuples."""
    a = coeff_seq(a)
    kept = _check_counted(_mt_row_counts(len(a), column_bound), "milliken_taylor_rows",
                          row_budget)
    return FiniteMatrix(islice(_mt_row_maps(a, column_bound), kept), column_bound)


def band_matrix(coeffs, nrows, width=None):
    """Row i carries the coefficient block starting at column i."""
    coeffs = tuple(coeffs)
    if not coeffs or coeffs[0] == 0 or coeffs[-1] == 0:
        raise ValueError("band needs a nonzero leading and trailing coefficient")
    if nrows < 1:
        raise ValueError("need at least one row")
    _check_built(nrows, "rows", "band_matrix")
    need = nrows + len(coeffs) - 1
    if width is None:
        width = need
    elif width < need:
        raise ValueError("width %d too small for %d shifted rows" % (width, nrows))
    rows = [
        SparseRow((i + j, v) for j, v in enumerate(coeffs) if v) for i in range(nrows)
    ]
    return FiniteMatrix(rows, width)


def _first_entry_rows(m, c, later_digits, what):
    """Rows over m columns: zeros, then c, then arbitrary digits from
    later_digits.  Ordered by first-entry column, then lexicographically.

    With b later digits there are (b^m - 1) / (b - 1) rows, at least 2^m - 1,
    so an m whose 2^m - 1 already passes the build guard is refused without
    computing the exact count.
    """
    b = len(later_digits)
    if m >= (_BUILD_GUARD + 1).bit_length():
        count = _BUILD_GUARD + 1
    else:
        count = (b**m - 1) // (b - 1)
    _check_built(count, "rows", what)
    rows = []
    for j in range(m):
        for tail in product(later_digits, repeat=m - 1 - j):
            row = SparseRow({j: c})
            for off, d in enumerate(tail):
                row[j + 1 + off] = d
            rows.append(row)
    return FiniteMatrix(rows, m)


def mpc_matrix(m, p, c):
    """All rows (0..0, c, d..d) with later digits drawn from {0..p}.

    Row count is ((p+1)^m - 1) / p.
    """
    if m < 1 or p < 1 or c < 1:
        raise ValueError("m, p, c must be positive")
    return _first_entry_rows(m, c, range(p + 1), "mpc_matrix")


def deuber_matrix(m, p, c):
    """Like mpc_matrix but with later digits from {-p..p}.

    Row count is ((2p+1)^m - 1) / (2p).
    """
    if m < 1 or p < 1 or c < 1:
        raise ValueError("m, p, c must be positive")
    return _first_entry_rows(m, c, range(-p, p + 1), "deuber_matrix")


def doubling_block_row(i):
    """2 at column i and 1 across columns 2^i .. 2^(i+1)-1."""
    if i < 0:
        raise ValueError("row index must be >= 0")
    row = SparseRow({i: 2})
    for j in range(2**i, 2 ** (i + 1)):
        row[j] = row[j] + 1
    return row


def doubling_block_matrix(n):
    """Rows doubling_block_row(0..n-1) over 2^n columns."""
    if n < 1:
        raise ValueError("need at least one row")
    _check_built(2**n, "columns", "doubling_block_matrix")
    return FiniteMatrix([doubling_block_row(i) for i in range(n)], 2**n)


def doubling_system(n):
    """Identity stacked on the doubling rows; width 2^n."""
    _check_built(2**n + n, "rows", "doubling_system")
    return stack(identity_matrix(2**n), doubling_block_matrix(n))


def grouped_sum_matrix(coeffs):
    """First variable alone, then per block n: the block's variables alone
    followed by coeffs[n-1] times the first variable plus the block's sum.

    Block n covers columns T(n-1)+1 .. T(n) with T the triangular numbers,
    so block n has n variables and the matrix grows without repeating shapes.
    """
    coeffs = tuple(coeffs)
    if not coeffs or any(c == 0 for c in coeffs):
        raise ValueError("block coefficients must be nonzero")
    rows = [SparseRow({0: 1})]
    col = 1
    for n, c in enumerate(coeffs, start=1):
        group = range(col, col + n)
        rows.extend(SparseRow({j: 1}) for j in group)
        combined = SparseRow({0: c})
        for j in group:
            combined[j] = 1
        rows.append(combined)
        col += n
    return FiniteMatrix(rows, col)


def constant_rowsum_rows(total, width, entry_bound=None, row_budget=None):
    """All nonzero rows with entries in {0..entry_bound} summing to total."""
    if total < 1 or width < 1:
        raise ValueError("total and width must be positive")
    if entry_bound is None:
        entry_bound = total
    if total > width * entry_bound:
        raise ValueError("no rows: total %d unreachable" % total)
    # entry_bound >= 1 here, so a box of width 24 is already past the guard
    _check_budget((entry_bound + 1) ** min(width, 24), "constant_rowsum_rows")
    # inclusion-exclusion over the j entries past the bound
    b = entry_bound + 1
    count = sum((-1) ** j * math.comb(width, j) * math.comb(total - j * b + width - 1, width - 1)
                for j in range(min(width, total // b) + 1))
    kept = _kept(count, row_budget)
    _check_built(kept, "rows", "constant_rowsum_rows")
    box = (d for d in product(range(entry_bound + 1), repeat=width) if sum(d) == total)
    return FiniteMatrix([SparseRow((c, v) for c, v in enumerate(d) if v)
                         for d in islice(box, kept)], width)


def block_sums_matrix(blocks, row_budget=None):
    """One matrix per block, side by side; each row picks a row from some
    nonempty subset of the blocks.  The image at a concatenated assignment is
    the finite-sums-over-sets of the per-block images.
    """
    blocks = list(blocks)
    if not blocks:
        raise ValueError("need at least one block")
    offsets = []
    width = 0
    for b in blocks:
        offsets.append(width)
        width += b.width
    kept = _kept(math.prod(len(b.rows) + 1 for b in blocks) - 1, row_budget)
    _check_built(kept, "rows", "block_sums_matrix")
    rows = []
    # the first choice picks no block at all
    for choice in islice(product(*[range(len(b.rows) + 1) for b in blocks]), 1, kept + 1):
        row = SparseRow()
        for bi, ci in enumerate(choice):
            if ci:
                for c, v in blocks[bi].rows[ci - 1].items():
                    row[offsets[bi] + c] = v
        rows.append(row)
    return FiniteMatrix(rows, width)


def identity_matrix(n):
    if n < 1:
        raise ValueError("need at least one column")
    _check_built(n, "rows", "identity_matrix")
    return FiniteMatrix([SparseRow({i: 1}) for i in range(n)], n)


def arithmetic_progression_matrix(k):
    """Rows a, a+d, ..., a+(k-1)d over variables (a, d)."""
    if k < 1:
        raise ValueError("need at least one term")
    _check_built(k, "rows", "arithmetic_progression_matrix")
    if k == 1:
        return FiniteMatrix([SparseRow({0: 1})], 1)
    return FiniteMatrix([SparseRow({0: 1, 1: i}) for i in range(k)], 2)


def stack(A, B):
    """Rows of A then rows of B over the larger width."""
    width = max(A.width, B.width)
    rows = [SparseRow(r) for r in A.rows] + [SparseRow(r) for r in B.rows]
    keys = [r.key() for r in rows]
    return FiniteMatrix(rows, width, allow_duplicate_rows=len(set(keys)) != len(keys))


def add_translation_column(M):
    """Prepend a constant-1 column: row r becomes (1, r)."""
    rows = []
    for r in M.rows:
        row = r.shifted(1)
        row[0] = 1
        rows.append(row)
    return FiniteMatrix(rows, M.width + 1)


def first_entry_constants(A):
    """Map column -> the common first entry of rows starting there, or None
    if A is not a first-entries matrix (zero row, negative first entry, or
    clashing first entries in a column)."""
    consts = {}
    for r in A.rows:
        if not r:
            return None
        j = min(r)
        v = r[j]
        if v <= 0:
            return None
        if consts.setdefault(j, v) != v:
            return None
    return consts


def is_first_entries(A):
    """First-entries shape: every row's first nonzero entry is positive and
    rows starting in the same column share that entry."""
    return first_entry_constants(A) is not None
