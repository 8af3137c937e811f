"""Compressed coefficient sequences and Milliken-Taylor style value systems.

A compressed sequence has no zero terms and no two equal adjacent terms.
Given coefficients a = <a_0..a_k> and entries x_0..x_{n-1}, the system's
values are sums a_0*s_0 + ... + a_k*s_k where s_i sums x over a block F_i
and the blocks are nonempty index sets with max F_i < min F_{i+1}.

The module also holds _backtrack, the depth-first engine that walks the
system's rows here (_mt_row_maps) and every walk of the searches.
"""

import math
from fractions import Fraction
from itertools import combinations, product

from .ratcore import ImageSet, as_entry


class CompressedSeq(tuple):
    """A compressed sequence <a_0..a_k>: the tuple of its terms, checked on
    construction to be nonempty, free of zeros and free of equal adjacent
    terms.  Integral Fractions are stored as ints.  Being a tuple, it is
    immutable and hashable and equals the plain tuple of the same terms."""

    __slots__ = ()

    def __new__(cls, terms):
        terms = tuple(as_entry(t) for t in terms)
        if not terms:
            raise ValueError("compressed sequence must be nonempty")
        for t in terms:
            if t == 0:
                raise ValueError("compressed sequence cannot contain zero")
        for u, v in zip(terms, terms[1:]):
            if u == v:
                raise ValueError("adjacent terms must differ: %r" % (terms,))
        return super().__new__(cls, terms)

    def __repr__(self):
        return "CompressedSeq(%r)" % (tuple(self),)


def compress(terms):
    """Drop zero terms, then collapse runs of equal adjacent terms.

    compress((-2, 0, -2, 3, 3, 0, 3, 1, -2)) == CompressedSeq((-2, 3, 1, -2)).
    All-zero (or empty) input has no compressed form and raises.
    """
    kept = [as_entry(t) for t in terms if t != 0]
    if not kept:
        raise ValueError("no nonzero terms to compress")
    out = [kept[0]]
    for t in kept[1:]:
        if t != out[-1]:
            out.append(t)
    return CompressedSeq(out)


def coeff_seq(a):
    """Coerce a CompressedSeq or an already-compressed iterable of terms."""
    return a if isinstance(a, CompressedSeq) else CompressedSeq(a)


def _check_entries(x):
    x = tuple(as_entry(v) for v in x)
    if not x:
        raise ValueError("entry sequence must be nonempty")
    return x


def _backtrack(depth, children, state):
    """Depth-first walk over assignments of depth entries.

    children(d, state) is a generator over the candidates for entry d: it
    yields, in increasing order, the child state of each candidate that
    survives.  Yields the state of every complete assignment in
    lexicographic order.  Any exception raised in children ends the walk
    and propagates to the caller.  The engine counts nothing itself: the
    searches count their nodes, and stop on their budget, inside their own
    children generators; the Milliken-Taylor row walk counts nothing.

    The walk keeps its own stack of child generators, so its depth is not
    limited by the interpreter's recursion limit.
    """
    last = depth - 1
    d = 0
    its = [children(0, state)]
    while True:
        for child in its[d]:
            if d == last:
                yield child
            else:
                d += 1
                its.append(children(d, child))
                break
        else:
            if d == 0:
                return
            its.pop()
            d -= 1


def block_tuples(n, k):
    """All (F_0..F_k) with nonempty F_i subseteq range(n), max F_i < min F_{i+1}.

    Yield order is an implementation detail; callers needing the canonical
    enumeration order (by max of the union, then block shape) sort explicitly.
    """
    # the rows of the system with distinct terms 1..k+1, each entry filed by its term
    for row in _mt_row_maps(range(1, k + 2), n):
        blocks = [[] for _ in range(k + 1)]
        for t, i in row.items():
            blocks[i - 1].append(t)
        yield tuple(map(tuple, blocks))


def _mt_row_counts(k, n):
    """Rows of a k-term system over n entries, by the number s of entries a
    block tuple uses: s entries cut into k nonempty runs, in comb(s-1, k-1) ways."""
    return (math.comb(n, s) * math.comb(s - 1, k - 1) for s in range(k, n + 1))


def _mt_row_maps(a, n):
    """{entry: coefficient} of each a-system row over n entries, one per block
    tuple, in ascending order of the rows' dense tuples: a depth-first walk on
    _backtrack sets entry c, in ascending order, to 0, the last term a[i]
    placed or the next one, wherever enough entries are left for the terms
    still to come."""
    k = len(a)
    if n < k:
        return
    # steps[c][i + 1]: (value, index of the last term placed) for entry c after a[i]
    steps = [[sorted(s for s in [(0, i)] + [(a[j], j) for j in (i, i + 1) if 0 <= j < k]
                     if s[1] >= k - n + c) for i in range(-1, k)] for c in range(n)]
    row = {}

    def children(c, i):
        for value, j in steps[c][i + 1]:
            # re-insert entry c, so that the row's keys stay in ascending order
            row.pop(c, None)
            if value:
                row[c] = value
            yield j

    for _ in _backtrack(n, children, -1):
        yield dict(row)


def _canon_order(tup):
    # max of union, then index string, then block lengths to break ties like
    # ({0},{1,2}) vs ({0,1},{2})
    return (tup[-1][-1], tuple(i for f in tup for i in f), tuple(len(f) for f in tup))


def mt_image(a, x):
    """All system values for coefficients a at entries x; provenance records
    the first producing tuple's position in the canonical enumeration."""
    a = coeff_seq(a)
    x = _check_entries(x)
    tuples = sorted(block_tuples(len(x), len(a) - 1), key=_canon_order)
    vals = [sum(a[i] * sum(x[t] for t in f) for i, f in enumerate(tup)) for tup in tuples]
    prov = {}
    for i, v in enumerate(vals):
        prov.setdefault(v, i)
    return ImageSet(vals, prov)


def fs_image(x):
    """Finite sums over nonempty subsets of the entries (coefficients <1>)."""
    x = _check_entries(x)
    return ImageSet(sum(x[t] for t in f)
                    for size in range(1, len(x) + 1) for f in combinations(range(len(x)), size))


def translated_mt_image(b, a, x):
    """b + each system value."""
    b = as_entry(b)
    return ImageSet(b + v for v in mt_image(a, x).values)


def fs_over_sets(sets):
    """Finite sums where each chosen index contributes any one element of its set."""
    return mt_over_sets((1,), sets)


def mt_over_sets(a, sets):
    """System values where entry t ranges over the finite set sets[t],
    chosen independently at every use."""
    a = coeff_seq(a)
    sets = [sorted(set(s)) for s in sets]
    if any(not s for s in sets):
        raise ValueError("every entry set must be nonempty")
    return ImageSet(sum(c * v for c, v in zip(row.values(), choice))
                    for row in _mt_row_maps(a, len(sets))
                    for choice in product(*[sets[t] for t in row]))


def rationally_proportional(a, b):
    """Positive rational r with a = r*b termwise, or None."""
    a = coeff_seq(a)
    b = coeff_seq(b)
    if len(a) != len(b):
        return None
    r = Fraction(a[0]) / Fraction(b[0])
    if r <= 0:
        return None
    for u, v in zip(a, b):
        if Fraction(u) != r * Fraction(v):
            return None
    return r
