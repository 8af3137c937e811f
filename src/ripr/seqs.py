"""Compressed coefficient sequences and Milliken-Taylor style value systems.

A compressed sequence has no zero terms and no two equal adjacent terms.
Given coefficients a = <a_0..a_k> and entries x_0..x_{n-1}, the system's
values are sums a_0*s_0 + ... + a_k*s_k where s_i sums x over a block F_i
and the blocks are nonempty index sets with max F_i < min F_{i+1}.
"""

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


def block_tuples(n, k):
    """All (F_0..F_k) with nonempty F_i subseteq range(n), max F_i < min F_{i+1}.

    Yield order is an implementation detail; callers needing the canonical
    enumeration order (by max of the union, then block shape) sort explicitly.
    """
    def rec(start, blocks_left):
        # choose F over [start, n) leaving room for blocks_left more blocks
        if blocks_left == 0:
            for size in range(1, n - start + 1):
                for f in combinations(range(start, n), size):
                    yield (f,)
            return
        for size in range(1, n - start + 1):
            for f in combinations(range(start, n), size):
                for rest in rec(f[-1] + 1, blocks_left - 1):
                    yield (f,) + rest

    if n >= k + 1:
        yield from rec(0, k)


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
    vals = []
    for tup in tuples:
        vals.append(sum(a[i] * sum(x[t] for t in f) for i, f in enumerate(tup)))
    prov = {}
    for i, v in enumerate(vals):
        if v not in prov:
            prov[v] = i
    return ImageSet(vals, prov)


def fs_image(x):
    """Finite sums over nonempty subsets of the entries (coefficients <1>)."""
    x = _check_entries(x)
    vals = []
    for size in range(1, len(x) + 1):
        for f in combinations(range(len(x)), size):
            vals.append(sum(x[t] for t in f))
    return ImageSet(vals)


def translated_mt_image(b, a, x):
    """b + each system value."""
    b = as_entry(b)
    base = mt_image(a, x)
    return ImageSet(b + v for v in base.values)


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
    vals = set()
    for tup in block_tuples(len(sets), len(a) - 1):
        idxs = [t for f in tup for t in f]
        for choice in product(*[sets[t] for t in idxs]):
            chosen = dict(zip(idxs, choice))
            vals.add(sum(a[i] * sum(chosen[t] for t in f) for i, f in enumerate(tup)))
    return ImageSet(vals)


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
