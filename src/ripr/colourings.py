"""Finite colourings of the positive integers, built for separation arguments.

A Colouring is a total deterministic map on x >= 1.  Colour values are
structured tuples rather than dense integers: the gap colouring takes
astronomically many colours, but any one experiment only ever observes
finitely many of them, so nothing is gained by numbering them.
"""

from fractions import Fraction

from .digits import base_digits, gap_tally, negabase_digits


class Colouring:
    """kind tags the construction; reserved lists colours that separation
    searches must not accept as a common colour (see check_separation).

    A memoised colouring must return hashable colours: its memo keeps one
    object per distinct colour, shared by every value of that colour."""

    def __init__(self, kind, fn, reserved=frozenset(), params=None, memoize=False):
        self.kind = kind
        self._fn = fn
        self.reserved = frozenset(reserved)
        self.params = dict(params or {})
        self._memo = {} if memoize else None
        self._canon = {}  # each colour the memo holds, keyed by itself

    def colour(self, x):
        # plain ints skip both isinstance checks: searches call this per candidate
        if type(x) is not int and (isinstance(x, bool) or not isinstance(x, int)):
            raise TypeError("colourings are defined on positive integers")
        if x < 1:
            raise ValueError("colourings are defined on positive integers")
        memo = self._memo
        if memo is None:
            return self._fn(x)
        c = memo.get(x)
        if c is None:
            c = self._fn(x)
            c = memo[x] = self._canon.setdefault(c, c)
        return c

    def __repr__(self):
        return "Colouring(%s)" % self.kind


def mod_colouring(m):
    """x mod m."""
    if m < 1:
        raise ValueError("modulus must be positive")
    return Colouring("mod", lambda x: x % m, params={"m": m})


class _Table(dict):
    """A colour table whose lookups outside it raise ValueError."""

    __slots__ = ()

    def __missing__(self, x):
        raise ValueError("value %d not covered by the table" % x)


def table_colouring(table):
    """Explicit finite table; values outside it raise ValueError."""
    return Colouring("table", _Table(table).__getitem__)


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def rational_valuation(q, p):
    """Exponent of the prime p in the nonzero rational q (negative allowed)."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("zero has no valuation")
    e = 0
    num, den = abs(q.numerator), q.denominator
    while num % p == 0:
        num //= p
        e += 1
    while den % p == 0:
        den //= p
        e -= 1
    return e


def prime_exponent_colouring(b, c):
    """Colours x by (exponent of p in x) mod q, with p a prime where b and c
    carry different exponents i and j, and q the least prime exceeding
    max(|i|, |j|) that does not divide i - j.  Guarantees
    colour(b*s) != colour(c*s) whenever both are positive integers.
    """
    b, c = Fraction(b), Fraction(c)
    if b <= 0 or c <= 0 or b == c:
        raise ValueError("need distinct positive rationals")
    ratio = b / c
    p = min(set(_prime_factors(ratio.numerator)) | set(_prime_factors(ratio.denominator)))
    i = rational_valuation(b, p)
    j = rational_valuation(c, p)
    q = max(abs(i), abs(j)) + 1
    while not _is_prime(q) or (i - j) % q == 0:
        q += 1

    def fn(x):
        return rational_valuation(x, p) % q

    return Colouring(
        "prime-exponent",
        fn,
        params={"b": b, "c": c, "p": p, "q": q, "i": i, "j": j},
        memoize=True,
    )


def _prime_factors(n):
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def ratio_colouring(ratio):
    """Two-colouring separating x from ratio*x whenever both are positive
    integers: with ratio = u/v in lowest terms, colour by the parity of the
    u-adic valuation (v-adic when u is 1)."""
    ratio = Fraction(ratio)
    if ratio <= 0 or ratio == 1:
        raise ValueError("ratio must be positive and different from 1")
    u, v = ratio.numerator, ratio.denominator
    base = u if u > 1 else v

    def fn(x):
        e = 0
        while x % base == 0:
            x //= base
            e += 1
        return e % 2

    return Colouring("ratio", fn, params={"u": u, "v": v, "base": base})


def digit_profile_colouring(p):
    """Colours x by (first digit, top digit, digit below the top, top position
    mod 3) of its ordinary base-p expansion: at most 3p^3 colours."""
    if p < 2:
        raise ValueError("base must be >= 2")

    def fn(x):
        e = base_digits(x, p)
        m, big = e.min_support(), e.max_support()
        below = e.digit(big - 1) if big >= 1 else 0
        return (e.digit(m), e.digit(big), below, big % 3)

    return Colouring("digit-profile", fn, params={"p": p}, memoize=True)


def _gap_free_range(p):
    """(lo, hi) such that a nonzero v has fewer than nine base -p digits,
    too few for a gap site (s >= 4 and t >= s + 4), exactly when
    lo <= v <= hi.  The union of digits.negabase_range_check's ranges for
    max support 0 to 7: -(p^9 - p) <= v * (p + 1) <= p^8 - 1."""
    return -(p**9 - p) // (p + 1), (p**8 - 1) // (p + 1)


def negabase_gap_colouring(p, coeffs):
    """The gap-statistics colouring driving the rapid-growth separation.

    Values up to p^4 share one reserved colour.  Above that, x is coloured by
    its four top negabase digits, its least significant digit, and the mod-p
    gap counts of a*x for every coefficient a and every gap pattern (recorded
    sparsely: patterns with residue 0 are omitted).

    One pass: x is expanded once, for its top digits, its least significant
    digit and, when 1 is a coefficient, its gap counts.  Any other a*x is
    expanded once, and only when it has the nine digits that a gap site
    needs; a shorter one is recognised by its range (_gap_free_range) and
    adds no gap count.  Up to free, the last x whose every a*x lies in that
    range (360,300 for p = 7 and coefficients 1, 2), no a*x can have a gap
    site: the colour is read from x's expansion alone, with no gap counts.
    """
    if not _is_prime(p):
        raise ValueError("base must be prime")
    coeffs = tuple(coeffs)
    if not coeffs:
        raise ValueError("need at least one coefficient")
    if len(coeffs) >= p:
        raise ValueError("base must exceed the coefficient count")
    seen = []
    for a in coeffs:
        if a == 0:
            raise ValueError("coefficients must be nonzero")
        if 2 * abs(a) >= p:
            raise ValueError("base must exceed twice each |coefficient|")
        if a not in seen:
            seen.append(a)
    cutoff = p**4
    lo, hi = _gap_free_range(p)
    free = min(hi // a if a > 0 else lo // a for a in seen)  # the last x with every a*x in range

    def fn(x):
        if x <= cutoff:
            return ("small",)
        own = negabase_digits(x, p)
        d = own.digits
        # x > p^4 puts the max support of x at 4 or above, so four top digits exist
        lead, low = d[:-5:-1], d[0] or next(filter(None, d))
        if x <= free:
            return ("big", lead, low, ())
        finger = []
        for a in seen:
            ax = a * x
            if lo <= ax <= hi:
                continue
            for pat, count in gap_tally(own if a == 1 else negabase_digits(ax, p)).items():
                r = count % p
                if r:
                    finger.append(((a, pat), r))
        return ("big", lead, low, tuple(sorted(finger)))

    return Colouring(
        "notrapid",
        fn,
        reserved=frozenset({("small",)}),
        params={"p": p, "coeffs": coeffs},
        memoize=True,
    )

