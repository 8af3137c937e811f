"""Digit expansions in positive and negative bases, and gap statistics.

For a prime (or any integer >= 2) p, every nonzero integer x has a unique
finite expansion x = sum d_i * (-p)^i with digits d_i in {0..p-1}.  The gap
statistics count occurrences of a fixed digit pattern around a run of zeros
in that expansion; they are the raw material for the separating colourings.
"""

from dataclasses import dataclass
from typing import NamedTuple


class DigitExpansion(NamedTuple):
    """Finite digit string, least significant first; base is p or -p."""

    base: int
    digits: tuple

    def digit(self, i):
        """Digit at position i, zero beyond the stored string."""
        if i < 0:
            raise ValueError("digit positions start at 0")
        return self.digits[i] if i < len(self.digits) else 0

    def support(self):
        return tuple(i for i, d in enumerate(self.digits) if d != 0)

    def min_support(self):
        for i, d in enumerate(self.digits):
            if d:
                return i
        raise ValueError("zero has empty support")

    def max_support(self):
        digits = self.digits
        for i in range(len(digits) - 1, -1, -1):
            if digits[i]:
                return i
        raise ValueError("zero has empty support")

    def value(self):
        v = 0
        for d in reversed(self.digits):
            v = v * self.base + d
        return v


_BASE_ERROR = "base parameter must be an integer >= 2"


def _check_base(p):
    if not isinstance(p, int) or p < 2:
        raise ValueError(_BASE_ERROR)


def base_digits(x, p):
    """Ordinary base-p expansion of a positive integer."""
    _check_base(p)
    if not isinstance(x, int) or x < 1:
        raise ValueError("base_digits wants a positive integer")
    out = []
    while x:
        x, d = divmod(x, p)
        out.append(d)
    return DigitExpansion(p, tuple(out))


def negabase_digits(x, p):
    """Base -p expansion of a nonzero integer, digits in {0..p-1}.

    Repeatedly divide keeping the remainder non-negative:
    x = q*(-p) + d with d in {0..p-1}, then continue on q.
    """
    if not isinstance(p, int) or p < 2:  # _check_base inlined: this runs per colour evaluation
        raise ValueError(_BASE_ERROR)
    if not isinstance(x, int) or x == 0:
        raise ValueError("negabase_digits wants a nonzero integer")
    out = []
    append = out.append
    while x:
        d = x % p
        append(d)
        x = (d - x) // p
    # the NamedTuple's own __new__ would parse keywords: build the tuple directly
    return tuple.__new__(DigitExpansion, (-p, tuple(out)))


def negabase_range_check(x, p, s):
    """Whether max support of the base -p expansion of x equals s,
    decided by the closed-form range for each parity of s.

    Even s admits x in [(p^s + p)/(p + 1), (p^(s+2) - 1)/(p + 1)];
    odd s admits x in [(-p^(s+2) + p)/(p + 1), (-p^s - 1)/(p + 1)].
    Comparisons are exact (cross-multiplied), no division.
    """
    _check_base(p)
    if s < 0:
        raise ValueError("support position must be >= 0")
    lhs = x * (p + 1)
    if s % 2 == 0:
        return p**s + p <= lhs <= p ** (s + 2) - 1
    return -(p ** (s + 2)) + p <= lhs <= -(p**s) - 1


def least_significant_digit(x, p):
    """Lowest nonzero digit of the base -p expansion (digit at min support).

    Equals x mod p unless p divides x, in which case trailing zero digits
    are skipped first.
    """
    _check_base(p)
    if not isinstance(x, int) or x == 0:
        raise ValueError("least_significant_digit wants a nonzero integer")
    while x % p == 0:
        x = -(x // p)
    return x % p


def top_digits(x, p):
    """Four most significant digits of the base -p expansion, top first.

    Defined when max support is at least 3; below that there is no
    four-digit block to read.
    """
    e = negabase_digits(x, p)
    s = e.max_support()
    if s < 3:
        raise ValueError("top_digits needs max support >= 3, got %d" % s)
    return (e.digit(s), e.digit(s - 1), e.digit(s - 2), e.digit(s - 3))


@dataclass(frozen=True)
class GapPattern:
    """Digit pattern bracketing a zero run: a single nonzero digit above the
    run, four digits just below it (most significant first, the first one
    nonzero)."""

    upper: int
    lower: tuple

    def __post_init__(self):
        if self.upper < 1:
            raise ValueError("upper digit must be nonzero")
        low = tuple(self.lower)
        object.__setattr__(self, "lower", low)
        if len(low) != 4:
            raise ValueError("lower block must hold exactly four digits")
        if low[0] < 1:
            raise ValueError("leading lower digit must be nonzero")
        if any(d < 0 for d in low):
            raise ValueError("digits are non-negative")

    def check_base(self, p):
        if self.upper >= p or any(d >= p for d in self.lower):
            raise ValueError("pattern digits must be below the base %d" % p)


def _gap_sites(digits):
    """(s, t) pairs of consecutive support positions with s even, s >= 4 and
    at least three zeros strictly between.  Positions below 4 can be neither
    end of a site, so the scan starts at 4."""
    out = []
    s = -1  # last support position seen; -1 is odd, so no site before the first
    for t in range(4, len(digits)):
        if digits[t]:
            if s % 2 == 0 and t > s + 3:
                out.append((s, t))
            s = t
    return out


def find_gaps(x, p, pattern):
    """All (s, t) sites in the base -p expansion of x matching the pattern:
    digit t is pattern.upper, digits s..s-3 are pattern.lower, only zeros
    strictly between s and t."""
    _check_base(p)
    pattern.check_base(p)
    digits = negabase_digits(x, p).digits
    return {
        (s, t)
        for s, t in _gap_sites(digits)
        if digits[t] == pattern.upper
        and (digits[s], digits[s - 1], digits[s - 2], digits[s - 3]) == pattern.lower
    }


def gap_residue(x, p, pattern):
    """Number of matching gap sites, reduced mod p (canonical 0..p-1)."""
    return len(find_gaps(x, p, pattern)) % p


def gap_tally(e):
    """Gap sites of an expansion counted by pattern, as a dict from the
    pattern's five digits (upper, then the lower block top first) to its
    site count, in order of first occurrence."""
    digits = e.digits
    counts = {}
    for s, t in _gap_sites(digits):
        key = (digits[t], digits[s], digits[s - 1], digits[s - 2], digits[s - 3])
        counts[key] = counts.get(key, 0) + 1
    return counts


def gap_counts(x, p):
    """Every pattern occurring in x with its site count, as a dict.

    One pass over the support; equivalent to find_gaps over all patterns.
    """
    return {
        GapPattern(key[0], key[1:]): count
        for key, count in gap_tally(negabase_digits(x, p)).items()
    }
