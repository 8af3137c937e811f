import random
from fractions import Fraction

import pytest

from ripr.colourings import (
    Colouring,
    _gap_free_range,
    digit_profile_colouring,
    mod_colouring,
    negabase_gap_colouring,
    prime_exponent_colouring,
    ratio_colouring,
    rational_valuation,
    table_colouring,
)
from ripr.digits import (
    GapPattern,
    gap_counts,
    gap_residue,
    least_significant_digit,
    negabase_digits,
    top_digits,
)


def test_colouring_input_validation():
    col = mod_colouring(3)
    with pytest.raises(ValueError):
        col.colour(0)
    with pytest.raises(TypeError):
        col.colour(Fraction(3, 2))
    with pytest.raises(TypeError):
        col.colour(True)


def test_mod_colouring():
    col = mod_colouring(3)
    assert [col.colour(x) for x in (1, 2, 3, 4)] == [1, 2, 0, 1]


def test_table_colouring():
    col = table_colouring({1: "a", 2: "b"})
    assert col.colour(1) == "a"
    with pytest.raises(ValueError):
        col.colour(3)


def test_rational_valuation():
    assert rational_valuation(12, 2) == 2
    assert rational_valuation(Fraction(1, 8), 2) == -3
    assert rational_valuation(Fraction(9, 2), 3) == 2
    with pytest.raises(ValueError):
        rational_valuation(0, 2)


def test_prime_exponent_params():
    col = prime_exponent_colouring(2, 3)
    assert (col.params["p"], col.params["q"]) == (2, 2)
    assert col.colour(2) == 1 and col.colour(3) == 0
    col41 = prime_exponent_colouring(4, 1)
    assert (col41.params["p"], col41.params["q"]) == (2, 3)
    assert col41.colour(4) == 2 and col41.colour(1) == 0


def test_prime_exponent_q_is_prime():
    # exponents 24 and 1 (34 and 1) differ by 23 (33); the least primes past
    # 24 and 34 are 29 and 37, not the 6k +- 1 composites 25 and 35
    for b, i, q in ((2**24, 24, 29), (2**34, 34, 37)):
        col = prime_exponent_colouring(b, 2)
        assert (col.params["i"], col.params["j"], col.params["q"]) == (i, 1, q)


def test_prime_exponent_skips_q_dividing_gap():
    # exponents 2 and -3 differ by 5, so q=5 would collapse them
    col = prime_exponent_colouring(4, Fraction(1, 8))
    assert col.params["i"] == 2 and col.params["j"] == -3
    assert col.params["q"] == 7
    for s_num, s_den in [(1, 1), (8, 1), (1, 4), (3, 8)]:
        s = Fraction(s_num, s_den)
        bs, cs = 4 * s, s / 8
        if bs.denominator == 1 and cs.denominator == 1 and bs >= 1 and cs >= 1:
            assert col.colour(int(bs)) != col.colour(int(cs))


def test_prime_exponent_guarantee_sweep():
    col = prime_exponent_colouring(2, 3)
    for s in range(1, 2001):
        assert col.colour(2 * s) != col.colour(3 * s)
    with pytest.raises(ValueError):
        prime_exponent_colouring(3, 3)
    with pytest.raises(ValueError):
        prime_exponent_colouring(-2, 3)


def test_ratio_colouring_guarantees():
    cases = {2: [1, 2, 3, 8], Fraction(3, 2): [2, 4, 6, 16], Fraction(1, 2): [2, 4, 10]}
    for alpha, xs in cases.items():
        col = ratio_colouring(alpha)
        for x in xs:
            ax = Fraction(alpha) * x
            assert ax.denominator == 1
            assert col.colour(x) != col.colour(int(ax))
    # composite ratios work through repeated division
    col4 = ratio_colouring(4)
    for x in (1, 2, 4, 8, 64):
        assert col4.colour(x) != col4.colour(4 * x)
    with pytest.raises(ValueError):
        ratio_colouring(1)
    with pytest.raises(ValueError):
        ratio_colouring(0)


def test_digit_profile_colouring():
    col = digit_profile_colouring(5)
    assert col.colour(7) == (2, 1, 2, 1)
    assert col.colour(32) == (2, 1, 1, 2)
    assert col.colour(1) == (1, 1, 0, 0)


def test_negabase_gap_validation():
    with pytest.raises(ValueError):
        negabase_gap_colouring(6, (1,))  # not prime
    with pytest.raises(ValueError):
        negabase_gap_colouring(7, (1, 4))  # 2*4 >= 7
    with pytest.raises(ValueError):
        negabase_gap_colouring(3, (1, -1, 1, -1))  # too many coefficients
    with pytest.raises(ValueError):
        negabase_gap_colouring(7, ())


def test_negabase_gap_reserved_class():
    col = negabase_gap_colouring(7, (1, 2))
    assert col.colour(1) == ("small",)
    assert col.colour(7**4) == ("small",)
    assert col.colour(7**4) in col.reserved
    big = col.colour(7**4 + 1)
    assert big[0] == "big" and big not in col.reserved


def test_negabase_gap_components():
    col = negabase_gap_colouring(7, (1, 2))
    x = 7**4 + 60
    kind, lead, low, finger = col.colour(x)
    assert lead == top_digits(x, 7)
    assert low == x % 7
    for (a, pat), r in finger:
        assert r == gap_residue(a * x, 7, GapPattern(pat[0], pat[1:]))
        assert 1 <= r < 7


def _gap_colour_by_composition(p, coeffs, x):
    """The gap colour built from the separate digit functions, which expand
    x once for the top digits, once for the lowest digit and once per
    coefficient for the gap counts."""
    if x <= p**4:
        return ("small",)
    finger = []
    for a in dict.fromkeys(coeffs):
        for pat, count in gap_counts(a * x, p).items():
            if count % p:
                finger.append(((a, (pat.upper,) + pat.lower), count % p))
    return ("big", top_digits(x, p), least_significant_digit(x, p), tuple(sorted(finger)))


_GAP_CASES = [(7, (1, 2)), (11, (1, -2, 3)), (13, (2, 3)), (7, (-1, 2))]


@pytest.mark.parametrize("p,coeffs", _GAP_CASES)
def test_negabase_gap_one_pass_matches_composition(p, coeffs):
    # the one-pass colour must equal the composition byte for byte; _fn skips the memo
    fn = negabase_gap_colouring(p, coeffs)._fn
    bad = [x for x in range(1, 10**5 + 1) if fn(x) != _gap_colour_by_composition(p, coeffs, x)]
    assert not bad, bad[:5]
    rng = random.Random(p * 100 + len(coeffs))
    xs = [rng.randrange(1, 10**30) for _ in range(2 * 10**4)]
    bad = [x for x in xs if repr(fn(x)) != repr(_gap_colour_by_composition(p, coeffs, x))]
    assert not bad, bad[:5]


def test_gap_free_range_counts_digits():
    # fewer than nine digits exactly when -(p^9 - p) <= v * (p + 1) <= p^8 + p - 1,
    # checked at every v within 300 of both ends of the range
    for p in (3, 5, 7, 11, 13):
        lo, hi = _gap_free_range(p)
        for v in [v for edge in (lo, hi) for v in range(edge - 300, edge + 301)]:
            short = len(negabase_digits(v, p).digits) < 9
            assert (lo <= v <= hi) == short, (p, v)
            assert (-(p**9 - p) <= v * (p + 1) <= p**8 + p - 1) == short, (p, v)


@pytest.mark.parametrize("p,coeffs", _GAP_CASES + [(3, (1,))])
def test_negabase_gap_matches_composition_where_gap_sites_begin(p, coeffs):
    # a*x gains its ninth digit past hi (a > 0) or below lo (a < 0): every x
    # within 300 of that edge, for every coefficient a, on both sides of it.
    # Those a*x have no gap site yet, so each a also takes the x with a*x = y,
    # y a value past the edge with exactly one: digits 1 at positions 4 and 8
    # (9 when a < 0) and r at 0, r the least that makes a divide y
    fn = negabase_gap_colouring(p, coeffs)._fn
    lo, hi = _gap_free_range(p)
    xs = set()
    for a in coeffs:
        edge = hi // a if a > 0 else lo // a  # the last x with a*x inside [lo, hi]
        assert len(negabase_digits(a * edge, p).digits) < 9
        assert len(negabase_digits(a * (edge + 1), p).digits) >= 9
        xs.update(range(max(1, edge - 300), edge + 301))
        y = (p**8 if a > 0 else -(p**9)) + p**4
        y += next(r for r in range(p) if (y + r) % a == 0)
        assert list(gap_counts(y, p).values()) == [1]
        xs.add(y // a)
    bad = [x for x in sorted(xs) if repr(fn(x)) != repr(_gap_colour_by_composition(p, coeffs, x))]
    assert not bad, bad[:5]


def test_negabase_gap_memoizes():
    col = negabase_gap_colouring(7, (1,))
    v1 = col.colour(123456)
    assert col._memo[123456] == v1
    assert col.colour(123456) is v1
    # every value of one colour shares one colour object
    for col in (col, digit_profile_colouring(5)):
        for x in range(1, 20001):
            col.colour(x)
        memo = col._memo
        assert len({id(c) for c in memo.values()}) == len(set(memo.values())) < len(memo)


def test_gap_additivity_hand_case():
    # far-apart supports add their gap counts; a unit coefficient with the
    # marker digit at the bottom of the high part contributes one extra site
    p = 7
    x = 3 * 7**6 + 2401  # supports well below position 12
    y = (-7) ** 14  # single digit far above
    pat_v = 1  # the top digit of y seen from x's leading block
    lead = top_digits(x, p)
    pat = GapPattern(pat_v, lead)
    base = gap_residue(x, p, pat) + gap_residue(y, p, pat)
    crossing = 1 if negabase_digits(y, p).digit(14) == pat_v else 0
    got = gap_residue(x + y, p, pat)
    assert got == (base + crossing) % p
