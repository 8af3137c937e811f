import random

import pytest
from hypothesis import given, strategies as st

from ripr.digits import (
    DigitExpansion,
    GapPattern,
    base_digits,
    find_gaps,
    gap_counts,
    gap_residue,
    least_significant_digit,
    negabase_digits,
    negabase_range_check,
    top_digits,
)


def test_negabase_anchors():
    assert negabase_digits(6, 2).digits == (0, 1, 0, 1, 1)
    assert negabase_digits(-1, 2).digits == (1, 1)
    assert negabase_digits(2401, 7).digits == (0, 0, 0, 0, 1)


def test_base_digits():
    e = base_digits(7, 5)
    assert e.digits == (2, 1)
    assert e.value() == 7
    assert e.min_support() == 0 and e.max_support() == 1
    with pytest.raises(ValueError):
        base_digits(0, 5)


@given(st.integers(min_value=-10**6, max_value=10**6), st.integers(min_value=2, max_value=9))
def test_negabase_round_trip(x, p):
    if x == 0:
        return
    e = negabase_digits(x, p)
    assert e.value() == x
    assert all(0 <= d < p for d in e.digits)
    assert e.digits[-1] != 0  # no leading zero


def test_sign_matches_top_parity():
    rng = random.Random(42)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7])
        x = rng.randint(1, 10**6) * rng.choice([1, -1])
        s = negabase_digits(x, p).max_support()
        assert (s % 2 == 0) == (x > 0)


def test_expansion_accessors():
    e = DigitExpansion(-3, (0, 2, 1))
    assert e.digit(0) == 0 and e.digit(2) == 1 and e.digit(9) == 0
    assert e.support() == (1, 2)
    with pytest.raises(ValueError):
        e.digit(-1)
    for empty in ((), (0, 0)):
        with pytest.raises(ValueError):
            DigitExpansion(-3, empty).max_support()
        with pytest.raises(ValueError):
            DigitExpansion(-3, empty).min_support()


def test_support_ends_match_support():
    rng = random.Random(5)
    for _ in range(500):
        digits = tuple(rng.choice((0, 0, 1, 2)) for _ in range(rng.randint(1, 9)))
        e = DigitExpansion(-3, digits)
        s = e.support()
        if s:
            assert (e.min_support(), e.max_support()) == (s[0], s[-1])
            assert e.value() == sum(d * (-3) ** i for i, d in enumerate(digits))


def test_range_check_anchors():
    # p=3, s=2 admits exactly 3..20
    members = [x for x in range(-30, 31) if x and negabase_range_check(x, 3, 2)]
    assert members == list(range(3, 21))
    # p=2: s=0 admits only 1, s=1 admits -2..-1
    assert [x for x in range(-8, 9) if x and negabase_range_check(x, 2, 0)] == [1]
    assert [x for x in range(-8, 9) if x and negabase_range_check(x, 2, 1)] == [-2, -1]


def test_range_check_tracks_expansion():
    rng = random.Random(11)
    for _ in range(400):
        p = rng.choice([2, 3, 5, 7])
        x = rng.randint(1, 5000) * rng.choice([1, -1])
        s = negabase_digits(x, p).max_support()
        for probe in range(0, s + 3):
            assert negabase_range_check(x, p, probe) == (probe == s)


def test_least_significant_digit():
    assert least_significant_digit(2500, 7) == 1
    assert least_significant_digit(6, 2) == 1  # trailing zero digit skipped
    assert least_significant_digit(49, 7) == 1
    for x in (-9, -1, 1, 6, 50):
        e = negabase_digits(x, 7)
        assert least_significant_digit(x, 7) == e.digit(e.min_support())
    with pytest.raises(ValueError):
        least_significant_digit(0, 7)


def test_top_digits():
    assert top_digits(2401, 7) == (1, 0, 0, 0)
    assert top_digits(-((-7) ** 5), 7)  # defined for max support >= 3
    with pytest.raises(ValueError):
        top_digits(5, 7)  # support too small


def test_gap_pattern_validation():
    with pytest.raises(ValueError):
        GapPattern(0, (1, 0, 0, 0))
    with pytest.raises(ValueError):
        GapPattern(1, (0, 1, 0, 0))
    with pytest.raises(ValueError):
        GapPattern(1, (1, 0, 0))
    with pytest.raises(ValueError):
        GapPattern(3, (1, 0, 0, 0)).check_base(3)  # digit 3 too big for base 3
    GapPattern(1, (1, 1, 0, 0)).check_base(2)  # all digits below 2, fine


def test_gap_sites_anchor():
    pat = GapPattern(1, (1, 0, 0, 0))
    x = (-7) ** 10 + (-7) ** 4
    assert find_gaps(x, 7, pat) == {(4, 10)}
    assert gap_residue(x, 7, pat) == 1
    assert find_gaps(2401, 7, pat) == set()
    assert find_gaps((-7) ** 4, 7, pat) == set()


def test_gap_needs_three_zeros_and_even_low_end():
    pat = GapPattern(1, (1, 0, 0, 0))
    # support at 4 and 8: three zeros between, which is just enough
    assert find_gaps((-7) ** 8 + (-7) ** 4, 7, pat) == {(4, 8)}
    x_short = (-7) ** 7 + (-7) ** 4  # only two zeros between
    assert find_gaps(x_short, 7, pat) == set()
    # low end at an odd position never matches
    x_odd = (-7) ** 11 + (-7) ** 5
    assert find_gaps(x_odd, 7, pat) == set()


def test_gap_residue_wraps():
    # supports every 6 positions give chained sites; with p=2 two sites reduce to 0
    x = sum((-2) ** (4 + 6 * i) for i in range(3))
    pat = GapPattern(1, (1, 0, 0, 0))
    assert len(find_gaps(x, 2, pat)) == 2
    assert gap_residue(x, 2, pat) == 0


def _gap_sites_from_support(x, p):
    supp = negabase_digits(x, p).support()
    return [(s, t) for s, t in zip(supp, supp[1:]) if s % 2 == 0 and s >= 4 and t > s + 3]


def test_gap_counts_agree_with_support_sites():
    rng = random.Random(9)
    for _ in range(3000):
        p = rng.choice([2, 3, 5, 7, 11])
        x = rng.randint(1, 10**rng.randint(3, 30)) * rng.choice([1, -1])
        e = negabase_digits(x, p)
        want = {}
        for s, t in _gap_sites_from_support(x, p):
            pat = GapPattern(e.digit(t), (e.digit(s), e.digit(s - 1), e.digit(s - 2), e.digit(s - 3)))
            want[pat] = want.get(pat, 0) + 1
        assert gap_counts(x, p) == want
        assert list(gap_counts(x, p)) == list(want)  # first-occurrence order


def test_gap_counts_agree_with_find_gaps():
    rng = random.Random(42)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7])
        x = rng.randint(1, 10**9) * rng.choice([1, -1])
        counts = gap_counts(x, p)
        for pat, n in counts.items():
            assert len(find_gaps(x, p, pat)) == n
        probe = GapPattern(rng.randint(1, p - 1) if p > 2 else 1,
                           (1, 0, rng.randint(0, p - 1), 0))
        if probe not in counts:
            assert find_gaps(x, p, probe) == set()
