import math
import random
import time
import tracemalloc
from contextlib import nullcontext
from fractions import Fraction
from itertools import product

import pytest

import ripr.search as search_module
from ripr.cli import parse_family
from ripr.colourings import (
    Colouring,
    digit_profile_colouring,
    mod_colouring,
    negabase_gap_colouring,
    ratio_colouring,
    table_colouring,
)
from ripr.matgen import (
    _check_budget,
    arithmetic_progression_matrix,
    deuber_matrix,
    finite_sums_matrix,
    identity_matrix,
    mpc_matrix,
    schur_matrix,
)
from ripr.ratcore import DimensionMismatch, FiniteMatrix, SparseRow, apply, image
from ripr.search import (
    _BudgetHit,
    _Classes,
    _Counter,
    _compile_rows,
    _mt_systems,
    _as_int_value,
    _image_plan,
    _images,
    _node_rows,
    DEFAULT_NODE_BUDGET,
    BudgetExceeded,
    SearchConfig,
    check_separation,
    certify_ipr,
    find_dominated_assignment,
    find_monochromatic,
    forcing_bound,
    is_rapid,
    make_rapid,
    translate_witness,
)
from ripr.seqs import (
    _mt_row_counts,
    block_tuples,
    coeff_seq,
    fs_image,
    mt_image,
    translated_mt_image,
)


def _brute_least(A, col, cfg):
    """Full enumeration oracle for the least monochromatic witness."""
    span = range(cfg.min_entry, cfg.variable_bound + 1)
    for x in product(span, repeat=A.width):
        if cfg.distinct_entries and len(set(x)) != len(x):
            continue
        vals = apply(A, x)
        ints = []
        ok = True
        for v in vals:
            if isinstance(v, Fraction):
                if v.denominator != 1:
                    ok = False
                    break
                v = int(v)
            if v < 1:
                ok = False
                break
            ints.append(v)
        if not ok:
            continue
        if cfg.distinct_image:
            seen = {}
            for r, v in zip(A.rows, ints):
                k = r.key()
                if seen.setdefault(v, k) != k:
                    ok = False
                    break
            if not ok:
                continue
        if len({col.colour(v) for v in ints}) == 1:
            return x
    return None


def test_schur_least_witness_default_and_distinct():
    col = mod_colouring(2)
    res = find_monochromatic(schur_matrix(), col, SearchConfig(10))
    assert res.witness.assignment == (2, 2)
    assert res.witness.image == {2, 4}
    assert res.witness.colour == 0
    assert res.exhausted
    strict = SearchConfig(10, distinct_entries=True, distinct_image=True)
    res2 = find_monochromatic(schur_matrix(), col, strict)
    assert res2.witness.assignment == (2, 4)
    assert res2.witness.image == {2, 4, 6}


def test_search_matches_brute_oracle():
    rng = random.Random(42)
    mats = [
        schur_matrix(),
        arithmetic_progression_matrix(3),
        mpc_matrix(2, 2, 1),
        deuber_matrix(2, 1, 1),
    ]
    for _ in range(12):
        w = rng.randint(1, 3)
        dense = [
            [rng.randint(-2, 3) for _ in range(w)] for _ in range(rng.randint(1, 3))
        ]
        try:
            mats.append(FiniteMatrix.from_dense(dense, w, allow_duplicate_rows=True))
        except ValueError:
            continue
    for M in mats:
        for colours in (2, 3):
            for flags in ((False, False), (True, False), (True, True)):
                cfg = SearchConfig(
                    6, distinct_entries=flags[0], distinct_image=flags[1]
                )
                col = mod_colouring(colours)
                res = find_monochromatic(M, col, cfg)
                expect = _brute_least(M, col, cfg)
                got = res.witness.assignment if res.witness else None
                assert got == expect, (M.dense(), colours, flags)
                assert res.exhausted


def test_search_worker_counts_agree():
    # workers must not change the witness, nodes, exhaustion or the budget
    col = mod_colouring(3)
    cfg = SearchConfig(12)
    base = find_monochromatic(finite_sums_matrix(3), col, cfg, workers=1)
    for w in (2, 5, 8):
        other = find_monochromatic(finite_sums_matrix(3), col, cfg, workers=w)
        assert other.witness.assignment == base.witness.assignment
        assert other.exhausted == base.exhausted
    f4 = finite_sums_matrix(4)
    for budget, nodes in ((None, 132), (10, 11)):
        cfg = SearchConfig(60, node_budget=budget)
        base = find_monochromatic(f4, col, cfg)
        assert base.nodes == nodes
        for w in (2, 8):
            assert find_monochromatic(f4, col, cfg, workers=w) == base
        base = translate_witness(col, (2, 1), 3, 10, 12, node_budget=budget)
        for w in (2, 8):
            assert translate_witness(col, (2, 1), 3, 10, 12, budget, w) == base


def _mono_colour(col, values):
    """Common colour of a nonempty set of positive integers, or None (also
    when some value is not a positive integer)."""
    values = list(values)
    if not values or any(v < 1 or v != int(v) for v in values):
        return None
    colours = {col.colour(int(v)) for v in values}
    return colours.pop() if len(colours) == 1 else None


def _distinct_prefixes(length, bound):
    return [x for x in product(range(1, bound + 1), repeat=length) if len(set(x)) == length]


def _brute_dominated(A, B, x, y_bound):
    target = set(apply(A, x))
    for y in product(range(1, y_bound + 1), repeat=B.width):
        if all(v in target for v in apply(B, y)):
            return y
    return None


def _brute_separation(col, a, b, length, bound):
    prefixes = _distinct_prefixes(length, bound)
    ys = [(y, _mono_colour(col, mt_image(b, y))) for y in prefixes]
    for x in prefixes:
        c = _mono_colour(col, mt_image(a, x))
        if c is None or c in col.reserved:
            continue
        for y, cy in ys:
            if cy == c:
                return {"x": x, "y": y, "colour": c}
    return None


def _brute_translate(col, a, length, b_bound, x_bound):
    prefixes = _distinct_prefixes(length, x_bound)
    for b in range(1, b_bound + 1):
        for x in prefixes:
            c = _mono_colour(col, list(fs_image(x)) + list(translated_mt_image(b, a, x)))
            if c is not None:
                return (b, x, c)
    return None


def test_dominated_assignment_matches_brute_oracle():
    rng = random.Random(42)
    found = trials = 0
    while trials < 60:
        wa, wb = rng.randint(1, 3), rng.randint(1, 3)
        dense = [[rng.randint(-1, 2) for _ in range(wb)] for _ in range(rng.randint(1, 3))]
        B = FiniteMatrix.from_dense(dense, wb, allow_duplicate_rows=True)
        A = finite_sums_matrix(wa)
        x = tuple(rng.randint(1, 6) for _ in range(wa))
        y_bound = rng.randint(1, 6)
        res = find_dominated_assignment(A, B, x, y_bound)
        got = res.witness.assignment if res.witness else None
        assert got == _brute_dominated(A, B, x, y_bound), (dense, x, y_bound)
        assert res.exhausted
        found += got is not None
        trials += 1
    assert 0 < found < trials


def test_separation_matches_brute_oracle():
    rng = random.Random(42)
    cols = [mod_colouring(2), mod_colouring(3), ratio_colouring(2),
            negabase_gap_colouring(7, (1, 2))]
    seqs = [(1,), (2,), (2, 1), (1, 2), (3, 1), (1, -1), (1, 2, 1)]
    outcomes = []
    while len(outcomes) < 40:
        col = rng.choice(cols)
        a, b = rng.sample(seqs, 2)
        length, bound = rng.randint(1, 3), rng.randint(1, 8)
        rep = check_separation(col, a, b, length, bound)
        if rep.outcome == "proportional":
            continue
        want = _brute_separation(col, a, b, length, bound)
        assert rep.witness == want, (col, a, b, length, bound)
        assert rep.outcome == ("witness" if want else "none-within-bounds")
        outcomes.append(rep.outcome)
    assert set(outcomes) == {"witness", "none-within-bounds"}


def test_translate_matches_brute_oracle():
    rng = random.Random(42)
    cols = [mod_colouring(2), mod_colouring(3), ratio_colouring(2), digit_profile_colouring(5)]
    seqs = [(1,), (2, 1), (1, 2), (3, 1), (1, -1)]
    found = 0
    for _ in range(40):
        col, a = rng.choice(cols), rng.choice(seqs)
        length = rng.randint(len(a), 3)
        b_bound, x_bound = rng.randint(1, 5), rng.randint(1, 7)
        res = translate_witness(col, a, length, b_bound, x_bound)
        assert res.witness == _brute_translate(col, a, length, b_bound, x_bound), (
            col, a, length, b_bound, x_bound)
        assert res.exhausted
        found += res.witness is not None
    assert 0 < found < 40


def test_separation_rational_coefficients_match_brute_oracle():
    # non-integral values prune, integral Fraction values are coloured as ints
    rng = random.Random(7)
    half = Fraction(1, 2)
    seqs = [(half,), (half, 1), (1, half), (Fraction(3, 2), 1), (2, 1), (1,), (1, Fraction(-1, 3))]
    outcomes = []
    while len(outcomes) < 40:
        col = rng.choice([mod_colouring(2), mod_colouring(3), ratio_colouring(2)])
        a, b = rng.choice(seqs[:4]), rng.choice(seqs)
        length, bound = rng.randint(1, 3), rng.randint(1, 8)
        rep = check_separation(col, a, b, length, bound)
        if rep.outcome == "proportional":
            continue
        want = _brute_separation(col, a, b, length, bound)
        assert rep.witness == want, (col, a, b, length, bound)
        outcomes.append(rep.outcome)
    assert set(outcomes) == {"witness", "none-within-bounds"}
    # x/2 over x = (6, 12) gives 3, 6, 9; 2*1 + 4 = 6
    rep = check_separation(mod_colouring(3), (half,), (2, 1), 2, 14)
    assert rep.witness == {"x": (6, 12), "y": (1, 4), "colour": 0}


def test_translate_rational_coefficients_match_brute_oracle():
    rng = random.Random(8)
    half = Fraction(1, 2)
    seqs = [(half, 1), (half,), (1, half), (Fraction(-1, 2), 1)]
    found = 0
    for _ in range(40):
        col, a = rng.choice([mod_colouring(2), mod_colouring(3)]), rng.choice(seqs)
        length = rng.randint(len(a), 3)
        b_bound, x_bound = rng.randint(1, 5), rng.randint(1, 7)
        res = translate_witness(col, a, length, b_bound, x_bound)
        assert res.witness == _brute_translate(col, a, length, b_bound, x_bound), (
            col, a, length, b_bound, x_bound)
        found += res.witness is not None
    assert 0 < found < 40
    # finite sums 6, 3, 9 and 3 + 6/2 + 3 = 9, all 0 mod 3
    res = translate_witness(mod_colouring(3), (half, 1), 2, 4, 12)
    assert res.witness == (3, (6, 3), 0)


def _every_budget(run):
    """run(budget) at every budget from 0 to one past the unbudgeted node count."""
    full = run(None)
    # every case here takes a few thousand nodes at most: a walk that lost its
    # bounds fails here instead of running a budget per node
    assert full.nodes <= 20000, full
    return [run(budget) for budget in range(full.nodes + 2)] + [full]


def test_class_candidates_match_span_walk(monkeypatch):
    # The oracle is the walk that tries every span value at every depth: with no
    # depth marked as holding the unit row x_d, no search narrows its candidates.
    half = Fraction(1, 2)
    mono = [
        (finite_sums_matrix(3), mod_colouring(3),
         SearchConfig(12, min_entry=2, distinct_entries=True)),
        (finite_sums_matrix(3), mod_colouring(4), SearchConfig(9, distinct_entries=True)),
        (finite_sums_matrix(3), ratio_colouring(2),
         SearchConfig(8, distinct_entries=True, distinct_image=True)),
        (schur_matrix(), mod_colouring(5), SearchConfig(12, min_entry=2, distinct_image=True)),
        # values past the machine integers of the class arrays
        (schur_matrix(), mod_colouring(4), SearchConfig(2**63 + 6, min_entry=2**63 - 3)),
        # a rational row ahead of x_1 at its depth
        (FiniteMatrix.from_dense([[1, 0], [half, 1], [0, 1]]), mod_colouring(5),
         SearchConfig(12)),
        (FiniteMatrix.from_dense([[1, 1], [0, 1], [half, half]]), mod_colouring(4),
         SearchConfig(12, distinct_entries=True)),
        # x_1 / 2 is no unit row, so entry 1 tries the whole span
        (FiniteMatrix.from_dense([[1, 0], [0, half], [1, 1]]), ratio_colouring(2),
         SearchConfig(12)),
        # no unit row at all: nothing narrows
        (FiniteMatrix.from_dense([[2, 1], [1, 3]]), mod_colouring(7), SearchConfig(6)),
        # a repeated unit row: under distinct_image x_1 still enters the owner map, where
        # 2 x_0 may collide with it
        (FiniteMatrix.from_dense([[1, 0], [0, 1], [0, 1], [2, 0], [1, 1]],
                                 allow_duplicate_rows=True),
         mod_colouring(3), SearchConfig(12, distinct_image=True)),
        # Spans past 64 values, whose classes are masks: x_0 + x_1 is tested on the
        # masks, while x_0 + 2 x_1 (top 2) and x_0 / 2 + x_1 (fractional) are
        # tested per candidate
        (FiniteMatrix.from_dense([[1, 0], [0, 1], [1, 1], [1, 2]]), mod_colouring(3),
         SearchConfig(70)),
        (FiniteMatrix.from_dense([[1, 0], [0, 1], [half, 1]]), mod_colouring(3),
         SearchConfig(70)),
        # x_0 - x_1 + x_2: a shift while x_0 >= x_1, tested per candidate below
        (FiniteMatrix.from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, -1, 1]]),
         mod_colouring(2), SearchConfig(70, distinct_entries=True)),
        (finite_sums_matrix(3), mod_colouring(3),
         SearchConfig(75, min_entry=5, distinct_entries=True)),
        # masks over values past the machine integers; the shifts there exceed 8 * 81
        (schur_matrix(), mod_colouring(5),
         SearchConfig(2**63 + 40, min_entry=2**63 - 40, distinct_entries=True)),
        # a 65th colour turns the masks into filed classes mid-walk: inside the span,
        # and, past the machine integers, into lists
        (schur_matrix(), _fives(), SearchConfig(90)),
        (schur_matrix(), _fives(), SearchConfig(2**63 + 60, min_entry=2**63 - 40)),
    ]
    dominate = [
        (finite_sums_matrix(3), arithmetic_progression_matrix(3), (1, 4, 16), 22),
        (finite_sums_matrix(3), parse_family("fprime:3"), (1, 3, 9), 14),
        (finite_sums_matrix(2), FiniteMatrix.from_dense([[1, 1], [0, 2]]), (1, 3), 9),
        # y_0 and y_1 walk the same target values, none of them a witness
        (finite_sums_matrix(3), FiniteMatrix.from_dense([[1, 0], [0, 1], [1, 1], [1, 2]]),
         (1, 4, 16), 21),
        # a masked span: entry 0 has no shift row, entry 1 shifts by y_0; the target
        # holds 68, one past the span
        (finite_sums_matrix(3), FiniteMatrix.from_dense([[1, 0], [0, 1], [1, 1], [1, 2]]),
         (1, 4, 64), 67),
    ]
    translate = [
        (mod_colouring(3), (2, 1), 3, 3, 8),
        (mod_colouring(4), (1,), 2, 3, 9),
        (digit_profile_colouring(5), (2, 1), 2, 2, 12),
        # a masked span, b past it
        (mod_colouring(4), (1,), 2, 80, 66),
    ]

    separate = [
        (mod_colouring(3), (1,), (2, 1), 2, 12),
        (mod_colouring(3), (2, 1), (1,), 2, 12),
        (digit_profile_colouring(5), (1,), (2, 1), 2, 30),
        (_mod3_reserving(0), (1,), (2, 1), 2, 12),
    ]

    def runs():
        out = []
        for col, a, b, length, bound in separate:
            out.append(_every_budget(
                lambda budget: check_separation(col, a, b, length, bound, budget)))
        for A, col, cfg in mono:
            out.append(_every_budget(lambda budget: find_monochromatic(A, col, SearchConfig(
                cfg.variable_bound, cfg.min_entry, cfg.distinct_entries, cfg.distinct_image,
                node_budget=budget))))
        for A, B, x, y_bound in dominate:
            out.append(_every_budget(
                lambda budget: find_dominated_assignment(A, B, x, y_bound, budget)))
        for col, a, length, b_bound, x_bound in translate:
            out.append(_every_budget(
                lambda budget: translate_witness(col, a, length, b_bound, x_bound, budget)))
        return out

    got = runs()
    # Narrowed but checking every row, the unit row included: every search,
    # separation too, must answer as when a class member skips its own row.
    unit_rows = search_module._unit_rows
    monkeypatch.setattr(search_module, "_unit_rows", lambda by_top: [
        None if rest is None else rows for rows, rest in zip(by_top, unit_rows(by_top))])
    assert runs() == got
    # Separation counts only the class members it tries, so its nodes are not
    # those of the span walk; the counted searches must match it exactly.
    monkeypatch.setattr(search_module, "_unit_rows", lambda by_top: [None] * len(by_top))
    want = runs()
    assert got[len(separate):] == want[len(separate):]
    for mine, span in zip(got[:len(separate)], want[:len(separate)]):
        assert (mine[-1].outcome, mine[-1].witness) == (span[-1].outcome, span[-1].witness)
    witnesses = [r[-1].witness is not None for r in got]
    assert any(witnesses) and not all(witnesses)


def _fives():
    # multiples of 5 share one colour; every other value has a colour of its own
    return Colouring("fives", lambda v: 0 if v % 5 == 0 else v)


def test_class_members_are_not_coloured_again(monkeypatch):
    # x_d drawn from the common colour's class needs no colour lookup of its own
    calls = []
    colour = Colouring.colour
    monkeypatch.setattr(Colouring, "colour", lambda self, v: calls.append(v) or colour(self, v))
    res = find_monochromatic(finite_sums_matrix(3), mod_colouring(3),
                             SearchConfig(40, distinct_entries=True))
    assert (res.witness.assignment, res.nodes) == ((3, 6, 9), 98)
    assert len(calls) <= 72  # 99 when every row value is coloured


def test_sparse_class_walk_colours_about_its_budget(monkeypatch):
    # Colour 0 is the class {1}: once x_0 = 1 sets it, entry 1 has no member
    # left, and the walk must stop colouring where the budget runs out, not
    # colour the rest of the span.
    coloured = []

    def sparse():
        coloured.clear()
        return Colouring("sparse", lambda x: coloured.append(x) or int(x > 1))

    budget, bound = 500, 10**6

    def runs():
        out = [find_monochromatic(schur_matrix(), sparse(),
                                  SearchConfig(bound, distinct_entries=True, node_budget=budget))]
        out.append(len(coloured))
        out.append(translate_witness(sparse(), (2, 1), 2, 1, bound, budget))
        out.append(len(coloured))
        return out

    got = runs()
    monkeypatch.setattr(search_module, "_unit_rows", lambda by_top: [None] * len(by_top))
    want = runs()
    assert got[0::2] == want[0::2]
    assert got[0].nodes == got[2].nodes == budget + 1 and not got[0].exhausted
    # each node colours its row values; the walk ahead adds about one value per node
    assert got[1] <= want[1] + budget + 2 and got[3] <= want[3] + budget + 2


@pytest.mark.parametrize("A, col, cfg, peak_bytes", [
    # a 65th colour stops the masks: classes filed at 8 bytes a value
    (schur_matrix(), mod_colouring(1000), SearchConfig(10**5, node_budget=3 * 10**5),
     1_121_000),
    # 7 colours: masks at 7 bits a value
    (finite_sums_matrix(3), mod_colouring(7),
     SearchConfig(10**6, distinct_entries=True, node_budget=3 * 10**5), 2_700_000),
])
def test_class_store_memory(A, col, cfg, peak_bytes):
    # Both searches colour about 3 * 10^5 values before the budget stops them.
    # The bounds are 1.1 times the peaks of a store that filed every class as
    # an array (1,019,799 and 2,455,304 bytes under CPython 3.11), which the
    # masks must not exceed.
    tracemalloc.start()
    try:
        res = find_monochromatic(A, col, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.nodes, res.exhausted) == (cfg.node_budget + 1, False)
    assert peak <= peak_bytes


def test_class_walk_colours_only_up_to_its_first_member():
    # Every value has one colour, so the witness takes the first members; a walk
    # that coloured its span, or its budget of it, ahead would colour 10^7 values.
    coloured = []
    one = Colouring("one", lambda x: coloured.append(x) or 0)
    res = find_monochromatic(schur_matrix(), one, SearchConfig(10**9))
    assert (res.witness.assignment, res.nodes) == ((1, 1), 2)
    assert len(coloured) <= 4
    coloured.clear()
    res = translate_witness(one, (2, 1), 2, 1, x_bound=10**9)
    assert res.witness == (1, (1, 2), 0)
    assert len(coloured) <= 8


@pytest.mark.parametrize("reached", [1, 4, 7, 20, 60])
def test_class_members_see_what_another_walk_files(reached):
    # Two walks over one class, interleaved: the inner one colours and files
    # values while the outer one is suspended, in classes filed in index (a
    # span of at most 64 values) or in masks.
    for span in (range(1, 60), range(1, 200)):
        want = [v for v in span if v % 3 == 0]
        counter = _Counter(None)  # a budget far past the span: no walk stops early
        for taken in range(4):
            classes = _Classes(lambda v: v % 3, span)
            classes._reach(reached)
            outer = iter(classes.members(0, counter))
            got_outer = [next(outer) for _ in range(taken)]
            inner = iter(classes.members(0, counter))
            got_inner = []
            for _ in want:
                # the inner walk takes two members for every one the outer takes
                got_inner += [v for v in (next(inner, None), next(inner, None)) if v is not None]
                got_outer += [v for v in (next(outer, None),) if v is not None]
            assert got_inner == got_outer == want, (span, reached, taken)
            # once the span is reached, a walk reads the filed class itself
            assert classes.reached == span.stop
            assert list(classes.members(0, counter)) == want


@pytest.mark.parametrize("colours", [3, 70])
def test_masked_class_walk_matches_a_member_scan(colours):
    # walk(c, counter, shifts, widest) against the members it must yield,
    # within each budget: values of colour c whose shifted values have colour c
    # too.  Shifts past widest, the largest the rows were thought to reach,
    # still terminate; 70 colours turn the masks into filed classes midway,
    # when the 65th class, first met at 67, reaches 67 + 512.
    def colour(v):
        return v % colours

    # 697 values are masked; 57 are filed from the start, which colours no shifted value
    for span in (range(3, 700), range(3, 60)):
        for c, shifts, widest in [(0, [], 0), (1, [3], 40), (2, [6, 30], 30),
                                  (0, [60, 300], 90)]:
            want = [v for v in span
                    if colour(v) == c and all(colour(v + b) == c for b in shifts)]
            for budget in (0, 5, 40, 10**7):
                classes, counter = _Classes(colour, span), _Counter(budget)
                got = []
                for v in classes.walk(c, counter, shifts, widest):
                    # charge as the caller does: each value with the span values before it
                    counter.n = v - span.start + 1
                    if counter.n > budget:
                        break
                    got.append(v)
                assert got == [v for v in want if v - span.start < budget], (c, shifts, budget)
                # colouring ahead stops at the budget window plus the largest shift,
                # or plus widest once the window ends the span
                far = max(shifts + [widest]) if budget >= len(span) else max(shifts, default=0)
                far *= len(span) > 64
                assert classes.reached <= min(span.stop, span.start + budget + 1) + far
                if colours == 70 and budget >= len(span):
                    assert classes.masks is None


@pytest.mark.parametrize("colour", [
    lambda v: v % 3,  # three classes, each taking its bits a chunk at a time
    lambda v: v // 10,  # from the 65th class on, short classes set bit by bit
    lambda v: v % 97,  # the 65th class passes 512 values: the classes are filed midway
])
def test_class_walks_match_a_member_scan(colour):
    # Both walks over stores with more than 64 classes, against a scan of the
    # class.  A member walk (count_members, as separation runs it): the caller
    # charges one node per value yielded and the walk one per member it leaves
    # out, so a budget stops at the same member, one node past itself, as a
    # walk that tried every member, and colouring stops in the step where the
    # members pass the budget.  A counted walk: the caller charges each value
    # with the span values before it.  The last class of range(3, 1495) has
    # members whose shifts pass the span's end; the class of span[64] is the
    # 65th, whose growth files v % 97 midway.
    for span in (range(3, 60), range(3, 1495)):
        for at, shifts in [(0, []), (1, [5]), (700, [4]), (-1, [3]), (64, []),
                           (2, [40, 333])]:
            c = colour(span[at % len(span)])
            members = [v for v in span if colour(v) == c]
            passing = [v for v in members if all(colour(v + b) == c for b in shifts)]
            for budget in (0, 7, 100, 10**7):
                classes, counter = _Classes(colour, span), _Counter(budget)
                got = []
                with pytest.raises(_BudgetHit) if budget < len(members) else nullcontext():
                    for v in classes.walk(c, counter, shifts, 8 * len(span), True):
                        counter.skip(1)
                        got.append(v)
                assert got == [v for v in members[:budget] if v in passing], (span, c, budget)
                assert counter.n == min(len(members), budget + 1)
                if budget < len(members):
                    hit = members[budget] - span.start + 1
                    assert classes.reached <= span.start + 4 * hit + max(shifts, default=0)
                classes, counter = _Classes(colour, span), _Counter(budget)
                got = []
                for v in classes.walk(c, counter, shifts, 8 * len(span)):
                    counter.n = v - span.start + 1
                    if counter.n > budget:
                        break
                    got.append(v)
                assert got == [v for v in passing if v - span.start < budget], (span, c, budget)


def _compiled_values(by_top, x):
    """(tag, value) of every compiled row at x, evaluated one depth at a time."""
    out = []
    for d, rows in enumerate(by_top):
        for base, top, den, tag in _node_rows(rows, x):
            out.append((tag, Fraction(base + top * x[d], den)))
    return out


def test_mt_row_count_matches_block_tuples():
    # the row guard counts the rows a request compiles before compiling them
    for k in range(1, 5):
        for n in range(9):
            assert sum(_mt_row_counts(k, n)) == sum(1 for _ in block_tuples(n, k - 1)), (k, n)


def test_compiled_rows_match_images():
    rng = random.Random(3)
    terms = [1, 2, -1, -3, Fraction(1, 2), Fraction(-5, 3), Fraction(7, 4)]
    for _ in range(150):
        n = rng.randint(1, 4)
        x = [rng.randint(-9, 30) for _ in range(n)]
        a = [rng.choice(terms) for _ in range(rng.randint(1, n))]
        if any(u == v for u, v in zip(a, a[1:])):
            continue
        a = coeff_seq(a)
        vals = [v for _, v in _compiled_values(_mt_systems([a], n)[0], x)]
        assert len(vals) == len(list(block_tuples(n, len(a) - 1)))
        assert set(vals) == mt_image(a, x).values
        vals = [v for _, v in _compiled_values(_mt_systems([(1,)], n)[0], x)]
        assert len(vals) == 2**n - 1 and set(vals) == fs_image(x).values
        dense = [[rng.choice([0, 0] + terms) for _ in range(n)] for _ in range(rng.randint(1, 4))]
        A = FiniteMatrix.from_dense(dense, n, allow_duplicate_rows=True)
        rows = [(r, i) for i, r in enumerate(A.rows) if r]
        got = sorted(_compiled_values(_compile_rows(rows, n), x))
        assert got == [(i, v) for i, v in enumerate(apply(A, x)) if A.rows[i]]


def test_search_budget_hit():
    cfg = SearchConfig(50, node_budget=10)
    res = find_monochromatic(finite_sums_matrix(3), ratio_colouring(2), cfg)
    assert res.witness is None
    assert not res.exhausted
    assert res.nodes == 11  # one past the limit


def test_search_rejects_zero_rows_and_empty():
    M = FiniteMatrix([SparseRow(), SparseRow({0: 1})], 1)
    res = find_monochromatic(M, mod_colouring(2), SearchConfig(5))
    assert res.witness is None and res.exhausted
    with pytest.raises(ValueError):
        find_monochromatic(FiniteMatrix([], 1), mod_colouring(2), SearchConfig(5))


def test_distinct_image_exempts_duplicate_rows():
    dup = FiniteMatrix(
        [SparseRow({0: 1}), SparseRow({0: 1})], 1, allow_duplicate_rows=True
    )
    cfg = SearchConfig(5, distinct_image=True)
    res = find_monochromatic(dup, mod_colouring(1), cfg)
    assert res.witness.assignment == (1,)
    ident = identity_matrix(2)
    res2 = find_monochromatic(ident, mod_colouring(1), cfg)
    assert res2.witness.assignment == (1, 2)  # (1,1) collides across rows


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(0)
    with pytest.raises(ValueError):
        SearchConfig(5, min_entry=0)
    assert SearchConfig(5).node_budget == DEFAULT_NODE_BUDGET


def test_forcing_schur_and_trivial():
    res = forcing_bound(schur_matrix(), 2, 8)
    assert res.bound == 5
    assert res.certificate == (0, 1, 1, 0)  # classes {1,4} and {2,3}
    single = forcing_bound(FiniteMatrix.from_dense([(1,)]), 3, 4)
    assert single.bound == 1 and single.certificate == ()


def test_forcing_certificate_avoids_monochromatic_images():
    res = forcing_bound(arithmetic_progression_matrix(3), 2, 12)
    assert res.bound == 9
    cert = res.certificate
    n = res.bound - 1
    for a in range(1, n + 1):
        for d in range(1, n + 1):
            if a + 2 * d <= n:
                cs = {cert[a - 1], cert[a + d - 1], cert[a + 2 * d - 1]}
                assert len(cs) > 1


def test_forcing_not_reached():
    res = forcing_bound(schur_matrix(), 3, 6)
    assert res.bound is None
    assert len(res.certificate) == 6


def test_forcing_rejects_bad_matrices():
    with pytest.raises(ValueError):
        forcing_bound(FiniteMatrix.from_dense([(1, -1)]), 2, 5)
    with pytest.raises(ValueError):
        forcing_bound(FiniteMatrix.from_dense([(1, 0)]), 2, 5)  # unused column
    with pytest.raises(BudgetExceeded):
        forcing_bound(schur_matrix(), 2, 8, node_budget=5)


@pytest.mark.parametrize("A, colours, n_max", [
    (schur_matrix(), 2, 8),
    (arithmetic_progression_matrix(3), 2, 12),
])
def test_forcing_at_every_budget(A, colours, n_max):
    # below the unbudgeted node count the walk stops; from it on the answer is whole
    full = forcing_bound(A, colours, n_max)
    for budget in range(full.nodes + 2):
        if budget < full.nodes:
            with pytest.raises(BudgetExceeded):
                forcing_bound(A, colours, n_max, budget)
        else:
            assert forcing_bound(A, colours, n_max, budget) == full


def _realizable_images(A, n):
    """Brute-force oracle for _images: the distinct value sets of A at
    assignments whose image lies in [1, n], from a sweep of the whole column
    box with one exact row product per row.

    Requires non-negative entries with every column positively used, so the
    assignment space is finite and the enumeration is complete; a space past
    matgen's enumeration guard raises ValueError.
    """
    col_max = {}
    for r in A.rows:
        if not r:
            raise ValueError("zero rows never have positive images")
        for c, v in r.items():
            if v < 0:
                raise ValueError("forcing search needs non-negative entries")
            if v > 0:
                col_max[c] = max(col_max.get(c, 0), v)
    for c in range(A.width):
        if c not in col_max:
            raise ValueError("column %d carries no positive entry" % c)
    ranges = []
    for c in range(A.width):
        top = int(Fraction(n, 1) / col_max[c])
        if top < 1:
            return []
        ranges.append(range(1, top + 1))
    _check_budget(math.prod(map(len, ranges)), "forcing images up to n=%d" % n)
    out = set()
    for x in product(*ranges):
        vals = []
        for r in A.rows:
            v = _as_int_value(r.dot(x))
            if v is None or v > n:
                vals = None
                break
            vals.append(v)
        if vals is not None:
            out.add(frozenset(vals))
    return sorted(out, key=lambda s: sorted(s))


_FORCING_FAMILIES = ["schur", "ap:3", "ap:4", "f:2", "mpc:2,2,1"]


def _random_non_negative_matrix(rng):
    width = rng.randint(1, 3)
    entries = [0, 0, 1, 2, 3, Fraction(1, 2), Fraction(3, 2), Fraction(2, 3), Fraction(5, 4)]
    rows = [[rng.choice(entries) for _ in range(width)] for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.3:
        rows.append(list(rng.choice(rows)))
    return FiniteMatrix.from_dense(rows, allow_duplicate_rows=True)


def _assignments_within(A, n):
    """How many assignments x >= 1 give A no row value above n, by a sweep
    of the column box."""
    col_max = [max(r[c] for r in A.rows) for c in range(A.width)]
    ranges = [range(1, n // m + 1) for m in col_max]
    return sum(all(r.dot(x) <= n for r in A.rows) for x in product(*ranges))


def test_forcing_images_match_brute_oracle():
    rng = random.Random(11)
    mats = [parse_family(f) for f in _FORCING_FAMILIES]
    mats += [FiniteMatrix.from_dense([(1,)]), FiniteMatrix.from_dense([(1,), (1000,)])]
    mats += [_random_non_negative_matrix(rng) for _ in range(200)]
    planned = 0
    for A in mats:
        try:
            plan = _image_plan(A)
        except ValueError:
            with pytest.raises(ValueError):
                _realizable_images(A, 1)
            continue
        planned += 1
        scale = plan[3]
        pairs = []
        for top, image in _images(plan):
            if top > 12 * scale:
                break
            pairs.append((top, image))
        tops = [top for top, _ in pairs]
        assert tops == sorted(tops), A.rows
        images = [image for _, image in pairs if image is not None]
        assert len(set(images)) == len(images), A.rows
        assert all(max(image) * scale == top for top, image in pairs if image is not None)
        # every assignment is popped once
        assert len(pairs) == _assignments_within(A, 12), A.rows
        for n in range(1, 13):
            got = {image for top, image in pairs if image is not None and top <= n * scale}
            assert got == set(_realizable_images(A, n)), (A.rows, n)
    assert planned >= 100


def _forcing_sweep(A, colours, n_max):
    """Brute-force oracle for forcing_bound: for each n in turn, sweep every
    colouring of [1, n] with 1 coloured 0 in lexicographic order against
    every image in [1, n].  Returns (bound, certificate)."""
    cert = ()
    for n in range(1, n_max + 1):
        images = _realizable_images(A, n)
        avoiding = None
        for tail in product(range(colours), repeat=n - 1):
            colour_of = (0,) + tail  # colour of value i is colour_of[i-1]
            if not any(len({colour_of[v - 1] for v in s}) == 1 for s in images):
                avoiding = colour_of
                break
        if avoiding is None:
            return n, cert
        cert = avoiding
    return None, cert


@pytest.mark.parametrize("family", _FORCING_FAMILIES)
def test_forcing_matches_sweep_oracle(family):
    A = parse_family(family)
    for colours in (1, 2, 3):
        for n_max in (-1, 0, 1, 4, 10):
            res = forcing_bound(A, colours, n_max)
            assert (res.bound, res.certificate) == _forcing_sweep(A, colours, n_max), (
                colours, n_max)


def _has_mono_ap(colour_of, length):
    n = len(colour_of)
    return any(
        len({colour_of[a + i * d] for i in range(length)}) == 1
        for d in range(1, n) for a in range(n - (length - 1) * d)
    )


def test_forcing_reaches_schur_three_and_van_der_waerden_two_four():
    res = forcing_bound(schur_matrix(), 3, 14)
    assert res.bound == 14  # S(3) = 13
    assert res.certificate == (0, 1, 1, 0, 2, 2, 0, 2, 2, 0, 1, 1, 0)
    res = forcing_bound(arithmetic_progression_matrix(4), 2, 35)
    assert res.bound == 35  # W(2; 4) = 35
    cert = res.certificate
    assert len(cert) == 34 and set(cert) == {0, 1} and cert[0] == 0
    assert not _has_mono_ap(cert, 4)
    assert _has_mono_ap(cert + (0,), 4) and _has_mono_ap(cert + (1,), 4)


def test_forcing_walk_deeper_than_the_recursion_limit():
    res = forcing_bound(FiniteMatrix.from_dense([(1,), (1000,)]), 2, 1500)
    assert res.bound is None
    assert res.certificate == tuple(int(v == 1000) for v in range(1, 1501))


def test_forcing_answers_identity_from_the_image_of_ones():
    # {1} is the image at (1, ..., 1), so bound 1 needs none of the 2^23
    # assignments in the column box at n = 2
    start = time.monotonic()
    res = forcing_bound(identity_matrix(23), 2, 3)
    assert time.monotonic() - start < 1
    assert (res.bound, res.certificate, res.nodes) == (1, (), 1)


def test_forcing_images_wider_than_the_recursion_limit():
    # 1000 x_j for 1500 columns: the image {1000} appears at n = 1000, from the
    # first assignment of the image stream, which pushes one successor per column
    A = FiniteMatrix([SparseRow({j: 1000}) for j in range(1500)], 1500)
    res = forcing_bound(A, 1, 1001)
    assert (res.bound, res.certificate, res.nodes) == (1000, (0,) * 999, 1000)


@pytest.mark.parametrize("family, colours, n_max, bound, certificate, nodes", [
    ("schur", 3, 13, None, (0, 1, 1, 0, 2, 2, 0, 2, 2, 0, 1, 1, 0), 406),
    ("ap:4", 2, 20, None, (0, 0, 0, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0, 0, 1, 0, 1), 84),
    ("ap:3", 3, 12, None, (0, 0, 1, 0, 0, 1, 1, 2, 2, 0, 0, 1), 20),
    ("schur", 2, 8, 5, (0, 1, 1, 0), 11),
    ("ap:3", 2, 12, 9, (0, 0, 1, 1, 0, 0, 1, 1), 79),
])
def test_forcing_pinned_benchmark_answers(family, colours, n_max, bound, certificate, nodes):
    # the force-sweep benchmark requests; the benchmark itself does not compare nodes
    res = forcing_bound(parse_family(family), colours, n_max)
    assert (res.bound, res.certificate, res.nodes) == (bound, certificate, nodes)


def _mono_tables():
    # the matrix-mono benchmark's colour tables at seed 0: three of 8 colours on [1, 1200]
    rng = random.Random(0)
    return [{v: rng.randrange(8) for v in range(1, 1201)} for _ in range(3)]


def _mono_table_search(i):
    cfg = SearchConfig(300, distinct_entries=True, node_budget=10**7)
    return find_monochromatic(finite_sums_matrix(4), table_colouring(_mono_tables()[i]), cfg)


@pytest.mark.parametrize("run, nodes", [
    (lambda: _mono_table_search(0), 530700),
    (lambda: _mono_table_search(1), 561300),
    (lambda: _mono_table_search(2), 530700),
    (lambda: find_dominated_assignment(
        finite_sums_matrix(7), FiniteMatrix.from_dense([[1, 0], [0, 1], [1, 1], [1, 2]]),
        [4**i for i in range(7)], 5461, 10**7), 699008),
    (lambda: translate_witness(table_colouring(_mono_tables()[0]), (2, 1), 3, 20, 60, 10**7),
     81840),
], ids=["mono-0", "mono-1", "mono-2", "dominate", "translate"])
def test_matrix_mono_pinned_benchmark_answers(run, nodes):
    # the matrix-mono benchmark requests at seed 0, which walk most of their
    # spans as counted skips; the benchmark itself does not compare nodes
    res = run()
    assert (res.witness, res.nodes, res.exhausted) == (None, nodes, True)


def test_mt_separate_pinned_benchmark_shape():
    # the mt-separate benchmark request at a smaller value bound; the
    # benchmark's correct flag does not compare nodes
    rep = check_separation(negabase_gap_colouring(7, (1, 2)), (1,), (2, 1), 2, 5000)
    assert (rep.outcome, rep.witness, rep.nodes) == ("none-within-bounds", None, 8339)


def test_dominated_assignment_positive_case():
    A = finite_sums_matrix(2)
    B = FiniteMatrix.from_dense([(1, 0), (0, 1), (1, 1)])
    res = find_dominated_assignment(A, B, (1, 2), 10)
    assert res.witness.assignment == (1, 1)
    assert res.witness.image == {1, 2}


def test_dominated_assignment_absence():
    A = finite_sums_matrix(3)
    B = FiniteMatrix.from_dense([(1, 0), (0, 1), (1, 1), (1, 2)])
    res = find_dominated_assignment(A, B, (1, 4, 16), 21)
    assert res.witness is None and res.exhausted


def test_dominated_assignment_validates_target():
    A = FiniteMatrix.from_dense([(1, -1)])
    B = identity_matrix(1)
    with pytest.raises(ValueError):
        find_dominated_assignment(A, B, (1, 2), 5)


def test_certify_ipr_paths():
    A = FiniteMatrix.from_dense([(1, 1)])
    B = FiniteMatrix.from_dense([(2,)])
    C = FiniteMatrix.from_dense([(1,), (1,)], allow_duplicate_rows=True)
    assert certify_ipr(A, B, C).certified
    bad_b = FiniteMatrix.from_dense([(-2,)])
    assert certify_ipr(A, bad_b, C).reason == "b-not-first-entries"
    zero_c = FiniteMatrix([SparseRow(), SparseRow({0: 1})], 1)
    assert certify_ipr(A, B, zero_c).reason == "c-zero-row"
    neg_c = FiniteMatrix.from_dense([(1,), (-1,)])
    assert certify_ipr(A, B, neg_c).reason == "c-not-nonnegative-integral"
    frac_c = FiniteMatrix.from_dense([(Fraction(1, 2),), (1,)])
    assert certify_ipr(A, B, frac_c).reason == "c-not-nonnegative-integral"
    mism = FiniteMatrix.from_dense([(1,), (2,)])
    assert certify_ipr(A, B, mism).reason == "product-mismatch"
    with pytest.raises(DimensionMismatch):
        certify_ipr(A, B, FiniteMatrix.from_dense([(1,)]))


def test_certify_composition_really_lands_in_b_image():
    # whenever the certificate passes, A(Cy) = By for a few probes
    A = FiniteMatrix.from_dense([(1, 0, 1), (0, 3, 2)])
    B = FiniteMatrix.from_dense([(2, 1), (2, 5)])
    C = FiniteMatrix.from_dense([(1, 0), (0, 1), (1, 1)])
    rep = certify_ipr(A, B, C)
    assert rep.certified
    for y in [(1, 1), (2, 5), (3, 1)]:
        cy = apply(C, y)
        assert apply(A, cy) == apply(B, y)


def test_rapid_checks():
    assert is_rapid((3, 512), 2)
    assert not is_rapid((3, 256), 2)
    assert is_rapid((1, 256, 2**16 * 3), 2)
    with pytest.raises(ValueError):
        is_rapid((0, 2), 2)


def test_rapid_needs_base_two():
    # p < 2 used to loop forever computing the exponent of p below x_i
    for p in (1, 0, -2):
        with pytest.raises(ValueError):
            is_rapid((3, 5), p)
        with pytest.raises(ValueError):
            make_rapid(p, (3, 5))
    with pytest.raises(ValueError):
        make_rapid(2, ())


def test_make_rapid():
    seq = make_rapid(2, (3, 5))
    assert seq == (3, 5 * 2**9)
    assert is_rapid(seq, 2)
    rng = random.Random(42)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        seeds = [rng.randint(1, 50) for _ in range(rng.randint(1, 5))]
        seq = make_rapid(p, seeds)
        assert is_rapid(seq, p)
        for s, v in zip(seeds, seq):
            assert v % s == 0


def test_separation_proportional():
    rep = check_separation(mod_colouring(2), (2, 4), (1, 2), 2, 10)
    assert rep.outcome == "proportional"
    assert rep.ratio == 2


def test_separation_immediate_witness_one_colour():
    rep = check_separation(mod_colouring(1), (1,), (2, 1), 2, 6)
    assert rep.outcome == "witness"
    assert rep.witness == {"x": (1, 2), "y": (1, 2), "colour": 0}


def test_separation_mod2_witness():
    rep = check_separation(mod_colouring(2), (1,), (2, 1), 2, 10)
    assert rep.outcome == "witness"
    assert rep.witness["x"] == (2, 4)
    assert rep.witness["y"] == (1, 2)
    assert rep.witness["colour"] == 0


def test_separation_short_prefix_is_absence():
    rep = check_separation(mod_colouring(1), (1,), (2, 1), 1, 6)
    assert rep.outcome == "none-within-bounds"
    assert rep.nodes == 0


def test_separation_budget():
    col = negabase_gap_colouring(7, (1, 2))
    rep = check_separation(col, (1,), (2, 1), 3, 500, node_budget=20)
    assert rep.outcome == "budget"
    assert rep.nodes == 21


def _mod3_reserving(colour):
    return Colouring("mod3-reserved", lambda v: v % 3, reserved={colour})


@pytest.mark.parametrize("col, a, b, length, bound, outcome, nodes", [
    (mod_colouring(2), (1,), (2, 1), 2, 10, "witness", 12),
    (mod_colouring(3), (Fraction(1, 2),), (2, 1), 2, 14, "witness", 51),
    (mod_colouring(3), (1,), (1, -1), 2, 12, "witness", 54),
    (mod_colouring(3), (2, 1), (1,), 2, 12, "witness", 48),  # the pinned b-side narrows
    (digit_profile_colouring(5), (1,), (2, 1), 2, 30, "none-within-bounds", 62),
    (_mod3_reserving(0), (1,), (2, 1), 2, 12, "none-within-bounds", 44),
    (_mod3_reserving(1), (2, 1), (3, 1), 2, 8, "witness", 7),
    # spans past 64 values, whose narrowed nodes test their shift rows on masks
    (digit_profile_colouring(5), (1,), (2, 1), 3, 120, "none-within-bounds", 278),
    (negabase_gap_colouring(7, (1, 2)), (1,), (2, 1), 2, 2600, "none-within-bounds", 2853),
    (mod_colouring(3), (2, 1), (1,), 2, 100, "witness", 2320),
])
def test_separation_at_every_budget(col, a, b, length, bound, outcome, nodes):
    # Separation counts only the class members it tries, not the values it
    # skips, so no other test pins where its budget stops: below the full
    # count a budget stops one node past itself, from it on the answer is whole.
    full = check_separation(col, a, b, length, bound)
    assert (full.outcome, full.nodes) == (outcome, nodes)
    for budget in range(nodes):
        rep = check_separation(col, a, b, length, bound, budget)
        assert (rep.outcome, rep.witness, rep.nodes) == ("budget", None, budget + 1)
    for budget in (nodes, nodes + 1, 10 * nodes):
        assert check_separation(col, a, b, length, bound, budget) == full


def test_masked_separation_matches_brute_oracle():
    # The oracle colours every value itself, so it shares no class store with
    # the walk, whose b-side narrows and tests y_0 + y_1 on the masks.
    col = mod_colouring(3)
    rep = check_separation(col, (2, 1), (1,), 2, 100)
    assert rep.witness == _brute_separation(col, (2, 1), (1,), 2, 100)
    assert rep.witness == {"x": (1, 4), "y": (3, 6), "colour": 0}


def test_translate_witness_anchor():
    col = mod_colouring(2)
    res = translate_witness(col, (2, 1), 2, 8, 10)
    assert res.witness == (2, (2, 4), 0)
    assert res.exhausted
    for w in (2, 8):
        assert translate_witness(col, (2, 1), 2, 8, 10, workers=w).witness == res.witness


def test_translate_witness_one_colour_and_validation():
    res = translate_witness(mod_colouring(1), (2, 1), 2, 5, 5)
    assert res.witness == (1, (1, 2), 0)
    with pytest.raises(ValueError):
        translate_witness(mod_colouring(2), (2, 1), 1, 5, 5)


def test_translate_budget_withdraws_guarantee():
    res = translate_witness(mod_colouring(2), (2, 1), 2, 8, 10, node_budget=5)
    assert not res.exhausted
