import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from ripr.seqs import (
    CompressedSeq,
    _backtrack,
    _mt_row_maps,
    block_tuples,
    compress,
    fs_image,
    fs_over_sets,
    mt_image,
    mt_over_sets,
    rationally_proportional,
    translated_mt_image,
)


def test_compress_anchor():
    assert compress((-2, 0, -2, 3, 3, 0, 3, 1, -2)) == (-2, 3, 1, -2)


def test_compress_zero_removal_happens_first():
    # zeros go first, so 5,0,5 collapses to a single 5
    assert compress((0, 5, 5, 0, 5)) == (5,)


def test_compress_rejects_all_zero():
    with pytest.raises(ValueError):
        compress((0, 0))
    with pytest.raises(ValueError):
        compress(())


def test_compressed_seq_validation():
    with pytest.raises(ValueError):
        CompressedSeq((1, 1))
    with pytest.raises(ValueError):
        CompressedSeq((1, 0, 2))
    s = CompressedSeq((2, 1))
    with pytest.raises(AttributeError):
        s.terms = (3,)


@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=12))
def test_compress_idempotent(terms):
    if not any(terms):
        return
    once = compress(terms)
    assert compress(once) == once
    # compressed output really is compressed
    assert all(t != 0 for t in once)
    assert all(u != v for u, v in zip(once, once[1:]))


def test_block_tuple_counts():
    assert len(list(block_tuples(2, 0))) == 3
    assert len(list(block_tuples(3, 1))) == 5
    assert len(list(block_tuples(1, 1))) == 0  # too few entries
    for tup in block_tuples(4, 1):
        assert max(tup[0]) < min(tup[1])
    # every tuple exactly once, against all tuples of nonempty subsets
    for n, k in product(range(6), range(3)):
        subsets = [f for size in range(1, n + 1) for f in combinations(range(n), size)]
        want = [t for t in product(subsets, repeat=k + 1)
                if all(max(f) < min(g) for f, g in zip(t, t[1:]))]
        assert sorted(block_tuples(n, k)) == sorted(want), (n, k)


_TABLE = [(1, 2), (0, 5, 7), (3,), (4, 6)]


def _table_children(d, state):
    for v in _TABLE[d]:
        yield state + (v,)


def test_backtrack_leaves_come_in_product_order():
    assert list(_backtrack(len(_TABLE), _table_children, ())) == list(product(*_TABLE))


def test_backtrack_empty_depth_prunes_only_its_own_subtree():
    def children(d, state):
        if state[:2] == (1, 5):  # entry 2 has no candidate under (1, 5)
            return
        yield from _table_children(d, state)

    want = [t for t in product(*_TABLE) if t[:2] != (1, 5)]
    assert list(_backtrack(len(_TABLE), children, ())) == want


def test_backtrack_walks_deeper_than_the_recursion_limit():
    def children(d, state):
        yield state + 1

    assert list(_backtrack(5000, children, 0)) == [5000]


def test_backtrack_propagates_an_exception_from_children():
    class Stop(Exception):
        pass

    def children(d, state):
        if state == (2, 0):
            raise Stop  # as a search's budget hit does
        yield from _table_children(d, state)

    leaves = _backtrack(len(_TABLE), children, ())
    want = [t for t in product(*_TABLE) if t[0] == 1]
    assert [next(leaves) for _ in want] == want
    with pytest.raises(Stop):
        next(leaves)


@pytest.mark.parametrize("a", [(2, 1), (1,), (1, -1, 1), (-1, 2)])
def test_mt_row_maps_ascend(a):
    # rows in ascending order of their dense tuples, each with its entries in ascending order
    for n in range(7):
        rows = list(_mt_row_maps(a, n))
        dense = [tuple(row.get(c, 0) for c in range(n)) for row in rows]
        assert dense == sorted(dense), (a, n)
        assert all(list(row) == sorted(row) for row in rows), (a, n)


def test_fs_anchors():
    assert fs_image((1, 2, 4)) == {1, 2, 3, 4, 5, 6, 7}
    assert fs_image((2, 2)) == {2, 4}
    assert fs_image((5,)) == {5}


def test_mt_anchors():
    img = mt_image((2, 1), (1, 2, 4))
    assert img == {4, 6, 8, 10}
    # five admissible block tuples; provenance points at the first producer
    # in the canonical enumeration
    assert img.provenance == {4: 0, 8: 1, 10: 2, 6: 3}
    assert mt_image((2, 1), (5,)) == set()  # not enough entries


def test_mt_matches_fs_for_unit_coefficients():
    rng = random.Random(42)
    for _ in range(60):
        x = [rng.randint(1, 20) for _ in range(rng.randint(1, 6))]
        assert mt_image((1,), x) == fs_image(x)


def test_translated_anchor():
    assert translated_mt_image(7, (2, 1), (1, 2, 4)) == {11, 13, 15, 17}
    assert translated_mt_image(2, (2, 1), (2, 4)) == {10}


def test_over_sets():
    assert mt_over_sets((2, 1), [{1, 3}, {5}]) == {7, 11}
    assert fs_over_sets([{1, 2}, {10}]) == {1, 2, 10, 11, 12}
    with pytest.raises(ValueError):
        mt_over_sets((1,), [set()])


def test_over_sets_singletons_reduce_to_plain_images():
    rng = random.Random(7)
    for _ in range(30):
        x = [rng.randint(1, 15) for _ in range(rng.randint(1, 5))]
        assert fs_over_sets([{v} for v in x]) == fs_image(x)


def test_rationally_proportional():
    assert rationally_proportional((2, 4), (1, 2)) == 2
    assert rationally_proportional((1, 2), (2, 4)) == Fraction(1, 2)
    assert rationally_proportional((2, 1), (2, 1)) == 1
    assert rationally_proportional((2, 1), (1, 2)) is None
    assert rationally_proportional((2, 1), (2, 1, 2)) is None
    # negative ratios do not count
    assert rationally_proportional((-2, 1), (2, -1)) is None
