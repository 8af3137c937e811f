import json
import random
from fractions import Fraction

import pytest

from ripr.ratcore import (
    DimensionMismatch,
    FiniteMatrix,
    SparseRow,
    apply,
    as_entry,
    image,
    is_natural_image,
    row_from_dense,
)


def test_sparse_row_drops_zeros():
    r = SparseRow({0: 1, 2: 0, 5: Fraction(0, 3)})
    assert dict(r) == {0: 1}
    r[0] = 0
    assert dict(r) == {}
    assert r[7] == 0  # missing reads as zero


def test_sparse_row_normalises_entries():
    r = SparseRow({1: Fraction(4, 2)})
    assert r[1] == 2 and isinstance(r[1], int)
    r[2] = Fraction(1, 3)
    assert r[2] == Fraction(1, 3)


def test_entry_type_rejections():
    with pytest.raises(TypeError):
        as_entry(1.5)
    with pytest.raises(TypeError):
        as_entry(True)
    with pytest.raises(ValueError):
        SparseRow({-1: 2})


def test_row_helpers():
    r = row_from_dense((0, 2, -1))
    assert r.dense(4) == (0, 2, -1, 0)
    assert r.support() == {1, 2}
    assert r.max_column() == 2
    assert r.shifted(2).dense(5) == (0, 0, 0, 2, -1)


def test_row_key_is_canonical():
    a = SparseRow({0: 2, 3: Fraction(1, 2)})
    b = SparseRow([(3, Fraction(2, 4)), (0, Fraction(2, 1))])
    assert a.key() == b.key() == ((0, 2, 1), (3, 1, 2))


def test_matrix_width_validation():
    with pytest.raises(DimensionMismatch):
        FiniteMatrix([SparseRow({3: 1})], 3)
    FiniteMatrix([SparseRow({2: 1})], 3)


def test_matrix_duplicate_rows_need_flag():
    rows = [SparseRow({0: 1}), SparseRow({0: 1})]
    with pytest.raises(ValueError):
        FiniteMatrix(rows, 1)
    M = FiniteMatrix(rows, 1, allow_duplicate_rows=True)
    assert len(M) == 2


def test_apply_exact():
    M = FiniteMatrix.from_dense([(1, 1), (Fraction(1, 2), 0)])
    assert apply(M, (3, 5)) == (8, Fraction(3, 2))
    with pytest.raises(DimensionMismatch):
        apply(M, (1,))


def test_image_provenance_first_producer():
    M = FiniteMatrix.from_dense([(1, 0), (0, 1), (1, 0)], allow_duplicate_rows=True)
    img = image(M, (4, 4))
    assert img == {4}
    assert img.provenance[4] == 0


def test_is_natural_image():
    M = FiniteMatrix.from_dense([(1, 1), (1, -1)])
    assert is_natural_image(M, (3, 2))
    assert not is_natural_image(M, (2, 3))  # negative entry
    assert not is_natural_image(M, (2, 2))  # zero entry
    half = FiniteMatrix.from_dense([(Fraction(1, 2),)])
    assert is_natural_image(half, (4,))
    assert not is_natural_image(half, (3,))


def test_serialization_round_trip_and_stability():
    M = FiniteMatrix.from_dense([(1, 0, Fraction(-2, 3)), (0, 4, 0)])
    obj = M.to_obj()
    assert FiniteMatrix.from_obj(obj) == M
    a = json.dumps(obj, sort_keys=True)
    b = json.dumps(M.to_obj(), sort_keys=True)
    assert a == b


def test_dot_matches_dense_arithmetic():
    rng = random.Random(42)
    for _ in range(200):
        w = rng.randint(1, 6)
        dense = [rng.choice([0, 0, 1, -1, 2, Fraction(1, 2)]) for _ in range(w)]
        x = [rng.randint(-5, 5) for _ in range(w)]
        r = row_from_dense(dense)
        assert r.dot(x) == sum(d * v for d, v in zip(dense, x))
