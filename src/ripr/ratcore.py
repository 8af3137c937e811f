"""Exact rational matrix core: sparse rows, finite matrices, images.

Everything downstream (generators, searches, the CLI) works with these types.
Arithmetic is exact: entries are ints or fractions.Fraction, never floats.
"""

from fractions import Fraction


class DimensionMismatch(ValueError):
    pass


def as_entry(v):
    """Normalise a matrix entry: int stays int, integral Fraction collapses to int."""
    if isinstance(v, bool):
        raise TypeError("bool is not a matrix entry")
    if isinstance(v, int):
        return v
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else v
    raise TypeError("matrix entries must be int or Fraction, got %r" % (v,))


def entry_ratio(v):
    """(numerator, denominator) in lowest terms with positive denominator."""
    if isinstance(v, int):
        return (v, 1)
    return (v.numerator, v.denominator)


class SparseRow(dict):
    """Finitely supported row vector, column index -> nonzero entry.

    Zero entries are never stored; writing a zero deletes the key.
    """

    def __init__(self, data=()):
        super().__init__()
        items = data.items() if isinstance(data, dict) else data
        for col, v in items:
            self[col] = v

    def __setitem__(self, col, v):
        if not isinstance(col, int) or col < 0:
            raise ValueError("column index must be a non-negative int")
        v = as_entry(v)
        if v == 0:
            self.pop(col, None)
        else:
            super().__setitem__(col, v)

    def __missing__(self, col):
        return 0

    def support(self):
        return frozenset(self)

    def max_column(self):
        return max(self) if self else -1

    def key(self):
        """Hashable canonical form, for deduplication and stable ordering."""
        return tuple(sorted((c,) + entry_ratio(v) for c, v in self.items()))

    def dot(self, x):
        return sum(v * x[c] for c, v in self.items())

    def dense(self, width):
        return tuple(self[c] for c in range(width))

    def shifted(self, offset):
        """Same entries with every column index moved up by offset."""
        return SparseRow((c + offset, v) for c, v in self.items())


def row_from_dense(values):
    return SparseRow((c, v) for c, v in enumerate(values) if v != 0)


class FiniteMatrix:
    """Finite list of sparse rows over a fixed column count.

    Duplicate rows are rejected unless allow_duplicate_rows is set; generators
    never produce duplicates, but stacking unrelated matrices may.
    """

    def __init__(self, rows, width, allow_duplicate_rows=False):
        self.rows = [r if isinstance(r, SparseRow) else SparseRow(r) for r in rows]
        self.width = width
        if width < 0:
            raise ValueError("width must be non-negative")
        for r in self.rows:
            if r and r.max_column() >= width:
                raise DimensionMismatch(
                    "row occupies column %d but width is %d" % (r.max_column(), width)
                )
        if not allow_duplicate_rows:
            keys = [r.key() for r in self.rows]
            if len(set(keys)) != len(keys):
                raise ValueError("duplicate rows (pass allow_duplicate_rows=True to keep them)")

    @classmethod
    def from_dense(cls, dense_rows, width=None, **kw):
        rows = [row_from_dense(r) for r in dense_rows]
        if width is None:
            width = max((len(r) for r in dense_rows), default=0)
        return cls(rows, width, **kw)

    def dense(self):
        return [r.dense(self.width) for r in self.rows]

    def __len__(self):
        return len(self.rows)

    def __eq__(self, other):
        if not isinstance(other, FiniteMatrix):
            return NotImplemented
        return self.width == other.width and [r.key() for r in self.rows] == [
            r.key() for r in other.rows
        ]

    def __repr__(self):
        return "FiniteMatrix(%d rows, width %d)" % (len(self.rows), self.width)

    def to_obj(self):
        """JSON-ready form: {width, rows: [[[col, num, den], ...], ...]}."""
        return {
            "width": self.width,
            "rows": [
                [[c] + list(entry_ratio(r[c])) for c in sorted(r)] for r in self.rows
            ],
        }

    @classmethod
    def from_obj(cls, obj, **kw):
        """Inverse of to_obj."""
        missing = sorted({"width", "rows"} - set(obj))
        if missing:
            raise ValueError("matrix object lacks %s" % " and ".join(missing))
        rows = [
            SparseRow((c, Fraction(num, den)) for c, num, den in row)
            for row in obj["rows"]
        ]
        return cls(rows, obj["width"], **kw)


class ImageSet:
    """Image of a matrix (or system) at an assignment, as a set of values.

    provenance maps each value to the index of the first row (or enumeration
    step) that produced it.
    """

    def __init__(self, values, provenance=None):
        self.values = frozenset(values)
        self.provenance = dict(provenance) if provenance else None

    def __contains__(self, v):
        return v in self.values

    def __iter__(self):
        return iter(sorted(self.values))

    def __len__(self):
        return len(self.values)

    def __eq__(self, other):
        if isinstance(other, ImageSet):
            return self.values == other.values
        if isinstance(other, (set, frozenset)):
            return self.values == other
        return NotImplemented

    def __repr__(self):
        return "ImageSet(%s)" % sorted(self.values)

    def sorted_values(self):
        return sorted(self.values)


def apply(A, x):
    """A.x as a tuple of exact values; len(x) must equal A.width."""
    if len(x) != A.width:
        raise DimensionMismatch("vector length %d, matrix width %d" % (len(x), A.width))
    x = [as_entry(v) for v in x]
    return tuple(r.dot(x) for r in A.rows)


def image(A, x):
    vals = apply(A, x)
    prov = {}
    for i, v in enumerate(vals):
        if v not in prov:
            prov[v] = i
    return ImageSet(vals, prov)


def is_natural_image(A, x):
    """True when every entry of A.x is a positive integer."""
    for v in apply(A, x):
        num, den = entry_ratio(v)
        if den != 1 or num < 1:
            return False
    return True
