"""Exhaustive bounded searches: monochromatic images, forcing bounds,
separation sweeps, image domination, certificates.

All searches are deterministic: a fixed request gives the same answer and
the same node count.  The monochromatic, forcing, domination, separation and
translation searches share one depth-first engine, seqs._backtrack, with
the Milliken-Taylor row walk under them (seqs._mt_row_maps).  Each hands
it one callback, children(d, state): a generator that tries the candidates
for entry d in increasing order and yields the child state of each
survivor; a search's generator also counts one node per candidate tried.
The first complete assignment is therefore the lexicographically least.
The engine keeps only a stack of child generators, so a walk may be as deep
as its input asks.  A budget hit is reported via exhausted=False
(forcing_bound raises BudgetExceeded) and withdraws the leastness guarantee
on any witness found.

Each search except forcing compiles its values once, before the walk, as
exact coefficient rows (matrix rows or MT block tuples) bucketed by top
column, the last entry a row reads; see _compile_rows.  Entering a
node at depth d (the first step of its children generator) fixes the
partial sum of every row whose top column is d, so each candidate v then
costs one multiply-add per row.  Rows stay on plain ints:
a row with a non-integral coefficient is scaled to integers and its value
is kept only when the division by the scale is exact.  Forcing colours the
values 1, 2, 3, ... themselves instead and files each image under its
largest value, read from one stream of assignments ordered by that value
(see _images).

The four image searches ask one question, whether the compiled rows can
all take positive values in one colour class, and share one walk for it,
_mono_walk.  find_monochromatic runs it as it stands.
find_dominated_assignment colours a value by whether the target holds it,
pins the common colour to True and allows repeated entries.
translate_witness compiles the finite sums as the MT system with
coefficients <1> and keeps b in one entry past the prefix, which each
translated a-row reads with its own scale.  check_separation runs one walk
per side, with the reserved colours refused as the common colour.

When a node's rows include x_d itself (see _unit_rows), its candidates are
only the values of the common colour's class once that colour is known; see
_Classes.  Such a value is not coloured again: the node leaves x_d's own row
unchecked, unless distinct_image needs its value.  Over a span of more than
64 values the classes are bitmasks, and such a node also tests each row
base + x_d with base >= 0 (a shift row) on them: its candidates are the
class's mask ANDed with the mask shifted right by each base, so only the
other rows are tested per candidate.

Every search but forcing counts nodes by one rule: one node per candidate a
node takes from its values and examines, and one node per value the class
store colours, charged before the store colours it.  So a budget bounds the
values coloured as well as the candidates tried, and since no step depends
on the budget, a budget b below a request's full count stops it at node
b + 1.  Forcing counts one node per colour tried.

A node entered with its common colour known, without distinct_image, whose
rows come down to one integral row, tests each candidate only for a positive
value of that colour, outside the general loop that opens the colour,
refuses a reserved one and files values by row; the node picks its loop once,
on entry.
"""

import math
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import count
from typing import NamedTuple

from .matgen import _check_budget, _check_counted, is_first_entries
from .ratcore import DimensionMismatch, ImageSet, SparseRow, apply, image
from .seqs import _backtrack, _mt_row_counts, _mt_row_maps, coeff_seq, rationally_proportional

DEFAULT_NODE_BUDGET = 10**7


class BudgetExceeded(RuntimeError):
    pass


class _Counter:
    """Node counter with a hard limit; a limit of None is the default budget."""

    __slots__ = ("n", "limit")

    def __init__(self, limit):
        if limit is not None and limit < 0:
            raise ValueError("the node budget must be at least 0")
        self.n = 0
        self.limit = DEFAULT_NODE_BUDGET if limit is None else limit

    def charge(self, k):
        """Count k nodes at once, stopping at limit + 1 where they pass the limit."""
        self.n += k
        if self.n > self.limit:
            self.n = self.limit + 1
            raise _BudgetHit


class _BudgetHit(Exception):
    pass


class _Classes:
    """The colour classes of a span of values, coloured in increasing order
    as the walks ask for them, one node charged to counter per value.

    Over a span of more than 64 values each class is a bitmask: masks[ids[c]]
    has bit i set when firsts[ids[c]] + i has colour c.  The masks run past
    the span over the values that shift rows take (see walk).  The first 64
    classes, ids 0 to 63, are wide: their bit 0 is the span's first value,
    each chunk of values coloured sets their bits at once, from one byte per
    value holding the id, and they cost at most one bit each per value.  A
    later class starts at its first member and takes its members one bit at
    a time while it spans fewer than 512 values, so the many short classes
    of the gap colouring cost a few words each.  A later class that spans
    more turns the masks into classes filed in index, as a shorter span
    keeps its classes from the start:
    index[c] holds the span values of colour c reached so far, in increasing
    order, as an array of machine integers (a list where the span runs past
    them), 8 bytes a value, or as a 1-tuple while a class filed value by
    value has one member.  Only one colour object per class is kept.  Every
    value is coloured once, through colour_of, which must be defined on
    every value reached, with hashable colours: values are coloured ahead of
    the walk, some that the walk would have pruned before colouring them
    included.
    """

    __slots__ = ("colour_of", "span", "counter", "reached", "ids", "firsts", "masks", "index")

    def __init__(self, colour_of, span, counter):
        self.colour_of = colour_of
        self.span = span
        self.counter = counter
        self.reached = span.start  # every value below it is coloured, and filed if in the span
        self.ids = {}  # colour -> its position in masks
        self.firsts = []  # per mask, the value of its bit 0
        self.masks = [] if len(span) > 64 else None  # None while the classes are filed in index
        self.index = {}

    def members(self, c):
        """The span values of colour c, in increasing order: the filed class
        itself once the span is all coloured and filed, else those of walk."""
        if self.masks is None and self.reached >= self.span.stop:
            return self.index.get(c, ())
        return self.walk(c)

    def walk(self, c, shifts=(), widest=0):
        """The span values v of colour c, in increasing order, leaving out
        those with some base + v, base in shifts, of another colour.

        Values are coloured ahead in steps that grow fourfold with the range
        covered, never past the span plus widest, the largest shift the rows
        can take, or plus the largest shift if that is larger.  Under masks a
        step's candidates come from bit operations: the class's mask, ANDed
        with it shifted right by each base.
        """
        start, stop = self.span.start, self.span.stop
        colour_of, top = self.colour_of, max(shifts) if shifts else 0
        lo = start  # the first value not tried
        while True:
            masks = self.masks
            ahead = top if masks is not None else 0  # filed classes hold only the span
            reached = self.reached
            if reached - ahead < stop:
                grown = start + 4 * (reached - ahead - start) + ahead
                if grown <= lo + ahead:
                    grown = lo + 1 + ahead
                self._reach(min(grown, stop + max(widest, ahead)))
                masks, reached = self.masks, self.reached
            if masks is not None:
                end = min(reached - top, stop)
                i = self.ids.get(c)
                f = end if i is None else self.firsts[i]
                if f < end:
                    lo = max(lo, f)  # no member comes before f
                    mask = masks[i] >> (lo - f)
                    cand = mask if mask.bit_length() <= end - lo else mask & ((1 << (end - lo)) - 1)
                    for base in shifts:
                        cand &= mask >> base
                    bits = bin(cand)  # bit i, for the value lo + i, at bits[last - lo - i]
                    j = len(bits)
                    last = lo + j - 1
                    while (j := bits.rfind("1", 0, j)) >= 0:
                        yield last - j
            else:
                end = min(reached, stop)
                found = self.index.get(c, ())
                for j in range(bisect_left(found, lo), bisect_left(found, end)):
                    v = found[j]
                    for base in shifts:
                        if colour_of(base + v) != c:
                            break
                    else:
                        yield v
            if end >= stop:
                return
            lo = end

    def _reach(self, stop):
        """Charge one node per value from the first one not reached up to stop,
        then colour them, filing those in the span."""
        span_stop = self.span.stop
        if self.masks is None and stop > span_stop:
            stop = span_stop
        self.counter.charge(stop - self.reached)
        colour_of, index = self.colour_of, self.index
        if self.masks is not None:
            ids, firsts, masks = self.ids, self.firsts, self.masks
            start, v0 = self.span.start, self.reached
            chunk = bytearray()  # per value, the id of its class if wide, else 64
            for k in map(colour_of, range(v0, stop)):
                i = ids.get(k)
                if i is None:
                    i = ids[k] = len(masks)
                    if i < 64:  # a wide class is offset to the span
                        firsts.append(start)
                        masks.append(0)
                    else:
                        firsts.append(v0 + len(chunk))
                        masks.append(1)
                        i = 64
                elif i >= 64:
                    bit = v0 + len(chunk) - firsts[i]
                    if bit >= 512:
                        break
                    masks[i] |= 1 << bit
                    i = 64
                chunk.append(i)
            for b in set(chunk):
                if b < 64:
                    bits = chunk.translate(b"0" * b + b"1" + b"0" * (255 - b))[::-1]
                    masks[b] |= int(bits, 2) << (v0 - start)
            self.reached = v = v0 + len(chunk)
            if v == stop:
                return
            # v's class, k, spans 512 values and is not wide: from v on the classes are filed
            self._unmask()
            if v < span_stop:
                index[k].append(v)
                self.reached = v + 1
            for w in range(max(v + 1, span_stop), stop):
                colour_of(w)  # charged: the values past the span are coloured, not filed
            stop = min(stop, span_stop)
        for v in range(self.reached, stop):
            k = colour_of(v)
            found = index.get(k)
            if found is None:
                index[k] = (v,)
            else:
                if type(found) is tuple:
                    found = index[k] = (array("q", found) if span_stop <= 2**63
                                        else list(found))
                found.append(v)
        if stop > self.reached:
            self.reached = stop

    def _unmask(self):
        """File the masked span values in index and stop masking."""
        stop = min(self.reached, self.span.stop)
        for k, i in self.ids.items():
            found = self.index[k] = array("q") if self.span.stop <= 2**63 else []
            f = self.firsts[i]
            if f < stop:
                bits = bin(self.masks[i] & ((1 << (stop - f)) - 1))  # as in walk
                j = len(bits)
                last = f + j - 1
                while (j := bits.rfind("1", 0, j)) >= 0:
                    found.append(last - j)
        self.reached = stop
        self.ids = self.firsts = self.masks = None


def _unit_rows(by_top):
    """Per depth d, None unless a compiled row is x_d itself, else the other
    rows of d.  That row's value is the candidate, so only the values it
    accepts can pass at d, and a candidate drawn from them passes it unchecked."""
    out = []
    for rows in by_top:
        rest = [row for row in rows if row[:3] != ((), 1, 1)]  # (lower, top, den) of x_d
        out.append(rest if len(rest) < len(rows) else None)
    return out


@dataclass(frozen=True)
class SearchConfig:
    variable_bound: int
    min_entry: int = 1
    distinct_entries: bool = False
    distinct_image: bool = False
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self):
        if self.min_entry < 1:
            raise ValueError("entries start at 1")
        if self.variable_bound < self.min_entry:
            raise ValueError("variable bound below the minimum entry")


class SearchWitness(NamedTuple):
    assignment: tuple
    image: ImageSet
    colour: object


class SearchResult(NamedTuple):
    witness: object
    nodes: int
    exhausted: bool


def _as_int_value(v):
    """Positive integer value of a row, or None."""
    if isinstance(v, Fraction):
        if v.denominator != 1:
            return None
        v = int(v)
    return v if v >= 1 else None


def _compile_rows(rows, width):
    """Bucket exact value rows by their top column, the last entry they read.

    rows yields (coeffs, tag) pairs: coeffs maps entry positions to nonzero
    int or Fraction coefficients (a matrix row or an MT block tuple), and tag
    is handed back with the row.  by_top[d] lists, in input order, (lower,
    top, den, tag) for every row whose top column is d.  The
    row is scaled by den, the least common denominator of its coefficients,
    so the row's value at x is (lower . x + top * x[d]) / den with lower the
    (column, integer coefficient) pairs below d and top an integer too.
    """
    by_top = [[] for _ in range(width)]
    for coeffs, tag in rows:
        den = math.lcm(*(c.denominator for c in coeffs.values() if isinstance(c, Fraction)))
        d = max(coeffs)
        lower = tuple((j, int(coeffs[j] * den)) for j in sorted(coeffs) if j != d)
        by_top[d].append((lower, int(coeffs[d] * den), den, tag))
    return by_top


def _node_rows(rows, x):
    """Fix the part of each row of one depth that the earlier entries set.

    Returns (base, top, den, tag) per row, with base the scaled partial sum
    over the columns below the top; entry v at the top column then gives the
    value (base + top * v) / den.
    """
    return [(sum(c * x[j] for j, c in lower), top, den, tag) for lower, top, den, tag in rows]


def _mt_systems(systems, length):
    """The compiled rows of each coefficient sequence's system over entry prefixes
    of the given length, refused before any is compiled past the row guard."""
    _check_counted((m for a in systems for m in _mt_row_counts(len(a), length)),
                   "a %d-entry prefix" % length)
    return [_compile_rows(((coeffs, None) for coeffs in _mt_row_maps(a, length)), length)
            for a in systems]


def _first_leaf(leaves):
    """(first leaf or None, whether the search finished within its budget)."""
    try:
        return next(leaves, None), True
    except _BudgetHit:
        return None, False


def _mono_walk(by_top, x, classes, counter, colour=None, distinct_entries=True,
               distinct_image=False, reserved=frozenset()):
    """Yield, in lexicographic order, the common colour of every assignment
    of the len(by_top) leading entries of x, drawn from classes.span, at which
    the compiled rows of by_top all take positive integer values of one
    colour under classes.colour_of.  x holds the assignment when a colour is
    yielded; rows may also read entries of x past the walked ones.

    colour, if given, is the common colour from the start; otherwise the
    first row value sets it, and a reserved colour is pruned there.
    distinct_entries forbids repeated entries; distinct_image forbids two rows
    with different tags taking one value.  Where x_d is a row, entry d tries
    only the common colour's class once the colour is known (see _unit_rows),
    and x_d's row goes unchecked there, since each member already has the
    common colour, except under distinct_image, which files its value.
    The walk's children fixes a node's rows once, counts each candidate it
    takes as one node and tests that candidate's rows inline; the class store
    counts the values it colours.  A narrowed node, while the classes are
    masks, leaves its shift rows (top 1, den 1, base from 0 to 8 * len(span))
    to classes.walk, which tests them on the masks; the widest base those
    rows can take bounds how far past the span it colours.  A node entered
    with the colour known, distinct_image off and one integral row left tests
    only that row's value for a positive one of the colour.
    """
    span, colour_of, limit = classes.span, classes.colour_of, counter.limit
    rest = _unit_rows(by_top)
    # under distinct_image a unit row's value must still enter the owner map
    narrowed = by_top if distinct_image else rest
    far = 8 * len(span)  # a larger shift is tested per candidate, not masked
    # per depth, the lower parts of the rows base + x_d that a class walk tests
    # on its masks, and the rows left to each of its candidates
    if classes.masks is not None:
        shifted = [[] if rows is None or distinct_image else
                   [row[0] for row in rows if row[1] == row[2] == 1] for rows in narrowed]
        tested = [rows if rows is None or distinct_image else
                  [row for row in rows if row[1] != 1 or row[2] != 1] for rows in narrowed]
        # the largest base each depth's rows base + x_d can take in the span, up to far
        widest = [min(far, (span.stop - 1) * max(
            (sum(c for _, c in lower if c > 0) for lower in lowers), default=0))
            for lowers in shifted]

    def children(d, state):
        # state: (common colour so far or None, value -> tag of the row taking it)
        common, owner = state
        # once the colour is known, x_d prunes every value outside its class
        if rest[d] is None or common is None:
            rows, values = _node_rows(by_top[d], x), span
        elif classes.masks is not None:
            # the class walk tests the rows base + x_d on its masks
            rows = _node_rows(tested[d], x)
            bases = [sum(c * x[j] for j, c in lower) for lower in shifted[d]]
            if bases and (min(bases) < 0 or max(bases) > far):
                rows += [(base, 1, 1, None) for base in bases if not 0 <= base <= far]
                bases = [base for base in bases if 0 <= base <= far]
            values = classes.walk(common, bases, widest[d])
        else:
            rows = _node_rows(narrowed[d], x)
            values = classes.members(common)
        prior = x[:d] if distinct_entries else ()
        # counter.n, not a local: the nodes below each yield advance it
        if common is not None and not distinct_image and len(rows) == 1 and rows[0][2] == 1:
            # the colour is known, no value is filed and one integral row is
            # left: a candidate only needs a positive value of that colour
            ((base, top, _, _),) = rows
            for v in values:
                counter.n += 1
                if counter.n > limit:
                    raise _BudgetHit
                if v in prior:
                    continue
                val = base + top * v
                if val < 1 or colour_of(val) != common:
                    continue
                x[d] = v
                yield state
            return
        for v in values:
            counter.n += 1
            if counter.n > limit:
                raise _BudgetHit
            if v in prior:
                continue
            got, seen_by = common, owner
            for base, top, den, tag in rows:
                val = base + top * v
                if den != 1:
                    val, rem = divmod(val, den)
                    if rem:
                        break
                if val < 1:
                    break
                c = colour_of(val)
                if got is None:
                    if c in reserved:
                        break
                    got = c
                elif c != got:
                    break
                if distinct_image:
                    seen = seen_by.get(val)
                    if seen is None:
                        seen_by = {**seen_by, val: tag}  # siblings keep the parent's map
                    elif seen != tag:
                        break
            else:
                x[d] = v
                yield got, seen_by

    for common, _ in _backtrack(len(by_top), children, (colour, {})):
        yield common


def find_monochromatic(A, col, cfg, workers=1):
    """Lexicographically least assignment within bounds whose image is a set
    of positive integers of one colour, or absence.

    workers is kept for compatibility and must be at least 1; the search runs
    in the calling thread, so the result, nodes and budget never depend on it.
    """
    if not A.rows:
        raise ValueError("matrix has no rows")
    if workers < 1:
        raise ValueError("need at least one worker")
    counter = _Counter(cfg.node_budget)
    if not all(A.rows):
        return SearchResult(None, 0, True)  # a zero row can never take a positive value
    by_top = _compile_rows(((r, r.key()) for r in A.rows), A.width)
    x = [0] * A.width
    classes = _Classes(col.colour, range(cfg.min_entry, cfg.variable_bound + 1), counter)
    colour, exhausted = _first_leaf(_mono_walk(
        by_top, x, classes, counter, distinct_entries=cfg.distinct_entries,
        distinct_image=cfg.distinct_image))
    if colour is None:
        return SearchResult(None, counter.n, exhausted)
    return SearchResult(SearchWitness(tuple(x), image(A, x), colour), counter.n, True)


class ForcingResult(NamedTuple):
    bound: object
    certificate: tuple
    nodes: int


def _image_plan(A):
    """Check A for forcing and scale it to integers, once per forcing search.

    Forcing needs non-negative entries with every column positively used, so
    that finitely many assignments have their image in [1, n]; other
    matrices raise ValueError.  Returns (col_max, cols, rows, scale):
    col_max counts the columns by their largest entry, cols[j] lists (row,
    scale * entry) for the rows reading column j, rows is the row count and
    scale the least common denominator of the entries.
    """
    col_max = {}
    for r in A.rows:
        if not r:
            raise ValueError("zero rows never have positive images")
        for c, v in r.items():
            if v < 0:
                raise ValueError("forcing search needs non-negative entries")
            col_max[c] = max(col_max.get(c, 0), v)
    for c in range(A.width):
        if c not in col_max:
            raise ValueError("column %d carries no positive entry" % c)
    scale = math.lcm(*(v.denominator for r in A.rows for v in r.values()
                       if isinstance(v, Fraction)))
    cols = [[] for _ in range(A.width)]
    for i, r in enumerate(A.rows):
        for c, v in r.items():
            cols[c].append((i, int(v * scale)))
    return Counter(col_max.values()), cols, len(A.rows), scale


def _images(plan):
    """Yield (scale * largest row value, image or None) for every assignment
    x >= 1 of the planned matrix, in non-decreasing order of that value.

    Entries are non-negative, so raising an entry never lowers a row value:
    a heap ordered by the largest value pops the assignments in order.  Each
    is pushed once: the heap starts at (1, ..., 1), and an assignment whose
    parent last raised x_j raises only x_k with k >= j.  A heap entry keeps
    its parent's scaled row values and builds its own when popped.  The
    image, a frozenset, is None when a row value is not an integer or the
    image came before.  The heap never empties.
    """
    _, cols, rows, scale = plan
    base = [0] * rows  # the values at x = (0, 1, ..., 1), so the first pop raises x_0 to 1
    for col in cols[1:]:
        for i, e in col:
            base[i] += e
    heap = [(0, 0, base, 0)]
    tick = count(1)  # breaks ties on the key, so that no two value lists are compared
    seen = set()
    while True:
        _, _, vals, j = heappop(heap)
        vals = vals[:]
        for i, e in cols[j]:
            vals[i] += e
        top = max(vals)
        if scale == 1:
            image = frozenset(vals)
        elif all(v % scale == 0 for v in vals):
            image = frozenset(v // scale for v in vals)
        else:
            image = None
        if image is not None:
            if image in seen:
                image = None
            else:
                seen.add(image)
        yield top, image
        for k in range(j, len(cols)):
            key = max([vals[i] + e for i, e in cols[k]])
            heappush(heap, (key if key > top else top, next(tick), vals, k))


def forcing_bound(A, colours, n_max, node_budget=None):
    """Least n <= n_max such that every colours-colouring of [1, n] leaves
    some image of A monochromatic, with an avoiding certificate for n - 1.

    One depth-first walk on _backtrack colours 1, 2, 3, ... in turn: entry d
    is the colour of d + 1, and colour c is pruned there when some image
    whose largest value is d + 1 has every other value coloured c.  The
    first time the walk reaches depth d it reads the images with largest
    value d + 1 from _images, which yields them in order of that value, and
    files them under d; before that, the 10^7 enumeration guard must pass
    the column box up to d + 1, each x_j at most d + 1 over the largest
    entry of column j.  Colours open in first-use order (entry d tries 0 up
    to one past the largest colour used before it), which loses nothing
    because renaming colours preserves avoidance.  Avoidance is closed under
    prefixes, so if the deepest depth reached is L < n_max the bound is
    L + 1; a walk that colours all of [1, n_max] gives bound None.

    certificate[i] is the colour of i + 1.  It is the first colouring of
    [1, L] the walk reaches: the lexicographically least avoiding colouring,
    which already uses its colours in first-use order.  nodes counts one per
    colour tried.  Raises BudgetExceeded when the walk outgrows the node
    budget, and ValueError when the images the walk needs are too many to
    enumerate.
    """
    if colours < 1:
        raise ValueError("need at least one colour")
    if not A.rows:
        raise ValueError("matrix has no rows")
    counter = _Counter(node_budget)
    limit = counter.limit
    if n_max < 1:
        return ForcingResult(None, (), 0)
    plan = _image_plan(A)
    col_max, _, _, scale = plan
    stream = _images(plan)
    head = next(stream)  # the first pair not yet filed
    by_top = []  # by_top[d]: per image with largest value d + 1, the indices of its other values
    colour = []  # colour[i]: the colour of i + 1 on the current path
    cert = []  # the first colouring reached at the deepest depth so far
    synced = 0  # colour[:synced] == cert[:synced]

    def children(d, opened):
        nonlocal head, synced
        if d == len(by_top):
            n = d + 1
            box = math.prod((n // m) ** k for m, k in col_max.items())
            _check_budget(box, "forcing images up to n=%d" % n)
            filed = []
            while head[0] <= n * scale:
                if head[1] is not None:
                    filed.append(tuple(v - 1 for v in sorted(head[1]) if v != n))
                head = next(stream)
            by_top.append(filed)
        images = by_top[d]
        for c in range(min(opened + 1, colours)):
            counter.n += 1
            if counter.n > limit:
                raise _BudgetHit
            for others in images:
                for i in others:
                    if colour[i] != c:
                        break
                else:
                    break  # every other value of this image has colour c
            else:
                colour[d:] = (c,)
                if d < synced:
                    synced = d
                if d == len(cert):
                    # every entry from synced to d was set since the last copy
                    cert[synced:] = colour[synced:]
                    synced = d + 1
                yield max(opened, c + 1)

    try:
        leaf = next(_backtrack(n_max, children, 0), None)
    except _BudgetHit:
        raise BudgetExceeded(
            "forcing search at n=%d exceeds the node budget" % (len(cert) + 1)
        ) from None
    bound = None if leaf is not None else len(cert) + 1
    return ForcingResult(bound, tuple(cert), counter.n)


def find_dominated_assignment(A, B, x, y_bound, node_budget=None):
    """Least y with entries in [1, y_bound] whose B-image lands inside the
    A-image at x; the A-image must consist of positive integers."""
    target_vals = []
    for v in apply(A, x):
        iv = _as_int_value(v)
        if iv is None:
            raise ValueError("the target image must consist of positive integers")
        target_vals.append(iv)
    target = frozenset(target_vals)
    if not B.rows:
        raise ValueError("probe matrix has no rows")
    counter = _Counter(node_budget)
    if not all(B.rows):
        return SearchResult(None, 0, True)
    by_top = _compile_rows(((r, None) for r in B.rows), B.width)
    y = [0] * B.width
    inside = _Classes(target.__contains__, range(1, y_bound + 1), counter)
    # a value's colour is whether the target holds it; every row must take a held value
    found, exhausted = _first_leaf(_mono_walk(by_top, y, inside, counter, colour=True,
                                              distinct_entries=False))
    if found is None:
        return SearchResult(None, counter.n, exhausted)
    return SearchResult(SearchWitness(tuple(y), image(B, y), None), counter.n, True)


class CertifyReport(NamedTuple):
    certified: bool
    reason: object


def certify_ipr(A, B, C):
    """Linear-witness certificate: B first-entries, A*C = B, C non-negative
    integral with no zero row.  Passing makes A image partition regular by
    composition; failing reports why the witness is invalid."""
    u, v = len(A.rows), A.width
    if len(B.rows) != u or len(C.rows) != v or C.width != B.width:
        raise DimensionMismatch(
            "need A %dx%d, B %dx%d, C %dx%d"
            % (u, v, u, B.width, v, B.width)
        )
    if not is_first_entries(B):
        return CertifyReport(False, "b-not-first-entries")
    for r in C.rows:
        if not r:
            return CertifyReport(False, "c-zero-row")
        for _, val in r.items():
            num_den = val.as_integer_ratio() if isinstance(val, Fraction) else (val, 1)
            if num_den[1] != 1 or num_den[0] < 0:
                return CertifyReport(False, "c-not-nonnegative-integral")
    for i, arow in enumerate(A.rows):
        prod = SparseRow()
        for t, av in arow.items():
            for j, cv in C.rows[t].items():
                prod[j] = prod[j] + av * cv
        if prod.key() != B.rows[i].key():
            return CertifyReport(False, "product-mismatch")
    return CertifyReport(True, None)


def is_rapid(x, p):
    """Growth check: whenever p^s <= x_i, the next term is divisible by
    p^(s+8).  Needs p >= 2."""
    if p < 2:
        raise ValueError("the growth base p must be at least 2")
    x = tuple(x)
    if any(not isinstance(v, int) or v < 1 for v in x):
        raise ValueError("need positive integers")
    for i in range(len(x) - 1):
        s = 0
        while p ** (s + 1) <= x[i]:
            s += 1
        if x[i + 1] % p ** (s + 8):
            return False
    return True


def make_rapid(p, seeds):
    """Scale each seed to the least multiple satisfying the growth check
    against the previous output term.  Needs p >= 2."""
    if p < 2:
        raise ValueError("the growth base p must be at least 2")
    seeds = tuple(seeds)
    if not seeds or any(not isinstance(v, int) or v < 1 for v in seeds):
        raise ValueError("need positive integer seeds")
    out = [seeds[0]]
    for seed in seeds[1:]:
        s = 0
        while p ** (s + 1) <= out[-1]:
            s += 1
        out.append(math.lcm(seed, p ** (s + 8)))
    return tuple(out)


class SeparationReport(NamedTuple):
    outcome: str
    ratio: object
    witness: object
    nodes: int


def check_separation(col, a, b, prefix_len, value_bound, node_budget=None):
    """Can the colouring keep the a-system and the b-system apart?

    If a and b are positively proportional no colouring can (outcome
    "proportional").  Otherwise search for entry prefixes x, y within the
    bounds whose two images are nonempty, positive and share one non-reserved
    colour; report the least witness, or none-within-bounds, or budget.
    """
    a = coeff_seq(a)
    b = coeff_seq(b)
    counter = _Counter(node_budget)
    r = rationally_proportional(a, b)
    if r is not None:
        return SeparationReport("proportional", r, None, 0)
    if prefix_len < len(a) or prefix_len < len(b):
        # one side's image is empty at this prefix length, so no witness
        return SeparationReport("none-within-bounds", None, None, 0)
    a_rows, b_rows = _mt_systems((a, b), prefix_len)
    classes = _Classes(col.colour, range(1, value_bound + 1), counter)
    x, y = [0] * prefix_len, [0] * prefix_len
    # both images are nonempty at this prefix length, so every complete prefix has a colour
    try:
        for colour in _mono_walk(a_rows, x, classes, counter, reserved=col.reserved):
            for _ in _mono_walk(b_rows, y, classes, counter, colour):
                return SeparationReport(
                    "witness", None, {"x": tuple(x), "y": tuple(y), "colour": colour}, counter.n
                )
    except _BudgetHit:
        return SeparationReport("budget", None, None, counter.n)
    return SeparationReport("none-within-bounds", None, None, counter.n)


def translate_witness(col, a, prefix_len, b_bound, x_bound, node_budget=None, workers=1):
    """Least (b, x) such that the finite sums of x together with b plus every
    a-system value of x are all positive and one colour.

    x has prefix_len distinct entries in [1, x_bound] and b ranges in
    [1, b_bound], b varying slowest.  workers is kept for compatibility and
    must be at least 1; the result, nodes and budget never depend on it.
    """
    a = coeff_seq(a)
    if prefix_len < len(a):
        raise ValueError("prefix must be at least as long as the coefficients")
    if workers < 1:
        raise ValueError("need at least one worker")
    counter = _Counter(node_budget)
    # the finite sums are the <1>-system.  b sits in x[prefix_len], read by each a-row at
    # its scale: at depth d the finite sums gaining entry d come first, then b + ...
    fs_rows, a_rows = _mt_systems(((1,), a), prefix_len)
    by_top = [fs + [(lower + ((prefix_len, den),), top, den, tag) for lower, top, den, tag in mt]
              for fs, mt in zip(fs_rows, a_rows)]
    x = [0] * (prefix_len + 1)
    classes = _Classes(col.colour, range(1, x_bound + 1), counter)
    for b in range(1, b_bound + 1):
        x[prefix_len] = b
        colour, exhausted = _first_leaf(_mono_walk(by_top, x, classes, counter))
        if colour is not None:
            return SearchResult((b, tuple(x[:prefix_len]), colour), counter.n, True)
        if not exhausted:
            return SearchResult(None, counter.n, False)
    return SearchResult(None, counter.n, True)
