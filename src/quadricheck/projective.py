"""Exact projective arithmetic on integer representatives.

Rationals are cleared once, by `clear_denominators`, where they enter;
`Extensor`, `Point`, `QuadricCoeffs` and `Transform` take ints only.
`Extensor` is the value type of the exterior algebra that `extensors`
computes in, and a `Point` of P^3 is its grade-1 subclass with canonical
coordinates (coprime, first nonzero entry positive), so point equality is
tuple equality.  Rank, kernel and determinants all read one fraction-free
(Bareiss) echelon form, computed by `_echelon`.  The incidences of a
configuration (collinear triples, vanishing brackets, and the planes of
six or more of its points with the left kernels of their conic charts) are
read through one memoizing `IncidenceTable`.  The quadrics through a set of
points are the kernel of their Veronese rows, `quadric_through`; the
special exits take their certificates from it.
"""

from __future__ import annotations

import re
from copy import copy
from dataclasses import dataclass
from decimal import Decimal
from itertools import combinations
from math import gcd, lcm


class GeometryError(Exception):
    """Base class for exact-geometry failures."""


class InfinityProduct(GeometryError):
    """A von Staudt product of the zero and the infinity of a line frame:
    0 * infinity has no projective meaning."""


_INT_ONLY = frozenset((int,))


def clear_denominators(values) -> tuple:
    """Ints or Fractions times the lcm of their denominators: integers with
    the same ratios, so the same projective class.  A tuple of plain ints
    is returned as it is."""
    values = tuple(values)
    if _INT_ONLY.issuperset(map(type, values)):
        return values
    mult = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (mult // v.denominator) for v in values)


def _require_ints(values):
    if not _INT_ONLY.issuperset(map(type, values)):
        raise TypeError("exact coordinates must be ints; clear rationals first")


def _canonical_ints(values):
    ints = tuple(values)
    _require_ints(ints)
    if not any(ints):
        raise ValueError("homogeneous coordinates must not all be zero")
    return _canonical_nonzero(ints)


def _canonical_nonzero(ints: tuple) -> tuple:
    """The canonical form of a nonzero tuple of ints, such as a kernel
    returns: divided by the gcd, first nonzero entry positive; the tuple
    itself when it is canonical already."""
    g = gcd(*ints)
    for v in ints:
        if v:
            break
    if v < 0:
        g = -g
    if g == 1:
        return ints
    return tuple([v // g for v in ints])


def _decimal_strings(ints) -> list:
    """The decimal strings of ints, also of more digits than `str` writes
    under the interpreter's limit on int-to-text conversion: `Decimal`
    converts both ways without that limit."""
    try:
        return [str(c) for c in ints]
    except ValueError:
        return [str(Decimal(c)) for c in ints]


_INTEGER_TEXT = re.compile(r"[+-]?[0-9]+")
# the bytes that integer texts joined by commas are made of
_INTEGER_BYTES = b"+-0123456789,"


def _int_of_string(text) -> int:
    """`int(text)`, and for integer text of more digits than `int` converts
    under the interpreter's limit, the int that `Decimal` reads."""
    try:
        return int(text)
    except ValueError:
        if isinstance(text, str) and _INTEGER_TEXT.fullmatch(text):
            return int(Decimal(text))
        raise


def _ints_of_strings(items) -> tuple:
    """The ints of a JSON list of integer strings, such as `_decimal_strings`
    writes, each of which `_INTEGER_TEXT` fully matches; ValueError on
    anything else.  One pass over the list's joined text finds any item
    that is not a string, or any character but a sign or an ASCII digit,
    and `int` then rejects every other text, such as a misplaced sign."""
    try:
        text = ",".join(items) if type(items) is list else "_"
        stray = text.encode("ascii").translate(None, _INTEGER_BYTES)
    except (TypeError, UnicodeEncodeError):
        stray = b"_"
    if stray:
        raise ValueError("a value must be written as a list of integer strings")
    try:
        return tuple(map(int, items))
    except ValueError:
        return tuple(map(_int_of_string, items))


# The basis extensors of each grade, as sorted subsets of {0,1,2,3}.
SUBSETS = {k: tuple(combinations(range(4), k)) for k in range(5)}


class Extensor:
    """A grade-k element of the exterior algebra of a 4-dimensional space,
    k = 0..4, with int coefficients indexed by SUBSETS[k]."""

    __slots__ = ("grade", "coeffs")

    def __init__(self, grade, coeffs):
        if grade not in range(5):
            raise ValueError("grade must be 0..4")
        coeffs = tuple(coeffs)
        if len(coeffs) != len(SUBSETS[grade]):
            raise ValueError(f"grade-{grade} extensor needs {len(SUBSETS[grade])} coefficients")
        _require_ints(coeffs)
        _set_grade(self, grade)
        _set_coeffs(self, coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Extensor is immutable")

    @staticmethod
    def zero(grade):
        return Extensor(grade, (0,) * len(SUBSETS[grade]))

    def is_zero(self):
        return not any(self.coeffs)

    def canonical(self):
        """Scale-normalized copy: coprime integer coefficients, first
        nonzero positive.  Zero extensors are returned unchanged."""
        if self.is_zero():
            return self
        return _trusted(self.grade, _canonical_ints(self.coeffs))

    def __eq__(self, other):
        return (
            isinstance(other, Extensor)
            and self.grade == other.grade
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.grade, self.coeffs))

    def __repr__(self):
        terms = [
            f"{c}*e{''.join(map(str, s))}" if s else str(c)
            for s, c in zip(SUBSETS[self.grade], self.coeffs)
            if c != 0
        ]
        return " + ".join(terms) if terms else f"0<{self.grade}>"


_set_grade = Extensor.grade.__set__
_set_coeffs = Extensor.coeffs.__set__


def _trusted(grade, coeffs: tuple) -> Extensor:
    """An Extensor built without the checks of Extensor(...), for a grade
    and coefficient tuple that are right by construction: the product of
    two extensors, or the canonical form of one."""
    e = object.__new__(Extensor)
    _set_grade(e, grade)
    _set_coeffs(e, coeffs)
    return e


class Point(Extensor):
    """A point of P^3: the grade-1 extensor of its canonical homogeneous
    coordinates.

    Four int coordinates (ValueError on another count, TypeError on another
    type), divided to coprime integers with the first nonzero entry
    positive, so two Points are equal iff their coords tuples are.
    """

    __slots__ = ()

    # the coefficients under the name of coordinates, read from the same slot
    coords = Extensor.coeffs

    def __init__(self, coords):
        coords = tuple(coords)
        if len(coords) != 4:
            raise ValueError("points live in P^3: they take four coordinates")
        _set_grade(self, 1)
        _set_coeffs(self, _canonical_ints(coords))

    def __repr__(self):
        return "[" + ":".join(str(c) for c in self.coords) + "]"

    def to_strings(self):
        return _decimal_strings(self.coords)


def _trusted_point(coords: tuple) -> Point:
    """A Point built without the checks of Point(...), for four coordinates
    that are canonical by construction, such as `_canonical_ints` returns."""
    p = object.__new__(Point)
    _set_grade(p, 1)
    _set_coeffs(p, coords)
    return p


E0 = Point((1, 0, 0, 0))
E1 = Point((0, 1, 0, 0))
E2 = Point((0, 0, 1, 0))
E3 = Point((0, 0, 0, 1))
STANDARD_BASIS = (E0, E1, E2, E3)


def det2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def det3(a, b, c):
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - b[0] * (a[1] * c[2] - a[2] * c[1])
        + c[0] * (a[1] * b[2] - a[2] * b[1])
    )


def _plucker(a, b):
    """The Plücker line of columns a, b: their 2x2 minors, in SUBSETS[2] order."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0,
        a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2,
    )


def _pairing(l, m):
    """det(a, b, c, d) from the Plücker lines l of a, b and m of c, d."""
    return l[0] * m[5] - l[1] * m[4] + l[2] * m[3] + l[3] * m[2] - l[4] * m[1] + l[5] * m[0]


def det4(a, b, c, d):
    """Determinant of the 4x4 matrix with columns a, b, c, d: Laplace
    expansion along the first two columns, the pairing of their lines."""
    return _pairing(_plucker(a, b), _plucker(c, d))


def bracket(a: Point, b: Point, c: Point, d: Point):
    """[abcd]: determinant of canonical coordinates, columns a, b, c, d."""
    return det4(a.coords, b.coords, c.coords, d.coords)


def _det_any(*columns):
    k = len(columns[0])
    if k == 1:
        return columns[0][0]
    if k == 2:
        return det2(*columns)
    if k == 3:
        return det3(*columns)
    return det4(*columns)


def _echelon(rows):
    """Fraction-free (Bareiss) row echelon form of an integer matrix.

    Pivots are the first nonzero entry of their column, and every update
    below a pivot divides exactly by the previous pivot (Sylvester's
    identity), so entries stay integer minors.  Returns (rows, pivot columns,
    swap sign): rows below the rank are zero, and a square matrix has
    det = sign × last row's last entry.
    """
    a = [list(row) for row in rows]
    sign = 1
    m = len(a)
    n = len(a[0]) if a else 0
    pivots = []
    prev = 1
    r = 0
    for c in range(n):
        for i in range(r, m):
            if a[i][c] != 0:
                break
        else:
            continue
        if i != r:
            a[r], a[i] = a[i], a[r]
            sign = -sign
        prow = a[r]
        pv = prow[c]
        for i in range(r + 1, m):
            row = a[i]
            x = row[c]
            for j in range(c + 1, n):
                row[j] = (row[j] * pv - x * prow[j]) // prev
            row[c] = 0
        prev = pv
        pivots.append(c)
        r += 1
        if r == m:
            break
    return a, pivots, sign


def rank_of_vectors(vectors) -> int:
    """Exact rank of the span of the given integer coordinate vectors."""
    return len(_echelon(vectors)[1])


def rank_of_points(points) -> int:
    """Rank of the matrix whose columns are the points' coordinates."""
    return rank_of_vectors([p.coords for p in points])


def kernel_basis(rows):
    """Basis of the right kernel of the row matrix, as integer tuples.

    One vector per free column in ascending order, with that free variable 1
    and the others 0; each is cleared to coprime integers with positive
    leading sign, so the output is deterministic.
    """
    a, pivots, _ = _echelon(rows)
    if not a:
        raise ValueError("kernel_basis needs the column count from its rows")
    cols = len(a[0])
    # The last pivot d is the determinant of the pivot columns of the first
    # rank rows of the row-swapped matrix, and those rows span its row
    # space; by Cramer's rule d·x is an integer vector, so every division
    # below is exact.
    d = a[len(pivots) - 1][pivots[-1]] if pivots else 1
    basis = []
    for fc in range(cols):
        if fc not in pivots:
            # x solves A·x = column fc, so d·(x − e_fc) lies in the kernel
            x = [0] * cols
            for r in reversed(range(len(pivots))):
                row = a[r]
                rhs = d * row[fc] - sum(row[c] * x[c] for c in pivots[r + 1 :])
                x[pivots[r]] = rhs // row[pivots[r]]
            x[fc] = -d
            basis.append(_canonical_ints(x))
    return basis


def bareiss_det(rows):
    """Exact determinant of a square integer matrix, fraction-free."""
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix must be square")
    a, _, sign = _echelon(rows)
    return sign * a[-1][-1]


# Degree-2 monomials of planar coordinates, in the order of the conic rows.
CONIC_MONOMIALS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))

# Rows kept by each of the four 3x3 minors of a 4x3 coordinate matrix.
_MINOR_ROWS = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))


def _dependent(line, x) -> bool:
    """Whether a pair's Plücker line and x are dependent: x a third point's
    coordinates, when the four coefficients of line ∨ x (the triple's 3x3
    minors) vanish, read up to the first nonzero one; or x a second pair's
    line, when their pairing (the bracket of the four points) does."""
    if len(x) == 6:
        return _pairing(line, x) == 0
    l01, l02, l03, l12, l13, l23 = line
    x0, x1, x2, x3 = x
    return not (
        l12 * x0 - l02 * x1 + l01 * x2 or l13 * x0 - l03 * x1 + l01 * x3
        or l23 * x0 - l03 * x2 + l02 * x3 or l23 * x1 - l13 * x2 + l12 * x3
    )


def _conic_row(basis, p: Point):
    """The CONIC_MONOMIALS of p's coordinates in the basis of three points
    spanning a plane through p, cleared to integers by the lcm of their
    reduced denominators.

    By Cramer's rule on the first nonzero 3x3 minor D of the basis, the
    coordinates are D_i / D, where D_i replaces column i of D by p; the lcm
    of their reduced denominators is |D| / gcd(D, D_0, D_1, D_2), so the
    cleared coordinates are sign(D)·D_i / gcd(D, D_0, D_1, D_2).
    """
    for rows in _MINOR_ROWS:
        ca, cb, cc = ([q.coords[r] for r in rows] for q in basis)
        d = det3(ca, cb, cc)
        if d:
            break
    cp = [p.coords[r] for r in rows]
    minors = (det3(cp, cb, cc), det3(ca, cp, cc), det3(ca, cb, cp))
    g = gcd(d, *minors)
    if d < 0:
        g = -g
    x = [m // g for m in minors]
    return tuple(x[i] * x[j] for i, j in CONIC_MONOMIALS)


class IncidenceTable:
    """The incidences of one configuration of points of P^3, each computed
    the first time it is read and then memoized:

    - whether a triple is collinear: its first pair's Plücker line joined
      with its third point is zero;
    - whether a bracket vanishes: the pairing of its two pairs' lines does;
    - every plane holding six or more of the points that `sixes_on_a_conic`
      has met, as the mask of the points on it, with one basis K of the
      left kernel {y : yA = 0} of its conic chart A: the conic-monomial
      row of every point on the plane, in the basis of its first
      independent triple.

    Entries are keyed by the bitmask of the points' indices and computed
    from the indices the reader holds, through the line of each pair (at
    most 45, each built once; equal points have the zero line).  A set has
    rank <= 2 iff all its sub-triples are collinear, and rank <= 3 iff all
    its sub-brackets vanish.  Whether a conic determinant is zero does not
    depend on the chart: another basis of the plane changes every conic
    row by the invertible symmetric square of a 3x3 matrix.

    Six points S of a plane holding n >= 6 of the points, with chart A
    (n x 6), lie on a conic iff rank A < 6 or the (n-6) x (n-6) minor of K
    on the columns outside S vanishes: A_S is singular iff some y != 0
    supported on S has yA = 0, and when rank A = 6 each such y is zK, so
    one exists iff that block of K is singular (empty, so nonzero, for
    n = 6; Hodge and Pedoe, Methods of Algebraic Geometry I).  This holds
    for collinear sixes too.  For n = 10 each minor is the pairing of two
    column pairs' 2x2 minors, which the plane's `_Kernel` memoizes.

    `sixes_on_a_conic` finds the planes first and then sweeps each once.
    It reads the sixes by their first four points.  A four off every plane
    met with a nonzero bracket spans P^3, and so does every six that
    extends it, so with no four points coplanar the scan reads 70 brackets
    and nothing else.  A four of rank 3 inside a plane met is skipped, as
    its sixes lie in that plane; one with a vanishing bracket names its
    plane, and `_plane` finds every point on it, one bracket per point.  A
    collinear four lies in many planes, so it is never skipped this way: it
    names the planes through its line, one per point off the line, and a
    line of six or more points gives its collinear sixes.  Each plane of
    n >= 6 points then lists its conic sixes in one pass over K: the
    complements of the (n-6)-subsets of its columns whose minor vanishes,
    210 pairings of 45 memoized 2x2 minors for n = 10.  A plane holding
    every point settles coplanarity outright (`in_a_known_plane`).

    The collinear triples are read in one scan, which stops at the first
    collinear four (`first_collinear_four`); a scan that reads all 120
    keeps the masks of the collinear ones, and every view lists its
    `collinear_triples()` from those masks with no triple read again.

    `relabeled(labeling)` is a view of the same entries, lines and planes
    in which index r names the point labeling.perm[r].  The table lives as
    long as the decision that builds it.
    """

    def __init__(self, points):
        self._points = list(points)
        self._bits = [1 << n for n in range(len(self._points))]
        self._entries = {}  # mask of a triple or four -> dependent
        self._lines = {}  # mask of a pair -> its Plücker line, up to sign
        self._planes = {}  # mask of a plane -> its _Kernel
        # one cell that every view shares: the masks of the collinear
        # triples, once a scan has read every triple
        self._collinear = [None]
        self._triples = None  # this view's collinear triples, once listed

    def relabeled(self, labeling) -> "IncidenceTable":
        view = copy(self)
        view._points = [self._points[i] for i in labeling.perm]
        view._bits = [self._bits[i] for i in labeling.perm]
        view._triples = None
        return view

    def _line(self, i, j):
        pair = self._bits[i] | self._bits[j]
        line = self._lines.get(pair)
        if line is None:
            line = self._lines[pair] = _plucker(self._points[i].coords, self._points[j].coords)
        return line

    def collinear(self, i, j, k) -> bool:
        """Whether points i, j, k (distinct indices) lie on a line."""
        b = self._bits
        mask = b[i] | b[j] | b[k]
        dependent = self._entries.get(mask)
        if dependent is None:
            dependent = self._entries[mask] = _dependent(self._line(i, j), self._points[k].coords)
        return dependent

    def bracket_vanishes(self, i, j, k, l) -> bool:
        """Whether [ijkl] = 0 for distinct indices i, j, k, l."""
        b = self._bits
        mask = b[i] | b[j] | b[k] | b[l]
        dependent = self._entries.get(mask)
        if dependent is None:
            dependent = self._entries[mask] = _dependent(self._line(i, j), self._line(k, l))
        return dependent

    def on_a_line(self, indices) -> bool:
        """Whether the points at the distinct indices have rank <= 2."""
        return all(self.collinear(*t) for t in combinations(indices, 3))

    def collinear_triples(self):
        """Every collinear triple of the points, in combinations order,
        listed once per view; a view lists them from the masks of the
        table's one full scan."""
        if self._triples is None:
            masks = self._collinear[0]
            if masks is None:
                self._triples = tuple(self._scan_triples())
            else:
                b = self._bits
                self._triples = tuple(
                    sorted(tuple(r for r in range(len(b)) if mask & b[r]) for mask in masks)
                )
        return self._triples

    def _scan_triples(self):
        """Yield the collinear triples in combinations order, reading each
        triple only when the scan reaches it; a scan that runs to the end
        keeps their masks for every view."""
        found = []
        for t in combinations(range(len(self._bits)), 3):
            if self.collinear(*t):
                found.append(self._mask(t))
                yield t
        self._collinear[0] = tuple(found)

    def first_collinear_four(self):
        """The first four of the points, in combinations order, that lie on
        a line; None when no four do.  The first three points of a collinear
        four are a collinear triple, so only those triples are extended.
        Before any full scan a triple is read only when the scan reaches it,
        so a hit stops the reading; after one, the listed triples serve."""
        n = len(self._bits)
        scanned = self._collinear[0] is not None
        for a, b, c in self.collinear_triples() if scanned else self._scan_triples():
            for l in range(c + 1, n):
                if self.on_a_line((a, b, c, l)):
                    return a, b, c, l
        return None

    def on_a_plane(self, indices) -> bool:
        """Whether the points at the distinct indices have rank <= 3."""
        return all(self.bracket_vanishes(*q) for q in combinations(indices, 4))

    def in_a_known_plane(self, indices) -> bool:
        """Whether a plane of six or more points that the conic scan has met
        holds every point at the indices (False when it has met none)."""
        mask = self._mask(indices)
        return any(mask & plane == mask for plane in self._planes)

    def sixes_on_a_conic(self):
        """Every six of the points that lies on a conic of a plane (rank <= 2,
        or rank 3 with a vanishing conic determinant), as index tuples in
        combinations order.

        The scan finds the planes first, from the first four points of each
        six, and then sweeps each plane of six or more points once with the
        left kernel of its chart."""
        b = self._bits
        n = len(b)
        met = list(self._planes)  # every plane met, small ones too
        hits = set()
        for four in combinations(range(n - 2), 4):
            mask = b[four[0]] | b[four[1]] | b[four[2]] | b[four[3]]
            inside = any(mask & plane == mask for plane in met)
            if inside:
                if not self.collinear(*four[:3]):
                    continue  # rank 3: its plane is met
            elif not self.bracket_vanishes(*four):
                continue  # every six that extends it spans P^3
            triple = self.first_independent(four)
            if triple is None:
                self._through_a_line(four, met, hits)
            elif not inside:
                met.append(self._plane(triple))
        for plane in met:
            if plane not in self._planes and plane.bit_count() >= 6:
                self._planes[plane] = self._left_kernel(plane)
        for plane, kernel in self._planes.items():
            hits.update(kernel.conic_sixes([i for i in range(n) if plane & b[i]], b))
        yield from sorted(hits)

    def _through_a_line(self, four, met, hits):
        """Read a four of rank <= 2 into the scan.  Each six that extends it
        has rank <= 2, so lies on its line, or rank 3, so lies in the plane
        of the line and a point off it; a line of six or more points gives
        its collinear sixes as hits, and the planes join those met.  A four
        of one point repeated has no line: every six that extends it is a
        hit, of rank <= 3 with four equal conic rows."""
        b = self._bits
        n = len(b)
        pair = next((p for p in combinations(four, 2) if any(self._line(*p))), None)
        if pair is None:
            hits.update(four + rest for rest in combinations(range(four[3] + 1, n), 2))
            return
        line = self._mask(l for l in range(n) if l in pair or self.collinear(*pair, l))
        hits.update(combinations([i for i in range(n) if line & b[i]], 6))
        covered = line
        for p in range(n):
            if not covered & b[p]:
                plane = self._plane(pair + (p,))
                covered |= plane
                if plane not in met:
                    met.append(plane)

    def _left_kernel(self, plane):
        """The left kernel of a plane's chart."""
        # the plane's points by index of this view, in the order of the
        # points, so every view picks the same basis
        b = self._bits
        on = sorted((i for i in range(len(b)) if plane & b[i]), key=b.__getitem__)
        basis = [self._points[i] for i in self.first_independent(on)]
        rows = [_conic_row(basis, self._points[i]) for i in on]
        kernel = kernel_basis(list(zip(*rows)))
        if len(kernel) > len(rows) - 6:
            return _Kernel(None)
        return _Kernel(dict(zip((b[i] for i in on), zip(*kernel))))

    def first_independent(self, indices):
        """The first triple of the indices, in combinations order, whose
        points are not collinear; None when every triple is."""
        return next((t for t in combinations(indices, 3) if not self.collinear(*t)), None)

    def _mask(self, indices):
        b = self._bits
        mask = 0
        for i in indices:
            mask |= b[i]
        return mask

    def _plane(self, triple):
        """Mask of every point on the plane of an independent triple."""
        n = len(self._bits)
        return self._mask(l for l in range(n) if l in triple or self.bracket_vanishes(*triple, l))


class _Kernel(dict):
    """The columns of K, the left kernel basis of a plane's conic chart, by
    point bit (None for a chart of rank below 6); a mask of two points reads
    the 2x2 minors of their columns, computed on first read."""

    def __init__(self, columns):
        super().__init__()
        self.columns = columns

    def __missing__(self, pair):
        low = pair & -pair
        line = self[pair] = _plucker(self.columns[low], self.columns[pair ^ low])
        return line

    def conic_sixes(self, on, bits):
        """The sixes of the plane's points, by their indices `on` in
        ascending order with `bits` the bit of each index, that lie on a
        conic: all of them when the chart has rank below 6, else the
        complement of each (n-6)-subset of K's columns whose minor vanishes
        (none for n = 6, whose minor is empty)."""
        if self.columns is None:
            return combinations(on, 6)
        k = len(on) - 6
        if k == 4:
            lines = [self[bits[on[r]] | bits[on[s]]] for r, s in _PAIRS_OF_TEN]
            zero = [
                out for out, (ab, cd) in zip(combinations(range(10), 4), _SPLITS_OF_TEN)
                if not _pairing(lines[ab], lines[cd])
            ]
        elif k:
            columns = [self.columns[bits[i]] for i in on]
            zero = [
                out for out in combinations(range(len(on)), k)
                if not _det_any(*(columns[r] for r in out))
            ]
        else:
            return ()
        return [tuple(i for r, i in enumerate(on) if r not in out) for out in zero]


# The pairs of ten kernel columns by their positions in combinations order,
# and each four of the columns, in that order, as the positions of its
# pairs ab and cd.
_PAIRS_OF_TEN = {pair: r for r, pair in enumerate(combinations(range(10), 2))}
_SPLITS_OF_TEN = tuple(
    (_PAIRS_OF_TEN[four[:2]], _PAIRS_OF_TEN[four[2:]]) for four in combinations(range(10), 4)
)


@dataclass(frozen=True)
class Transform:
    """An invertible projective transformation of P^3: a 4x4 int matrix,
    det != 0.  Clear a rational one by one lcm over all 16 entries."""

    matrix: tuple

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.matrix)
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise ValueError("transform matrix must be 4x4")
        _require_ints([x for row in rows for x in row])
        object.__setattr__(self, "matrix", rows)
        if self.det() == 0:
            raise ValueError("transform matrix must be invertible")

    def det(self):
        cols = [[self.matrix[i][j] for i in range(4)] for j in range(4)]
        return det4(*cols)

    def apply_vector(self, vec):
        return tuple(sum(m * v for m, v in zip(row, vec)) for row in self.matrix)

    def apply(self, p: Point) -> Point:
        return Point(self.apply_vector(p.coords))


MONOMIALS = ((0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))


@dataclass(frozen=True)
class QuadricCoeffs:
    """Coefficients of a nonzero quadric in the fixed monomial order
    x², xy, xz, xw, y², yz, yw, z², zw, w²."""

    coeffs: tuple

    def __post_init__(self):
        c = tuple(self.coeffs)
        if len(c) != 10:
            raise ValueError("a quadric has 10 coefficients")
        object.__setattr__(self, "coeffs", _canonical_ints(c))

    def evaluate(self, p: Point):
        v = p.coords
        return sum(c * v[i] * v[j] for c, (i, j) in zip(self.coeffs, MONOMIALS))

    def to_strings(self):
        return _decimal_strings(self.coeffs)


def veronese_row(p: Point):
    """The ten degree-2 monomials of the canonical coordinates."""
    v = p.coords
    return tuple(v[i] * v[j] for i, j in MONOMIALS)


def quadric_through(points):
    """Exact basis of the quadrics vanishing at all the given points: the
    kernel of their Veronese rows."""
    rows = [veronese_row(p) for p in points]
    vectors = kernel_basis(rows) if rows else [
        tuple(1 if i == j else 0 for i in range(10)) for j in range(10)
    ]
    return [QuadricCoeffs(v) for v in vectors]
