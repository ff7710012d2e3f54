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
                rhs = d * row[fc]
                for c in pivots[r + 1 :]:
                    rhs -= row[c] * x[c]
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
      independent triple, all from one Cramer set-up (`_left_kernel`).

    Entries are keyed by the bitmask of the points' indices and computed
    from the indices the reader holds, through the line of each pair (at
    most 45, kept once built; equal points have the zero line).  A set has
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
    column pairs' 2x2 minors, which the plane's `_Kernel` builds once per
    sweep, 45 of them in one loop.

    `sixes_on_a_conic` finds the planes first and then sweeps each once.
    It reads the sixes by their first four points.  A four off every plane
    met with a nonzero bracket spans P^3, and so does every six that
    extends it, so with no four points coplanar the scan reads 70 brackets
    and nothing else, each the pairing of two pairs' lines taken inline and
    kept in the entries.  A four of rank 3 inside a plane met is skipped,
    as its sixes lie in that plane (its first triple is read from the
    masks of a completed pass, if there is one); one with a vanishing
    bracket names its plane, and `_plane` finds every point on it, one
    bracket per point.  A collinear four lies in many planes, so it is
    never skipped this way: it names the planes through its line, one per
    point off the line, and a line of six or more points gives its
    collinear sixes.  Each plane of n >= 6 points then lists its conic
    sixes in one pass over K: the complements of the (n-6)-subsets of its
    columns whose minor vanishes, each minor tested inline (210 pairings
    of 45 2x2 minors for n = 10, 84 3x3 minors from 28 cross products for
    n = 9).  A plane holding every point settles coplanarity outright
    (`in_a_known_plane`).

    The collinear triples are read in one inline pass over the pairs and
    triples of a view's points: it builds the 45 lines and tests each
    triple's four 3x3 minors as it reaches it, keeps each collinear triple
    in the entries, and stops at the first collinear four
    (`first_collinear_four`).  A pass that reaches the end keeps the masks
    of the collinear triples in one cell that every view shares; from then
    on every view lists its `collinear_triples()` from those masks, and
    each `collinear` read is one mask lookup.

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
        # triples, once a pass has read every triple
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
        """Whether points i, j, k (distinct indices) lie on a line: after a
        full pass, whether the triple's mask is among those it kept."""
        b = self._bits
        mask = b[i] | b[j] | b[k]
        masks = self._collinear[0]
        if masks is not None:
            return mask in masks
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
        table's one full pass."""
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
        """Yield the collinear triples in combinations order, in one pass
        that builds the line of each pair (kept for every view) and tests
        each triple's four 3x3 minors, those `_dependent` reads, inline as
        it reaches it.  Each collinear triple is kept in the entries as it
        is yielded, so a reader paused at it does not test it again; a pass
        that runs to the end keeps the masks of the collinear triples for
        every view."""
        coords = [p.coords for p in self._points]
        b = self._bits
        n = len(b)
        lines = self._lines
        entries = self._entries
        found = []
        for i in range(n):
            a0, a1, a2, a3 = coords[i]
            bi = b[i]
            for j in range(i + 1, n):
                c0, c1, c2, c3 = coords[j]
                pair = bi | b[j]
                l01 = a0 * c1 - a1 * c0
                l02 = a0 * c2 - a2 * c0
                l03 = a0 * c3 - a3 * c0
                l12 = a1 * c2 - a2 * c1
                l13 = a1 * c3 - a3 * c1
                l23 = a2 * c3 - a3 * c2
                lines[pair] = (l01, l02, l03, l12, l13, l23)
                for k in range(j + 1, n):
                    x0, x1, x2, x3 = coords[k]
                    if not (
                        l12 * x0 - l02 * x1 + l01 * x2 or l13 * x0 - l03 * x1 + l01 * x3
                        or l23 * x0 - l03 * x2 + l02 * x3 or l23 * x1 - l13 * x2 + l12 * x3
                    ):
                        mask = pair | b[k]
                        found.append(mask)
                        entries[mask] = True
                        yield i, j, k
        self._collinear[0] = frozenset(found)

    def first_collinear_four(self):
        """The first four of the points, in combinations order, that lie on
        a line; None when no four do.  The first three points of a collinear
        four are a collinear triple, so only those triples are extended.
        Before any full pass a triple is read only when the pass reaches it,
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
        entries = self._entries
        lines = self._lines
        masks = self._collinear[0]
        for four in combinations(range(n - 2), 4):
            i, j, k, l = four
            ij = b[i] | b[j]
            kl = b[k] | b[l]
            mask = ij | kl
            for plane in met:
                if mask & plane == mask:
                    inside = True
                    break
            else:
                inside = False
            if inside:
                if masks is None:
                    collinear = self.collinear(i, j, k)
                else:
                    collinear = (ij | b[k]) in masks
                if not collinear:
                    continue  # rank 3: its plane is met
            else:
                dependent = entries.get(mask)
                if dependent is None:
                    # the bracket [ijkl], the pairing of the lines ij and kl
                    l01, l02, l03, l12, l13, l23 = lines.get(ij) or self._line(i, j)
                    m01, m02, m03, m12, m13, m23 = lines.get(kl) or self._line(k, l)
                    dependent = entries[mask] = not (
                        l01 * m23 - l02 * m13 + l03 * m12 + l12 * m03 - l13 * m02 + l23 * m01
                    )
                if not dependent:
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
        """The left kernel of a plane's chart, from one Cramer set-up.

        A point p of the plane has coordinates D_i / D in the basis a, b, c
        of the plane's first independent triple, where D is the first
        nonzero 3x3 minor of the basis and D_i replaces its column i by p:
        the dot products of p with b x c, c x a and a x b on the rows of D,
        built once per plane.  The lcm of their reduced denominators is
        |D| / gcd(D, D_0, D_1, D_2), so each point's conic row is the
        CONIC_MONOMIALS of the integers sign(D)·D_i / gcd(D, D_0, D_1, D_2).
        """
        # the plane's points by index of this view, in the order of the
        # points, so every view picks the same basis
        bits = self._bits
        points = self._points
        on = sorted((i for i in range(len(bits)) if plane & bits[i]), key=bits.__getitem__)
        basis = [points[i].coords for i in self.first_independent(on)]
        for r0, r1, r2 in _MINOR_ROWS:
            (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = ((q[r0], q[r1], q[r2]) for q in basis)
            u0, u1, u2 = b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0
            d = a0 * u0 + a1 * u1 + a2 * u2
            if d:
                break
        v0, v1, v2 = c1 * a2 - c2 * a1, c2 * a0 - c0 * a2, c0 * a1 - c1 * a0
        w0, w1, w2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
        xs = []
        for i in on:
            p = points[i].coords
            p0, p1, p2 = p[r0], p[r1], p[r2]
            d0 = p0 * u0 + p1 * u1 + p2 * u2
            d1 = p0 * v0 + p1 * v1 + p2 * v2
            d2 = p0 * w0 + p1 * w1 + p2 * w2
            g = gcd(d, d0, d1, d2)
            if d < 0:
                g = -g
            xs.append((d0 // g, d1 // g, d2 // g))
        # the chart transposed: one row per monomial, one column per point
        kernel = kernel_basis([[x[s] * x[t] for x in xs] for s, t in CONIC_MONOMIALS])
        if len(kernel) > len(on) - 6:
            return _Kernel(None)
        return _Kernel(dict(zip((bits[i] for i in on), zip(*kernel))))

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


class _Kernel:
    """The columns of K, the left kernel basis of a plane's conic chart, by
    point bit (None for a chart of rank below 6)."""

    __slots__ = ("columns",)

    def __init__(self, columns):
        self.columns = columns

    def conic_sixes(self, on, bits):
        """The sixes of the plane's points, by their indices `on` in
        ascending order with `bits` the bit of each index, that lie on a
        conic: all of them when the chart has rank below 6, else the
        complement of each (n-6)-subset of K's columns whose minor vanishes
        (none for n = 6, whose minor is empty).  Each minor is tested
        inline: for n = 10 as the pairing of two column pairs' 2x2 minors,
        for n = 9 as the dot product of a column with the cross product of
        two earlier ones."""
        if self.columns is None:
            return combinations(on, 6)
        k = len(on) - 6
        if not k:
            return ()
        columns = [self.columns[bits[i]] for i in on]
        zero = []
        if k == 4:
            lines = []  # the 2x2 minors of each column pair, in combinations order
            for r, (a0, a1, a2, a3) in enumerate(columns):
                for c0, c1, c2, c3 in columns[r + 1 :]:
                    lines.append((
                        a0 * c1 - a1 * c0, a0 * c2 - a2 * c0, a0 * c3 - a3 * c0,
                        a1 * c2 - a2 * c1, a1 * c3 - a3 * c1, a2 * c3 - a3 * c2,
                    ))
            for out, ab, cd in _SPLITS_OF_TEN:
                l01, l02, l03, l12, l13, l23 = lines[ab]
                m01, m02, m03, m12, m13, m23 = lines[cd]
                if not (l01 * m23 - l02 * m13 + l03 * m12 + l12 * m03 - l13 * m02 + l23 * m01):
                    zero.append(out)
        elif k == 3:
            for r, (a0, a1, a2) in enumerate(columns):
                for s in range(r + 1, 8):
                    c0, c1, c2 = columns[s]
                    x0, x1, x2 = a1 * c2 - a2 * c1, a2 * c0 - a0 * c2, a0 * c1 - a1 * c0
                    for t in range(s + 1, 9):
                        e0, e1, e2 = columns[t]
                        if not (x0 * e0 + x1 * e1 + x2 * e2):
                            zero.append((r, s, t))
        elif k == 2:
            for r, (a0, a1) in enumerate(columns):
                for s in range(r + 1, 8):
                    c0, c1 = columns[s]
                    if a0 * c1 == a1 * c0:
                        zero.append((r, s))
        elif k == 1:
            zero = [(r,) for r, (a0,) in enumerate(columns) if not a0]
        return [tuple(i for r, i in enumerate(on) if r not in out) for out in zero]


# Each four of ten kernel columns, in combinations order, with the positions
# of its pairs ab and cd among the column pairs in combinations order.
_PAIRS_OF_TEN = {pair: r for r, pair in enumerate(combinations(range(10), 2))}
_SPLITS_OF_TEN = tuple(
    (four, _PAIRS_OF_TEN[four[:2]], _PAIRS_OF_TEN[four[2:]]) for four in combinations(range(10), 4)
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
