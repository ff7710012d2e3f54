"""Exact projective arithmetic on integer representatives.

Rationals are cleared once, by `clear_denominators`, where they enter;
`Point`, `QuadricCoeffs` and `Transform` take ints only.  Points carry
canonical coordinates (coprime, first nonzero entry positive), so point
equality is tuple equality.  Rank, kernel and determinants all read one
fraction-free (Bareiss) echelon form, computed by `_echelon`.  The
incidences of a configuration (collinear triples, vanishing brackets, and
the planes of six or more of its points with the left kernels of their
conic charts) are read through one memoizing `IncidenceTable`.  The
quadrics through a set of points are the kernel of their Veronese rows,
`quadric_through`; the special exits take their certificates from it.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
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
    the same ratios, so the same projective class."""
    values = tuple(values)
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
    g = gcd(*ints)
    if next(v for v in ints if v) < 0:
        g = -g
    if g == 1:
        return ints
    return tuple(v // g for v in ints)


class Point:
    """A point of P^1, P^2 or P^3 in canonical homogeneous coordinates.

    Coordinates must be ints (TypeError otherwise); they are divided to
    coprime integers with the first nonzero entry positive, so two Points
    are equal iff their coords tuples are.
    """

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = tuple(coords)
        if len(coords) not in (2, 3, 4):
            raise ValueError("points live in P^1, P^2 or P^3")
        object.__setattr__(self, "coords", _canonical_ints(coords))

    def __setattr__(self, name, value):
        raise AttributeError("Point is immutable")

    @property
    def dim(self):
        return len(self.coords)

    def __eq__(self, other):
        return isinstance(other, Point) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return "[" + ":".join(str(c) for c in self.coords) + "]"

    def to_strings(self):
        return [str(c) for c in self.coords]

    @classmethod
    def from_strings(cls, items):
        """The point of to_strings' integer strings; ValueError on any
        other text."""
        return cls(int(s) for s in items)


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


def det4(a, b, c, d):
    """Determinant of the 4x4 matrix with columns a, b, c, d.

    Laplace expansion along the first two columns.
    """
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    c0, c1, c2, c3 = c
    d0, d1, d2, d3 = d
    return (
        (a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
        - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
        + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
        + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
        - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
        + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0)
    )


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


def _dependent(points) -> bool:
    """Whether three or four points of P^3 are dependent: the four 3x3 minors
    of a triple (the coordinates of its join) vanish, or its bracket does."""
    if len(points) == 4:
        return bracket(*points) == 0
    a, b, c = (p.coords for p in points)
    return all(
        det3((a[i], a[j], a[k]), (b[i], b[j], b[k]), (c[i], c[j], c[k])) == 0
        for i, j, k in _MINOR_ROWS
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


class _Dependence(dict):
    """Bitmask of three or four of the points -> whether they are dependent,
    computed on the first read of each mask."""

    def __init__(self, points):
        super().__init__()
        self.points = points

    def __missing__(self, mask):
        pts, rest = [], mask
        while rest:
            low = rest & -rest
            pts.append(self.points[low.bit_length() - 1])
            rest ^= low
        dependent = self[mask] = _dependent(pts)
        return dependent


class IncidenceTable:
    """The incidences of one configuration of points of P^3, each computed
    the first time it is read and then memoized:

    - whether a triple is collinear (its join vanishes);
    - whether a bracket vanishes;
    - every plane holding six or more of the points that `sixes_on_a_conic`
      has met, as the mask of the points on it, with one basis K of the
      left kernel {y : yA = 0} of its conic chart A: the conic-monomial
      row of every point on the plane, in the basis of its first
      independent triple.

    Entries are keyed by the bitmask of the points' indices.  Everything
    else is derived from them:

    - A set has rank <= 2 iff all its sub-triples are collinear: a set of
      rank >= 3 holds three independent points.  (So four points are
      collinear iff all four of their sub-triples are.)
    - A set has rank <= 3 iff all its sub-brackets vanish: a set of rank 4
      holds a basis, whose bracket is nonzero.
    - Whether a conic determinant is zero does not depend on the chart:
      another basis of the plane changes the coordinates by an invertible
      3x3 matrix A and every conic row by the invertible symmetric square
      of A, and scaling a row scales the determinant by a nonzero factor.
    - Six points S of a plane holding n >= 6 of the points, with chart A
      (n x 6), lie on a conic iff rank A < 6 or the (n-6) x (n-6) minor of
      K on the columns outside S vanishes.  The 6 x 6 block A_S is
      singular iff its rows are dependent, iff some y != 0 supported on S
      has yA = 0.  If rank A < 6, every A_S is singular.  Otherwise K has
      n - 6 independent rows and every such y is zK for one z != 0; it
      vanishes outside S iff z annihilates the square block of K on the
      columns outside S, and such a z exists iff that block is singular.
      For n = 6 the block is empty, with determinant 1.  (This is the
      duality of the Plücker coordinates of a row space and of its
      annihilator; Hodge and Pedoe, Methods of Algebraic Geometry I.)
      The criterion holds for collinear sixes too, whose rows span at most
      three dimensions.

    Plane masks make the conic scan plane-first.  Six points that are not
    collinear span one plane, and `_plane` finds the mask of every point
    on it with one bracket per point off their first independent triple.
    Once a six of `sixes_on_a_conic` has revealed a plane, every later six
    inside its mask is decided by its complementary minor of K alone,
    with no bracket, triple or plane search; so the scan sweeps each plane
    once.  A plane that holds every point settles coplanarity outright
    (`in_a_known_plane`).  Until a plane is known, a six pays only the
    rank tests it paid before, so a configuration with no six coplanar
    points never builds a mask.

    `relabeled(labeling)` is a view of the same entries in which index r
    names the point labeling.perm[r], so a relabeled configuration reads
    what the original one computed.  The table lives as long as the
    decision that builds it.
    """

    def __init__(self, points):
        self._points = list(points)
        self._bits = [1 << n for n in range(len(self._points))]
        self._dependent = _Dependence(self._points)
        self._planes = {}  # mask of a plane -> {bit: column of K}, or None

    def relabeled(self, labeling) -> "IncidenceTable":
        view = copy(self)
        view._bits = [self._bits[i] for i in labeling.perm]
        return view

    def collinear(self, i, j, k) -> bool:
        """Whether points i, j, k (distinct indices) lie on a line."""
        b = self._bits
        return self._dependent[b[i] | b[j] | b[k]]

    def bracket_vanishes(self, i, j, k, l) -> bool:
        """Whether [ijkl] = 0 for distinct indices i, j, k, l."""
        b = self._bits
        return self._dependent[b[i] | b[j] | b[k] | b[l]]

    def on_a_line(self, indices) -> bool:
        """Whether the points at the distinct indices have rank <= 2."""
        b, dependent = self._bits, self._dependent
        for i, j, k in combinations(indices, 3):
            if not dependent[b[i] | b[j] | b[k]]:
                return False
        return True

    def collinear_triples(self):
        """Every collinear triple of the points, in combinations order."""
        return [t for t in combinations(range(len(self._bits)), 3) if self.collinear(*t)]

    def first_collinear_four(self):
        """The first four of the points, in combinations order, that lie on
        a line; None when no four do.  The first three points of a collinear
        four are a collinear triple, so only those triples are extended, and
        a triple is read only when the scan reaches it."""
        n = len(self._bits)
        for a, b, c in combinations(range(n), 3):
            if self.collinear(a, b, c):
                for l in range(c + 1, n):
                    if self.on_a_line((a, b, c, l)):
                        return a, b, c, l
        return None

    def on_a_plane(self, indices) -> bool:
        """Whether the points at the distinct indices have rank <= 3."""
        b, dependent = self._bits, self._dependent
        for i, j, k, l in combinations(indices, 4):
            if not dependent[b[i] | b[j] | b[k] | b[l]]:
                return False
        return True

    def in_a_known_plane(self, indices) -> bool:
        """Whether a plane the conic scan has met holds every point at the
        indices (False when it has met none)."""
        mask = self._mask(indices)
        return any(mask & plane == mask for plane in self._planes)

    def sixes_on_a_conic(self):
        """Every six of the points that lies on a conic of a plane (rank <= 2,
        or rank 3 with a vanishing conic determinant), as index tuples in
        combinations order, read plane by plane from the left kernels of the
        planes' charts."""
        b = self._bits
        planes = self._planes
        for six in combinations(range(len(b)), 6):
            if planes:
                mask = self._mask(six)
                plane = next((p for p in planes if mask & p == mask), 0)
                if plane:
                    if _minor_vanishes(planes[plane], mask):
                        yield six
                    continue
            if not self.on_a_plane(six):
                continue
            triple = self.first_independent(six)
            if triple is None:
                yield six
                continue
            plane = self._plane(b[triple[0]] | b[triple[1]] | b[triple[2]])
            kernel = planes[plane] = self._left_kernel(plane)
            if _minor_vanishes(kernel, self._mask(six)):
                yield six

    def _left_kernel(self, plane):
        """The columns of the left kernel basis of a plane's chart, keyed by
        point bit; None when the chart has rank below 6."""
        # the plane's points by index of this view, in the order of the
        # points, so every view picks the same basis
        b = self._bits
        on = sorted((i for i in range(len(b)) if plane & b[i]), key=b.__getitem__)
        basis = [self._point(i) for i in self.first_independent(on)]
        rows = [_conic_row(basis, self._point(i)) for i in on]
        kernel = kernel_basis(list(zip(*rows)))
        if len(kernel) > len(rows) - 6:
            return None
        return dict(zip((b[i] for i in on), zip(*kernel)))

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

    def _point(self, i):
        return self._points[self._bits[i].bit_length() - 1]

    def _plane(self, triple):
        """Mask of every point on the plane of an independent triple."""
        plane = triple
        for n in range(len(self._points)):
            bit = 1 << n
            if not triple & bit and self._dependent[triple | bit]:
                plane |= bit
        return plane


def _minor_vanishes(kernel, mask) -> bool:
    """Whether the six points of the mask, on a plane whose chart has the
    left kernel columns `kernel` (None for a chart of rank below 6), lie on
    a conic: the minor of the columns outside the six vanishes."""
    if kernel is None:
        return True
    outside = [column for bit, column in kernel.items() if not mask & bit]
    return bool(outside) and _det_any(*outside) == 0


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
        return [str(c) for c in self.coeffs]


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
