"""Exact projective arithmetic over the rationals.

Points carry canonical integer coordinates (coprime, first nonzero entry
positive), so point equality is tuple equality and every determinant built
from canonical points is plain integer arithmetic.  Local parameters on a
line live in Q together with a single tagged INFINITY value.  Rank, kernel,
linear solves and determinants all read one fraction-free (Bareiss)
echelon form, computed by `_echelon`.  The incidences of a configuration
(collinear triples, vanishing brackets, planar conic charts and their left
kernels) are read through one memoizing `IncidenceTable`.  The quadrics
through a set of points are the kernel of their Veronese rows,
`quadric_through`; the special exits take their certificates from it.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm


class GeometryError(Exception):
    """Base class for exact-geometry failures."""


class NotCollinear(GeometryError):
    """Cross-ratio arguments do not lie on one line."""


class DegenerateWitness(GeometryError):
    """A cross-ratio witness lies on the line (or fails to span)."""


class InfinityProduct(GeometryError):
    """The product 0 * INFINITY has no projective meaning."""


class _Infinity:
    """Tagged value for the parameter 1/0; distinct from every rational."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


def param_mul(x, y):
    """x*y on Q ∪ {INFINITY}; 0 * INFINITY raises InfinityProduct."""
    if x is INFINITY or y is INFINITY:
        other = y if x is INFINITY else x
        if other is not INFINITY and Fraction(other) == 0:
            raise InfinityProduct("0 * INFINITY is undefined")
        return INFINITY
    return Fraction(x) * Fraction(y)


_INT_ONLY = frozenset((int,))


def _canonical_ints(values):
    ints = tuple(values)
    if not _INT_ONLY.issuperset(map(type, ints)):
        fracs = [Fraction(v) for v in ints]
        mult = lcm(*(f.denominator for f in fracs))
        ints = tuple(f.numerator * (mult // f.denominator) for f in fracs)
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

    Coordinates may be given as ints, Fractions or rational strings such as
    "-3/7"; they are cleared to coprime integers with the first nonzero
    entry positive, so two Points are equal iff their coords tuples are.
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
ONES = Point((1, 1, 1, 1))
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

    Laplace expansion along the first two columns; exact for ints and
    Fractions alike.
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
    """Fraction-free (Bareiss) row echelon form of a rational matrix.

    Each row is first cleared to integers; scaling a row keeps the rank, the
    pivot columns and the kernel.  Pivots are the first nonzero entry of their
    column, and every update below a pivot divides exactly by the previous
    pivot (Sylvester's identity), so entries stay integer minors of the
    cleared matrix.  Returns (rows, pivot columns, factor): rows below the
    rank are zero, and for a square matrix det = factor × last row's last
    entry, where factor is the swap sign over the product of the row
    multipliers (an int for integer input, a Fraction otherwise).
    """
    a = []
    factor = 1
    for row in rows:
        if all(type(x) is int for x in row):
            a.append(list(row))
        else:
            row = [Fraction(x) for x in row]
            mult = lcm(*(x.denominator for x in row))
            a.append([x.numerator * (mult // x.denominator) for x in row])
            factor = Fraction(factor, mult)
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
            factor = -factor
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
    return a, pivots, factor


def _back_substitute(rows, pivots, col, n):
    """The n unknowns x with Σ_j rows[r][j]·x_j = rows[r][col] for every pivot
    row r of an echelon form, each non-pivot unknown set to 0."""
    x = [Fraction(0)] * n
    for r in reversed(range(len(pivots))):
        row = rows[r]
        rhs = row[col] - sum(row[c] * x[c] for c in pivots[r + 1 :])
        x[pivots[r]] = Fraction(rhs, row[pivots[r]])
    return x


def rank_of_vectors(vectors) -> int:
    """Exact rank of the span of the given rational coordinate vectors."""
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
    # rank rows of the cleared, row-swapped matrix, and those rows span its
    # row space; by Cramer's rule d·x is an integer vector, so every
    # division below is exact.
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
    """Exact determinant of a square rational matrix, fraction-free."""
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix must be square")
    a, _, factor = _echelon(rows)
    return factor * a[-1][-1]


def coordinates_in_basis(basis_points, p: Point):
    """Write p as a rational combination of the basis points, or None."""
    n = len(basis_points)
    aug = [[bp.coords[i] for bp in basis_points] + [p.coords[i]] for i in range(p.dim)]
    a, pivots, _ = _echelon(aug)
    if pivots and pivots[-1] == n:
        return None
    return tuple(_back_substitute(a, pivots, n, n))


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
        pts = [p for n, p in enumerate(self.points) if mask >> n & 1]
        dependent = self[mask] = _dependent(pts)
        return dependent


class IncidenceTable:
    """The incidences of one configuration of points of P^3, each computed
    the first time it is read and then memoized:

    - whether a triple is collinear (its join vanishes);
    - whether a bracket vanishes;
    - one planar chart per plane read through `on_a_conic`: the
      conic-monomial row of every point of the configuration on that
      plane, in the basis of its first independent triple;
    - one basis K of the left kernel {y : yA = 0} of each such chart A,
      read through `on_a_conic`.

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

    `relabeled(labeling)` is a view of the same entries in which index r
    names the point labeling.perm[r], so a relabeled configuration reads
    what the original one computed.  The table lives as long as the
    decision that builds it.
    """

    def __init__(self, points):
        self._points = list(points)
        self._bits = [1 << n for n in range(len(self._points))]
        self._dependent = _Dependence(self._points)
        self._charts = {}  # mask of a plane -> {bit of a point on it: conic row}
        self._kernels = {}  # mask of a plane -> {bit: column of K}, or None

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

    def on_a_plane(self, indices) -> bool:
        """Whether the points at the distinct indices have rank <= 3."""
        b, dependent = self._bits, self._dependent
        for i, j, k, l in combinations(indices, 4):
            if not dependent[b[i] | b[j] | b[k] | b[l]]:
                return False
        return True

    def on_a_conic(self, indices) -> bool:
        """Whether six coplanar points lie on a conic of their plane (their
        conic rows in the plane's chart have a zero determinant), read from
        one left kernel of the chart.  Raises ValueError when they are
        collinear or not coplanar."""
        b = self._bits
        bits = [b[i] for i in indices]
        if len(bits) != 6:
            raise ValueError("a conic is tested on six points")
        triple = self.first_independent(indices)
        if triple is None:
            raise ValueError("the six points are collinear")
        mask = bits[0] | bits[1] | bits[2] | bits[3] | bits[4] | bits[5]
        # six points that are not collinear span one plane, so a memoized
        # plane holding all six is theirs
        for plane, kernel in self._kernels.items():
            if mask & plane == mask:
                break
        else:
            plane = self._plane(b[triple[0]] | b[triple[1]] | b[triple[2]])
            if mask & plane != mask:
                raise ValueError("point is not in the plane of the basis")
            kernel = self._kernels[plane] = self._left_kernel(plane)
        if kernel is None:
            return True
        outside = [column for bit, column in kernel.items() if not mask & bit]
        return bool(outside) and _det_any(*outside) == 0

    def _left_kernel(self, plane):
        """The columns of the left kernel basis of a plane's chart, keyed by
        point bit; None when the chart has rank below 6."""
        rows = self._chart(plane)
        kernel = kernel_basis(list(zip(*rows.values())))
        if len(kernel) > len(rows) - 6:
            return None
        return dict(zip(rows, zip(*kernel)))

    def first_independent(self, indices):
        """The first triple of the indices, in combinations order, whose
        points are not collinear; None when every triple is."""
        return next((t for t in combinations(indices, 3) if not self.collinear(*t)), None)

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

    def _chart(self, plane):
        rows = self._charts.get(plane)
        if rows is None:
            # the plane's points by index of this view, in the order of the
            # points, so every view picks the same basis
            b = self._bits
            on = sorted((i for i in range(len(b)) if plane & b[i]), key=b.__getitem__)
            basis = [self._point(i) for i in self.first_independent(on)]
            rows = {b[i]: _conic_row(basis, self._point(i)) for i in on}
            self._charts[plane] = rows
        return rows


def cross_ratio(a: Point, b: Point, c: Point, d: Point, witnesses=()):
    """The cross ratio (a, b; c, d) of four collinear points.

    Equals the local parameter x of d when (a, b, c) play the roles of
    infinity, zero and unit on the line.  In P^2 one witness point off the
    line is required, in P^3 two; witnesses must span the ambient space
    together with the line.  Returns INFINITY when the denominator bracket
    product vanishes (d = a).
    """
    pts = (a, b, c, d)
    dim = a.dim
    if any(p.dim != dim for p in pts):
        raise ValueError("cross-ratio arguments must share a dimension")
    if len({a, b, c}) != 3:
        raise ValueError("a, b, c must be pairwise distinct")
    if rank_of_points(pts) > 2:
        raise NotCollinear(f"{pts} are not collinear")
    witnesses = tuple(witnesses)
    if len(witnesses) != dim - 2:
        raise DegenerateWitness(
            f"need {dim - 2} witnesses for P^{dim - 1}, got {len(witnesses)}"
        )
    if witnesses and rank_of_points((a, b) + witnesses) != dim:
        raise DegenerateWitness("witnesses must span the space with the line")
    w = tuple(p.coords for p in witnesses)
    num = _det_any(a.coords, c.coords, *w) * _det_any(b.coords, d.coords, *w)
    den = _det_any(a.coords, d.coords, *w) * _det_any(b.coords, c.coords, *w)
    if den == 0:
        return INFINITY
    return Fraction(num, den)


def default_witnesses(line_points):
    """Two deterministic points off the line through the given P^3 points."""
    found = []
    span = list(line_points)
    for cand in (E0, E1, E2, E3):
        if rank_of_points(span + [cand]) == len(span) + 1:
            span.append(cand)
            found.append(cand)
            if len(found) == 2:
                return tuple(found)
    raise GeometryError("could not complete the line to a basis")


@dataclass(frozen=True)
class Transform:
    """An invertible projective transformation of P^3 (4x4, det != 0)."""

    matrix: tuple

    def __post_init__(self):
        rows = tuple(tuple(Fraction(x) for x in row) for row in self.matrix)
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise ValueError("transform matrix must be 4x4")
        object.__setattr__(self, "matrix", rows)
        if self.det() == 0:
            raise ValueError("transform matrix must be invertible")

    def det(self):
        cols = [[self.matrix[i][j] for i in range(4)] for j in range(4)]
        return det4(*cols)

    def apply_vector(self, vec):
        return tuple(
            sum(self.matrix[i][j] * Fraction(vec[j]) for j in range(4))
            for i in range(4)
        )

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
