"""Small geometric helpers that only the tests use: the Plücker residual of
a grade-2 extensor, the standard reference tetrahedron, transforms from
columns and their inverses, the analytic reference for the von Staudt
figures (local parameters on Q ∪ {INFINITY} read off as cross ratios, the
point at a parameter, and 1/x and x*y on parameters), rational coordinates
in a basis, the dimension of the quadric space through points, the planar
conic determinant of six points, and configurations with a plane of six to
ten points, on which some six-subsets lie on a conic, and a second choice
of the auxiliaries of a frame's von Staudt figures."""

import random
from fractions import Fraction
from itertools import combinations

from quadricheck.constructions import LineFrame, Tetrahedron
from quadricheck.extensors import contains_point, line_through
from quadricheck.oracle import random_transform, sample_generic
from quadricheck.projective import (
    CONIC_MONOMIALS,
    STANDARD_BASIS,
    GeometryError,
    InfinityProduct,
    Point,
    Transform,
    _det_any,
    _echelon,
    bareiss_det,
    clear_denominators,
    rank_of_points,
    rank_of_vectors,
    veronese_row,
)


class NotCollinear(GeometryError):
    """Cross-ratio arguments do not lie on one line."""


class DegenerateWitness(GeometryError):
    """A cross-ratio witness lies on the line (or fails to span)."""


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

ONES = Point((1, 1, 1, 1))


def plucker_residual(e):
    """p01*p23 - p02*p13 + p03*p12; zero exactly for decomposable grade-2."""
    if e.grade != 2:
        raise ValueError("Plücker relation applies to grade-2 extensors")
    c = e.coeffs
    return c[0] * c[5] - c[1] * c[4] + c[2] * c[3]


def standard_tetrahedron():
    """The coordinate tetrahedron E0..E3 with unit [1:1:1:1]."""
    return Tetrahedron(STANDARD_BASIS, ONES)


def other_auxiliaries(frame):
    """A valid auxiliary point and line for the von Staudt figures of a
    frame other than those `choose_auxiliaries` picks: a = zero +
    3·infinity + E_k off the line and off L' = zero·(infinity + 2·E_k),
    for the frame's auxiliary direction E_k."""
    z, i = frame.zero.coords, frame.infinity.coords
    u = STANDARD_BASIS[frame.aux_index].coords
    lprime = line_through(frame.zero, Point(tuple(iv + 2 * uv for iv, uv in zip(i, u))))
    a = Point(tuple(zv + 3 * iv + uv for zv, iv, uv in zip(z, i, u)))
    assert not contains_point(frame.line(), a) and not contains_point(lprime, a)
    return a, lprime


def transform_from_columns(columns):
    """The transform whose matrix has the four given columns."""
    return Transform(tuple(tuple(col[i] for col in columns) for i in range(4)))


def transform_inverse(t):
    """The inverse transform, solved column by column from one echelon form
    of [matrix | identity] and cleared by one lcm over its 16 entries, so it
    is the rational inverse up to scale."""
    a, pivots, _ = _echelon(
        [list(row) + [int(i == j) for j in range(4)] for i, row in enumerate(t.matrix)]
    )
    cols = [_back_substitute(a, pivots, 4 + j, 4) for j in range(4)]
    entries = clear_denominators(col[i] for i in range(4) for col in cols)
    return Transform(tuple(entries[i : i + 4] for i in range(0, 16, 4)))


def param_inv(x):
    """1/x on Q ∪ {INFINITY}: sends 0 to INFINITY and INFINITY to 0."""
    if x is INFINITY:
        return Fraction(0)
    x = Fraction(x)
    return INFINITY if x == 0 else 1 / x


def param_mul(x, y):
    """x*y on Q ∪ {INFINITY}; 0 * INFINITY raises InfinityProduct."""
    if x is INFINITY or y is INFINITY:
        other = y if x is INFINITY else x
        if other is not INFINITY and Fraction(other) == 0:
            raise InfinityProduct("0 * INFINITY is undefined")
        return INFINITY
    return Fraction(x) * Fraction(y)


def _back_substitute(rows, pivots, col, n):
    """The n unknowns x with Σ_j rows[r][j]·x_j = rows[r][col] for every pivot
    row r of an echelon form, each non-pivot unknown set to 0."""
    x = [Fraction(0)] * n
    for r in reversed(range(len(pivots))):
        row = rows[r]
        rhs = row[col] - sum(row[c] * x[c] for c in pivots[r + 1 :])
        x[pivots[r]] = Fraction(rhs, row[pivots[r]])
    return x


def coordinates_in_basis(basis_points, p: Point):
    """Write p as a rational combination of the basis points, or None."""
    n = len(basis_points)
    aug = [[bp.coords[i] for bp in basis_points] + [p.coords[i]] for i in range(p.dim)]
    a, pivots, _ = _echelon(aug)
    if pivots and pivots[-1] == n:
        return None
    return tuple(_back_substitute(a, pivots, n, n))


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
    for cand in STANDARD_BASIS:
        if rank_of_points(span + [cand]) == len(span) + 1:
            span.append(cand)
            found.append(cand)
            if len(found) == 2:
                return tuple(found)
    raise GeometryError("could not complete the line to a basis")


def parameter_of(frame: LineFrame, p: Point):
    """Local parameter of p: the cross ratio (infinity, zero; unit, p)."""
    wits = default_witnesses([frame.zero, frame.infinity]) if p.dim == 4 else ()
    if p.dim == 3:
        wits = wits[:1]
    return cross_ratio(frame.infinity, frame.zero, frame.unit, p, wits)


def point_at_parameter(frame: LineFrame, x) -> Point:
    """The point of the frame's line with local parameter x."""
    if x is INFINITY:
        return frame.infinity
    alpha, beta = coordinates_in_basis([frame.zero, frame.infinity], frame.unit)
    x = Fraction(x)
    coords = tuple(
        alpha * z + x * beta * i
        for z, i in zip(frame.zero.coords, frame.infinity.coords)
    )
    return Point(clear_denominators(coords))


def quadric_space_dimension(points) -> int:
    rows = [veronese_row(p) for p in points]
    return 10 - rank_of_vectors(rows) if rows else 10


def planar_conic_det(six):
    """6x6 determinant of the planar degree-2 monomials in a basis of the
    first independent triple, found by ranks; zero iff the six coplanar
    points lie on a conic.  Whether it is zero is independent of the basis
    choice.  Raises ValueError when the points are collinear or not
    coplanar."""
    basis = None
    for t in combinations(range(6), 3):
        if rank_of_points([six[i] for i in t]) == 3:
            basis = [six[i] for i in t]
            break
    if basis is None:
        raise ValueError("the six points are collinear")
    rows = []
    for p in six:
        c = coordinates_in_basis(basis, p)
        if c is None:
            raise ValueError("point is not in the plane of the basis")
        v = clear_denominators(c)
        rows.append(tuple(v[i] * v[j] for i, j in CONIC_MONOMIALS))
    return bareiss_det(rows)


def _circle(t):
    """(q^2 - p^2, 2pq, 0, q^2 + p^2) for t = (p, q): the conic
    x^2 + y^2 = w^2 of the plane z = 0."""
    p, q = t
    return (q * q - p * p, 2 * p * q, 0, q * q + p * p)


# Two points of the plane z = 0 off the circle.
_OFF_CIRCLE = ((1, 2, 0, 5), (3, -1, 0, 7))
_CIRCLE_PARAMS = ((0, 1), (1, 2), (1, 3), (2, 3), (1, 1), (3, 1), (2, 5), (5, 4), (-1, 2), (-3, 4))


def conic_planes():
    """(name, ten points, six-subsets on a conic) for configurations with a
    plane holding n = 6..10 of the points, pushed through a seeded
    transform and shuffled:

    - n = 6: five points on a circle and one off it, so no six-subset is on
      a conic and the minor is empty;
    - n = 7: three points on each of two lines and one more;
    - n = 8: six points on a circle and two off it, so exactly one
      six-subset is on a conic and the 2x2 minor decides;
    - n = 9: seven on a circle and two off it;
    - n = 10: ten on one circle, so the chart has rank 5.

    The remaining points are generic, off the plane."""
    rng = random.Random("conic-planes")
    line_pair = [(k, 0, 0, 1) for k in (1, 2, 3)] + [(0, k, 0, 1) for k in (1, 2, 3)]
    off_plane = [p.coords for p in sample_generic("conic-planes", 10, bound=20) if p.coords[2]]
    circles = [_circle(t) for t in _CIRCLE_PARAMS]
    planes = (
        ("n=6 no conic", circles[:5] + [_OFF_CIRCLE[0]], 0),
        ("n=7 line pair", line_pair + [(1, 3, 0, 1)], 1),
        ("n=8 six of eight", circles[:6] + list(_OFF_CIRCLE), 1),
        ("n=9 seven of nine", circles[:7] + list(_OFF_CIRCLE), 7),
        ("n=10 one conic", circles, 210),
    )
    configs = []
    for name, plane, hits in planes:
        t = random_transform(rng, bound=5)
        points = [t.apply(Point(c)) for c in plane + off_plane[: 10 - len(plane)]]
        rng.shuffle(points)
        configs.append((name, points, hits))
    return configs
