"""Small geometric helpers that only the tests use: the Plücker residual of
a grade-2 extensor, the standard reference tetrahedron, transforms from
columns and their inverses, 1/x on parameters, the dimension of the quadric
space through points, the planar conic determinant of six points, and
configurations with a plane of six to ten points, on which some six-subsets
lie on a conic."""

import random
from fractions import Fraction
from itertools import combinations
from math import lcm

from quadricheck.constructions import Tetrahedron
from quadricheck.oracle import random_transform, sample_generic
from quadricheck.projective import (
    CONIC_MONOMIALS,
    INFINITY,
    ONES,
    STANDARD_BASIS,
    Point,
    Transform,
    _back_substitute,
    _echelon,
    bareiss_det,
    coordinates_in_basis,
    rank_of_points,
    rank_of_vectors,
    veronese_row,
)


def plucker_residual(e):
    """p01*p23 - p02*p13 + p03*p12; zero exactly for decomposable grade-2."""
    if e.grade != 2:
        raise ValueError("Plücker relation applies to grade-2 extensors")
    c = e.coeffs
    return c[0] * c[5] - c[1] * c[4] + c[2] * c[3]


def standard_tetrahedron():
    """The coordinate tetrahedron E0..E3 with unit [1:1:1:1]."""
    return Tetrahedron(STANDARD_BASIS, ONES)


def transform_from_columns(columns):
    """The transform whose matrix has the four given columns."""
    return Transform(tuple(tuple(col[i] for col in columns) for i in range(4)))


def transform_inverse(t):
    """The inverse transform, solved column by column from one echelon form
    of [matrix | identity]."""
    a, pivots, _ = _echelon(
        [list(row) + [int(i == j) for j in range(4)] for i, row in enumerate(t.matrix)]
    )
    cols = [_back_substitute(a, pivots, 4 + j, 4) for j in range(4)]
    return Transform(tuple(tuple(col[i] for col in cols) for i in range(4)))


def param_inv(x):
    """1/x on Q ∪ {INFINITY}: sends 0 to INFINITY and INFINITY to 0."""
    if x is INFINITY:
        return Fraction(0)
    x = Fraction(x)
    return INFINITY if x == 0 else 1 / x


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
        mult = lcm(*(f.denominator for f in c))
        v = [int(f * mult) for f in c]
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
