"""Closed forms of the generic case that only the tests check the pipeline
against: Q as a coordinate polynomial, the Ceva-style incidence scalar
[0123]^2 * Q, and the isomorphism tau onto the tetrahedron 6789."""

from reference_geometry import transform_from_columns
from quadricheck.extensors import line_through, meet, plane_through
from quadricheck.projective import GeometryError, Transform, bracket, det4


class Degenerate(GeometryError):
    """The incidence check requires [0123] != 0."""


def q_coordinate_polynomial(v4, v5):
    """Q as a polynomial in the coordinates of points 4 and 5 when points
    0..3 sit exactly at the standard basis vectors."""
    x4, y4, z4, w4 = v4
    x5, y5, z5, w5 = v5
    return -x5 * y4 * z5 * w4 + x4 * y5 * z5 * w4 + x5 * y4 * z4 * w5 - x4 * y4 * z5 * w5


def ceva_incidence_check(points):
    """Scalar vanishing iff the lines 1p, 2q, 3r concur, where p = 23 ∩ 015,
    q = 13 ∩ 024 and r = 12 ∩ 345; equals [0123]^2 * Q exactly.

    The three meets are coned over point 0 so the concurrency becomes a
    single exact bracket expression on the meet representatives.
    """
    p0, p1, p2, p3, p4, p5 = points[:6]
    if bracket(p0, p1, p2, p3) == 0:
        raise Degenerate("[0123] = 0")
    p = meet(line_through(p2, p3), plane_through(p0, p1, p5))
    q = meet(line_through(p1, p3), plane_through(p0, p2, p4))
    r = meet(line_through(p1, p2), plane_through(p3, p4, p5))
    c0, c1, c2, c3 = (x.coords for x in (p0, p1, p2, p3))
    return -det4(c1, c0, c2, q.coeffs) * det4(c0, p.coeffs, c3, r.coeffs) + det4(
        p.coeffs, c0, c2, q.coeffs
    ) * det4(c0, c1, c3, r.coeffs)


def tau_transform(points) -> Transform:
    """The isomorphism sending the standard basis and [1:1:1:1] to points
    6, 7, 8, 9 and the global unit."""
    return transform_from_columns([points[i].coords for i in range(6, 10)])
