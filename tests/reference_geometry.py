"""Small geometric helpers that only the tests use: the Plücker residual of
a grade-2 extensor and the standard reference tetrahedron."""

from quadricheck.constructions import Tetrahedron
from quadricheck.projective import ONES, STANDARD_BASIS


def plucker_residual(e):
    """p01*p23 - p02*p13 + p03*p12; zero exactly for decomposable grade-2."""
    if e.grade != 2:
        raise ValueError("Plücker relation applies to grade-2 extensors")
    c = e.coeffs
    return c[0] * c[5] - c[1] * c[4] + c[2] * c[3]


def standard_tetrahedron():
    """The coordinate tetrahedron E0..E3 with unit [1:1:1:1]."""
    return Tetrahedron(STANDARD_BASIS, ONES)
