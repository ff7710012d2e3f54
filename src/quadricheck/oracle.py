"""Algebraic ground truth: the 10x10 matrix of degree-2 monomials, its exact
determinant, and seeded test-data samplers.

Rows follow the point labels; columns follow the quadric monomial order
x², xy, xz, xw, y², yz, yw, z², zw, w².  Canonical points have integer
coordinates, so the determinant is computed fraction-free over Z.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .projective import (
    Point,
    Transform,
    bareiss_det,
    clear_denominators,
    veronese_row,
)


def oracle_det(points):
    """det(N) of the 10x10 Veronese matrix N, one row per point."""
    points = list(points)
    if len(points) != 10:
        raise ValueError("the constraint matrix needs exactly 10 points")
    return bareiss_det([veronese_row(p) for p in points])


def oracle_decide(points) -> bool:
    """True iff the ten points lie on a common quadric: det(N) = 0 exactly."""
    return oracle_det(points) == 0


# ---------------------------------------------------------------------------
# samplers


def _random_fraction(rng: random.Random, bound: int) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_transform(rng: random.Random, bound: int = 10) -> Transform:
    """Seeded invertible 4x4 rational matrix, cleared by one lcm over all 16."""
    while True:
        entries = clear_denominators(_random_fraction(rng, bound) for _ in range(16))
        try:
            return Transform(tuple(entries[i : i + 4] for i in range(0, 16, 4)))
        except ValueError:
            continue


def segre_point(s, t) -> Point:
    """[1 : s : t : st], a point of the doubly ruled quadric xw - yz = 0."""
    return Point(clear_denominators((1, s, t, s * t)))


def sample_on_quadric(seed, n, transformed=False, bound=40) -> list:
    """n distinct points [1 : s : t : st] on the Segre quadric, s and t
    fractions with terms bounded by `bound`, optionally pushed through a
    seeded random transform; deterministic per seed."""
    rng = random.Random(f"on-quadric:{seed}")
    seen = set()
    points = []
    while len(points) < n:
        s = _random_fraction(rng, bound)
        t = _random_fraction(rng, bound)
        if (s, t) in seen:
            continue
        seen.add((s, t))
        points.append(segre_point(s, t))
    if transformed:
        tr = random_transform(rng, bound=8)
        points = [tr.apply(p) for p in points]
    return points


def sample_generic(seed, n, bound=1000) -> list:
    """n distinct seeded random rational points."""
    rng = random.Random(f"generic:{seed}")
    points = []
    seen = set()
    while len(points) < n:
        p = Point(clear_denominators(_random_fraction(rng, bound) for _ in range(4)))
        if p in seen:
            continue
        seen.add(p)
        points.append(p)
    return points
