"""Deterministic configuration synthesis for every pipeline branch.

Each generator builds a seeded configuration, runs the full pipeline and
the determinant oracle on it, and asserts the intended branch fired; a few
retry with derived sub-seeds until the genericity side conditions hold.
Branches are incidence properties, so seeded projective transforms are
applied freely for variety.
"""

from __future__ import annotations

import random

from . import reductions
from .decision import BRANCHES
from .oracle import (
    _random_fraction,
    oracle_decide,
    random_transform,
    sample_generic,
    segre_point,
)
from .projective import Point, clear_denominators

# one fixture kind per branch of the pipeline, in the same order
GENERATED_KINDS = BRANCHES


class FixtureError(ValueError):
    pass


def _combine(coeff_points):
    coords = [0, 0, 0, 0]
    for coeff, p in coeff_points:
        coords = [a + coeff * c for a, c in zip(coords, p.coords)]
    return Point(coords)


# branch kind -> its validated generator, filled by `_validated`
_GENERATORS = {}


def _validated(kind):
    """Register the decorated builder as the generator of `kind`."""

    def wrap(builder):
        def run(seed):
            for attempt in range(60):
                rng = random.Random(f"fixture:{kind}:{seed}:{attempt}")
                try:
                    points = builder(rng)
                except (ValueError, ZeroDivisionError):
                    continue
                try:
                    decision = reductions.decide(points)
                except Exception:
                    continue
                if decision.branch != kind:
                    continue
                if decision.on_quadric != oracle_decide(points):
                    raise FixtureError(f"{kind}: pipeline disagrees with oracle")
                return points
            raise FixtureError(f"could not synthesize a {kind} fixture for seed {seed}")

        _GENERATORS[kind] = run
        return run

    return wrap


@_validated("duplicate")
def _gen_duplicate(rng):
    pts = sample_generic(f"dup:{rng.random()}", 10, bound=30)
    pts[rng.randrange(1, 10)] = pts[0]
    return pts


@_validated("four-collinear")
def _gen_four_collinear(rng):
    pts = sample_generic(f"col:{rng.random()}", 10, bound=30)
    u, v = pts[0], pts[1]
    for k, t in enumerate((0, 1, 2, 3)):
        pts[k] = _combine([(1, u), (t, v)]) if t else u
    return pts


@_validated("six-on-conic")
def _gen_six_on_conic(rng):
    ts = rng.sample(range(-9, 10), 6)
    conic = [Point((1, t, 0, t * t)) for t in ts]
    rest = sample_generic(f"conic-rest:{rng.random()}", 4, bound=30)
    tr = random_transform(rng, bound=4)
    return [tr.apply(p) for p in conic + rest]


@_validated("three-lines-grassmann")
def _gen_three_lines(rng):
    svals = rng.sample(range(-6, 7), 4)
    tvals = rng.sample(range(-10, 11), 10)
    pts = [segre_point(svals[line], tvals[3 * line + k]) for line in range(3) for k in range(3)]
    pts.append(segre_point(svals[3], tvals[9]))
    tr = random_transform(rng, bound=3)
    return [tr.apply(p) for p in pts]


@_validated("two-lines-grassmann")
def _gen_two_lines_grassmann(rng):
    svals = rng.sample(range(-8, 9), 6)
    tvals = rng.sample(range(-10, 11), 10)
    pts = [segre_point(svals[line], tvals[3 * line + k]) for line in range(2) for k in range(3)]
    pts.extend(segre_point(svals[2 + k], tvals[6 + k]) for k in range(4))
    tr = random_transform(rng, bound=3)
    return [tr.apply(p) for p in pts]


@_validated("two-lines-coincident-transversals")
def _gen_coincident_transversals(rng):
    a1, a2, a3 = rng.sample(range(-9, 10), 3)
    b1, b2, b3 = rng.sample(range(-9, 10), 3)
    u, w = rng.sample([x for x in range(-9, 10) if x not in (a1, a2, a3)], 2)
    trio1 = [Point((1, a, 0, 0)) for a in (a1, a2, a3)]
    trio2 = [Point((0, 0, 1, b)) for b in (b1, b2, b3)]
    u1 = Point((1, u, 0, 0))
    u2 = Point((0, 0, 1, w))
    a_pt = _combine([(1, u1), (1, u2)])
    b_pt = _combine([(1, u1), (rng.randint(2, 7), u2)])

    def off_lines(k):
        x, y, z = (_random_fraction(rng, 9) for _ in range(3))
        return Point(clear_denominators((k, x, y + k, z)))

    c_pt, x_pt = off_lines(1), off_lines(2)
    tr = random_transform(rng, bound=3)
    return [tr.apply(p) for p in trio1 + trio2 + [a_pt, b_pt, c_pt, x_pt]]


@_validated("plane-line-case")
def _gen_plane_line(rng):
    a1, a2, a3, u = rng.sample(range(-9, 10), 4)
    b1, b2, b3, w1, w2 = rng.sample(range(-9, 10), 5)
    trio1 = [Point((1, a, 0, 0)) for a in (a1, a2, a3)]
    trio2 = [Point((0, 0, 1, b)) for b in (b1, b2, b3)]
    r_pt = Point((1, u, 0, 0))
    a_pt = _combine([(1, r_pt), (1, Point((0, 0, 1, w1)))])
    b_pt = _combine([(1, r_pt), (1, Point((0, 0, 1, w2)))])
    # c and x coplanar with the first line: plane spanned by e0, e1, (0,0,1,s)
    s = rng.randint(2, 9)
    c_pt = Point((1, rng.randint(-9, 9), 1, s))
    x_pt = Point((rng.randint(2, 9), rng.randint(-9, 9), 2, 2 * s))
    tr = random_transform(rng, bound=3)
    return [tr.apply(p) for p in trio1 + trio2 + [a_pt, b_pt, c_pt, x_pt]]


@_validated("coplanar")
def _gen_coplanar(rng):
    pts = []
    seen = set()
    while len(pts) < 10:
        p = Point((rng.randint(-30, 30), rng.randint(-30, 30), rng.randint(-30, 30), 0))
        if p not in seen:
            seen.add(p)
            pts.append(p)
    tr = random_transform(rng, bound=4)
    return [tr.apply(p) for p in pts]


@_validated("two-planes")
def _gen_two_planes(rng):
    base = sample_generic(f"tp:{rng.random()}", 6, bound=20)
    p0, p1, p2, p3, p4, p5 = base

    def in_plane(a, b, c):
        return _combine(
            [(rng.randint(1, 9), a), (rng.randint(1, 9), b), (rng.randint(1, 9), c)]
        )

    six = in_plane(p0, p1, p5)
    seven = in_plane(p0, p1, p5)
    eight = in_plane(p2, p3, p4)
    nine = in_plane(p2, p3, p4)
    return base + [six, seven, eight, nine]


@_validated("plane-split")
def _gen_plane_split(rng):
    def on_plane():
        return Point((rng.randint(-20, 20), rng.randint(-20, 20), rng.randint(-20, 20), 0))

    def off_plane():
        return Point(
            (rng.randint(-20, 20), rng.randint(-20, 20), rng.randint(-20, 20), rng.randint(1, 20))
        )

    pts = [on_plane(), on_plane(), off_plane(), off_plane(), off_plane(), on_plane()]
    pts += [on_plane() for _ in range(4)]
    tr = random_transform(rng, bound=3)
    return [tr.apply(p) for p in pts]


@_validated("generic")
def _gen_generic(rng):
    return sample_generic(f"gen:{rng.random()}", 10, bound=50)


def generate_branch(kind, seed):
    """Points whose pipeline decision fires the named branch."""
    if kind not in _GENERATORS:
        raise FixtureError(f"unknown branch kind {kind!r}")
    return _GENERATORS[kind](seed)


def mutate_duplicate(seed):
    rng = random.Random(f"mut-dup:{seed}")
    pts = sample_generic(f"mut-dup:{seed}", 10, bound=40)
    pts[rng.randrange(1, 10)] = pts[rng.randrange(0, 10)]
    return pts


def mutate_collinear(seed):
    rng = random.Random(f"mut-col:{seed}")
    pts = sample_generic(f"mut-col:{seed}", 10, bound=40)
    targets = rng.sample(range(10), 4)
    u, v = pts[targets[0]], pts[targets[1]]
    for k, idx in enumerate(targets[2:], start=2):
        pts[idx] = _combine([(1, u), (k, v)])
    return pts


def mutate_coplanar(seed):
    rng = random.Random(f"mut-cop:{seed}")
    pts = sample_generic(f"mut-cop:{seed}", 10, bound=40)
    targets = rng.sample(range(10), rng.randint(6, 9))
    u, v, w = (pts[i] for i in targets[:3])
    for idx in targets[3:]:
        pts[idx] = _combine(
            [(rng.randint(1, 9), u), (rng.randint(1, 9), v), (rng.randint(1, 9), w)]
        )
    return pts
