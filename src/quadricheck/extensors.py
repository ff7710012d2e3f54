"""Extensors of a 4-dimensional space: join (wedge) and the shuffle meet.

Join is the wedge product; meet is the dual product given by the split
shuffle formula, extended bilinearly from basis extensors.  Coefficients
are indexed by lexicographically sorted subsets of {0,1,2,3}, and the
grade-4 extensor e0e1e2e3 is identified with the scalar 1.  The sign of
every basis product is computed once, at import, into one table per pair
of grades; join, meet and support_basis only read those tables.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

from .projective import GeometryError, Point

SUBSETS = {k: tuple(combinations(range(4), k)) for k in range(5)}
_INDEX = {k: {s: i for i, s in enumerate(SUBSETS[k])} for k in range(5)}


def _perm_sign(seq):
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv % 2 else 1


def _join_table(j, k):
    """Structure constants of e_S ∧ e_T for |S| = j, |T| = k: one
    (index_a, index_b, index_out, sign) per pair of disjoint subsets, in the
    order the bilinear sum visits them."""
    index = _INDEX[j + k]
    table = []
    for ia, s in enumerate(SUBSETS[j]):
        for ib, t in enumerate(SUBSETS[k]):
            if set(s) & set(t):
                continue
            inv = sum(1 for x in s for y in t if x > y)
            sign = -1 if inv % 2 else 1
            table.append((ia, ib, index[tuple(sorted(s + t))], sign))
    return tuple(table)


def _meet_table(j, k):
    """Structure constants of the split-shuffle meet of e_S and e_T for
    |S| = j, |T| = k, j + k >= 4: one (index_a, index_b, index_out, sign)
    per shuffle (u, rest) of S whose leading block u of size 4 - k is
    disjoint from T."""
    index = _INDEX[j + k - 4]
    table = []
    for ia, s in enumerate(SUBSETS[j]):
        for ib, t in enumerate(SUBSETS[k]):
            tset = set(t)
            for u in combinations(s, 4 - k):
                if set(u) & tset:
                    continue
                rest = tuple(x for x in s if x not in u)
                shuffle_inv = sum(1 for x in u for y in rest if x > y)
                sign = _perm_sign(u + t)
                if shuffle_inv % 2:
                    sign = -sign
                table.append((ia, ib, index[rest], sign))
    return tuple(table)


_JOIN = {(j, k): _join_table(j, k) for j in range(5) for k in range(5 - j)}
_MEET = {(j, k): _meet_table(j, k) for j in range(5) for k in range(4 - j, 5)}


def _bilinear(table, ca_all, cb_all, grade):
    """Output coefficients of the bilinear product a table describes; zero
    coefficients of either factor contribute nothing and are skipped."""
    out = [0] * len(SUBSETS[grade])
    for ia, ib, io, sign in table:
        ca = ca_all[ia]
        if ca == 0:
            continue
        cb = cb_all[ib]
        if cb == 0:
            continue
        out[io] += sign * ca * cb
    return out


class GradeOverflow(GeometryError):
    """Join of grades summing past the ambient dimension."""


class ZeroExtensor(GeometryError):
    """Operation undefined on the zero extensor."""


class NotSkew(GeometryError):
    """Lines required to be mutually skew are not."""


class Extensor:
    """A grade-k element of the exterior algebra, k = 0..4."""

    __slots__ = ("grade", "coeffs")

    def __init__(self, grade, coeffs):
        if grade not in range(5):
            raise ValueError("grade must be 0..4")
        coeffs = tuple(coeffs)
        if len(coeffs) != len(SUBSETS[grade]):
            raise ValueError(f"grade-{grade} extensor needs {len(SUBSETS[grade])} coefficients")
        object.__setattr__(self, "grade", grade)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Extensor is immutable")

    @classmethod
    def zero(cls, grade):
        return cls(grade, (0,) * len(SUBSETS[grade]))

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def scale(self, factor):
        return Extensor(self.grade, tuple(factor * c for c in self.coeffs))

    def canonical(self):
        """Scale-normalized copy: coprime integer coefficients, first
        nonzero positive.  Zero extensors are returned unchanged."""
        if self.is_zero():
            return Extensor.zero(self.grade)
        ints = [int(c) for c in self.coeffs]
        if any(c != ic for c, ic in zip(self.coeffs, ints)):
            from fractions import Fraction
            from math import lcm

            fr = [Fraction(c) for c in self.coeffs]
            mult = lcm(*(f.denominator for f in fr))
            ints = [int(f * mult) for f in fr]
        g = gcd(*ints)
        ints = [c // g for c in ints]
        first = next(c for c in ints if c != 0)
        if first < 0:
            ints = [-c for c in ints]
        return Extensor(self.grade, tuple(ints))

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

    def to_json(self):
        return {"grade": self.grade, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data):
        from fractions import Fraction

        return cls(int(data["grade"]), tuple(Fraction(c) for c in data["coeffs"]))


def from_point(p: Point) -> Extensor:
    if p.dim != 4:
        raise ValueError("extensors live in 4-space")
    return Extensor(1, p.coords)


def as_point(e: Extensor) -> Point:
    if e.grade != 1 or e.is_zero():
        raise ZeroExtensor("not a nonzero grade-1 extensor")
    return Point(e.coeffs)


def scalar_of(e: Extensor):
    if e.grade not in (0, 4):
        raise ValueError("only grade-0 and grade-4 extensors are scalars")
    return e.coeffs[0]


def join(a: Extensor, b: Extensor) -> Extensor:
    """Wedge product; nonzero exactly when the supports are independent."""
    grade = a.grade + b.grade
    if grade > 4:
        raise GradeOverflow(f"grades {a.grade} + {b.grade} exceed 4")
    return Extensor(grade, _bilinear(_JOIN[a.grade, b.grade], a.coeffs, b.coeffs, grade))


def join_points(*points) -> Extensor:
    e = from_point(points[0])
    for p in points[1:]:
        e = join(e, from_point(p))
    return e


def line_through(p: Point, q: Point) -> Extensor:
    e = join_points(p, q)
    if e.is_zero():
        raise ZeroExtensor(f"{p} and {q} coincide")
    return e


def plane_through(p: Point, q: Point, r: Point) -> Extensor:
    e = join_points(p, q, r)
    if e.is_zero():
        raise ZeroExtensor(f"{p}, {q}, {r} are collinear")
    return e


def meet(a: Extensor, b: Extensor) -> Extensor:
    """Shuffle-formula meet, bilinear over basis extensors.

    For basis extensors e_S, e_T the sum runs over the (4-k, j-(4-k))-split
    shuffles of S: the leading block joins e_T inside a bracket (the sign of
    the resulting permutation of 0123), the trailing block survives.  Zero
    when grade(a) + grade(b) < 4; supports intersect exactly when the
    result is nonzero and the supports jointly span.
    """
    grade = a.grade + b.grade - 4
    if grade < 0:
        return Extensor.zero(0)
    return Extensor(grade, _bilinear(_MEET[a.grade, b.grade], a.coeffs, b.coeffs, grade))


def support_basis(e: Extensor):
    """Independent points spanning the support of a nonzero extensor.

    The support is {v : e ∧ v = 0}; its basis is read off the exact kernel
    of the linear map v ↦ join(e, v), so the output is deterministic and
    re-joining it recovers e up to scale.
    """
    from .projective import kernel_basis

    if e.is_zero():
        raise ZeroExtensor("zero extensor has no support basis")
    if e.grade < 1:
        raise ZeroExtensor("scalars have no support basis")
    if e.grade == 4:
        return [Point(v) for v in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))]
    rows = [[0] * 4 for _ in SUBSETS[e.grade + 1]]
    for ia, i, io, sign in _JOIN[e.grade, 1]:
        rows[io][i] = sign * e.coeffs[ia]
    basis = kernel_basis(rows)
    points = [Point(v) for v in basis]
    if len(points) != e.grade:
        raise ZeroExtensor("extensor is not decomposable")
    return points


def contains_point(e: Extensor, p: Point) -> bool:
    """Whether p lies in the support of e (p ∧ e = 0)."""
    return join(e, from_point(p)).is_zero()


def plucker_residual(e: Extensor):
    """p01*p23 - p02*p13 + p03*p12; zero exactly for decomposable grade-2."""
    if e.grade != 2:
        raise ValueError("Plücker relation applies to grade-2 extensors")
    c = e.coeffs
    return c[0] * c[5] - c[1] * c[4] + c[2] * c[3]


def lines_skew(l0: Extensor, l1: Extensor) -> bool:
    """Two lines are skew iff the scalar join of their supports is nonzero."""
    if l0.grade != 2 or l1.grade != 2:
        raise ValueError("skewness is a relation between lines")
    return scalar_of(join(l0, l1)) != 0


def plane_form(e: Extensor):
    """Linear form (on x, y, z, w) whose zero set is the plane extensor."""
    if e.grade != 3 or e.is_zero():
        raise ZeroExtensor("need a nonzero plane extensor")
    c = e.coeffs  # order e012, e013, e023, e123
    return (-c[3], c[2], -c[1], c[0])


def grassmann_criterion(x: Point, l0: Extensor, l1: Extensor, l2: Extensor):
    """Scalar that vanishes iff x lies on the quadric through three skew lines.

    Computes join(meet(join(x, l0), l1), join(x, l2)): the plane through x
    and l0 meets l1 in a point, and the point lies on the plane through x
    and l2 exactly when the scalar is zero.
    """
    for u, v in ((l0, l1), (l0, l2), (l1, l2)):
        if not lines_skew(u, v):
            raise NotSkew("the three lines must be mutually skew")
    xe = from_point(x)
    plane0 = join(xe, l0)
    hit = meet(plane0, l1)
    plane2 = join(xe, l2)
    return scalar_of(join(hit, plane2))
