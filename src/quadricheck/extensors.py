"""The exterior algebra of a 4-dimensional space: join (wedge) and the
shuffle meet.

The value type `Extensor`, with `Point` as its grade-1 subclass, lives in
`projective` and is re-exported here; a point enters the algebra as it
stands, so `join(p, q)` is the line through p and q.  Join is the wedge
product; meet is the dual product given by the split shuffle formula,
extended bilinearly from basis extensors.  Coefficients are indexed by
lexicographically sorted subsets of {0,1,2,3}, and the grade-4 extensor
e0e1e2e3 is identified with the scalar 1.  The sign of every basis product
is computed once, at import, into one table per pair of grades, and from
those tables import generates one straight-line function per pair of
grades, which join and meet run, and four more, `_WITNESS_MEETS[k]`, that
compute meet(l1, join(l2, E_k)) for two lines and a basis point E_k in one
step, for meeting coplanar lines.  Four more, `_WITNESS_BRACKETS[k]`,
compute the bracket [join(l, E_k), p] of a line l and a point p in three
products: the line pq meets the plane π = join(l, E_k) at [πp]q - [πq]p,
which is how the generic program meets coplanar lines.  Coefficients are
always ints: points have canonical integer coordinates, the kernels only
add and multiply, and Extensor(...) refuses any other type.

`modp_kernels()` generates, on its first call and never at import, the
join and meet kernels and the witness bracket [join(l, E3), p] from the
same tables with every output coefficient reduced mod the prime P, for the
generic program's mod-p filter: each equals the exact kernel reduced mod P.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

from .projective import SUBSETS, Extensor, GeometryError, Point, _trusted

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


def _kernel_source(name, table, j, k, grade, modulus=None):
    """Source of a function computing the bilinear product `table`
    describes as one sum of products per output coefficient, in table
    order; an output no pair reaches is the literal 0.  With a modulus,
    each sum is reduced by it."""
    sums = [[] for _ in SUBSETS[grade]]
    for ia, ib, io, sign in table:
        sums[io].append(f"{'-' if sign < 0 else '+'} a{ia} * b{ib}")
    exprs = [" ".join(terms).removeprefix("+ ") if terms else "0" for terms in sums]
    if modulus is not None:
        exprs = [f"({expr}) % {modulus}" if expr != "0" else expr for expr in exprs]
    unpack_a = "".join(f"a{i}, " for i in range(len(SUBSETS[j])))
    unpack_b = "".join(f"b{i}, " for i in range(len(SUBSETS[k])))
    return (
        f"def {name}(ca, cb):\n"
        f"    {unpack_a}= ca\n"
        f"    {unpack_b}= cb\n"
        f"    return ({', '.join(exprs)},)\n"
    )


def _kernels(kind, tables, out_grade, modulus=None):
    """One generated function per pair of grades of `tables`, reducing its
    outputs by the modulus when one is given."""
    namespace = {}
    for (j, k), table in tables.items():
        source = _kernel_source(f"_{kind}_{j}_{k}", table, j, k, out_grade(j, k), modulus)
        exec(compile(source, f"<{kind} kernel {j},{k}>", "exec"), namespace)
    return {(j, k): namespace[f"_{kind}_{j}_{k}"] for j, k in tables}


_JOIN_KERNELS = _kernels("join", _JOIN, lambda j, k: j + k)
_MEET_KERNELS = _kernels("meet", _MEET, lambda j, k: j + k - 4)


def _witness_table(k):
    """Structure constants of meet(l1, join(l2, E_k)) on the coefficients of
    two lines: the E_k-slice of _JOIN[2, 1] makes each coefficient of the
    plane join(l2, E_k) one signed coefficient of l2 or zero, and putting
    those into _MEET[2, 3] leaves 9 of its 12 products."""
    plane = {io: (il, sign) for il, ip, io, sign in _JOIN[2, 1] if ip == k}
    return tuple(
        (ia, plane[ib][0], io, sign * plane[ib][1])
        for ia, ib, io, sign in _MEET[2, 3]
        if ib in plane
    )


# _WITNESS_MEETS[k] computes meet(l1, join(l2, E_k)) from the coefficients
# of the lines l1 and l2, for k = 0..3.
_WITNESS_MEETS = tuple(
    _kernels(f"witness{k}", {(2, 2): _witness_table(k)}, lambda j, l: 1)[2, 2]
    for k in range(4)
)


def _witness_bracket_table(k):
    """Structure constants of the bracket [join(l, E_k), p] on the
    coefficients of a line and a point: the E_k-slice of _JOIN[2, 1] makes
    the plane join(l, E_k) three signed coefficients of l, and putting
    those into _JOIN[3, 1] leaves 3 of its 4 products."""
    plane = {io: (il, sign) for il, ip, io, sign in _JOIN[2, 1] if ip == k}
    return tuple(
        (plane[ia][0], ib, io, sign * plane[ia][1])
        for ia, ib, io, sign in _JOIN[3, 1]
        if ia in plane
    )


# _WITNESS_BRACKETS[k] computes the scalar join(join(l, E_k), p), as a
# 1-tuple, from the coefficients of a line l and a point p, for k = 0..3.
_WITNESS_BRACKETS = tuple(
    _kernels(f"bracket{k}", {(2, 1): _witness_bracket_table(k)}, lambda j, l: 0)[2, 1]
    for k in range(4)
)


# The prime of the mod-p kernels.  On inputs already reduced, every product
# and sum of a kernel then fits in one or two 30-bit CPython digits: the
# four mod-p columns of a generic decision, leaves reduced included, took
# 0.45 ms at this prime against 0.97 ms at 2^61 - 1 (medians over the 2^32
# and 2^64 configurations of the seed-7 and seed-1 generic bench corpora,
# one 2 GHz Xeon core).
P = 2**30 - 35


@cache
def modp_kernels():
    """The join kernels, the meet kernels, each keyed by its pair of grades
    as in _JOIN_KERNELS and _MEET_KERNELS, and the witness bracket
    [join(l, E3), p] of _WITNESS_BRACKETS[3], generated from the same
    tables with every output coefficient reduced mod P.  On inputs reduced
    mod P each returns the exact kernel's output reduced mod P.  Built on
    the first call, never at import."""
    return (
        _kernels("join_mod", _JOIN, lambda j, k: j + k, P),
        _kernels("meet_mod", _MEET, lambda j, k: j + k - 4, P),
        _kernels("bracket3_mod", {(2, 1): _witness_bracket_table(3)}, lambda j, l: 0, P)[2, 1],
    )


class GradeOverflow(GeometryError):
    """Join of grades summing past the ambient dimension."""


class ZeroExtensor(GeometryError):
    """Operation undefined on the zero extensor."""


class NotSkew(GeometryError):
    """Lines required to be mutually skew are not."""


def as_point(e: Extensor) -> Point:
    """The Point of a nonzero grade-1 extensor, such as the meet of a line
    and a plane: its coefficients made canonical."""
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
    return _trusted(grade, _JOIN_KERNELS[a.grade, b.grade](a.coeffs, b.coeffs))


def line_through(p: Point, q: Point) -> Extensor:
    e = join(p, q)
    if e.is_zero():
        raise ZeroExtensor(f"{p} and {q} coincide")
    return e


def plane_through(p: Point, q: Point, r: Point) -> Extensor:
    e = join(join(p, q), r)
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
    return _trusted(grade, _MEET_KERNELS[a.grade, b.grade](a.coeffs, b.coeffs))


def contains_point(e: Extensor, p: Point) -> bool:
    """Whether p lies in the support of e (p ∧ e = 0)."""
    return join(e, p).is_zero()


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
    plane0 = join(x, l0)
    hit = meet(plane0, l1)
    plane2 = join(x, l2)
    return scalar_of(join(hit, plane2))
