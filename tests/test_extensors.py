from fractions import Fraction
from functools import reduce
from itertools import combinations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import points, random_point, seeded, step_inputs, step_output
from reference_geometry import plucker_residual, support_basis
from quadricheck import extensors, fixtures, reductions
from quadricheck.constructions import ConstructionTrace, _value_from_json, _value_to_json
from quadricheck.extensors import (
    Extensor,
    GradeOverflow,
    NotSkew,
    ZeroExtensor,
    as_point,
    contains_point,
    grassmann_criterion,
    join,
    line_through,
    meet,
    plane_form,
    plane_through,
    scalar_of,
)
from quadricheck.oracle import segre_point
from quadricheck.projective import (
    E0,
    E1,
    E2,
    E3,
    Point,
    bracket,
    kernel_basis,
    rank_of_points,
)


def segre_ruling(s):
    return join(Point((1, s, 0, 0)), Point((0, 0, 1, s)))


# Direct definitions of join, meet and the support-basis rows, with every
# sign recomputed from the subsets on each call.  The library reads the
# same signs from tables built at import; these are the reference.
SUBSETS = {k: tuple(combinations(range(4), k)) for k in range(5)}


def _inversions(seq):
    return sum(1 for i, x in enumerate(seq) for y in seq[i + 1 :] if x > y)


def reference_join(a, b):
    grade = a.grade + b.grade
    out = [0] * len(SUBSETS[grade])
    for s, ca in zip(SUBSETS[a.grade], a.coeffs):
        if ca == 0:
            continue
        for t, cb in zip(SUBSETS[b.grade], b.coeffs):
            if cb == 0 or set(s) & set(t):
                continue
            sign = -1 if _inversions(s + t) % 2 else 1
            out[SUBSETS[grade].index(tuple(sorted(s + t)))] += sign * ca * cb
    return tuple(out)


def reference_meet(a, b):
    j, k = a.grade, b.grade
    grade = j + k - 4
    if grade < 0:
        return (0,)
    out = [0] * len(SUBSETS[grade])
    for s, ca in zip(SUBSETS[j], a.coeffs):
        if ca == 0:
            continue
        for t, cb in zip(SUBSETS[k], b.coeffs):
            if cb == 0:
                continue
            for u in combinations(s, 4 - k):
                if set(u) & set(t):
                    continue
                rest = tuple(x for x in s if x not in u)
                parity = _inversions(u + t) + _inversions(u + rest)
                sign = -1 if parity % 2 else 1
                out[SUBSETS[grade].index(rest)] += sign * ca * cb
    return tuple(out)


def reference_support_rows(e):
    """Rows of v -> join(e, v), one per basis subset of grade e.grade + 1."""
    rows = []
    for tgt in SUBSETS[e.grade + 1]:
        row = []
        for i in range(4):
            if i not in tgt:
                row.append(0)
                continue
            src = tuple(x for x in tgt if x != i)
            sign = -1 if _inversions(src + (i,)) % 2 else 1
            row.append(sign * e.coeffs[SUBSETS[e.grade].index(src)])
        rows.append(row)
    return rows


def random_extensor(rng, grade, kind):
    """Integer coefficients; sparse keeps about a third of them."""
    coeffs = []
    for _ in SUBSETS[grade]:
        if kind == "sparse" and rng.random() < 0.67:
            coeffs.append(0)
        else:
            coeffs.append(rng.randint(-20, 20))
    return Extensor(grade, coeffs)


def scaled(e, factor):
    return Extensor(e.grade, tuple(factor * c for c in e.coeffs))


def same_coefficients(got, want):
    return tuple(got) == tuple(want) and [type(c) for c in got] == [type(c) for c in want]


KINDS = ("int", "sparse", "zero")


def extensor_pairs(name):
    rng = seeded(name)
    for kind in KINDS:
        for _ in range(12):
            for j in range(5):
                for k in range(5):
                    if kind == "zero":
                        a = Extensor.zero(j)
                        b = random_extensor(rng, k, "int")
                        yield (b, a) if rng.random() < 0.5 else (a, b)
                    else:
                        yield random_extensor(rng, j, kind), random_extensor(rng, k, kind)


class TestAgainstDirectDefinitions:
    def test_join_every_grade_pair(self):
        seen = set()
        for a, b in extensor_pairs("reference-join"):
            if a.grade + b.grade > 4:
                continue
            seen.add((a.grade, b.grade))
            got = join(a, b)
            assert got.grade == a.grade + b.grade
            assert same_coefficients(got.coeffs, reference_join(a, b))
        assert len(seen) == 15

    def test_meet_every_grade_pair(self):
        seen = set()
        for a, b in extensor_pairs("reference-meet"):
            seen.add((a.grade, b.grade))
            got = meet(a, b)
            assert got.grade == max(a.grade + b.grade - 4, 0)
            assert same_coefficients(got.coeffs, reference_meet(a, b))
        assert len(seen) == 25

    def test_support_basis_of_decomposables(self):
        rng = seeded("reference-support")
        for grade in (1, 2, 3):
            for _ in range(20):
                pts = [random_point(rng, bound=6) for _ in range(grade)]
                e = reduce(join, pts)
                if rng.random() < 0.5:
                    e = scaled(e, rng.choice((-1, 1)) * rng.randint(2, 9))
                if e.is_zero():
                    continue
                want = [Point(v) for v in kernel_basis(reference_support_rows(e))]
                assert support_basis(e) == want

    def test_witness_meets_every_basis_point(self):
        """_WITNESS_MEETS[k](l1, l2) is meet(l1, join(l2, E_k)), coefficient
        by coefficient, for coplanar, skew and coincident lines."""
        rng = seeded("reference-witness-meets")
        pairs = []
        for _ in range(20):
            p, q, r, s = (random_point(rng) for _ in range(4))
            line = join(p, q)
            pairs.append((line, join(p, r)))  # coplanar: both through p
            pairs.append((line, join(r, s)))  # skew unless the four are coplanar
            pairs.append((line, scaled(join(q, p), rng.randint(2, 9))))  # coincident
        pairs += [(join(E0, E1), join(E0, E2)), (join(E0, E1), join(E2, E3))]
        for l1, l2 in pairs:
            for k, e in enumerate((E0, E1, E2, E3)):
                plane = Extensor(3, reference_join(l2, e))
                want = reference_meet(l1, plane)
                got = extensors._WITNESS_MEETS[k](l1.coeffs, l2.coeffs)
                assert type(got) is tuple and same_coefficients(got, want)
        assert len(extensors._WITNESS_MEETS) == 4


class TestGeneratedKernels:
    """Each straight-line kernel generated at import equals the direct
    definition, in value and type."""

    @staticmethod
    def int_factor_pairs(rng, j, k):
        # every pair of basis extensors isolates one table entry
        for ia in range(len(SUBSETS[j])):
            for ib in range(len(SUBSETS[k])):
                yield (
                    Extensor(j, [int(i == ia) for i in range(len(SUBSETS[j]))]),
                    Extensor(k, [int(i == ib) for i in range(len(SUBSETS[k]))]),
                )
        for kind in ("int", "sparse"):
            for _ in range(10):
                yield random_extensor(rng, j, kind), random_extensor(rng, k, kind)
        wide = [rng.randint(-(2**200), 2**200) for _ in range(len(SUBSETS[j]))]
        yield Extensor(j, wide), random_extensor(rng, k, "int")
        yield Extensor.zero(j), random_extensor(rng, k, "int")

    def test_join_kernels(self):
        rng = seeded("kernels-join")
        assert set(extensors._JOIN_KERNELS) == set(extensors._JOIN)
        assert len(extensors._JOIN) == 15
        for j, k in extensors._JOIN:
            for a, b in self.int_factor_pairs(rng, j, k):
                got = extensors._JOIN_KERNELS[j, k](a.coeffs, b.coeffs)
                want = reference_join(a, b)
                assert type(got) is tuple and same_coefficients(got, want)
                assert same_coefficients(join(a, b).coeffs, want)

    def test_meet_kernels(self):
        """Grades summing to 4 or more have a table and a kernel; the other
        ten pairs meet in the int scalar 0 without either."""
        rng = seeded("kernels-meet")
        assert set(extensors._MEET_KERNELS) == set(extensors._MEET)
        seen = set()
        for j in range(5):
            for k in range(5):
                for a, b in self.int_factor_pairs(rng, j, k):
                    want = reference_meet(a, b)
                    if (j, k) in extensors._MEET:
                        got = extensors._MEET_KERNELS[j, k](a.coeffs, b.coeffs)
                        assert type(got) is tuple and same_coefficients(got, want)
                    assert same_coefficients(meet(a, b).coeffs, want)
                seen.add((j, k))
        assert len(seen) == 25 and len(extensors._MEET) == 15


class TestJoin:
    def test_basis_line(self):
        line = join(E0, E1)
        assert line.grade == 2
        assert line.coeffs == (1, 0, 0, 0, 0, 0)

    def test_join_with_self_vanishes(self):
        p = Point((3, 1, -2, 5))
        assert join(p, p).is_zero()

    def test_full_flag_is_scalar_one(self):
        assert scalar_of(join(join(join(E0, E1), E2), E3)) == 1

    def test_grade_overflow(self):
        plane = join(join(E0, E1), E2)
        with pytest.raises(GradeOverflow):
            join(plane, plane)

    @given(points, points, points, points)
    def test_grade4_join_is_bracket(self, a, b, c, d):
        assert scalar_of(reduce(join, (a, b, c, d))) == bracket(a, b, c, d)

    def test_graded_anticommutativity(self):
        rng = seeded("anticommute")
        for _ in range(30):
            pts = [random_point(rng) for _ in range(4)]
            for ja, jb in ((1, 1), (1, 2), (2, 2), (1, 3), (2, 1), (3, 1)):
                if ja + jb > 4:
                    continue
                a = reduce(join, pts[:ja])
                b = reduce(join, pts[ja : ja + jb]) if jb else None
                sign = -1 if (ja * jb) % 2 else 1
                assert join(a, b).coeffs == scaled(join(b, a), sign).coeffs

    def test_associativity(self):
        rng = seeded("assoc")
        for _ in range(30):
            a, b, c = (random_point(rng) for _ in range(3))
            assert join(join(a, b), c) == join(a, join(b, c))


class TestMeet:
    def test_line_meets_plane_at_basis_point(self):
        # meet of the line e0e1 with the plane e1e2e3 is e1 exactly
        got = meet(join(E0, E1), join(join(E1, E2), E3))
        assert got.grade == 1
        assert got.coeffs == (0, 1, 0, 0)

    def test_line_inside_plane_vanishes(self):
        line = join(E0, E1)
        plane = join(join(E0, E1), E2)
        assert meet(line, plane).is_zero()

    def test_low_grade_meet_is_zero(self):
        assert meet(join(E0, E1), join(E2, E3)).grade == 0

    def test_line_plane_formula_coefficientwise(self):
        rng = seeded("duality")
        for _ in range(40):
            p, q, r, s, t = (random_point(rng) for _ in range(5))
            got = meet(join(p, q), join(join(r, s), t))
            want = tuple(
                bracket(p, r, s, t) * qc - bracket(q, r, s, t) * pc
                for pc, qc in zip(p.coords, q.coords)
            )
            assert got.coeffs == want

    def test_plane_plane_formula_coefficientwise(self):
        rng = seeded("duality-planes")
        for _ in range(40):
            p, q, r, s, t, u = (random_point(rng) for _ in range(6))
            got = meet(join(join(p, q), r), join(join(s, t), u))
            want = [
                a - b + c
                for a, b, c in zip(
                    scaled(join(q, r), bracket(p, s, t, u)).coeffs,
                    scaled(join(p, r), bracket(q, s, t, u)).coeffs,
                    scaled(join(p, q), bracket(r, s, t, u)).coeffs,
                )
            ]
            assert got.coeffs == tuple(want)

    def test_meet_of_two_planes_is_their_intersection(self):
        rng = seeded("plane-intersection")
        hits = 0
        while hits < 20:
            pl1 = reduce(join, (random_point(rng) for _ in range(3)))
            pl2 = reduce(join, (random_point(rng) for _ in range(3)))
            if pl1.is_zero() or pl2.is_zero():
                continue
            line = meet(pl1, pl2)
            if line.is_zero():
                continue
            hits += 1
            for p in support_basis(line):
                assert contains_point(pl1, p) and contains_point(pl2, p)


class TestSupportBasis:
    def test_point_support(self):
        p = Point((2, -1, 3, 7))
        assert support_basis(p) == [p]

    def test_basis_line_support(self):
        pts = support_basis(join(E0, E1))
        assert len(pts) == 2
        assert rank_of_points(pts + [E0, E1]) == 2

    def test_rejoin_matches_up_to_scale(self):
        rng = seeded("support-rejoin")
        for _ in range(25):
            line = join(random_point(rng), random_point(rng))
            if line.is_zero():
                continue
            rejoined = reduce(join, support_basis(line))
            assert rejoined.canonical() == line.canonical()

    def test_zero_extensor_rejected(self):
        with pytest.raises(ZeroExtensor):
            support_basis(Extensor.zero(2))


class TestPlucker:
    def test_join_outputs_are_decomposable(self):
        rng = seeded("plucker")
        for _ in range(40):
            line = join(random_point(rng), random_point(rng))
            assert plucker_residual(line) == 0

    def test_meet_outputs_are_decomposable(self):
        rng = seeded("plucker-meet")
        for _ in range(40):
            pl1 = reduce(join, (random_point(rng) for _ in range(3)))
            pl2 = reduce(join, (random_point(rng) for _ in range(3)))
            if pl1.is_zero() or pl2.is_zero():
                continue
            assert plucker_residual(meet(pl1, pl2)) == 0

    def test_nondecomposable_detected(self):
        mixed = Extensor(2, (1, 0, 0, 0, 0, 1))  # e01 + e23
        assert plucker_residual(mixed) != 0


class TestBracketIdentities:
    def test_cramer_identity(self):
        rng = seeded("cramer")
        for _ in range(40):
            a, b, c, d, e = (random_point(rng) for _ in range(5))
            lhs = tuple(
                bracket(e, b, c, d) * a.coords[i]
                + bracket(a, e, c, d) * b.coords[i]
                + bracket(a, b, e, d) * c.coords[i]
                + bracket(a, b, c, e) * d.coords[i]
                for i in range(4)
            )
            rhs = tuple(bracket(a, b, c, d) * e.coords[i] for i in range(4))
            assert lhs == rhs

    def test_three_term_identity(self):
        rng = seeded("three-term")
        for _ in range(40):
            a, b, c, d, e, f = (random_point(rng) for _ in range(6))
            lhs = -bracket(a, b, d, e) * bracket(a, b, c, f) * bracket(d, e, c, f) - bracket(
                a, b, c, e
            ) * bracket(a, b, d, f) * bracket(c, e, d, f)
            rhs = bracket(a, b, c, d) * bracket(a, b, e, f) * bracket(c, d, e, f)
            assert lhs == rhs


class TestGrassmannCriterion:
    def test_point_on_first_line_gives_zero(self):
        lines = [segre_ruling(s) for s in (0, 1, 2)]
        on_l0 = Point((1, 0, 1, 0))
        assert grassmann_criterion(on_l0, *lines) == 0

    def test_segre_on_point(self):
        lines = [segre_ruling(s) for s in (0, 1, 2)]
        assert grassmann_criterion(Point((1, 3, 5, 15)), *lines) == 0

    def test_segre_off_point(self):
        lines = [segre_ruling(s) for s in (0, 1, 2)]
        assert grassmann_criterion(Point((1, 1, 1, 0)), *lines) != 0

    def test_not_skew_rejected(self):
        l1 = join(E0, E1)
        l2 = join(E0, E2)
        l3 = segre_ruling(5)
        with pytest.raises(NotSkew):
            grassmann_criterion(Point((1, 1, 1, 1)), l1, l2, l3)

    def test_matches_segre_membership(self):
        rng = seeded("grassmann-sweep")
        lines = [segre_ruling(s) for s in (0, 1, 2)]
        for _ in range(30):
            if rng.random() < 0.5:
                s = rng.randint(3, 40)
                t = rng.randint(1, 40)
                p = segre_point(s, t)
                assert grassmann_criterion(p, *lines) == 0
            else:
                p = random_point(rng)
                on = p.coords[0] * p.coords[3] == p.coords[1] * p.coords[2]
                assert (grassmann_criterion(p, *lines) == 0) == on


class TestPlaneForm:
    def test_form_vanishes_on_plane(self):
        rng = seeded("plane-form")
        for _ in range(20):
            a, b, c = (random_point(rng) for _ in range(3))
            plane = join(join(a, b), c)
            if plane.is_zero():
                continue
            form = plane_form(plane)
            for p in (a, b, c):
                assert sum(f * x for f, x in zip(form, p.coords)) == 0
            d = random_point(rng)
            assert (sum(f * x for f, x in zip(form, d.coords)) == 0) == contains_point(
                plane, d
            )


def round_trip(value):
    """A value written as a trace writes it, through JSON text, and read back."""
    data = json.loads(json.dumps(_value_to_json(value.grade, value.coeffs)))
    return _value_from_json(data)


class TestSerialization:
    @given(points, points)
    def test_json_round_trip(self, p, q):
        line = join(p, q)
        assert round_trip(line) == (2, line.coeffs)

    def test_zero_detectable(self):
        for grade in range(5):
            z = Extensor.zero(grade)
            assert z.is_zero()
            if grade == 1:
                # a grade-1 value is a point: zero coordinates are refused
                with pytest.raises(ValueError):
                    round_trip(z)
            else:
                assert round_trip(z) == (grade, z.coeffs)

    def test_coefficient_past_the_int_text_digit_limit(self):
        """A 6,000-digit coefficient, past the 4,300 digits that `str` and
        `int` convert under the interpreter's default limit."""
        line = Extensor(2, (10**5999 + 7, 0, 0, 0, 0, 0))
        written = _value_to_json(line.grade, line.coeffs)
        assert len(written["extensor"]["coeffs"][0]) == 6000
        assert round_trip(line) == (2, line.coeffs)

    def test_trace_writes_points_as_points(self):
        """Points are grade-1 extensors, and a trace still writes each one
        as a point, before and after a JSON round trip."""
        decision = reductions.decide(fixtures.generate_branch("generic", 1), with_trace=True)
        data = json.loads(json.dumps(decision.trace.to_json()))
        restored = ConstructionTrace.from_json(data)
        assert restored.to_json() == data
        values = [v for s in restored.steps for v in (*step_inputs(s), step_output(s))]
        # a grade-1 value is held as a point's canonical coordinates
        assert all(Point(c).coords == c for g, c in values if g == 1)
        written = data["leaves"] + [s["output"] for s in data["steps"]]
        points_written = [v for v in written if "point" in v]
        assert points_written
        assert all(v["extensor"]["grade"] != 1 for v in written if "point" not in v)


class TestIntCoefficients:
    @pytest.mark.parametrize("coeff", [Fraction(1, 2), Fraction(2), True, "3"], ids=repr)
    def test_non_int_coefficient_rejected(self, coeff):
        with pytest.raises(TypeError, match="ints"):
            Extensor(1, (coeff, 0, 0, 0))

    def test_canonical(self):
        e = Extensor(2, (0, -4, 6, 0, 0, 2))
        assert e.canonical().coeffs == (0, 2, -3, 0, 0, -1)
        assert all(type(c) is int for c in e.canonical().coeffs)
        zero = Extensor.zero(3)
        assert zero.canonical() is zero


class TestHelpers:
    def test_line_through_distinct(self):
        with pytest.raises(ZeroExtensor):
            line_through(E0, Point((2, 0, 0, 0)))

    def test_plane_through_collinear(self):
        with pytest.raises(ZeroExtensor):
            plane_through(E0, E1, Point((1, 1, 0, 0)))

    def test_as_point(self):
        assert as_point(Extensor(1, (2, 4, 6, 8))) == Point((1, 2, 3, 4))
        assert type(as_point(Extensor(1, (2, 4, 6, 8)))) is Point

    def test_join_of_points_is_their_line(self):
        p, q = Point((1, 2, 3, 4)), Point((0, 1, -1, 2))
        assert join(p, q) == line_through(p, q)
