from itertools import combinations

import pytest

from conftest import random_point, seeded
from reference_geometry import conic_planes, planar_conic_det
from quadricheck import fixtures, generic_case, projective, reductions
from quadricheck.constructions import line_meet_line
from quadricheck.decision import (
    Decision,
    InternalInconsistency,
    Labeling,
    PlanePair,
    PreconditionViolated,
)
from quadricheck.extensors import (
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
from quadricheck.generic_case import genericity_violation
from quadricheck.oracle import (
    oracle_decide,
    random_transform,
    sample_generic,
    sample_on_quadric,
    segre_point,
)
from quadricheck.projective import (
    GeometryError,
    IncidenceTable,
    Point,
    bracket,
    rank_of_points,
)
from quadricheck.reductions import (
    CE_DF,
    _apply_split,
    _kernel_certificate,
    _three_disjoint_covers,
    transversal_through,
    _find_valid_swap,
    _plane_of_last_four,
    decide,
    find_three_skew,
    normalize,
    pascal_collinear,
    qd_duplicates,
    qd_four_collinear,
    qd_six_on_plane_conic,
    qd_three_lines,
    qd_two_lines,
    skew_swap,
    split_skew,
)

IDENTITY = Labeling(tuple(range(10)))


def circle_point(num, den):
    """(q^2 - p^2, 2pq, 0, q^2 + p^2): the conic x^2 + y^2 = w^2 in z = 0."""
    p, q = num, den
    return Point((q * q - p * p, 2 * p * q, 0, q * q + p * p))


def combo(weights_points):
    coords = [0, 0, 0, 0]
    for w, p in weights_points:
        coords = [a + w * c for a, c in zip(coords, p.coords)]
    return Point(coords)


def evaluate_certificate(cert, p):
    return cert.evaluate(p)


class TestDuplicates:
    def test_duplicate_detected(self):
        pts = sample_generic("dup", 10, bound=20)
        pts[1] = pts[0]
        d = qd_duplicates(pts)
        assert d is not None and d.on_quadric and d.branch == "duplicate"
        assert oracle_decide(pts)
        assert all(evaluate_certificate(d.certificate, p) == 0 for p in pts)

    def test_distinct_absent(self):
        assert qd_duplicates(sample_generic("dup2", 10, bound=20)) is None


class TestFourCollinear:
    def test_four_on_line(self):
        pts = sample_generic("4col", 10, bound=20)
        u, v = pts[0], pts[1]
        pts[2] = combo([(1, u), (1, v)])
        pts[3] = combo([(1, u), (2, v)])
        d = qd_four_collinear(pts, IncidenceTable(pts))
        assert d is not None and d.on_quadric and d.branch == "four-collinear"
        assert oracle_decide(pts)

    def test_generic_absent(self):
        pts = sample_generic("4col2", 10, bound=20)
        assert qd_four_collinear(pts, IncidenceTable(pts)) is None


class TestSixOnConic:
    def test_circle_conic_plus_generic(self):
        conic = [circle_point(p, q) for p, q in ((0, 1), (1, 2), (1, 3), (2, 3), (1, 1), (3, 1))]
        rest = sample_generic("conic-rest", 4, bound=20)
        pts = conic + rest
        assert planar_conic_det(conic) == 0
        d = qd_six_on_plane_conic(pts, IncidenceTable(pts))
        assert d is not None and d.on_quadric and d.branch == "six-on-conic"
        assert oracle_decide(pts)

    def test_coplanar_but_not_on_conic(self):
        rng = seeded("coplanar-six")
        while True:
            six = [
                Point((rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9), 0))
                for _ in range(6)
            ]
            if len(set(six)) == 6 and rank_of_points(six) == 3 and planar_conic_det(six) != 0:
                break
        assert pascal_collinear(six) is False

    def test_hexagon_style_meets_on_line_at_infinity(self):
        # tangent half-angles 0, 1/2, 2, 1/3, 1/7, 7 satisfy the angle-sum
        # conditions that make the three opposite side pairs parallel
        ts = ((0, 1), (1, 2), (2, 1), (1, 3), (1, 7), (7, 1))
        six = [circle_point(p, q) for p, q in ts]
        assert planar_conic_det(six) == 0
        assert pascal_collinear(six) is True
        from quadricheck.reductions import line_meet_line

        pairs = (((0, 5), (2, 3)), ((0, 1), (3, 4)), ((4, 5), (1, 2)))
        for (a, b), (c, d) in pairs:
            hit = line_meet_line(line_through(six[a], six[b]), line_through(six[c], six[d]))
            assert hit.coords[3] == 0  # the affine chart's line at infinity

    def test_pascal_matches_determinant(self):
        rng = seeded("pascal-sweep")
        done = 0
        while done < 30:
            if rng.random() < 0.5:
                ts = set()
                while len(ts) < 6:
                    ts.add((rng.randint(-9, 9), rng.randint(1, 9)))
                six = [circle_point(p, q) for p, q in ts]
            else:
                six = [
                    Point((rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9), 0))
                    for _ in range(6)
                ]
            if len(set(six)) != 6 or rank_of_points(six) != 3:
                continue
            check = pascal_collinear(six)
            if check is None:
                continue
            done += 1
            assert check == (planar_conic_det(six) == 0)


class TestThreeLines:
    def _ruling_config(self, tenth):
        tvals = iter((1, 2, 3, 4, 5, 6, 7, 8, 9))
        pts = [segre_point(s, next(tvals)) for s in (0, 0, 0, 1, 1, 1, 2, 2, 2)]
        pts.append(tenth)
        return pts

    def test_three_rulings_tenth_on(self):
        pts = self._ruling_config(segre_point(4, 10))
        d = qd_three_lines(pts, IncidenceTable(pts))
        assert d is not None and d.branch == "three-lines-grassmann"
        assert d.on_quadric and oracle_decide(pts)
        assert all(evaluate_certificate(d.certificate, p) == 0 for p in pts)

    def test_three_rulings_tenth_off(self):
        pts = self._ruling_config(Point((1, 4, 10, 41)))
        d = qd_three_lines(pts, IncidenceTable(pts))
        assert d is not None and d.branch == "three-lines-grassmann"
        assert not d.on_quadric and not oracle_decide(pts)

    def test_concurrent_lines_yes(self):
        pts = (
            [Point((1, k, 0, 0)) for k in (1, 2, 3)]
            + [Point((1, 0, k, 0)) for k in (1, 2, 3)]
            + [Point((1, 0, 0, k)) for k in (1, 2, 3)]
            + [Point((1, 1, 1, 1))]
        )
        d = qd_three_lines(pts, IncidenceTable(pts))
        assert d is not None and d.on_quadric and d.branch == "six-on-conic"
        assert oracle_decide(pts)

    def test_generic_absent(self):
        pts = sample_generic("3lines", 10, bound=20)
        assert qd_three_lines(pts, IncidenceTable(pts)) is None


class TestTwoLines:
    def _two_rulings(self, extras):
        tvals = iter((1, 2, 3, 4, 5, 6))
        pts = [segre_point(s, next(tvals)) for s in (0, 0, 0, 1, 1, 1)]
        return pts + extras

    def test_coincident_transversals(self):
        trio1 = [Point((1, a, 0, 0)) for a in (1, 2, 3)]
        trio2 = [Point((0, 0, 1, b)) for b in (1, 2, 3)]
        u1, u2 = Point((1, 5, 0, 0)), Point((0, 0, 1, 5))
        a_pt = combo([(1, u1), (1, u2)])
        b_pt = combo([(1, u1), (3, u2)])
        pts = trio1 + trio2 + [a_pt, b_pt, Point((1, 7, 2, 9)), Point((2, 1, 1, 7))]
        d = qd_two_lines(pts, IncidenceTable(pts))
        assert d is not None and d.on_quadric
        assert d.branch == "two-lines-coincident-transversals"
        assert oracle_decide(pts)

    def test_skew_transversals_on_quadric(self):
        extras = [segre_point(2, 7), segre_point(3, 8), segre_point(4, 9), segre_point(5, 10)]
        pts = self._two_rulings(extras)
        d = qd_two_lines(pts, IncidenceTable(pts))
        assert d is not None and d.branch == "two-lines-grassmann"
        assert d.on_quadric and oracle_decide(pts)

    def test_skew_transversals_generic_tenth(self):
        extras = [segre_point(2, 7), segre_point(3, 8), segre_point(4, 9), Point((1, 5, 10, 49))]
        pts = self._two_rulings(extras)
        d = qd_two_lines(pts, IncidenceTable(pts))
        assert d is not None and d.branch == "two-lines-grassmann"
        assert not d.on_quadric and not oracle_decide(pts)

    def test_plane_line_case_yes(self):
        trio1 = [Point((1, a, 0, 0)) for a in (1, 2, 3)]
        trio2 = [Point((0, 0, 1, b)) for b in (1, 2, 3)]
        r_pt = Point((1, 5, 0, 0))
        a_pt = combo([(1, r_pt), (1, Point((0, 0, 1, 4)))])
        b_pt = combo([(1, r_pt), (1, Point((0, 0, 1, 6)))])
        c_pt = Point((1, 4, 1, 5))
        x_pt = Point((3, 2, 2, 10))
        pts = trio1 + trio2 + [a_pt, b_pt, c_pt, x_pt]
        d = qd_two_lines(pts, IncidenceTable(pts))
        assert d is not None and d.branch == "plane-line-case"
        assert d.on_quadric == oracle_decide(pts) == True
        assert all(evaluate_certificate(d.certificate, p) == 0 for p in pts)

    def test_plane_line_case_no(self):
        trio1 = [Point((1, a, 0, 0)) for a in (1, 2, 3)]
        trio2 = [Point((0, 0, 1, b)) for b in (1, 2, 3)]
        r_pt = Point((1, 5, 0, 0))
        a_pt = combo([(1, r_pt), (1, Point((0, 0, 1, 4)))])
        b_pt = combo([(1, r_pt), (1, Point((0, 0, 1, 6)))])
        c_pt = Point((1, 4, 1, 5))
        x_pt = Point((3, 2, 2, 11))
        pts = trio1 + trio2 + [a_pt, b_pt, c_pt, x_pt]
        d = qd_two_lines(pts, IncidenceTable(pts))
        assert d is not None and d.branch == "plane-line-case"
        assert d.on_quadric == oracle_decide(pts) == False


class TestFindThreeSkew:
    def test_all_coplanar(self):
        rng = seeded("fts-coplanar")
        pts = [
            Point((rng.randint(-15, 15), rng.randint(-15, 15), rng.randint(-15, 15), 0))
            for _ in range(10)
        ]
        while len(set(pts)) != 10:
            pts = [
                Point((rng.randint(-15, 15), rng.randint(-15, 15), rng.randint(-15, 15), 0))
                for _ in range(10)
            ]
        d = find_three_skew(pts, IncidenceTable(pts))
        assert isinstance(d, Decision) and d.branch == "coplanar" and d.on_quadric
        assert all(evaluate_certificate(d.certificate, p) == 0 for p in pts)

    def test_two_planes_exit(self):
        rng = seeded("fts-two-planes")
        while True:
            def pi1():
                return Point((rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9), 0))

            p0, p1, p4, p5, p6 = pi1(), pi1(), pi1(), pi1(), pi1()
            p2 = Point((rng.randint(-9, 9), rng.randint(-9, 9), 0, rng.randint(1, 9)))
            p3 = Point((rng.randint(-9, 9), rng.randint(-9, 9), 0, rng.randint(1, 9)))
            p7 = combo([(1, p2), (1, p3), (rng.randint(1, 5), p4)])
            p8 = combo([(1, p2), (2, p3), (rng.randint(1, 5), p4)])
            p9 = combo([(2, p2), (1, p3), (rng.randint(1, 5), p4)])
            pts = [p0, p1, p2, p3, p4, p5, p6, p7, p8, p9]
            if len(set(pts)) != 10:
                continue
            table = IncidenceTable(pts)
            if qd_four_collinear(pts, table) is not None:
                continue
            if qd_six_on_plane_conic(pts, table) is not None:
                continue
            if bracket(p0, p1, p2, p3) == 0:
                continue
            break
        d = find_three_skew(pts, IncidenceTable(pts))
        assert isinstance(d, Decision) and d.branch == "two-planes" and d.on_quadric
        assert oracle_decide(pts)
        assert all(evaluate_certificate(d.certificate, p) == 0 for p in pts)

    def test_five_on_a_line_is_inconsistent(self):
        # every point off the first skew pair lies on one of its two lines,
        # which the four-collinear exit takes before skew-line discovery
        pts = [Point((1, t, 0, 0)) for t in range(5)] + [Point((0, 0, 1, t)) for t in range(5)]
        assert qd_four_collinear(pts, IncidenceTable(pts)) is not None
        with pytest.raises(InternalInconsistency, match="one holds five"):
            find_three_skew(pts, IncidenceTable(pts))

    def test_segre_config_yields_labeling(self):
        pts = sample_on_quadric("fts-segre", 10)
        result = find_three_skew(pts, IncidenceTable(pts))
        if isinstance(result, list):
            i, j, k, l, m, n = result
            assert bracket(pts[i], pts[j], pts[k], pts[l]) != 0
            assert bracket(pts[i], pts[j], pts[m], pts[n]) != 0
            assert bracket(pts[k], pts[l], pts[m], pts[n]) != 0
        else:
            pytest.skip("sampler produced a quadric-decidable special position")


class TestSkewSwap:
    def _valid_instance(self):
        plane_pts = [Point((1, 0, 0, 0)), Point((0, 1, 0, 0)), Point((0, 0, 1, 0)), Point((1, 1, 1, 0))]
        a, b, c = Point((1, 2, 5, 0)), Point((1, 3, 1, 0)), Point((2, 1, 3, 0))
        dirs = ((0, 0, 1, 1), (1, 0, 2, 3), (0, 1, 1, 2))
        pts = []
        for base, d in zip((a, b, c), dirs):
            pts.append(combo([(1, base), (1, Point(d))]))
            pts.append(combo([(1, base), (-1, Point(d))]))
        return pts + plane_pts

    def test_valid_swap(self):
        pts = self._valid_instance()
        plane = plane_through(pts[6], pts[7], pts[8])
        swapped = skew_swap(pts, IDENTITY, plane)
        relabeled = swapped.apply(pts)
        for pair in ((0, 1, 2, 3), (0, 1, 4, 5), (2, 3, 4, 5)):
            assert bracket(*(relabeled[i] for i in pair)) != 0
        assert rank_of_points(relabeled[6:10]) == 4
        assert genericity_violation(relabeled) is None

    def test_violating_incidence_named(self):
        pts = self._valid_instance()
        # move the first line so it pierces the plane on the line 67
        on_line_67 = Point((1, 5, 0, 0))
        pts[0] = combo([(1, on_line_67), (1, Point((0, 0, 1, 1)))])
        pts[1] = combo([(1, on_line_67), (-1, Point((0, 0, 1, 1)))])
        plane = plane_through(pts[6], pts[7], pts[8])
        with pytest.raises(PreconditionViolated, match="pq"):
            skew_swap(pts, IDENTITY, plane)

    def test_swapped_configuration_decides_correctly(self):
        from quadricheck.generic_case import decide_generic

        pts = self._valid_instance()
        plane = plane_through(pts[6], pts[7], pts[8])
        swapped = skew_swap(pts, IDENTITY, plane)
        relabeled = swapped.apply(pts)
        d = decide_generic(relabeled)
        assert d.on_quadric == oracle_decide(pts)


class TestSplitSkew:
    def _random_instance(self, rng):
        while True:
            a, b, c, d, e, f = (random_point(rng) for _ in range(6))
            if (
                bracket(a, b, c, d) == 0
                or bracket(a, b, e, f) == 0
                or bracket(c, d, e, f) == 0
            ):
                continue
            g, h, i = (random_point(rng) for _ in range(3))
            plane = join(join(g, h), i)
            if plane.is_zero():
                continue
            if meet(line_through(c, d), plane).is_zero():
                continue
            if meet(line_through(e, f), plane).is_zero():
                continue
            return (a, b), (c, d), (e, f), plane

    def _alternative_valid(self, ab, pair1, pair2, plane, g, h):
        ab_line = line_through(*ab)
        l1, l2 = line_through(*pair1), line_through(*pair2)
        if (
            scalar_of(join(ab_line, l1)) == 0
            or scalar_of(join(ab_line, l2)) == 0
            or scalar_of(join(l1, l2)) == 0
        ):
            return False
        gp_hit, hp_hit = meet(l1, plane), meet(l2, plane)
        if gp_hit.is_zero() or hp_hit.is_zero():
            return False
        gp, hp = as_point(gp_hit), as_point(hp_hit)
        line_gh = line_through(g, h)
        return gp != hp and not contains_point(line_gh, gp) and not contains_point(line_gh, hp)

    def test_first_valid_alternative_returned(self):
        rng = seeded("split-skew")
        for _ in range(20):
            ab, (c, d), (e, f), plane = self._random_instance(rng)
            g = as_point(meet(line_through(c, d), plane))
            h = as_point(meet(line_through(e, f), plane))
            name, gp, hp = split_skew(line_through(*ab), (c, d), (e, f), plane)
            ce_df_ok = self._alternative_valid(ab, (c, e), (d, f), plane, g, h)
            cf_de_ok = self._alternative_valid(ab, (c, f), (d, e), plane, g, h)
            assert ce_df_ok or cf_de_ok
            assert name == (CE_DF if ce_df_ok else "CF_DE")
            line_gh = line_through(g, h)
            assert gp != hp
            assert not contains_point(line_gh, gp)
            assert not contains_point(line_gh, hp)

    def test_accepts_extensor_lines(self):
        # ab enters as a line: any two of its points give the same answer
        rng = seeded("split-ext")
        for _ in range(5):
            (a, b), cd, ef, plane = self._random_instance(rng)
            other_ab = line_through(combo([(1, a), (2, b)]), combo([(3, a), (-1, b)]))
            result = split_skew(line_through(a, b), cd, ef, plane)
            assert result[0] in (CE_DF, "CF_DE")
            assert split_skew(other_ab, cd, ef, plane) == result

    def test_non_skew_rejected(self):
        plane = join(join(Point((1, 0, 0, 0)), Point((0, 1, 0, 0))), Point((0, 0, 1, 0)))
        with pytest.raises(PreconditionViolated):
            split_skew(
                line_through(Point((1, 0, 0, 0)), Point((0, 1, 0, 0))),
                (Point((1, 0, 0, 0)), Point((0, 0, 1, 0))),
                (Point((0, 0, 0, 1)), Point((1, 1, 1, 1))),
                plane,
            )


# the three skew lines pierce the plane of the last four points exactly at
# the diagonal points of that quadrangle, so no skew swap applies and the
# split-skew construction must fire first
C4_POINTS = [
    Point((5, -3, 2, 4)),
    Point((3, -5, 2, 4)),
    Point((1, 4, -5, -1)),
    Point((9, 16, -15, -4)),
    Point((4, 3, 0, -2)),
    Point((12, 13, 4, -6)),
    Point((1, 0, 0, 0)),
    Point((0, 1, 0, 0)),
    Point((0, 0, 1, 0)),
    Point((1, 1, 1, 0)),
]


class TestNormalize:
    def test_collinear_last_four_exits_early(self):
        pts = sample_generic("caseA", 6, bound=20)
        u, v = Point((1, 2, 3, 4)), Point((4, 3, 2, 1))
        pts = pts + [combo([(1, u), (t, v)]) for t in (0, 1, 2, 3)]
        d = normalize(pts)
        assert isinstance(d, Decision) and d.branch == "four-collinear" and d.on_quadric
        assert oracle_decide(pts)

    def test_diagonal_blocked_instance_needs_split(self):
        pts = C4_POINTS
        lab = IDENTITY
        plane = _plane_of_last_four(pts, IncidenceTable(pts))
        assert _find_valid_swap(pts, lab, plane) is None
        outcome = normalize(pts)
        assert isinstance(outcome, Labeling)
        relabeled = outcome.apply(pts)
        assert genericity_violation(relabeled) is None
        d = decide(pts)
        assert d.branch == "generic"
        assert d.on_quadric == oracle_decide(pts)

    def test_segre_configuration_reaches_generic(self):
        pts = sample_on_quadric("norm-segre", 10)
        outcome = normalize(pts)
        if isinstance(outcome, Decision):
            pytest.skip("sampler produced a special position")
        d = decide(pts)
        assert d.branch == "generic" and d.on_quadric
        assert oracle_decide(pts)

    def test_exactly_one_outcome_type(self):
        for seed in range(5):
            pts = sample_generic(f"outcome:{seed}", 10, bound=25)
            outcome = normalize(pts)
            assert isinstance(outcome, (Decision, Labeling))


def lines_meeting_w0_at(rng, meets):
    """Six points spanning three mutually skew lines off the plane w = 0
    that meet it at the three given distinct points."""
    while True:
        pts = []
        for g in meets:
            q = Point((rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9)))
            pts += [q, combo([(1, g), (rng.choice((-3, -2, -1, 1, 2, 3)), q)])]
        if all(bracket(*pts[a : a + 2], *pts[b : b + 2]) != 0 for a, b in ((0, 2), (0, 4), (2, 4))):
            return pts


def case_b_points(seed):
    """Case (b) of the blocking lemma: the last four in the plane w = 0 with
    three of them on the line m: z = w = 0, and the three role lines
    meeting that plane at three further points of m."""
    rng = seeded(f"case-b:{seed}")
    while True:
        on_m = {Point((rng.randint(-9, 9), rng.randint(1, 9), 0, 0)) for _ in range(6)}
        if len(on_m) < 6:
            continue
        on_m = sorted(on_m, key=lambda p: p.coords)
        fourth = Point((rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9), 0))
        return lines_meeting_w0_at(rng, on_m[3:]) + on_m[:3] + [fourth]


def w0_meets(pts):
    """The points where the role lines 01, 23, 45 meet the plane w = 0."""
    plane = plane_through(Point((1, 0, 0, 0)), Point((0, 1, 0, 0)), Point((0, 0, 1, 0)))
    return [as_point(meet(line_through(pts[a], pts[a + 1]), plane)) for a in (0, 2, 4)]


def blocked_by_lemma(pts):
    """Case (a) or (b) of the blocking lemma, by brute force: the meets are
    the diagonal points of a quadrangle 6789 with no three collinear, or
    three of 6789 and all three meets lie on one line."""
    last = pts[6:10]
    meets = w0_meets(pts)
    triples = [t for t in combinations(last, 3) if rank_of_points(t) == 2]
    if triples:
        (a, b, _), = triples
        return all(rank_of_points([a, b, g]) == 2 for g in meets)
    diagonals = {
        line_meet_line(line_through(last[i], last[j]), line_through(last[k], last[l]))
        for (i, j), (k, l) in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))
    }
    return set(meets) == diagonals


def transformed(pts, seed):
    transform = random_transform(seeded(f"relabel-transform:{seed}"))
    return [transform.apply(p) for p in pts]


def with_role_points_on_w0(pts, roles):
    """A copy with each given role point moved along its role line to the
    point where that line meets the plane w = 0."""
    meets = w0_meets(pts)
    return [meets[r // 2] if r in roles else p for r, p in enumerate(pts)]


# C4_POINTS with line 01 moved, through the same meet, to meet the line
# through points 2 and 4, so the split-skew takes its second alternative
C4_CF_DE_POINTS = [Point((5, 7, -5, -3)), Point((6, 8, -5, -3))] + C4_POINTS[2:]

# blocked shapes, each with the role line the split-skew keeps: line 01,
# or the line that has a point on the plane of the last four
BLOCKED_SHAPES = [
    ("a", C4_POINTS, 0),
    ("a-cf-de", C4_CF_DE_POINTS, 0),
    ("a-role-1-on-plane", with_role_points_on_w0(C4_POINTS, {1}), 0),
    ("a-role-3-on-plane", with_role_points_on_w0(C4_POINTS, {3}), 1),
    ("a-role-4-on-plane", with_role_points_on_w0(C4_POINTS, {4}), 2),
] + [(f"b{seed}", case_b_points(seed), 0) for seed in range(3)]


class TestRelabelingPath:
    """Coplanar last fours: one skew swap, or one split-skew then one swap,
    or the plane-split exit when the plane holds six points."""

    def _counted(self, monkeypatch):
        calls = {"_find_valid_swap": [], "split_skew": []}
        for name in calls:
            original = getattr(reductions, name)

            def counted(*args, _name=name, _original=original):
                calls[_name].append(args)
                return _original(*args)

            monkeypatch.setattr(reductions, name, counted)
        return calls

    @pytest.mark.parametrize("name, pts, kept", BLOCKED_SHAPES, ids=[s[0] for s in BLOCKED_SHAPES])
    def test_blocked_shape_takes_one_split_and_one_swap(self, monkeypatch, name, pts, kept):
        plane = _plane_of_last_four(pts, IncidenceTable(pts))
        assert blocked_by_lemma(pts)
        assert _find_valid_swap(pts, IDENTITY, plane) is None
        calls = self._counted(monkeypatch)
        # incidences survive projective maps, so the images take the same path
        images = [transformed(pts, f"{name}:{k}") for k in range(2)]
        for config in [pts] + images:
            for made in calls.values():
                made.clear()
            d = decide(config)
            assert d.branch == "generic"
            assert d.on_quadric == oracle_decide(config)
            assert [len(calls["_find_valid_swap"]), len(calls["split_skew"])] == [2, 1]
            (ab, *_), = calls["split_skew"]
            assert ab == line_through(config[2 * kept], config[2 * kept + 1])

    @pytest.mark.parametrize("roles", [{0, 2}, {1, 5}, {3, 4}, {0, 3, 4}])
    def test_two_role_points_on_the_plane_take_the_plane_split(self, monkeypatch, roles):
        # the plane holds the quadrangle and two or three of its diagonal
        # points: six or more points on no conic
        pts = with_role_points_on_w0(C4_POINTS, roles)
        calls = self._counted(monkeypatch)
        for config in [pts] + [transformed(pts, f"plane-split:{k}") for k in range(2)]:
            for made in calls.values():
                made.clear()
            d = decide(config)
            assert d.branch == "plane-split"
            assert d.on_quadric == oracle_decide(config)
            assert [len(calls["_find_valid_swap"]), len(calls["split_skew"])] == [1, 0]

    def test_split_recombines_roles_2345(self):
        # CE_DF puts lines 24 and 35 on roles 23 and 45, CF_DE lines 25 and 34
        plane = _plane_of_last_four(C4_POINTS, IncidenceTable(C4_POINTS))
        for pts, name, roles in (
            (C4_POINTS, CE_DF, (2, 4, 3, 5)),
            (C4_CF_DE_POINTS, "CF_DE", (2, 5, 3, 4)),
        ):
            assert split_skew(line_through(*pts[:2]), pts[2:4], pts[4:6], plane)[0] == name
            split = _apply_split(pts, IDENTITY, plane, 0)
            assert split == Labeling((0, 1) + roles + (6, 7, 8, 9))

    def test_unblocked_coplanar_last_four_takes_one_swap(self, monkeypatch):
        # the role lines of C4_POINTS about a quadrangle they do not block
        last = [Point((1, 0, 0, 0)), Point((0, 1, 0, 0)), Point((0, 0, 1, 0)), Point((1, 2, 3, 0))]
        pts = C4_POINTS[:6] + last
        assert not blocked_by_lemma(pts)
        calls = self._counted(monkeypatch)
        d = decide(pts)
        assert d.branch == "generic" and d.on_quadric == oracle_decide(pts)
        assert [len(calls["_find_valid_swap"]), len(calls["split_skew"])] == [1, 0]

    def test_blocking_lemma_matches_brute_force(self):
        # role lines through vertices, diagonal points, side points and
        # general points of the plane of two quadrangles, one with no three
        # vertices collinear and one with three on a line; in three quarters
        # of them one role point lies on the plane
        e0, e1, e2 = Point((1, 0, 0, 0)), Point((0, 1, 0, 0)), Point((0, 0, 1, 0))
        rng = seeded("blocking-lemma")
        blocked = {True: 0, False: 0}
        for last in ([e0, e1, e2, Point((1, 1, 1, 0))], [e0, e1, Point((1, 1, 0, 0)), e2]):
            pool = set(last) | {
                line_meet_line(line_through(last[i], last[j]), line_through(last[k], last[l]))
                for (i, j), (k, l) in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))
            }
            pool |= {combo([(1, p), (2, q)]) for p, q in combinations(last, 2)}
            pool |= {Point((2, -3, 5, 0)), Point((-4, 1, 3, 0))}
            for meets in combinations(sorted(pool, key=lambda p: p.coords), 3):
                pts = lines_meeting_w0_at(rng, meets) + last
                on_plane = rng.randrange(8)
                if on_plane < 6:
                    pts = with_role_points_on_w0(pts, {on_plane})
                plane = _plane_of_last_four(pts, IncidenceTable(pts))
                verdict = blocked_by_lemma(pts)
                assert (_find_valid_swap(pts, IDENTITY, plane) is None) == verdict, meets
                blocked[verdict] += 1
        assert blocked == {True: 21, False: 654}


class TestPlaneSplit:
    def _instance(self, rng, yes):
        def on_plane():
            return Point((rng.randint(-15, 15), rng.randint(-15, 15), rng.randint(-15, 15), 0))

        def off_plane():
            return Point(
                (rng.randint(-15, 15), rng.randint(-15, 15), rng.randint(-15, 15), rng.randint(1, 15))
            )

        if yes:
            pts = [on_plane(), on_plane(), off_plane(), off_plane(), off_plane(), on_plane()]
            pts += [on_plane() for _ in range(4)]
        else:
            pts = [on_plane(), on_plane(), off_plane(), off_plane(), off_plane(), off_plane()]
            pts += [on_plane() for _ in range(4)]
        return pts

    def test_yes_flavor(self):
        rng = seeded("plane-split-yes")
        while True:
            pts = self._instance(rng, yes=True)
            if len(set(pts)) != 10:
                continue
            d = decide(pts)
            if d.branch != "plane-split":
                continue
            assert d.on_quadric and oracle_decide(pts)
            assert all(evaluate_certificate(d.certificate, p) == 0 for p in pts)
            break

    def test_no_flavor(self):
        rng = seeded("plane-split-no")
        while True:
            pts = self._instance(rng, yes=False)
            if len(set(pts)) != 10:
                continue
            d = decide(pts)
            if d.branch != "plane-split":
                continue
            assert not d.on_quadric and not oracle_decide(pts)
            break


class TestPipelineProperties:
    def test_master_soundness_sample(self):
        from quadricheck.cli import fuzz_configuration

        for i in range(40):
            pts = fuzz_configuration(101, i)
            d = decide(pts)
            assert d.on_quadric == oracle_decide(pts), f"config {i} ({d.branch})"

    def test_relabeling_invariance(self):
        rng = seeded("relabel")
        from quadricheck.cli import fuzz_configuration

        for i in range(6):
            pts = fuzz_configuration(77, i)
            base = decide(pts).on_quadric
            for _ in range(4):
                perm = list(range(10))
                rng.shuffle(perm)
                assert decide([pts[k] for k in perm]).on_quadric == base

    def test_projective_invariance(self):
        from quadricheck.cli import fuzz_configuration
        from quadricheck.oracle import random_transform

        rng = seeded("proj-invariance")
        for i in range(5):
            pts = fuzz_configuration(55, i)
            base = decide(pts).on_quadric
            for _ in range(3):
                t = random_transform(rng, bound=5)
                assert decide([t.apply(p) for p in pts]).on_quadric == base

    def test_certificates_vanish(self):
        from quadricheck import fixtures

        for kind in fixtures.GENERATED_KINDS:
            pts = fixtures.generate_branch(kind, 3)
            d = decide(pts)
            if d.on_quadric and d.certificate is not None:
                assert all(evaluate_certificate(d.certificate, p) == 0 for p in pts)

    def test_labeling_reported_for_generic(self):
        pts = sample_on_quadric("labeling", 10)
        d = decide(pts)
        if d.branch != "generic":
            pytest.skip("special position")
        assert sorted(d.labeling.perm) == list(range(10))
        relabeled = d.labeling.apply(pts)
        assert genericity_violation(relabeled) is None


# ---------------------------------------------------------------------------
# the incidence table against direct scans
#
# Each reference below recomputes every incidence from `rank_of_points` and
# `bracket`, as the exits did before they read an IncidenceTable.  The one
# deliberate difference: when every point lies on one of the first two skew
# lines, find_three_skew now raises instead of returning a branch.


def ref_collinear_triples(points):
    return [
        t
        for t in combinations(range(len(points)), 3)
        if rank_of_points([points[i] for i in t]) <= 2
    ]


def ref_four_collinear(points):
    for quad in combinations(range(len(points)), 4):
        if rank_of_points([points[i] for i in quad]) <= 2:
            return Decision(True, "four-collinear", None, _kernel_certificate(points))
    return None


def ref_sixes_on_a_conic(points):
    """Every six-subset, in combinations order, of rank <= 2, or of rank 3
    with a vanishing 6x6 conic determinant."""
    hits = []
    for subset in combinations(range(len(points)), 6):
        six = [points[i] for i in subset]
        r = rank_of_points(six)
        if r <= 2 or (r == 3 and planar_conic_det(six) == 0):
            hits.append(subset)
    return hits


def ref_six_on_plane_conic(points):
    hits = ref_sixes_on_a_conic(points)
    if not hits:
        return None
    six = [points[i] for i in hits[0]]
    if rank_of_points(six) == 3 and pascal_collinear(six) is False:
        raise InternalInconsistency(
            f"conic determinant and hexagon criterion disagree on {hits[0]}"
        )
    return Decision(True, "six-on-conic", None, _kernel_certificate(points))


def ref_three_lines(points):
    for t1, t2, t3 in _three_disjoint_covers(ref_collinear_triples(points)):
        lines = [line_through(points[t[0]], points[t[1]]) for t in (t1, t2, t3)]
        if any(scalar_of(join(u, v)) == 0 for u, v in combinations(lines, 2)):
            return Decision(True, "six-on-conic", None, _kernel_certificate(points))
        (x_idx,) = set(range(10)) - set(t1) - set(t2) - set(t3)
        on = grassmann_criterion(points[x_idx], *lines) == 0
        cert = _kernel_certificate(points) if on else None
        return Decision(on, "three-lines-grassmann", None, cert)
    return None


def ref_two_lines_meeting_case(points, base_pair, ab_pts, r_pt, cx_idx):
    plane_abr = plane_through(ab_pts[0], ab_pts[1], r_pt)
    c_pt, x_pt = (points[i] for i in cx_idx)
    c_in = contains_point(plane_abr, c_pt)
    x_in = contains_point(plane_abr, x_pt)
    base_pts = [points[base_pair[0]], points[base_pair[1]]]
    on = c_in or x_in or rank_of_points(base_pts + [c_pt, x_pt]) <= 3
    cert = None
    if on:
        leftover = [p for p, inside in ((c_pt, c_in), (x_pt, x_in)) if not inside]
        if leftover:
            residual = plane_through(base_pts[0], base_pts[1], leftover[0])
        else:
            extra = next(
                e
                for e in projective.STANDARD_BASIS
                if not contains_point(line_through(*base_pts), e)
            )
            residual = plane_through(base_pts[0], base_pts[1], extra)
        cert = PlanePair((plane_form(plane_abr), plane_form(residual)))
    return Decision(on, "plane-line-case", None, cert)


def ref_two_lines(points):
    triples = ref_collinear_triples(points)
    for t1, t2 in combinations(triples, 2):
        if set(t1) & set(t2):
            continue
        if bracket(points[t1[0]], points[t1[1]], points[t2[0]], points[t2[1]]) == 0:
            continue
        l1 = line_through(points[t1[0]], points[t1[1]])
        l2 = line_through(points[t2[0]], points[t2[1]])
        rest = sorted(set(range(10)) - set(t1) - set(t2))
        for idx in rest:
            if contains_point(l1, points[idx]) or contains_point(l2, points[idx]):
                raise PreconditionViolated(f"point {idx} lies on one of the two lines")
        trans = {idx: transversal_through(points[idx], l1, l2) for idx in rest}
        for u, v in combinations(rest, 2):
            if trans[u] == trans[v]:
                return Decision(
                    True, "two-lines-coincident-transversals", None, _kernel_certificate(points)
                )
        for u, v in combinations(rest, 2):
            if scalar_of(join(trans[u], trans[v])) == 0:
                r_pt = line_meet_line(trans[u], trans[v])
                if contains_point(l1, r_pt):
                    base_pair = t1
                elif contains_point(l2, r_pt):
                    base_pair = t2
                else:
                    raise InternalInconsistency(
                        "transversals meet off both lines despite skewness"
                    )
                cx = [i for i in rest if i not in (u, v)]
                return ref_two_lines_meeting_case(
                    points, base_pair, (points[u], points[v]), r_pt, cx
                )
        value = grassmann_criterion(
            points[rest[3]], trans[rest[0]], trans[rest[1]], trans[rest[2]]
        )
        on = value == 0
        cert = _kernel_certificate(points) if on else None
        return Decision(on, "two-lines-grassmann", None, cert)
    return None


def ref_first_independent_triple(points):
    for t in combinations(range(len(points)), 3):
        if rank_of_points([points[i] for i in t]) == 3:
            return t
    return None


def ref_find_three_skew(points):
    first_pair = None
    for ij in combinations(range(10), 2):
        for kl in combinations(range(10), 2):
            if set(ij) & set(kl):
                continue
            if bracket(points[ij[0]], points[ij[1]], points[kl[0]], points[kl[1]]) != 0:
                first_pair = ij + kl
                break
        if first_pair:
            break
    if first_pair is None:
        triple = ref_first_independent_triple(points)
        if triple is None:
            raise InternalInconsistency("ten distinct points cannot be collinear")
        form = plane_form(plane_through(*(points[i] for i in triple)))
        return Decision(True, "coplanar", None, PlanePair((form, form)))
    i, j, k, l = first_pair
    line_ij = line_through(points[i], points[j])
    line_kl = line_through(points[k], points[l])
    m = next(
        (
            idx
            for idx in range(10)
            if idx not in first_pair
            and not contains_point(line_ij, points[idx])
            and not contains_point(line_kl, points[idx])
        ),
        None,
    )
    if m is None:
        raise InternalInconsistency("every point lies on one of two skew lines, so one holds five")
    n = next(
        (
            idx
            for idx in range(10)
            if idx not in first_pair
            and idx != m
            and bracket(points[i], points[j], points[m], points[idx]) != 0
            and bracket(points[k], points[l], points[m], points[idx]) != 0
        ),
        None,
    )
    if n is None:
        form_a = plane_form(plane_through(points[i], points[j], points[m]))
        form_b = plane_form(plane_through(points[k], points[l], points[m]))
        pair = PlanePair((form_a, form_b))
        if any(pair.evaluate(p) != 0 for p in points):
            raise InternalInconsistency("two-planes exit certificate failed")
        return Decision(True, "two-planes", None, pair)
    return [i, j, k, l, m, n]


def ref_genericity_violation(pts):
    if len(set(pts)) != 10:
        return "points are not all distinct"
    for quad in combinations(range(10), 4):
        if rank_of_points([pts[i] for i in quad]) <= 2:
            return f"points {quad} are collinear"
    for pair in ((0, 1, 2, 3), (0, 1, 4, 5), (2, 3, 4, 5)):
        if bracket(*(pts[i] for i in pair)) == 0:
            return "lines 01, 23, 45 are not mutually skew"
    if rank_of_points(pts[6:10]) < 4:
        return "points 6..9 are coplanar"
    return None


def outcome(fn, *args):
    """What a call returns, with Decisions as JSON, or the error it raises."""
    try:
        result = fn(*args)
    except (GeometryError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return result.to_json() if isinstance(result, Decision) else result


def _incidence_inputs():
    rng = seeded("incidence-inputs")

    def distinct_points(zero_at):
        """Ten distinct points, point k with coordinate zero_at(k) zero."""
        pts = []
        while len(pts) < 10:
            c = [rng.randint(-12, 12) for _ in range(4)]
            c[zero_at(len(pts))] = 0
            if any(c) and Point(c) not in pts:
                pts.append(Point(c))
        return pts

    configs = [(kind, fixtures.generate_branch(kind, 1)) for kind in fixtures.GENERATED_KINDS]
    configs.append(("generic sample", sample_generic("incidence-generic", 10, bound=20)))
    configs.append(("on-quadric sample", sample_on_quadric("incidence-quadric", 10)))
    duplicates = sample_generic("incidence-duplicates", 10, bound=20)
    duplicates[7] = duplicates[2]
    configs.append(("duplicates", duplicates))
    configs.append(("ten coplanar", distinct_points(lambda k: 3)))
    configs.append(("two planes", distinct_points(lambda k: 3 * (k % 2))))
    configs.append(("split-skew instance", C4_POINTS))
    labelings = [IDENTITY]
    for _ in range(2):
        perm = list(range(10))
        rng.shuffle(perm)
        labelings.append(Labeling(tuple(perm)))
    return configs, labelings


@pytest.fixture(scope="module")
def incidence_inputs():
    return _incidence_inputs()


EXITS = (
    (qd_four_collinear, ref_four_collinear),
    (qd_six_on_plane_conic, ref_six_on_plane_conic),
    (qd_three_lines, ref_three_lines),
    (qd_two_lines, ref_two_lines),
    (find_three_skew, ref_find_three_skew),
)


class TestIncidenceTable:
    def test_answers_match_ranks_brackets_and_charts(self, incidence_inputs):
        configs, labelings = incidence_inputs
        coplanar_sixes = 0
        for name, points in configs:
            table = IncidenceTable(points)
            for labeling in labelings:
                view = table.relabeled(labeling)
                pts = labeling.apply(points)
                fours = (
                    q for q in combinations(range(10), 4)
                    if rank_of_points([pts[i] for i in q]) <= 2
                )
                assert view.first_collinear_four() == next(fours, None), name
                assert view.collinear_triples() == ref_collinear_triples(pts), name
                for t in combinations(range(10), 3):
                    rank = rank_of_points([pts[i] for i in t])
                    assert view.collinear(*t) == (rank <= 2), (name, t)
                for q in combinations(range(10), 4):
                    vanishes = bracket(*(pts[i] for i in q)) == 0
                    assert view.bracket_vanishes(*q) == vanishes, (name, q)
                for k in (4, 5, 6):
                    for subset in combinations(range(10), k):
                        rank = rank_of_points([pts[i] for i in subset])
                        assert view.on_a_line(subset) == (rank <= 2), (name, subset)
                        assert view.on_a_plane(subset) == (rank <= 3), (name, subset)
                        coplanar_sixes += k == 6 and rank == 3
                assert list(view.sixes_on_a_conic()) == ref_sixes_on_a_conic(pts), name
        assert coplanar_sixes > 3 * 210

    def test_sixes_on_a_conic_match_determinants(self, incidence_inputs):
        _, labelings = incidence_inputs
        configs = [(kind, fixtures.generate_branch(kind, 1), None) for kind in fixtures.GENERATED_KINDS]
        configs += conic_planes()
        tested = 0
        for name, points, want_hits in configs:
            shared = IncidenceTable(points)
            for labeling in labelings:
                pts = labeling.apply(points)
                want = ref_sixes_on_a_conic(pts)
                # a fresh table finds its planes in this labeling's order; a
                # shared one reads those an earlier labeling found
                for table in (IncidenceTable(pts), shared.relabeled(labeling)):
                    assert list(table.sixes_on_a_conic()) == want, name
                if want_hits is not None:
                    assert len(want) == want_hits, name
                tested += sum(
                    rank_of_points([pts[i] for i in subset]) == 3
                    for subset in combinations(range(10), 6)
                )
        assert tested > 6 * 210

    def test_known_planes(self):
        for name, points, _ in conic_planes():
            table = IncidenceTable(points)
            assert not table.in_a_known_plane(range(3)), name
            list(table.sixes_on_a_conic())
            # the one known plane holds exactly the n points of the conic plane
            on = [i for i in range(10) if table.in_a_known_plane([i])]
            assert len(on) == int(name.split()[0].removeprefix("n=")), name
            assert rank_of_points([points[i] for i in on]) == 3, name
            assert table.in_a_known_plane(on), name
            assert table.in_a_known_plane(range(10)) == (len(on) == 10), name

    def test_exits_match_direct_scans(self, incidence_inputs):
        configs, labelings = incidence_inputs
        for name, points in configs:
            table = IncidenceTable(points)
            for labeling in labelings:
                view = table.relabeled(labeling)
                pts = labeling.apply(points)
                for new, ref in EXITS:
                    want = outcome(ref, pts)
                    assert outcome(new, pts, view) == want, (name, new.__name__)
                want = ref_genericity_violation(pts)
                assert genericity_violation(pts, view) == want, name
                assert genericity_violation(pts) == want, name

    def test_decisions_reach_every_exit(self, incidence_inputs):
        configs, _ = incidence_inputs
        branches = {decide(points).branch for _, points in configs}
        assert branches >= set(fixtures.GENERATED_KINDS)

    def test_entries_computed_once_and_only_when_read(self, monkeypatch):
        computed = []
        dependent = projective._dependent

        def counting(points):
            computed.append(tuple(points))
            return dependent(points)

        monkeypatch.setattr(projective, "_dependent", counting)
        pts = sample_generic("incidence-lazy", 10, bound=20)
        u, v = pts[4], pts[5]
        pts[:4] = [Point(tuple(a + t * b for a, b in zip(u.coords, v.coords))) for t in range(4)]
        table = IncidenceTable(pts)
        assert qd_four_collinear(pts, table) is not None
        assert len(computed) == 4  # the four sub-triples of (0, 1, 2, 3)
        view = table.relabeled(Labeling((3, 2, 1, 0, 4, 5, 6, 7, 8, 9)))
        assert view.on_a_line((0, 1, 2, 3)) and view.collinear(3, 1, 0)
        assert len(computed) == 4


def _dependence_counter(monkeypatch):
    """Counts of the collinear triples (key 3) and brackets (key 4) that
    IncidenceTables compute from here on."""
    computed = {3: 0, 4: 0}
    dependent = projective._dependent

    def counting(points):
        computed[len(points)] += 1
        return dependent(points)

    monkeypatch.setattr(projective, "_dependent", counting)
    return computed


class TestPlaneFirstScan:
    """The six-on-conic exit sweeps each plane it meets once, and skew-line
    discovery reads the coplanar exit off a plane holding all ten points."""

    SEEDS = range(1, 9)

    def test_same_decision_and_first_six_as_brute_force(self, monkeypatch):
        checked = []  # the sixes the exit cross-checks with Pascal's criterion
        pascal = pascal_collinear
        monkeypatch.setattr(reductions, "pascal_collinear", lambda six: checked.append(six) or pascal(six))
        configs = [(name, points) for name, points, _ in conic_planes()]
        configs += [
            (f"{kind} seed {seed}", fixtures.generate_branch(kind, seed))
            for kind in fixtures.GENERATED_KINDS
            for seed in self.SEEDS
        ]
        firsts = 0
        for name, points in configs:
            want = ref_sixes_on_a_conic(points)
            checked.clear()
            got = outcome(qd_six_on_plane_conic, points, IncidenceTable(points))
            assert got == outcome(ref_six_on_plane_conic, points), name
            first = next(IncidenceTable(points).sixes_on_a_conic(), None)
            assert first == (want[0] if want else None), name
            if want and rank_of_points([points[i] for i in want[0]]) == 3:
                assert checked == [[points[i] for i in want[0]]], name
                firsts += 1
        assert firsts >= len(self.SEEDS) + 3

    def test_coplanar_fills_few_brackets(self, monkeypatch):
        fixtures_ = [fixtures.generate_branch("coplanar", seed) for seed in self.SEEDS]
        computed = _dependence_counter(monkeypatch)
        for points in fixtures_:
            computed[3] = computed[4] = 0
            assert decide(points).branch == "coplanar"
            # 15 brackets of the first six and 4 for the rest of the plane;
            # a scan six by six fills all 210
            assert computed[4] <= 30, computed

    def test_generic_fills_no_more_entries(self, monkeypatch):
        fixtures_ = [fixtures.generate_branch("generic", seed) for seed in self.SEEDS]
        computed = _dependence_counter(monkeypatch)
        for points in fixtures_:
            computed[3] = computed[4] = 0
            assert decide(points).branch == "generic"
            # what the six-by-six scan filled on each of these fixtures
            assert computed[4] <= 71 and computed[3] <= 120, computed

    def test_generic_asks_each_question_once(self, monkeypatch):
        """Four-collinear extends only collinear triples, of which generic
        input has none, and one genericity check guards the decision.  The
        test above bounds the entries these decisions fill."""
        fixtures_ = [fixtures.generate_branch("generic", seed) for seed in self.SEEDS]
        calls = {"on_a_line": 0, "genericity_violation": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(IncidenceTable, "on_a_line", counted("on_a_line", IncidenceTable.on_a_line))
        monkeypatch.setattr(
            generic_case,
            "genericity_violation",
            counted("genericity_violation", generic_case.genericity_violation),
        )
        for points in fixtures_:
            calls["on_a_line"] = calls["genericity_violation"] = 0
            assert decide(points).branch == "generic"
            assert calls == {"on_a_line": 0, "genericity_violation": 1}, calls
