import itertools
import json

import pytest

from conftest import random_fraction, random_point, seeded, step_inputs, step_output, value_pair
from generic_reference import (
    Degenerate,
    ceva_incidence_check,
    q_coordinate_polynomial,
    tau_transform,
)
from reference_geometry import (
    ONES,
    cofactor_det,
    point_at_parameter,
    transform_from_columns,
    transform_inverse,
)
from quadricheck import constructions, fixtures, generic_case
from quadricheck.constructions import (
    ConstructionTrace,
    Tetrahedron,
    line_meet_line,
    local_param_point,
    recover_from_chart,
    verify_replay,
    von_staudt_inverse,
    von_staudt_product,
)
from quadricheck.decision import PreconditionViolated
from quadricheck.extensors import contains_point, line_through, plane_through
from quadricheck.generic_case import (
    BASIS_PLANES,
    GenericFigure,
    NoPermutation,
    ZeroColumn,
    build_M,
    compute_Q,
    construct_test_point,
    decide_generic,
    find_Q_labeling,
    genericity_violation,
    global_unit,
)
from quadricheck.oracle import (
    oracle_decide,
    oracle_det,
    sample_generic,
    sample_on_quadric,
    segre_point,
)
from quadricheck.projective import (
    E0,
    E1,
    E2,
    InfinityProduct,
    Point,
    STANDARD_BASIS,
    bracket,
)
from quadricheck.reductions import decide

# three rulings (s = 6, 5, 2) with two points each, four more points in
# general position; chosen so Q != 0 already under the identity labeling
SEGRE_GENERIC_PAIRS = [
    (6, 0), (6, -7), (5, 5), (5, -8), (2, -3), (2, -1), (-1, 4), (4, -2), (1, 0), (-2, -7),
]

# The two brackets whose product is entry (r, c) of M: the planes of basis
# quadric c, each joined with point 6 + r.
M_PROVENANCE = tuple(
    tuple((a_triple + (6 + r,), b_triple + (6 + r,)) for a_triple, b_triple in BASIS_PLANES)
    for r in range(4)
)


def segre_generic_points():
    return [segre_point(s, t) for s, t in SEGRE_GENERIC_PAIRS]


def random_generic(rng):
    while True:
        pts = sample_generic(f"tgc:{rng.random()}", 10, bound=25)
        if genericity_violation(pts) is None:
            return pts


class TestComputeQ:
    def test_repeated_point_kills_q(self):
        pts = list(STANDARD_BASIS) + [ONES, ONES]
        assert compute_Q(pts) == 0

    def test_frozen_value(self):
        # evaluated independently through the coordinate polynomial:
        # -16 + 8 + 18 - 12 = -2
        pts = list(STANDARD_BASIS) + [Point((1, 2, 3, 4)), Point((1, 1, 2, 3))]
        assert q_coordinate_polynomial((1, 2, 3, 4), (1, 1, 2, 3)) == -2
        assert compute_Q(pts) == -2

    def test_binomial_equals_polynomial_after_normalization(self):
        rng = seeded("q-normalize")
        done = 0
        while done < 25:
            pts = [random_point(rng) for _ in range(6)]
            if bracket(*pts[:4]) == 0:
                continue
            done += 1
            to_basis = transform_inverse(transform_from_columns([p.coords for p in pts[:4]]))
            moved = [to_basis.apply(p) for p in pts]
            assert moved[:4] == list(STANDARD_BASIS)
            assert compute_Q(moved) == q_coordinate_polynomial(
                moved[4].coords, moved[5].coords
            )


class TestCevaIncidence:
    def test_equals_bracket_square_times_q(self):
        rng = seeded("ceva")
        done = 0
        while done < 25:
            pts = [random_point(rng) for _ in range(6)]
            if bracket(*pts[:4]) == 0:
                continue
            done += 1
            assert ceva_incidence_check(pts) == bracket(*pts[:4]) ** 2 * compute_Q(pts)

    def test_zero_when_q_zero(self):
        # a nondegenerate Q = 0 configuration; repeating point 4 as point 5
        # instead would collapse the plane 345 the construction needs
        pts = list(STANDARD_BASIS) + [Point((1, 2, 3, 4)), Point((1, 1, 1, 1))]
        assert compute_Q(pts) == 0
        assert ceva_incidence_check(pts) == 0

    def test_repeated_point_degenerates_construction(self):
        from quadricheck.extensors import ZeroExtensor

        pts = list(STANDARD_BASIS) + [ONES, ONES]
        with pytest.raises(ZeroExtensor):
            ceva_incidence_check(pts)

    def test_concurrent_cevian_lines(self):
        # Q vanishes here, so the three constructed lines must concur
        from quadricheck.extensors import as_point, meet

        pts = list(STANDARD_BASIS) + [Point((1, 2, 3, 4)), Point((1, 1, 1, 1))]
        assert compute_Q(pts) == 0
        assert ceva_incidence_check(pts) == 0
        p0, p1, p2, p3, p4, p5 = pts
        p = as_point(meet(line_through(p2, p3), plane_through(p0, p1, p5)))
        q = as_point(meet(line_through(p1, p3), plane_through(p0, p2, p4)))
        r = as_point(meet(line_through(p1, p2), plane_through(p3, p4, p5)))
        hit = line_meet_line(line_through(p1, p), line_through(p2, q))
        assert contains_point(line_through(p3, r), hit)

    def test_degenerate_base(self):
        pts = [E0, E1, E2, Point((1, 1, 0, 0)), ONES, Point((1, 2, 3, 4))]
        with pytest.raises(Degenerate):
            ceva_incidence_check(pts)


class TestFindQLabeling:
    def test_identity_when_q_nonzero(self):
        pts = list(STANDARD_BASIS) + [Point((1, 2, 3, 4)), Point((1, 1, 2, 3))]
        assert find_Q_labeling(pts) == (0, 1, 2, 3, 4, 5)

    def test_engineered_zero_q_with_skew_lines(self):
        pts = list(STANDARD_BASIS) + [Point((1, 2, 3, 4)), Point((1, 1, 1, 1))]
        assert compute_Q(pts) == 0
        assert bracket(pts[0], pts[1], pts[2], pts[3]) != 0
        assert bracket(pts[0], pts[1], pts[4], pts[5]) != 0
        assert bracket(pts[2], pts[3], pts[4], pts[5]) != 0
        sigma = find_Q_labeling(pts)
        assert sigma != (0, 1, 2, 3, 4, 5)
        assert compute_Q([pts[i] for i in sigma]) != 0
        # lexicographically first valid permutation, by exhaustive scan
        for perm in itertools.permutations(range(6)):
            if compute_Q([pts[i] for i in perm]) != 0:
                assert sigma == perm
                break

    def test_no_permutation_for_coplanar_points(self):
        plane_pts = [
            Point((1, 0, 0, 0)), Point((0, 1, 0, 0)), Point((1, 1, 0, 0)),
            Point((1, 2, 0, 0)), Point((1, 3, 0, 0)), Point((2, 1, 0, 0)),
        ]
        with pytest.raises(NoPermutation):
            find_Q_labeling(plane_pts)


class TestBuildM:
    def test_zero_entry_when_point_on_plane(self):
        pts = list(STANDARD_BASIS) + [Point((1, 2, 3, 4)), Point((1, 1, 2, 3))]
        on_plane_015 = Point(
            tuple(
                2 * a + 3 * b + 5 * c
                for a, b, c in zip(pts[0].coords, pts[1].coords, pts[5].coords)
            )
        )
        ten = pts + [on_plane_015, Point((1, 5, 7, 2)), Point((3, 1, 4, 1)), Point((2, 7, 1, 8))]
        m = build_M(ten)
        assert m.entries[0][0] == 0
        assert M_PROVENANCE[0][0] == ((0, 1, 5, 6), (2, 3, 4, 6))
        for r in range(4):
            for c in range(4):
                a, b = M_PROVENANCE[r][c]
                assert m.entries[r][c] == bracket(*(ten[i] for i in a)) * bracket(*(ten[i] for i in b))

    def test_det_identity_with_positive_sign(self):
        # the global sign of det(M) = s * Q * det(N) is pinned to +1 by this
        # regression configuration and must stay fixed
        pts = segre_generic_points()
        pts[9] = Point((1, 1, 1, 0))
        m = build_M(pts)
        q = compute_Q(pts[:6])
        assert q != 0
        assert cofactor_det(m.entries) == q * oracle_det(pts)
        rng = seeded("detM")
        for _ in range(15):
            pts = random_generic(rng)
            assert cofactor_det(build_M(pts).entries) == compute_Q(pts[:6]) * oracle_det(pts)

    def test_det_zero_on_quadric(self):
        pts = segre_generic_points()
        assert compute_Q(pts[:6]) != 0
        assert cofactor_det(build_M(pts).entries) == 0


class TestTau:
    def test_tau_sends_basis_to_last_four(self):
        rng = seeded("tau")
        pts = random_generic(rng)
        tau = tau_transform(pts)
        for k, e in enumerate(STANDARD_BASIS):
            assert tau.apply(e) == pts[6 + k]
        assert tau.apply(ONES) == global_unit(pts)


class TestConstructTestPoint:
    def test_agrees_with_algebraic_image(self):
        rng = seeded("test-points")
        for _ in range(6):
            pts = random_generic(rng)
            sigma = find_Q_labeling(pts[:6])
            relabeled = [pts[i] for i in sigma] + pts[6:]
            m = build_M(relabeled)
            tau = tau_transform(relabeled)
            for col in range(4):
                column = m.column(col)
                if all(v == 0 for v in column):
                    continue
                synthetic = construct_test_point(relabeled, col)
                algebraic = tau.apply(Point(column))
                assert synthetic == algebraic

    def test_zero_column_rejected(self):
        pts = list(STANDARD_BASIS) + [Point((1, 2, 3, 4)), Point((1, 1, 2, 3))]

        def on_plane(i, j, k, w):
            return Point(
                tuple(
                    w[0] * a + w[1] * b + w[2] * c
                    for a, b, c in zip(pts[i].coords, pts[j].coords, pts[k].coords)
                )
            )

        ten = pts + [
            on_plane(0, 1, 5, (1, 2, 3)),
            on_plane(0, 1, 5, (2, 5, 1)),
            on_plane(2, 3, 4, (1, 1, 4)),
            on_plane(2, 3, 4, (3, 1, 1)),
        ]
        assert compute_Q(ten[:6]) != 0
        with pytest.raises(ZeroColumn):
            construct_test_point(ten, 0)

    def test_trace_replays(self):
        rng = seeded("test-point-trace")
        pts = random_generic(rng)
        sigma = find_Q_labeling(pts[:6])
        relabeled = [pts[i] for i in sigma] + pts[6:]
        trace = ConstructionTrace()
        construct_test_point(relabeled, 0, trace=trace)
        assert len(trace.steps) > 10
        assert verify_replay(ConstructionTrace.from_json(trace.to_json()))

    def test_zero_entry_product_records_no_step(self):
        """M[0][0] = 0 and column 0 is built in chart 1, so on edge 1-0 one
        factor of the product is the frame's infinity: the product is that
        infinity, decided by incidence with no step recorded, and its
        inverse is the frame's zero, vertex 1, which the recovery takes as
        the projection on the edge.  The trace still replays."""
        pts = chart_one_points()
        figure = GenericFigure(pts)
        traces = []
        for col in (0, 2):  # column 2 has no zero entry
            trace = ConstructionTrace()
            construct_test_point(pts, col, trace=trace, figure=figure)
            traces.append(trace)
        zero_entry, full = traces
        frame = figure.tetrahedron.edge_frame(1, 0)
        # steps 0-2 build the first meet-point, the frame's infinity (vertex
        # 0), and steps 3-4 the second; the product adds no step, so step 5
        # starts the inversion with join(infinity, b): the inversion
        # scaffold's own join, which the trace records once
        assert step_output(zero_entry.steps[2]) == value_pair(frame.infinity)
        inversion_join = step_inputs(zero_entry.steps[5])
        assert inversion_join == [value_pair(frame.infinity), value_pair(frame.scaffold.a)]
        assert [step_inputs(s) for s in zero_entry.steps].count(inversion_join) == 1
        # the inversion's 8 steps end at the frame's zero
        assert zero_entry.steps[12].op == "meet"
        assert step_output(zero_entry.steps[12]) == value_pair(frame.zero)
        assert frame.zero == pts[7]
        # a von Staudt product records 5 joins and 4 meets
        assert len(full.steps) - len(zero_entry.steps) == 9 + 1
        first_recovery_plane = zero_entry.steps[-5]
        assert first_recovery_plane.op == "join"
        assert step_inputs(first_recovery_plane)[0] == value_pair(pts[7])
        for trace in traces:
            assert verify_replay(ConstructionTrace.from_json(json.loads(json.dumps(trace.to_json()))))


def chart_one_points():
    """Generic points, Q != 0 as labeled, with point 6 on the plane 015 of
    basis quadric 0: M[0][0] = 0, so column 0 is built in chart 1."""
    pts = list(STANDARD_BASIS) + [Point((1, 2, 3, 4)), Point((1, 1, 2, 3))]
    on_plane_015 = Point(
        tuple(2 * a + 3 * b + 5 * c for a, b, c in zip(pts[0].coords, pts[1].coords, pts[5].coords))
    )
    return pts + [on_plane_015, Point((1, 5, 7, 2)), Point((3, 1, 4, 1)), Point((2, 7, 1, 8))]


def two_planes_points():
    """Points 6, 7 on the plane 015 and 8, 9 on the plane 234: column 0 of M
    vanishes."""
    base = list(STANDARD_BASIS) + [Point((1, 2, 3, 4)), Point((1, 1, 2, 3))]

    def on_plane(i, j, k, w):
        return Point(
            tuple(
                w[0] * a + w[1] * b + w[2] * c
                for a, b, c in zip(base[i].coords, base[j].coords, base[k].coords)
            )
        )

    return base + [
        on_plane(0, 1, 5, (1, 2, 3)),
        on_plane(0, 1, 5, (2, 5, 1)),
        on_plane(2, 3, 4, (1, 1, 4)),
        on_plane(2, 3, 4, (3, 1, 1)),
    ]


def generic_fixtures():
    """The relabeled points of generate_branch("generic", 1..8), as their
    decisions label them, and the chart-one points."""
    configs = []
    for seed in range(1, 9):
        points = fixtures.generate_branch("generic", seed)
        configs.append(decide(points).labeling.apply(points))
    return configs + [chart_one_points()]


def old_order_test_point(points, col, figure):
    """Column col's test point built as construct_test_point built it with
    two inversions and one product per edge: the product of the inverses
    of the two meet-points."""
    column = figure.m.column(col)
    chart = next(r for r in range(4) if column[r] != 0)
    tet = figure.tetrahedron
    a_pts, b_pts = ([points[i] for i in triple] for triple in BASIS_PLANES[col])
    projections = []
    for j in (jj for jj in range(4) if jj != chart):
        frame = tet.edge_frame(chart, j)
        d, e = tet.vertices[chart], tet.vertices[j]
        qx = von_staudt_inverse(frame, local_param_point(d, e, *a_pts))
        qy = von_staudt_inverse(frame, local_param_point(d, e, *b_pts))
        projections.append(von_staudt_product(frame, qx, qy))
    return recover_from_chart(tet, chart, projections)


class TestFieldLawOrder:
    """Each edge draws the inverse of a product, 1/(xy), where it drew the
    product of two inverses, (1/x)(1/y): by von Staudt's field laws both
    give one point, so the test points do not change."""

    def frames(self):
        frames = []
        for points in generic_fixtures():
            tet = GenericFigure(points).tetrahedron
            frames += [tet.edge_frame(i, j) for i, j in itertools.permutations(range(4), 2)]
        rng = seeded("field-law-frames")
        random_frames = []
        while len(random_frames) < 12:
            try:
                tet = Tetrahedron(tuple(random_point(rng) for _ in range(4)), random_point(rng))
            except ValueError:
                continue
            random_frames.append(tet.edge_frame(*rng.sample(range(4), 2)))
        return frames + random_frames

    def test_inverse_of_product_is_product_of_inverses(self):
        rng = seeded("field-law-parameters")
        for frame in self.frames():
            finite = [point_at_parameter(frame, random_fraction(rng) or 1) for _ in range(2)]
            pairs = [
                tuple(finite),
                (frame.unit, finite[0]),
                (frame.infinity, finite[1]),
                (finite[0], frame.zero),
                (frame.infinity, frame.infinity),
            ]
            for px, py in pairs:
                new = von_staudt_inverse(frame, von_staudt_product(frame, px, py))
                inverses = (von_staudt_inverse(frame, px), von_staudt_inverse(frame, py))
                assert new == von_staudt_product(frame, *inverses)
            # a factor at infinity gives infinity, whose inverse is the zero
            product = von_staudt_product(frame, frame.infinity, finite[0])
            assert product == frame.infinity
            assert von_staudt_inverse(frame, product) == frame.zero
            for px, py in ((frame.zero, frame.infinity), (frame.infinity, frame.zero)):
                with pytest.raises(InfinityProduct):
                    von_staudt_inverse(frame, von_staudt_product(frame, px, py))
                with pytest.raises(InfinityProduct):
                    von_staudt_product(
                        frame, von_staudt_inverse(frame, px), von_staudt_inverse(frame, py)
                    )

    def test_test_points_match_the_two_inverse_order(self):
        for points in generic_fixtures():
            figure = GenericFigure(points)
            for col in range(4):
                want = old_order_test_point(points, col, figure)
                assert construct_test_point(points, col, figure=figure) == want


class TestGenericFigure:
    """One GenericFigure serves all four columns exactly as a fresh figure
    per column does: same test points, same trace steps in the same order."""

    def configurations(self):
        rng = seeded("generic-figure")
        configs = [segre_generic_points(), chart_one_points()]
        for _ in range(3):
            pts = random_generic(rng)
            sigma = find_Q_labeling(pts[:6])
            configs.append([pts[i] for i in sigma] + pts[6:])
        return configs

    def test_chart_one_fixture(self):
        pts = chart_one_points()
        assert genericity_violation(pts) is None and compute_Q(pts[:6]) != 0
        m = build_M(pts)
        assert m.entries[0][0] == 0 and m.entries[1][0] != 0

    @pytest.mark.parametrize("order", [(0, 1, 2, 3), (3, 2, 1, 0)])
    def test_shared_figure_matches_fresh_figures(self, order):
        for pts in self.configurations():
            figure = GenericFigure(pts)
            for col in order:
                shared, fresh = ConstructionTrace(), ConstructionTrace()
                got = construct_test_point(pts, col, trace=shared, figure=figure)
                assert got == construct_test_point(pts, col, trace=fresh)
                assert shared.steps == fresh.steps
                assert shared.to_json() == fresh.to_json()

    def test_zero_column_with_shared_figure(self):
        ten = two_planes_points()
        figure = GenericFigure(ten)
        with pytest.raises(ZeroColumn):
            construct_test_point(ten, 0, figure=figure)
        for col in (1, 2, 3):
            if any(figure.m.column(col)):
                assert construct_test_point(ten, col, figure=figure) == construct_test_point(
                    ten, col
                )

    @pytest.mark.parametrize("make", [segre_generic_points, chart_one_points])
    def test_decide_builds_m_once_and_each_frame_once(self, monkeypatch, make):
        built, frames = [], []
        real_build_M, real_choose = generic_case.build_M, constructions.choose_auxiliaries

        def counting_build_M(points):
            built.append(real_build_M(points))
            return built[-1]

        def counting_choose(frame):
            frames.append(frame)
            return real_choose(frame)

        monkeypatch.setattr(generic_case, "build_M", counting_build_M)
        monkeypatch.setattr(constructions, "choose_auxiliaries", counting_choose)
        decision = decide(make())
        assert decision.branch == "generic"
        assert len(built) == 1
        [m] = built
        edges = set()
        for col in range(4):
            column = m.column(col)
            chart = next(r for r in range(4) if column[r] != 0)
            edges.update((chart, j) for j in range(4) if j != chart)
        assert len(frames) == len(set(frames)) == len(edges)

    def test_edge_frames_are_memoized_per_ordered_edge(self):
        tet = GenericFigure(segre_generic_points()).tetrahedron
        assert tet.edge_frame(0, 2) is tet.edge_frame(0, 2)
        assert tet.edge_frame(2, 0) is not tet.edge_frame(0, 2)
        assert tet.edge_frame(2, 0).zero == tet.vertices[2]


class TestGenericConfig:
    def test_witness_brackets(self):
        from quadricheck.generic_case import GenericConfig

        pts = segre_generic_points()
        cfg = GenericConfig.validate(pts)
        assert cfg.points == tuple(pts)
        # the brackets that certify skew lines 01, 23, 45 and spanning 6789
        quads = ((0, 1, 2, 3), (0, 1, 4, 5), (2, 3, 4, 5), (6, 7, 8, 9))
        assert all(bracket(*(cfg.points[i] for i in quad)) != 0 for quad in quads)

    def test_rejects_violations(self):
        from quadricheck.generic_case import GenericConfig

        pts = segre_generic_points()
        pts[0] = pts[1]
        with pytest.raises(PreconditionViolated):
            GenericConfig.validate(pts)


class TestDecideGeneric:
    def test_segre_yes_with_certificate(self):
        pts = segre_generic_points()
        assert genericity_violation(pts) is None
        d = decide_generic(pts)
        assert d.on_quadric and d.branch == "generic"
        assert oracle_decide(pts)
        assert all(d.certificate.evaluate(p) == 0 for p in pts)

    def test_perturbed_no(self):
        pts = segre_generic_points()
        pts[9] = Point((1, 1, 1, 0))
        d = decide_generic(pts)
        assert not d.on_quadric
        assert not oracle_decide(pts)
        assert d.certificate is None

    def test_precondition_validated(self):
        pts = segre_generic_points()
        pts[1] = pts[0]
        with pytest.raises(PreconditionViolated):
            decide_generic(pts)

    def test_overconstrained_segre_sample_routes_through_pipeline(self):
        # five of these points share a ruling, so the genericity conditions
        # fail and the full pipeline (not the generic case) must decide
        pairs = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 1), (4, 1), (3, 2), (5, 3)]
        pts = [segre_point(s, t) for s, t in pairs]
        with pytest.raises(PreconditionViolated):
            decide_generic(pts)
        full = decide(pts)
        assert full.on_quadric
        assert oracle_decide(pts)

    def test_verdict_does_not_depend_on_the_global_unit(self, monkeypatch):
        # global_unit's claim: another unit point rescales the local
        # parameters but not the coplanarity verdict of the test points
        configs = [sample_on_quadric(f"unit:{k}", 10, transformed=True, bound=30) for k in range(14)]
        configs += [sample_generic(f"unit:{k}", 10, bound=30) for k in range(14)]
        configs += [fixtures.generate_branch("generic", seed) for seed in range(1, 9)]
        configs += [sample_on_quadric(seed, 10, transformed=True, bound=30) for seed in range(12)]
        default = [decide(pts) for pts in configs]
        calls = []

        def weighted_unit(points):
            """v6 + 2v7 + 3v8 + 5v9."""
            calls.append(points)
            vs = [points[i].coords for i in range(6, 10)]
            return Point(tuple(sum(w * v[i] for w, v in zip((1, 2, 3, 5), vs)) for i in range(4)))

        monkeypatch.setattr(generic_case, "global_unit", weighted_unit)
        verdicts = []
        for pts, want in zip(configs, default):
            calls.clear()
            got = decide(pts)
            assert calls and got.branch == want.branch == "generic"
            assert got.on_quadric == want.on_quadric == oracle_decide(pts)
            verdicts.append(got.on_quadric)
        assert set(verdicts) == {True, False}

    def test_two_planes_shortcut(self):
        base = list(STANDARD_BASIS) + [Point((1, 2, 3, 4)), Point((1, 1, 2, 3))]

        def on_plane(i, j, k, w):
            return Point(
                tuple(
                    w[0] * a + w[1] * b + w[2] * c
                    for a, b, c in zip(base[i].coords, base[j].coords, base[k].coords)
                )
            )

        ten = base + [
            on_plane(0, 1, 5, (1, 2, 3)),
            on_plane(0, 1, 5, (2, 5, 1)),
            on_plane(2, 3, 4, (1, 1, 4)),
            on_plane(2, 3, 4, (3, 1, 1)),
        ]
        if genericity_violation(ten) is not None:
            pytest.skip("fixture degenerated")
        d = decide_generic(ten)
        assert d.on_quadric and d.branch == "two-planes"
        assert all(d.certificate.evaluate(p) == 0 for p in ten)
        assert oracle_decide(ten)
