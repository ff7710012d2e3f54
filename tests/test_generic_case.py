import hashlib
import itertools
import json
import random
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from functools import cache
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from quadricheck import cli, constructions, fixtures, generic_case
from quadricheck.constructions import (
    ConstructionTrace,
    LineFrame,
    StraightLine,
    Tape,
    Tetrahedron,
    TraceStep,
    VectorSum,
    line_meet_line,
    local_param_point,
    recover_from_chart,
    reduced_mod_p,
    verify_replay,
    von_staudt_inverse,
    von_staudt_product,
)
from quadricheck.decision import PreconditionViolated
from quadricheck.extensors import P, contains_point, join, line_through, plane_through
from quadricheck.generic_case import (
    BASIS_PLANES,
    GenericFigure,
    NoPermutation,
    ZeroColumn,
    bracket_of_test_points,
    build_M,
    compute_Q,
    construct_test_point,
    decide_generic,
    find_Q_labeling,
    generic_program,
    genericity_violation,
    global_unit,
)
from quadricheck.oracle import (
    oracle_decide,
    oracle_det,
    random_transform,
    sample_generic,
    sample_on_quadric,
    segre_point,
)
from quadricheck.projective import (
    E0,
    E1,
    E2,
    E3,
    GeometryError,
    InfinityProduct,
    Point,
    STANDARD_BASIS,
    bracket,
    det4,
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

    def test_entries_are_the_bracket_products(self):
        """M read from the basis planes equals its bracket-product definition
        on every generic fixture and at coordinates up to 2^64."""
        configs = [fixtures.generate_branch("generic", seed) for seed in range(1, 9)]
        configs.append(sample_generic("build-M", 10, bound=2**64))
        for pts in configs:
            want = tuple(
                tuple(
                    bracket(*(pts[i] for i in a)) * bracket(*(pts[i] for i in b))
                    for a, b in row
                )
                for row in M_PROVENANCE
            )
            m = build_M(pts)
            assert m.entries == want
            assert m.basis_planes == GenericFigure(pts).m.basis_planes
            for (plane_a, plane_b), (a_triple, b_triple) in zip(m.basis_planes, BASIS_PLANES):
                assert plane_a == plane_through(*(pts[i] for i in a_triple))
                assert plane_b == plane_through(*(pts[i] for i in b_triple))

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
        """A decision builds M once, and each frame it draws once: where
        the generic program runs it builds no frame, and where M has a zero,
        or the program declines, each column draws the frames of its chart's
        edges."""
        decide(make())  # builds the programs, which draw the reference frames
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
        points = decision.labeling.apply(make())
        figure = GenericFigure(points)
        edges = set()
        if not program_runs(figure):
            for col in range(4):
                chart = next(r for r, entry in enumerate(m.column(col)) if entry)
                edges.update((chart, j) for j in range(4) if j != chart)
        assert edges and len(frames) == len(set(frames)) == len(edges)
        drawn = {(points[6 + i], points[6 + j]) for i, j in edges}
        assert {(frame.zero, frame.infinity) for frame in frames} == drawn

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


def outcome(run):
    """What run(trace) gives on a fresh trace: its value, or the type and
    message of what it raises, with the trace's JSON either way."""
    trace = ConstructionTrace()
    try:
        value = run(trace)
    except (GeometryError, ValueError) as exc:
        value = (type(exc), str(exc))
    return value, trace.to_json()


def drawn_column(figure, col, trace=None):
    """Column col's test point drawn by the interpreted figure alone."""
    return construct_test_point(figure.points, col, trace, figure)


def drawn_points(figure, trace=None):
    """The coordinates of the figure's four test points, each drawn."""
    return tuple(drawn_column(figure, col, trace).coords for col in range(4))


def assert_as_drawn(figure):
    """The bracket of the figure's test points, as a decision takes it, is
    that of the four drawn columns, or raises what they raise, with the
    trace they record alone, traced or not."""
    want = outcome(lambda trace: bracket(*map(Point, drawn_points(figure, trace))))
    assert outcome(lambda trace: bracket_of_test_points(figure, trace)) == want
    untraced = outcome(lambda trace: bracket_of_test_points(figure))
    assert untraced == (want[0], ConstructionTrace().to_json())


def program_runs(figure):
    """Whether a decision's generic program completes on the figure: the
    figure passes the gate, and the program completes on its leaves."""
    return figure.zero_free and generic_program().run(figure.program_leaves()) is not None


def mod_p_leaves(figure):
    """The figure's leaves reduced mod P, as the mod-p filter runs them."""
    shared, columns = figure.program_leaves()
    return reduced_mod_p(shared), tuple(map(reduced_mod_p, columns))


def mod_p_runs(figure):
    """Whether the generic program completes mod P on the figure's leaves
    reduced mod P."""
    return generic_program().run_mod_p(mod_p_leaves(figure)) is not None


@cache
def points_function(traced=False, mod_p=False):
    """A function of the generic program compiled afresh with a `det4` that
    returns its arguments: it returns the four test points in place of
    their bracket (with the steps, when traced)."""
    tape, leaves, result, shared = generic_program()._figure
    names = dict(constructions._mod_p_program_names() if mod_p else constructions._PROGRAM_NAMES)
    names["det4"] = lambda *points: points
    source = constructions._program_source(tape, leaves, result, traced, mod_p, shared)
    exec(compile(source, "<test program>", "exec"), vars(constructions), names)
    return names["mod_p" if mod_p else "traced" if traced else "untraced"]


def program_parts(traced=False, mod_p=False):
    """The stripped lines of a function of the generic program: those of its
    shared part, and those of its loop over the columns with its return."""
    tape, leaves, result, shared = generic_program()._figure
    source = constructions._program_source(tape, leaves, result, traced, mod_p, shared)
    lines = [line.strip() for line in source.splitlines()]
    start = next(i for i, line in enumerate(lines) if line.startswith("points"))
    assert lines[start + 1].startswith("for (") and lines[start + 1].endswith(") in columns:")
    return lines[2:start], lines[start + 2 :]


class Declines:
    """A generic program that declines every figure, exactly and mod P."""

    def run(self, leaves, trace=None):
        return None

    def run_mod_p(self, leaves):
        return None


def all_drawn(monkeypatch):
    """From here on every decision draws its four columns."""
    monkeypatch.setattr(generic_case, "generic_program", Declines)


KERNEL_CALL = re.compile(r"\b(jp|jlp|mlp|mpp|wb|chart_hit|meet_of_join|det4)\(([^()]*)\)")


def kernel_calls(source):
    """Each call of a kernel in the source, as (kernel, its arguments'
    names), with a nested call's argument named by the call it is."""
    calls = []
    while True:
        match = KERNEL_CALL.search(source)
        if match is None:
            return calls
        calls.append(match.groups())
        source = source[: match.start()] + f"call{len(calls)}" + source[match.end() :]


def read_leaves(tape):
    """The values a tape reads and no step of it outputs, in the order it
    first reads them."""
    made, leaves = set(), {}
    for entry in tape.steps:
        step = type(entry) is TraceStep
        for value in entry.inputs if step else entry[1:]:
            if id(value) not in made:
                leaves.setdefault(id(value), value)
        if step:
            made.add(id(entry.output))
    return tuple(leaves.values())


def on_plane(points, triple, weights):
    return Point(
        tuple(sum(w * points[i].coords[r] for w, i in zip(weights, triple)) for r in range(4))
    )


def infinity_factor_points():
    """Generic points, Q != 0 as labeled, with point 7 on the plane 015 of
    basis quadric 0: M[1][0] = 0 and M[0][0] != 0, so column 0 is built in
    chart 0, and on edge 0-1 the factor x is the frame's infinity."""
    pts = chart_one_points()
    pts[6], pts[7] = Point((1, 5, 7, 2)), on_plane(pts, (0, 1, 5), (2, 3, 5))
    return pts


def e0_on_edge_points(bound, t):
    """Generic points with point 7 on the line through point 6 and E0, so
    the frame on the chart-0 edge 67 picks another auxiliary direction."""
    points = sample_generic("e0-on-edge-67", 10, bound=bound)
    points[7] = Point(tuple(c + t * e for c, e in zip(points[6].coords, E0.coords)))
    return points


def decisions(configs):
    """Each configuration's decision and trace, as JSON."""
    out = []
    for points in configs:
        decision = decide(points, with_trace=True)
        out.append((decision.to_json(), decision.trace.to_json()))
    return out


class TestColumnProgram:
    """Where M has no zero, the generic program gives the bracket of the
    four test points; where it declines, or M has a zero, every
    column is drawn.  Either way the test points, the traces and what is
    raised are those of the figure drawn alone."""

    def reference_tapes(self):
        """The reference configuration drawn as `generic_program` draws it:
        the shared tape with its leaves, and column 0's tape with its leaves
        and its test point."""
        points = [Point(coords) for coords in generic_case.REFERENCE_POINTS]
        figure = GenericFigure(points)
        shared, body = Tape(), Tape()
        figure.tetrahedron = Tetrahedron(tuple(points[6:10]), figure.unit, shared)
        result = construct_test_point(points, 0, body, figure)
        leaves, columns = figure.program_leaves()
        return (shared, leaves), (body, columns[0], result)

    def test_every_check_of_the_drawn_column_is_a_guard(self):
        """Per edge the figure checks that both factors and their product
        lie on the frame's line and that neither factor is the frame's zero
        or infinity; per projection, that it lies on its edge and is not the
        infinity vertex; and that the recovered point is off each opposite
        edge.  The traced loop guards each of those checks, and each
        computed step as the figure's step does, and reads every value of
        the tetrahedron from the shared part; it computes every step as the
        figure does: the recovery meets its first two planes in a line and
        that line with the third.  The untraced loop guards none of those
        checks, which are identities or follow from the gate (the arguments
        above `constructions._CHECK_CODE`), and each computed step as the
        traced loop does, but for the 18 joins of two points: only
        `meet_of_join` reads those lines, so the untraced loop computes none
        of them, and hands it the two points, never a line.  The
        point that it returns is zero exactly where the points are
        dependent, so where the join's guard would decline, and with both
        brackets zero it joins the points itself.  It holds every point up
        to scale: only the point it appends is made canonical, and each of
        the 18 meets of coplanar lines runs `meet_of_join`, with no skew
        guard, whose fallback is `line_meet_line`; the 6 meets with L'
        through the auxiliary point
        read its bracket from the shared part; the recovery's point is
        expanded in the vertex frame by one call, with no meet of planes.
        The mod-p function is the same source on other names.  The shared
        part's guards: see `test_every_check_of_the_drawn_frames_is_a_guard`."""
        (shared, shared_leaves), (tape, leaves, result) = self.reference_tapes()
        checks = Counter(entry[0] for entry in tape.steps if type(entry) is not TraceStep)
        assert checks == {"on": 12, "apart": 9, "off": 3}
        held = {id(value) for value in leaves + shared_leaves}
        held |= {id(entry[-1]) for entry in shared.steps if type(entry) in (TraceStep, VectorSum)}
        computed = Counter()
        for step in tape.steps:
            if type(step) is TraceStep and id(step.output) not in held:
                held.add(id(step.output))
                computed[step.op, step.grades] += 1
        meets = computed[("meet", (2, 2, 1))]
        assert meets == 18 and sum(computed.values()) == 47
        planes = computed[("join", (1, 1, 1, 3))]
        joins = computed[("join", (1, 1, 2))] + planes
        for traced in (False, True):
            _, lines = program_parts(traced)
            nonzero = sum(line.startswith("if not any(v") for line in lines)
            assert nonzero == (joins if traced else planes) + computed[("meet", (2, 3, 1))]
            if traced:
                assert sum(line.startswith("if any(jlp(") for line in lines) == checks["on"]
                assert sum(line.startswith("if not any(jlp(") for line in lines) == checks["off"]
                assert sum(" in (" in line for line in lines) == checks["apart"]
                assert sum(line == "except ValueError: return" for line in lines) == meets
                assert sum("= line_meet_line(" in line for line in lines) == meets
                assert not any("jp(" in line and line.startswith("if ") for line in lines)
                assert not any("wb(" in line for line in lines)
                cuts = [line.split(" = ")[0] for line in lines if " = mpp(" in line]
                assert len(cuts) == computed[("meet", (3, 3, 2))] == 1
                assert sum(f" = mlp({cuts[0]}, " in line for line in lines) == 1
                assert not any("chart_hit(" in line for line in lines)
                # each meet of a line and a plane is made canonical, as drawn
                canon = [line for line in lines if " = canon(" in line]
                assert len(canon) == computed[("meet", (2, 3, 1))] == 7
                assert lines[-3].startswith("points.append(v") and lines[-2].startswith("steps += (")
                assert lines[-1] == "return det4(*points), steps"
                continue
            assert not any("mpp(" in line for line in lines)
            assert sum(" = chart_hit(" in line for line in lines) == 1
            assert [line for line in lines if "canon(" in line] == [lines[-2]]
            assert lines[-2].startswith("points.append(canon(")
            assert lines[-1] == "return det4(*points)"
            # a guard of a computed step is the only guard of the loop
            guards = [line for line in lines if line.startswith("if ")]
            computed_step = re.compile(r"if (not any\(v\d+\)|v\d+ is None): return")
            assert all(computed_step.fullmatch(line) for line in guards)
            assert len(guards) == nonzero + meets
            assert not any("jll(" in line or "line_meet_line(" in line for line in lines)
            assert not any("except" in line for line in lines)
            combined = [line for line in lines if " = meet_of_join(w" in line]
            assert len({line.split(" = ")[0] for line in combined}) == len(combined) == meets
            call = re.compile(r"v\d+ = meet_of_join\(w\d+, w\d+, \w+, \w+, \w+\)")
            assert all(call.fullmatch(line) for line in combined)
            assert not any(" = jp(" in line for line in lines)
            assert sum(" = wb(" in line for line in lines) == 2 * meets - 6
        assert program_parts() == program_parts(mod_p=True)

    def test_every_check_of_the_drawn_frames_is_a_guard(self):
        """The reference tetrahedron checks that its vertices span space and
        that its unit is off each face; each chart-0 frame that its zero
        and infinity are apart and its unit apart from both and on its line,
        that E0, its auxiliary direction, is off its line, and that the
        auxiliary point a is off its line and off L'; and each join and
        meet is nonzero, and each pair of scaffold lines that meets is
        coplanar.  The shared part guards each of those checks but three
        kinds, whose proofs are above `constructions._CHECK_CODE`: the span
        checks, which `GenericConfig.validate` proves; each unit on its
        line, a meet with that line; and the coplanar scaffold lines.  It makes
        every point canonical, as the figure does, and meets each scaffold
        line it joined by `meet_of_join`; its two vector sums per frame,
        infinity + E0 and a = zero + 2·infinity + E0, read only the vertices
        and E0.  Each frame's line is the join of its edge's ends, which the
        edge's projection joined before: the program reads that join, and
        tests nothing more of zero and infinity being apart, which that
        join's own guard tests, so it makes 27 point joins in place of 33.
        The two scaffold meets of a frame read the brackets [πa] and
        [π·unit] once.  The shared part is the same in the untraced, the
        traced and the mod-p function."""
        (tape, leaves), _ = self.reference_tapes()
        checks = Counter(entry[0] for entry in tape.steps if type(entry) is tuple)
        assert checks == {"span": 5, "apart": 6, "on": 3, "off": 9}
        sums = [entry for entry in tape.steps if type(entry) is VectorSum]
        assert [entry.weights for entry in sums] == [(1, 1), (1, 2, 1)] * 3
        e0 = STANDARD_BASIS[0].coords
        assert all(entry.inputs[-1] is e0 for entry in sums)
        assert all(value in leaves for entry in sums for value in entry.inputs[:-1])
        computed = Counter(step.grades for step in tape.steps if type(step) is TraceStep)
        assert computed == {(1, 1, 2): 24, (2, 1, 3): 3, (2, 3, 1): 3, (2, 2, 1): 6}
        lines, _ = program_parts()
        assert lines == program_parts(traced=True)[0]
        assert not any("det4(" in line or "jll(" in line for line in lines)
        # the only on-line check is each unit's, which is a meet with its line
        assert checks["on"] == 3 and not any(line.startswith("if any(jlp(") for line in lines)
        off = [line for line in lines if line.startswith("if not any(jlp(")]
        assert len(off) == checks["off"]
        assert sum(f", {e0!r})" in line for line in off) == 3
        apart = [line for line in lines if line.startswith("if not any(jp(")]
        assert sum(line.count("not any(jp(") for line in apart) == 6 and len(apart) == 3
        joined = [line for line in lines if re.fullmatch(r"if not any\(v\d+\): return", line)]
        joins = computed[1, 1, 2] - 3  # each frame's line is its edge's
        assert len(joined) == joins + computed[2, 1, 3] + computed[2, 3, 1] + len(sums)
        assert sum(line.count("jp(") for line in lines) == 27 == joins + 6
        canon = [line for line in lines if " = canon(" in line]
        assert len(canon) == computed[2, 3, 1] + computed[2, 2, 1] + len(sums)
        assert sum(" = wb(" in line for line in lines) == 6
        assert sum(" = meet_of_join(" in line for line in lines) == computed[2, 2, 1] == 6
        assert not any(" in (" in line or "mpp(" in line or "chart_hit(" in line for line in lines)
        assert lines == program_parts(mod_p=True)[0]

    def test_every_kernel_call_is_made_once(self):
        """No two kernel calls of the untraced or the mod-p function share a
        kernel and argument names, so no join, meet, bracket or guard is
        computed twice on the same values; the shared part makes 27 point
        joins.  The loop makes no point join whose line only `meet_of_join`
        reads, of which the traced loop makes 18: its only 3 are those of
        the recovery planes, each joined with a vertex."""
        for mod_p in (False, True):
            tape, leaves, result, shared = generic_program()._figure
            source = constructions._program_source(tape, leaves, result, False, mod_p, shared)
            calls = Counter(kernel_calls(source))
            assert calls and calls.most_common(1)[0][1] == 1
            first, loop = program_parts(mod_p=mod_p)
            assert sum(line.count("jp(") for line in first) == 27
            calls = kernel_calls("\n".join(loop))
            joins = [f"call{k}" for k, (kernel, _) in enumerate(calls, 1) if kernel == "jp"]
            planes = [args.split(", ")[0] for kernel, args in calls if kernel == "jlp"]
            assert len(joins) == 3 and planes == joins
        _, traced = program_parts(traced=True)
        assert sum(" = jp(" in line for line in traced) == 18

    def test_reference_and_fixture_columns_run_the_program(self):
        points = [Point(coords) for coords in generic_case.REFERENCE_POINTS]
        figure = GenericFigure(points)
        assert points_function()(figure.program_leaves()) == drawn_points(figure)
        assert generic_program().run(figure.program_leaves()) == bracket(*map(Point, drawn_points(figure)))
        for points in generic_fixtures()[:-1]:
            figure = GenericFigure(points)
            assert program_runs(figure)
            assert_as_drawn(figure)

    def test_infinity_factor(self):
        """A zero of M outside row 0 puts the figure outside the gate, so
        no decision runs the program on it; the traced loop, which keeps
        the apart guard of each factor, declines on it all the same."""
        pts = infinity_factor_points()
        assert genericity_violation(pts) is None and compute_Q(pts[:6]) != 0
        figure = GenericFigure(pts)
        assert all(figure.m.entries[0]) and not figure.m.entries[1][0]
        assert not figure.zero_free and not program_runs(figure)
        assert generic_program().run(figure.program_leaves(), ConstructionTrace()) is None
        assert_as_drawn(figure)

    def doctored(self, figure, plane):
        """The figure with the first plane of column 0 replaced and M
        rebuilt from its planes, as `build_M` builds it, and a copy that
        keeps M's entries, so draws column 0 in chart 0 as before."""
        planes = figure.m.basis_planes
        planes = ((plane, planes[0][1]), *planes[1:])
        bracket_with = generic_case._plane_with_point
        entries = tuple(
            tuple(bracket_with(a.coeffs, x)[0] * bracket_with(b.coeffs, x)[0] for a, b in planes)
            for x in (point.coords for point in figure.points[6:])
        )
        stale = GenericFigure(figure.points)
        stale.m = replace(figure.m, basis_planes=planes)
        figure.m = replace(figure.m, entries=entries, basis_planes=planes)
        return figure, stale

    def assert_declines_outside_the_gate(self, figure):
        """The doctored figure fails the gate, so no decision runs the
        program on it; fed its leaves anyway, the program declines, exactly
        and mod P, on a guard of a computed step, which every function
        keeps."""
        assert not figure.zero_free and not program_runs(figure)
        assert generic_program().run(figure.program_leaves()) is None
        assert not mod_p_runs(figure)

    def test_zero_factor_raises_what_the_figure_raises(self):
        """With the first plane of column 0 moved through vertex 0, M[0][0]
        is 0.  Drawn in chart 0, the factor x is the frame's zero on every
        edge: the product is the zero, its inverse the infinity vertex, and
        the recovery raises; the program's recovery hit is zero there."""
        pts = segre_generic_points()
        figure, stale = self.doctored(GenericFigure(pts), plane_through(pts[6], pts[0], pts[1]))
        assert not figure.m.entries[0][0] and stale.m.entries[0][0]
        self.assert_declines_outside_the_gate(figure)
        point, _ = outcome(lambda t: drawn_column(stale, 0, t))
        assert point[0] is constructions.OutsideChart
        assert_as_drawn(figure)
        assert_as_drawn(stale)

    def test_degenerate_meet_raises_what_the_figure_raises(self):
        """With the first plane of column 0 through vertices 0 and 1, M[0][0]
        and M[1][0] are 0, and the edge 01 lies in the plane: drawn in chart
        0, the meet of the two raises, and the program's is zero."""
        pts = segre_generic_points()
        figure, stale = self.doctored(GenericFigure(pts), plane_through(pts[6], pts[7], pts[0]))
        assert not (figure.m.entries[0][0] or figure.m.entries[1][0])
        self.assert_declines_outside_the_gate(figure)
        assert outcome(lambda t: drawn_column(stale, 0, t))[0][0] is constructions.DegenerateMeet
        assert_as_drawn(figure)
        assert_as_drawn(stale)

    def test_skew_lines_and_zero_joins_raise_what_the_figure_raises(self):
        """A frame whose L' is skew to the figure's lines, and one whose
        auxiliary point is the factor y, so that the join of the two is
        zero: the drawn column raises.  The generic program builds its
        frames from the vertices and the unit, so no input reaches these
        guards of its loop; the program of the frame's von Staudt product,
        which reads the frame's scaffold as leaves, gives the drawn product
        on the frame as built, and its traced function, which keeps every
        guard, declines on the doctored scaffold.  Its untraced and mod-p
        functions keep the guard of the zero join, and decline there too;
        they have no skew guard, since on a figure built from points the
        lines it guards are coplanar (the argument above
        `constructions._CHECK_CODE`), and a skew L' is no such figure."""
        pts = segre_generic_points()
        for doctor, raised in (
            (lambda s, py: s._replace(lprime=line_through(pts[0], pts[1])), constructions.SkewLines),
            (lambda s, py: s._replace(a=py), constructions.ZeroExtensor),
        ):
            figure = GenericFigure(pts)
            frame = figure.tetrahedron.edge_frame(0, 2)
            d, e = figure.tetrahedron.vertices[0], figure.tetrahedron.vertices[2]
            px = local_param_point(d, e, pts[0], pts[1], pts[5])
            py = local_param_point(d, e, pts[2], pts[3], pts[4])
            tape = Tape()
            want = von_staudt_product(frame, px, py, tape)
            leaves = read_leaves(tape)
            program = StraightLine(tape, leaves, want.coords)
            assert program.run(leaves) == want.coords
            scaffold = frame.scaffold
            frame.__dict__["scaffold"] = doctor(scaffold, py)
            swapped = {
                id(scaffold.lprime.coeffs): frame.scaffold.lprime.coeffs,
                id(scaffold.a.coords): frame.scaffold.a.coords,
            }
            other = tuple(swapped.get(id(value), value) for value in leaves)
            assert other != leaves
            assert program.run(other, ConstructionTrace()) is None
            if raised is constructions.ZeroExtensor:
                assert program.run(other) is None and program.run_mod_p(reduced_mod_p(other)) is None
            point, trace = outcome(lambda t: drawn_column(figure, 0, t))
            assert point[0] is raised and trace["steps"]

    def test_coplanar_meet_past_e3(self, monkeypatch):
        """With vertex 0 at E3, every figure on an edge from it lies in a
        plane through E3, so its coplanar lines meet at the witness E2.
        The untraced program finds both brackets with the plane through
        E3 zero on each of the 6 meets of its shared part and the 18 of each
        column, and meets the lines in `line_meet_line`; on a figure in
        general position it never does.  Column 3 has zero entries in rows 2
        and 3, so an infinity factor on the edges 02 and 03: the figure is
        outside the gate, and the traced function, which keeps every guard,
        declines on that column.  On columns 0, 1, 2 and 0 again the
        untraced and the traced functions give the drawn test points, and
        the traced steps the drawn trace."""
        pts = segre_generic_points()
        pts[6] = E3
        assert genericity_violation(pts) is None and compute_Q(pts[:6]) != 0
        figure = GenericFigure(pts)
        frame = figure.tetrahedron.edge_frame(0, 1)
        assert contains_point(join(frame.line, STANDARD_BASIS[frame.aux_index]), E3)
        shared, columns = figure.program_leaves()
        repeated = (shared, tuple(columns[col] for col in (0, 1, 2, 0)))
        drawn = ConstructionTrace()
        want = tuple(drawn_column(figure, col, drawn).coords for col in (0, 1, 2, 0))
        general = GenericFigure(generic_fixtures()[0]).program_leaves()
        fallbacks = []
        real = constructions.line_meet_line

        def counting(l1, l2):
            fallbacks.append((l1, l2))
            return real(l1, l2)

        monkeypatch.setattr(constructions, "line_meet_line", counting)
        program = generic_program()
        assert program.run(general) is not None
        assert fallbacks == []
        assert points_function()(repeated) == want
        assert len(fallbacks) == 6 + 4 * 18
        assert points_function(traced=True)(repeated)[0] == want
        trace = ConstructionTrace()
        # the bracket of a repeated point
        assert program.run(repeated, trace) == 0
        assert trace.to_json() == drawn.to_json()
        assert not figure.zero_free
        assert program.run((shared, columns), ConstructionTrace()) is None
        assert points_function(traced=True)((shared, columns[3:])) is None
        assert_as_drawn(figure)

    def test_frames_program_returns_the_drawn_values(self):
        """On samples with coordinates up to 2^6, 2^64 and 2^256, on the
        fixtures and on a figure whose vertex 0 is E3, the shared part of
        the generic program completes.  Of the columns whose entry in row 0
        is nonzero, the traced function, which keeps every guard, declines
        exactly those with a zero entry in M, so an infinity factor: two of
        the infinity-factor fixture, one of the chart-1 fixture and column 3
        of the figure at E3.  On each of the others its untraced and traced
        functions give the drawn test point and the drawn trace.  The traced
        steps read the shared part's values, so those are the drawn
        tetrahedron's and its frames', bit for bit.  Where the figure passes
        the gate, the program gives the drawn bracket and trace."""
        configs = [generic_fixtures()[0], chart_one_points(), infinity_factor_points()]
        for bound in (2**6, 2**64, 2**256):
            for seed in (1, 2, 3):
                configs.append(sample_generic(seed, 10, bound=bound))
                configs.append(sample_on_quadric(seed, 10, transformed=True, bound=bound))
        at_e3 = segre_generic_points()
        at_e3[6] = E3
        compared = declined = 0
        for points in configs + [at_e3]:
            if genericity_violation(points) is not None:
                continue
            figure = GenericFigure(decide(points).labeling.apply(points))
            shared, columns = figure.program_leaves()
            # no column: the shared part alone, and the bracket of no points
            assert points_function()((shared, ())) == ()
            for col in range(4):
                if not figure.m.entries[0][col]:
                    continue
                leaves = (shared, columns[col : col + 1])
                done = points_function(traced=True)(leaves)
                assert (done is None) is (0 in figure.m.column(col))
                if done is None:
                    declined += 1
                    continue
                drawn = ConstructionTrace()
                want = (drawn_column(figure, col, drawn).coords,)
                untraced = points_function()(leaves)
                traced, steps = done
                trace = ConstructionTrace()
                for step in steps:
                    constructions._record(trace, *step)
                assert untraced == traced == want and trace.to_json() == drawn.to_json()
            if program_runs(figure):
                drawn, trace = ConstructionTrace(), ConstructionTrace()
                want = map(Point, drawn_points(figure, drawn))
                assert generic_program().run(figure.program_leaves(), trace) == bracket(*want)
                assert trace.to_json() == drawn.to_json()
            compared += 1
        assert compared >= 18 and declined == 4

    def test_a_frame_off_the_main_shape_is_drawn(self, monkeypatch):
        """With point 7 on the line through point 6 and E0, the frame on the
        chart-0 edge 67 picks another auxiliary direction, so the shared
        part declines, exactly and mod P.  Every column is then drawn:
        decisions and traces, untraced and traced, are those of the drawn
        figure, and where the filter runs the exact columns decide."""
        configs = []
        for bound, t in ((25, 3), (2**64, 2**70 + 1)):
            points = e0_on_edge_points(bound, t)
            assert genericity_violation(points) is None
            figure = GenericFigure(decide(points).labeling.apply(points))
            assert figure.points[6:] == points[6:]
            assert contains_point(figure.tetrahedron.edge_line(0, 1), E0)
            assert figure.tetrahedron.edge_frame(0, 1).aux_index == 1
            assert figure.zero_free
            assert not program_runs(figure) and not mod_p_runs(figure)
            configs.append(points)
        for points in configs:
            figure, gated = gated_figure(points)
            assert gated
            assert not generic_case._no_mod_p(figure)
        programmed = decisions(configs)
        untraced = [decide(points).to_json() for points in configs]
        assert [decision for decision, _ in programmed] == untraced
        all_drawn(monkeypatch)
        assert decisions(configs) == programmed
        assert [decide(points).to_json() for points in configs] == untraced

    def test_sampled_columns_as_drawn(self, monkeypatch):
        """Generic and on-quadric samples with coordinates up to 2^64 and
        2^256: on the decided figure the untraced program gives the traced
        program's test points and the drawn columns', and declines where it
        declines, and the decisions are those of the drawn figure."""
        configs = []
        for bound in (2**64, 2**256):
            for seed in (1, 2):
                configs.append(sample_generic(seed, 10, bound=bound))
                configs.append(sample_on_quadric(seed, 10, transformed=True, bound=bound))
        programmed = []
        for points in configs:
            decision = decide(points)
            assert decision.branch == "generic"
            programmed.append(decision.to_json())
            figure = GenericFigure(decision.labeling.apply(points))
            leaves = figure.program_leaves()
            untraced = points_function()(leaves)
            traced = points_function(traced=True)(leaves)
            assert untraced == (traced and traced[0])
            if untraced is not None:
                assert untraced == drawn_points(figure)
            assert_as_drawn(figure)
        assert sum(decision["on_quadric"] for decision in programmed) == 4
        all_drawn(monkeypatch)
        assert [decide(points).to_json() for points in configs] == programmed

    def test_untraced_test_points_are_the_algebraic_images(self):
        """As in acceptance criterion 10, on configurations with coordinates
        up to 20 and on three seeded samples each up to 2^64 and 2^256:
        the untraced test point of every column is the drawn one and the
        image tau(column of M).  The figures with no zero in M run
        the program, whose recovery expands each point in the vertex frame;
        the drawn columns, which `drawn_column` draws for every column and
        the fixtures in chart 1 and with an infinity factor add, recover it
        untraced in the same way."""
        configs = []
        k = 0
        while len(configs) < 20:
            points = sample_generic(f"untraced-test-points:{k}", 10, bound=20)
            k += 1
            if genericity_violation(points) is None:
                configs.append(points)
        for bound in (2**64, 2**256):
            configs += [sample_generic(seed, 10, bound=bound) for seed in (1, 2, 3)]
        configs += [chart_one_points(), infinity_factor_points()]
        ran = compared = 0
        for points in configs:
            assert genericity_violation(points) is None
            sigma = find_Q_labeling(points[:6])
            relabeled = [points[i] for i in sigma] + points[6:]
            figure = GenericFigure(relabeled)
            tau = tau_transform(relabeled)
            images = []
            for col in range(4):
                column = figure.m.column(col)
                if not any(column):
                    continue
                images.append(tau.apply(Point(column)))
                assert drawn_column(figure, col) == images[-1]
                compared += 1
            if len(images) == 4:
                assert bracket_of_test_points(figure) == bracket(*images)
            if figure.zero_free:
                point_coords = points_function()(figure.program_leaves())
                if point_coords is not None:
                    assert point_coords == tuple(image.coords for image in images)
                    ran += 1
        assert compared >= 100 and len(configs) - 4 <= ran < len(configs)

    def test_a_column_in_another_chart_is_drawn(self, monkeypatch):
        """With a zero in row 0 of M, column 0 is built in chart 1, and the
        decision draws every column without running the program."""
        pts = chart_one_points()
        figure = GenericFigure(pts)
        assert not all(figure.m.entries[0])
        ran = []
        program = generic_program()
        monkeypatch.setattr(generic_case, "generic_program", lambda: ran.append(1) or program)
        assert_as_drawn(figure)
        assert ran == []

    def test_a_declined_decision_is_drawn_whole(self, monkeypatch):
        """One case of each way a decision falls back: a zero in row 0 of M
        and an infinity factor, a zero of M outside row 0, neither of which
        passes the gate, so no program runs; and a frame off the main shape,
        where the shared part declines.  The decision JSON and the trace
        JSON, traced and untraced, are those of the decision that draws
        every column, each decision draws all four columns, and no result of
        the program is used."""
        cases = [chart_one_points(), e0_on_edge_points(25, 3), infinity_factor_points()]
        real_program, real_draw = generic_program(), generic_case.construct_test_point
        results, drawn = [], []

        class Spy:
            def run(self, leaves, trace=None):
                results.append(real_program.run(leaves, trace))
                return results[-1]

            def run_mod_p(self, leaves):
                results.append(real_program.run_mod_p(leaves))
                return results[-1]

        def drawing(points, col, trace=None, figure=None):
            drawn.append(col)
            return real_draw(points, col, trace, figure)

        for points, runs in zip(cases, (False, True, False)):
            figure = GenericFigure(decide(points).labeling.apply(points))
            assert figure.zero_free is runs
            with monkeypatch.context() as patch:
                patch.setattr(generic_case, "generic_program", Spy)
                patch.setattr(generic_case, "construct_test_point", drawing)
                got = [decide(points).to_json(), decisions([points])]
            assert drawn == [0, 1, 2, 3] * 2
            assert results if runs else results == []
            assert all(result is None for result in results)
            results.clear(), drawn.clear()
            with monkeypatch.context() as patch:
                all_drawn(patch)
                assert [decide(points).to_json(), decisions([points])] == got

    def test_the_gate_stands_in_for_the_guards_it_proves(self, monkeypatch):
        """The untraced and mod-p loops keep no check of the drawn column,
        and the gate, no zero in M, stands in for those that are not
        identities.  On the generic figures of fuzz seeds 0-2, of random and
        on-quadric samples from 2^6 to 2^256, of the E0-on-edge
        configurations and of projective images of the chart-1 fixture:
        where the figure passes the gate, the untraced program declines
        exactly where the traced one, whose loop keeps every guard,
        declines, and otherwise gives the same bracket, and a bracket
        nonzero mod P goes with a nonzero exact one.  A figure with a zero
        in M never calls the program, and its bracket is the drawn one."""
        configs = [cli.fuzz_configuration(seed, index) for seed in range(3) for index in range(300)]
        for bound in (2**6, 2**16, 2**32, 2**64, 2**256):
            for seed in (1, 2, 3):
                configs.append(sample_generic(seed, 10, bound=bound))
                configs.append(sample_on_quadric(seed, 10, transformed=True, bound=bound))
        configs += [e0_on_edge_points(25, 3), e0_on_edge_points(2**64, 2**70 + 1)]
        rng = random.Random("gate-chart-one")
        for bound in (2**6, 2**64):
            configs += [[random_transform(rng, bound).apply(p) for p in chart_one_points()]]
        program, calls = generic_program(), []
        seen = Counter()
        for points in configs:
            decision = decide(points)
            if decision.branch != "generic":
                continue
            figure = GenericFigure(decision.labeling.apply(points))
            leaves = figure.program_leaves()
            if not figure.zero_free:
                with monkeypatch.context() as patch:
                    patch.setattr(generic_case, "generic_program", lambda: calls.append(1) or program)
                    assert decide(points).to_json() == decision.to_json()
                    assert_as_drawn(figure)
                assert calls == []
                seen["zero in M"] += 1
                continue
            untraced = program.run(leaves)
            assert untraced == program.run(leaves, ConstructionTrace())
            modp = program.run_mod_p(mod_p_leaves(figure))
            if modp:
                assert untraced
            seen["declined" if untraced is None else "nonzero mod P" if modp else "ran"] += 1
        assert seen["zero in M"] >= 40 and seen["declined"] >= 2
        assert seen["nonzero mod P"] >= 100 and seen["ran"] >= 100

    def test_decisions_as_drawn(self, monkeypatch):
        """Inputs that `_ensure_general_position` relabeled, fuzz seed 5
        indices 4, 9 and 19, whose steps repeat by value, and every generic
        decision of fuzz seeds 0-3 whose trace is not of 217 steps decide
        and trace as the drawn figure decides and traces them."""
        relabeled = [cli.fuzz_configuration(0, index) for index in (64, 109)]
        assert all(decide(points).labeling.perm[6:] != (6, 7, 8, 9) for points in relabeled)
        configs = relabeled + [cli.fuzz_configuration(5, index) for index in (4, 9, 19)]
        for seed in range(4):
            for index in range(300):
                points = cli.fuzz_configuration(seed, index)
                decision = decide(points, with_trace=True)
                if decision.branch == "generic" and len(decision.trace.steps) != 217:
                    configs.append(points)
        assert len(configs) > 80
        programmed = decisions(configs)
        all_drawn(monkeypatch)
        assert decisions(configs) == programmed

    def test_built_lazily_once_from_the_reference(self):
        """Importing the package builds no program; the first generic
        decision builds the generic program once, by drawing column 0 of the
        reference configuration on one tape and its tetrahedron on another,
        whatever was decided first.  Untraced decisions compile its
        untraced function alone, on the first that the mod-p filter does not
        answer and whose M has no zero: here a YES decision."""
        firsts = {
            "main shape": fixtures.generate_branch("generic", 1),
            "another chart": chart_one_points(),
            "special position": fixtures.generate_branch("duplicate", 1),
        }
        for name, first in firsts.items():
            yes = sample_on_quadric(1, 10, transformed=True, bound=2**64)
            configs = [cli.points_to_json(points)["points"] for points in (first, chart_one_points(), yes)]
            result = subprocess.run(
                [sys.executable, "-c", LAZY_BUILD, str(SRC), json.dumps(configs)],
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert result.returncode == 0, result.stderr
            report = json.loads(result.stdout)
            assert report["built_at_import"] == 0, name
            assert report["builds"] == 1, name
            assert report["compiled"] == ["_untraced"], name
            assert report["drawn_on_a_tape"] == [[list(c) for c in generic_case.REFERENCE_POINTS]]
            vertices = [list(c) for c in generic_case.REFERENCE_POINTS[6:]]
            assert report["tetrahedra_on_a_tape"] == [vertices]


def projectively_equal_mod_p(u, v):
    """Whether the coefficient tuples u and v are nonzero mod P and
    proportional mod P."""
    u, v = [c % P for c in u], [c % P for c in v]
    minors = (u[i] * v[j] - u[j] * v[i] for i, j in itertools.combinations(range(len(u)), 2))
    return any(u) and any(v) and all(minor % P == 0 for minor in minors)


def gated_figure(points):
    """The figure a decision of the generic points builds, and whether an
    untraced decision runs the mod-p filter on it: M has no zero and det M
    is nonzero mod P."""
    relabeled = decide(points).labeling.apply(points)
    figure = GenericFigure(relabeled)
    return figure, figure.zero_free and cofactor_det(figure.m.entries) % P != 0


def filter_off(figure):
    """The mod-p filter switched off: it never answers."""
    return False


def spy_on_filter(monkeypatch):
    """The runs of the mod-p filter from here on, each as the points of its
    figure and its answer."""
    runs = []
    real_filter = generic_case._no_mod_p

    def spy(figure):
        runs.append((figure.points, real_filter(figure)))
        return runs[-1][1]

    monkeypatch.setattr(generic_case, "_no_mod_p", spy)
    return runs


class TestModPFilter:
    """An untraced decision with no zero in M and det M nonzero
    mod P first runs the generic program mod P; it answers NO where the
    four test points are not coplanar mod P, and the exact program or the
    drawn columns decide everything else, every YES among it."""

    def sampled_configs(self):
        """The configurations of `test_sampled_columns_as_drawn`."""
        configs = []
        for bound in (2**64, 2**256):
            for seed in (1, 2):
                configs.append(sample_generic(seed, 10, bound=bound))
                configs.append(sample_on_quadric(seed, 10, transformed=True, bound=bound))
        return configs

    def test_mod_p_columns_are_the_exact_ones_mod_p(self):
        """On the sampled configurations the generic program completes mod
        P and exactly, and each of its four mod-p test points equals the
        exact one mod P up to a nonzero scale; the filter answers NO on the
        random samples and never on the on-quadric ones, which a decision
        does not run it on."""
        compared = 0
        for points in self.sampled_configs():
            figure, gated = gated_figure(points)
            assert gated is not oracle_decide(points)
            mod = points_function(mod_p=True)(mod_p_leaves(figure))
            exact = points_function()(figure.program_leaves())
            assert len(mod) == len(exact) == 4
            assert all(projectively_equal_mod_p(u, v) for u, v in zip(mod, exact))
            compared += 1
            assert generic_case._no_mod_p(figure) is not oracle_decide(points)
        assert compared == 8

    @given(st.integers(0, 2**32), st.sampled_from((2**6, 2**16, 2**32, 2**64, 2**256)))
    @settings(max_examples=12)
    def test_never_no_on_a_quadric(self, seed, bound):
        """On an on-quadric sample with Segre parameters up to the bound, as
        `sample_on_quadric` draws them, det M is 0 mod P, so a decision
        goes straight to the exact columns, and the filter, run anyway,
        never answers NO."""
        points = sample_on_quadric(f"mod-p-filter:{seed}", 10, transformed=True, bound=bound)
        assume(genericity_violation(points) is None)
        sigma = find_Q_labeling(points[:6])
        relabeled = [points[i] for i in sigma] + points[6:]
        figure = GenericFigure(relabeled)
        assert cofactor_det(figure.m.entries) % P == 0
        assert not generic_case._no_mod_p(figure)

    def test_a_gated_decision_builds_no_frame(self, monkeypatch):
        """No frame object is built on the programs' path: NO decisions at
        2^64 and of a small fixture, which the filter answers, and a YES
        decision, which goes straight to the exact programs, build no
        Tetrahedron and no LineFrame once the programs are built."""
        configs = [
            sample_generic(1, 10, bound=2**64),
            sample_on_quadric(1, 10, transformed=True, bound=2**64),
            fixtures.generate_branch("generic", 1),
        ]
        for points in configs:
            decide(points)  # builds and compiles every program these decisions run
        built = []

        def counting(real):
            return lambda self: built.append(self) or real(self)

        for cls in (Tetrahedron, LineFrame):
            monkeypatch.setattr(cls, "__post_init__", counting(cls.__post_init__))
        assert [decide(points).on_quadric for points in configs] == [False, True, False]
        assert [gated_figure(points)[1] for points in configs] == [True, False, True]
        assert built == []
        drawn = GenericFigure(configs[2]).tetrahedron.edge_frame(0, 1)
        assert [type(x) for x in built] == [Tetrahedron, LineFrame] and built[1] is drawn

    def test_zero_bracket_mod_p_falls_through(self, monkeypatch):
        """With point 9 on a line through point 0, det M is αt + βt^2 in
        the line's parameter t, since the quadric through points 0..8 holds
        point 0.  Taking t ≡ -α/β (mod P) makes det M and the
        bracket of the mod-p test points 0 mod P, and the true bracket is
        not 0: the four mod-p columns complete and the filter would not
        answer, so a decision does not run it, and the exact columns decide
        NO with the oracle."""
        points = sample_generic("mod-p-fall-through", 10, bound=2**64)
        points = decide(points).labeling.apply(points)
        figure = GenericFigure(points)
        rows = figure.m.entries[:3]
        plane_with_point = generic_case._plane_with_point

        def det_m(x):
            row = [
                plane_with_point(a.coeffs, x)[0] * plane_with_point(b.coeffs, x)[0]
                for a, b in figure.m.basis_planes
            ]
            return cofactor_det([*rows, row])

        def on_line(t):
            return tuple(a + t * b for a, b in zip(points[0].coords, (1, 2, 3, 5)))

        assert det_m(on_line(0)) == 0
        plus, minus = det_m(on_line(1)), det_m(on_line(-1))
        alpha, beta = (plus - minus) // 2, (plus + minus) // 2
        assert det_m(on_line(3)) == 3 * alpha + 9 * beta and alpha % P and beta % P
        x = on_line(-alpha * pow(beta, -1, P) % P + P * 2**80)
        assert det_m(x) % P == 0 and det_m(x) != 0 and gcd(*x) % P
        points[9] = Point(x)
        figure, gated = gated_figure(points)
        assert figure.zero_free and not gated
        assert decide(points).labeling.perm == tuple(range(10))
        assert generic_program().run_mod_p(mod_p_leaves(figure)) == 0
        assert not generic_case._no_mod_p(figure)
        ran = []
        real = generic_case.bracket_of_test_points

        def counting(figure, trace=None):
            ran.append(real(figure, trace))
            return ran[-1]

        monkeypatch.setattr(generic_case, "bracket_of_test_points", counting)
        filtered = spy_on_filter(monkeypatch)
        decision = decide(points)
        assert ran == [generic_program().run(figure.program_leaves())] and ran[0] and filtered == []
        assert decision.on_quadric is oracle_decide(points) is False

    def test_pinned_untraced_digest(self):
        """Random and on-quadric samples for seeds 1-3 at 2^64 and 2^256,
        decided untraced: the random ones reach the filter, which answers
        them NO, and the on-quadric ones have det M = 0 mod P and go
        straight to the untraced program, which answers them YES.  Every
        decision must stay byte-identical to this digest."""
        digest = hashlib.sha256()
        verdicts = []
        for bound in (2**64, 2**256):
            for seed in (1, 2, 3):
                for points in (
                    sample_generic(seed, 10, bound=bound),
                    sample_on_quadric(seed, 10, transformed=True, bound=bound),
                ):
                    decision = decide(points)
                    assert gated_figure(points)[1] is not decision.on_quadric
                    verdicts.append(decision.on_quadric)
                    line = json.dumps(decision.to_json(), sort_keys=True, separators=(",", ":"))
                    digest.update(line.encode() + b"\n")
        assert verdicts == [False, True] * 6
        assert digest.hexdigest() == (
            "03fc315eb43d590bb1359170883d646dfbb6c31699113f2b4008091a9f4294ff"
        )

    def test_decisions_with_and_without_the_filter(self, monkeypatch):
        """The filter changes no decision: on the sampled configurations and
        the fixtures, decision JSON with the filter and with it switched off
        are the same."""
        configs = self.sampled_configs() + generic_fixtures()
        filtered = [decide(points).to_json() for points in configs]
        monkeypatch.setattr(generic_case, "_no_mod_p", filter_off)
        assert [decide(points).to_json() for points in configs] == filtered

    def test_routed_by_det_m_mod_p(self, monkeypatch):
        """On the fixtures and on random and on-quadric samples from 2^6 to
        2^256, the filter runs on exactly the untraced decisions whose M
        has no zero and whose det M is nonzero mod P, on the figure
        the decision builds, and never on a YES or a traced decision.  The
        det M mod P of the routing, the `det4` of M's rows reduced mod P, is
        the cofactor determinant of M mod P."""
        configs = generic_fixtures()
        for bound in (2**6, 2**16, 2**32, 2**64, 2**256):
            for seed in (1, 2):
                configs.append(sample_generic(seed, 10, bound=bound))
                configs.append(sample_on_quadric(seed, 10, transformed=True, bound=bound))
        routes = []
        for points in configs:
            figure, gated = gated_figure(points)
            rows = figure.m.entries
            assert det4(*reduced_mod_p(rows)) % P == cofactor_det(rows) % P
            routes.append((gated, figure.points))
        ran = spy_on_filter(monkeypatch)
        verdicts = Counter()
        for points, (gated, relabeled) in zip(configs, routes):
            decision = decide(points)
            assert decision.branch == "generic"
            assert [figure_points for figure_points, _ in ran] == ([relabeled] if gated else [])
            assert not (gated and decision.on_quadric)
            verdicts[gated, decision.on_quadric] += 1
            ran.clear()
            assert decide(points, with_trace=True).to_json() == decision.to_json()
            assert ran == []
        assert verdicts == {(True, False): 18, (False, True): 10, (False, False): 1}

    def test_fuzz_reaches_the_filter(self, monkeypatch, capsys):
        """The fuzz driver's coordinates have at most 24 bits, and its
        generic NO configurations reach the filter, which answers some of
        them NO; every verdict agrees with the oracle."""
        runs = spy_on_filter(monkeypatch)
        assert cli.main(["fuzz", "--seed", "1", "--seeds", "2", "--count", "20"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["agreements"] == 40
        assert summary["disagreements"] == summary["errors"] == []
        assert any(answer for _, answer in runs)

    def test_built_lazily_once_on_the_first_gated_decision(self):
        """Importing the package builds no mod-p kernel; a YES decision,
        whose det M is 0 mod P, a traced one and one with a zero in row 0 of
        M compile no mod-p function, and the first untraced decision the
        filter runs on, a NO of small coordinates, builds the kernels and
        compiles the generic program's mod-p function, once."""
        large = sample_generic(1, 10, bound=2**64)
        on_quadric = sample_on_quadric(1, 10, transformed=True, bound=2**64)
        small = fixtures.generate_branch("generic", 1)
        transform = random_transform(random.Random("mod-p-lazy"), bound=2**40)
        zero_in_row_0 = [transform.apply(point) for point in chart_one_points()]
        figure, gated = gated_figure(zero_in_row_0)
        assert not figure.m.entries[0][0] and not gated
        assert cofactor_det(figure.m.entries) % P
        assert [gated_figure(points)[1] for points in (on_quadric, small)] == [False, True]
        configs = [
            (on_quadric, False),
            (large, True),
            (zero_in_row_0, False),
            (small, False),
            (large, False),
            (sample_generic(2, 10, bound=2**64), False),
        ]
        payload = [(cli.points_to_json(points)["points"], traced) for points, traced in configs]
        result = subprocess.run(
            [sys.executable, "-c", MOD_P_BUILD, str(SRC), json.dumps(payload)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["built_at_import"] == 0
        assert report["after_each"] == [[0, []]] * 3 + [[1, ["generic"]]] * 3


SRC = Path(__file__).resolve().parent.parent / "src"

# Imports the package from the source directory given, then decides the
# configurations given as JSON and reports how often the generic program was
# built and on what points.
LAZY_BUILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from quadricheck import cli, generic_case, reductions
program = generic_case.generic_program
built_at_import = program.cache_info().currsize
drawn, tetrahedra = [], []
real, real_tetrahedron = generic_case.construct_test_point, generic_case.Tetrahedron
def spy(points, col, trace=None, figure=None):
    if type(trace) is generic_case.Tape:
        drawn.append([list(p.coords) for p in points])
    return real(points, col, trace, figure)
def tetrahedron_spy(vertices, unit, tape=None):
    if tape is not None:
        tetrahedra.append([list(v.coords) for v in vertices])
    return real_tetrahedron(vertices, unit, tape)
generic_case.construct_test_point = spy
generic_case.Tetrahedron = tetrahedron_spy
for raw in json.loads(sys.argv[2]):
    reductions.decide(cli.load_points({"points": raw}).points)
print(json.dumps({
    "built_at_import": built_at_import,
    "builds": program.cache_info().misses,
    "compiled": sorted(set(vars(program())) & {"_untraced", "_traced"}),
    "drawn_on_a_tape": drawn,
    "tetrahedra_on_a_tape": tetrahedra,
}))
"""

# Imports the package from the source directory given, then decides the
# configurations given as JSON, each traced or not, and reports after each
# how often the mod-p kernels were built and which mod-p programs were
# compiled: the generic program, the one with a shared part.
MOD_P_BUILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from quadricheck import cli, constructions, extensors, reductions
built_at_import = extensors.modp_kernels.cache_info().currsize
compiled = []
real = constructions._program_source
def spy(tape, leaves, result, traced, mod_p=False, shared=None):
    if mod_p:
        compiled.append("figure" if shared is None else "generic")
    return real(tape, leaves, result, traced, mod_p, shared)
constructions._program_source = spy
after_each = []
for raw, traced in json.loads(sys.argv[2]):
    reductions.decide(cli.load_points({"points": raw}).points, with_trace=traced)
    after_each.append([extensors.modp_kernels.cache_info().misses, sorted(compiled)])
print(json.dumps({"built_at_import": built_at_import, "after_each": after_each}))
"""
