import json
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest

from conftest import (
    random_fraction,
    random_point,
    seeded,
    step_inputs,
    step_output,
    value_pair,
)
from reference_geometry import (
    INFINITY,
    ONES,
    other_auxiliaries,
    parameter_of,
    point_at_parameter,
    standard_tetrahedron,
)
from quadricheck import cli, constructions, extensors, fixtures, projective, reductions
from quadricheck.constructions import (
    ConstructionTrace,
    DegenerateMeet,
    InconsistentProjections,
    LineFrame,
    OnOppositeEdge,
    OutsideChart,
    SkewLines,
    StraightLine,
    Tape,
    Tetrahedron,
    TraceStep,
    _value_to_json,
    choose_auxiliaries,
    line_meet_line,
    local_param_point,
    project_to_edge,
    recover_from_chart,
    replay_mismatches,
    verify_replay,
    von_staudt_inverse,
    von_staudt_product,
)
from quadricheck.extensors import (
    P,
    Extensor,
    as_point,
    contains_point,
    join,
    line_through,
    meet,
    plane_through,
)
from quadricheck.generic_case import GenericFigure, construct_test_point
from quadricheck.oracle import sample_generic
from quadricheck.projective import (
    E0,
    E1,
    E2,
    E3,
    GeometryError,
    InfinityProduct,
    Point,
    bracket,
    clear_denominators,
    rank_of_points,
)

X_AXIS_FRAME = LineFrame(Point((1, 0, 0, 0)), Point((0, 1, 0, 0)), Point((1, 1, 0, 0)))


def frame_point(x):
    return point_at_parameter(X_AXIS_FRAME, Fraction(x))


def random_frame(rng):
    while True:
        z, i = random_point(rng), random_point(rng)
        if rank_of_points((z, i)) != 2:
            continue
        t = random_fraction(rng)
        if t in (0,):
            continue
        unit = Point(clear_denominators(a + t * b for a, b in zip(z.coords, i.coords)))
        if unit in (z, i):
            continue
        return LineFrame(z, i, unit)


class TestLineFrame:
    def test_rejects_non_collinear(self):
        with pytest.raises(ValueError):
            LineFrame(E0, E1, E2)

    def test_rejects_coincident(self):
        with pytest.raises(ValueError):
            LineFrame(E0, E0, E1)

    def test_checks_agree_with_ranks(self):
        """The unit is collinear with distinct zero and infinity exactly when
        the three points have rank 2, and the auxiliary direction is the
        first basis point that raises the rank of zero and infinity to 3."""
        rng = seeded("frame-ranks")
        for _ in range(200):
            zero, infinity = random_point(rng, 2), random_point(rng, 2)
            if zero == infinity:
                continue
            on_line = Point(tuple(a + rng.randint(1, 3) * b for a, b in zip(zero.coords, infinity.coords)))
            for unit in (random_point(rng, 2), on_line):
                if unit in (zero, infinity):
                    continue
                if rank_of_points((zero, infinity, unit)) > 2:
                    with pytest.raises(ValueError, match="frame points must be collinear"):
                        LineFrame(zero, infinity, unit)
                    continue
                frame = LineFrame(zero, infinity, unit)
                ranks = [rank_of_points((zero, infinity, e)) for e in (E0, E1, E2, E3)]
                assert frame.aux_index == ranks.index(3)

    def test_parameter_round_trip(self):
        rng = seeded("frame-roundtrip")
        for _ in range(20):
            f = random_frame(rng)
            x = random_fraction(rng)
            assert parameter_of(f, point_at_parameter(f, x)) == x
        assert point_at_parameter(f, INFINITY) == f.infinity
        assert parameter_of(f, f.zero) == 0
        assert parameter_of(f, f.infinity) is INFINITY
        assert parameter_of(f, f.unit) == 1


def coplanar_line_pairs(rng, count):
    """`count` pairs of distinct coplanar lines through random points."""
    while count:
        p, q, r = (random_point(rng) for _ in range(3))
        if rank_of_points((p, q, r)) != 3:
            continue
        a, b, c = (random_fraction(rng) for _ in range(3))
        s = Point(
            clear_denominators(a * x + b * y + c * z for x, y, z in zip(p.coords, q.coords, r.coords))
        )
        if rank_of_points((r, s)) != 2 or rank_of_points((p, q, s)) == 2:
            continue
        count -= 1
        yield line_through(p, q), line_through(r, s)


def count_witness_kernels(monkeypatch):
    """The returned list gets one entry per line_meet_line call, wherever
    made: the number of witness kernels the call runs."""
    per_call = []
    real_line_meet_line = constructions.line_meet_line

    def counting_line_meet_line(l1, l2):
        per_call.append(0)
        return real_line_meet_line(l1, l2)

    def counting(kernel):
        def run(c1, c2):
            per_call[-1] += 1
            return kernel(c1, c2)

        return run

    monkeypatch.setattr(constructions, "line_meet_line", counting_line_meet_line)
    monkeypatch.setattr(reductions, "line_meet_line", counting_line_meet_line)
    monkeypatch.setattr(
        constructions, "_WITNESS_MEETS", tuple(counting(k) for k in constructions._WITNESS_MEETS)
    )
    return per_call


class TestLineMeetLine:
    def test_concurrent_lines(self):
        l1 = line_through(E0, E1)
        l2 = line_through(E0, E2)
        assert line_meet_line(l1, l2) == E0

    def test_rejects_skew(self):
        with pytest.raises(SkewLines):
            line_meet_line(line_through(E0, E1), line_through(E2, E3))

    def test_rejects_equal(self):
        with pytest.raises(ValueError, match="coincide"):
            line_meet_line(line_through(E0, E1), line_through(E1, E0))

    def test_rejects_non_lines(self):
        line = line_through(E0, E1)
        for other in (E0, join(line, E2), Extensor.zero(0)):
            for args in ((line, other), (other, line)):
                with pytest.raises(ValueError, match="two lines"):
                    line_meet_line(*args)

    def test_coefficient_tuples_give_canonical_coordinates(self):
        """The figures pass the lines' coefficients and get the point's
        coordinates, with the same checks."""
        rng = seeded("line-meet-line-tuples")
        for l1, l2 in coplanar_line_pairs(rng, 10):
            assert line_meet_line(l1.coeffs, l2.coeffs) == line_meet_line(l1, l2).coords
        with pytest.raises(SkewLines):
            line_meet_line(line_through(E0, E1).coeffs, line_through(E2, E3).coeffs)
        with pytest.raises(ValueError, match="coincide"):
            line_meet_line(line_through(E0, E1).coeffs, line_through(E1, E0).coeffs)

    def test_matches_the_meet_with_the_first_witness_off_the_plane(self):
        rng = seeded("line-meet-line")
        for l1, l2 in coplanar_line_pairs(rng, 25):
            hits = (meet(l1, join(l2, w)) for w in (E0, E1, E2, E3))
            want = as_point(next(hit for hit in hits if not hit.is_zero()))
            assert line_meet_line(l1, l2) == want


class TestProjection:
    def test_standard_example(self):
        tet = standard_tetrahedron()
        assert project_to_edge(tet, 0, 1, Point((2, 3, 5, 7))) == Point((2, 3, 0, 0))

    def test_unit_projects_to_edge_unit(self):
        tet = standard_tetrahedron()
        assert project_to_edge(tet, 0, 1, ONES) == Point((1, 1, 0, 0))

    def test_opposite_edge_rejected(self):
        tet = standard_tetrahedron()
        with pytest.raises(OnOppositeEdge):
            project_to_edge(tet, 0, 1, Point((0, 0, 1, 1)))

    def test_matches_meet_of_edge_and_plane(self):
        """project_to_edge is meet(join(v_i, v_j), plane_through(v_k, v_l, p)),
        and a point on the opposite edge kl has no projection."""
        rng = seeded("projection-meet")
        built = 0
        while built < 10:
            vs = tuple(random_point(rng) for _ in range(4))
            try:
                tet = Tetrahedron(vs, random_point(rng))
            except ValueError:
                continue
            built += 1
            for i, j in permutations(range(4), 2):
                k, l = (m for m in range(4) if m not in (i, j))
                p = random_point(rng)
                if not contains_point(line_through(vs[k], vs[l]), p):
                    want = as_point(meet(join(vs[i], vs[j]), plane_through(vs[k], vs[l], p)))
                    assert project_to_edge(tet, i, j, p) == want
                on_opposite = Point(tuple(a + 2 * b for a, b in zip(vs[k].coords, vs[l].coords)))
                with pytest.raises(OnOppositeEdge):
                    project_to_edge(tet, i, j, on_opposite)

    def test_incidences_on_random_tetrahedron(self):
        rng = seeded("projection-incidence")
        built = 0
        while built < 10:
            vs = tuple(random_point(rng) for _ in range(4))
            unit = random_point(rng)
            try:
                tet = Tetrahedron(vs, unit)
            except ValueError:
                continue
            built += 1
            p = random_point(rng)
            for i, j in ((0, 1), (1, 3), (2, 0)):
                k, l = (m for m in range(4) if m not in (i, j))
                if contains_point(line_through(vs[k], vs[l]), p):
                    continue
                proj = project_to_edge(tet, i, j, p)
                assert rank_of_points((vs[i], vs[j], proj)) == 2
                assert rank_of_points((vs[k], vs[l], p, proj)) == 3


class TestRecovery:
    def test_coordinates_read_off(self):
        tet = standard_tetrahedron()
        projs = [Point((1, 3, 0, 0)), Point((1, 0, 5, 0)), Point((1, 0, 0, 7))]
        assert recover_from_chart(tet, 0, projs) == Point((1, 3, 5, 7))

    def test_round_trip_random(self):
        rng = seeded("recover-roundtrip")
        built = 0
        while built < 10:
            vs = tuple(random_point(rng) for _ in range(4))
            unit = random_point(rng)
            try:
                tet = Tetrahedron(vs, unit)
            except ValueError:
                continue
            p = random_point(rng)
            i = rng.randrange(4)
            others = [j for j in range(4) if j != i]
            try:
                projs = [project_to_edge(tet, i, j, p) for j in others]
            except OnOppositeEdge:
                continue
            if any(projs[k] == vs[j] for k, j in enumerate(others)):
                continue
            built += 1
            assert recover_from_chart(tet, i, projs) == p

    def test_untraced_recovery_is_the_traced_one(self, monkeypatch):
        """On every chart of random tetrahedra, untraced recovery, which
        expands the point in the vertex frame and meets no planes, gives
        the point that the traced one meets the planes at, or raises what
        it raises.  The projections are at random parameters, at the chart
        vertex (parameter 0) on one edge or on all three, or at an
        infinity vertex."""
        rng = seeded("recover-untraced")

        def outcome(tet, i, projs, trace):
            try:
                return recover_from_chart(tet, i, projs, trace)
            except GeometryError as exc:
                return type(exc), str(exc)

        met = []
        meet_planes = constructions._meet_planes
        monkeypatch.setattr(constructions, "_meet_planes", lambda *p: met.append(p) or meet_planes(*p))
        compared = Counter()
        while sum(compared.values()) < 6 * 4 * 6:
            try:
                tet = Tetrahedron(tuple(random_point(rng) for _ in range(4)), random_point(rng))
            except ValueError:
                continue
            for i in range(4):
                frames = [tet.edge_frame(i, j) for j in range(4) if j != i]
                for case in ("random", 0, 1, 2, "all at the vertex", "infinity"):
                    params = [random_fraction(rng) or Fraction(1) for _ in frames]
                    if case == "all at the vertex":
                        params = [0, 0, 0]
                    elif case == "infinity":
                        params[rng.randrange(3)] = INFINITY
                    elif case != "random":
                        params[case] = 0
                    projs = [point_at_parameter(f, x) for f, x in zip(frames, params)]
                    untraced = outcome(tet, i, projs, None)
                    assert not met
                    assert untraced == outcome(tet, i, projs, ConstructionTrace())
                    assert untraced == outcome(tet, i, projs, Tape())
                    assert bool(met) == (case != "infinity")
                    if case == "infinity":
                        assert untraced[0] is OutsideChart
                    else:
                        assert type(untraced) is Point
                    if case == "all at the vertex":
                        assert untraced == tet.vertices[i]
                    met.clear()
                    compared[case] += 1
        assert len(compared) == 6

    def test_infinity_vertex_rejected(self):
        tet = standard_tetrahedron()
        projs = [E1, Point((1, 0, 5, 0)), Point((1, 0, 0, 7))]
        with pytest.raises(OutsideChart):
            recover_from_chart(tet, 0, projs)

    def test_off_edge_rejected(self):
        tet = standard_tetrahedron()
        projs = [Point((1, 1, 1, 0)), Point((1, 0, 5, 0)), Point((1, 0, 0, 7))]
        with pytest.raises(InconsistentProjections):
            recover_from_chart(tet, 0, projs)


class TestChooseAuxiliaries:
    def test_postconditions(self):
        a, lprime = choose_auxiliaries(X_AXIS_FRAME)
        assert not contains_point(X_AXIS_FRAME.line, a)
        assert contains_point(lprime, X_AXIS_FRAME.zero)
        assert not contains_point(lprime, a)

    def test_first_candidate_regression(self):
        # deterministic enumeration: the first valid candidate is frozen
        a, lprime = choose_auxiliaries(X_AXIS_FRAME)
        assert a == Point((1, 2, 1, 0))
        again = choose_auxiliaries(X_AXIS_FRAME)
        assert again == (a, lprime)


class TestVonStaudtProduct:
    def test_unit_is_identity(self):
        py = frame_point(Fraction(7, 3))
        assert von_staudt_product(X_AXIS_FRAME, X_AXIS_FRAME.unit, py) == py

    def test_two_times_three(self):
        got = von_staudt_product(X_AXIS_FRAME, frame_point(2), frame_point(3))
        assert parameter_of(X_AXIS_FRAME, got) == 6

    def test_random_products(self):
        rng = seeded("products")
        for _ in range(30):
            f = random_frame(rng)
            x, y = random_fraction(rng), random_fraction(rng)
            px, py = point_at_parameter(f, x), point_at_parameter(f, y)
            assert parameter_of(f, von_staudt_product(f, px, py)) == x * y

    def test_commutative(self):
        rng = seeded("product-commute")
        for _ in range(15):
            f = random_frame(rng)
            px = point_at_parameter(f, random_fraction(rng))
            py = point_at_parameter(f, random_fraction(rng))
            assert von_staudt_product(f, px, py) == von_staudt_product(f, py, px)

    def test_zero_fallback_traced(self):
        trace = ConstructionTrace()
        got = von_staudt_product(
            X_AXIS_FRAME, X_AXIS_FRAME.zero, frame_point(5), trace=trace
        )
        assert got == X_AXIS_FRAME.zero
        # a product decided by incidence draws nothing, so it records no step
        assert trace.steps == []
        rng = seeded("degenerate-products")
        for _ in range(10):
            f = random_frame(rng)
            finite = point_at_parameter(f, random_fraction(rng) or 1)
            cases = (
                (f.zero, finite, f.zero),
                (finite, f.zero, f.zero),
                (f.infinity, finite, f.infinity),
                (f.zero, f.zero, f.zero),
                (f.infinity, f.infinity, f.infinity),
            )
            trace = ConstructionTrace()
            for px, py, want in cases:
                assert von_staudt_product(f, px, py, trace=trace) == want
            assert trace.steps == []

    def test_infinity_times_finite(self):
        got = von_staudt_product(X_AXIS_FRAME, X_AXIS_FRAME.infinity, frame_point(5))
        assert got == X_AXIS_FRAME.infinity

    def test_zero_times_infinity_rejected(self):
        with pytest.raises(InfinityProduct):
            von_staudt_product(X_AXIS_FRAME, X_AXIS_FRAME.zero, X_AXIS_FRAME.infinity)
        with pytest.raises(InfinityProduct):
            von_staudt_product(X_AXIS_FRAME, X_AXIS_FRAME.infinity, X_AXIS_FRAME.zero)

    def test_auxiliary_independence(self, monkeypatch):
        rng = seeded("aux-independence")
        cases = []
        for _ in range(10):
            f = random_frame(rng)
            px = point_at_parameter(f, random_fraction(rng))
            py = point_at_parameter(f, random_fraction(rng))
            cases.append((f, px, py, von_staudt_product(f, px, py)))
        monkeypatch.setattr(constructions, "choose_auxiliaries", other_auxiliaries)
        for f, px, py, default in cases:
            fresh = LineFrame(f.zero, f.infinity, f.unit)
            assert (fresh.scaffold.a, fresh.scaffold.lprime) != choose_auxiliaries(f)
            assert von_staudt_product(fresh, px, py) == default


class TestVonStaudtInverse:
    def test_unit_fixed(self):
        assert von_staudt_inverse(X_AXIS_FRAME, X_AXIS_FRAME.unit) == X_AXIS_FRAME.unit

    def test_zero_to_infinity(self):
        assert von_staudt_inverse(X_AXIS_FRAME, X_AXIS_FRAME.zero) == X_AXIS_FRAME.infinity

    def test_infinity_to_zero(self):
        assert von_staudt_inverse(X_AXIS_FRAME, X_AXIS_FRAME.infinity) == X_AXIS_FRAME.zero

    def test_specific_value(self):
        got = von_staudt_inverse(X_AXIS_FRAME, frame_point(Fraction(-3, 7)))
        assert parameter_of(X_AXIS_FRAME, got) == Fraction(-7, 3)

    def test_product_with_inverse_is_unit(self):
        rng = seeded("inverse-product")
        for _ in range(20):
            f = random_frame(rng)
            x = random_fraction(rng)
            px = point_at_parameter(f, x)
            assert von_staudt_product(f, px, von_staudt_inverse(f, px)) == f.unit


class TestLocalParamPoint:
    def test_d_on_plane_gives_zero_parameter(self):
        d = Point((1, 1, 0, 0))
        e = Point((0, 0, 1, 1))
        assert local_param_point(d, e, E0, E1, E2) == d

    def test_e_on_plane_gives_infinity(self):
        d = Point((1, 1, 1, 1))
        e = Point((1, 2, 3, 0))
        assert local_param_point(d, e, E0, E1, E2) == e

    def test_parameter_is_bracket_ratio(self):
        rng = seeded("local-param")
        done = 0
        while done < 25:
            d, e, a, b, c = (random_point(rng) for _ in range(5))
            if rank_of_points((d, e)) != 2 or join(join(a, b), c).is_zero():
                continue
            num, den = bracket(a, b, c, d), bracket(a, b, c, e)
            if num == 0 and den == 0:
                continue
            done += 1
            p = local_param_point(d, e, a, b, c)
            unit = Point(tuple(x + y for x, y in zip(d.coords, e.coords)))
            frame = LineFrame(d, e, unit)
            got = parameter_of(frame, p)
            if den == 0:
                assert got is INFINITY
            else:
                assert got == Fraction(-num, den)

    def test_degenerate_meet(self):
        with pytest.raises(DegenerateMeet):
            local_param_point(E0, E1, E0, E1, E2)


class TestTraceReplay:
    def test_product_trace_replays_bit_exactly(self):
        trace = ConstructionTrace()
        f = X_AXIS_FRAME
        von_staudt_product(f, frame_point(Fraction(2, 3)), frame_point(Fraction(-7, 5)), trace=trace)
        von_staudt_inverse(f, frame_point(Fraction(9, 4)), trace=trace)
        local_param_point(Point((1, 1, 1, 1)), Point((1, 2, 3, 4)), E0, E1, E2, trace=trace)
        payload = json.dumps(trace.to_json())
        restored = ConstructionTrace.from_json(json.loads(payload))
        assert verify_replay(restored)
        assert replay_mismatches(restored) == []
        assert restored == trace

    def test_replay_meets_coplanar_lines_about_once(self, monkeypatch):
        """Every line_meet_line of a generic decision and of its replay runs
        exactly one witness kernel: E3, the first one tried, is off the
        plane of every figure.  A decision meets coplanar lines 72 times:
        6 per edge for its product and inverse, on 12 edges.  The frames
        program meets each of its 3 frames' p1' and c2 as the meet of a line
        it joined, with no call.  The replay meets those 6 pairs of lines
        too, where the trace records them, so it meets 78 pairs, each
        once."""
        per_call = count_witness_kernels(monkeypatch)
        for seed in (1, 2):
            points = fixtures.generate_branch("generic", seed)
            per_call.clear()
            decision = reductions.decide(points, with_trace=True)
            assert decision.branch == "generic"
            assert per_call == [1] * 72
            trace = ConstructionTrace.from_json(json.loads(json.dumps(decision.trace.to_json())))
            per_call.clear()
            assert verify_replay(trace)
            assert per_call == [1] * 78

    def test_projection_and_recover_trace(self):
        trace = ConstructionTrace()
        tet = standard_tetrahedron()
        p = Point((3, 5, 7, 11))
        projs = [project_to_edge(tet, 0, j, p) for j in (1, 2, 3)]
        got = recover_from_chart(tet, 0, projs, trace=trace)
        assert got == p
        # the three planes meet as two meets: the first two in a line,
        # which meets the third in the point
        assert [s.op for s in trace.steps] == ["join"] * 3 + ["meet"] * 2
        planes = [step_output(s) for s in trace.steps[:3]]
        cut, last = trace.steps[3:]
        assert step_inputs(cut) == planes[:2] and step_output(cut)[0] == 2
        assert step_inputs(last) == [step_output(cut), planes[2]]
        assert step_output(last) == value_pair(p)
        restored = ConstructionTrace.from_json(trace.to_json())
        assert verify_replay(restored)

    def test_generic_traces_hold_only_joins_and_meets(self):
        for seed in range(1, 9):
            decision = reductions.decide(fixtures.generate_branch("generic", seed), with_trace=True)
            assert decision.branch == "generic"
            restored = ConstructionTrace.from_json(json.loads(json.dumps(decision.trace.to_json())))
            for trace in (decision.trace, restored):
                assert trace.steps
                assert {s.op for s in trace.steps} <= {"join", "meet"}
                assert verify_replay(trace)

    def test_fraction_string_coefficients_rejected(self):
        """Trace values are integers: a coefficient or coordinate spelled as
        a fraction does not parse, even when its value is an integer."""
        trace = ConstructionTrace()
        vertices = tuple(Point(v) for v in ((2, 1, -3, 5), (1, -4, 2, 2), (3, 3, 1, -1), (-1, 2, 5, 4)))
        frame = Tetrahedron(vertices, ONES).edge_frame(0, 2)
        px, py = point_at_parameter(frame, Fraction(2, 3)), point_at_parameter(frame, -5)
        von_staudt_product(frame, px, py, trace=trace)
        von_staudt_inverse(frame, px, trace=trace)
        text = json.dumps(trace.to_json())
        restored = ConstructionTrace.from_json(json.loads(text))
        assert replay_mismatches(restored) == [] and restored == trace

        def values(payload, kind):
            every = payload["leaves"] + [step["output"] for step in payload["steps"]]
            return [v for v in every if kind in v]

        halves = json.loads(text)
        for value in values(halves, "extensor"):
            value["extensor"]["coeffs"] = [f"{2 * int(c)}/2" for c in value["extensor"]["coeffs"]]
        with pytest.raises(ValueError):
            ConstructionTrace.from_json(halves)
        one_half = json.loads(text)
        values(one_half, "extensor")[0]["extensor"]["coeffs"][0] = "1/2"
        with pytest.raises(ValueError):
            ConstructionTrace.from_json(one_half)
        one_half = json.loads(text)
        values(one_half, "point")[0]["point"][0] = "1/2"
        with pytest.raises(ValueError):
            ConstructionTrace.from_json(one_half)

    def test_every_input_id_precedes_use(self):
        trace = ConstructionTrace()
        von_staudt_product(X_AXIS_FRAME, frame_point(4), frame_point(5), trace=trace)
        payload = trace.to_json()
        for k, step in enumerate(payload["steps"]):
            assert all(type(i) is int and 0 <= i < len(payload["leaves"]) + k for i in step["inputs"])


def written(grade, coeffs):
    """A trace value as JSON writes it: a grade-1 value as a point."""
    if grade == 1:
        return {"point": [str(c) for c in coeffs]}
    return {"extensor": {"grade": grade, "coeffs": [str(c) for c in coeffs]}}


class TestTraceFormat:
    """`steps` lists each step with its input values; in JSON each value is
    written once, as a leaf or as a step output, and every input is an int
    that names an earlier one."""

    @pytest.fixture(scope="class")
    def decided(self):
        pairs = []
        for seed in (1, 2):
            points = fixtures.generate_branch("generic", seed)
            decision = reductions.decide(points, with_trace=True)
            assert decision.branch == "generic"
            pairs.append((points, decision))
        return pairs

    def test_round_trip_restores_every_step(self, decided):
        """Every step's op, grades, inputs and output survive the round
        trip: on the two fixtures, on coordinates up to 2^64, and on fuzz
        seed 5, indices 4, 9 and 19, whose steps repeat by value and whose
        traces are not the 217-step shape of the others."""
        decisions = [decision for _, decision in decided]
        configs = [sample_generic("round-trip", 10, bound=2**64)]
        configs += [cli.fuzz_configuration(5, index) for index in (4, 9, 19)]
        decisions += [reductions.decide(points, with_trace=True) for points in configs]
        assert all(decision.branch == "generic" for decision in decisions)
        assert all(len(decision.trace.steps) != 217 for decision in decisions[3:])
        for decision in decisions:
            payload = json.loads(json.dumps(decision.trace.to_json()))
            restored = ConstructionTrace.from_json(payload)
            assert restored == decision.trace
            assert restored.to_json() == payload

    def test_each_input_value_written_once(self, decided):
        for _, decision in decided:
            payload = decision.trace.to_json()
            leaves = payload["leaves"]
            assert len({json.dumps(leaf, sort_keys=True) for leaf in leaves}) == len(leaves)
            first = {}  # value -> the first step that outputs it
            for k, (step, raw) in enumerate(zip(decision.trace.steps, payload["steps"])):
                assert len(raw["inputs"]) == len(step.inputs)
                for value, i in zip(step_inputs(step), raw["inputs"]):
                    assert type(i) is int and 0 <= i < len(leaves) + k
                    if value in first:
                        assert i == len(leaves) + first[value]
                    else:
                        assert leaves[i] == written(*value)
                first.setdefault(step_output(step), k)

    def test_generic_leaves_are_the_inputs_and_frame_choices(self, decided):
        for points, decision in decided:
            figure = GenericFigure(decision.labeling.apply(points))
            expected = set(points)
            for col in range(4):
                column = figure.m.column(col)
                chart = next(r for r in range(4) if column[r] != 0)
                for j in range(4):
                    if j != chart:
                        frame = figure.tetrahedron.edge_frame(chart, j)
                        expected |= {frame.unit, frame.scaffold.a, frame.scaffold.lprime}
            leaves = decision.trace.to_json()["leaves"]
            assert len(leaves) == len(expected)
            assert all(written(*value_pair(value)) in leaves for value in expected)


def step_key(step):
    """A step's op and input values."""
    return (step.op, *step_inputs(step))


class TestTraceDedup:
    """A trace records each (op, input values) once: a figure that reuses a
    memoized part reads the first step that built it."""

    def test_no_step_repeats_an_earlier_one(self):
        configs = [fixtures.generate_branch("generic", seed) for seed in range(1, 9)]
        # fuzz seed 5 with small coordinates: on indices 4, 9 and 19 a
        # meet-point equals its frame's unit, so steps repeat by value and
        # not by identity
        configs += [cli.fuzz_configuration(5, index) for index in range(20)]
        traced = []
        for index, points in enumerate(configs):
            decision = reductions.decide(points, with_trace=True)
            if decision.trace is None:
                continue
            keys = [step_key(step) for step in decision.trace.steps]
            assert len(set(keys)) == len(keys), index
            traced.append(index - 8)
        assert {4, 9, 19} <= set(traced)

    def test_generic_fixtures_record_217_steps(self):
        for seed in range(1, 9):
            decision = reductions.decide(fixtures.generate_branch("generic", seed), with_trace=True)
            assert len(decision.trace.steps) == 217
            assert sum(step.op == "join" for step in decision.trace.steps) == 107

    def test_a_repeated_construction_records_nothing(self):
        trace = ConstructionTrace()
        px, py = frame_point(Fraction(2, 3)), frame_point(-5)
        von_staudt_product(X_AXIS_FRAME, px, py, trace=trace)
        assert len(trace.steps) == 9
        von_staudt_product(X_AXIS_FRAME, px, py, trace=trace)
        assert len(trace.steps) == 9
        # equal values, not the same objects, make a repeat
        von_staudt_product(X_AXIS_FRAME, Point(px.coords), Point(py.coords), trace=trace)
        assert len(trace.steps) == 9
        # a new second factor adds only the four steps that read it
        von_staudt_product(X_AXIS_FRAME, px, frame_point(7), trace=trace)
        assert len(trace.steps) == 9 + 4

    def test_a_trace_with_a_repeated_step_loads_and_replays(self):
        """A trace written before steps were recorded once still reads, keeps
        its steps as written, and replays."""
        e01, e02 = (_value_to_json(2, join(E0, e).coeffs) for e in (E1, E2))
        payload = {
            "leaves": [{"point": p.to_strings()} for p in (E0, E1, E2)],
            "steps": [
                {"op": "join", "inputs": [0, 1], "output": e01},
                {"op": "join", "inputs": [0, 1], "output": e01},
                {"op": "join", "inputs": [0, 2], "output": e02},
                {"op": "meet", "inputs": [3, 5], "output": {"point": E0.to_strings()}},
            ],
        }
        trace = ConstructionTrace.from_json(json.loads(json.dumps(payload)))
        assert len(trace.steps) == 4
        assert trace.steps[0] == trace.steps[1]
        assert verify_replay(trace)
        assert trace.to_json() == payload


class TestWitnessOrder:
    """Every line of a frame's von Staudt figures lies in the plane through
    the frame's line and its auxiliary direction E_aux, which also holds
    every E_m with m < aux, so line_meet_line, trying E3, E2, E1, E0 in
    turn, reaches the basis points off that plane before those in it."""

    def frames(self):
        rng = seeded("witness-order")
        frames = [
            X_AXIS_FRAME,  # auxiliary E2, plane E0E1E2
            LineFrame(E2, E3, Point((0, 0, 2, 3))),  # auxiliary E0, plane E0E2E3
            LineFrame(E1, Point((3, -2, 5, 7)), Point((3, -1, 5, 7))),  # plane holds E0, E1
        ]
        while len(frames) < 12:
            try:
                tet = Tetrahedron(tuple(random_point(rng) for _ in range(4)), random_point(rng))
            except ValueError:
                continue
            i, j = rng.sample(range(4), 2)
            frames.append(tet.edge_frame(i, j))
        return frames

    def test_aux_index_and_off_plane_witnesses_first(self):
        basis = (E0, E1, E2, E3)
        for frame in self.frames():
            k = frame.aux_index
            assert rank_of_points((frame.zero, frame.infinity, basis[k])) == 3
            assert all(contains_point(frame.line, basis[m]) for m in range(k))
            plane = join(frame.line, basis[k])
            off = [m for m in (3, 2, 1, 0) if not contains_point(plane, basis[m])]
            assert off and all(m > k for m in off)

    def test_kernel_calls_reach_the_first_witness_off_the_plane(self, monkeypatch):
        """Each of the 8 line_meet_line calls of a fresh frame's product and
        inverse runs one witness kernel per basis point it tries, up to the
        first one off the frame plane in the order E3, E2, E1, E0."""
        basis = (E0, E1, E2, E3)
        per_call = count_witness_kernels(monkeypatch)
        rng = seeded("witness-order-meets")
        kernels = []
        for shared in self.frames():
            # a fresh frame builds its scaffold, and with it p1' and c2, here
            frame = LineFrame(shared.zero, shared.infinity, shared.unit)
            plane = join(frame.line, basis[frame.aux_index])
            tried = next(
                n for n, m in enumerate((3, 2, 1, 0), 1) if not contains_point(plane, basis[m])
            )
            per_call.clear()
            x, y = (Fraction(rng.choice((-1, 1)) * rng.randint(2, 9), rng.randint(1, 9)) for _ in "xy")
            px, py = point_at_parameter(frame, x), point_at_parameter(frame, y)
            product = von_staudt_product(frame, px, py)
            inverse = von_staudt_inverse(frame, px)
            assert parameter_of(frame, product) == x * y
            assert parameter_of(frame, inverse) == 1 / x
            # product: p1', py', b, result; inverse: c1, a, c2, result
            assert per_call == [tried] * 8
            kernels.append(sum(per_call))
        # the X-axis frame misses E3, the E2E3 frame holds E3 and E2
        assert kernels[:3] == [8, 24, 8]


def count_extensors(monkeypatch):
    """The returned list gets the name of the constructor of every
    Extensor built: Extensor(...), Point(...), or `_trusted` or
    `_trusted_point` wherever the package binds them."""
    built = []

    def counting(name, real):
        def run(*args):
            built.append(name)
            return real(*args)

        return run

    for module in (projective, extensors, constructions):
        for name in ("_trusted", "_trusted_point"):
            if name in vars(module):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    for cls in (Extensor, Point):
        monkeypatch.setattr(cls, "__init__", counting(cls.__name__, cls.__init__))
    return built


class TestTuplePath:
    """The figures run on coefficient tuples: untraced, a public
    construction builds no Extensor but the Point it returns."""

    def test_untraced_product_and_inverse_build_only_their_result(self, monkeypatch):
        rng = seeded("tuple-path")
        cases = []
        for frame in [X_AXIS_FRAME] + [random_frame(rng) for _ in range(8)]:
            frame.scaffold  # the frame's memos are built once, on first read
            px, py = (point_at_parameter(frame, random_fraction(rng) or 1) for _ in "xy")
            cases.append((frame, px, py))
        built = count_extensors(monkeypatch)
        for frame, px, py in cases:
            for figure in (
                lambda: von_staudt_product(frame, px, py),
                lambda: von_staudt_inverse(frame, px),
                lambda: von_staudt_inverse(frame, frame.zero),
            ):
                built.clear()
                figure()
                assert built == ["_trusted_point"]
            built.clear()
            # a product decided by incidence returns the frame's own point
            assert von_staudt_product(frame, frame.zero, py) is frame.zero
            assert built == []

    def test_untraced_test_point_builds_only_the_returned_points(self, monkeypatch):
        """On a figure whose frames are built, a column's test point builds
        13 Points: per edge the two meet-points, the product and its
        inverse, and the recovered point."""
        points = fixtures.generate_branch("generic", 1)
        points = reductions.decide(points).labeling.apply(points)
        figure = GenericFigure(points)
        for col in range(4):
            construct_test_point(points, col, figure=figure)
        built = count_extensors(monkeypatch)
        for col in range(4):
            built.clear()
            construct_test_point(points, col, figure=figure)
            assert built == ["_trusted_point"] * 13


class TestTraceValues:
    """A trace holds each step as coefficient tuples: recording, writing,
    reading, replaying and reading `steps` make no value object."""

    def test_tracing_defers_value_objects(self, monkeypatch):
        built = count_extensors(monkeypatch)
        for seed in (1, 2):
            points = fixtures.generate_branch("generic", seed)
            built.clear()
            reductions.decide(points)
            untraced = list(built)
            built.clear()
            viewed = reductions.decide(points, with_trace=True)
            plain = reductions.decide(points, with_trace=True)
            assert viewed.branch == "generic"
            assert built == untraced * 2
            payload = plain.trace.to_json()
            built.clear()
            restored = ConstructionTrace.from_json(json.loads(json.dumps(payload)))
            assert verify_replay(restored)
            assert built == []
            steps = viewed.trace.steps
            assert all(type(step) is TraceStep for step in steps)
            assert built == []
            assert viewed.trace.to_json() == payload

    def test_a_grade_one_value_is_a_point(self):
        """A grade-1 value written as an extensor is read as the point of
        its coefficients, which must be canonical."""
        line = _value_to_json(2, join(E0, E1).coeffs)

        def trace(first):
            return {
                "leaves": [first, {"point": E1.to_strings()}],
                "steps": [{"op": "join", "inputs": [0, 1], "output": line}],
            }

        restored = ConstructionTrace.from_json(trace({"extensor": {"grade": 1, "coeffs": E0.to_strings()}}))
        assert verify_replay(restored)
        assert step_inputs(restored.steps[0])[0] == value_pair(E0)
        assert restored.to_json() == trace({"point": E0.to_strings()})
        for coeffs in (["2", "0", "0", "0"], ["-1", "0", "0", "0"], ["0", "0", "0", "0"]):
            with pytest.raises(ValueError):
                ConstructionTrace.from_json(trace({"extensor": {"grade": 1, "coeffs": coeffs}}))

    def test_a_grade_is_an_int(self):
        """A value's grade is a JSON integer, checked like a step input: a
        float, a string or a bool is refused rather than read as the int
        it converts to, which would not write back as it was read."""
        line = _value_to_json(2, join(E0, E1).coeffs)

        def trace(grade):
            return {
                "leaves": [{"point": p.to_strings()} for p in (E0, E1)],
                "steps": [
                    {"op": "join", "inputs": [0, 1], "output": {"extensor": {**line["extensor"], "grade": grade}}}
                ],
            }

        assert ConstructionTrace.from_json(trace(2)).to_json() == trace(2)
        for grade in (2.9, 2.0, "2", " 2 ", True):
            with pytest.raises(ValueError, match="grade must be 0..4"):
                ConstructionTrace.from_json(json.loads(json.dumps(trace(grade))))

    def test_integers_past_the_int_text_digit_limit(self):
        """A coordinate of more digits than `int` and `str` convert under
        the interpreter's default limit of 4,300 is read and written; long
        text that is not an integer is still refused."""
        big = 7**6000
        text = str(Decimal(big))
        assert len(text) > 4300
        p = Point((big, 1, 0, 0))
        payload = {
            "leaves": [{"point": [text, "1", "0", "0"]}, {"point": E1.to_strings()}],
            "steps": [
                {
                    "op": "join",
                    "inputs": [0, 1],
                    "output": {"extensor": {"grade": 2, "coeffs": [text, "0", "0", "0", "0", "0"]}},
                }
            ],
        }
        restored = ConstructionTrace.from_json(payload)
        assert step_inputs(restored.steps[0]) == [value_pair(p), value_pair(E1)]
        assert step_output(restored.steps[0]) == (2, (big, 0, 0, 0, 0, 0))
        assert verify_replay(restored)
        assert restored.to_json() == payload
        for bad in (text + "/2", text + ".0", "1e" + text, text[:-1] + "x"):
            tampered = json.loads(json.dumps(payload))
            tampered["leaves"][0]["point"][0] = bad
            with pytest.raises(ValueError):
                ConstructionTrace.from_json(tampered)


def product_figure(frame, px, py):
    """A von Staudt product drawn on a Tape: the tape, the values it reads
    and no step of it outputs, in the order the figure first reads them,
    and the product's coordinates."""
    tape = Tape()
    result = von_staudt_product(frame, px, py, tape)
    made, leaves = set(), {}
    for entry in tape.steps:
        step = type(entry) is TraceStep
        for value in entry.inputs if step else entry[1:]:
            if id(value) not in made:
                leaves.setdefault(id(value), value)
        if step:
            made.add(id(entry.output))
    return tape, tuple(leaves.values()), result.coords


class TestStraightLine:
    def test_a_product_ending_in_a_coplanar_meet(self):
        """The program of one von Staudt product, whose result is a meet of
        coplanar lines: untraced, it holds that point up to scale and
        returns it canonical, and on the leaves of other frames and factors
        it gives the product the figure draws there, traced or not."""
        rng = seeded("straight-line-product")

        def factor(frame):
            x = Fraction(rng.choice((-1, 1)) * rng.randint(2, 9), rng.randint(1, 9))
            return point_at_parameter(frame, x)

        frame = random_frame(rng)
        tape, leaves, result = product_figure(frame, factor(frame), factor(frame))
        source = constructions._program_source(tape, leaves, result, traced=False)
        assert source.splitlines()[-1].strip().startswith("return canon(")
        program = StraightLine(tape, leaves, result)
        for _ in range(10):
            other = random_frame(rng)
            px, py = factor(other), factor(other)
            _, other_leaves, want = product_figure(other, px, py)
            assert program.run(other_leaves) == want
            trace, drawn = ConstructionTrace(), ConstructionTrace()
            assert program.run(other_leaves, trace) == want
            von_staudt_product(other, px, py, drawn)
            assert trace.steps == drawn.steps

    def test_a_meet_of_lines_it_did_not_join(self):
        """A program of one meet of two line leaves, which it did not join:
        the untraced function meets them in `line_meet_line` and returns
        its canonical point, and the mod-p function, whose `line_meet_line`
        declines, returns None.  The lines through p = (1, a, 0, 0) have
        coefficients in 0..P-1, so they are their own reductions mod P,
        on which `line_meet_line` itself would find p."""
        for a, b, c in ((1, 2, 3), (2, 5, 1), (4, 1, 3)):
            p = (1, a, 0, 0)
            l1 = constructions._join(None, p, (0, 0, 1, b))
            l2 = constructions._join(None, p, (0, 0, c, 1))
            assert min(l1 + l2) >= 0 and constructions.reduced_mod_p((l1, l2)) == (l1, l2)
            tape = Tape()
            result = constructions._meet_lines(tape, l1, l2)
            program = StraightLine(tape, (l1, l2), result)
            scaled = tuple(tuple(3 * k for k in line) for line in (l1, l2))
            assert program.run((l1, l2)) == program.run(scaled) == line_meet_line(l1, l2) == p
            assert program.run_mod_p((l1, l2)) is None

    def test_a_joined_line_that_another_step_reads(self):
        """A loop over columns whose body joins the line pq, meets it with
        the shared line rs, and meets the line yz with the plane of pq and
        x.  The untraced loop hands `meet_of_join` the points p and q, and
        joins the line pq only where the plane reads it, just before the
        plane; the traced loop joins it first.  Both give the bracket of the drawn points."""
        r, s, t = (1, 2, 0, 3), (0, 1, 4, 1), (2, 0, 1, 1)
        shared = Tape()
        rs = constructions._join(shared, r, s)

        def draw(tape, p, q, x, y, z):
            pq = constructions._join(tape, p, q)
            constructions._meet_lines(tape, pq, rs)
            plane = constructions._join_line_point(pq, x)
            constructions._record(tape, "join", (2, 1, 3), (pq, x), plane)
            line = constructions._join(tape, y, z)
            point = constructions._canonical_nonzero(constructions._meet_line_plane(line, plane))
            constructions._record(tape, "meet", (2, 3, 1), (line, plane), point)
            return point

        def on_plane(a, b, c):
            return tuple(a * i + b * j + c * k for i, j, k in zip(r, s, t))

        columns = (
            (on_plane(1, 0, 1), on_plane(0, 1, 2), (1, 0, 0, 0), (0, 1, 0, 5), (3, 0, 1, 1)),
            (on_plane(2, 1, 1), on_plane(1, 3, 0), (0, 3, 1, 0), (2, 0, 1, 1), (1, 1, 1, 1)),
            (on_plane(1, 1, 3), on_plane(0, 2, 1), (1, 1, 0, 2), (0, 0, 1, 0), (4, 1, 0, 1)),
            (on_plane(3, 0, 2), on_plane(1, 0, 5), (5, 0, 2, 1), (1, 4, 0, 0), (0, 2, 3, 1)),
        )
        tape = Tape()
        figure = (tape, columns[0], draw(tape, *columns[0]), (shared, (r, s)))
        program = StraightLine(*figure)
        leaves = ((r, s), columns)
        want = projective.det4(*(draw(None, *column) for column in columns))
        assert want and program.run(leaves) == program.run(leaves, ConstructionTrace()) == want
        for traced in (False, True):
            source = constructions._program_source(*figure[:3], traced, False, figure[3])
            lines = [line.strip() for line in source.splitlines()]
            meets = ("meet_of_join(", "line_meet_line(")
            meet = next(i for i, line in enumerate(lines) if any(m in line for m in meets))
            join = next(i for i, line in enumerate(lines) if line.endswith(" = jp(b0, b1)"))
            pq = lines[join].split(" = ")[0]
            plane = next(i for i, line in enumerate(lines) if line.endswith(f" = jlp({pq}, b2)"))
            if traced:
                assert join < meet < plane
            else:
                assert lines[meet].endswith(" = meet_of_join(w0, w1, b0, b1, v0)")
                assert meet < join == plane - 2


class TestMeetOfJoin:
    """`meet_of_join` of the untraced and the mod-p programs: the point
    [πp]q - [πq]p where the line pq meets a coplanar line l2, from the
    brackets of p and q with the plane π = join(l2, E3), or None where p
    and q are dependent.  It reads the points p and q, never their line.
    The line l2 runs through r and s, and the points below lie in a plane
    with it."""

    r, s, t = (1, 2, 0, 3), (0, 1, 4, 1), (2, 0, 1, 1)
    l2 = constructions._join(None, r, s)

    def on_plane(self, a, b, c):
        return tuple(a * x + b * y + c * z for x, y, z in zip(self.r, self.s, self.t))

    def brackets(self, p, q, mod_p=False):
        if mod_p:
            l2, p, q = constructions.reduced_mod_p((self.l2, p, q))
            wb = extensors.modp_kernels()[2]
        else:
            l2, wb = self.l2, extensors._WITNESS_BRACKETS[3]
        return wb(l2, p)[0], wb(l2, q)[0], p, q, l2

    def run(self, p, q, mod_p=False):
        al, be, p, q, l2 = self.brackets(p, q, mod_p)
        meet = constructions._meet_of_join_mod_p if mod_p else constructions._meet_of_join
        return meet(al, be, p, q, l2)

    def test_independent_points(self):
        """The point [πp]q - [πq]p, over Z divided by gcd([πp], [πq]), and
        mod P reduced; made canonical, it is where the lines meet."""
        p, q = self.on_plane(1, 0, 1), self.on_plane(0, 1, 2)
        al, be, _, _, _ = self.brackets(p, q)
        g = gcd(al, be)
        assert al and be and g > 1
        point = tuple((al * y - be * x) // g for x, y in zip(p, q))
        joined = constructions._join_points(p, q)
        assert self.run(p, q) == point
        assert constructions._canonical_nonzero(point) == line_meet_line(joined, self.l2)
        assert self.run(p, q, mod_p=True) == tuple(g * c % P for c in point)

    def test_dependent_points_with_a_nonzero_bracket(self):
        """p and a multiple of it: the point is zero, so None, as a guard on
        their zero join would decline, exactly and mod P."""
        p = self.on_plane(1, 0, 1)
        for q in (p, tuple(3 * c for c in p), tuple(-2 * c for c in p)):
            al, be, _, _, _ = self.brackets(p, q)
            assert al and be
            assert not any(constructions._join_points(p, q))
            assert self.run(p, q) is None
            assert self.run(p, q, mod_p=True) is None

    def test_both_brackets_zero(self):
        """p and q on π, which holds E3: over Z the line pq is joined and
        meets l2 in `line_meet_line`, None where p and q are dependent;
        mod P, where the point is not known, None."""
        e3 = E3.coords
        p = tuple(x + e for x, e in zip(self.r, e3))
        q = tuple(x + 2 * e for x, e in zip(self.s, e3))
        assert self.brackets(p, q)[:2] == (0, 0)
        joined = constructions._join_points(p, q)
        want = line_meet_line(joined, self.l2)
        assert self.run(p, q) == want
        assert self.run(p, q, mod_p=True) is None
        for dependent in (p, tuple(5 * c for c in p)):
            assert not any(constructions._join_points(p, dependent))
            assert self.run(p, dependent) is None
            assert self.run(p, dependent, mod_p=True) is None


class TestTetrahedron:
    def test_unit_on_face_rejected(self):
        with pytest.raises(ValueError):
            Tetrahedron((E0, E1, E2, E3), Point((1, 1, 1, 0)))

    def test_coplanar_vertices_rejected(self):
        with pytest.raises(ValueError):
            Tetrahedron((E0, E1, E2, Point((1, 1, 0, 0))), ONES)

    def test_vertex_check_agrees_with_rank(self):
        rng = seeded("tetrahedron-ranks")
        rejected = 0
        for _ in range(200):
            vertices = tuple(random_point(rng, 1) for _ in range(4))
            if rank_of_points(vertices) == 4:
                Tetrahedron(vertices, Point(tuple(map(sum, zip(*(v.coords for v in vertices))))))
                continue
            rejected += 1
            with pytest.raises(ValueError, match="four points in general position"):
                Tetrahedron(vertices, ONES)
        assert rejected > 20

    def test_edge_frame_unit(self):
        tet = standard_tetrahedron()
        frame = tet.edge_frame(0, 1)
        assert frame.zero == E0 and frame.infinity == E1
        assert frame.unit == Point((1, 1, 0, 0))

    def test_edge_lines_built_once_and_read_by_frames(self):
        rng = seeded("tetrahedron-edge-lines")
        vs = tuple(random_point(rng) for _ in range(4))
        tet = Tetrahedron(vs, ONES)
        for i, j in permutations(range(4), 2):
            line = tet.edge_line(i, j)
            assert line == line_through(vs[i], vs[j])
            assert tet.edge_line(i, j) is line
            assert tet.edge_frame(i, j).line == line

    def test_edge_frame_reversed_orientation(self):
        tet = standard_tetrahedron()
        frame = tet.edge_frame(2, 0)
        assert frame.zero == E2 and frame.infinity == E0
        assert frame.unit == Point((1, 0, 1, 0))
