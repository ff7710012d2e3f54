import json
from fractions import Fraction

import pytest

from conftest import random_fraction, random_point, seeded
from reference_geometry import (
    INFINITY,
    ONES,
    other_auxiliaries,
    parameter_of,
    point_at_parameter,
    standard_tetrahedron,
)
from quadricheck import constructions, fixtures, reductions
from quadricheck.constructions import (
    ConstructionTrace,
    DegenerateMeet,
    InconsistentProjections,
    LineFrame,
    OnOppositeEdge,
    OutsideChart,
    Tetrahedron,
    WitnessPlanes,
    choose_auxiliaries,
    line_meet_line,
    local_param_point,
    project_to_edge,
    recover_from_chart,
    replay_trace,
    verify_replay,
    von_staudt_inverse,
    von_staudt_product,
)
from quadricheck.extensors import contains_point, join, line_through
from quadricheck.generic_case import GenericFigure
from quadricheck.projective import (
    E0,
    E1,
    E2,
    E3,
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


class TestLineMeetLine:
    def test_concurrent_lines(self):
        l1 = line_through(E0, E1)
        l2 = line_through(E0, E2)
        assert line_meet_line(l1, l2) == E0

    def test_rejects_skew(self):
        with pytest.raises(ValueError):
            line_meet_line(line_through(E0, E1), line_through(E2, E3))

    def test_rejects_equal(self):
        with pytest.raises(ValueError):
            line_meet_line(line_through(E0, E1), line_through(E1, E0))


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
        assert not contains_point(X_AXIS_FRAME.line(), a)
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
        outputs = replay_trace(restored)
        assert outputs == [s.output for s in trace.steps]

    def test_replay_meets_coplanar_lines_about_once(self, monkeypatch):
        """A replay keeps one WitnessPlanes per second line of its meet
        steps, so a line's first meet may miss, and later ones do not."""
        traces = []
        for seed in (1, 2):
            decision = reductions.decide(fixtures.generate_branch("generic", seed), with_trace=True)
            traces.append(ConstructionTrace.from_json(json.loads(json.dumps(decision.trace.to_json()))))
        spent = []  # (witness planes, meets) of each line_meet_line call
        real_line_meet_line, real_meet = constructions.line_meet_line, constructions.meet

        def counting_line_meet_line(*args, witness_planes=None):
            spent.append([witness_planes, 0])
            try:
                return real_line_meet_line(*args, witness_planes=witness_planes)
            finally:
                spent.append(None)

        def counting_meet(a, b):
            if spent and spent[-1] is not None:
                spent[-1][1] += 1
            return real_meet(a, b)

        monkeypatch.setattr(constructions, "line_meet_line", counting_line_meet_line)
        monkeypatch.setattr(constructions, "meet", counting_meet)
        assert all(verify_replay(trace) for trace in traces)
        calls = [call for call in spent if call is not None]
        assert len(calls) > 200
        # a set of witness planes misses only on its first meet
        seen = set()  # ids of planes that `spent` keeps alive
        for planes, n in calls:
            assert id(planes) not in seen or n == 1
            seen.add(id(planes))
        assert sum(n for _, n in calls) <= 1.1 * len(calls)

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
        planes = [s.output for s in trace.steps[:3]]
        cut, last = trace.steps[3:]
        assert cut.inputs == planes[:2] and cut.output.grade == 2
        assert last.inputs == [cut.output, planes[2]] and last.output == p
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
        assert replay_trace(ConstructionTrace.from_json(json.loads(text))) == [s.output for s in trace.steps]

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


def written(value):
    """A trace value as JSON writes it."""
    if isinstance(value, Point):
        return {"point": value.to_strings()}
    return {"extensor": value.to_json()}


class TestTraceFormat:
    """In memory a step holds its input values; in JSON each value is
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
        for _, decision in decided:
            payload = json.loads(json.dumps(decision.trace.to_json()))
            restored = ConstructionTrace.from_json(payload)
            assert restored.steps == decision.trace.steps
            assert restored.to_json() == payload
            # a ref to a step resolves to the one object parsed for its output
            offset = len(payload["leaves"])
            for step, raw in zip(restored.steps, payload["steps"]):
                for value, i in zip(step.inputs, raw["inputs"]):
                    if i >= offset:
                        assert value is restored.steps[i - offset].output

    def test_each_input_value_written_once(self, decided):
        for _, decision in decided:
            payload = decision.trace.to_json()
            leaves = payload["leaves"]
            assert len({json.dumps(leaf, sort_keys=True) for leaf in leaves}) == len(leaves)
            first = {}  # value -> the first step that outputs it
            for k, (step, raw) in enumerate(zip(decision.trace.steps, payload["steps"])):
                assert len(raw["inputs"]) == len(step.inputs)
                for value, i in zip(step.inputs, raw["inputs"]):
                    assert type(i) is int and 0 <= i < len(leaves) + k
                    if value in first:
                        assert i == len(leaves) + first[value]
                    else:
                        assert leaves[i] == written(value)
                first.setdefault(step.output, k)

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
            assert all(written(value) in leaves for value in expected)


class TestWitnessPlanes:
    def coplanar_pairs(self, rng, count):
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

    def test_kept_planes_give_the_same_point(self):
        rng = seeded("witness-planes")
        for l1, l2 in self.coplanar_pairs(rng, 25):
            planes = WitnessPlanes(l2)
            got = line_meet_line(l1, l2, witness_planes=planes)
            assert got == line_meet_line(l1, l2)
            # planes that an earlier meet built serve the next one
            assert line_meet_line(l1, l2, witness_planes=planes) == got

    def test_planes_are_built_on_first_use(self):
        planes = WitnessPlanes(line_through(E0, E1))
        # the common plane E0E1E3 holds E0 and E1, so E2 is the first
        # witness off it and the plane through E3 is never needed
        assert line_meet_line(line_through(E0, E3), planes.line, witness_planes=planes) == E0
        assert planes._planes[3] is None
        assert [planes[k] for k in range(4)] == [
            join(join(E0, E1), w) for w in (E0, E1, E2, E3)
        ]

    def test_a_hit_after_a_miss_moves_first(self, monkeypatch):
        meets = []
        real_meet = constructions.meet
        monkeypatch.setattr(constructions, "meet", lambda a, b: meets.append(b) or real_meet(a, b))
        planes = WitnessPlanes(line_through(E0, E1))
        # the common plane E0E1E2 holds E0, E1 and E2, so only E3 hits
        assert line_meet_line(line_through(E0, E2), planes.line, witness_planes=planes) == E0
        assert planes.order == (3, 0, 1, 2) and len(meets) == 4
        # the next line of that plane spends one meet, on E3
        hit = line_meet_line(line_through(E1, Point((1, 0, 1, 0))), planes.line, witness_planes=planes)
        assert hit == E1 and meets[4:] == [planes[3]]
        assert planes.order == (3, 0, 1, 2)

    def test_planes_of_another_line_rejected(self):
        with pytest.raises(ValueError, match="another line"):
            line_meet_line(
                line_through(E0, E2),
                line_through(E0, E1),
                witness_planes=WitnessPlanes(line_through(E0, E3)),
            )


class TestWitnessOrder:
    """Every line of a frame's von Staudt figures lies in the plane through
    the frame's line and its auxiliary direction, so the frame's witness
    planes try the basis points off that plane first and each
    line_meet_line of a figure spends exactly one meet."""

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
            assert all(contains_point(frame.line(), basis[m]) for m in range(k))
            assert sorted(frame.line_planes.order) == [0, 1, 2, 3]
            plane = join(join(frame.zero, frame.infinity), basis[k])
            off = [m for m in frame.line_planes.order if not contains_point(plane, basis[m])]
            assert list(frame.line_planes.order[: len(off)]) == off

    def test_one_meet_per_line_meet_line(self, monkeypatch):
        spent = []  # meets of each line_meet_line call, in call order
        real_line_meet_line, real_meet = constructions.line_meet_line, constructions.meet

        def counting_line_meet_line(*args, **kwargs):
            spent.append(0)
            try:
                return real_line_meet_line(*args, **kwargs)
            finally:
                spent.append(None)

        def counting_meet(a, b):
            if spent and spent[-1] is not None:
                spent[-1] += 1
            return real_meet(a, b)

        monkeypatch.setattr(constructions, "line_meet_line", counting_line_meet_line)
        monkeypatch.setattr(constructions, "meet", counting_meet)
        rng = seeded("witness-order-meets")
        for shared in self.frames():
            # a fresh frame builds its scaffold, and with it p1' and c2, here
            frame = LineFrame(shared.zero, shared.infinity, shared.unit)
            spent.clear()
            x, y = (Fraction(rng.choice((-1, 1)) * rng.randint(2, 9), rng.randint(1, 9)) for _ in "xy")
            px, py = point_at_parameter(frame, x), point_at_parameter(frame, y)
            product = von_staudt_product(frame, px, py)
            inverse = von_staudt_inverse(frame, px)
            assert parameter_of(frame, product) == x * y
            assert parameter_of(frame, inverse) == 1 / x
            meets = [n for n in spent if n is not None]
            # product: p1', py', b, result; inverse: c1, a, c2, result
            assert len(meets) == 8
            assert meets == [1] * 8


class TestTetrahedron:
    def test_unit_on_face_rejected(self):
        with pytest.raises(ValueError):
            Tetrahedron((E0, E1, E2, E3), Point((1, 1, 1, 0)))

    def test_coplanar_vertices_rejected(self):
        with pytest.raises(ValueError):
            Tetrahedron((E0, E1, E2, Point((1, 1, 0, 0))), ONES)

    def test_edge_frame_unit(self):
        tet = standard_tetrahedron()
        frame = tet.edge_frame(0, 1)
        assert frame.zero == E0 and frame.infinity == E1
        assert frame.unit == Point((1, 1, 0, 0))

    def test_edge_frame_reversed_orientation(self):
        tet = standard_tetrahedron()
        frame = tet.edge_frame(2, 0)
        assert frame.zero == E2 and frame.infinity == E0
        assert frame.unit == Point((1, 0, 1, 0))
