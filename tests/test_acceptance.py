"""Acceptance suite: one test per criterion, exact (zero-tolerance) checks.

Every test prints a PASS line with its evidence counts; run with -s (or
rely on the capsys-disabled announcer) to see them.
"""

from fractions import Fraction

from conftest import random_fraction, random_point, seeded
from generic_reference import ceva_incidence_check, q_coordinate_polynomial, tau_transform
from reference_geometry import (
    INFINITY,
    other_auxiliaries,
    parameter_of,
    plucker_residual,
    point_at_parameter,
    transform_from_columns,
    transform_inverse,
)
from quadricheck import constructions, fixtures
from quadricheck.constructions import (
    ConstructionTrace,
    LineFrame,
    choose_auxiliaries,
    local_param_point,
    verify_replay,
    von_staudt_inverse,
    von_staudt_product,
)
from quadricheck.extensors import (
    grassmann_criterion,
    join_points,
    meet,
)
from quadricheck.generic_case import (
    build_M,
    compute_Q,
    construct_test_point,
    find_Q_labeling,
    genericity_violation,
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
    Point,
    STANDARD_BASIS,
    bracket,
    clear_denominators,
    rank_of_points,
)
from quadricheck.reductions import decide


def generic_configurations(tag, count, bound=25):
    """Seeded stream of configurations meeting the genericity conditions."""
    produced = 0
    k = 0
    while produced < count:
        pts = sample_generic(f"acc:{tag}:{k}", 10, bound=bound)
        k += 1
        if genericity_violation(pts) is None:
            produced += 1
            yield pts


def test_criterion_1_master_soundness(announce):
    configs = []
    for i in range(300):
        configs.append(("on-quadric", sample_on_quadric(f"acc1:{i}", 10, transformed=i % 2 == 0, bound=25)))
    for i in range(300):
        configs.append(("generic", sample_generic(f"acc1g:{i}", 10, bound=50)))
    degenerate = []
    for rep in range(2):
        for kind in fixtures.GENERATED_KINDS:
            degenerate.append((f"branch:{kind}", fixtures.generate_branch(kind, 1000 + rep)))
    i = 0
    while len(degenerate) < 400:
        degenerate.append((f"mutation:{i % 3}", (
            fixtures.mutate_duplicate,
            fixtures.mutate_collinear,
            fixtures.mutate_coplanar,
        )[i % 3](f"acc1m:{i}")))
        i += 1
    configs.extend(degenerate)
    assert len(configs) >= 1000

    branches_seen = set()
    for label, pts in configs:
        decision = decide(pts)
        branches_seen.add(decision.branch)
        assert decision.on_quadric == oracle_decide(pts), (label, decision.branch)
    from quadricheck.fixtures import GENERATED_KINDS

    assert set(GENERATED_KINDS) <= branches_seen
    announce(
        f"criterion 1 master-soundness: PASS - {len(configs)} configurations, "
        f"branches covered: {sorted(branches_seen)}"
    )


def test_criterion_2_det_identity(announce):
    nonzero = 0
    total = 0
    for pts in generic_configurations("det", 200):
        total += 1
        q = compute_Q(pts[:6])
        assert build_M(pts).det() == q * oracle_det(pts)
        if q != 0 and oracle_det(pts) != 0:
            nonzero += 1
    assert total == 200 and nonzero >= 150
    announce(
        f"criterion 2 det(M) = +1 * Q * det(N): PASS - 200 configurations, "
        f"{nonzero} with both factors nonzero"
    )


def test_criterion_3_q_polynomial_identities(announce):
    rng = seeded("acc-q")
    done = 0
    while done < 200:
        pts = [random_point(rng, bound=15) for _ in range(6)]
        if bracket(*pts[:4]) == 0:
            continue
        done += 1
        to_basis = transform_inverse(transform_from_columns([p.coords for p in pts[:4]]))
        moved = [to_basis.apply(p) for p in pts]
        assert moved[:4] == list(STANDARD_BASIS)
        assert compute_Q(moved) == q_coordinate_polynomial(moved[4].coords, moved[5].coords)
        assert ceva_incidence_check(pts) == bracket(*pts[:4]) ** 2 * compute_Q(pts)
    announce("criterion 3 Q-polynomial identities: PASS - 200 six-point samples")


def test_criterion_4_local_parameter(announce):
    rng = seeded("acc-local")
    done = 0
    while done < 200:
        d, e, a, b, c = (random_point(rng, bound=15) for _ in range(5))
        if rank_of_points((d, e)) != 2 or join_points(a, b, c).is_zero():
            continue
        num, den = bracket(a, b, c, d), bracket(a, b, c, e)
        if num == 0 and den == 0:
            continue
        done += 1
        p = local_param_point(d, e, a, b, c)
        unit = Point(tuple(x + y for x, y in zip(d.coords, e.coords)))
        got = parameter_of(LineFrame(d, e, unit), p)
        if den == 0:
            assert got is INFINITY
        else:
            assert got == Fraction(-num, den)
    announce("criterion 4 bracket-ratio local parameter: PASS - 200 samples")


def _random_frame(rng):
    while True:
        z, i = random_point(rng), random_point(rng)
        if rank_of_points((z, i)) != 2:
            continue
        t = random_fraction(rng)
        if t == 0:
            continue
        return LineFrame(z, i, Point(clear_denominators(a + t * b for a, b in zip(z.coords, i.coords))))


def test_criterion_5_von_staudt(announce, monkeypatch):
    rng = seeded("acc-vs")
    frame = _random_frame(rng)
    for k in range(200):
        if k % 25 == 0:
            frame = _random_frame(rng)
        x, y = random_fraction(rng), random_fraction(rng)
        px, py = point_at_parameter(frame, x), point_at_parameter(frame, y)
        assert parameter_of(frame, von_staudt_product(frame, px, py)) == x * y
        inv = von_staudt_inverse(frame, px)
        want = INFINITY if x == 0 else 1 / x
        got = parameter_of(frame, inv)
        assert got == want or (got is INFINITY and want is INFINITY)
    # fallbacks: zero and infinity parameters
    assert von_staudt_inverse(frame, frame.zero) == frame.infinity
    assert von_staudt_inverse(frame, frame.infinity) == frame.zero
    assert von_staudt_product(frame, frame.zero, point_at_parameter(frame, 5)) == frame.zero
    assert (
        von_staudt_product(frame, frame.infinity, point_at_parameter(frame, 5))
        == frame.infinity
    )
    samples = []
    for _ in range(50):
        f = _random_frame(rng)
        px = point_at_parameter(f, random_fraction(rng))
        py = point_at_parameter(f, random_fraction(rng))
        samples.append((f, px, py, von_staudt_product(f, px, py)))
    # the same products on fresh frames whose figures use other auxiliaries
    monkeypatch.setattr(constructions, "choose_auxiliaries", other_auxiliaries)
    independent = 0
    for f, px, py, default in samples:
        fresh = LineFrame(f.zero, f.infinity, f.unit)
        assert fresh.scaffold.a != choose_auxiliaries(f)[0]
        assert von_staudt_product(fresh, px, py) == default
        independent += 1
    assert independent == 50
    announce(
        "criterion 5 von Staudt algebra: PASS - 200 parameter pairs, "
        "0/infinity fallbacks, 50 auxiliary-independence samples"
    )


def test_criterion_6_grassmann_vs_oracle(announce):
    rng = seeded("acc-grassmann")
    rulings = [
        join_points(Point((1, s, 0, 0)), Point((0, 0, 1, s))) for s in (0, 1, 2)
    ]
    on = off = 0
    while on < 100:
        s = Fraction(rng.randint(3, 60), rng.randint(1, 9))
        t = Fraction(rng.randint(-60, 60), rng.randint(1, 9))
        p = segre_point(s, t)
        assert grassmann_criterion(p, *rulings) == 0
        on += 1
    while off < 100:
        p = random_point(rng, bound=40)
        if p.coords[0] * p.coords[3] == p.coords[1] * p.coords[2]:
            continue
        assert grassmann_criterion(p, *rulings) != 0
        off += 1
    announce("criterion 6 Grassmann criterion vs oracle: PASS - 100 on + 100 off")


def test_criterion_7_exterior_identities(announce):
    rng = seeded("acc-exterior")
    for _ in range(200):
        a, b, c, d, e = (random_point(rng, bound=15) for _ in range(5))
        lhs = tuple(
            bracket(e, b, c, d) * a.coords[i]
            + bracket(a, e, c, d) * b.coords[i]
            + bracket(a, b, e, d) * c.coords[i]
            + bracket(a, b, c, e) * d.coords[i]
            for i in range(4)
        )
        assert lhs == tuple(bracket(a, b, c, d) * e.coords[i] for i in range(4))
    for _ in range(200):
        a, b, c, d, e, f = (random_point(rng, bound=15) for _ in range(6))
        lhs = -bracket(a, b, d, e) * bracket(a, b, c, f) * bracket(d, e, c, f) - bracket(
            a, b, c, e
        ) * bracket(a, b, d, f) * bracket(c, e, d, f)
        assert lhs == bracket(a, b, c, d) * bracket(a, b, e, f) * bracket(c, d, e, f)
    plucker_checked = 0
    for _ in range(200):
        line = join_points(random_point(rng), random_point(rng))
        assert plucker_residual(line) == 0
        pl1 = join_points(*(random_point(rng) for _ in range(3)))
        pl2 = join_points(*(random_point(rng) for _ in range(3)))
        if pl1.is_zero() or pl2.is_zero():
            continue
        assert plucker_residual(meet(pl1, pl2)) == 0
        plucker_checked += 1
    assert plucker_checked >= 190
    announce(
        "criterion 7 exterior-algebra identities: PASS - 200 Cramer, "
        f"200 three-term, {200 + plucker_checked} Pluecker residuals"
    )


def test_criterion_8_invariance(announce):
    rng = seeded("acc-invariance")
    bases = []
    for i in range(6):
        bases.append(sample_on_quadric(f"acc8:{i}", 10, transformed=i % 2 == 0, bound=10))
    for i in range(6):
        bases.append(sample_generic(f"acc8g:{i}", 10, bound=20))
    for i, kind in enumerate(
        (
            "duplicate",
            "four-collinear",
            "six-on-conic",
            "coplanar",
            "two-planes",
            "plane-split",
            "three-lines-grassmann",
            "two-lines-grassmann",
        )
    ):
        bases.append(fixtures.generate_branch(kind, 2000 + i))
    assert len(bases) == 20
    checked = 0
    for pts in bases:
        base_verdict = decide(pts).on_quadric
        assert base_verdict == oracle_decide(pts)
        for _ in range(50):
            t = random_transform(rng, bound=4)
            assert decide([t.apply(p) for p in pts]).on_quadric == base_verdict
            checked += 1
        for _ in range(50):
            perm = list(range(10))
            rng.shuffle(perm)
            assert decide([pts[k] for k in perm]).on_quadric == base_verdict
            checked += 1
    announce(
        f"criterion 8 invariance suite: PASS - 20 bases x (50 transforms + 50 "
        f"permutations) = {checked} decisions"
    )


def test_criterion_9_pascal(announce):
    from quadricheck.reductions import pascal_collinear
    from reference_geometry import planar_conic_det

    rng = seeded("acc-pascal")

    def conic_six():
        ts = set()
        while len(ts) < 6:
            ts.add((rng.randint(-12, 12), rng.randint(1, 9)))
        return [
            Point((q * q - p * p, 2 * p * q, 0, q * q + p * p)) for p, q in ts
        ]

    def coplanar_six():
        return [
            Point((rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9), 0))
            for _ in range(6)
        ]

    done = on_conic = 0
    while done < 200:
        six = conic_six() if done % 2 == 0 else coplanar_six()
        if len(set(six)) != 6 or rank_of_points(six) != 3:
            continue
        verdict = pascal_collinear(six)
        if verdict is None:
            continue
        det6 = planar_conic_det(six)
        assert verdict == (det6 == 0)
        on_conic += det6 == 0
        done += 1
    assert 50 <= on_conic <= 150
    announce(
        f"criterion 9 hexagon criterion vs planar determinant: PASS - 200 "
        f"samples ({on_conic} on a conic)"
    )


def test_criterion_10_synthetic_algebraic_agreement(announce):
    compared = 0
    replayed = 0
    for idx, pts in enumerate(generic_configurations("synth", 100, bound=20)):
        sigma = find_Q_labeling(pts[:6])
        relabeled = [pts[i] for i in sigma] + pts[6:]
        m = build_M(relabeled)
        tau = tau_transform(relabeled)
        trace = ConstructionTrace() if idx < 5 else None
        for col in range(4):
            column = m.column(col)
            if all(v == 0 for v in column):
                continue
            synthetic = construct_test_point(relabeled, col, trace=trace)
            assert synthetic == tau.apply(Point(column))
            compared += 1
        if trace is not None:
            restored = ConstructionTrace.from_json(trace.to_json())
            assert verify_replay(restored)
            replayed += 1
    assert compared >= 390
    announce(
        f"criterion 10 synthetic/algebraic test points: PASS - {compared} "
        f"columns on 100 configurations, {replayed} traces replayed bit-exactly"
    )
