from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import coords, points, random_fraction, random_point, scalars, seeded
from reference_geometry import (
    INFINITY,
    DegenerateWitness,
    NotCollinear,
    cofactor_det,
    coordinates_in_basis,
    cross_ratio,
    param_inv,
    param_mul,
    transform_inverse,
)
from quadricheck import projective
from quadricheck.projective import (
    E0,
    E1,
    E2,
    E3,
    Extensor,
    InfinityProduct,
    Point,
    QuadricCoeffs,
    Transform,
    bareiss_det,
    bracket,
    clear_denominators,
    det4,
    kernel_basis,
    rank_of_points,
    rank_of_vectors,
)


def cofactor_det_cols(*cols):
    return cofactor_det([[col[i] for col in cols] for i in range(len(cols))])


def reference_rref(rows):
    """Textbook Gauss-Jordan over Q: (reduced rows, pivot columns)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(len(rows[0])):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def reference_kernel(rows):
    """Kernel vectors with one free variable 1 and the others 0, as coprime
    integers with a positive leading entry."""
    reduced, pivots = reference_rref(rows)
    cols = len(rows[0])
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        mult = lcm(*(v.denominator for v in vec))
        ints = [int(v * mult) for v in vec]
        g = gcd(*ints)
        if next(v for v in ints if v != 0) < 0:
            g = -g
        basis.append(tuple(v // g for v in ints))
    return basis


def reference_solve(columns, target):
    """The x with Σ x_j columns[j] = target and every free unknown 0, or None."""
    n = len(columns)
    aug = [[col[i] for col in columns] + [target[i]] for i in range(len(target))]
    reduced, pivots = reference_rref(aug)
    if n in pivots:
        return None
    sol = [Fraction(0)] * n
    for r, pc in enumerate(pivots):
        sol[pc] = reduced[r][n]
    return tuple(sol)


def reference_inverse(matrix):
    n = len(matrix)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    reduced, _ = reference_rref([list(r) + e for r, e in zip(matrix, eye)])
    return tuple(tuple(r[n:]) for r in reduced)


def seeded_matrix(rng, m, n, shape, entries):
    """An m x n integer matrix of the given shape ("random", "sparse",
    "low-rank", "repeated-row", "zero-row" or "zero-column"), drawn with
    "int", "fraction" or "mixed" entries and cleared by one lcm over all of
    them, so every kind keeps the rank, kernel and shape of the rational
    matrix drawn.  Sparse matrices are mostly zeros, so that elimination
    has to swap rows."""

    def entry():
        if shape == "sparse" and rng.random() < 0.6:
            return 0
        if entries == "int" or (entries == "mixed" and rng.random() < 0.5):
            return rng.randint(-9, 9)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    if shape == "low-rank":
        k = rng.randint(1, max(1, min(m, n) - 1))
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
        right = [[entry() for _ in range(n)] for _ in range(k)]
        rows = [[sum(x * r[j] for x, r in zip(row, right)) for j in range(n)] for row in left]
    else:
        rows = [[entry() for _ in range(n)] for _ in range(m)]
    if shape == "repeated-row" and m > 1:
        src, dst = rng.sample(range(m), 2)
        factor = 1 if entries == "int" else Fraction(-2, 3)
        rows[dst] = [factor * x for x in rows[src]]
    elif shape == "zero-row":
        rows[rng.randrange(m)] = [0] * n
    elif shape == "zero-column":
        c = rng.randrange(n)
        for row in rows:
            row[c] = 0
    flat = clear_denominators(x for row in rows for x in row)
    return [list(flat[i : i + n]) for i in range(0, m * n, n)]


SHAPES = ("random", "sparse", "low-rank", "repeated-row", "zero-row", "zero-column")
SIZES = ((1, 1), (2, 2), (1, 4), (4, 1), (3, 5), (5, 3), (4, 4), (6, 6), (7, 4), (4, 9),
         (8, 8), (10, 7), (10, 10), (10, 11))


def seeded_matrices(name):
    """Every shape and entry kind at every size, square, tall and wide."""
    rng = seeded(name)
    for shape in SHAPES:
        for entries in ("int", "fraction", "mixed"):
            for m, n in SIZES:
                yield seeded_matrix(rng, m, n, shape, entries)


def same_typed(got, want):
    """Equal as values and, entry by entry, as types."""
    if isinstance(want, (tuple, list)):
        return (
            type(got) is type(want)
            and len(got) == len(want)
            and all(same_typed(g, w) for g, w in zip(got, want))
        )
    return type(got) is type(want) and got == want


class TestPoint:
    def test_canonical_form(self):
        assert Point(clear_denominators((Fraction(1, 2), 3, 0, Fraction(-2, 3)))).coords == (3, 18, 0, -4)
        assert Point((-2, 4, 0, -6)).coords == (1, -2, 0, 3)

    def test_equality_up_to_scale(self):
        assert Point((1, 2, 3, 4)) == Point((2, 4, 6, 8))
        assert Point((0, 1, 0, 0)) == Point(clear_denominators((0, Fraction(1, 7), 0, 0)))

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            Point((0, 0, 0, 0))

    @given(points)
    def test_canonicalization_idempotent(self, p):
        assert Point(p.coords) == p
        first = next(c for c in p.coords if c != 0)
        assert first > 0

    @given(points, scalars)
    def test_scaling_invariance(self, p, lam):
        assert Point(clear_denominators(lam * c for c in p.coords)) == p

    @given(points)
    def test_string_round_trip(self, p):
        assert Point.from_strings(p.to_strings()) == p

    @given(points)
    def test_a_point_is_its_grade_one_extensor(self, p):
        assert isinstance(p, Extensor) and p.grade == 1
        assert p.coords is p.coeffs
        e = Extensor(1, p.coords)
        assert p == e and e == p and hash(p) == hash(e)

    @pytest.mark.parametrize("coords", [(1, 2), (1, 2, 3), (1, 2, 3, 4, 5)])
    def test_only_points_of_p3(self, coords):
        with pytest.raises(ValueError):
            Point(coords)


class TestBracket:
    def test_identity_basis(self):
        assert bracket(E0, E1, E2, E3) == 1

    def test_transposition_flips_sign(self):
        assert bracket(E1, E0, E2, E3) == -1

    @given(points, points, points, points)
    def test_matches_cofactor_expansion(self, a, b, c, d):
        assert bracket(a, b, c, d) == cofactor_det_cols(a.coords, b.coords, c.coords, d.coords)

    @given(coords, coords, coords, coords, scalars)
    def test_multilinearity_on_raw_vectors(self, a, b, c, d, lam):
        scaled = tuple(lam * x for x in a)
        assert det4(scaled, b, c, d) == lam * det4(a, b, c, d)

    @given(coords, coords, coords, coords)
    def test_alternation(self, a, b, c, d):
        assert det4(b, a, c, d) == -det4(a, b, c, d)
        assert det4(a, a, c, d) == 0


class TestRank:
    def test_standard_triple(self):
        assert rank_of_points((E0, E1, E2)) == 3

    def test_scaled_copy(self):
        assert rank_of_points((E0, Point((2, 0, 0, 0)))) == 1

    def test_four_points_on_a_plane(self):
        rng = seeded("rank-plane")
        for _ in range(20):
            base = [random_point(rng) for _ in range(3)]
            if rank_of_points(base) != 3:
                continue
            combos = []
            for _ in range(4):
                weights = [rng.randint(1, 9) for _ in range(3)]
                combos.append(
                    Point(
                        tuple(
                            sum(w * p.coords[k] for w, p in zip(weights, base))
                            for k in range(4)
                        )
                    )
                )
            assert rank_of_points(combos) == 3

    @given(st.lists(points, min_size=1, max_size=6))
    def test_rank_survives_clearing_each_row(self, pts):
        ints = [p.coords for p in pts]
        fracs = [[Fraction(c, k + 2) for c in p.coords] for k, p in enumerate(pts)]
        assert rank_of_vectors(ints) == rank_of_vectors([clear_denominators(r) for r in fracs])


class TestTransform:
    def test_identity(self):
        p = Point((3, -1, 4, 1))
        identity = Transform(tuple(tuple(int(i == j) for j in range(4)) for i in range(4)))
        assert identity.apply(p) == p

    def test_diagonal_example(self):
        t = Transform(((1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
        assert t.apply(Point((1, 1, 0, 0))) == Point((1, 2, 0, 0))

    def test_bracket_scaling_law(self):
        rng = seeded("transform-bracket")
        for _ in range(15):
            rows = tuple(tuple(rng.randint(-5, 5) for _ in range(4)) for _ in range(4))
            try:
                t = Transform(rows)
            except ValueError:
                continue
            pts = [random_point(rng) for _ in range(4)]
            lhs = det4(*(t.apply_vector(p.coords) for p in pts))
            assert lhs == t.det() * bracket(*pts)

    def test_inverse(self):
        rng = seeded("transform-inverse")
        for _ in range(10):
            rows = tuple(tuple(rng.randint(-5, 5) for _ in range(4)) for _ in range(4))
            try:
                t = Transform(rows)
            except ValueError:
                continue
            p = random_point(rng)
            assert transform_inverse(t).apply(t.apply(p)) == p

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            Transform(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0)))


def coords_of(*pts):
    return tuple(p.coords for p in pts)


class TestCrossRatio:
    def test_local_parameter_on_p1(self):
        assert cross_ratio((0, 1), (1, 0), (1, 1), (1, 5)) == 5

    def test_unit_maps_to_unit(self):
        c = (1, 1)
        assert cross_ratio((0, 1), (1, 0), c, c) == 1

    def test_infinity_value(self):
        a = (0, 1)
        assert cross_ratio(a, (1, 0), (1, 1), a) is INFINITY

    def test_not_collinear(self):
        with pytest.raises(NotCollinear):
            cross_ratio(*coords_of(E0, E1, E2, E3), ((1, 1, 1, 1), (1, 2, 3, 4)))

    def test_degenerate_witness(self):
        a, b = (1, 0, 0, 0), (0, 1, 0, 0)
        c, d = (1, 1, 0, 0), (1, 5, 0, 0)
        on_line = (1, 2, 0, 0)
        with pytest.raises(DegenerateWitness):
            cross_ratio(a, b, c, d, (on_line, (0, 0, 1, 0)))
        with pytest.raises(DegenerateWitness):
            cross_ratio(a, b, c, d, ((0, 0, 1, 0),))

    def test_witness_independence(self):
        rng = seeded("witnesses")
        for _ in range(25):
            u, v = random_point(rng), random_point(rng)
            if rank_of_points((u, v)) != 2:
                continue
            line_pts = []
            for _ in range(4):
                s, t = rng.randint(1, 9), rng.randint(-9, 9)
                line_pts.append(
                    Point(tuple(s * a + t * b for a, b in zip(u.coords, v.coords)))
                )
            a, b, c, d = line_pts
            if len({a, b, c}) != 3:
                continue
            wit_sets = []
            while len(wit_sets) < 2:
                w1, w2 = random_point(rng), random_point(rng)
                if rank_of_points((a, b, w1, w2)) == 4:
                    wit_sets.append((w1, w2))
            r1 = cross_ratio(*coords_of(a, b, c, d), coords_of(*wit_sets[0]))
            r2 = cross_ratio(*coords_of(a, b, c, d), coords_of(*wit_sets[1]))
            assert r1 == r2 or (r1 is INFINITY and r2 is INFINITY)

    def test_projective_invariance(self):
        rng = seeded("cr-invariance")
        a, b = Point((1, 0, 2, 0)), Point((0, 1, 1, 3))
        line = lambda s, t: Point(
            tuple(s * x + t * y for x, y in zip(a.coords, b.coords))
        )
        quad = (a, b, line(1, 1), line(2, 5))
        wits = (Point((1, 0, 0, 0)), Point((0, 0, 0, 1)))
        base = cross_ratio(*coords_of(*quad), coords_of(*wits))
        for _ in range(15):
            rows = tuple(tuple(rng.randint(-4, 4) for _ in range(4)) for _ in range(4))
            try:
                t = Transform(rows)
            except ValueError:
                continue
            moved = [t.apply(p) for p in quad]
            new_wits = []
            while len(new_wits) < 2:
                w = random_point(rng)
                if rank_of_points([moved[0], moved[1]] + new_wits + [w]) == 3 + len(new_wits):
                    new_wits.append(w)
            assert cross_ratio(*coords_of(*moved), coords_of(*new_wits)) == base

    def test_p2_embedding_with_one_witness(self):
        infinity, zero = (0, 1, 0), (1, 0, 0)
        unit, query = (1, 1, 0), (1, 7, 0)
        assert cross_ratio(infinity, zero, unit, query, ((0, 0, 1),)) == 7


class TestParamArithmetic:
    def test_inverse_rules(self):
        assert param_inv(Fraction(0)) is INFINITY
        assert param_inv(INFINITY) == 0
        assert param_inv(Fraction(-3, 7)) == Fraction(-7, 3)

    def test_product_rules(self):
        assert param_mul(INFINITY, 2) is INFINITY
        assert param_mul(Fraction(2, 3), Fraction(3, 2)) == 1
        with pytest.raises(InfinityProduct):
            param_mul(Fraction(0), INFINITY)


class TestKernel:
    def test_kernel_vectors_annihilate_rows(self):
        rng = seeded("kernel")
        for _ in range(10):
            rows = [[rng.randint(-6, 6) for _ in range(5)] for _ in range(3)]
            for vec in kernel_basis(rows):
                for row in rows:
                    assert sum(r * v for r, v in zip(row, vec)) == 0

    def test_dimension_count(self):
        rows = [[1, 0, 0, 0], [0, 1, 0, 0]]
        assert len(kernel_basis(rows)) == 2


class TestAgainstDirectDefinitions:
    def test_rank(self):
        for rows in seeded_matrices("reference-rank"):
            _, pivots = reference_rref(rows)
            assert same_typed(rank_of_vectors(rows), len(pivots))

    def test_kernel_basis(self):
        for rows in seeded_matrices("reference-kernel"):
            assert same_typed(kernel_basis(rows), reference_kernel(rows))

    def test_bareiss_det(self):
        for rows in seeded_matrices("reference-det"):
            if len(rows) == len(rows[0]):
                assert same_typed(bareiss_det(rows), cofactor_det(rows))

    def test_bareiss_det_of_cleared_rational_matrices(self):
        """Clearing each row of a rational matrix by the lcm of its
        denominators multiplies the determinant by those lcms."""
        half, third = Fraction(1, 2), Fraction(1, 3)
        assert same_typed(bareiss_det([clear_denominators(r) for r in ((half, 0), (0, half))]), 1)
        rows = ((half, third), (Fraction(1, 5), Fraction(1, 7)))  # det 1/210, lcms 6 and 35
        assert same_typed(bareiss_det([clear_denominators(r) for r in rows]), 1)
        rng = seeded("cleared-det")
        for n in (1, 2, 3, 5, 8):
            rows = [[random_fraction(rng, 9) for _ in range(n)] for _ in range(n)]
            scale = 1
            for row in rows:
                scale *= lcm(*(x.denominator for x in row))
            want = cofactor_det(rows) * scale
            assert same_typed(bareiss_det([clear_denominators(r) for r in rows]), int(want))
            assert want.denominator == 1

    def test_coordinates_in_basis(self):
        rng = seeded("reference-solve")
        outcomes = set()
        for dim in (2, 3, 4):
            for size in range(1, dim + 2):
                for _ in range(12):
                    basis = [random_point(rng, bound=4).coords[:dim] for _ in range(size)]
                    if rng.random() < 0.3:
                        basis[-1] = basis[0]
                    if rng.random() < 0.5:
                        weights = [rng.randint(-3, 3) for _ in basis]
                        target = [sum(w * b[i] for w, b in zip(weights, basis)) for i in range(dim)]
                    else:
                        target = random_point(rng, bound=4).coords[:dim]
                    if not (all(any(b) for b in basis) and any(target)):
                        continue
                    basis = [projective._canonical_ints(b) for b in basis]
                    target = projective._canonical_ints(target)
                    want = reference_solve(basis, target)
                    assert same_typed(coordinates_in_basis(basis, target), want)
                    outcomes.add(want is None)
        assert outcomes == {True, False}

    def test_transform_inverse(self):
        rng = seeded("reference-inverse")
        checked = 0
        for entries in ("int", "fraction", "mixed"):
            for _ in range(15):
                try:
                    t = Transform(seeded_matrix(rng, 4, 4, "random", entries))
                except ValueError:
                    continue
                got, want = transform_inverse(t).matrix, reference_inverse(t.matrix)
                assert same_typed(
                    reference_canonical_ints(x for row in got for x in row),
                    reference_canonical_ints(x for row in want for x in row),
                )
                checked += 1
        assert checked >= 40


class TestQuadricCoeffs:
    def test_monomial_order(self):
        q = QuadricCoeffs((0, 0, 0, 1, 0, -1, 0, 0, 0, 0))
        assert q.evaluate(Point((1, 3, 5, 15))) == 0
        assert q.evaluate(Point((1, 1, 1, 0))) != 0

    def test_canonicalized(self):
        halves = (Fraction(k, 2) for k in (2, 4, 0, 0, 0, 0, 0, 0, 0, 0))
        assert QuadricCoeffs(clear_denominators(halves)).coeffs[:2] == (1, 2)

    def test_round_trip(self):
        q = QuadricCoeffs((0, 0, 0, 1, 0, -1, 0, 0, 0, 0))
        assert QuadricCoeffs(tuple(int(s) for s in q.to_strings())) == q


def reference_canonical_ints(values):
    """Coprime integers with a positive first nonzero entry, by way of
    Fractions cleared with the lcm of their denominators."""
    fracs = [Fraction(v) for v in values]
    if all(f == 0 for f in fracs):
        raise ValueError("homogeneous coordinates must not all be zero")
    mult = lcm(*(f.denominator for f in fracs))
    ints = [int(f * mult) for f in fracs]
    g = gcd(*ints)
    if next(v for v in ints if v != 0) < 0:
        g = -g
    return tuple(v // g for v in ints)


def coordinate_inputs(name, n):
    """Seeded n-entry inputs of int, Fraction, string and mixed entries,
    with zeros, negatives and common factors."""
    rng = seeded(name)

    def entry(kind):
        if kind == "mixed":
            kind = rng.choice(("int", "fraction", "string"))
        if rng.random() < 0.25:
            value = Fraction(0)
        else:
            value = Fraction(rng.randint(-40, 40), 1 if kind == "int" else rng.randint(1, 12))
        if kind == "int":
            return int(value) * rng.choice((1, 2, 6))
        return str(value) if kind == "string" else value

    for kind in ("int", "fraction", "string", "mixed"):
        for _ in range(40):
            values = [entry(kind) for _ in range(n)]
            if any(Fraction(v) for v in values):
                yield values


def cleared(values):
    """The input boundary: parse each value as a Fraction, then clear."""
    return clear_denominators(Fraction(v) for v in values)


class TestCanonicalInts:
    def test_point(self):
        for values in coordinate_inputs("canonical-point", 4):
            assert same_typed(Point(cleared(values)).coords, reference_canonical_ints(values))

    def test_quadric_coeffs(self):
        for values in coordinate_inputs("canonical-quadric", 10):
            assert same_typed(QuadricCoeffs(cleared(values)).coeffs, reference_canonical_ints(values))

    def test_kernel_basis(self, monkeypatch):
        matrices = list(seeded_matrices("canonical-kernel"))
        got = [kernel_basis(rows) for rows in matrices]
        monkeypatch.setattr(projective, "_canonical_ints", reference_canonical_ints)
        assert all(same_typed(g, kernel_basis(rows)) for g, rows in zip(got, matrices))

    @pytest.mark.parametrize("zeros", [(0, 0, 0, 0), (Fraction(0),) * 4, ("0", "0/3", "-0", "0")])
    def test_all_zero_rejected(self, zeros):
        with pytest.raises(ValueError, match="must not all be zero"):
            Point(cleared(zeros))


class TestIntOnlyCore:
    """Rationals are cleared where they enter; the exact core refuses them,
    with TypeError so that no caller that retries on ValueError can miss a
    conversion."""

    @pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(2), "3", True], ids=repr)
    def test_point_refuses(self, entry):
        with pytest.raises(TypeError):
            Point((1, entry, 0, 0))

    @pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(2), "3", True], ids=repr)
    def test_quadric_coeffs_refuse(self, entry):
        with pytest.raises(TypeError):
            QuadricCoeffs((entry, 1, 0, 0, 0, 0, 0, 0, 0, 0))

    @pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(2), "3", True], ids=repr)
    def test_transform_refuses(self, entry):
        rows = [[int(i == j) for j in range(4)] for i in range(4)]
        rows[2][3] = entry
        with pytest.raises(TypeError):
            Transform(rows)

    def test_clear_denominators(self):
        assert same_typed(clear_denominators((Fraction(1, 2), 3, Fraction(-2, 3))), (3, 18, -4))
        assert same_typed(clear_denominators((4, -6)), (4, -6))
        assert same_typed(clear_denominators(()), ())

    def test_one_lcm_keeps_the_projective_map(self):
        rng = seeded("one-lcm-transform")
        for _ in range(10):
            rows = [[random_fraction(rng) for _ in range(4)] for _ in range(4)]
            flat = clear_denominators(x for row in rows for x in row)
            try:
                t = Transform([flat[i : i + 4] for i in range(0, 16, 4)])
            except ValueError:
                continue
            p = random_point(rng)
            image = [sum(m * c for m, c in zip(row, p.coords)) for row in rows]
            assert t.apply(p) == Point(clear_denominators(image))
