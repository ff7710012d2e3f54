import ast
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import seeded
from reference_geometry import cofactor_det, quadric_space_dimension
from quadricheck import constructions, decision, extensors, generic_case, projective, reductions
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
    QuadricCoeffs,
    bareiss_det,
    quadric_through,
    rank_of_vectors,
    veronese_row,
)

# xw - yz, the quadric of every segre_point
SEGRE_QUADRIC = QuadricCoeffs((0, 0, 0, 1, 0, -1, 0, 0, 0, 0))


class TestVeroneseRow:
    def test_basis_point(self):
        assert veronese_row(Point((1, 0, 0, 0))) == (1, 0, 0, 0, 0, 0, 0, 0, 0, 0)

    def test_all_ones(self):
        assert veronese_row(Point((1, 1, 1, 1))) == (1,) * 10

    def test_mixed(self):
        assert veronese_row(Point((1, 2, 3, 4))) == (1, 2, 3, 4, 4, 6, 8, 9, 12, 16)


class TestOracleDecide:
    def test_segre_points_on_quadric(self):
        pts = [segre_point(s, t) for s, t in ((0, 0), (0, 1), (1, 0), (1, 2), (2, 3), (3, 1), (4, 4), (5, 2), (6, 7), (7, 5))]
        assert oracle_decide(pts)
        assert all(SEGRE_QUADRIC.evaluate(p) == 0 for p in pts)
        # the constraint matrix is square: exactly ten points
        for wrong in (pts[:9], pts + pts[:1]):
            with pytest.raises(ValueError, match="exactly 10 points"):
                oracle_det(wrong)

    def test_nine_segre_plus_generic(self):
        pts = [segre_point(s, t) for s, t in ((0, 0), (0, 1), (1, 0), (1, 2), (2, 3), (3, 1), (4, 4), (5, 2), (6, 7))]
        pts.append(Point((1, 1, 1, 0)))
        assert not oracle_decide(pts)
        assert all(q.evaluate(pts[-1]) != 0 for q in quadric_through(pts[:9]))

    def test_duplicate_point(self):
        pts = sample_generic("oracle-dup", 10)
        pts[3] = pts[7]
        assert oracle_decide(pts)

    def test_transform_invariance(self):
        rng = seeded("oracle-transform")
        pts = sample_generic("oracle-t", 10, bound=15)
        base = oracle_decide(pts)
        t = random_transform(rng, bound=5)
        assert oracle_decide([t.apply(p) for p in pts]) == base

    def test_permutation_invariance(self):
        rng = seeded("oracle-perm")
        pts = sample_on_quadric("oracle-p", 10)
        perm = list(range(10))
        rng.shuffle(perm)
        assert oracle_decide([pts[i] for i in perm]) == oracle_decide(pts)


class TestQuadricThrough:
    def test_six_points_with_skew_lines_leave_p3(self):
        pts = [segre_point(s, t) for s, t in ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 3))]
        assert len(quadric_through(pts)) == 4

    def test_nine_generic_points_leave_one(self):
        pts = sample_generic("qt-nine", 9, bound=20)
        basis = quadric_through(pts)
        assert len(basis) == 1
        assert all(basis[0].evaluate(p) == 0 for p in pts)

    def test_no_points(self):
        assert len(quadric_through([])) == 10

    def test_vanishing(self):
        pts = sample_generic("qt-vanish", 7, bound=20)
        for q in quadric_through(pts):
            assert all(q.evaluate(p) == 0 for p in pts)

    def test_dimension_plus_rank(self):
        pts = sample_generic("qt-rank", 8, bound=20)
        dim = quadric_space_dimension(pts)
        rank = rank_of_vectors([veronese_row(p) for p in pts])
        assert dim + rank == 10


class TestSamplers:
    def test_on_quadric_deterministic(self):
        assert sample_on_quadric(5, 10) == sample_on_quadric(5, 10)

    def test_on_quadric_property(self):
        pts = sample_on_quadric(9, 10)
        assert oracle_decide(pts)

    def test_transformed_still_on_quadric(self):
        pts = sample_on_quadric(11, 10, transformed=True)
        assert oracle_decide(pts)

    def test_generic_sample_off_quadric(self):
        # pinned regression seed: a generic sample is off every quadric
        pts = sample_generic(13, 10)
        assert not oracle_decide(pts)

    def test_round_trip_serialization(self):
        for pts in (sample_on_quadric(3, 10, transformed=True), sample_generic(3, 10)):
            for p in pts:
                assert Point.from_strings(p.to_strings()) == p

    def test_distinct(self):
        assert len(set(sample_generic(17, 10))) == 10
        assert len(set(sample_on_quadric(17, 10))) == 10


class TestBareiss:
    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=4, max_size=4),
            min_size=4,
            max_size=4,
        )
    )
    def test_matches_cofactor_expansion(self, rows):
        assert bareiss_det(rows) == cofactor_det(rows)

    def test_ten_by_ten(self):
        rng = random.Random(99)
        rows = [[rng.randint(-9, 9) for _ in range(10)] for _ in range(10)]
        assert bareiss_det(rows) == cofactor_det(rows)


def names_from(module, source):
    """What the module's source imports from the module `source` (a
    quadricheck module or a top-level one): each name of a
    `from ...source import`, and `source` for an import of the module."""
    spellings = (source, f"quadricheck.{source}")
    names = []
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.module in spellings:
                names += [alias.name for alias in node.names]
            elif node.module in (None, "quadricheck"):
                names += [alias.name for alias in node.names if alias.name == source]
        elif isinstance(node, ast.Import):
            names += [source for alias in node.names if alias.name in spellings]
    return names


class TestIndependence:
    def test_pipeline_takes_nothing_from_the_oracle(self):
        # the certificates come from projective.quadric_through, and every
        # relabeling path ends in a skew swap or the plane-split exit
        assert names_from(generic_case, "oracle") == []
        assert names_from(constructions, "oracle") == []
        assert names_from(reductions, "oracle") == []

    def test_construction_layers_take_nothing_from_fractions(self):
        # the exact core runs on canonical integer points and extensors;
        # rationals are cleared where they enter (cli, oracle, fixtures), and
        # the rational parameters of a line live in the tests
        for module in (projective, extensors, decision, generic_case, constructions, reductions):
            assert names_from(module, "fractions") == [], module.__name__
