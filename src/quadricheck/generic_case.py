"""Decision in the generic case: three skew label-lines 01, 23, 45 and the
four remaining points independent.

A four-element basis of reducible quadrics through points 0..5 exists
exactly when the bracket binomial Q is nonzero (label permutations repair
Q = 0), the remaining four points impose dependent conditions exactly when
a 4x4 matrix M of bracket products is singular, and singularity is decided
synthetically by constructing the images of M's columns and testing the
four constructed points for coplanarity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

from .constructions import (
    Tetrahedron,
    local_param_point,
    recover_from_chart,
    von_staudt_inverse,
    von_staudt_product,
)
from .decision import Decision, Labeling, PlanePair, PreconditionViolated
from .extensors import plane_form, plane_through
from .projective import (
    GeometryError,
    MONOMIALS,
    IncidenceTable,
    Point,
    QuadricCoeffs,
    bracket,
    det4,
    kernel_basis,
)


class NoPermutation(GeometryError):
    """No label permutation of 0..5 makes Q nonzero (precondition breach)."""


class ZeroColumn(GeometryError):
    """A column of M vanishes; the caller must take the two-planes exit."""


# The basis of reducible quadrics through points 0..5: each entry is a pair
# of plane triples (the quadric is the product of the two plane forms).
BASIS_PLANES = (
    ((0, 1, 5), (2, 3, 4)),
    ((0, 1, 2), (3, 4, 5)),
    ((0, 2, 4), (1, 3, 5)),
    ((0, 4, 5), (1, 2, 3)),
)


def compute_Q(points):
    """The bracket binomial [0125][0234][1345] - [0124][2345][0135]."""
    p = list(points)
    if len(p) < 6:
        raise ValueError("Q is a function of six points")
    return (
        bracket(p[0], p[1], p[2], p[5])
        * bracket(p[0], p[2], p[3], p[4])
        * bracket(p[1], p[3], p[4], p[5])
        - bracket(p[0], p[1], p[2], p[4])
        * bracket(p[2], p[3], p[4], p[5])
        * bracket(p[0], p[1], p[3], p[5])
    )


def find_Q_labeling(points):
    """First permutation of the six labels (lexicographic) with Q != 0.

    When the three label-lines are skew some permutation works; exhausting
    all 720 without success signals a precondition breach and is raised.
    """
    pts = list(points[:6])
    for perm in permutations(range(6)):
        if compute_Q([pts[i] for i in perm]) != 0:
            return perm
    raise NoPermutation("every label permutation has Q = 0")


@dataclass(frozen=True)
class MatrixM:
    """4x4 bracket-product matrix; entry (r, c) multiplies the brackets of
    the two planes of basis quadric c, each joined with point 6 + r, e.g.
    [0156][2346] at (0, 0)."""

    entries: tuple

    def column(self, c):
        return tuple(self.entries[r][c] for r in range(4))

    def det(self):
        cols = [[self.entries[i][j] for i in range(4)] for j in range(4)]
        return det4(*cols)


def build_M(points) -> MatrixM:
    pts = list(points)
    entries = []
    for r in range(4):
        x = pts[6 + r]
        row = []
        for a_triple, b_triple in BASIS_PLANES:
            ba = bracket(*(pts[i] for i in a_triple), x)
            bb = bracket(*(pts[i] for i in b_triple), x)
            row.append(ba * bb)
        entries.append(tuple(row))
    return MatrixM(tuple(entries))


def global_unit(points) -> Point:
    """The unit point <v6 + v7 + v8 + v9> built from the canonical integer
    representatives of points 6..9.

    The construction fixes vector representatives only through this choice;
    any other choice rescales local parameters but not the coplanarity
    verdict of the four test points.
    """
    vs = [points[i].coords for i in range(6, 10)]
    return Point(tuple(sum(v[i] for v in vs) for i in range(4)))


def _raw_quadric_product(form_a, form_b):
    out = []
    for i, j in MONOMIALS:
        out.append(form_a[i] * form_b[j] if i == j else form_a[i] * form_b[j] + form_a[j] * form_b[i])
    return tuple(out)


class GenericFigure:
    """What the four columns of M share, built once per decision from the
    (relabeled) points: M itself, the extensors of the two planes of each
    basis quadric, and, on first read, the tetrahedron 6789 with its global
    unit.  The tetrahedron memoizes its edge frames, and each frame its
    line, auxiliaries and von Staudt scaffolding, so every column reads
    them.  The figure lives as long as the decision that builds it.
    """

    def __init__(self, points):
        self.points = list(points)
        self.m = build_M(self.points)
        self.basis_planes = tuple(
            tuple(plane_through(*(self.points[i] for i in triple)) for triple in pair)
            for pair in BASIS_PLANES
        )

    @cached_property
    def tetrahedron(self) -> Tetrahedron:
        return Tetrahedron(tuple(self.points[6:10]), global_unit(self.points))

    def quadric_forms(self, c):
        """Raw linear forms of the two planes of basis quadric c."""
        plane_a, plane_b = self.basis_planes[c]
        return plane_form(plane_a), plane_form(plane_b)


def construct_test_point(points, col, trace=None, figure=None) -> Point:
    """Synthetic image of column col of M under the isomorphism onto the
    tetrahedron 6789.

    Works in the chart of the first nonzero column entry i: on each edge
    from vertex i the needed parameter M[j][col]/M[i][col] is produced by
    two meet-points with the basis planes, two inversions and one product,
    and the point is recovered from the three edge projections.  `figure`
    is the GenericFigure of the points, built when not given; its M, basis
    planes, tetrahedron and edge frames (with their memoized lines,
    auxiliaries and scaffolding) serve every column, and each cached value
    is still recorded in the trace where it is used.
    """
    figure = figure or GenericFigure(points)
    column = figure.m.column(col)
    if all(v == 0 for v in column):
        raise ZeroColumn(f"column {col} of M vanishes")
    chart = next(r for r in range(4) if column[r] != 0)
    tet = figure.tetrahedron
    a_triple, b_triple = BASIS_PLANES[col]
    plane_a, plane_b = figure.basis_planes[col]
    a_pts = [points[i] for i in a_triple]
    b_pts = [points[i] for i in b_triple]
    projections = []
    for j in (jj for jj in range(4) if jj != chart):
        frame = tet.edge_frame(chart, j)
        d, e = tet.vertices[chart], tet.vertices[j]
        edge = frame.line()
        px = local_param_point(d, e, *a_pts, trace=trace, line=edge, plane=plane_a)
        qx = von_staudt_inverse(frame, px, trace=trace)
        py = local_param_point(d, e, *b_pts, trace=trace, line=edge, plane=plane_b)
        qy = von_staudt_inverse(frame, py, trace=trace)
        projections.append(von_staudt_product(frame, qx, qy, trace=trace))
    return recover_from_chart(tet, chart, projections, trace=trace)


def genericity_violation(points, table=None):
    """Reason the four genericity conditions fail, or None.  `table` is the
    IncidenceTable of the points, built when not given."""
    pts = list(points)
    if len(pts) != 10:
        return "need exactly 10 points"
    if len(set(pts)) != 10:
        return "points are not all distinct"
    table = table or IncidenceTable(pts)
    quad = table.first_collinear_four()
    if quad is not None:
        return f"points {quad} are collinear"
    for pair in ((0, 1, 2, 3), (0, 1, 4, 5), (2, 3, 4, 5)):
        if table.bracket_vanishes(*pair):
            return "lines 01, 23, 45 are not mutually skew"
    if table.bracket_vanishes(6, 7, 8, 9):
        return "points 6..9 are coplanar"
    return None


@dataclass(frozen=True)
class GenericConfig:
    """Ten validated points in generic position.

    The conditions are distinctness, no four collinear, skew lines 01, 23,
    45 and spanning last four points; the four nonzero brackets [0123],
    [0145], [2345], [6789] certify the last two.
    """

    points: tuple

    @classmethod
    def validate(cls, points, table=None) -> "GenericConfig":
        pts = list(points)
        reason = genericity_violation(pts, table)
        if reason is not None:
            raise PreconditionViolated(reason)
        return cls(tuple(pts))


def decide_generic(points, trace=None, table=None) -> Decision:
    """Decide a configuration satisfying the genericity conditions.

    Relabels the first six points so Q != 0 (the labeling is carried in the
    Decision), takes the two-planes exit on a zero column of M, otherwise
    constructs the four test points and answers by their coplanarity; on a
    YES verdict the quadric is recovered from the kernel of M through the
    reducible-quadric basis.  `table` is the IncidenceTable of the points,
    built when not given.
    """
    config = GenericConfig.validate(points, table)
    pts = list(config.points)
    sigma = find_Q_labeling(pts[:6])
    relabeled = [pts[i] for i in sigma] + pts[6:]
    labeling = Labeling(tuple(sigma) + (6, 7, 8, 9))
    figure = GenericFigure(relabeled)
    m = figure.m
    for c in range(4):
        if all(v == 0 for v in m.column(c)):
            return Decision(
                True, "two-planes", labeling, PlanePair(figure.quadric_forms(c)), trace
            )
    test_points = [
        construct_test_point(relabeled, c, trace=trace, figure=figure) for c in range(4)
    ]
    on_quadric = bracket(*test_points) == 0
    certificate = None
    if on_quadric:
        kernel = kernel_basis([list(row) for row in m.entries])
        if not kernel:
            raise PreconditionViolated("test points coplanar but M has full rank")
        weights = kernel[0]
        total = [0] * 10
        for c in range(4):
            if weights[c] == 0:
                continue
            raw = _raw_quadric_product(*figure.quadric_forms(c))
            total = [t + weights[c] * v for t, v in zip(total, raw)]
        certificate = QuadricCoeffs(tuple(total))
    return Decision(on_quadric, "generic", labeling, certificate, trace)
