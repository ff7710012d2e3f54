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

import logging
from dataclasses import dataclass
from itertools import combinations, permutations

from .constructions import (
    Tetrahedron,
    local_param_point,
    recover_from_chart,
    von_staudt_inverse,
    von_staudt_product,
)
from .decision import Decision, Labeling, PlanePair, PreconditionViolated
from .extensors import line_through, meet, plane_form, plane_through
from .projective import (
    GeometryError,
    MONOMIALS,
    IncidenceTable,
    Point,
    QuadricCoeffs,
    Transform,
    bracket,
    det4,
    kernel_basis,
)

log = logging.getLogger(__name__)


class NoPermutation(GeometryError):
    """No label permutation of 0..5 makes Q nonzero (precondition breach)."""


class ZeroColumn(GeometryError):
    """A column of M vanishes; the caller must take the two-planes exit."""


class Degenerate(GeometryError):
    """The incidence check requires [0123] != 0."""


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


def q_coordinate_polynomial(v4, v5):
    """Q as a polynomial in the coordinates of points 4 and 5 when points
    0..3 sit exactly at the standard basis vectors."""
    x4, y4, z4, w4 = v4
    x5, y5, z5, w5 = v5
    return -x5 * y4 * z5 * w4 + x4 * y5 * z5 * w4 + x5 * y4 * z4 * w5 - x4 * y4 * z5 * w5


def ceva_incidence_check(points):
    """Scalar vanishing iff the lines 1p, 2q, 3r concur, where p = 23 ∩ 015,
    q = 13 ∩ 024 and r = 12 ∩ 345; equals [0123]^2 * Q exactly.

    The three meets are coned over point 0 so the concurrency becomes a
    single exact bracket expression on the meet representatives.
    """
    p0, p1, p2, p3, p4, p5 = points[:6]
    if bracket(p0, p1, p2, p3) == 0:
        raise Degenerate("[0123] = 0")
    p = meet(line_through(p2, p3), plane_through(p0, p1, p5))
    q = meet(line_through(p1, p3), plane_through(p0, p2, p4))
    r = meet(line_through(p1, p2), plane_through(p3, p4, p5))
    c0, c1, c2, c3 = (x.coords for x in (p0, p1, p2, p3))
    return -det4(c1, c0, c2, q.coeffs) * det4(c0, p.coeffs, c3, r.coeffs) + det4(
        p.coeffs, c0, c2, q.coeffs
    ) * det4(c0, c1, c3, r.coeffs)


def find_Q_labeling(points):
    """First permutation of the six labels (lexicographic) with Q != 0.

    When the three label-lines are skew some permutation works; exhausting
    all 720 without success signals a precondition breach and is raised.
    """
    pts = list(points[:6])
    for perm in permutations(range(6)):
        if compute_Q([pts[i] for i in perm]) != 0:
            return perm
    log.error("no Q-permutation for %s", pts)
    raise NoPermutation("every label permutation has Q = 0")


@dataclass(frozen=True)
class MatrixM:
    """4x4 bracket-product matrix; entry (r, c) multiplies the two brackets
    named in its provenance, e.g. [0156][2346] at (0, 0)."""

    entries: tuple
    provenance: tuple

    def column(self, c):
        return tuple(self.entries[r][c] for r in range(4))

    def det(self):
        cols = [[self.entries[i][j] for i in range(4)] for j in range(4)]
        return det4(*cols)


def build_M(points) -> MatrixM:
    pts = list(points)
    entries = []
    provenance = []
    for r in range(4):
        x = pts[6 + r]
        row = []
        prow = []
        for a_triple, b_triple in BASIS_PLANES:
            ba = bracket(*(pts[i] for i in a_triple), x)
            bb = bracket(*(pts[i] for i in b_triple), x)
            row.append(ba * bb)
            prow.append((a_triple + (6 + r,), b_triple + (6 + r,)))
        entries.append(tuple(row))
        provenance.append(tuple(prow))
    return MatrixM(tuple(entries), tuple(provenance))


def global_unit(points) -> Point:
    """The unit point <v6 + v7 + v8 + v9> built from the canonical integer
    representatives of points 6..9.

    The construction fixes vector representatives only through this choice;
    any other choice rescales local parameters but not the coplanarity
    verdict of the four test points.
    """
    vs = [points[i].coords for i in range(6, 10)]
    return Point(tuple(sum(v[i] for v in vs) for i in range(4)))


def tau_transform(points) -> Transform:
    """The isomorphism sending the standard basis and [1:1:1:1] to points
    6, 7, 8, 9 and the global unit."""
    return Transform.from_columns([points[i].coords for i in range(6, 10)])


def _raw_quadric_product(form_a, form_b):
    out = []
    for i, j in MONOMIALS:
        out.append(form_a[i] * form_b[j] if i == j else form_a[i] * form_b[j] + form_a[j] * form_b[i])
    return tuple(out)


def basis_quadric_forms(points, c):
    """Raw linear forms of the two planes of basis quadric c."""
    a_triple, b_triple = BASIS_PLANES[c]
    form_a = plane_form(plane_through(*(points[i] for i in a_triple)))
    form_b = plane_form(plane_through(*(points[i] for i in b_triple)))
    return form_a, form_b


def construct_test_point(points, col, trace=None) -> Point:
    """Synthetic image of column col of M under the isomorphism onto the
    tetrahedron 6789.

    Works in the chart of the first nonzero column entry i: on each edge
    from vertex i the needed parameter M[j][col]/M[i][col] is produced by
    two meet-points with the basis planes, two inversions and one product,
    and the point is recovered from the three edge projections.
    """
    m = build_M(points)
    column = m.column(col)
    if all(v == 0 for v in column):
        raise ZeroColumn(f"column {col} of M vanishes")
    chart = next(r for r in range(4) if column[r] != 0)
    tet = Tetrahedron(tuple(points[6:10]), global_unit(points))
    a_triple, b_triple = BASIS_PLANES[col]
    a_pts = [points[i] for i in a_triple]
    b_pts = [points[i] for i in b_triple]
    projections = []
    for j in (jj for jj in range(4) if jj != chart):
        frame = tet.edge_frame(chart, j)
        d, e = tet.vertices[chart], tet.vertices[j]
        px = local_param_point(d, e, *a_pts, trace=trace)
        qx = von_staudt_inverse(frame, px, trace=trace)
        py = local_param_point(d, e, *b_pts, trace=trace)
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
    for quad in combinations(range(10), 4):
        if table.on_a_line(quad):
            return f"points {quad} are collinear"
    for pair in ((0, 1, 2, 3), (0, 1, 4, 5), (2, 3, 4, 5)):
        if table.bracket_vanishes(*pair):
            return "lines 01, 23, 45 are not mutually skew"
    if table.bracket_vanishes(6, 7, 8, 9):
        return "points 6..9 are coplanar"
    return None


@dataclass(frozen=True)
class GenericConfig:
    """Ten validated points in generic position with witness brackets.

    The witnesses are the four nonzero brackets [0123], [0145], [2345],
    [6789] certifying the skew lines and the spanning last four points; the
    conditions also include distinctness and no four collinear.
    """

    points: tuple
    witnesses: tuple

    @classmethod
    def validate(cls, points, table=None) -> "GenericConfig":
        pts = list(points)
        reason = genericity_violation(pts, table)
        if reason is not None:
            raise PreconditionViolated(reason)
        witnesses = tuple(
            bracket(*(pts[i] for i in quad))
            for quad in ((0, 1, 2, 3), (0, 1, 4, 5), (2, 3, 4, 5), (6, 7, 8, 9))
        )
        return cls(tuple(pts), witnesses)


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
    m = build_M(relabeled)
    for c in range(4):
        if all(v == 0 for v in m.column(c)):
            form_a, form_b = basis_quadric_forms(relabeled, c)
            return Decision(
                True, "two-planes", labeling, PlanePair((form_a, form_b)), trace
            )
    test_points = [construct_test_point(relabeled, c, trace=trace) for c in range(4)]
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
            raw = _raw_quadric_product(*basis_quadric_forms(relabeled, c))
            total = [t + weights[c] * v for t, v in zip(total, raw)]
        certificate = QuadricCoeffs(tuple(total))
    return Decision(on_quadric, "generic", labeling, certificate, trace)
