"""Decision in the generic case: three skew label-lines 01, 23, 45 and the
four remaining points independent.

A four-element basis of reducible quadrics through points 0..5 exists
exactly when the bracket binomial Q is nonzero (label permutations repair
Q = 0), the remaining four points impose dependent conditions exactly when
a 4x4 matrix M of bracket products is singular, and singularity is decided
synthetically by constructing the images of M's columns and testing the
four constructed points for coplanarity.

`construct_test_point` draws a column through the figures of
`constructions`.  Where M has no zero (`GenericFigure.zero_free`, the
gate), so that every column is built in chart 0 and every von Staudt
factor is finite and nonzero, a decision runs the generic program in its
place (`generic_program`): the tetrahedron of a fixed reference configuration,
drawn on one Tape, and column 0 of that configuration, drawn on a second
Tape that reads the tetrahedron, compiled to one straight-line program.
The program runs the tetrahedron's part once, making every point
canonical as the drawing does, then the column's body in a loop over the
four columns, and ends with the bracket of the four test points.  It is
built on the first generic decision, never at import, and once per
process, and each of its functions is compiled on its first run.  Its
untraced body holds every point up to scale, makes only the test point
canonical, and recovers it in the vertex frame of the tetrahedron, where
the traced one records the recovery's two meets; the mod-p function is
the untraced one on other names (see `StraightLine`).  The program holds
in the main shape (each chart-0 frame picks E0 as its auxiliary
direction, and the figure passes the gate), and there it gives the drawn
bracket and trace steps.  The traced loop guards every check of the
drawn column; the untraced and mod-p loops guard only their computed
steps, since the gate and the identities of the figure prove the rest
(see `constructions._CHECK_CODE`), and compute no line that only a meet
of coplanar lines reads: that meet's point is zero where the line's
join would be.  So where a frame takes another shape,
or the figure would raise, the program declines, and all four columns are
drawn and record only what the drawing records; where M has a zero, no
program runs, and all four are drawn too.

Before the exact program, an untraced decision that passes the gate
and has det M nonzero mod the prime P runs the program mod P
(`StraightLine.run_mod_p`).  The figure is made of joins, meets and vector
sums of the input points, which are polynomial in the coordinates, so each
mod-p test point is a multiple of the exact one reduced mod P; if the
program completes and the bracket is nonzero mod P, the exact bracket is
nonzero and the verdict is NO.  A zero bracket mod P says nothing (it may
be a multiple of P), so the filter answers only NO: on a decline or a zero
bracket the exact program decides, and gives the certificate.  The test
points are M's columns in the vertex frame, so their bracket is a nonzero
multiple of det M, and where det M is 0 mod P the filter cannot answer NO.
There, and so on every YES, the decision goes straight to the exact
program: det M mod P only picks which path runs first, never the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import permutations

from .constructions import (
    StraightLine,
    Tape,
    Tetrahedron,
    local_param_point,
    recover_from_chart,
    reduced_mod_p,
    von_staudt_inverse,
    von_staudt_product,
)
from .decision import Decision, Labeling, PlanePair, PreconditionViolated
from .extensors import _JOIN_KERNELS, P, join, plane_form
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
    [0156][2346] at (0, 0).  `basis_planes` holds the extensors of those
    planes, pair by pair, when `build_M` made the matrix."""

    entries: tuple
    basis_planes: tuple = field(default=(), compare=False, repr=False)

    def column(self, c):
        return tuple(self.entries[r][c] for r in range(4))


_plane_with_point = _JOIN_KERNELS[3, 1]


def build_M(points) -> MatrixM:
    """M from the eight basis planes: the bracket [abcx] is the scalar
    join(plane abc, x), so entry (r, c) is join(plane_a, x)·join(plane_b, x)
    for the two planes of basis quadric c and x = point 6 + r."""
    pts = list(points)
    planes = tuple(
        tuple(join(join(pts[i], pts[j]), pts[k]) for i, j, k in pair) for pair in BASIS_PLANES
    )
    entries = []
    for r in range(4):
        x = pts[6 + r].coords
        entries.append(
            tuple(
                _plane_with_point(a.coeffs, x)[0] * _plane_with_point(b.coeffs, x)[0]
                for a, b in planes
            )
        )
    return MatrixM(tuple(entries), planes)


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
    (relabeled) points: M itself, with the extensors of the two planes of
    each basis quadric, which `build_M` reads M from, and, each on first
    read, the global unit and the tetrahedron 6789 with that unit, for the
    columns that are drawn.  The tetrahedron memoizes its edge frames, and
    each frame its line, auxiliaries and von Staudt scaffolding, so every
    drawn column reads them.  The figure lives as long as the decision
    that builds it.
    """

    def __init__(self, points):
        self.points = list(points)
        self.m = build_M(self.points)

    @cached_property
    def zero_free(self) -> bool:
        """Whether no entry of M is zero: the gate of the generic program,
        whose untraced loop relies on it in place of guards (see
        `bracket_of_test_points`)."""
        return all(map(all, self.m.entries))

    @cached_property
    def unit(self) -> Point:
        return global_unit(self.points)

    @cached_property
    def tetrahedron(self) -> Tetrahedron:
        return Tetrahedron(tuple(self.points[6:10]), self.unit)

    def basis_leaves(self, col) -> tuple:
        """The points of column col's two basis planes and the planes
        themselves, as coefficient tuples."""
        a_triple, b_triple = BASIS_PLANES[col]
        plane_a, plane_b = self.m.basis_planes[col]
        return (
            *(self.points[i].coords for i in a_triple + b_triple),
            plane_a.coeffs,
            plane_b.coeffs,
        )

    def program_leaves(self) -> tuple:
        """The leaves of the generic program: the coordinates of the
        vertices 6..9 and of their global unit, and the basis leaves of each
        column."""
        shared = (*(p.coords for p in self.points[6:10]), self.unit.coords)
        return shared, tuple(self.basis_leaves(col) for col in range(4))

    def quadric_forms(self, c):
        """Raw linear forms of the two planes of basis quadric c."""
        plane_a, plane_b = self.m.basis_planes[c]
        return plane_form(plane_a), plane_form(plane_b)


# A configuration whose column 0 takes the main shape, on which
# `generic_program` draws the tetrahedron and the column it compiles; each
# chart-0 frame of its tetrahedron picks E0 as its auxiliary direction.
REFERENCE_POINTS = (
    (3, 0, -2, 2), (0, 2, -3, 1), (2, -3, 0, 0), (1, -2, -1, -2), (2, -2, 3, 0),
    (1, 3, 0, -3), (1, 2, -3, -2), (2, 2, 3, -1), (3, -2, 1, -2), (2, 1, 0, 1),
)


@cache
def generic_program() -> StraightLine:
    """The generic program: the tetrahedron of the reference configuration
    drawn on one Tape, its shared part, and column 0 drawn on another,
    which reads the tetrahedron's values and so its frames and edge lines,
    compiled as one program of `GenericFigure.program_leaves`.  Every
    column in the main shape has the steps and checks of that drawing,
    with its leaves in the same roles, so the column's body serves all
    four.  Built on first use, once per process.
    """
    points = [Point(coords) for coords in REFERENCE_POINTS]
    figure = GenericFigure(points)
    shared, body = Tape(), Tape()
    figure.tetrahedron = Tetrahedron(tuple(points[6:10]), figure.unit, shared)
    result = construct_test_point(points, 0, body, figure)
    leaves, columns = figure.program_leaves()
    return StraightLine(body, columns[0], result.coords, (shared, leaves))


def construct_test_point(points, col, trace=None, figure=None) -> Point:
    """Synthetic image of column col of M under the isomorphism onto the
    tetrahedron 6789.

    Works in the chart of the first nonzero column entry i: on each edge
    from vertex i the needed parameter M[j][col]/M[i][col] is produced by
    the meet-points x, y with the basis planes, their product, and its
    inverse 1/(xy), which von Staudt's field laws make (1/x)(1/y), in that
    order, and the point is recovered from the three edge projections.
    `figure` is the GenericFigure of the points, built when not given; its
    M, basis planes, tetrahedron and edge frames (with their memoized
    lines, auxiliaries and scaffolding) serve every column, and each cached
    value is still recorded in the trace where it is used.
    """
    figure = figure or GenericFigure(points)
    column = figure.m.column(col)
    if all(v == 0 for v in column):
        raise ZeroColumn(f"column {col} of M vanishes")
    chart = next(r for r in range(4) if column[r] != 0)
    tet = figure.tetrahedron
    a_triple, b_triple = BASIS_PLANES[col]
    plane_a, plane_b = figure.m.basis_planes[col]
    a_pts = [points[i] for i in a_triple]
    b_pts = [points[i] for i in b_triple]
    projections = []
    for j in (jj for jj in range(4) if jj != chart):
        frame = tet.edge_frame(chart, j)
        d, e = tet.vertices[chart], tet.vertices[j]
        edge = frame.line
        px = local_param_point(d, e, *a_pts, trace=trace, line=edge, plane=plane_a)
        py = local_param_point(d, e, *b_pts, trace=trace, line=edge, plane=plane_b)
        product = von_staudt_product(frame, px, py, trace=trace)
        projections.append(von_staudt_inverse(frame, product, trace=trace))
    return recover_from_chart(tet, chart, projections, trace=trace)


def bracket_of_test_points(figure, trace=None) -> int:
    """The bracket of the four test points of the figure, with the trace
    steps of `construct_test_point`, which draws them.  Where M has no
    zero, the generic program gives it: its untraced loop keeps no check of
    the drawn column, since on such a figure each holds (the arguments
    above `constructions._CHECK_CODE`).  Where a frame takes another shape,
    or a computed step is zero, it returns None, and all four columns are
    drawn, as they are where M has a zero."""
    if figure.zero_free:
        det = generic_program().run(figure.program_leaves(), trace)
        if det is not None:
            return det
    return bracket(*(construct_test_point(figure.points, c, trace, figure) for c in range(4)))


def _no_mod_p(figure) -> bool:
    """Whether the four test points of the figure are shown not coplanar:
    the generic program, run mod P on the figure's leaves reduced mod P,
    completes with a bracket nonzero mod P."""
    shared, columns = figure.program_leaves()
    leaves = reduced_mod_p(shared), tuple(map(reduced_mod_p, columns))
    return bool(generic_program().run_mod_p(leaves))


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
    reducible-quadric basis.  An untraced decision whose M has no zero and
    whose det M is nonzero mod P may answer NO first, from the mod-p
    filter (see the module docstring).  `table` is the IncidenceTable
    of the points, built when not given.
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
    if (
        trace is None
        and figure.zero_free
        and det4(*reduced_mod_p(m.entries)) % P  # det M, from its rows
        and _no_mod_p(figure)
    ):
        return Decision(False, "generic", labeling, None, None)
    on_quadric = bracket_of_test_points(figure, trace) == 0
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
