"""Decision in the generic case: three skew label-lines 01, 23, 45 and the
four remaining points independent.

A four-element basis of reducible quadrics through points 0..5 exists
exactly when the bracket binomial Q is nonzero (label permutations repair
Q = 0), the remaining four points impose dependent conditions exactly when
a 4x4 matrix M of bracket products is singular, and singularity is decided
synthetically by constructing the images of M's columns and testing the
four constructed points for coplanarity.

`construct_test_point` draws a column through the figures of
`constructions`.  A decision runs each column through `column_test_point`
instead, which, when the column's entry in row 0 is nonzero, runs the
column program: column 0 of a fixed reference configuration, drawn once on
a Tape and compiled to straight-line code (`column_program`).  What the
column reads of the tetrahedron 6789 (its vertices, its three chart-0 edge
frames with their scaffolds, and their edge lines) comes from the frames
program: the reference tetrahedron and those frames drawn once on a Tape
through the same `Tetrahedron`, `LineFrame` and `choose_auxiliaries` code
(`frames_program`), compiled to return their values bit for bit.  So a
decision builds no frame object where the programs run.  Both are built on
the first generic decision, never at import, and once per process, and
each of their functions is compiled on its first run.  The untraced
column program holds every point up to scale, makes only the test point
canonical, and recovers it in the vertex frame of the tetrahedron, where
the traced one records the recovery's two meets; the mod-p programs are
the untraced bodies on other names (see `StraightLine`).  The column
program holds in the main shape (chart 0, every von Staudt factor finite
and nonzero), and the frames program where each chart-0 frame picks E0 as
its auxiliary direction; there they give the drawn column's test point
and trace steps.  Their guards hold every check of the drawing, so a
column in another shape, or one the figure would raise on, is drawn, and
records only what the drawing records.

Before the exact columns, an untraced decision with every entry of M's row
0 nonzero and some coordinate of at least `MODP_MIN_BITS` bits runs the
frames program and then the column program mod the prime P on the four
columns (`StraightLine.run_mod_p`).  The figure is made of joins, meets
and vector sums of the input points, which are polynomial in the
coordinates, so each mod-p test point is a multiple of the exact one
reduced mod P; if all four complete and their bracket is nonzero mod P,
the exact bracket is nonzero and the verdict is NO.  A zero bracket mod P
says nothing (it may be a multiple of P), so the filter answers only NO:
on a decline or a zero bracket, and on every YES, the exact programs
decide, and give the certificate.
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
from .extensors import _JOIN_KERNELS, join, modp_kernels, plane_form
from .projective import (
    GeometryError,
    MONOMIALS,
    IncidenceTable,
    Point,
    QuadricCoeffs,
    _trusted_point,
    bracket,
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
    (relabeled) points: M itself, the extensors of the two planes of each
    basis quadric, which `build_M` reads M from, and, each on first read,
    the values a column drawn in chart 0 reads of the tetrahedron 6789, as
    the frames program computes them (`frame_leaves`), and the tetrahedron
    itself with its global unit, for the columns that are drawn.  The
    tetrahedron memoizes its edge frames, and each frame its line,
    auxiliaries and von Staudt scaffolding, so every drawn column reads
    them.  The figure lives as long as the decision that builds it.
    """

    def __init__(self, points):
        self.points = list(points)
        self.m = build_M(self.points)
        self.basis_planes = self.m.basis_planes

    @cached_property
    def tetrahedron(self) -> Tetrahedron:
        return Tetrahedron(tuple(self.points[6:10]), global_unit(self.points))

    def frame_inputs(self) -> tuple:
        """The leaves of the frames program: the coordinates of points 6..9
        and of their global unit."""
        return (*(p.coords for p in self.points[6:10]), global_unit(self.points).coords)

    @cached_property
    def frame_leaves(self):
        """What a column drawn in chart 0 reads from the tetrahedron, as
        `chart_zero_values` lists it, computed by the frames program; None
        where the program declines, and the columns are drawn."""
        return frames_program().run(self.frame_inputs())

    def basis_leaves(self, col) -> tuple:
        """The points of column col's two basis planes and the planes
        themselves, as coefficient tuples."""
        a_triple, b_triple = BASIS_PLANES[col]
        plane_a, plane_b = self.basis_planes[col]
        return (
            *(self.points[i].coords for i in a_triple + b_triple),
            plane_a.coeffs,
            plane_b.coeffs,
        )

    def column_leaves(self, col):
        """The leaves of column col drawn in chart 0: those of the
        tetrahedron, then the column's basis leaves; None where the frames
        program declines."""
        if self.frame_leaves is None:
            return None
        return self.frame_leaves + self.basis_leaves(col)

    def quadric_forms(self, c):
        """Raw linear forms of the two planes of basis quadric c."""
        plane_a, plane_b = self.basis_planes[c]
        return plane_form(plane_a), plane_form(plane_b)


def chart_zero_values(tet) -> tuple:
    """What a column drawn in chart 0 reads from the tetrahedron: its
    vertices and, for each edge 0j, the edge's frame (its unit, line and
    von Staudt scaffold), the edge's line and the line of the edge opposite
    it, each as a coefficient tuple.  Each frame is built as it is read,
    so on a tetrahedron built with a Tape this draws the frames there."""
    values = [v.coords for v in tet.vertices]
    for j in (1, 2, 3):
        k, l = (m for m in (1, 2, 3) if m != j)
        frame = tet.edge_frame(0, j)
        scaffold = frame.scaffold
        values += [frame.unit.coords, frame.line.coeffs, scaffold.a.coords]
        values += [scaffold.lprime.coeffs, *scaffold.product, *scaffold.inverse]
        values += [tet.edge_line(0, j).coeffs, tet.edge_line(k, l).coeffs]
    return tuple(values)


def column_test_point(figure, col, trace=None) -> Point:
    """The test point of column col of the figure's M, with the trace steps
    of `construct_test_point`, which draws it.

    A column whose entry in row 0 is nonzero runs the column program, the
    straight-line form of the drawn column in its main shape: chart 0 and
    every von Staudt factor finite and nonzero.  Its guards, and those of
    the frames program, hold every check of the figure, so where the
    column takes another shape, or the figure would raise, a program
    returns None and the column is drawn.
    """
    if figure.m.entries[0][col]:
        leaves = figure.column_leaves(col)
        if leaves is not None:
            coords = column_program().run(leaves, trace)
            if coords is not None:
                return _trusted_point(coords)
    return construct_test_point(figure.points, col, trace, figure)


# A configuration whose column 0 takes the main shape, on which
# `column_program` draws the column it compiles, and `frames_program` the
# chart-0 frames of its tetrahedron, each of which picks E0 as its
# auxiliary direction.
REFERENCE_POINTS = (
    (3, 0, -2, 2), (0, 2, -3, 1), (2, -3, 0, 0), (1, -2, -1, -2), (2, -2, 3, 0),
    (1, 3, 0, -3), (1, 2, -3, -2), (2, 2, 3, -1), (3, -2, 1, -2), (2, 1, 0, 1),
)


@cache
def frames_program() -> StraightLine:
    """The frames program: the tetrahedron of the reference configuration
    drawn once on a Tape, with its chart-0 edge frames as
    `chart_zero_values` reads them, and compiled as a canonical program
    (see `StraightLine`).  Its leaves are the four vertices and the global
    unit, and it returns the values of `chart_zero_values` bit for bit:
    every checked step of `Tetrahedron`, `project_to_edge`, `LineFrame`,
    `choose_auxiliaries` and the scaffold is a line or a guard of it, and
    the vector sums of the auxiliaries read only the vertices, so mod P it
    gives them up to scale.  Built on first use, once per process.
    """
    points = [Point(coords) for coords in REFERENCE_POINTS]
    vertices, unit = tuple(points[6:10]), global_unit(points)
    tape = Tape()
    values = chart_zero_values(Tetrahedron(vertices, unit, tape))
    leaves = (*(v.coords for v in vertices), unit.coords)
    return StraightLine(tape, leaves, values, canonical=True)


@cache
def column_program() -> StraightLine:
    """The column program: column 0 of the reference configuration drawn
    once on a Tape and compiled.  Every column in the main shape has the
    steps and checks of that drawing, with its leaves in the same roles, so
    one program serves them all.  Built on first use, once per process.
    """
    points = [Point(coords) for coords in REFERENCE_POINTS]
    figure = GenericFigure(points)
    # the drawing reads the tetrahedron's own values, so they are its leaves
    figure.frame_leaves = chart_zero_values(figure.tetrahedron)
    tape = Tape()
    result = construct_test_point(points, 0, tape, figure)
    return StraightLine(tape, figure.column_leaves(0), result.coords)


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
    plane_a, plane_b = figure.basis_planes[col]
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


# The size gate of the mod-p filter, in bits of the largest coordinate of
# the relabeled points.  Run on every generic decision of the bench's
# generic corpora (seeds 7 and 1, one 2 GHz Xeon core), the filter cost a
# YES decision 0.37-0.55 ms at every size, and saved a NO decision 0.11 ms
# at about 20 bits, 0.47 ms at about 60, 1.28 ms at about 125 and 4.3 ms at
# about 250.  Below about 100 bits the saving on NO is no more than about
# the cost on YES; the gate sits between the largest class of the corpus
# below that (77 bits) and the next (121 bits).
MODP_MIN_BITS = 96


def _no_mod_p(figure) -> bool:
    """Whether the four test points of the figure are shown not coplanar:
    the frames program, run mod P on the vertices and the global unit, and
    then the column program, run mod P on each column's leaves, complete,
    and the bracket of the four points is nonzero mod P."""
    shared = frames_program().run_mod_p(reduced_mod_p(figure.frame_inputs()))
    if shared is None:
        return False
    program = column_program()
    points = []
    for col in range(4):
        point = program.run_mod_p(shared + reduced_mod_p(figure.basis_leaves(col)))
        if point is None:
            return False
        points.append(point)
    join_mod = modp_kernels()[0]
    line = join_mod[1, 1](points[0], points[1])
    return join_mod[3, 1](join_mod[2, 1](line, points[2]), points[3])[0] != 0


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
    reducible-quadric basis.  An untraced decision of large points whose
    row 0 of M has no zero may answer NO first, from the mod-p filter (see
    the module docstring).  `table` is the IncidenceTable of the points,
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
    if (
        trace is None
        and all(m.entries[0])
        and max(abs(c) for p in relabeled for c in p.coords).bit_length() >= MODP_MIN_BITS
        and _no_mod_p(figure)
    ):
        return Decision(False, "generic", labeling, None, None)
    test_points = [column_test_point(figure, c, trace) for c in range(4)]
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
