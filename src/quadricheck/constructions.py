"""Synthetic toolkit: edge projections, chart recovery, von Staudt product
and inverse on a line, and the meet-point whose local parameter is a bracket
ratio.  Points go in and out of each construction, and inside it the
figure runs on coefficient tuples through the kernels of `extensors`.  It
can be recorded into a replayable ConstructionTrace of `join` and `meet`
steps, each a TraceStep(op, grades, inputs, output) of those coefficient
tuples, so recording makes no value object: `_join` and `_meet_lines`
build a line, a plane or the meet point of coplanar lines and record it in
one call, and the steps a frame's scaffold shares are recorded where each
figure reads them.  The trace is written, read and replayed on the same
steps.

All constructions use only lines through two known points, planes through
three known points, and their intersections; intersections of coplanar
lines are realized as meet(l1, join(l2, E_k)) for the first basis point
E_k off their common plane in the fixed order E3, E2, E1, E0, each tried
by one generated kernel on the two lines' coefficients.  No step computes
a local parameter as a number: a product with the frame's zero or infinity
as a factor is decided by incidence, and records no step, since its output
is that zero or infinity.

A figure drawn once with a Tape in place of its trace leaves every step it
records, repeats included, every vector sum it makes (`_sum`) and every
check it makes that `_held` notes (a point on or off a line, a point
apart from others, four points that span space), in order.  A
tetrahedron built with a Tape draws there its checks and its edge lines
and frames, their memos included.  `StraightLine` compiles such a tape
into a generated function of the figure's leaves, the values it reads and
does not compute: each step or sum is a line of code, or reads the leaf,
earlier output or earlier step of the same op and inputs that holds the
value, and each check, with each check of a computed step (a nonzero join
or meet point, coplanar lines that meet), is an inline guard of the
traced function.  The program thus holds in the shape of the drawing, and
returns None wherever the figure would take another shape or raise; run
traced, it hands its steps to `_record` only once it completes, in the
figure's order.  Untraced and mod P it leaves out the checks that hold on
every figure it is run on (the arguments above `_CHECK_CODE`).  A
figure may read a shared part drawn on a tape of its own, such as a
tetrahedron with its frames: the program then runs the shared part once,
the figure once per column of leaves, and returns the bracket of the
columns' results.  Run untraced, it meets a line pq with a coplanar line l
at [πp]q - [πq]p for the plane π = join(l, E3), which needs no line pq:
in the loop over the columns it joins no line that only such a meet
reads, and the point, zero exactly where p and q are dependent, is the
guard the join would be.  It makes every point of the shared part
canonical, and holds every point of the figure up to scale but its
result.  Run mod the prime P (`run_mod_p`), it is the same body
on other names: kernels that reduce mod P, on the leaves reduced mod P.
It declines wherever a value it needs is 0 mod P; its output is then the
untraced output reduced mod P, up to a scale nonzero mod P, which is
enough to show a bracket of outputs nonzero and no more.

A chart recovery meets its three planes in a point.  Traced, and so in the
traced program, it meets the first two in a line and that line with the
third, and records both meets.  Untraced, and so in the untraced program,
it expands the point in the tetrahedron's vertex frame (`_chart_hit`),
which gives the same point without the factor the two meets carry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from math import gcd, lcm
from typing import NamedTuple

from .extensors import (
    _JOIN_KERNELS,
    _MEET_KERNELS,
    _WITNESS_BRACKETS,
    _WITNESS_MEETS,
    P,
    Extensor,
    GradeOverflow,
    ZeroExtensor,
    modp_kernels,
)
from .projective import (
    GeometryError,
    InfinityProduct,
    STANDARD_BASIS,
    SUBSETS,
    Point,
    _canonical_ints,
    _canonical_nonzero,
    _decimal_strings,
    _ints_of_strings,
    _trusted,
    _trusted_point,
    bracket,
    det4,
)


class OnOppositeEdge(GeometryError):
    """Projection undefined: the point lies on the opposite edge."""


class OutsideChart(GeometryError):
    """A projection coincides with the chart's infinity vertex."""


class InconsistentProjections(GeometryError):
    """The three recovery planes do not meet in a single point."""


class DegenerateMeet(GeometryError):
    """The line lies inside the plane; their meet vanishes."""


class SkewLines(GeometryError, ValueError):
    """Two lines that do not meet: their join is a nonzero scalar."""


# ---------------------------------------------------------------------------
# construction traces


class TraceStep(NamedTuple):
    """One step op(inputs) = output, held as the coefficient tuples the
    figures compute on: `grades` lists the inputs' grades and then the
    output's, `inputs` holds the inputs' coefficient tuples, and `output`
    the output's.  A grade-1 value is a point, held as its canonical
    coordinates.  The trace makes each step with tuple.__new__, which runs
    no Python-level constructor."""

    op: str
    grades: tuple
    inputs: tuple
    output: tuple


@dataclass
class ConstructionTrace:
    """Ordered, serializable record of construction steps: `steps` lists
    each step as a TraceStep, and replaying the steps reproduces every
    output exactly.  Recording, `to_json`, `from_json` and `verify_replay`
    work on the steps' coefficient tuples and make no value object.

    A trace records each construction once: a step whose op and input
    values equal an earlier step's is not appended again (its output is
    the same), so a figure that reuses a memoized part, such as an edge's
    line, a basis plane or a frame's von Staudt scaffold, reads the first
    step.  A generic decision records 217 steps.  A trace read from JSON
    keeps its steps as written, repeats included.

    In JSON the values are written once each.  `leaves` holds every input
    that no earlier step outputs, and each step input is an int: i below
    len(leaves) names leaf i, and len(leaves) + k the output of step k.  An
    input equal to an earlier step's output names the first such step.  A
    grade-1 value is a point, written with its canonical coordinates.
    """

    steps: list = field(default_factory=list, init=False)
    # the key of every recorded step: its op and its inputs' grades and coefficients
    _recorded: set = field(default_factory=set, init=False, repr=False, compare=False)

    def to_json(self):
        leaves = {}  # (grade, coeffs) -> leaf index
        firsts = {}  # (grade, coeffs) -> the first step that outputs the value
        refs = []  # per step; a step k is held as ~k until the leaf count is known
        for k, (_, grades, inputs, output) in enumerate(self.steps):
            row = []
            for value in zip(grades, inputs):
                n = firsts.get(value)
                row.append(leaves.setdefault(value, len(leaves)) if n is None else ~n)
            refs.append(row)
            firsts.setdefault((grades[-1], output), k)
        offset = len(leaves)
        return {
            "leaves": [_value_to_json(g, c) for g, c in leaves],
            "steps": [
                {
                    "op": op,
                    "inputs": [i if i >= 0 else offset + ~i for i in row],
                    "output": _value_to_json(grades[-1], output),
                }
                for (op, grades, _, output), row in zip(self.steps, refs)
            ],
        }

    @classmethod
    def from_json(cls, data):
        if "leaves" not in data:
            raise ValueError("a trace needs a 'leaves' table")
        values = [_value_from_json(leaf) for leaf in data["leaves"]]
        trace = cls()
        for raw in data["steps"]:
            grades, inputs = [], []
            for i in raw["inputs"]:
                if type(i) is not int or not 0 <= i < len(values):
                    raise ValueError(f"step input {i!r} names no earlier value")
                grade, coeffs = values[i]
                grades.append(grade)
                inputs.append(coeffs)
            grade, coeffs = _value_from_json(raw["output"])
            step = (raw["op"], (*grades, grade), tuple(inputs), coeffs)
            trace.steps.append(tuple.__new__(TraceStep, step))
            values.append((grade, coeffs))
        return trace


def _value_to_json(grade, coeffs):
    if grade == 1:
        return {"point": _decimal_strings(coeffs)}
    return {"extensor": {"grade": grade, "coeffs": _decimal_strings(coeffs)}}


def _value_from_json(data):
    """(grade, coefficient tuple) of a written value.  A point's coordinates
    are made canonical; an extensor must have a grade 0..4 and that grade's
    number of coefficients, and one of grade 1 canonical coefficients, since
    a grade-1 value is a point."""
    if "point" in data:
        coords = _ints_of_strings(data["point"])
        if len(coords) != 4:
            raise ValueError("points live in P^3: they take four coordinates")
        # the coordinates are ints, so of _canonical_ints' checks only the
        # zero test can fail
        return 1, _canonical_nonzero(coords) if any(coords) else _canonical_ints(coords)
    raw = data["extensor"]
    grade = raw["grade"]
    if type(grade) is not int or grade not in range(5):
        raise ValueError("grade must be 0..4")
    coeffs = _ints_of_strings(raw["coeffs"])
    if len(coeffs) != len(SUBSETS[grade]):
        raise ValueError(f"grade-{grade} extensor needs {len(SUBSETS[grade])} coefficients")
    if grade == 1 and _canonical_ints(coeffs) != coeffs:
        raise ValueError("a grade-1 value is a point: its coefficients must be canonical")
    return grade, coeffs


def _record(trace, op, grades, inputs, output):
    """Append the step op(inputs) = output to the trace, if any, unless an
    earlier step has the same op and input values.  The inputs and the
    output are coefficient tuples, and `grades` holds the inputs' grades
    and then the output's, so the key (op, grades, *inputs) hashes and
    compares in C, and the step is kept as it is given."""
    if trace is not None:
        recorded = trace._recorded
        size = len(recorded)
        recorded.add((op, grades, *inputs))
        if len(recorded) > size:
            trace.steps.append(tuple.__new__(TraceStep, (op, grades, inputs, output)))


def _held(trace, *check):
    """Note on a Tape that a check of the figure held, as one of
    - ("on", line, point): the point lies on the line;
    - ("off", line, point): the point lies off the line;
    - ("apart", point, *others): the point differs from each other point;
    - ("span", *four points): the four points span space;
    each value a coefficient tuple.  A ConstructionTrace keeps no check."""
    if type(trace) is Tape:
        trace.steps.append(check)


def _join(trace, *points):
    """The line through two points or the plane through three, each given
    by its canonical coordinates, as a coefficient tuple recorded as one
    `join` step."""
    out = _join_points(points[0], points[1])
    if len(points) == 3:
        out = _join_line_point(out, points[2])
    if not any(out):
        raise ZeroExtensor(f"the points {points} are dependent")
    if trace is not None:
        _record(trace, "join", (1, 1, 2) if len(points) == 2 else (1, 1, 1, 3), points, out)
    return out


def _meet_lines(trace, l1, l2):
    """The canonical coordinates of the meet point of two coplanar lines,
    given by their coefficients, recorded as one `meet` step."""
    out = line_meet_line(l1, l2)
    if trace is not None:
        _record(trace, "meet", (2, 2, 1), (l1, l2), out)
    return out


class VectorSum(NamedTuple):
    """A point made as a vector sum, as a Tape notes it: the canonical form
    of the sum of weight·coordinates over the weights and inputs."""

    weights: tuple
    inputs: tuple
    output: tuple


def _sum(trace, *terms):
    """The canonical coordinates of the sum of w·v over the terms (w, v),
    each v a point's canonical coordinates, noted on a Tape as a VectorSum.
    A sum is no join or meet, so a ConstructionTrace keeps none."""
    out = _canonical_ints([sum([w * v[m] for w, v in terms]) for m in range(4)])
    if type(trace) is Tape:
        trace.steps.append(VectorSum(*zip(*terms), out))
    return out


# ---------------------------------------------------------------------------
# coplanar line intersection


# The kernels the figures run on coefficient tuples; the plane of a line
# and a point is zero exactly when the point is on the line.
_join_points = _JOIN_KERNELS[1, 1]
_join_line_point = _JOIN_KERNELS[2, 1]
_join_lines = _JOIN_KERNELS[2, 2]
_plane_with_point = _JOIN_KERNELS[3, 1]
_meet_line_plane = _MEET_KERNELS[2, 3]
_meet_planes = _MEET_KERNELS[3, 3]


def line_meet_line(l1, l2):
    """Intersection point of two distinct coplanar lines in P^3: a Point for
    two line Extensors, and its canonical coordinates for the coefficient
    tuples of two lines, as the von Staudt figures pass them.

    The meet of coplanar lines degenerates (their supports do not span), so
    the point is computed as meet(l1, join(l2, E_k)) for the first basis
    point E_k off the common plane, in the order E3, E2, E1, E0.  Distinct
    coplanar lines span a single plane, which misses one of E0..E3; only
    coincident lines leave every hit zero.  Every nonzero hit is the same
    point, made canonical once, so the order changes only how many kernels
    run.  Raises SkewLines when the lines do not meet.
    """
    extensors = type(l1) is not tuple
    if extensors and (l1.grade != 2 or l2.grade != 2):
        raise ValueError("line_meet_line needs two lines")
    c1, c2 = (l1.coeffs, l2.coeffs) if extensors else (l1, l2)
    # The figures' lines never fail this: each lies in the plane through its
    # frame's line and E_aux (the argument above `_CHECK_CODE`).
    if _join_lines(c1, c2)[0]:
        raise SkewLines("the lines are skew; they do not meet")
    # A von Staudt figure on a frame lies in the plane through the frame's
    # line and its auxiliary direction E_aux, which holds E_aux and every
    # E_m with m < aux (those lie on the line), so E3 first hits at once
    # unless that plane holds it too.
    for k in (3, 2, 1, 0):
        # hit is nonzero exactly when E_k is off the common plane
        hit = _WITNESS_MEETS[k](c1, c2)
        if any(hit):
            coords = _canonical_nonzero(hit)
            return _trusted_point(coords) if extensors else coords
    raise ValueError("the lines coincide")


# ---------------------------------------------------------------------------
# frames, tetrahedra, charts


@dataclass(frozen=True)
class LineFrame:
    """Zero, infinity and unit on a line; fixes local parameters on it.

    A frame memoizes, each on first read, what every construction on it
    shares: the index k of its auxiliary direction E_k (`aux_index`, the
    first basis point off its line), its line, and the scaffold of its von
    Staudt product and inverse (`scaffold`): the auxiliaries that
    `choose_auxiliaries` picks for it and the parts of both figures that do
    not depend on the input point.  Every line of those figures lies in
    the plane through the line and E_k.  A frame drawn on a Tape (`tape`)
    leaves there every step and check it makes in building them.
    """

    zero: Point
    infinity: Point
    unit: Point
    tape: Tape | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if len({self.zero, self.infinity, self.unit}) != 3:
            raise ValueError("frame points must be pairwise distinct")
        zero, infinity, unit = self.zero.coords, self.infinity.coords, self.unit.coords
        _held(self.tape, "apart", zero, infinity)
        _held(self.tape, "apart", unit, zero, infinity)
        # zero and infinity differ, so the unit is on their line exactly
        # when its join with the line is zero.  An edge frame never fails
        # this: its unit is a meet with the edge's line (`project_to_edge`).
        line = self.line.coeffs
        if any(_join_line_point(line, unit)):
            raise ValueError("frame points must be collinear")
        _held(self.tape, "on", line, unit)

    @cached_property
    def aux_index(self) -> int:
        line = self.line.coeffs
        for k, e in enumerate(STANDARD_BASIS):
            if any(_join_line_point(line, e.coords)):
                _held(self.tape, "off", line, e.coords)
                return k
            # this one can fire: it holds the shape, and the reference
            # frames never note it (the argument above `_CHECK_CODE`)
            _held(self.tape, "on", line, e.coords)

    @cached_property
    def line(self) -> Extensor:
        return _trusted(2, _join(self.tape, self.zero.coords, self.infinity.coords))

    @cached_property
    def scaffold(self) -> Scaffold:
        a, lprime = choose_auxiliaries(self)
        ac, unit, infinity, tape = a.coords, self.unit.coords, self.infinity.coords, self.tape
        la1, l1b = _join(tape, ac, unit), _join(tape, unit, ac)
        product = (la1, _meet_lines(tape, la1, lprime.coeffs), _join(tape, ac, infinity))
        inverse = (l1b, _meet_lines(tape, l1b, lprime.coeffs), _join(tape, infinity, ac))
        return Scaffold(a, lprime, product, inverse)


class Scaffold(NamedTuple):
    """The part of a frame's von Staudt figures that does not depend on the
    input point: the auxiliary point a (the inverse names it b), the line
    L' through zero, and, as the coefficient tuples the figures run on,
    - `product`: a·unit, p1' = (a·unit) ∩ L', and a·infinity;
    - `inverse`: unit·a, c2 = (unit·a) ∩ L', and infinity·a.
    """

    a: Point
    lprime: Extensor
    product: tuple
    inverse: tuple


@dataclass(frozen=True)
class Tetrahedron:
    """Four points in general position plus a unit off every face plane.

    `edge_line(i, j)` and `edge_frame(i, j)` memoize each line and frame
    they build, so the constructions on one edge share that frame's memos
    (see LineFrame), and the frames, the projections and the recoveries
    share the edge lines.  A tetrahedron drawn on a Tape (`tape`) leaves
    there its checks, and every step and check of the lines and frames it
    builds, its frames' memos included.
    """

    vertices: tuple
    unit: Point
    tape: Tape | None = field(default=None, compare=False, repr=False)
    _lines: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _frames: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        vertices = tuple(self.vertices)
        object.__setattr__(self, "vertices", vertices)
        if len(vertices) != 4 or bracket(*vertices) == 0:
            raise ValueError("vertices must be four points in general position")
        _held(self.tape, "span", *(v.coords for v in vertices))
        for skip in range(4):
            face = [v for i, v in enumerate(vertices) if i != skip]
            if bracket(*face, self.unit) == 0:
                raise ValueError(f"unit lies on the face missing vertex {skip}")
            _held(self.tape, "span", *(v.coords for v in face), self.unit.coords)

    def edge_line(self, i: int, j: int) -> Extensor:
        """The line join(vertex i, vertex j)."""
        line = self._lines.get((i, j))
        if line is None:
            ends = self.vertices[i].coords, self.vertices[j].coords
            line = self._lines[i, j] = _trusted(2, _join(self.tape, *ends))
        return line

    def edge_frame(self, i: int, j: int) -> LineFrame:
        """Frame on edge ij: zero at vertex i, infinity at vertex j, unit cut
        out by the plane through the other two vertices and the unit."""
        frame = self._frames.get((i, j))
        if frame is None:
            unit_ij = project_to_edge(self, i, j, self.unit)
            frame = LineFrame(self.vertices[i], self.vertices[j], unit_ij, self.tape)
            self._frames[i, j] = frame
        return frame


def project_to_edge(tet: Tetrahedron, i: int, j: int, p: Point) -> Point:
    """Project p onto edge ij from the opposite edge kl: edge ∩ join(kl, p).
    That plane is zero exactly when p lies on kl; on a tetrahedron drawn on
    a Tape, the plane and the meet are steps there."""
    if i == j:
        raise ValueError("edge needs two distinct vertex indices")
    k, l = (m for m in range(4) if m not in (i, j))
    opposite = tet.edge_line(k, l).coeffs
    plane = _join_line_point(opposite, p.coords)
    if not any(plane):
        raise OnOppositeEdge(f"{p} lies on the opposite edge {k}{l}")
    _record(tet.tape, "join", (2, 1, 3), (opposite, p.coords), plane)
    edge = tet.edge_line(i, j).coeffs
    # The edge lies in the plane only if the plane holds all four vertices,
    # which span space: this never fires on a tetrahedron.
    hit = _meet_line_plane(edge, plane)
    if not any(hit):
        raise ZeroExtensor("not a nonzero grade-1 extensor")
    coords = _canonical_nonzero(hit)
    _record(tet.tape, "meet", (2, 3, 1), (edge, plane), coords)
    return _trusted_point(coords)


def recover_from_chart(tet: Tetrahedron, i: int, projections, trace=None) -> Point:
    """Recover a chart-U_i point from its three edge projections.

    projections are the points on the edges i-j for the three other vertex
    indices j in ascending order; each must lie on its edge and differ from
    the infinity vertex j.  The point is the meet of the three planes
    spanned by each projection and its opposite edge.  Untraced, it is
    expanded in the tetrahedron's vertex frame (`_chart_hit`); traced, the
    first two planes meet in a line, which meets the third, and both meets
    are recorded.  The point must lie off the three opposite edges
    (OnOppositeEdge): a point off the edge kl opposite ij spans with kl the
    recovery plane of ij, which meets the edge ij at the given projection,
    so the point reprojects onto all three.
    """
    others = [j for j in range(4) if j != i]
    projections = list(projections)
    if len(projections) != 3:
        raise ValueError("need one projection per edge through the chart vertex")
    vertices = [v.coords for v in tet.vertices]
    planes = []
    for j, proj in zip(others, projections):
        edge = tet.edge_line(i, j).coeffs
        # A projection drawn by `construct_test_point` never fails this: it
        # is a meet with the edge's line (the argument above `_CHECK_CODE`).
        if any(_join_line_point(edge, proj.coords)):
            raise InconsistentProjections(f"{proj} is not on edge {i}{j}")
        _held(trace, "on", edge, proj.coords)
        if proj.coords == vertices[j]:
            raise OutsideChart(f"projection on edge {i}{j} is the infinity vertex")
        _held(trace, "apart", proj.coords, vertices[j])
        k, l = (m for m in range(4) if m not in (i, j))
        planes.append(_join(trace, proj.coords, vertices[k], vertices[l]))
    frame = (vertices[i], *(vertices[j] for j in others))
    if trace is None:
        hit = _chart_hit(frame, planes)
    else:
        cut = _meet_planes(planes[0], planes[1])
        hit = _meet_line_plane(cut, planes[2])
    # This check cannot fire once the projections lie on their edges apart
    # from the infinity vertices.  Each p_j is then a v_i + b v_j with a != 0,
    # so a_j = [P_j v_j] = a [v_i v_k v_l v_j] of `_chart_hit` is nonzero, and
    # x_i = lcm(a_j) too; the point is then nonzero, since the vertices are
    # independent, whether the planes meet in it or it is expanded.  Kept as
    # a check all the same.
    if not any(hit):
        raise InconsistentProjections("recovery planes do not meet in one point")
    result = _canonical_nonzero(hit)
    if trace is not None:
        _record(trace, "meet", (3, 3, 2), (planes[0], planes[1]), cut)
        _record(trace, "meet", (2, 3, 1), (cut, planes[2]), result)
        if type(trace) is Tape:
            trace.frames[id(cut)] = frame
    for j in others:
        k, l = (m for m in range(4) if m not in (i, j))
        opposite = tet.edge_line(k, l).coeffs
        # Nor can this one, for the same reason: the points of the edge kl
        # have x_i = 0, and the recovered point has x_i != 0.
        if not any(_join_line_point(opposite, result)):
            raise OnOppositeEdge(f"{_trusted_point(result)} lies on the opposite edge {k}{l}")
        _held(trace, "off", opposite, result)
    return _trusted_point(result)


def _chart_hit(frame, planes):
    """The point where the three recovery planes of a chart meet, up to
    scale, expanded in the tetrahedron's vertex frame.  `frame` holds the
    chart vertex v_i and then the other vertices v_j, and `planes` the
    planes P_j = p_j v_k v_l of their projections, in the same order.  A
    point X = sum x_m v_m lies on P_j, which holds v_k and v_l, exactly
    when x_i [P_j v_i] + x_j [P_j v_j] = 0.  So with a_j = [P_j v_j] and
    b_j = -[P_j v_i], the planes meet at x_i = lcm(a_j), x_j = b_j x_i / a_j.
    The lcm keeps x_i free of the factors the a_j share, which the meets
    of the planes multiply together, so the hit carries a much smaller
    common factor than theirs.  Dividing each pair (a_j, b_j) by its gcd
    first would remove the rest, but costs more than it saves the gcd
    that makes the point canonical.  The hit is zero where some a_j is,
    which is where a projection is its infinity vertex."""
    vi, v1, v2, v3 = frame
    p1, p2, p3 = planes
    a1 = _plane_with_point(p1, v1)[0]
    a2 = _plane_with_point(p2, v2)[0]
    a3 = _plane_with_point(p3, v3)[0]
    if not (a1 and a2 and a3):
        return (0, 0, 0, 0)
    b1 = -_plane_with_point(p1, vi)[0]
    b2 = -_plane_with_point(p2, vi)[0]
    b3 = -_plane_with_point(p3, vi)[0]
    xi = lcm(a1, a2, a3)
    x1, x2, x3 = b1 * (xi // a1), b2 * (xi // a2), b3 * (xi // a3)
    return tuple(
        [xi * ci + x1 * c1 + x2 * c2 + x3 * c3 for ci, c1, c2, c3 in zip(vi, v1, v2, v3)]
    )


def _chart_hit_mod_p(frame, planes):
    """`_chart_hit` mod P, on coefficients reduced mod P, with
    x_i = a1·a2·a3 and x_j = b_j times the other two a's in place of the
    lcm.  That is (a1·a2·a3 / lcm(a_j)) times the exact hit, an integer
    multiple of it, and so the same point mod P wherever it is nonzero.
    Zero where some a_j is 0 mod P, as the exact hit is where it is 0."""
    vi, v1, v2, v3 = frame
    p1, p2, p3 = planes
    a1 = _plane_with_point(p1, v1)[0] % P
    a2 = _plane_with_point(p2, v2)[0] % P
    a3 = _plane_with_point(p3, v3)[0] % P
    if not (a1 and a2 and a3):
        return (0, 0, 0, 0)
    b1 = -_plane_with_point(p1, vi)[0] % P
    b2 = -_plane_with_point(p2, vi)[0] % P
    b3 = -_plane_with_point(p3, vi)[0] % P
    xi, x1, x2, x3 = a1 * a2 % P * a3, b1 * a2 % P * a3, a1 * b2 % P * a3, a1 * a2 % P * b3
    return tuple(
        [(xi * ci + x1 * c1 + x2 * c2 + x3 * c3) % P for ci, c1, c2, c3 in zip(vi, v1, v2, v3)]
    )


# ---------------------------------------------------------------------------
# auxiliary choices for the product construction


def choose_auxiliaries(frame: LineFrame):
    """The auxiliary point a = zero + 2·infinity + E_k and line
    L' = zero·(infinity + E_k) of the two-projection construction, for the
    frame's auxiliary direction E_k: a lies off the frame's line and off L',
    and L' passes through zero and differs from the line.  (a = zero +
    infinity + E_k would lie on L'.)  Both follow from E_k lying off the
    line; they are checked all the same.
    """
    z, i, tape = frame.zero.coords, frame.infinity.coords, frame.tape
    u = STANDARD_BASIS[frame.aux_index].coords
    lprime = _join(tape, z, _sum(tape, (1, i), (1, u)))
    a = _sum(tape, (1, z), (2, i), (1, u))
    line = frame.line.coeffs
    if not (any(_join_line_point(line, a)) and any(_join_line_point(lprime, a))):
        raise GeometryError("the auxiliary point lies on the frame's line or on L'")
    _held(tape, "off", line, a)
    _held(tape, "off", lprime, a)
    return _trusted_point(a), _trusted(2, lprime)


# ---------------------------------------------------------------------------
# von Staudt arithmetic on a line


def _require_on_line(frame: LineFrame, p: Point, trace):
    # A factor or product drawn by `construct_test_point` never fails this:
    # it is a meet with the frame's line (the argument above `_CHECK_CODE`).
    line = frame.line.coeffs
    if any(_join_line_point(line, p.coords)):
        raise ValueError(f"{p} is not on the frame's line")
    _held(trace, "on", line, p.coords)


def von_staudt_product(frame: LineFrame, px: Point, py: Point, trace=None) -> Point:
    """Point with local parameter x*y, by the two-projection construction.

    The line is projected from an auxiliary point a onto an auxiliary line
    L' through zero, then back from the pivot b = (p1' px) ∩ (a infinity);
    the composite fixes zero and infinity and sends the unit to px, hence
    py to the product point.  Parameters 0 and infinity degenerate the
    figure.  On the line they belong to zero and infinity alone, so those
    products follow from incidence: zero when a factor is zero, infinity
    when a factor is infinity, and InfinityProduct when the factors are
    zero and infinity.  Such a product draws nothing, so it records no
    trace step.
    """
    _require_on_line(frame, px, trace)
    _require_on_line(frame, py, trace)
    factors = (px.coords, py.coords)
    zero, infinity = frame.zero.coords, frame.infinity.coords
    if zero in factors or infinity in factors:
        if infinity not in factors:
            return frame.zero
        if zero not in factors:
            return frame.infinity
        raise InfinityProduct("0 * INFINITY is undefined")
    _held(trace, "apart", px.coords, zero, infinity)
    _held(trace, "apart", py.coords, zero, infinity)
    scaffold = frame.scaffold
    a, lprime = scaffold.a.coords, scaffold.lprime.coeffs
    la1, p1p, linf = scaffold.product

    _record(trace, "join", (1, 1, 2), (a, frame.unit.coords), la1)
    _record(trace, "meet", (2, 2, 1), (la1, lprime), p1p)

    pyp = _meet_lines(trace, _join(trace, a, py.coords), lprime)

    lx = _join(trace, p1p, px.coords)
    _record(trace, "join", (1, 1, 2), (a, infinity), linf)
    b = _meet_lines(trace, lx, linf)

    return _trusted_point(_meet_lines(trace, _join(trace, b, pyp), frame.line.coeffs))


def von_staudt_inverse(frame: LineFrame, px: Point, trace=None) -> Point:
    """Point with local parameter 1/x; total on the line.

    Reverses the product construction: with b off L and L', the line from
    (px b ∩ L') through the unit meets (infinity b) at a, and (unit b ∩ L')
    joined to a cuts the line at the inverse point.  Sends zero to infinity
    and infinity to zero.
    """
    _require_on_line(frame, px, trace)
    scaffold = frame.scaffold
    b, lprime = scaffold.a.coords, scaffold.lprime.coeffs
    l1b, c2, linfb = scaffold.inverse
    unit = frame.unit.coords

    c1 = _meet_lines(trace, _join(trace, px.coords, b), lprime)

    l_c11 = _join(trace, c1, unit)
    _record(trace, "join", (1, 1, 2), (frame.infinity.coords, b), linfb)
    a = _meet_lines(trace, l_c11, linfb)

    _record(trace, "join", (1, 1, 2), (unit, b), l1b)
    _record(trace, "meet", (2, 2, 1), (l1b, lprime), c2)

    return _trusted_point(_meet_lines(trace, _join(trace, c2, a), frame.line.coeffs))


def local_param_point(
    d: Point, e: Point, a: Point, b: Point, c: Point, trace=None, line=None, plane=None
) -> Point:
    """meet(de, abc) = [abce]d - [abcd]e.

    With the frame (zero=d, infinity=e, unit=<d+e>) the local parameter of
    the point is -[abcd]/[abce]; in particular it is d itself when d lies
    on the plane and e when e does.  `line` and `plane` are the extensors
    of de and abc when the caller holds them; they are built here when not
    given.
    """
    line = _join(None, d.coords, e.coords) if line is None else line.coeffs
    _record(trace, "join", (1, 1, 2), (d.coords, e.coords), line)
    plane = _join(None, a.coords, b.coords, c.coords) if plane is None else plane.coeffs
    _record(trace, "join", (1, 1, 1, 3), (a.coords, b.coords, c.coords), plane)
    hit = _meet_line_plane(line, plane)
    if not any(hit):
        raise DegenerateMeet(f"line {d}{e} lies in the plane")
    result = _canonical_nonzero(hit)
    _record(trace, "meet", (2, 3, 1), (line, plane), result)
    return _trusted_point(result)


# ---------------------------------------------------------------------------
# straight-line programs


class _EveryKey(list):
    """The keys of a Tape: `add` always grows them, so `_record` keeps every
    step it is given, repeats included."""

    add = list.append


class Tape:
    """Every step that `_record` is given, repeats included, every vector
    sum that `_sum` makes and every check that `_held` notes, in the order
    a figure makes them: a TraceStep per step, a VectorSum per sum and a
    (kind, ...) tuple per check.  A figure drawn once with a tape in place
    of its trace, or a tetrahedron drawn on one, is what `StraightLine`
    compiles.  `frames` holds the vertex frame of each chart recovery drawn
    on the tape, under the id of the line its first two planes meet in."""

    def __init__(self):
        self.steps = []
        self._recorded = _EveryKey()
        self.frames = {}


# The lines of program that compute the output {out} of a step of each
# (op, grades) that no leaf and no earlier step holds, with the guards the
# figure's step makes: a join must be nonzero (`_join` raises ZeroExtensor,
# and `project_to_edge` OnOppositeEdge), and so must a meet point.
# Coplanar lines meet in `line_meet_line`, as in the figure; the program
# returns None where it raises (SkewLines or coincident lines).  A meet of
# a line and a plane is held up to scale: a part of a program that makes
# its points canonical makes it canonical after these lines, as the figure
# does, and an untraced figure makes no point canonical but its result.
_STEP_CODE = {
    ("join", (1, 1, 2)): ("{out} = jp({0}, {1})", "if not any({out}): return"),
    ("join", (1, 1, 1, 3)): ("{out} = jlp(jp({0}, {1}), {2})", "if not any({out}): return"),
    ("join", (2, 1, 3)): ("{out} = jlp({0}, {1})", "if not any({out}): return"),
    ("meet", (2, 2, 1)): (
        "try: {out} = line_meet_line({0}, {1})",
        "except ValueError: return",
    ),
    ("meet", (2, 3, 1)): ("{out} = mlp({0}, {1})", "if not any({out}): return"),
    ("meet", (3, 3, 2)): ("{out} = mpp({0}, {1})",),
}

def _meet_of_join(al, be, p, q, l2):
    """The point [πp]q - [πq]p where the line through the points p and q
    meets the coplanar line l2, from al = [πp] and be = [πq] for the plane
    π = join(l2, E3), or None where p and q are dependent.  It reads no
    line pq: the untraced and mod-p loops join no line that only this meet
    reads.  The two brackets are divided by their gcd, which keeps the
    point small at the cost of a gcd of two brackets in place of the
    four-coordinate gcd of a canonical point.  With al or be nonzero, the
    point is zero exactly when p and q are dependent: q = λp gives
    be = λ·al and a zero point, and al·q = be·p makes one of them a
    multiple of the other.  So the point's own test declines where a guard
    on the join would.  Where both brackets vanish, E3 lies on the common
    plane (or the lines coincide): p and q are joined here, and the lines
    meet in `line_meet_line`; None where the join is zero or it raises."""
    if al or be:
        g = gcd(al, be)
        al, be = al // g, be // g
        (p0, p1, p2, p3), (q0, q1, q2, q3) = p, q
        point = (al * q0 - be * p0, al * q1 - be * p1, al * q2 - be * p2, al * q3 - be * p3)
        return point if any(point) else None
    l1 = _join_points(p, q)
    if not any(l1):
        return None
    try:
        return line_meet_line(l1, l2)
    except ValueError:
        return None


def _meet_of_join_mod_p(al, be, p, q, l2):
    """`_meet_of_join` mod P, on values reduced mod P, with no gcd and each
    coordinate reduced: None where both brackets are 0 mod P, since where they are 0 over Z the exact program meets the
    lines in `line_meet_line`, and where they are 0 mod P only, the point
    is not known mod P.  None too where the point is 0 mod P, which with
    al or be nonzero mod P is where p and q are dependent mod P, so where
    their join is 0 mod P."""
    if not (al or be):
        return None
    (p0, p1, p2, p3), (q0, q1, q2, q3) = p, q
    point = (
        (al * q0 - be * p0) % P,
        (al * q1 - be * p1) % P,
        (al * q2 - be * p2) % P,
        (al * q3 - be * p3) % P,
    )
    return point if any(point) else None


# The untraced program recovers a chart's point from the names {0}, {1},
# {2} of its three planes as `_chart_hit` does, in the vertex frame {frame}
# that the recovery notes on its tape, in place of the meet of the first
# two planes and that line's meet with the third, with the meet's guard.
_CHART_HIT_CODE = (
    "{out} = chart_hit(({frame}), ({0}, {1}, {2}))",
    "if not any({out}): return",
)

# The guard of each check that `_held` notes; the program returns None
# where the figure would take another shape or raise.  In a traced
# figure, whose points are canonical, a point apart from others compares
# coordinates; every other part of a program tests that its join with each
# other point is nonzero, which holds its points up to scale, and tests
# nothing of two points it has joined already: the join's own guard is
# that test.  Four points span space where their bracket is nonzero.
#
# A line of two points p and q that only `meet_of_join` reads has no
# guard of its own in the untraced and mod-p loops, which do not join it
# (`_program_source`).  The meet's point [πp]q - [πq]p stands in for it:
# with [πp] or [πq] nonzero, the point is zero exactly when p and q are
# dependent, which is where the join is zero, over Z and mod P alike, and
# `meet_of_join` returns None there; with both zero it joins p and q
# itself, and returns None where the join is zero.
#
# The mod-p program is the exact program's body on other names
# (`_mod_p_program_names`): kernels that reduce mod P, run on leaves
# reduced mod P, a `chart_hit` of `_chart_hit_mod_p`, a `det4` reduced mod
# P, a `canon` that only reduces a point's coordinates (mod P a point is
# known only up to scale), a `meet_of_join` of `_meet_of_join_mod_p`, and
# a `line_meet_line` that declines.  Each of its values is then the exact
# program's reduced mod P, up to a scale nonzero mod P, wherever the values
# it needs are nonzero mod P.
#
# Which checks a program guards (`_program_source`).  The traced figure,
# the loop of the traced function, guards every check, so it mirrors the
# drawn figure step by step.  An untraced section (the shared part, which
# is the same in every function, or a figure compiled alone, untraced or
# mod P) guards no "on" check, no skew check of a meet and no "span"
# check, and the untraced and mod-p loops guard no check at all.  A
# check left out is proved on every figure built from points that the
# generic program runs on: configurations that `GenericConfig.validate`
# passed, whose M has no zero entry (the gate, `GenericFigure.zero_free`).
# - "on", which must find zero: each point checked to be on a line is a
#   meet with that line itself.  An edge frame's unit is the meet of its
#   edge's line with a plane, a von Staudt factor a meet of the frame's
#   line with a plane, a product or an inverse the meet of a line with the
#   frame's line, and a chart's projection the inverse on the frame of its
#   edge, whose line is the edge.
# - skew, which must find zero: every line a von Staudt figure meets, and
#   every line of a frame's scaffold, lies in the plane through the frame's
#   line and its auxiliary direction E_k, which holds the factors, the
#   unit, the auxiliary point a = zero + 2·infinity + E_k and L' =
#   zero·(infinity + E_k), so any two of them are coplanar.
# - "span": the shared part's are [6789], which `validate` refuses to be
#   0, and the brackets of three vertices with the unit (v6 + v7 + v8 +
#   v9)/c, each ±[6789]/c.
# - "apart", a factor from the frame's zero and infinity: the factor
#   x = [A v_j] v_0 - [A v_0] v_j on the edge 0j, for a basis plane A of
#   the column, is v_0 only where [A v_j] = 0 and v_j only where
#   [A v_0] = 0, and these brackets are factors of the column's entries of
#   M in rows j and 0.
# - "apart", a projection from its infinity vertex: the projection is
#   1/(xy) on its edge, the infinity vertex only where a factor is zero or
#   infinite; where it were, the recovery's hit would be zero, and its
#   nonzero guard stays.
# - "off", the recovered point off each opposite edge kl: the point's
#   coordinates in the vertex frame are the column of M (acceptance
#   criterion 10), with no zero, and the points of kl have x_i = x_j = 0.
# The one "on" check of another kind, a basis point before a frame's
# auxiliary direction lying on its line (`LineFrame.aux_index`), is drawn
# on no program: the reference configuration's chart-0 edges miss E0, so
# its frames pick E0 and note only that it is off.  That "off" check can
# fail, so the shared part keeps its "off" checks, and its "apart" ones.
#
# So mod P the guards left that can decline are those that must find a
# nonzero value, chiefly each computed value's.  A value nonzero mod P is
# nonzero over Z, so where the mod-p program passes one, the exact program
# passes it too, and every scale a mod-p value carries is nonzero mod P.
# The identities hold mod P as well, and the gate is checked exactly, on
# M, before any program runs; so a bracket nonzero mod P still shows the
# exact bracket nonzero.
_CHECK_CODE = {
    "on": "if any(jlp({0}, {1})): return",
    "off": "if not any(jlp({0}, {1})): return",
    "apart": "if {0} in ({rest},): return",
    "span": "if not det4({0}, {1}, {2}, {3}): return",
}


def _program_names(join_kernels, meet_kernels, witness_bracket, chart_hit, meet_of_join, **names):
    """What a program binds as locals: the kernels it runs, keyed as in
    `_JOIN_KERNELS` and `_MEET_KERNELS`, the bracket [join(l, E3), p], the
    chart hit, the meet of a joined line, and the names given."""
    return {
        "any": any,
        "jp": join_kernels[1, 1],
        "jlp": join_kernels[2, 1],
        "mlp": meet_kernels[2, 3],
        "mpp": meet_kernels[3, 3],
        "wb": witness_bracket,
        "chart_hit": chart_hit,
        "meet_of_join": meet_of_join,
        **names,
    }


# What the exact programs bind; they, and `_meet_of_join`, read
# `line_meet_line` from this module when they run.
_PROGRAM_NAMES = _program_names(
    _JOIN_KERNELS, _MEET_KERNELS, _WITNESS_BRACKETS[3], _chart_hit, _meet_of_join,
    canon=_canonical_nonzero, det4=det4,
)


def _no_meet_mod_p(l1, l2):
    raise ValueError("the mod-p program meets only the lines it joined")


def _det4_mod_p(a, b, c, d):
    return det4(a, b, c, d) % P


def _reduced(value):
    return tuple([c % P for c in value])


@cache
def _mod_p_program_names():
    """What the mod-p program binds: kernels that reduce mod P, a `canon`
    that reduces, and a `line_meet_line` that declines.  Built on first use,
    with the kernels, never at import."""
    return _program_names(
        *modp_kernels(), _chart_hit_mod_p, _meet_of_join_mod_p,
        canon=_reduced, det4=_det4_mod_p, line_meet_line=_no_meet_mod_p,
    )


class StraightLine:
    """One figure, drawn once on a Tape, as straight-line code on the
    coefficient tuples of its leaves: the values the figure reads and no
    step of it outputs, such as a frame's points and scaffold.

    Each step of the tape, repeats included, is one line of the program:
    its output is computed by the generated kernels as `_STEP_CODE` says,
    or read from the leaf or earlier step that holds it, as the figure
    reads a memoized value, or from an earlier step of the same op on the
    same names.  Each vector sum is one line, and reads only leaves and the
    basis points, which the program writes as literals.  Each check that a
    computed step makes (a nonzero join or meet point) is an inline guard
    in every function that computes the step.  In the traced function each
    check of the tape is one too, so it holds in the figure's shape on the
    tape and returns None everywhere else: there the figure takes another
    shape or raises.  The untraced and mod-p functions leave out the checks
    that the arguments above `_CHECK_CODE` prove: "on", skew and "span"
    checks everywhere, and in the loop over the columns every check, which
    the generic program's gate proves; so they hold to the figure's shape
    only on the figures that pass it.  `leaves` lists the tape's leaves,
    each matched to the tape's values by identity, and `result` is the
    figure's output; `run` takes the leaves of another figure in the same
    order and, with no shared part, returns that output: the form in which
    the tests compile a single figure, such as one von Staudt product.

    `shared`, when given, is the (tape, leaves) of a part the figure reads
    and draws nothing of, such as a tetrahedron with its frames: its
    values are matched to the figure's inputs by identity, as leaves are.
    The program then runs the shared part once on its leaves and the
    figure once per column in a loop, on leaves (shared leaves, columns),
    and returns the bracket of the four columns' results.  The shared part
    makes every point canonical in every function, as the figure does.

    The program is compiled three times, each function on its first run.
    The traced function computes every step of the figure as the figure
    does, so each output it hands the trace is canonical.  The untraced
    function holds every point of the figure up to scale and makes only its
    result canonical, so on a figure that passes the gate it gives what the
    traced function gives.  Outside the traced figure, apart guards are
    projective, and a line of two points meets a coplanar line by
    `_meet_of_join`, from the two points; the untraced and mod-p loops
    over the columns join no line that only such a meet reads, so they
    make neither its join nor the join's guard, and the meet's nonzero
    point is that guard.  Where a chart recovery drawn on the tape noted
    its vertex frame, the untraced function expands the recovered point in
    that frame as `_CHART_HIT_CODE` says, in place of the recovery's two
    meets, which the traced function computes and records.

    The mod-p function, which `run_mod_p` runs, is the untraced body
    compiled on other names, with kernels built on its first run (see
    `_CHECK_CODE`).  On leaves reduced mod the prime P (`reduced_mod_p`),
    where it completes, each value it returns is an integer multiple of
    the untraced function's, reduced mod P, and nonzero mod P.  Where a
    value is 0 mod P but not over Z it may decline where the exact
    function completes, never the other way round, so it serves only to
    show a polynomial in the outputs nonzero.
    """

    def __init__(self, tape, leaves, result, shared=None):
        self._figure = (tape, leaves, result, shared)

    @cached_property
    def _untraced(self):
        return self._compiled(False)

    @cached_property
    def _traced(self):
        return self._compiled(True)

    @cached_property
    def _mod_p(self):
        return self._compiled(False, mod_p=True)

    def _compiled(self, traced, mod_p=False):
        namespace = dict(_mod_p_program_names() if mod_p else _PROGRAM_NAMES)
        tape, leaves, result, shared = self._figure
        source = _program_source(tape, leaves, result, traced, mod_p, shared)
        exec(compile(source, "<straight-line program>", "exec"), globals(), namespace)
        return namespace["mod_p" if mod_p else "traced" if traced else "untraced"]

    def run_mod_p(self, leaves):
        """The figure's output reduced mod P, each point up to a scale
        nonzero mod P, for the leaves reduced mod P, or None where a guard
        fails."""
        return self._mod_p(leaves)

    def run(self, leaves, trace=None):
        """The figure's output for the leaves, as coefficient tuples, or
        None where a guard fails.  A trace is handed the program's steps, in
        the figure's order, only when the program completes, so a figure
        drawn after a None records what it records alone."""
        if trace is None:
            return self._untraced(leaves)
        done = self._traced(leaves)
        if done is None:
            return None
        output, steps = done
        for op, grades, inputs, out in steps:
            _record(trace, op, grades, inputs, out)
        return output


def reduced_mod_p(values) -> tuple:
    """The coefficient tuples with each coefficient reduced mod P."""
    return tuple([_reduced(value) for value in values])


def _program_source(tape, leaves, result, traced, mod_p=False, shared=None):
    """Source of the function `traced`, `untraced` or `mod_p` that
    StraightLine runs: it unpacks the leaves it reads, runs the tape's
    steps, sums and the checks it guards in order, and returns the
    result, and when traced also every step as an (op, grades, inputs,
    output) tuple.  With a shared part, it runs the shared tape first,
    then the tape in a loop over the columns, and returns the bracket of
    their results, and when traced also the steps of every column.  Which
    checks each section guards is set out above `_CHECK_CODE`.  The
    untraced and mod-p functions share one body, and differ only in the
    names they bind.  The shared part, and a traced figure, make each
    point canonical where the figure does."""
    names = {}
    for prefix, values in (("a", shared[1]), ("b", leaves)) if shared else (("a", leaves),):
        for i, value in enumerate(values):
            names.setdefault(id(value), f"{prefix}{i}")
    for e in STANDARD_BASIS:
        names.setdefault(id(e.coords), repr(e.coords))
    computed = set()  # the names of the values the program computes
    read = set()
    made = {}  # (op, grades, *input names) of each step -> its output's name
    joined = {}  # the name of each line the program joins -> its two points' names
    apart = set()  # the pairs of point names the program has joined, so knows apart
    brackets = {}  # (line, point) names -> the name of their witness bracket
    # the name of each line of the untraced loop that only `meet_of_join`
    # has read so far, so no code has joined yet -> the code that joins it
    unjoined = {}

    def name(value):
        held = names.get(id(value))
        if held is None:
            raise ValueError("the figure reads a value that is no leaf and no earlier output")
        read.add(held)
        return held

    def new_name(value):
        out = names[id(value)] = f"v{len(computed)}"
        computed.add(out)
        return out

    def meet_of_join(line, other, out):
        """The code that meets the line joined from p and q with a coplanar
        line by `meet_of_join`, from the brackets [πp] and [πq] for the
        plane π = join(other, E3).  It has no skew guard: the two lines are
        coplanar on every figure built from points (the argument above
        `_CHECK_CODE`).  It hands over the line's two points, not the line.
        Each bracket is a witness bracket bound to a name of its own the
        first time a meet reads it."""
        p, q = joined[line]
        code = []
        for point in (p, q):
            if (other, point) not in brackets:
                brackets[other, point] = f"w{len(brackets)}"
                code.append(f"{brackets[other, point]} = wb({other}, {point})[0]")
        al, be = brackets[other, p], brackets[other, q]
        code.append(f"{out} = meet_of_join({al}, {be}, {p}, {q}, {other})")
        return code + [f"if {out} is None: return"]

    def section(tape, traced, canonical, kept):
        """The lines of the tape's steps, sums and the checks of the kinds
        `kept`, and the tuples of its steps that a traced function
        returns.  A section that keeps no check, the untraced loop, is
        lazy: it joins a line of two points only where a step other than
        `meet_of_join` first reads it, and so joins none that only
        `meet_of_join` reads.  Deferring a join needs that no check is
        kept: an apart check would read the pair as joined."""
        lazy = not kept
        body, steps = [], []
        cut = None  # the step that meets a recovery's first two planes, while its hit is to come
        for entry in tape.steps:
            if type(entry) is VectorSum:
                args = [name(v) for v in entry.inputs]
                if computed.intersection(args):
                    # mod P a computed point is known only up to scale
                    raise ValueError("a vector sum reads only leaves and basis points")
                out = new_name(entry.output)
                terms = " + ".join(
                    f"{arg}[{{m}}]" if w == 1 else f"{w} * {arg}[{{m}}]"
                    for w, arg in zip(entry.weights, args)
                )
                coords = ", ".join(terms.format(m=m) for m in range(4))
                body += (f"{out} = ({coords})", f"if not any({out}): return", f"{out} = canon({out})")
                continue
            if type(entry) is not TraceStep:
                kind, *values = entry
                if kind not in kept:
                    continue
                args = [name(v) for v in values]
                if kind == "apart" and not traced:
                    point, *others = args
                    others = [other for other in others if frozenset((point, other)) not in apart]
                    if others:
                        tests = (f"not any(jp({point}, {other}))" for other in others)
                        body.append(f"if {' or '.join(tests)}: return")
                else:
                    body.append(_CHECK_CODE[kind].format(*args, rest=", ".join(args[1:])))
                continue
            if not traced and id(entry.output) in tape.frames:
                # the line of a recovery's first two planes, which only the
                # recovery's hit reads: the untraced program never computes it
                cut = entry
                continue
            inputs, code = entry.inputs, _STEP_CODE[entry.op, entry.grades]
            frame = None
            if cut is not None and inputs[0] is cut.output:
                inputs, code = (*cut.inputs, inputs[1]), _CHART_HIT_CODE
                frame = ", ".join(map(name, tape.frames[id(cut.output)]))
                cut = None
            args = [name(v) for v in inputs]
            key = (entry.op, entry.grades, *args)
            out = names.get(id(entry.output)) or made.get(key)
            if out is None:
                out = new_name(entry.output)
                joins = not traced and entry.grades == (2, 2, 1) and args[0] in joined
                # a meet of a line it joined reads the line's points, not the line
                for arg in args[joins:]:
                    body += unjoined.pop(arg, ())
                if joins:
                    body += meet_of_join(*args, out)
                else:
                    written = [line.format(*args, out=out, frame=frame) for line in code]
                    if lazy and entry.grades == (1, 1, 2):
                        unjoined[out] = written
                    else:
                        body += written
                # `line_meet_line` makes its point canonical itself
                if canonical and entry.grades[-1] == 1 and (joins or entry.grades != (2, 2, 1)):
                    body.append(f"{out} = canon({out})")
            names[id(entry.output)] = out
            made.setdefault(key, out)
            if entry.grades == (1, 1, 2):
                joined[out] = tuple(args)
                apart.add(frozenset(args))
            read.add(out)
            steps.append(f"({entry.op!r}, {entry.grades!r}, ({', '.join(args)},), {out})")
        return body, steps

    def unpack(prefix, values):
        leaf_names = (f"{prefix}{i}" for i in range(len(values)))
        return ", ".join(leaf if leaf in read else "_" for leaf in leaf_names)

    # Which checks each section guards (the arguments above `_CHECK_CODE`):
    # a traced figure all of them; an untraced one no "on", skew (see
    # `meet_of_join`) or "span" check; the untraced loop no check at all,
    # and it is lazy.  The shared part is the same in every function.
    untraced = ("apart", "off")
    first = section(shared[0], False, True, untraced)[0] if shared else []
    kept = _CHECK_CODE if traced else () if shared else untraced
    body, steps = section(tape, traced, traced, kept)
    output = name(result)
    if shared is None:
        ends = [f"return {output}, ({', '.join(steps)},)" if traced else f"return canon({output})"]
        lines = [f"({unpack('a', leaves)},) = leaves", *body, *ends]
    else:
        body.append(f"points.append({output})" if traced else f"points.append(canon({output}))")
        if traced:
            body.append(f"steps += ({', '.join(steps)},)")
        lines = [
            f"({unpack('a', shared[1])},), columns = leaves",
            *first,
            "points, steps = [], []" if traced else "points = []",
            f"for ({unpack('b', leaves)},) in columns:",
            *("    " + line for line in body),
            "return det4(*points), steps" if traced else "return det4(*points)",
        ]
    bound = ", ".join(f"{n}={n}" for n in (_mod_p_program_names() if mod_p else _PROGRAM_NAMES))
    function = "mod_p" if mod_p else "traced" if traced else "untraced"
    return "\n    ".join([f"def {function}(leaves, {bound}):", *lines]) + "\n"


# ---------------------------------------------------------------------------
# trace replay


def _execute(op, grades, inputs):
    """(grade, coefficients) of the output of one step, recomputed by the
    kernels from its inputs' grades and coefficient tuples: a `join` of 2
    or 3 values or a `meet` of 2.  A meet of two coplanar lines runs
    `line_meet_line`, like the construction that recorded it, and a meet
    point is made canonical."""
    if op == "join":
        if len(inputs) not in (2, 3):
            raise ValueError(f"a join step takes 2 or 3 inputs, not {len(inputs)}")
        grade, out = grades[0], inputs[0]
        for g, coeffs in zip(grades[1:], inputs[1:]):
            if grade + g > 4:
                raise GradeOverflow(f"grades {grade} + {g} exceed 4")
            grade, out = grade + g, _JOIN_KERNELS[grade, g](out, coeffs)
        return grade, out
    if op == "meet":
        if len(inputs) != 2:
            raise ValueError(f"a meet step takes 2 inputs, not {len(inputs)}")
        if grades[0] == grades[1] == 2:
            try:
                return 1, line_meet_line(*inputs)
            except SkewLines:
                pass
        grade = grades[0] + grades[1] - 4
        if grade < 0:
            return 0, (0,)
        out = _MEET_KERNELS[grades[0], grades[1]](*inputs)
        return grade, _canonical_nonzero(out) if grade == 1 and any(out) else out
    raise ValueError(f"unknown trace op {op!r}")


def replay_mismatches(trace: ConstructionTrace) -> list:
    """Positions of the steps whose output, recomputed from their inputs,
    differs in grade or coefficients from the recorded one; empty when the
    trace replays bit for bit.  Runs on the steps' coefficient tuples and
    makes no value object."""
    return [
        k
        for k, step in enumerate(trace.steps)
        if _execute(step.op, step.grades[:-1], step.inputs) != (step.grades[-1], step.output)
    ]


def verify_replay(trace: ConstructionTrace) -> bool:
    """True when replaying reproduces every recorded output exactly."""
    return not replay_mismatches(trace)
