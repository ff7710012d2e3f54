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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .extensors import (
    _JOIN_KERNELS,
    _MEET_KERNELS,
    _WITNESS_MEETS,
    Extensor,
    GradeOverflow,
    ZeroExtensor,
    as_point,
    contains_point,
    join,
    line_through,
    meet,
)
from .projective import (
    GeometryError,
    InfinityProduct,
    STANDARD_BASIS,
    SUBSETS,
    Point,
    _canonical_ints,
    _decimal_strings,
    _ints_of_strings,
    _trusted_point,
    bracket,
    rank_of_points,
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
        return 1, _canonical_ints(coords)
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


# ---------------------------------------------------------------------------
# coplanar line intersection


# The kernels the figures run on coefficient tuples; the plane of a line
# and a point is zero exactly when the point is on the line.
_join_points = _JOIN_KERNELS[1, 1]
_join_line_point = _JOIN_KERNELS[2, 1]
_join_lines = _JOIN_KERNELS[2, 2]
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
            coords = _canonical_ints(hit)
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
    the plane through the line and E_k.
    """

    zero: Point
    infinity: Point
    unit: Point

    def __post_init__(self):
        pts = (self.zero, self.infinity, self.unit)
        if len(set(pts)) != 3:
            raise ValueError("frame points must be pairwise distinct")
        if rank_of_points(pts) > 2:
            raise ValueError("frame points must be collinear")

    @cached_property
    def aux_index(self) -> int:
        return next(
            k for k, e in enumerate(STANDARD_BASIS)
            if rank_of_points((self.zero, self.infinity, e)) == 3
        )

    @cached_property
    def line(self) -> Extensor:
        return line_through(self.zero, self.infinity)

    @cached_property
    def scaffold(self) -> Scaffold:
        a, lprime = choose_auxiliaries(self)
        ac, unit, infinity = a.coords, self.unit.coords, self.infinity.coords
        la1, l1b = _join(None, ac, unit), _join(None, unit, ac)
        product = (la1, line_meet_line(la1, lprime.coeffs), _join(None, ac, infinity))
        inverse = (l1b, line_meet_line(l1b, lprime.coeffs), _join(None, infinity, ac))
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
    share the edge lines.
    """

    vertices: tuple
    unit: Point
    _lines: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _frames: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        vertices = tuple(self.vertices)
        object.__setattr__(self, "vertices", vertices)
        if len(vertices) != 4 or rank_of_points(vertices) != 4:
            raise ValueError("vertices must be four points in general position")
        for skip in range(4):
            face = [v for i, v in enumerate(vertices) if i != skip]
            if bracket(*face, self.unit) == 0:
                raise ValueError(f"unit lies on the face missing vertex {skip}")

    def edge_line(self, i: int, j: int) -> Extensor:
        """The line join(vertex i, vertex j)."""
        line = self._lines.get((i, j))
        if line is None:
            line = self._lines[i, j] = line_through(self.vertices[i], self.vertices[j])
        return line

    def edge_frame(self, i: int, j: int) -> LineFrame:
        """Frame on edge ij: zero at vertex i, infinity at vertex j, unit cut
        out by the plane through the other two vertices and the unit."""
        frame = self._frames.get((i, j))
        if frame is None:
            unit_ij = project_to_edge(self, i, j, self.unit)
            frame = self._frames[i, j] = LineFrame(self.vertices[i], self.vertices[j], unit_ij)
        return frame


def project_to_edge(tet: Tetrahedron, i: int, j: int, p: Point) -> Point:
    """Project p onto edge ij from the opposite edge kl: edge ∩ join(kl, p).
    That plane is zero exactly when p lies on kl."""
    if i == j:
        raise ValueError("edge needs two distinct vertex indices")
    k, l = (m for m in range(4) if m not in (i, j))
    plane = join(tet.edge_line(k, l), p)
    if plane.is_zero():
        raise OnOppositeEdge(f"{p} lies on the opposite edge {k}{l}")
    return as_point(meet(tet.edge_line(i, j), plane))


def recover_from_chart(tet: Tetrahedron, i: int, projections, trace=None) -> Point:
    """Recover a chart-U_i point from its three edge projections.

    projections are the points on the edges i-j for the three other vertex
    indices j in ascending order; each must lie on its edge and differ from
    the infinity vertex j.  The point is the meet of the three planes
    spanned by each projection and its opposite edge: the first two meet
    in a line, which meets the third.  The point must lie off the three
    opposite edges (OnOppositeEdge): a point off the edge kl opposite ij
    spans with kl the recovery plane of ij, which meets the edge ij at the
    given projection, so the point reprojects onto all three.
    """
    others = [j for j in range(4) if j != i]
    projections = list(projections)
    if len(projections) != 3:
        raise ValueError("need one projection per edge through the chart vertex")
    vertices = [v.coords for v in tet.vertices]
    planes = []
    for j, proj in zip(others, projections):
        if any(_join_line_point(tet.edge_line(i, j).coeffs, proj.coords)):
            raise InconsistentProjections(f"{proj} is not on edge {i}{j}")
        if proj.coords == vertices[j]:
            raise OutsideChart(f"projection on edge {i}{j} is the infinity vertex")
        k, l = (m for m in range(4) if m not in (i, j))
        planes.append(_join(trace, proj.coords, vertices[k], vertices[l]))
    cut = _meet_planes(planes[0], planes[1])
    hit = _meet_line_plane(cut, planes[2])
    if not any(hit):
        raise InconsistentProjections("recovery planes do not meet in one point")
    result = _canonical_ints(hit)
    _record(trace, "meet", (3, 3, 2), (planes[0], planes[1]), cut)
    _record(trace, "meet", (2, 3, 1), (cut, planes[2]), result)
    for j in others:
        k, l = (m for m in range(4) if m not in (i, j))
        if not any(_join_line_point(tet.edge_line(k, l).coeffs, result)):
            raise OnOppositeEdge(f"{_trusted_point(result)} lies on the opposite edge {k}{l}")
    return _trusted_point(result)


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
    z, i = frame.zero.coords, frame.infinity.coords
    u = STANDARD_BASIS[frame.aux_index].coords
    lprime = line_through(frame.zero, Point(tuple(iv + uv for iv, uv in zip(i, u))))
    a = Point(tuple(zv + 2 * iv + uv for zv, iv, uv in zip(z, i, u)))
    if contains_point(frame.line, a) or contains_point(lprime, a):
        raise GeometryError("the auxiliary point lies on the frame's line or on L'")
    return a, lprime


# ---------------------------------------------------------------------------
# von Staudt arithmetic on a line


def _require_on_line(frame: LineFrame, p: Point):
    if any(_join_line_point(frame.line.coeffs, p.coords)):
        raise ValueError(f"{p} is not on the frame's line")


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
    _require_on_line(frame, px)
    _require_on_line(frame, py)
    factors = (px.coords, py.coords)
    zero, infinity = frame.zero.coords, frame.infinity.coords
    if zero in factors or infinity in factors:
        if infinity not in factors:
            return frame.zero
        if zero not in factors:
            return frame.infinity
        raise InfinityProduct("0 * INFINITY is undefined")
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
    _require_on_line(frame, px)
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
    result = _canonical_ints(hit)
    _record(trace, "meet", (2, 3, 1), (line, plane), result)
    return _trusted_point(result)


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
        return grade, _canonical_ints(out) if grade == 1 and any(out) else out
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
