"""Synthetic toolkit: edge projections, chart recovery, von Staudt product
and inverse on a line, and the meet-point whose local parameter is a bracket
ratio.  The constructions a decision runs can be recorded into a
replayable ConstructionTrace of `join` and `meet` steps: `_join` and
`_meet_lines` build a line, a plane or the meet point of coplanar lines
and record it in one call, and the steps a frame's scaffold shares are
recorded where each figure reads them.

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

from .extensors import (
    _JOIN_KERNELS,
    _WITNESS_MEETS,
    Extensor,
    as_point,
    contains_point,
    join,
    line_through,
    meet,
    plane_through,
)
from .projective import (
    GeometryError,
    InfinityProduct,
    STANDARD_BASIS,
    Point,
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


@dataclass
class TraceStep:
    op: str
    inputs: list  # Extensors; the points among them are Points
    output: Extensor  # a Point when the step outputs a point


@dataclass
class ConstructionTrace:
    """Ordered, serializable record of construction steps: each step holds
    its op, its input values and its output, and replaying the steps
    reproduces every output exactly.

    A trace records each construction once: a step whose op and input
    values equal an earlier step's is not appended again (its output is
    the same), so a figure that reuses a memoized part, such as an edge's
    line, a basis plane or a frame's von Staudt scaffold, reads the first
    step.  A generic decision records 289 steps.  A trace read from JSON
    keeps its steps as written, repeats included.

    In JSON the values are written once each.  `leaves` holds every input
    that no earlier step outputs, and each step input is an int: i below
    len(leaves) names leaf i, and len(leaves) + k the output of step k.  An
    input equal to an earlier step's output names the first such step.
    """

    steps: list = field(default_factory=list)
    # the key of every recorded step: its op and its inputs' grades and coefficients
    _recorded: set = field(default_factory=set, init=False, repr=False, compare=False)

    def to_json(self):
        leaves = {}  # value key -> (leaf index, value)
        firsts = {}  # value key -> the first step that outputs the value
        refs = []  # per step; a step k is held as ~k until the leaf count is known
        for k, step in enumerate(self.steps):
            row = []
            for value in step.inputs:
                key = _key(value)
                n = firsts.get(key)
                if n is None:
                    row.append(leaves.setdefault(key, (len(leaves), value))[0])
                else:
                    row.append(~n)
            refs.append(row)
            firsts.setdefault(_key(step.output), k)
        offset = len(leaves)
        return {
            "leaves": [_value_to_json(value) for _, value in leaves.values()],
            "steps": [
                {
                    "op": step.op,
                    "inputs": [i if i >= 0 else offset + ~i for i in row],
                    "output": _value_to_json(step.output),
                }
                for step, row in zip(self.steps, refs)
            ],
        }

    @classmethod
    def from_json(cls, data):
        if "leaves" not in data:
            raise ValueError("a trace needs a 'leaves' table")
        values = [_value_from_json(leaf) for leaf in data["leaves"]]
        trace = cls()
        for raw in data["steps"]:
            inputs = []
            for i in raw["inputs"]:
                if type(i) is not int or not 0 <= i < len(values):
                    raise ValueError(f"step input {i!r} names no earlier value")
                inputs.append(values[i])
            output = _value_from_json(raw["output"])
            trace.steps.append(TraceStep(raw["op"], inputs, output))
            values.append(output)
        return trace


def _key(value):
    """A trace value's integers, which key it as its own __eq__ does; plain
    tuples hash and compare faster than the value itself."""
    return value.grade, value.coeffs


def _value_to_json(value):
    if isinstance(value, Point):
        return {"point": value.to_strings()}
    return {"extensor": value.to_json()}


def _value_from_json(data):
    if "point" in data:
        return Point.from_strings(data["point"])
    return Extensor.from_json(data["extensor"])


def _record(trace, op, inputs, output):
    """Append the step to the trace, if any, unless an earlier step has the
    same op and input values.  The key is one flat tuple of the op and each
    input's grade and coefficients, which hashes and compares in C; the
    values themselves hash through Python-level methods.  Most steps have
    two inputs, and their key is spelled out to spare a comprehension."""
    if trace is not None:
        if len(inputs) == 2:
            a, b = inputs
            key = (op, a.grade, a.coeffs, b.grade, b.coeffs)
        else:
            key = (op, *[x for v in inputs for x in (v.grade, v.coeffs)])
        if key not in trace._recorded:
            trace._recorded.add(key)
            trace.steps.append(TraceStep(op, inputs, output))


def _join(trace, *points) -> Extensor:
    """The line through two points or the plane through three, recorded
    as one `join` step."""
    out = line_through(*points) if len(points) == 2 else plane_through(*points)
    _record(trace, "join", list(points), out)
    return out


def _meet_lines(trace, l1: Extensor, l2: Extensor) -> Point:
    """The meet point of two coplanar lines, recorded as one `meet` step."""
    out = line_meet_line(l1, l2)
    _record(trace, "meet", [l1, l2], out)
    return out


# ---------------------------------------------------------------------------
# coplanar line intersection


# The scalar join of two lines, run on coefficient tuples: the skew test of
# line_meet_line makes no Extensor.
_join_lines = _JOIN_KERNELS[2, 2]


def line_meet_line(l1: Extensor, l2: Extensor) -> Point:
    """Intersection point of two distinct coplanar lines in P^3.

    The meet of coplanar lines degenerates (their supports do not span), so
    the point is computed as meet(l1, join(l2, E_k)) for the first basis
    point E_k off the common plane, in the order E3, E2, E1, E0.  Distinct
    coplanar lines span a single plane, which misses one of E0..E3; only
    coincident lines leave every hit zero.  Every nonzero hit is the same
    point, made canonical once, so the order changes only how many kernels
    run.  Raises SkewLines when the lines do not meet.
    """
    if l1.grade != 2 or l2.grade != 2:
        raise ValueError("line_meet_line needs two lines")
    c1, c2 = l1.coeffs, l2.coeffs
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
            return _trusted_point(hit)
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
        return Scaffold(self, *choose_auxiliaries(self))


class Scaffold:
    """The part of a frame's von Staudt figures that does not depend on the
    input point, for one auxiliary point a (the inverse names it b) and
    line L' through zero:

    - `product`: a·unit, p1' = (a·unit) ∩ L', and a·infinity;
    - `inverse`: unit·a, c2 = (unit·a) ∩ L', and infinity·a;

    each built on first read.
    """

    def __init__(self, frame: LineFrame, a: Point, lprime: Extensor):
        self.frame = frame
        self.a = a
        self.lprime = lprime

    @cached_property
    def product(self):
        """(a·unit, p1', a·infinity)."""
        la1 = line_through(self.a, self.frame.unit)
        p1p = line_meet_line(la1, self.lprime)
        return la1, p1p, line_through(self.a, self.frame.infinity)

    @cached_property
    def inverse(self):
        """(unit·a, c2, infinity·a)."""
        l1b = line_through(self.frame.unit, self.a)
        c2 = line_meet_line(l1b, self.lprime)
        return l1b, c2, line_through(self.frame.infinity, self.a)


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
    planes = []
    for j, proj in zip(others, projections):
        if not contains_point(tet.edge_line(i, j), proj):
            raise InconsistentProjections(f"{proj} is not on edge {i}{j}")
        if proj == tet.vertices[j]:
            raise OutsideChart(f"projection on edge {i}{j} is the infinity vertex")
        k, l = (m for m in range(4) if m not in (i, j))
        planes.append(_join(trace, proj, tet.vertices[k], tet.vertices[l]))
    cut = meet(planes[0], planes[1])
    hit = meet(cut, planes[2])
    if hit.is_zero():
        raise InconsistentProjections("recovery planes do not meet in one point")
    result = as_point(hit)
    _record(trace, "meet", planes[:2], cut)
    _record(trace, "meet", [cut, planes[2]], result)
    for j in others:
        k, l = (m for m in range(4) if m not in (i, j))
        if contains_point(tet.edge_line(k, l), result):
            raise OnOppositeEdge(f"{result} lies on the opposite edge {k}{l}")
    return result


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
    if not contains_point(frame.line, p):
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
    factors = (px, py)
    if frame.zero in factors or frame.infinity in factors:
        if frame.infinity not in factors:
            result = frame.zero
        elif frame.zero not in factors:
            result = frame.infinity
        else:
            raise InfinityProduct("0 * INFINITY is undefined")
        return result
    scaffold = frame.scaffold
    a, lprime = scaffold.a, scaffold.lprime
    la1, p1p, linf = scaffold.product

    _record(trace, "join", [a, frame.unit], la1)
    _record(trace, "meet", [la1, lprime], p1p)

    pyp = _meet_lines(trace, _join(trace, a, py), lprime)

    lx = _join(trace, p1p, px)
    _record(trace, "join", [a, frame.infinity], linf)
    b = _meet_lines(trace, lx, linf)

    return _meet_lines(trace, _join(trace, b, pyp), frame.line)


def von_staudt_inverse(frame: LineFrame, px: Point, trace=None) -> Point:
    """Point with local parameter 1/x; total on the line.

    Reverses the product construction: with b off L and L', the line from
    (px b ∩ L') through the unit meets (infinity b) at a, and (unit b ∩ L')
    joined to a cuts the line at the inverse point.  Sends zero to infinity
    and infinity to zero.
    """
    _require_on_line(frame, px)
    scaffold = frame.scaffold
    b, lprime = scaffold.a, scaffold.lprime
    l1b, c2, linfb = scaffold.inverse

    c1 = _meet_lines(trace, _join(trace, px, b), lprime)

    l_c11 = _join(trace, c1, frame.unit)
    _record(trace, "join", [frame.infinity, b], linfb)
    a = _meet_lines(trace, l_c11, linfb)

    _record(trace, "join", [frame.unit, b], l1b)
    _record(trace, "meet", [l1b, lprime], c2)

    return _meet_lines(trace, _join(trace, c2, a), frame.line)


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
    if line is None:
        line = line_through(d, e)
    _record(trace, "join", [d, e], line)
    if plane is None:
        plane = plane_through(a, b, c)
    _record(trace, "join", [a, b, c], plane)
    hit = meet(line, plane)
    if hit.is_zero():
        raise DegenerateMeet(f"line {d}{e} lies in the plane")
    result = as_point(hit)
    _record(trace, "meet", [line, plane], result)
    return result


# ---------------------------------------------------------------------------
# trace replay


def _execute_step(op, inputs):
    if op == "join":
        if len(inputs) not in (2, 3):
            raise ValueError(f"a join step takes 2 or 3 inputs, not {len(inputs)}")
        out = inputs[0]
        for e in inputs[1:]:
            out = join(out, e)
        return out
    if op == "meet":
        if len(inputs) != 2:
            raise ValueError(f"a meet step takes 2 inputs, not {len(inputs)}")
        a, b = inputs
        if a.grade == 2 and b.grade == 2:
            try:
                return line_meet_line(a, b)
            except SkewLines:
                pass
        hit = meet(a, b)
        return as_point(hit) if hit.grade == 1 and not hit.is_zero() else hit
    raise ValueError(f"unknown trace op {op!r}")


def replay_trace(trace: ConstructionTrace):
    """Re-execute every step, each a `join` of 2 or 3 values or a `meet`
    of 2; returns the list of recomputed outputs.  A meet of two coplanar
    lines runs `line_meet_line`, like the construction that recorded it."""
    return [_execute_step(step.op, step.inputs) for step in trace.steps]


def verify_replay(trace: ConstructionTrace) -> bool:
    """True when replaying reproduces every recorded output exactly."""
    return all(
        got == step.output for got, step in zip(replay_trace(trace), trace.steps)
    )
