"""Geometric reductions to the generic case.

The pipeline first takes the special-position exits (duplicates, four
collinear, six on a plane conic, nine points on three lines, six points on
two lines), then finds three skew label-lines.  When the four leftover
points are coplanar, it relabels them into general position by one skew
swap, or by one split-skew and then one skew swap, unless their plane holds
six of the points and the plane-split exit decides.  Every verdict is
decided synthetically; YES verdicts carry a certificate quadric when one is
naturally available.

`normalize` builds one `IncidenceTable` of the points and hands it to every
exit, to skew-line discovery and to the relabeling checks (through views of
it under each labeling), so each collinear triple, vanishing bracket and
plane of six or more points (with the left kernel of its conic chart) is
computed at most once per decision, and only when an exit reads it.  The
four-collinear exit extends only collinear triples, the three-lines and
two-lines exits read one list of them, the six-on-conic exit sweeps each
plane it meets once, and skew-line discovery reads the coplanar exit off a
plane that holds all ten points.
"""

from __future__ import annotations

from itertools import combinations

from . import generic_case
from .constructions import ConstructionTrace, line_meet_line
from .decision import (
    Decision,
    InternalInconsistency,
    Labeling,
    PlanePair,
    PreconditionViolated,
)
from .extensors import (
    Extensor,
    as_point,
    contains_point,
    grassmann_criterion,
    join,
    line_through,
    meet,
    plane_form,
    plane_through,
    scalar_of,
)
from .projective import (
    STANDARD_BASIS,
    IncidenceTable,
    Point,
    bracket,
    kernel_basis,
    quadric_through,
    rank_of_points,
)


def _kernel_certificate(points):
    basis = quadric_through(points)
    return basis[0] if basis else None


# ---------------------------------------------------------------------------
# quadric-decidable exits


def qd_duplicates(points):
    """YES when two canonical points coincide (two equal constraint rows)."""
    if len(set(points)) < len(points):
        return Decision(True, "duplicate", None, _kernel_certificate(points))
    return None


def qd_four_collinear(points, table):
    """YES when some four points are collinear: three of them force any
    quadric to contain the whole line."""
    if table.first_collinear_four() is not None:
        return Decision(True, "four-collinear", None, _kernel_certificate(points))
    return None


def pascal_collinear(six):
    """Whether 05 ∩ 23, 01 ∩ 34 and 45 ∩ 12 are collinear; None when a line
    pair coincides (only possible with four collinear points)."""
    if rank_of_points(six) > 3:
        raise ValueError("the six points must be coplanar")
    pairs = (((0, 5), (2, 3)), ((0, 1), (3, 4)), ((4, 5), (1, 2)))
    hits = []
    for (a, b), (c, d) in pairs:
        l1 = line_through(six[a], six[b])
        l2 = line_through(six[c], six[d])
        if l1.canonical() == l2.canonical():
            return None
        hits.append(line_meet_line(l1, l2))
    return rank_of_points(hits) <= 2


def qd_six_on_plane_conic(points, table):
    """YES when six points lie on a degree-2 plane curve; each hit is
    cross-checked against the hexagon collinearity criterion."""
    subset = next(table.sixes_on_a_conic(), None)
    if subset is None:
        return None
    if not table.on_a_line(subset):
        if pascal_collinear([points[i] for i in subset]) is False:
            raise InternalInconsistency(
                f"conic determinant and hexagon criterion disagree on {subset}"
            )
    return Decision(True, "six-on-conic", None, _kernel_certificate(points))


def _three_disjoint_covers(triples):
    for i, t1 in enumerate(triples):
        s1 = set(t1)
        for j in range(i + 1, len(triples)):
            t2 = triples[j]
            if s1 & set(t2):
                continue
            s2 = s1 | set(t2)
            for k in range(j + 1, len(triples)):
                t3 = triples[k]
                if s2 & set(t3):
                    continue
                yield t1, t2, t3


def qd_three_lines(points, table):
    """Nine points on three lines: two meeting lines give six points on a
    degenerate plane conic; three skew lines leave the verdict to the
    criterion xL0L1L2x = 0 on the tenth point."""
    for t1, t2, t3 in _three_disjoint_covers(table.collinear_triples()):
        lines = [line_through(points[t[0]], points[t[1]]) for t in (t1, t2, t3)]
        # two point-lines meet iff the bracket of their spanning points vanishes
        meeting = any(
            table.bracket_vanishes(u[0], u[1], v[0], v[1])
            for u, v in combinations((t1, t2, t3), 2)
        )
        if meeting:
            # six of the points lie on the degenerate conic formed by the
            # two meeting lines
            return Decision(True, "six-on-conic", None, _kernel_certificate(points))
        (x_idx,) = set(range(10)) - set(t1) - set(t2) - set(t3)
        value = grassmann_criterion(points[x_idx], *lines)
        on = value == 0
        cert = _kernel_certificate(points) if on else None
        return Decision(on, "three-lines-grassmann", None, cert)
    return None


def transversal_through(p: Point, l1: Extensor, l2: Extensor) -> Extensor:
    """The unique line through p (off both) meeting the skew lines l1, l2."""
    hit = meet(join(p, l1), l2)
    if hit.is_zero():
        raise PreconditionViolated("transversal undefined; are the lines skew?")
    return join(p, hit).canonical()


def _two_lines_meeting_case(points, table, base_pair, ab_pts, r_pt, cx_idx):
    """Two transversals meeting at r on one of the lines: any quadric
    through the configuration splits into the plane of a, b, r and a plane
    through the line holding r, so the verdict reads off two incidences."""
    plane_abr = plane_through(ab_pts[0], ab_pts[1], r_pt)
    c_pt, x_pt = (points[i] for i in cx_idx)
    c_in = contains_point(plane_abr, c_pt)
    x_in = contains_point(plane_abr, x_pt)
    base_pts = [points[base_pair[0]], points[base_pair[1]]]
    coplanar_with_base = table.bracket_vanishes(base_pair[0], base_pair[1], *cx_idx)
    on = c_in or x_in or coplanar_with_base
    cert = None
    if on:
        leftover = [p for p, inside in ((c_pt, c_in), (x_pt, x_in)) if not inside]
        if leftover:
            residual = plane_through(base_pts[0], base_pts[1], leftover[0])
        else:
            extra = next(
                e
                for e in STANDARD_BASIS
                if not contains_point(line_through(*base_pts), e)
            )
            residual = plane_through(base_pts[0], base_pts[1], extra)
        cert = PlanePair((plane_form(plane_abr), plane_form(residual)))
    return Decision(on, "plane-line-case", None, cert)


def qd_two_lines(points, table):
    """Six points on two skew lines, three on each.

    The transversals from the four leftover points to the two lines decide
    everything: a repeated transversal gives YES, a meeting pair reduces to
    two incidences, and three skew transversals hand the verdict to the
    criterion on the fourth point.
    """
    for t1, t2 in combinations(table.collinear_triples(), 2):
        if set(t1) & set(t2):
            continue
        if table.bracket_vanishes(t1[0], t1[1], t2[0], t2[1]):
            continue
        l1 = line_through(points[t1[0]], points[t1[1]])
        l2 = line_through(points[t2[0]], points[t2[1]])
        rest = sorted(set(range(10)) - set(t1) - set(t2))
        for idx in rest:
            if table.collinear(t1[0], t1[1], idx) or table.collinear(t2[0], t2[1], idx):
                raise PreconditionViolated(
                    f"point {idx} lies on one of the two lines"
                )
        trans = {idx: transversal_through(points[idx], l1, l2) for idx in rest}
        for u, v in combinations(rest, 2):
            if trans[u] == trans[v]:
                return Decision(
                    True,
                    "two-lines-coincident-transversals",
                    None,
                    _kernel_certificate(points),
                )
        for u, v in combinations(rest, 2):
            if scalar_of(join(trans[u], trans[v])) == 0:
                r_pt = line_meet_line(trans[u], trans[v])
                # skewness forces the meeting point onto one of the lines;
                # the plane of a, b, r then contains the other line, and the
                # residual plane must contain the line through r
                if contains_point(l1, r_pt):
                    base_pair = t1
                elif contains_point(l2, r_pt):
                    base_pair = t2
                else:
                    raise InternalInconsistency(
                        "transversals meet off both lines despite skewness"
                    )
                cx = [i for i in rest if i not in (u, v)]
                return _two_lines_meeting_case(
                    points, table, base_pair, (points[u], points[v]), r_pt, cx
                )
        value = grassmann_criterion(
            points[rest[3]], trans[rest[0]], trans[rest[1]], trans[rest[2]]
        )
        on = value == 0
        cert = _kernel_certificate(points) if on else None
        return Decision(on, "two-lines-grassmann", None, cert)
    return None


# ---------------------------------------------------------------------------
# finding three skew lines


def find_three_skew(points, table):
    """Skew-line discovery: returns a Decision for the flat exits, or the
    six input indices to relabel onto the line roles 0..5.

    If every pair of point-lines meets, all ten points are coplanar.  Given
    one skew pair, a point off both lines exists: otherwise one of the two
    lines holds five of the points, which the four-collinear exit has
    already taken.  A third mutually skew line through it exists unless all
    ten points sit on the union of two planes.
    """
    first_pair = None
    # a plane the six-on-conic scan met may already hold all ten points
    if not table.in_a_known_plane(range(10)):
        first_pair = next(
            (
                ij + kl
                for ij in combinations(range(10), 2)
                for kl in combinations(range(10), 2)
                if ij[0] not in kl
                and ij[1] not in kl
                and not table.bracket_vanishes(*ij, *kl)
            ),
            None,
        )
    if first_pair is None:
        triple = table.first_independent(range(10))
        if triple is None:
            raise InternalInconsistency("ten distinct points cannot be collinear")
        form = plane_form(plane_through(*(points[i] for i in triple)))
        return Decision(True, "coplanar", None, PlanePair((form, form)))
    i, j, k, l = first_pair
    m = next(
        (
            idx
            for idx in range(10)
            if idx not in first_pair
            and not table.collinear(i, j, idx)
            and not table.collinear(k, l, idx)
        ),
        None,
    )
    if m is None:
        raise InternalInconsistency(
            "every point lies on one of two skew lines, so one holds five"
        )
    n = next(
        (
            idx
            for idx in range(10)
            if idx not in first_pair
            and idx != m
            and not table.bracket_vanishes(i, j, m, idx)
            and not table.bracket_vanishes(k, l, m, idx)
        ),
        None,
    )
    if n is None:
        form_a = plane_form(plane_through(points[i], points[j], points[m]))
        form_b = plane_form(plane_through(points[k], points[l], points[m]))
        pair = PlanePair((form_a, form_b))
        if any(pair.evaluate(p) != 0 for p in points):
            raise InternalInconsistency("two-planes exit certificate failed")
        return Decision(True, "two-planes", None, pair)
    return [i, j, k, l, m, n]


# ---------------------------------------------------------------------------
# relabeling constructions


_ROLE_LINE_PAIRS = ((0, 1), (2, 3), (4, 5))


def _role_line_meets(pts, plane: Extensor):
    """The points where role lines 01, 23, 45 meet the plane, which must
    hold roles 6..9.  Raises PreconditionViolated when the role lines are
    not skew, a role of 6..9 is off the plane or a role line lies in it."""
    for pair in ((0, 1, 2, 3), (0, 1, 4, 5), (2, 3, 4, 5)):
        if bracket(*(pts[i] for i in pair)) == 0:
            raise PreconditionViolated("role lines 01, 23, 45 are not skew")
    for r in range(6, 10):
        if not join(plane, pts[r]).is_zero():
            raise PreconditionViolated(f"role {r} is off the plane")
    meets = []
    for a, b in _ROLE_LINE_PAIRS:
        hit = meet(line_through(pts[a], pts[b]), plane)
        if hit.is_zero():
            raise PreconditionViolated(f"role line {a}{b} lies in the plane")
        meets.append(as_point(hit))
    return meets


def skew_swap(points, labeling: Labeling, plane: Extensor) -> Labeling:
    """Swap labels so the plane-bound points leave general position.

    Role lines 01, 23, 45 must be skew; roles 6..9 lie on the plane; the
    meet of line 01 with the plane must avoid line 67, and the meets of
    lines 23 and 45 must avoid the opposite line 89.  Swapping role 0 with
    8 and role 1 with 9 then yields skew lines 01, 23, 45 with the new
    points 6..9 in general position.
    """
    pts = labeling.apply(points)
    meets = _role_line_meets(pts, plane)
    if contains_point(line_through(pts[6], pts[7]), meets[0]):
        raise PreconditionViolated("pq ∩ π lies on line ij")
    if contains_point(line_through(pts[8], pts[9]), meets[1]):
        raise PreconditionViolated("rs ∩ π lies on line kl")
    if contains_point(line_through(pts[8], pts[9]), meets[2]):
        raise PreconditionViolated("tu ∩ π lies on line kl")
    perm = list(labeling.perm)
    perm[0], perm[8] = perm[8], perm[0]
    perm[1], perm[9] = perm[9], perm[1]
    swapped = Labeling(tuple(perm))
    new_pts = swapped.apply(points)
    for pair in ((0, 1, 2, 3), (0, 1, 4, 5), (2, 3, 4, 5)):
        if bracket(*(new_pts[i] for i in pair)) == 0:
            raise InternalInconsistency("skew swap produced non-skew lines")
    if rank_of_points(new_pts[6:10]) != 4:
        raise InternalInconsistency("skew swap left the four points coplanar")
    return swapped


CE_DF = "CE_DF"
CF_DE = "CF_DE"


def split_skew(ab: Extensor, cd, ef, plane: Extensor):
    """Recombine two of three skew lines so their plane-meets move.

    ab is a line; cd = (c, d) and ef = (e, f) are point pairs.  With the
    lines ab, cd, ef mutually skew, the plane meeting cd at g and ef at h,
    and none of c, d, e, f on the plane, at least one of the recombinations
    (ab, ce, df) or (ab, cf, de) is again mutually skew with both new
    plane-meets distinct and off the line gh; the first valid alternative
    (CE_DF preferred) is returned together with the new meets.  Why:
    [cedf] = -[cdef], so each new pair is skew.  Each line of one pair
    shares one of c, d, e, f with each line of the other, and ab, which
    passes through none of them, can meet two lines through one point only
    inside their plane, which holds cd or ef; so ab meets a line of at most
    one pair.  A new meet on gh would put c, g, e, h (say) in one plane,
    and cd = cg and ef = eh with them.  When c lies on the plane, c = g is
    a meet of both alternatives, so neither applies.
    """
    (c, d), (e, f) = cd, ef
    cd_line, ef_line = line_through(c, d), line_through(e, f)
    for u, v in ((ab, cd_line), (ab, ef_line), (cd_line, ef_line)):
        if scalar_of(join(u, v)) == 0:
            raise PreconditionViolated("the three lines must be mutually skew")
    g_hit = meet(cd_line, plane)
    h_hit = meet(ef_line, plane)
    if g_hit.is_zero() or h_hit.is_zero():
        raise PreconditionViolated("the plane must meet cd and ef in points")
    g, h = as_point(g_hit), as_point(h_hit)
    line_gh = line_through(g, h)
    alternatives = (
        (CE_DF, (c, e), (d, f)),
        (CF_DE, (c, f), (d, e)),
    )
    for name, pair1, pair2 in alternatives:
        l1 = line_through(*pair1)
        l2 = line_through(*pair2)
        if (
            scalar_of(join(ab, l1)) == 0
            or scalar_of(join(ab, l2)) == 0
            or scalar_of(join(l1, l2)) == 0
        ):
            continue
        gp_hit = meet(l1, plane)
        hp_hit = meet(l2, plane)
        if gp_hit.is_zero() or hp_hit.is_zero():
            continue
        gp, hp = as_point(gp_hit), as_point(hp_hit)
        if gp == hp or contains_point(line_gh, gp) or contains_point(line_gh, hp):
            continue
        return name, gp, hp
    raise InternalInconsistency("both split-skew alternatives failed")


# ---------------------------------------------------------------------------
# the normalization pipeline


def _plane_split_decision(points, table, plane: Extensor) -> Decision:
    """Six or more coplanar points on no conic force the plane into every
    quadric; the verdict is whether the remaining points are coplanar."""
    form = plane_form(plane)
    inside = [i for i in range(10) if sum(f * c for f, c in zip(form, points[i].coords)) == 0]
    outside = [i for i in range(10) if i not in inside]
    if len(inside) < 6:
        raise InternalInconsistency("plane-split exit needs six coplanar points")
    on = table.on_a_plane(outside)
    cert = None
    if on:
        if outside:
            second = kernel_basis([points[i].coords for i in outside])[0]
        else:
            second = form
        cert = PlanePair((form, second))
    return Decision(on, "plane-split", None, cert)


def _find_valid_swap(points, labeling: Labeling, plane: Extensor):
    """First skew-swap whose hypotheses hold, in lexicographic order over
    (line playing pq, vertex pair swapped in); None when none applies.

    The role lines' meets with the plane do not depend on the role order,
    so they are computed once; each order asks only the containments of
    `skew_swap` (g_pq off line ij, the other two meets off line kl), and
    `skew_swap` runs, with its guards, on the first order that passes.
    """
    pts = labeling.apply(points)
    try:
        meets = _role_line_meets(pts, plane)
    except PreconditionViolated:
        return None
    lines = {
        pair: line_through(pts[pair[0]], pts[pair[1]]) for pair in combinations((6, 7, 8, 9), 2)
    }
    for pq_idx in range(3):
        others = [o for o in range(3) if o != pq_idx]
        for kl in combinations((6, 7, 8, 9), 2):
            ij = tuple(r for r in (6, 7, 8, 9) if r not in kl)
            if contains_point(lines[ij], meets[pq_idx]) or any(
                contains_point(lines[kl], meets[o]) for o in others
            ):
                continue
            role_order = (
                _ROLE_LINE_PAIRS[pq_idx]
                + _ROLE_LINE_PAIRS[others[0]]
                + _ROLE_LINE_PAIRS[others[1]]
                + ij
                + kl
            )
            return skew_swap(points, Labeling(tuple(labeling.perm[r] for r in role_order)), plane)
    return None


def _apply_split(points, labeling: Labeling, plane: Extensor, keep: int) -> Labeling:
    """Recombine by `split_skew` the two role lines other than role line
    `keep` (0, 1, 2 for 01, 23, 45)."""
    pts = labeling.apply(points)
    a, b = _ROLE_LINE_PAIRS[keep]
    (c, d), (e, f) = (pair for pair in _ROLE_LINE_PAIRS if pair != (a, b))
    alt, _, _ = split_skew(line_through(pts[a], pts[b]), (pts[c], pts[d]), (pts[e], pts[f]), plane)
    perm = list(labeling.perm)
    if alt == CE_DF:
        perm[d], perm[e] = perm[e], perm[d]
    else:
        perm[d], perm[e], perm[f] = perm[f], perm[d], perm[e]
    return Labeling(tuple(perm))


def _plane_of_last_four(pts, table):
    last_four = range(6, 10)
    # rank 3: the bracket vanishes and the four are not on a line
    if not table.bracket_vanishes(*last_four) or table.on_a_line(last_four):
        raise InternalInconsistency("expected exactly coplanar last four points")
    a, b, c = table.first_independent(last_four)
    return plane_through(pts[a], pts[b], pts[c])


def _ensure_general_position(points, table, labeling: Labeling):
    """A labeling in general position, or the plane-split Decision.

    The exits have ruled out duplicates, four collinear points and six
    points on a conic, and the role lines A = 01, B = 23, C = 45 are
    mutually skew.  When [6789] = 0 the last four points span a plane π.
    A role line lies in π, or meets it in one point, which may be one of
    its two role points.  If a role line lies in π, or two role points lie
    on π, then π holds six points on no conic, so every quadric through the
    ten contains π and the plane-split exit decides.  (With two role points
    on π that exit is taken only when no skew swap applies.)  Otherwise A,
    B and C meet π in three points g, distinct because the lines are skew,
    and one skew swap applies, or one split-skew followed by one skew swap:

    A skew swap with line X as pq and the last four split as ij | kl fails
    exactly when g_X lies on L = ij, or one of the other two meets lies on
    L' = kl.  For one split {L, L'}, the swaps with every X in both
    orientations all fail exactly when some g is the diagonal point L ∩ L',
    or all three g lie on L, or all three on L'.  (If no g is L ∩ L', each g
    lies on at most one side; the orientation with kl = L' succeeds when at
    most one g is on L', the other one when at most one g is on L, and the
    two sides cannot each hold two of the three g.)  Over the three splits
    of P6..P9, no side other than a line m through three of the points can
    hold all three g: another split would then need a g at its diagonal
    point, which lies off that side.  So all 18 swaps fail exactly when

    (a) no three of P6..P9 are collinear and the g are the three diagonal
        points of the quadrangle, or
    (b) three of P6..P9 lie on a line m (the diagonal points are those
        three) and all three g lie on m.

    The split-skew keeps the role line with a point on π (A when none has
    one), so the four points it recombines are off π, and by its lemma the
    two new lines meet π at distinct points off the line through the two
    old meets.  In (a) that line holds the two diagonal points other than
    the kept meet, and in (b) it is m.  The last four keep their roles, so
    π and its quadrangle stay; neither case holds afterwards, and one swap
    succeeds.  What is left to fail is the lemma of `split_skew` or of
    `skew_swap`, each guarded by `InternalInconsistency`; `decide_generic`
    validates the labeling returned.
    """
    view = table.relabeled(labeling)
    if not view.bracket_vanishes(6, 7, 8, 9):
        return labeling
    pts = labeling.apply(points)
    plane = _plane_of_last_four(pts, view)
    # the role line of each role point on π
    on_plane = [r // 2 for r in range(6) if contains_point(plane, pts[r])]
    if len(set(on_plane)) < len(on_plane):
        return _plane_split_decision(points, table, plane)
    swap = _find_valid_swap(points, labeling, plane)
    if swap is not None:
        return swap
    if len(on_plane) > 1:
        return _plane_split_decision(points, table, plane)
    split = _apply_split(points, labeling, plane, on_plane[0] if on_plane else 0)
    swap = _find_valid_swap(points, split, plane)
    if swap is None:
        raise InternalInconsistency("no skew swap applies after the split-skew")
    return swap


def normalize(points, table=None):
    """Run the reduction pipeline: a Decision for quadric-decidable special
    positions, otherwise a labeling meeting the generic preconditions.

    Every incidence test reads one IncidenceTable of the points, built here
    unless the caller passes it."""
    points = list(points)
    if len(points) != 10:
        raise ValueError("the pipeline expects exactly 10 points of P^3")
    table = table or IncidenceTable(points)
    decision = qd_duplicates(points)
    if decision is not None:
        return decision
    for check in (
        qd_four_collinear,
        qd_six_on_plane_conic,
        qd_three_lines,
        qd_two_lines,
    ):
        decision = check(points, table)
        if decision is not None:
            return decision
    result = find_three_skew(points, table)
    if isinstance(result, Decision):
        return result
    rest = tuple(sorted(set(range(10)) - set(result)))
    labeling = Labeling(tuple(result) + rest)
    return _ensure_general_position(points, table, labeling)


def decide(points, with_trace=False) -> Decision:
    """Full synthetic decision for ten points of P^3."""
    table = IncidenceTable(points)
    outcome = normalize(points, table)
    if isinstance(outcome, Decision):
        return outcome
    trace = ConstructionTrace() if with_trace else None
    relabeled = outcome.apply(points)
    inner = generic_case.decide_generic(
        relabeled, trace=trace, table=table.relabeled(outcome)
    )
    return Decision(
        inner.on_quadric,
        inner.branch,
        outcome.compose(inner.labeling),
        inner.certificate,
        inner.trace,
    )
