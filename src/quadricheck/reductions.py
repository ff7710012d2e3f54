"""Geometric reductions to the generic case.

The pipeline first takes the special-position exits (duplicates, four
collinear, six on a plane conic, nine points on three lines, six points on
two lines), then finds three skew label-lines, and finally relabels via the
skew-swap and split-skew constructions until the four leftover points are
in general position.  Every verdict is decided synthetically; YES verdicts
carry a certificate quadric when one is naturally available.

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

import logging
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
    from_point,
    grassmann_criterion,
    join,
    line_through,
    meet,
    plane_form,
    plane_through,
    scalar_of,
    support_basis,
)
from .oracle import oracle_decide
from .projective import (
    STANDARD_BASIS,
    IncidenceTable,
    Point,
    bracket,
    kernel_basis,
    quadric_through,
    rank_of_points,
)

log = logging.getLogger(__name__)


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
    hit = meet(join(from_point(p), l1), l2)
    if hit.is_zero():
        raise PreconditionViolated("transversal undefined; are the lines skew?")
    return join(from_point(p), hit).canonical()


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


def skew_swap(points, labeling: Labeling, plane: Extensor) -> Labeling:
    """Swap labels so the plane-bound points leave general position.

    Role lines 01, 23, 45 must be skew; roles 6..9 lie on the plane; the
    meet of line 01 with the plane must avoid line 67, and the meets of
    lines 23 and 45 must avoid the opposite line 89.  Swapping role 0 with
    8 and role 1 with 9 then yields skew lines 01, 23, 45 with the new
    points 6..9 in general position.
    """
    pts = labeling.apply(points)
    for pair in ((0, 1, 2, 3), (0, 1, 4, 5), (2, 3, 4, 5)):
        if bracket(*(pts[i] for i in pair)) == 0:
            raise PreconditionViolated("role lines 01, 23, 45 are not skew")
    for r in range(6, 10):
        if not join(plane, from_point(pts[r])).is_zero():
            raise PreconditionViolated(f"role {r} is off the plane")
    meets = []
    for a, b in _ROLE_LINE_PAIRS:
        hit = meet(line_through(pts[a], pts[b]), plane)
        if hit.is_zero():
            raise PreconditionViolated(f"role line {a}{b} lies in the plane")
        meets.append(as_point(hit))
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


def _line_and_pair(value):
    if isinstance(value, Extensor):
        pts = support_basis(value)
        return value, (pts[0], pts[1])
    p, q = value
    return line_through(p, q), (p, q)


def split_skew(ab, cd, ef, plane: Extensor):
    """Recombine two of three skew lines so their plane-meets move.

    With ab, cd, ef mutually skew and the plane meeting cd at g and ef at
    h, at least one of the recombinations (ab, ce, df) or (ab, cf, de) is
    again mutually skew with both new plane-meets distinct and off the line
    gh; the first valid alternative (CE_DF preferred) is returned together
    with the new meets.  Lines may be passed as extensors or point pairs.
    """
    ab_line, _ = _line_and_pair(ab)
    cd_line, (c, d) = _line_and_pair(cd)
    ef_line, (e, f) = _line_and_pair(ef)
    for u, v in ((ab_line, cd_line), (ab_line, ef_line), (cd_line, ef_line)):
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
            scalar_of(join(ab_line, l1)) == 0
            or scalar_of(join(ab_line, l2)) == 0
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
    (line playing pq, vertex pair swapped in); None when none applies."""
    for pq_idx in range(3):
        others = [o for o in range(3) if o != pq_idx]
        for kl in combinations((6, 7, 8, 9), 2):
            ij = tuple(r for r in (6, 7, 8, 9) if r not in kl)
            role_order = (
                _ROLE_LINE_PAIRS[pq_idx]
                + _ROLE_LINE_PAIRS[others[0]]
                + _ROLE_LINE_PAIRS[others[1]]
                + ij
                + kl
            )
            rearranged = Labeling(tuple(labeling.perm[r] for r in role_order))
            try:
                return skew_swap(points, rearranged, plane)
            except PreconditionViolated:
                continue
    return None


def _apply_split(points, labeling: Labeling, plane: Extensor, keep: int) -> Labeling:
    pts = labeling.apply(points)
    others = [o for o in range(3) if o != keep]
    keep_pair = _ROLE_LINE_PAIRS[keep]
    cd_roles = _ROLE_LINE_PAIRS[others[0]]
    ef_roles = _ROLE_LINE_PAIRS[others[1]]
    ab_line = line_through(pts[keep_pair[0]], pts[keep_pair[1]])
    alt, _, _ = split_skew(
        ab_line,
        (pts[cd_roles[0]], pts[cd_roles[1]]),
        (pts[ef_roles[0]], pts[ef_roles[1]]),
        plane,
    )
    perm = list(labeling.perm)
    sc, sd = perm[cd_roles[0]], perm[cd_roles[1]]
    se, sf = perm[ef_roles[0]], perm[ef_roles[1]]
    if alt == CE_DF:
        perm[cd_roles[0]], perm[cd_roles[1]] = sc, se
        perm[ef_roles[0]], perm[ef_roles[1]] = sd, sf
    else:
        perm[cd_roles[0]], perm[cd_roles[1]] = sc, sf
        perm[ef_roles[0]], perm[ef_roles[1]] = sd, se
    return Labeling(tuple(perm))


def _plane_of_last_four(pts, table):
    last_four = range(6, 10)
    # rank 3: the bracket vanishes and the four are not on a line
    if not table.bracket_vanishes(*last_four) or table.on_a_line(last_four):
        raise InternalInconsistency("expected exactly coplanar last four points")
    a, b, c = table.first_independent(last_four)
    return plane_through(pts[a], pts[b], pts[c])


def _ensure_general_position(points, table, labeling: Labeling):
    """A labeling in general position, or a Decision.  The exits have ruled
    out duplicates and collinear fours, and every labeling returned has
    skew role lines and [6789] != 0; `decide_generic` validates it."""
    current = labeling
    for _ in range(4):
        pts = current.apply(points)
        view = table.relabeled(current)
        if not view.bracket_vanishes(6, 7, 8, 9):
            return current
        plane = _plane_of_last_four(pts, view)
        for a, b in _ROLE_LINE_PAIRS:
            if contains_point(plane, pts[a]) and contains_point(plane, pts[b]):
                return _plane_split_decision(points, table, plane)
        swap = _find_valid_swap(points, current, plane)
        if swap is not None:
            return swap
        committed = None
        for keep in range(3):
            try:
                candidate = _apply_split(points, current, plane, keep)
            except (PreconditionViolated, InternalInconsistency):
                continue
            swap = _find_valid_swap(points, candidate, plane)
            if swap is not None:
                return swap
            if committed is None:
                committed = candidate
        if committed is None:
            break
        current = committed
    return _safety_net(points, table)


def _safety_net(points, table):
    """Last resort: exhaustive search for a generic labeling or any flat
    structure; defers to the determinant oracle only if all else fails."""
    log.warning("case tree fell through; entering exhaustive search")
    pairs = list(combinations(range(10), 2))
    for p1 in pairs:
        for p2 in pairs:
            if set(p1) & set(p2) or p2 <= p1:
                continue
            for p3 in pairs:
                if p3 <= p2 or set(p3) & (set(p1) | set(p2)):
                    continue
                roles = p1 + p2 + p3
                rest = tuple(sorted(set(range(10)) - set(roles)))
                candidate = Labeling(roles + rest)
                relabeled = candidate.apply(points)
                view = table.relabeled(candidate)
                if generic_case.genericity_violation(relabeled, view) is None:
                    return candidate
    for subset in combinations(range(10), 6):
        if table.on_a_plane(subset) and not table.on_a_line(subset):
            a, b, c = table.first_independent(subset)
            plane = plane_through(points[a], points[b], points[c])
            return _plane_split_decision(points, table, plane)
    log.error("deferring to the determinant oracle for %s", points)
    verdict = oracle_decide(points)
    cert = _kernel_certificate(points) if verdict else None
    return Decision(verdict, "oracle-fallback", None, cert)


def normalize(points, table=None):
    """Run the reduction pipeline: a Decision for quadric-decidable special
    positions, otherwise a labeling meeting the generic preconditions.

    Every incidence test reads one IncidenceTable of the points, built here
    unless the caller passes it."""
    points = list(points)
    if len(points) != 10 or any(p.dim != 4 for p in points):
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
