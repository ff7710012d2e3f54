"""Command-line surface: decide a configuration, generate fixtures, fuzz.

Exit codes: 0 success, 2 malformed input or unknown kind, 3 disagreement
between the synthetic pipeline and the determinant oracle, a failed
det(M) = Q·det(N), or a pipeline exception (never, in a correct build).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import fixtures, reductions
from .constructions import ConstructionTrace
from .generic_case import GenericFigure, bracket_of_test_points, build_M, compute_Q
from .oracle import oracle_decide, oracle_det, sample_generic, sample_on_quadric
from .projective import _INTEGER_TEXT, Point, bareiss_det, bracket, clear_denominators


class ConfigError(ValueError):
    pass


# Numerators and denominators of input coordinates are capped at this many
# bits.  Generated fixtures stay within 24; the benchmark's generic corpus,
# whose 64-bit rationals are cleared to integers, reaches 256.
MAX_COORD_BITS = 1024
# Decimal digits a coordinate string may denote, counting its exponent, so
# that no oversized integer is built before the bit cap is checked.
_MAX_COORD_DIGITS = 2 * MAX_COORD_BITS
_EXPONENT = re.compile(r"[eE]\s*([-+]?[\d_]+)\s*$")


@dataclass(frozen=True)
class InputConfig:
    """Exactly ten points, with an optional label-hint permutation that is
    applied before the pipeline runs (verdicts are relabeling-invariant, so
    hints only steer which labeling the decision reports)."""

    points: tuple
    labels: tuple | None = None

    def labeled_points(self) -> list:
        if self.labels is None:
            return list(self.points)
        return [self.points[i] for i in self.labels]


def _parse_coordinate(value) -> int | Fraction:
    """One coordinate: the int of text made of an optional sign and ASCII
    digits, else the Fraction of the text (a ratio, a decimal, an exponent,
    surrounding whitespace, underscores or non-ASCII digits).  Refused
    before parsing when its text could denote more than MAX_COORD_BITS
    bits, and after when it does."""
    text = str(value)
    coord = None
    if len(text) <= _MAX_COORD_DIGITS:
        if _INTEGER_TEXT.fullmatch(text):
            coord = int(text)
        else:
            exponent = _EXPONENT.search(text)
            if not exponent or len(text) + abs(int(exponent.group(1))) <= _MAX_COORD_DIGITS:
                coord = Fraction(text)
    if coord is not None:
        if max(coord.numerator.bit_length(), coord.denominator.bit_length()) <= MAX_COORD_BITS:
            return coord
    raise ConfigError(f"coordinate {text[:40]!r} exceeds {MAX_COORD_BITS} bits")


def load_points(payload) -> InputConfig:
    if not isinstance(payload, dict) or "points" not in payload:
        raise ConfigError("input must be a JSON object with a 'points' array")
    raw = payload["points"]
    if not isinstance(raw, list) or len(raw) != 10:
        raise ConfigError("'points' must hold exactly 10 entries")
    points = []
    for entry in raw:
        if not isinstance(entry, list) or len(entry) != 4:
            raise ConfigError("each point is an array of 4 rational strings")
        try:
            points.append(Point(clear_denominators(_parse_coordinate(c) for c in entry)))
        except ConfigError:
            raise
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad point {entry}: {exc}") from None
    labels = payload.get("labels")
    if labels is not None:
        if (
            not isinstance(labels, list)
            or any(type(i) is not int for i in labels)
            or sorted(labels) != list(range(10))
        ):
            raise ConfigError("'labels' must be a permutation of 0..9")
        labels = tuple(labels)
    return InputConfig(tuple(points), labels)


def load_config(path) -> InputConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # JSONDecodeError, or an integer past int's digit limit
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    return load_points(payload)


def points_to_json(points):
    return {"points": [p.to_strings() for p in points]}


def _dump(payload, pretty):
    if pretty:
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _write(path, text) -> bool:
    """Write text to the file at path; on failure print why and return False."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def cmd_decide(args) -> int:
    if args.trace is not None and args.method == "oracle":
        print("error: --trace needs --method synthetic or both", file=sys.stderr)
        return 2
    try:
        points = load_config(args.file).labeled_points()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {"decision": None, "oracle_verdict": None, "agreement": None, "timings": {}}
    decision = None
    if args.method in ("synthetic", "both"):
        start = time.perf_counter()
        try:
            decision = reductions.decide(points, with_trace=args.trace is not None)
            report["timings"]["synthetic_seconds"] = time.perf_counter() - start
            decision_json = decision.to_json()
            if args.trace is not None:
                trace = _dump((decision.trace or ConstructionTrace()).to_json(), args.pretty)
        except Exception as exc:  # reported with its configuration, as fuzz_check does
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            sys.stderr.write(_dump(points_to_json(points), args.pretty))
            return 3
        if args.trace is not None:
            if not _write(args.trace, trace):
                return 2
            decision_json["trace_ref"] = args.trace
        report["decision"] = decision_json
    if args.method in ("oracle", "both"):
        start = time.perf_counter()
        report["oracle_verdict"] = oracle_decide(points)
        report["timings"]["oracle_seconds"] = time.perf_counter() - start
    if args.method == "both":
        report["agreement"] = decision.on_quadric == report["oracle_verdict"]
        if not report["agreement"]:
            report["configuration"] = points_to_json(points)["points"]
    sys.stdout.write(_dump(report, args.pretty))
    if report["agreement"] is False:
        return 3
    return 0


def cmd_gen(args) -> int:
    kind = args.kind
    try:
        if kind == "on-quadric":
            points = sample_on_quadric(args.seed, 10, transformed=True, bound=30)
        elif kind == "generic":
            points = fixtures.generate_branch("generic", args.seed)
        elif kind.startswith("qd-branch:"):
            points = fixtures.generate_branch(kind.split(":", 1)[1], args.seed)
        else:
            raise fixtures.FixtureError(f"unknown kind {kind!r}")
    except fixtures.FixtureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = _dump(points_to_json(points), args.pretty)
    if args.out:
        if not _write(args.out, payload):
            return 2
    else:
        sys.stdout.write(payload)
    return 0


def fuzz_configuration(seed, index):
    """Mixed stream: on-quadric, generic, and the three degenerate
    mutations (duplication, collinear collapse, coplanar collapse)."""
    shape = index % 5
    sub = f"{seed}:{index}"
    if shape == 0:
        return sample_on_quadric(sub, 10, transformed=index % 2 == 0, bound=30)
    if shape == 1:
        return sample_generic(sub, 10, bound=60)
    if shape == 2:
        return fixtures.mutate_duplicate(sub)
    if shape == 3:
        return fixtures.mutate_collinear(sub)
    return fixtures.mutate_coplanar(sub)


def fuzz_check(seed, index):
    """Decide fuzz configuration `index` of `seed` by both methods, and on
    the points as a generic decision labels them check det(M) = Q·det(N)
    and that the exact bracket of the four test points is that of M's
    columns in the frame of the vertices 6..9 (`_bracket_of_columns`).

    Returns (decision, failure).  failure is None when the verdicts agree
    and both identities hold.  Otherwise it is a JSON-ready record with
    the seed, the index and the configuration: of the disagreement or the
    failed identity (with the branch), or of the exception a check raised
    (with its text and traceback; decision is then None), so that one bad
    configuration does not end a fuzz run.
    """
    points = fuzz_configuration(seed, index)
    record = {"seed": seed, "index": index, "points": points_to_json(points)["points"]}
    try:
        decision = reductions.decide(points)
        failure = _failure(points, decision)
    except Exception as exc:  # recorded with its configuration; the run goes on
        record["error"] = f"{type(exc).__name__}: {exc}"
        record["traceback"] = traceback.format_exc()
        return None, record
    if failure is None:
        return decision, None
    record.update(failure)
    return decision, record


def _failure(points, decision):
    """The fields of a fuzz record that say which check of the decision
    failed, or None.  The bracket of the test points is taken exactly, as
    a YES decision takes it, since a mod-p NO decision never computes it."""
    if decision.on_quadric != oracle_decide(points):
        return {"branch": decision.branch}
    if decision.branch != "generic":
        return None
    labeled = decision.labeling.apply(points)
    if bareiss_det(build_M(labeled).entries) != compute_Q(labeled) * oracle_det(labeled):
        return {"branch": "generic", "identity": "det(M) != Q * det(N)"}
    figure = GenericFigure(labeled)
    if bracket_of_test_points(figure) != _bracket_of_columns(figure):
        return {"branch": "generic", "identity": "[test points] != [M's columns in 6789's frame]"}
    return None


def _bracket_of_columns(figure):
    """The bracket of M's four columns, each expanded in the frame of the
    vertices v6..v9 as the sum of M[r][c]·v_{6+r} over the rows r, and
    made canonical: these are the four test points (acceptance criterion
    10), so it is their bracket."""
    vertices = [p.coords for p in figure.points[6:]]
    return bracket(
        *(
            Point([sum(m * v[k] for m, v in zip(figure.m.column(c), vertices)) for k in range(4)])
            for c in range(4)
        )
    )


def cmd_fuzz(args) -> int:
    """Decide configurations 0..count-1 of each seed from seed to
    seed+seeds-1 by both methods; the census counts each decision's branch
    over all seeds."""
    disagreements = []
    errors = []
    census = Counter()
    on_quadric = 0
    start = time.perf_counter()
    for seed in range(args.seed, args.seed + args.seeds):
        for index in range(args.count):
            decision, failure = fuzz_check(seed, index)
            if decision is not None:
                census[decision.branch] += 1
                on_quadric += decision.on_quadric
            if failure is not None:
                (errors if decision is None else disagreements).append(failure)
    summary = {
        "seed": args.seed,
        "seeds": args.seeds,
        "count": args.count,
        "agreements": args.seeds * args.count - len(disagreements) - len(errors),
        "on_quadric": on_quadric,
        "census": dict(sorted(census.items())),
        "disagreements": disagreements,
        "errors": errors,
        "seconds": time.perf_counter() - start,
    }
    sys.stdout.write(_dump(summary, args.pretty))
    return 3 if disagreements or errors else 0


def _nonnegative(text) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadricheck",
        description="Decide whether 10 points of P^3 lie on a quadric surface, "
        "synthetically and by the exact 10x10 determinant.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_decide = sub.add_parser("decide", help="decide a 10-point configuration file")
    p_decide.add_argument("file", help="JSON file with a 'points' array of 10 points")
    p_decide.add_argument(
        "--method", choices=("synthetic", "oracle", "both"), default="both"
    )
    p_decide.add_argument("--trace", default=None, help="write the construction trace here")
    p_decide.add_argument("--pretty", action="store_true")
    p_decide.set_defaults(func=cmd_decide)

    kinds = ["on-quadric", "generic"] + [
        f"qd-branch:{k}" for k in fixtures.GENERATED_KINDS
    ]
    p_gen = sub.add_parser("gen", help="generate a deterministic fixture")
    p_gen.add_argument("--kind", required=True, help="one of: " + ", ".join(kinds))
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=None)
    p_gen.add_argument("--pretty", action="store_true")
    p_gen.set_defaults(func=cmd_gen)

    p_fuzz = sub.add_parser("fuzz", help="compare pipeline and oracle on mixed configs")
    p_fuzz.add_argument("--seed", type=int, default=0, help="first seed")
    p_fuzz.add_argument("--seeds", type=_nonnegative, default=1, help="number of seeds")
    p_fuzz.add_argument(
        "--count", type=_nonnegative, default=100, help="configurations per seed"
    )
    p_fuzz.add_argument("--pretty", action="store_true")
    p_fuzz.set_defaults(func=cmd_fuzz)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
