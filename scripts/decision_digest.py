#!/usr/bin/env python3
"""Print a sha256 digest of the pipeline's decisions (and traces) over a
fixed corpus, so that two versions of the code can be shown to decide
byte-identically.

The corpus is fuzz configurations 0..count-1 of the seed, followed, for
each generated kind, by the `fixtures.generate_branch(kind, s)` fixtures of
the seeds s = seed..seed+fixture_seeds-1 (one seed by default).  Each
decision is hashed as its canonical JSON line; with --trace each
configuration is decided with a construction trace, and the traces (an
empty trace for the special-position exits) are hashed the same way.  Each
configuration is written by `cli.points_to_json`, put through JSON text,
and decided as `cli.load_points` reads it back, so the digests also cover
the command line's input path.

Usage: python scripts/decision_digest.py --seed 5 --count 100 [--fixture-seeds 1] [--trace]
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from quadricheck import cli, fixtures, reductions
from quadricheck.constructions import ConstructionTrace


def canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def corpus(seed, count, fixture_seeds):
    for index in range(count):
        yield cli.fuzz_configuration(seed, index)
    for kind in fixtures.GENERATED_KINDS:
        for s in range(seed, seed + fixture_seeds):
            yield fixtures.generate_branch(kind, s)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument(
        "--fixture-seeds", type=int, default=1, help="fixture seeds per generated kind"
    )
    parser.add_argument("--trace", action="store_true", help="also digest the traces")
    args = parser.parse_args()

    decisions = hashlib.sha256()
    traces = hashlib.sha256()
    total = 0
    for points in corpus(args.seed, args.count, args.fixture_seeds):
        text = json.dumps(cli.points_to_json(points))
        points = cli.load_points(json.loads(text)).labeled_points()
        decision = reductions.decide(points, with_trace=args.trace)
        decisions.update(canonical(decision.to_json()))
        if args.trace:
            traces.update(canonical((decision.trace or ConstructionTrace()).to_json()))
        total += 1
    print(f"decisions {decisions.hexdigest()} {total} configurations")
    if args.trace:
        print(f"traces {traces.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
