#!/usr/bin/env python3
"""Replay a construction trace file and verify it reproduces every step.

Usage: python scripts/replay_trace.py trace.json [trace2.json ...]

Exit codes: 0 every trace replays bit-exactly, 1 a step output differs,
2 no argument, or a file that cannot be read, parsed or replayed.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from quadricheck.constructions import ConstructionTrace, replay_mismatches
from quadricheck.projective import GeometryError

# What an unreadable file, or a trace whose steps do not parse or do not
# replay, raises: reported as bad input (exit 2), never as a traceback.
UNREPLAYABLE = (OSError, ValueError, LookupError, TypeError, ArithmeticError, GeometryError)


def replay_file(path):
    """Replay one trace file; returns (step count, positions of mismatching steps)."""
    with open(path, "r", encoding="utf-8") as fh:
        trace = ConstructionTrace.from_json(json.load(fh))
    return len(trace.steps), replay_mismatches(trace)


def main(paths):
    if not paths:
        print("usage: replay_trace.py trace.json [...]", file=sys.stderr)
        return 2
    status = 0
    for path in paths:
        try:
            steps, mismatches = replay_file(path)
        except UNREPLAYABLE as exc:
            print(
                f"error: {path}: not a replayable trace ({type(exc).__name__}: {exc})",
                file=sys.stderr,
            )
            status = 2
            continue
        if mismatches:
            status = max(status, 1)
            print(f"{path}: {steps} steps, MISMATCH at {mismatches}")
        else:
            print(f"{path}: {steps} steps replayed bit-exactly")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
