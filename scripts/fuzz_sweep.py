#!/usr/bin/env python3
"""Sweep the fuzzer across many seeds and tally which pipeline branch fired.

Usage: python scripts/fuzz_sweep.py [--seeds 8] [--count 100]
"""

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from quadricheck.cli import fuzz_check


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=8)
    parser.add_argument("--count", type=int, default=100)
    args = parser.parse_args()

    branches = Counter()
    verdicts = Counter()
    disagreements = []
    errors = []
    start = time.perf_counter()
    total = 0
    for seed in range(args.seeds):
        for index in range(args.count):
            decision, failure = fuzz_check(seed, index)
            total += 1
            if decision is None:
                errors.append((seed, failure))
                continue
            branches[decision.branch] += 1
            verdicts[decision.on_quadric] += 1
            if failure is not None:
                disagreements.append((seed, index))
    elapsed = time.perf_counter() - start

    per_config_ms = elapsed / total * 1000 if total else 0.0
    print(f"{total} configurations in {elapsed:.1f}s ({per_config_ms:.1f} ms each)")
    print(f"verdicts: {verdicts[True]} on-quadric, {verdicts[False]} off")
    for branch, n in branches.most_common():
        print(f"  {branch:40s} {n}")
    for seed, failure in errors:
        print(f"ERROR seed {seed} index {failure['index']}: {failure['error']}")
        print(f"  points: {failure['points']}")
    if disagreements:
        print(f"DISAGREEMENTS: {disagreements}")
    if errors or disagreements:
        return 3
    print("all verdicts agree with the determinant oracle")
    return 0


if __name__ == "__main__":
    sys.exit(main())
