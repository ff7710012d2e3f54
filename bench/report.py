#!/usr/bin/env python3
"""Run every workload and print each metric by name, with its unit.

Usage, from the repository root:

    python3 bench/report.py [--seed 1] [--seconds 30]

Each workload runs twice through bench/run.py: untraced for the end-to-end
metrics (plus failed_ratio, and replay_p50_ms on `traced`), then traced for
the per-layer split.  Exits 1 when any operation failed (failed_ratio > 0)
or a run did not complete.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

BENCH = Path(__file__).resolve().parent


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [
            sys.executable,
            str(BENCH / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=BENCH.parent,
        capture_output=True,
        text=True,
        timeout=900,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{workload} --trace {trace} exited {done.returncode}")
    lines = done.stdout.splitlines()
    detail = next(json.loads(l[len("detail "):]) for l in lines if l.startswith("detail "))
    return json.loads(lines[-1]), detail


def main(argv=None):
    parser = argparse.ArgumentParser(description="Print every benchmark metric.")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args(argv)
    failed = False
    print(f"{'workload':8s} {'metric':52s} {'value':>14s} unit")
    for workload in WORKLOADS:
        for trace in (0, 1):
            try:
                result, detail = run_once(workload, args.seed, args.seconds, trace)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                print(f"error: {exc}", file=sys.stderr)
                failed = True
                continue
            rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
            if trace == 0:
                rows.append(("failed_ratio", detail["failed_ratio"], "ratio"))
                if "replay_p50_ms" in detail:
                    rows.append(("replay_p50_ms", detail["replay_p50_ms"], "ms"))
            for name, value, unit in rows:
                print(f"{workload:8s} {name:52s} {value:14.6f} {unit}")
            for failure in detail["failures"]:
                print(f"{workload:8s} FAILED {json.dumps(failure)}")
            if result["failed"] or not result["correct"]:
                failed = True
        print(f"{workload:8s} corpus_sha256 {detail['corpus_sha256']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
