#!/usr/bin/env python3
"""Closed-loop benchmark of the quadricheck decision pipeline.

One client in one process: each configuration is sent only after the
previous one has been decided.  An operation is a configuration as JSON text
-> cli.load_points -> reductions.decide -> oracle.oracle_decide -> checks;
on the `traced` workload the decision also records its construction trace,
which is round-tripped through JSON and replayed.

Usage, from the repository root:

    python3 bench/run.py --workload generic --seed 1 --seconds 30 --trace 0

The run measures whole passes over the seeded corpus, stopping at the pass
boundary nearest to --seconds (at least one pass), so every run decides each
configuration equally often.  Times are reported at a fixed reference speed
(see speed.py); the `detail` line also gives them as measured.  With
--trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 the run measures an untraced and a traced half on
the same corpus and reports the per-layer split, writing every span to
.bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import spans
import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("generic", "special", "traced")
SETUP_LAUNCHES = 7
# A run stops starting passes after this long, so that it ends well inside
# the 180 s a run may take even on a loaded machine.
HARD_STOP_S = 120.0
MAX_LISTED_FAILURES = 20
SCALE_WINDOW = 2

CENSUS_BRANCHES = (
    "duplicate",
    "four-collinear",
    "six-on-conic",
    "three-lines-grassmann",
    "two-lines-coincident-transversals",
    "plane-line-case",
    "two-lines-grassmann",
    "coplanar",
    "two-planes",
    "plane-split",
    "generic",
)

clock = time.perf_counter


def measure_setup():
    """Median over fresh interpreters of the time to import quadricheck, as
    measured and at reference speed; the first launch is discarded so that
    bytecode compilation is not counted."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_LAUNCHES + 1):
        done = subprocess.run(
            [sys.executable, str(BENCH / "speed.py")],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        probe_s, import_s = (float(v) for v in done.stdout.split())
        samples.append((import_s, import_s * speed.REFERENCE_S / probe_s))
    samples = samples[1:]
    return (
        statistics.median(s[0] for s in samples),
        statistics.median(s[1] for s in samples),
    )


def check_decision(points, decision, truth):
    problems = []
    if decision.on_quadric != truth:
        problems.append(f"verdict {decision.on_quadric} differs from the oracle's {truth}")
    cert = decision.certificate
    if cert is not None and any(cert.evaluate(p) != 0 for p in points):
        problems.append("certificate does not vanish at all ten points")
    if decision.labeling is not None and sorted(decision.labeling.perm) != list(range(10)):
        problems.append("labeling is not a permutation of 0..9")
    return problems


@dataclass
class Op:
    """One operation; times are measured milliseconds, None when the step
    did not run."""

    index: int
    bits: int
    probe_s: float  # speed.probe() just before the operation
    first_pass: bool
    scale: float = 1.0  # reference speed / speed around the operation
    branch: str = "error"
    total_ms: float = 0.0
    decide_ms: float | None = None
    oracle_ms: float | None = None
    replay_ms: float | None = None
    problems: list = field(default_factory=list)


class Runner:
    def __init__(self, items, traced, started):
        from quadricheck import cli, constructions, oracle, reductions

        self.cli, self.constructions = cli, constructions
        self.oracle, self.reductions = oracle, reductions
        self.items = items
        self.traced = traced
        self.started = started
        self.tracer = None

    def _span(self, name):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def run(self, budget, tracer=None):
        """Whole passes until the pass boundary nearest to `budget`."""
        self.tracer = tracer
        ops = []
        passes = 0
        start = clock()
        while True:
            for index, item in enumerate(self.items):
                ops.append(self._operation(len(ops), index, item, passes == 0))
            passes += 1
            elapsed = clock() - start
            if elapsed + elapsed / passes / 2 > budget or clock() - self.started > HARD_STOP_S:
                break
        self.tracer = None
        # the median of five neighbouring probes keeps one disturbed probe
        # from rescaling its operation
        probes = [op.probe_s for op in ops]
        for i, op in enumerate(ops):
            nearby = probes[max(0, i - SCALE_WINDOW) : i + SCALE_WINDOW + 1]
            op.scale = speed.REFERENCE_S / statistics.median(nearby)
        return ops, passes

    def _operation(self, op_id, index, item, first_pass):
        op = Op(index, item.bits, speed.probe(), first_pass)
        if self.tracer is not None:
            self.tracer.current_op = op_id
        start = clock()
        with self._span(spans.OP):
            try:
                config = self.cli.load_points(json.loads(item.text))
                points = config.labeled_points()
                t0 = clock()
                decision = self.reductions.decide(points, with_trace=self.traced)
                t1 = clock()
                op.decide_ms = (t1 - t0) * 1000
                op.branch = decision.branch
                truth = self.oracle.oracle_decide(points)
                op.oracle_ms = (clock() - t1) * 1000
                with self._span(spans.CHECK):
                    op.problems += check_decision(points, decision, truth)
                if self.traced:
                    op.problems += self._replay(op, decision)
            except Exception as exc:  # one bad configuration must not end the run
                op.problems.append(f"{type(exc).__name__}: {exc}")
        op.total_ms = (clock() - start) * 1000
        return op

    def _replay(self, op, decision):
        trace = decision.trace
        if trace is None or not trace.steps:
            if decision.branch == "generic":
                return ["generic decision recorded no construction trace"]
            return []
        problems = []
        with self._span(spans.ROUNDTRIP):
            text = json.dumps(trace.to_json())
            copy = self.constructions.ConstructionTrace.from_json(json.loads(text))
            if [s.output for s in copy.steps] != [s.output for s in trace.steps]:
                problems.append("trace outputs change in the JSON round trip")
        t0 = clock()
        ok = self.constructions.verify_replay(copy)
        op.replay_ms = (clock() - t0) * 1000
        if not ok:
            problems.append("replay does not reproduce the recorded trace")
        return problems


def p90(values):
    return statistics.quantiles(values, n=10)[8]


def timings(ops, attr, scaled=True):
    return [
        getattr(op, attr) * (op.scale if scaled else 1.0)
        for op in ops
        if getattr(op, attr) is not None
    ]


def p90_band(ops):
    """Branch of the decisions at the 85th, 90th and 95th percentile of the
    first pass; the p90 is clear of a branch boundary when all three agree."""
    ranked = sorted(
        (op.decide_ms * op.scale, op.branch)
        for op in ops
        if op.first_pass and op.decide_ms is not None
    )
    n = len(ranked)
    at = [ranked[min(n - 1, int(q * n))][1] for q in (0.85, 0.90, 0.95)]
    share = sum(1 for _, b in ranked if b == at[1]) / n
    return {"branch": at[1], "share": share, "clear_of_boundary": len(set(at)) == 1}


def census(ops):
    counts = Counter(op.branch for op in ops if op.first_pass)
    out = {b: counts.pop(b, 0) for b in CENSUS_BRANCHES}
    out["other"] = sum(counts.values())
    return out, dict(counts)


def throughput(ops, scaled=True):
    """Configurations that passed every check, per second of operation time."""
    passed = sum(1 for op in ops if not op.problems)
    busy_s = sum(op.total_ms * (op.scale if scaled else 1.0) for op in ops) / 1000
    return passed / busy_s


def end_to_end(ops, setup_s):
    decide = timings(ops, "decide_ms")
    return {
        "decide_p50_ms": (statistics.median(decide), "ms"),
        "decide_p90_ms": (p90(decide), "ms"),
        "oracle_p50_ms": (statistics.median(timings(ops, "oracle_ms")), "ms"),
        "checked_cfg_per_s": (throughput(ops), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def failures(args, items, ops):
    return [
        {
            "seed": args.seed,
            "index": op.index,
            "source": items[op.index].source,
            "branch": op.branch,
            "problems": op.problems,
        }
        for op in ops
        if op.problems
    ]


def detail(args, items, ops, passes, corpus_sha, measured_setup_s, all_ops):
    """Run facts next to the metrics; `ops` is one measurement (the untraced
    half of a traced run), `all_ops` every operation of the run."""
    counts, others = census(ops)
    failed = failures(args, items, all_ops)
    decide = timings(ops, "decide_ms", scaled=False)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "corpus_sha256": corpus_sha,
        "corpus_size": len(items),
        "passes": passes,
        "decisions": len(decide),
        "failed_ratio": len(failed) / len(all_ops),
        "census": counts,
        "other_branches": others,
        "p90_band": p90_band(ops),
        "failures": failed[:MAX_LISTED_FAILURES],
        "speed_scale_p50": statistics.median(op.scale for op in ops),
        "measured": {
            "decide_p50_ms": statistics.median(decide),
            "decide_p90_ms": p90(decide),
            "oracle_p50_ms": statistics.median(timings(ops, "oracle_ms", scaled=False)),
            "checked_cfg_per_s": throughput(ops, scaled=False),
            "setup_s": measured_setup_s,
        },
    }
    replay = timings(ops, "replay_ms")
    if replay:
        info["replay_p50_ms"] = statistics.median(replay)
        info["measured"]["replay_p50_ms"] = statistics.median(
            timings(ops, "replay_ms", scaled=False)
        )
        info["replay_samples"] = len(replay)
    return info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = clock()

    if not (SRC / "quadricheck" / "__init__.py").is_file():
        print(f"error: no quadricheck sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import quadricheck
    import workloads

    if Path(quadricheck.__file__).resolve().parent != SRC / "quadricheck":
        print(f"error: imported quadricheck from {quadricheck.__file__}", file=sys.stderr)
        return 2

    measured_setup_s, setup_s = measure_setup()
    items = workloads.build(args.workload, args.seed)
    corpus_sha = workloads.corpus_hash(items)
    runner = Runner(items, args.workload == "traced", started)

    if args.trace == 0:
        ops, passes = runner.run(args.seconds)
        metrics = end_to_end(ops, setup_s)
        info = detail(args, items, ops, passes, corpus_sha, measured_setup_s, ops)
    else:
        untraced, passes = runner.run(args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            ops, _ = runner.run(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        bit_classes = sorted(set(workloads.GENERIC_BITS) | {workloads.TRACED_BITS})
        metrics = spans.layer_metrics(tracer, ops, bit_classes)
        counts, _ = census(ops)
        for branch, n in counts.items():
            metrics[f"census.{branch}"] = (n, "count")
        overhead = statistics.median(timings(ops, "decide_ms")) - statistics.median(
            timings(untraced, "decide_ms")
        )
        metrics["tracing.overhead_ms"] = (overhead, "ms")
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(spans_path)
        ops = untraced + ops
        info = detail(args, items, untraced, passes, corpus_sha, measured_setup_s, ops)
        info["spans_file"] = str(spans_path.relative_to(ROOT))
        info["spans"] = len(tracer.name)
        info["missing_layer_functions"] = tracer.missing
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:8s} {name:52s} {value:14.6f} {unit}")
    print("detail " + json.dumps(info, sort_keys=True))
    if not info["p90_band"]["clear_of_boundary"]:
        print("warning: decide_p90_ms sits on a branch boundary", file=sys.stderr)
    failed = sum(1 for op in ops if op.problems)
    if failed:
        print(f"{failed} of {len(ops)} operations failed", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
