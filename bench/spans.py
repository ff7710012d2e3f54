"""Per-layer tracing from outside the library.

`Tracer.install` wraps each public function named in `LAYER_FUNCTIONS` in
every `quadricheck.*` namespace that binds it, so calls made through any
import path are seen.  Each call becomes a span (name, start, end, parent,
operation) kept in flat in-memory arrays; `write` dumps them when the run
ends.  A span's self time is its duration minus the durations of its
direct child spans, which nest strictly because the benchmark runs in one
thread.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from contextlib import contextmanager

# (module, attribute path) of every function the layer table names.
LAYER_FUNCTIONS = (
    ("cli", "load_points"),
    ("reductions", "decide"),
    ("reductions", "normalize"),
    ("reductions", "qd_duplicates"),
    ("reductions", "qd_four_collinear"),
    ("reductions", "qd_six_on_plane_conic"),
    ("reductions", "qd_three_lines"),
    ("reductions", "qd_two_lines"),
    ("reductions", "find_three_skew"),
    ("generic_case", "GenericConfig.validate"),
    ("generic_case", "genericity_violation"),
    ("generic_case", "find_Q_labeling"),
    ("generic_case", "build_M"),
    ("generic_case", "construct_test_point"),
    ("constructions", "local_param_point"),
    ("constructions", "von_staudt_inverse"),
    ("constructions", "von_staudt_product"),
    ("constructions", "recover_from_chart"),
    ("constructions", "line_meet_line"),
    ("constructions", "choose_auxiliaries"),
    ("constructions", "verify_replay"),
    ("extensors", "join"),
    ("extensors", "meet"),
    ("projective", "rank_of_vectors"),
    ("projective", "bracket"),
    ("projective", "bareiss_det"),
    ("projective", "kernel_basis"),
    ("oracle", "oracle_decide"),
)

# Exits of the reduction pipeline; an exit fires when it returns a Decision.
EXITS = (
    "reductions.qd_duplicates",
    "reductions.qd_four_collinear",
    "reductions.qd_six_on_plane_conic",
    "reductions.qd_three_lines",
    "reductions.qd_two_lines",
    "reductions.find_three_skew",
)

# Spans the benchmark opens around its own steps.
OP = "bench.op"
CHECK = "bench.check"
ROUNDTRIP = "bench.trace_roundtrip"


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_op = -1
        self.fired = {}
        self.max_test_point_bits = 0
        self.missing = []
        self._undo = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name):
        nid = self._id(name)
        observe = self._observer(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(result)
            return result

        return traced

    def _observer(self, name):
        if name in EXITS:
            from quadricheck.decision import Decision

            self.fired[name] = 0

            def count_fired(result):
                if isinstance(result, Decision):
                    self.fired[name] += 1

            return count_fired
        if name == "generic_case.construct_test_point":

            def record_bits(point):
                bits = max(abs(c).bit_length() for c in point.coords)
                self.max_test_point_bits = max(self.max_test_point_bits, bits)

            return record_bits
        return None

    def install(self):
        """Wrap every layer function; names the library no longer has are
        listed in `missing` and report zero."""
        modules = [
            m for n, m in sys.modules.items() if n == "quadricheck" or n.startswith("quadricheck.")
        ]
        for module_name, path in LAYER_FUNCTIONS:
            name = f"{module_name}.{path}"
            module = sys.modules.get(f"quadricheck.{module_name}")
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in owner_path.split(".") if owner_path else ():
                owner = getattr(owner, part, None)
            raw = owner.__dict__.get(attr) if owner is not None else None
            if isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(self._wrap(raw.__func__, name)))
            elif callable(raw):
                wrapped = self._wrap(raw, name)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._patch(mod, key, wrapped)
            else:
                self.missing.append(name)

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def self_times(self):
        """Per span: its duration minus that of its direct children."""
        n = len(self.name)
        own = [self.end[i] - self.start[i] for i in range(n)]
        selfs = own[:]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                selfs[p] -= own[i]
        return selfs

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\top\tparent\tname\tstart_s\tend_s\n")
            names = self.names
            for i in range(len(self.name)):
                fh.write(
                    f"{i}\t{self.op[i]}\t{self.parent[i]}\t{names[self.name[i]]}\t"
                    f"{self.start[i]!r}\t{self.end[i]!r}\n"
                )


def layer_metrics(tracer: Tracer, ops, bit_classes):
    """Per-decision calls and self time (at reference speed) of every layer
    function, plus the ratios and counts the layer table asks for; the
    oracle's split by coordinate bound counts its whole duration.  `ops`
    are the traced operations, indexed by the spans' operation ids."""
    decisions = len(ops)
    selfs = tracer.self_times()
    calls = {}
    self_s = {}
    oracle_by_bits = {}
    oracle_id = tracer._ids.get("oracle.oracle_decide")
    lml_id = tracer._ids.get("constructions.line_meet_line")
    meet_id = tracer._ids.get("extensors.meet")
    meets_in_lml = 0
    for i, nid in enumerate(tracer.name):
        op = ops[tracer.op[i]]
        own = selfs[i] * op.scale
        calls[nid] = calls.get(nid, 0) + 1
        self_s[nid] = self_s.get(nid, 0.0) + own
        if nid == oracle_id:
            spent = (tracer.end[i] - tracer.start[i]) * op.scale
            oracle_by_bits[op.bits] = oracle_by_bits.get(op.bits, 0.0) + spent
        elif nid == meet_id and lml_id is not None:
            p = tracer.parent[i]
            if p >= 0 and tracer.name[p] == lml_id:
                meets_in_lml += 1

    def count(name):
        return calls.get(tracer._ids.get(name), 0)

    def per_decision_ms(name):
        return self_s.get(tracer._ids.get(name), 0.0) * 1000 / decisions

    metrics = {}
    for module_name, path in LAYER_FUNCTIONS:
        name = f"{module_name}.{path}"
        metrics[f"{name}.calls"] = (count(name) / decisions, "count")
        metrics[f"{name}.self_ms"] = (per_decision_ms(name), "ms")
    for name in (CHECK, ROUNDTRIP):
        metrics[f"{name}.self_ms"] = (per_decision_ms(name), "ms")
    lml_calls = count("constructions.line_meet_line")
    metrics["constructions.line_meet_line.meets_per_call"] = (
        meets_in_lml / lml_calls if lml_calls else 0.0,
        "ratio",
    )
    metrics["reductions.exits_tried"] = (sum(count(e) for e in EXITS) / decisions, "count")
    for exit_name in EXITS:
        tried = count(exit_name)
        fired = tracer.fired.get(exit_name, 0)
        metrics[f"{exit_name}.fired_ratio"] = (fired / tried if tried else 0.0, "ratio")
    for bits in bit_classes:
        n = sum(1 for op in ops if op.bits == bits)
        ms = oracle_by_bits.get(bits, 0.0) * 1000 / n if n else 0.0
        metrics[f"oracle.oracle_decide.bits{bits}.total_ms"] = (ms, "ms")
    metrics["generic_case.construct_test_point.max_bits"] = (tracer.max_test_point_bits, "bits")
    return metrics
