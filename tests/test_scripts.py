"""Each script under scripts/ run as a user runs it: in its own process."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from quadricheck import cli, fixtures, reductions
from quadricheck.constructions import ConstructionTrace, _value_to_json, verify_replay
from quadricheck.extensors import line_through, plane_through
from quadricheck.oracle import sample_generic
from quadricheck.projective import E0, E1, E2, E3, Point

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)],
        capture_output=True,
        text=True,
        timeout=120,
    )


# Written values that are not lists of integer strings, each of which an
# int() per item once read as four coordinates.
MALFORMED_VALUES = {
    "float": [1.9, 0, 0, 0],
    "numbers": [1, 0, 0, 0],
    "bool": [True, False, False, False],
    "bare-string": "1000",
    "underscore": ["1_0", "0", "0", "0"],
    "padded": [" 7", "0", "0", "0"],
    "arabic-indic": ["\u0663", "0", "0", "0"],
}


def malformed_traces(value, line):
    """One-step traces joining E0 and E1 into `line`, with `value` in place
    of the first point's coordinates or, padded to six, of the line's."""
    e0, e1 = ({"point": p.to_strings()} for p in (E0, E1))
    coeffs = value + value[:2] if isinstance(value, list) else value
    misspelled = {"extensor": {"grade": 2, "coeffs": coeffs}}
    return {
        "point": {
            "leaves": [{"point": value}, e1],
            "steps": [{"op": "join", "inputs": [0, 1], "output": line}],
        },
        "extensor": {
            "leaves": [e0, e1],
            "steps": [{"op": "join", "inputs": [0, 1], "output": misspelled}],
        },
    }


class TestReplayTrace:
    def test_decide_trace_replays(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cli.points_to_json(sample_generic("scripts-trace", 10))))
        trace = tmp_path / "trace.json"
        assert cli.main(["decide", str(config), "--method", "synthetic", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert json.loads(trace.read_text())["steps"]
        result = run_script("replay_trace.py", trace)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip().endswith("steps replayed bit-exactly")

    def test_special_position_trace_replays_empty(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cli.points_to_json(fixtures.generate_branch("duplicate", 1))))
        trace = tmp_path / "trace.json"
        assert cli.main(["decide", str(config), "--method", "synthetic", "--trace", str(trace)]) == 0
        assert json.loads(capsys.readouterr().out)["decision"]["branch"] == "duplicate"
        assert json.loads(trace.read_text()) == ConstructionTrace().to_json()
        result = run_script("replay_trace.py", trace)
        assert result.returncode == 0, result.stderr
        assert result.stdout == f"{trace}: 0 steps replayed bit-exactly\n"

    def test_trace_past_the_int_text_digit_limit(self, tmp_path, capsys):
        """Coordinates of up to 1,022 bits give trace coefficients of more
        digits than `str` and `int` convert under the interpreter's
        default limit of 4,300; the trace is still written and replayed."""
        points = sample_generic(3, 10, bound=2**256)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cli.points_to_json(points)))
        trace = tmp_path / "trace.json"
        assert cli.main(["decide", str(config), "--method", "synthetic", "--trace", str(trace)]) == 0
        assert json.loads(capsys.readouterr().out)["decision"]["branch"] == "generic"
        payload = json.loads(trace.read_text())
        texts = [
            text
            for value in payload["leaves"] + [step["output"] for step in payload["steps"]]
            for text in value.get("point") or value["extensor"]["coeffs"]
        ]
        assert max(map(len, texts)) > 4300
        restored = ConstructionTrace.from_json(payload)
        assert restored.to_json() == payload
        assert verify_replay(restored)
        result = run_script("replay_trace.py", trace)
        assert result.returncode == 0, result.stderr
        assert result.stdout == f"{trace}: 217 steps replayed bit-exactly\n"

    def test_tampered_trace_fails_replay(self, tmp_path):
        """One output coefficient changed, or one step input pointed at
        another value, is a mismatch at that step alone: later steps read
        the recorded outputs."""
        decision = reductions.decide(fixtures.generate_branch("generic", 1), with_trace=True)
        payload = decision.trace.to_json()
        offset = len(payload["leaves"])
        read = {i for step in payload["steps"] for i in step["inputs"]}
        # the first step whose output no later step reads: a test point
        output_k = next(k for k in range(len(payload["steps"])) if offset + k not in read)
        # the first join of two leaf points
        input_k = next(
            k
            for k, step in enumerate(payload["steps"])
            if step["op"] == "join"
            and len(step["inputs"]) == 2
            and all(i < offset for i in step["inputs"])
        )
        points = [i for i, leaf in enumerate(payload["leaves"]) if "point" in leaf]
        other = next(i for i in points if i not in payload["steps"][input_k]["inputs"])

        def changed_output(data):
            coords = data["steps"][output_k]["output"]["point"]
            coords[0] = str(int(coords[0]) + 1)

        def changed_input(data):
            data["steps"][input_k]["inputs"][1] = other

        for k, change in ((output_k, changed_output), (input_k, changed_input)):
            tampered = json.loads(json.dumps(payload))
            change(tampered)
            assert not verify_replay(ConstructionTrace.from_json(tampered))
            path = tmp_path / f"tampered-{k}.json"
            path.write_text(json.dumps(tampered))
            result = run_script("replay_trace.py", path)
            assert result.returncode == 1, result.stderr
            assert result.stdout == f"{path}: 217 steps, MISMATCH at [{k}]\n"

    def test_missing_file(self, tmp_path):
        missing = tmp_path / "missing.json"
        result = run_script("replay_trace.py", missing)
        assert result.returncode == 2
        assert result.stderr.count("\n") == 1 and str(missing) in result.stderr
        assert "Traceback" not in result.stderr

    def test_malformed_trace(self, tmp_path):
        def one_step(op, inputs, output):
            # every input a leaf, in order
            return {
                "leaves": inputs,
                "steps": [{"op": op, "inputs": list(range(len(inputs))), "output": output}],
            }

        half = {"extensor": {"grade": 1, "coeffs": ["1/2", "0", "0", "0"]}}
        e0 = {"extensor": {"grade": 1, "coeffs": E0.to_strings()}}
        planes = [
            _value_to_json(3, plane_through(*(p for p in (E0, E1, E2, E3) if p != skip)).coeffs)
            for skip in (E0, E1, E2, E3)
        ]
        # the frame (E0, E1, [1:1:0:0]): zero, infinity and unit
        frame = [{"point": p.to_strings()} for p in (E0, E1, Point((1, 1, 0, 0)))]
        unit = frame[2]
        e3 = {"point": E3.to_strings()}
        # the line E0E1 with its grade 2 misspelled
        line = _value_to_json(2, line_through(E0, E1).coeffs)
        misgraded = {
            f"grade-{name}": one_step("join", frame[:2], {"extensor": {**line["extensor"], "grade": grade}})
            for name, grade in (("float", 2.9), ("string", "2"), ("padded", " 2 "), ("bool", True))
        }
        payloads = (
            ("bad", {"leaves": [], "steps": [{"op": "join"}]}),
            ("half", one_step("join", [half], half)),
            # a join takes two or three inputs, a meet two
            ("join-of-one", one_step("join", [e0], e0)),
            ("join-of-none", one_step("join", [], e0)),
            ("meet-of-three", one_step("meet", planes[:3], e3)),
            # join and meet are the only ops: the von Staudt figures and the
            # chart recovery are written as their joins and meets
            ("product", one_step("product", frame + [unit, unit], unit)),
            ("inverse", one_step("inverse", frame + [unit], unit)),
            ("degenerate-product", one_step("degenerate-product", frame + frame[:1] * 2, frame[0])),
            ("recover", one_step("recover", planes[:3], e3)),
            *misgraded.items(),
        )
        reasons = {
            "meet-of-three": "a meet step takes 2 inputs, not 3",
            **{op: f"unknown trace op {op!r}" for op in ("product", "inverse", "degenerate-product", "recover")},
            **{name: "grade must be 0..4" for name in misgraded},
        }
        for name, payload in payloads:
            bad = tmp_path / f"{name}.json"
            bad.write_text(json.dumps(payload))
            result = run_script("replay_trace.py", bad)
            assert result.returncode == 2, name
            assert result.stderr.count("\n") == 1 and str(bad) in result.stderr
            assert "Traceback" not in result.stderr
            assert reasons.get(name, "") in result.stderr

    def test_values_that_are_not_integer_text(self, tmp_path):
        """A point or an extensor's coefficients must be a list of strings of
        an optional sign and ASCII digits: numbers, booleans, a bare string,
        underscores, padding and other digits do not load."""
        line = _value_to_json(2, line_through(E0, E1).coeffs)
        for name, value in MALFORMED_VALUES.items():
            for where, payload in malformed_traces(value, line).items():
                with pytest.raises(ValueError):
                    ConstructionTrace.from_json(payload)
                bad = tmp_path / f"{name}-{where}.json"
                bad.write_text(json.dumps(payload))
                result = run_script("replay_trace.py", bad)
                assert result.returncode == 2, (name, where)
                assert result.stderr.count("\n") == 1 and str(bad) in result.stderr
                assert "a value must be written as a list of integer strings" in result.stderr

    def test_malformed_refs(self, tmp_path):
        # leaves E0, E1, E2; step 0 joins leaves 0 and 1, step 1 joins
        # step 0 (value 3) with leaf 2
        leaves = [{"point": p.to_strings()} for p in (E0, E1, E2)]
        line = _value_to_json(2, line_through(E0, E1).coeffs)
        plane = _value_to_json(3, plane_through(E0, E1, E2).coeffs)

        def trace(first):
            return {
                "leaves": leaves,
                "steps": [
                    {"op": "join", "inputs": [0, 1], "output": line},
                    {"op": "join", "inputs": [first, 2], "output": plane},
                ],
            }

        assert verify_replay(ConstructionTrace.from_json(trace(3)))
        payloads = {
            "inlined": trace(line),
            "negative": trace(-1),
            "self": trace(4),
            "forward": trace(5),
            "bool": trace(True),
            "float": trace(3.0),
            "string": trace("3"),
            "no-leaves": {"steps": trace(3)["steps"]},
        }
        for name, payload in payloads.items():
            with pytest.raises(ValueError):
                ConstructionTrace.from_json(payload)
            bad = tmp_path / f"{name}.json"
            bad.write_text(json.dumps(payload))
            result = run_script("replay_trace.py", bad)
            assert result.returncode == 2, name
            assert result.stderr.count("\n") == 1 and str(bad) in result.stderr
            assert "Traceback" not in result.stderr


class TestDecisionDigest:
    def test_digest_of_decisions_and_traces(self):
        plain = run_script("decision_digest.py", "--seed", 3, "--count", 2)
        traced = run_script("decision_digest.py", "--seed", 3, "--count", 2, "--trace")
        assert plain.returncode == 0 and traced.returncode == 0, plain.stderr + traced.stderr
        [decisions] = plain.stdout.splitlines()
        configs = [cli.fuzz_configuration(3, i) for i in range(2)]
        configs += [fixtures.generate_branch(kind, 3) for kind in fixtures.GENERATED_KINDS]
        digest = hashlib.sha256()
        for points in configs:
            decision = reductions.decide(points).to_json()
            line = json.dumps(decision, sort_keys=True, separators=(",", ":"))
            digest.update(line.encode() + b"\n")
        assert decisions == f"decisions {digest.hexdigest()} {len(configs)} configurations"
        # tracing changes no decision, and adds the digest of the traces
        assert traced.stdout.splitlines()[0] == decisions
        assert len(traced.stdout.splitlines()[1].split()) == 2
        assert traced.stdout.splitlines()[1].startswith("traces ")

    def test_fixture_seeds(self):
        result = run_script("decision_digest.py", "--seed", 3, "--count", 0, "--fixture-seeds", 2)
        assert result.returncode == 0, result.stderr
        digest = hashlib.sha256()
        for kind in fixtures.GENERATED_KINDS:
            for seed in (3, 4):
                decision = reductions.decide(fixtures.generate_branch(kind, seed)).to_json()
                line = json.dumps(decision, sort_keys=True, separators=(",", ":"))
                digest.update(line.encode() + b"\n")
        count = 2 * len(fixtures.GENERATED_KINDS)
        assert result.stdout.splitlines() == [f"decisions {digest.hexdigest()} {count} configurations"]

    def test_pinned_digest(self):
        # 31 configurations, 12 of them generic: every decision and every
        # construction trace must stay byte-identical to these digests
        result = run_script("decision_digest.py", "--seed", 5, "--count", 20, "--trace")
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [
            "decisions ee55ae3abbd4d8c2cd3a73f2505885b83e0f19b78d28dd997f80a8104c65f57c"
            " 31 configurations",
            "traces 61aae68e2513eb89ed20c2eac952df0da9c6d66a1de5ab11b133aee7d8dd909e",
        ]

    def test_pinned_fixture_digest(self):
        # the fixtures of every kind for seeds 5..12, 88 configurations:
        # every special-position branch that the plane-first scans decide
        # must stay byte-identical to these digests
        result = run_script(
            "decision_digest.py", "--seed", 5, "--count", 0, "--fixture-seeds", 8, "--trace"
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [
            "decisions 37257a32c4d00ada16989d6c8beec185ae9c7217d9ddfb4c7f9b188365a55f83"
            " 88 configurations",
            "traces 1c379a9cc2cb0dc13e490f2260e3488a8190ed3247c14ae6e003e64c022259cc",
        ]
