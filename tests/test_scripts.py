"""Each script under scripts/ run as a user runs it: in its own process."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from quadricheck import cli, fixtures, reductions
from quadricheck.oracle import sample_generic

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)],
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestFuzzSweep:
    def test_zero_seeds(self):
        result = run_script("fuzz_sweep.py", "--seeds", 0)
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("0 configurations")

    def test_small_sweep_agrees(self):
        result = run_script("fuzz_sweep.py", "--seeds", 1, "--count", 3)
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stdout.startswith("3 configurations")
        assert "all verdicts agree" in result.stdout


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

    def test_missing_file(self, tmp_path):
        missing = tmp_path / "missing.json"
        result = run_script("replay_trace.py", missing)
        assert result.returncode == 2
        assert result.stderr.count("\n") == 1 and str(missing) in result.stderr
        assert "Traceback" not in result.stderr

    def test_malformed_trace(self, tmp_path):
        half = {"grade": 1, "coeffs": ["1/2", "0", "0", "0"]}
        step = {"id": 0, "op": "join", "inputs": [{"extensor": half}], "output": {"extensor": half}}
        for name, payload in (("bad", {"steps": [{"id": 0}]}), ("half", {"steps": [step]})):
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


    def test_pinned_digest(self):
        # 31 configurations, 12 of them generic: every decision and every
        # construction trace must stay byte-identical to these digests
        result = run_script("decision_digest.py", "--seed", 5, "--count", 20, "--trace")
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [
            "decisions ee55ae3abbd4d8c2cd3a73f2505885b83e0f19b78d28dd997f80a8104c65f57c"
            " 31 configurations",
            "traces f4b8f7ba9e9d8634eda4ea3d81f22fe0829e4825b0e02471957505ae903a5a49",
        ]

def test_det_identity_experiment():
    result = run_script("det_identity_experiment.py", "--configs", 1, "--perms", 2)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "holds with sign +1 on 2" in result.stdout
