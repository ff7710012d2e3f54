import json
import os
import random
import subprocess
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from quadricheck import cli, fixtures, reductions
from quadricheck.constructions import ConstructionTrace, verify_replay
from quadricheck.decision import Decision, InternalInconsistency
from quadricheck.generic_case import MatrixM, build_M
from quadricheck.oracle import sample_on_quadric
from quadricheck.projective import Point, QuadricCoeffs


def write_config(path, points):
    path.write_text(json.dumps({"points": [p.to_strings() for p in points]}))
    return str(path)


@pytest.fixture
def segre_file(tmp_path):
    return write_config(tmp_path / "segre.json", sample_on_quadric("cli-segre", 10))


class TestDecide:
    def test_agreeing_verdicts_exit_zero(self, segre_file, capsys):
        code = cli.main(["decide", segre_file, "--method", "both"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["agreement"] is True
        assert out["decision"]["on_quadric"] is True
        assert out["oracle_verdict"] is True
        assert "synthetic_seconds" in out["timings"]

    def test_oracle_only(self, segre_file, capsys):
        code = cli.main(["decide", segre_file, "--method", "oracle"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["decision"] is None and out["oracle_verdict"] is True

    def test_malformed_nine_points(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        pts = sample_on_quadric("cli-bad", 9)
        bad.write_text(json.dumps({"points": [p.to_strings() for p in pts]}))
        assert cli.main(["decide", str(bad)]) == 2

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["decide", str(bad)]) == 2

    def test_missing_file(self):
        assert cli.main(["decide", "/nonexistent/config.json"]) == 2

    def test_zero_point_rejected(self, tmp_path):
        bad = tmp_path / "zero.json"
        rows = [["0", "0", "0", "0"]] + [["1", str(k), "0", "1"] for k in range(9)]
        bad.write_text(json.dumps({"points": rows}))
        assert cli.main(["decide", str(bad)]) == 2

    def test_trace_written_and_replays(self, tmp_path, capsys):
        pts = sample_on_quadric("cli-trace", 10)
        cfg = write_config(tmp_path / "cfg.json", pts)
        trace_path = tmp_path / "trace.json"
        code = cli.main(["decide", cfg, "--method", "synthetic", "--trace", str(trace_path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["decision"]["trace_ref"] == str(trace_path)
        payload = json.loads(trace_path.read_text())
        trace = ConstructionTrace.from_json(payload)
        if out["decision"]["branch"] == "generic":
            assert len(trace.steps) > 0
        assert verify_replay(trace)

    def test_unwritable_trace_exits_two(self, segre_file, tmp_path, capsys):
        trace_path = tmp_path / "missing" / "trace.json"
        code = cli.main(["decide", segre_file, "--trace", str(trace_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {trace_path}: ")
        assert "Traceback" not in captured.err

    def test_trace_with_oracle_method_refused(self, tmp_path, capsys):
        """The oracle records no construction trace, so asking for one with
        --method oracle is a usage error, not a silent success."""
        cfg = write_config(tmp_path / "cfg.json", fixtures.generate_branch("generic", 1))
        trace_path = tmp_path / "trace.json"
        code = cli.main(["decide", cfg, "--method", "oracle", "--trace", str(trace_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and not trace_path.exists()
        [error] = captured.err.splitlines()
        assert error.startswith("error: ") and "--trace" in error and "--method" in error

    def test_trace_write_failure_prints_one_error_line(self, segre_file, tmp_path, capsys, monkeypatch):
        def failing(self):
            raise ValueError("injected")

        monkeypatch.setattr(ConstructionTrace, "to_json", failing)
        trace_path = tmp_path / "trace.json"
        code = cli.main(["decide", segre_file, "--trace", str(trace_path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == "" and not trace_path.exists()
        error, configuration = captured.err.splitlines()
        assert error == "error: ValueError: injected"
        assert json.loads(configuration) == cli.points_to_json(sample_on_quadric("cli-segre", 10))

    def test_certificate_past_the_int_text_digit_limit(self, tmp_path, capsys):
        """Nine points of 1,000-bit coordinates and a repeat: the quadric
        through the nine has coefficients of more digits than `str` writes
        under the interpreter's default limit of 4,300."""
        rng = random.Random("cli-wide-certificate")
        bound = 2**1000
        pts = [Point(tuple(rng.randint(-bound, bound) for _ in range(4))) for _ in range(9)]
        cfg = write_config(tmp_path / "cfg.json", pts + pts[:1])
        code = cli.main(["decide", cfg, "--method", "both"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        out = json.loads(captured.out)
        assert out["decision"]["branch"] == "duplicate"
        texts = out["decision"]["certificate"]["coeffs"]
        assert max(len(t) for t in texts) > 4300
        quadric = QuadricCoeffs(tuple(int(Decimal(t)) for t in texts))
        assert all(quadric.evaluate(p) == 0 for p in pts)

    def test_disagreement_exits_three(self, segre_file, capsys, monkeypatch):
        true_decide = reductions.decide

        def negated(points, with_trace=False):
            d = true_decide(points, with_trace=with_trace)
            return Decision(not d.on_quadric, d.branch, d.labeling, None, d.trace)

        monkeypatch.setattr(reductions, "decide", negated)
        code = cli.main(["decide", segre_file, "--method", "both"])
        out = json.loads(capsys.readouterr().out)
        assert code == 3
        assert out["agreement"] is False
        assert len(out["configuration"]) == 10

    def test_decide_exception_exits_three_with_configuration(
        self, segre_file, capsys, monkeypatch
    ):
        def failing(points, with_trace=False):
            raise InternalInconsistency("injected")

        monkeypatch.setattr(reductions, "decide", failing)
        code = cli.main(["decide", segre_file, "--method", "both"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        error, configuration = captured.err.splitlines()
        assert error == "error: InternalInconsistency: injected"
        assert "Traceback" not in captured.err
        assert json.loads(configuration) == cli.points_to_json(sample_on_quadric("cli-segre", 10))


class TestGen:
    def test_deterministic_bytes(self, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["gen", "--kind", "on-quadric", "--seed", "4", "--out", str(f1)]) == 0
        assert cli.main(["gen", "--kind", "on-quadric", "--seed", "4", "--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_unknown_kind(self):
        assert cli.main(["gen", "--kind", "qd-branch:nonsense", "--seed", "1"]) == 2

    def test_generic_kind_reports_generic_branch(self, tmp_path, capsys):
        out_file = tmp_path / "g.json"
        assert cli.main(["gen", "--kind", "generic", "--seed", "2", "--out", str(out_file)]) == 0
        assert cli.main(["decide", str(out_file), "--method", "synthetic"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["decision"]["branch"] == "generic"

    @pytest.mark.parametrize(
        "branch",
        ["duplicate", "three-lines-grassmann", "plane-split", "two-planes"],
    )
    def test_branch_fixtures_match(self, tmp_path, capsys, branch):
        out_file = tmp_path / "b.json"
        code = cli.main(
            ["gen", "--kind", f"qd-branch:{branch}", "--seed", "5", "--out", str(out_file)]
        )
        assert code == 0
        assert cli.main(["decide", str(out_file), "--method", "both"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["decision"]["branch"] == branch
        assert report["agreement"] is True

    def test_unwritable_out_exits_two(self, tmp_path, capsys):
        out_file = tmp_path / "missing" / "points.json"
        code = cli.main(["gen", "--kind", "on-quadric", "--seed", "4", "--out", str(out_file)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out_file}: ")
        assert "Traceback" not in captured.err

    def test_stdout_when_no_out(self, capsys):
        assert cli.main(["gen", "--kind", "on-quadric", "--seed", "7"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["points"]) == 10


class TestFuzz:
    def test_runs_as_a_module(self, tmp_path):
        """`python -m quadricheck` runs the command line without the
        installed console script."""
        src = Path(cli.__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-m", "quadricheck", "fuzz", "--count", "2"],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["agreements"] == 2

    def test_small_run_agrees(self, capsys):
        code = cli.main(["fuzz", "--seed", "1", "--count", "10"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["agreements"] == 10 and out["disagreements"] == []

    def test_count_zero(self, capsys):
        code = cli.main(["fuzz", "--seed", "1", "--count", "0"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["agreements"] == 0

    def test_zero_seeds(self, capsys):
        code = cli.main(["fuzz", "--seeds", "0"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["agreements"] == 0 and out["census"] == {}

    def test_one_seed_agrees(self, capsys):
        code = cli.main(["fuzz", "--seeds", "1", "--count", "3"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["agreements"] == 3 and out["disagreements"] == [] and out["errors"] == []
        assert sum(out["census"].values()) == 3

    @pytest.mark.parametrize("option", ["--count", "--seeds"])
    def test_negative_count_rejected(self, option, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["fuzz", "--seed", "1", option, "-3"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert option in captured.err and "negative" in captured.err

    def test_seeds_sum_single_seed_runs(self, capsys, monkeypatch):
        true_decide = reductions.decide
        failing = [cli.fuzz_configuration(1, 2), cli.fuzz_configuration(2, 3)]

        def failing_on_two(points, with_trace=False):
            if points in failing:
                raise InternalInconsistency("injected")
            return true_decide(points, with_trace=with_trace)

        monkeypatch.setattr(reductions, "decide", failing_on_two)
        runs = []
        for argv in (["--seed", "1"], ["--seed", "2"], ["--seed", "1", "--seeds", "2"]):
            assert cli.main(["fuzz", *argv, "--count", "5"]) == 3
            runs.append(json.loads(capsys.readouterr().out))
        one, two, both = runs
        assert both["seeds"] == 2 and both["count"] == 5
        assert both["census"] == dict(Counter(one["census"]) + Counter(two["census"]))
        assert both["agreements"] == one["agreements"] + two["agreements"] == 8
        assert both["on_quadric"] == one["on_quadric"] + two["on_quadric"]
        assert both["errors"] == one["errors"] + two["errors"]
        assert [(e["seed"], e["index"]) for e in both["errors"]] == [(1, 2), (2, 3)]

    def test_decide_exception_recorded_and_run_continues(self, capsys, monkeypatch):
        true_decide = reductions.decide

        def failing_on_third(points, with_trace=False):
            if points == cli.fuzz_configuration(1, 2):
                raise InternalInconsistency("injected")
            return true_decide(points, with_trace=with_trace)

        monkeypatch.setattr(reductions, "decide", failing_on_third)
        code = cli.main(["fuzz", "--seed", "1", "--count", "5"])
        out = json.loads(capsys.readouterr().out)
        assert code == 3
        assert out["agreements"] == 4 and out["disagreements"] == []
        [error] = out["errors"]
        assert error["index"] == 2
        assert error["error"] == "InternalInconsistency: injected"
        assert "Traceback" in error["traceback"]
        assert error["points"] == cli.points_to_json(cli.fuzz_configuration(1, 2))["points"]

    def test_census_counts_branches(self, capsys):
        code = cli.main(["fuzz", "--seed", "2", "--count", "10"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        want = Counter(reductions.decide(cli.fuzz_configuration(2, i)).branch for i in range(10))
        assert out["census"] == dict(want) and list(out["census"]) == sorted(want)

    def test_census_leaves_out_errors(self, capsys, monkeypatch):
        true_decide = reductions.decide

        def failing_on_first(points, with_trace=False):
            if points == cli.fuzz_configuration(1, 0):
                raise InternalInconsistency("injected")
            return true_decide(points, with_trace=with_trace)

        monkeypatch.setattr(reductions, "decide", failing_on_first)
        assert cli.main(["fuzz", "--seed", "1", "--count", "3"]) == 3
        out = json.loads(capsys.readouterr().out)
        assert sum(out["census"].values()) == 2 and len(out["errors"]) == 1

    def test_wrong_m_fails_the_det_identity(self, capsys, monkeypatch):
        """fuzz checks det(M) = Q·det(N) on every generic decision: an M
        with one entry off by one fails it on each of them, while the
        verdicts still agree and the census is unchanged."""
        assert cli.main(["fuzz", "--seed", "1", "--count", "10"]) == 0
        honest = json.loads(capsys.readouterr().out)

        def wrong_m(points):
            (first, *rest), *rows = build_M(points).entries
            return MatrixM(((first + 1, *rest), *rows))

        monkeypatch.setattr(cli, "build_M", wrong_m)
        assert cli.main(["fuzz", "--seed", "1", "--count", "10"]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["census"] == honest["census"] and out["census"]["generic"] > 0
        assert out["errors"] == []
        failures = out["disagreements"]
        assert len(failures) == out["census"]["generic"]
        assert out["agreements"] == 10 - len(failures)
        for failure in failures:
            assert failure["seed"] == 1 and failure["branch"] == "generic"
            assert failure["identity"] == "det(M) != Q * det(N)"
            config = cli.fuzz_configuration(1, failure["index"])
            assert failure["points"] == cli.points_to_json(config)["points"]

    def test_injected_bug_detected(self, capsys, monkeypatch):
        true_decide = reductions.decide

        def negated(points, with_trace=False):
            d = true_decide(points, with_trace=with_trace)
            return Decision(not d.on_quadric, d.branch, d.labeling, None, d.trace)

        monkeypatch.setattr(reductions, "decide", negated)
        code = cli.main(["fuzz", "--seed", "1", "--count", "5"])
        out = json.loads(capsys.readouterr().out)
        assert code == 3
        assert len(out["disagreements"]) == 5


class TestReportShape:
    def test_report_round_trips_and_is_deterministic(self, segre_file, capsys):
        cli.main(["decide", segre_file, "--method", "both"])
        first = json.loads(capsys.readouterr().out)
        cli.main(["decide", segre_file, "--method", "both"])
        second = json.loads(capsys.readouterr().out)
        first.pop("timings")
        second.pop("timings")
        assert first == second

    def test_points_round_trip(self, tmp_path):
        pts = sample_on_quadric("round", 10, transformed=True)
        cfg = write_config(tmp_path / "rt.json", pts)
        assert cli.load_config(cfg).labeled_points() == pts


class TestLabelHints:
    def test_hints_reorder_points(self, tmp_path):
        pts = sample_on_quadric("hints", 10)
        perm = [3, 1, 4, 0, 5, 9, 2, 6, 8, 7]
        path = tmp_path / "hinted.json"
        path.write_text(
            json.dumps({"points": [p.to_strings() for p in pts], "labels": perm})
        )
        cfg = cli.load_config(str(path))
        assert cfg.labeled_points() == [pts[i] for i in perm]

    def test_hinted_verdict_unchanged(self, tmp_path, capsys):
        pts = sample_on_quadric("hints-verdict", 10)
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps({"points": [p.to_strings() for p in pts]}))
        hinted = tmp_path / "hinted.json"
        hinted.write_text(
            json.dumps(
                {"points": [p.to_strings() for p in pts], "labels": [9, 8, 7, 6, 5, 4, 3, 2, 1, 0]}
            )
        )
        assert cli.main(["decide", str(plain), "--method", "both"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert cli.main(["decide", str(hinted), "--method", "both"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["decision"]["on_quadric"] == second["decision"]["on_quadric"]

    def test_bad_hints_rejected(self, tmp_path):
        pts = sample_on_quadric("hints-bad", 10)
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"points": [p.to_strings() for p in pts], "labels": [0] * 10})
        )
        assert cli.main(["decide", str(path)]) == 2


class TestInputHardening:
    """Each malformed input exits 2 with a message, never a traceback."""

    @staticmethod
    def decide_payload(tmp_path, capsys, payload):
        path = tmp_path / "cfg.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        code = cli.main(["decide", str(path), "--method", "oracle"])
        err = capsys.readouterr().err
        return code, err

    @staticmethod
    def rows():
        return [p.to_strings() for p in sample_on_quadric("harden", 10)]

    @pytest.mark.parametrize(
        "labels",
        [
            [0, 1, 2, 3, 4, 5, 6, 7, 8, "9"],
            5,
            [0.0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
            [True, 0, 2, 3, 4, 5, 6, 7, 8, 9],
        ],
        ids=["string-label", "not-a-list", "float-label", "bool-label"],
    )
    def test_labels_must_be_a_list_of_ints(self, tmp_path, capsys, labels):
        payload = {"points": self.rows(), "labels": labels}
        code, err = self.decide_payload(tmp_path, capsys, payload)
        assert code == 2
        assert err.startswith("error: ") and "labels" in err

    @pytest.mark.parametrize(
        "coordinate",
        ["1e100000", "1e-100000", "1" * 5000, "3/" + "7" * 400],
        ids=["huge-exponent", "huge-negative-exponent", "long-integer", "wide-denominator"],
    )
    def test_oversized_coordinate_rejected(self, tmp_path, capsys, coordinate):
        rows = self.rows()
        rows[3][1] = coordinate
        code, err = self.decide_payload(tmp_path, capsys, {"points": rows})
        assert code == 2
        assert err.startswith("error: ") and f"{cli.MAX_COORD_BITS} bits" in err

    def test_integer_past_json_digit_limit_rejected(self, tmp_path, capsys):
        rows = self.rows()
        rows[0][0] = "BIG"
        payload = json.dumps({"points": rows}).replace('"BIG"', "1" + "0" * 5000)
        code, err = self.decide_payload(tmp_path, capsys, payload)
        assert code == 2
        assert err.startswith("error: ")

    def test_cap_admits_wide_corpus_coordinates(self):
        w = 2**256 - 1
        wide = str(w)
        rows = self.rows()
        rows[0] = [wide, "1/" + wide, "-" + wide, "3"]
        cfg = cli.load_points({"points": rows})
        assert cfg.points[0] == Point((w * w, 1, -w * w, 3 * w))
        rows[0][0] = str(2**cli.MAX_COORD_BITS)
        with pytest.raises(cli.ConfigError):
            cli.load_points({"points": rows})



def fraction_only(value):
    """A coordinate read by `Fraction(text)` alone, under the digit and bit
    caps of `cli._parse_coordinate`: the reference its int path must match."""
    text = str(value)
    digits = len(text)
    if digits <= cli._MAX_COORD_DIGITS:
        exponent = cli._EXPONENT.search(text)
        if exponent:
            digits += abs(int(exponent.group(1)))
    if digits <= cli._MAX_COORD_DIGITS:
        coord = Fraction(text)
        if max(coord.numerator.bit_length(), coord.denominator.bit_length()) <= cli.MAX_COORD_BITS:
            return coord
    raise cli.ConfigError(f"coordinate {text[:40]!r} exceeds {cli.MAX_COORD_BITS} bits")


class TestIntegerCoordinates:
    """Integer text is read as an int and all other text as a Fraction; the
    accepted text, the points and the messages are those of reading every
    coordinate as `Fraction(text)`."""

    ROWS = [["1", str(k), str(k * k), str(k**3)] for k in range(1, 10)]
    TEXTS = [
        "7", "+7", "-0", "007", " 7 ", "1_000", "1e3", "1E+2", "1/2", " 3 / 4 ", "0.5",
        "-.5", "\u0663", "True", "", "+", "--1", "0x10", "9" * 600, "9" * 2100, 5, 0.5,
    ]

    @staticmethod
    def outcome(payload):
        try:
            return cli.load_points(payload).points[0]
        except cli.ConfigError as exc:
            return str(exc)

    @pytest.mark.parametrize("text", TEXTS, ids=lambda t: repr(t)[:12])
    def test_parity_with_fraction(self, text, monkeypatch):
        payload = json.loads(json.dumps({"points": [[text, "1", "2", "3"]] + self.ROWS}))
        got = self.outcome(payload)
        monkeypatch.setattr(cli, "_parse_coordinate", fraction_only)
        assert got == self.outcome(payload)

    def test_integer_payload_makes_no_fraction(self, monkeypatch):
        made = []

        def counting(*args):
            made.append(args)
            return Fraction(*args)

        monkeypatch.setattr(cli, "Fraction", counting)
        rows = [p.to_strings() for p in sample_on_quadric("int-read", 10)]
        cli.load_points({"points": rows})
        assert made == []
        assert type(cli._parse_coordinate("-12")) is int
        rows[0][0] = "1/2"
        cli.load_points({"points": rows})
        assert made == [("1/2",)]
