"""End-to-end runs of every subcommand through main()."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import colorstats
from colorstats.cli import main
from colorstats.coloring import Composition
from colorstats.experiments import FamilySpec, run_regime
from colorstats.moments import record_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_every_public_name_resolves():
    assert [name for name in colorstats.__all__ if not hasattr(colorstats, name)] == []


class TestMoments:
    def test_stdout_json(self, capsys):
        code, out, _ = run(capsys, "moments", "--graph", "star:8", "--classes", "5,3")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 8 and payload["m"] == 7
        assert payload["mean_M"] == {"num": 13, "den": 4}
        assert payload["classes"] == [5, 3]

    def test_balanced_classes(self, capsys):
        code, out, _ = run(
            capsys, "moments", "--graph", "cycle:10", "--classes", "balanced:2"
        )
        assert code == 0
        assert json.loads(out)["classes"] == [5, 5]

    def test_graph_file(self, capsys, tmp_path):
        f = tmp_path / "p4.txt"
        f.write_text("4 3\n0 1\n1 2\n2 3\n")
        code, out, _ = run(capsys, "moments", "--graph", str(f), "--classes", "2,2")
        assert code == 0
        assert json.loads(out)["var_common"] == {"num": 2, "den": 3}

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "moments", "--graph", "path:6", "--classes", "3,3", "--out", str(target),
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["n"] == 6


class TestBadInput:
    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "moments", "--graph", "blah:3", "--classes", "2,1")
        assert code == 2 and "error:" in err

    def test_size_mismatch(self, capsys):
        code, _, err = run(capsys, "moments", "--graph", "star:8", "--classes", "2,2")
        assert code == 2 and "sum to" in err

    def test_tiny_graph_refused(self, capsys):
        code, _, err = run(capsys, "moments", "--graph", "path:3", "--classes", "2,1")
        assert code == 2 and "n >= 4" in err

    def test_malformed_edge_list(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("3 5\nnope\n")
        code, _, err = run(capsys, "moments", "--graph", str(f), "--classes", "2,1")
        assert code == 2 and "error:" in err

    def test_missing_argument(self, capsys):
        with pytest.raises(SystemExit):
            main(["moments", "--graph", "star:8"])

    @pytest.mark.parametrize("header", ["1000000000000000 1", str(10**30) + " 1"])
    def test_huge_n_exits_2(self, capsys, tmp_path, header):
        f = tmp_path / "huge.txt"
        f.write_text(header + "\n0 1\n")
        code, _, err = run(capsys, "moments", "--graph", str(f), "--classes", "balanced:2")
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ("3 1\n0 " + "1" * 5000 + "\n", "error: line 2: edge (0, 1111"),
            ("1" * 5000 + " 1\n0 1\n", "error: line 1: header values out of range"),
        ],
        ids=["endpoint", "header"],
    )
    def test_number_past_the_int_digit_limit_exits_2(self, capsys, tmp_path, text, message):
        f = tmp_path / "long.txt"
        f.write_text(text)
        code, _, err = run(capsys, "moments", "--graph", str(f), "--classes", "balanced:2")
        assert code == 2
        assert err.startswith(message) and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text, line, message",
        [("3 1\n0 " + "1" * 100_000 + "\n", 2, ""),
         ("1" * 5000 + " 1\n0 1\n", 1, ""),
         ("3 1\n0 +" + "1" * 100_000 + "\n", 2, "edge line must be two integers"),
         ("1 " * 50_000 + "\n0 1\n", 1, "header must be 'n m'"),
         ("3 +" + "1" * 99_997 + "\n0 1\n", 1, "header must be two integers")],
        ids=["endpoint", "header_n", "edge_line", "header_tokens", "header_number"],
    )
    def test_over_long_number_gives_a_short_error(self, capsys, tmp_path, text, line, message):
        f = tmp_path / "long.txt"
        f.write_text(text)
        code, _, err = run(capsys, "moments", "--graph", str(f), "--classes", "balanced:2")
        assert code == 2
        assert err.startswith(f"error: line {line}: {message}") and err.count("\n") == 1
        assert len(err) < 200, err[:300]

    @pytest.mark.parametrize("grid", ["2000,40", "100,100"])
    @pytest.mark.parametrize("command", ["regime", "rdcheck"])
    def test_grid_not_strictly_increasing_exits_2(self, capsys, tmp_path, command, grid):
        argv = {
            "regime": ["regime", "--family", "star", "--classes", "3/4,1/4",
                       "--out", str(tmp_path / "rows.json")],
            "rdcheck": ["rdcheck", "--model", "gnp:p=1/2"],
        }[command]
        code, out, err = run(capsys, *argv, "--grid", grid)
        assert code == 2 and out == ""
        assert err == f"error: grid must be strictly increasing, got ({grid.replace(',', ', ')})\n"

    def test_leading_zeros_past_the_int_digit_limit(self, capsys, tmp_path):
        zeros = "0" * 5000
        long, short = tmp_path / "long.txt", tmp_path / "short.txt"
        long.write_text(f"{zeros}4 3\n0 {zeros}1\n{zeros}1 2\n2 3\n")
        short.write_text("4 3\n0 1\n1 2\n2 3\n")
        want = run(capsys, "moments", "--graph", str(short), "--classes", "2,2")
        assert run(capsys, "moments", "--graph", str(long), "--classes", "2,2") == want
        assert want[0] == 0

    @pytest.mark.parametrize(
        "env, flag", [("abc", ()), ("1", ("--threads", "0")), ("1", ("--threads", "-1"))]
    )
    def test_bad_thread_count_exits_2(self, capsys, tmp_path, monkeypatch, env, flag):
        monkeypatch.setenv("COLORSTATS_THREADS", env)
        with pytest.raises(SystemExit) as exc:
            main(["regime", "--family", "star", "--classes", "balanced:2", "--grid", "8",
                  *flag, "--out", str(tmp_path / "rows.json")])
        assert exc.value.code == 2
        assert "expected a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["classes", "law", "weights"])
    def test_zero_denominator_exits_2(self, capsys, tmp_path, kind):
        weights = tmp_path / "w.txt"
        weights.write_text("1 2\n1/0\n")
        argv = {
            "classes": ["regime", "--family", "star", "--classes", "1/0,1", "--grid", "8",
                        "--out", str(tmp_path / "rows.json")],
            "law": ["rdcheck", "--model", "config:n=50,law=3:1/0"],
            "weights": ["rdcheck", "--model", f"cl:n=3,w={weights}"],
        }[kind]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:") and "'1/0'" in err

    @pytest.mark.parametrize("trials", ["1", "-3"])
    def test_regime_trial_count_refused(self, capsys, tmp_path, trials):
        target = tmp_path / "rows.json"
        code, out, err = run(
            capsys,
            "regime", "--family", "star", "--classes", "3/4,1/4", "--grid", "40",
            "--trials", trials, "--out", str(target),
        )
        assert code == 2 and "at least 2" in err
        assert out == "" and not target.exists()

    @pytest.mark.parametrize("flags", [("--star-check",), ("--mode", "both"), ("--mode", "mc")])
    def test_rdcheck_trial_count_checked_before_output(self, capsys, flags):
        code, out, err = run(
            capsys, "rdcheck", "--model", "starlike", "--grid", "100,200", "--trials", "1", *flags
        )
        assert code == 2 and "at least 2" in err
        assert out == ""

    def test_bad_thread_env_ignored_without_threads_option(self, capsys, monkeypatch):
        monkeypatch.setenv("COLORSTATS_THREADS", "abc")
        code, _, _ = run(capsys, "moments", "--graph", "star:8", "--classes", "5,3")
        assert code == 0


class TestOracleVerify:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "oracle-verify", "--max-n", "4")
        assert code == 0
        assert "all pass" in out
        assert out.count("FAIL") == 0
        assert "PASS" in out


class TestSimulate:
    def test_degenerate_cell(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "--graph", "star:8", "--classes", "4,4",
            "--trials", "50", "--seed", "0",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mean_ok"] and payload["var_ok"]
        assert payload["empirical_var"] == 0.0

    def test_live_cell(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "--graph", "path:4", "--classes", "2,2",
            "--trials", "2000", "--seed", "1",
        )
        assert code == 0
        assert json.loads(out)["trials"] == 2000

    def test_failure_exits_one(self, capsys):
        # two draws landing on the same atom make the empirical variance 0,
        # which cannot match the exact 2/3
        code, _, err = run(
            capsys,
            "simulate", "--graph", "path:4", "--classes", "2,2",
            "--trials", "2", "--seed", "2",
        )
        assert code == 1
        assert "4-SE" in err

    def test_deterministic_output(self, capsys):
        args = (
            "simulate", "--graph", "cycle:12", "--classes", "balanced:3",
            "--trials", "400", "--seed", "7",
        )
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestRegime:
    def test_csv_output(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run(
            capsys,
            "regime", "--family", "star", "--classes", "3/4,1/4",
            "--grid", "40,100", "--format", "csv", "--out", str(target),
        )
        assert code == 0
        assert "regime: anti_concentration" in out
        lines = target.read_text().splitlines()
        assert lines[0].startswith("n,zeta_sq_num,")
        assert len(lines) == 3

    def test_json_matches_library(self, capsys, tmp_path):
        target = tmp_path / "rows.json"
        code, _, _ = run(
            capsys,
            "regime", "--family", "cycle", "--classes", "balanced:2",
            "--grid", "50,100", "--trials", "30", "--seed", "5",
            "--out", str(target),
        )
        assert code == 0
        fam = FamilySpec(graph="cycle", coloring="balanced:2", grid=(50, 100))
        want = run_regime(fam, trials=30, seed=5)
        assert json.loads(target.read_text()) == [record_json(r) for r in want]

    def test_thread_env_does_not_change_bytes(self, capsys, tmp_path, monkeypatch):
        args = (
            "regime", "--family", "gnp:p=8/n", "--classes", "balanced:2",
            "--grid", "40,60", "--trials", "25", "--seed", "3",
        )
        one = tmp_path / "one.json"
        monkeypatch.setenv("COLORSTATS_THREADS", "1")
        assert main([*args, "--out", str(one)]) == 0
        four = tmp_path / "four.json"
        monkeypatch.setenv("COLORSTATS_THREADS", "4")
        assert main([*args, "--out", str(four)]) == 0
        capsys.readouterr()
        assert one.read_bytes() == four.read_bytes()

    def test_threshold_flags(self, capsys, tmp_path):
        target = tmp_path / "rows.json"
        code, out, _ = run(
            capsys,
            "regime", "--family", "star", "--classes", "3/4,1/4",
            "--grid", "40,100", "--imbalance-threshold", "1.0",
            "--out", str(target),
        )
        assert code == 0
        assert "regime: concentration" in out


class TestRdcheck:
    @pytest.mark.parametrize(
        "expr", ["().__class__.__base__.__subclasses__().__len__()", "n**n**n"]
    )
    def test_hostile_expression_exits_2_promptly(self, expr):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "colorstats.cli", "rdcheck",
             "--model", f"gnp:p={expr}", "--grid", "500"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert "cannot evaluate parameter" in proc.stderr

    def test_closed_verdict(self, capsys):
        code, out, _ = run(
            capsys,
            "rdcheck", "--model", "starlike", "--grid", "200,400,800",
        )
        assert code == 0
        assert "verdict: anti_concentrates" in out

    def test_payload_with_star_check(self, capsys, tmp_path):
        target = tmp_path / "payload.json"
        code, out, _ = run(
            capsys,
            "rdcheck", "--model", "config:law=3:1", "--grid", "100,200",
            "--mode", "both", "--trials", "20", "--star-check",
            "--out", str(target),
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["closed_form"]["points"][0]["ratio"] == {"num": 1, "den": 25}
        mc_points = payload["monte_carlo"]["points"]
        assert mc_points[0]["ratio_float"] == pytest.approx(0.04)
        assert mc_points[0]["post_erasure_ratio"] is not None
        assert payload["star_check"]["holds"] is True
        assert "size-variance check" in out
        for mode in ("closed_form", "monte_carlo"):
            assert list(payload[mode]["points"][0]) == [
                "n", "ratio", "ratio_float", "ratio_se", "post_erasure_ratio"
            ]

    def test_default_grid_from_model(self, capsys):
        code, out, _ = run(capsys, "rdcheck", "--model", "gnp:n=60,p=1/4")
        assert code == 0
        assert "n=60" in out
        assert "verdict: inconclusive" in out

    def test_model_without_n_rejected(self, capsys):
        code, _, err = run(capsys, "rdcheck", "--model", "gnp:p=0.1")
        assert code == 2 and "fix n" in err
