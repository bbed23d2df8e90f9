"""End-to-end runs of every subcommand through main()."""

import importlib
import json
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import colorstats
from colorstats import coloring, experiments, oracle, randgraph
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


def test_every_traced_name_resolves(monkeypatch):
    # the benchmark's tracer wraps these functions by name; a refactor that
    # drops one must fail here, not only in a benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    unresolved = []
    for mod, attr, *_ in tracer.TARGETS:
        fn = getattr(importlib.import_module(f"colorstats.{mod}"), attr, None)
        if not (isinstance(fn, types.FunctionType) and fn.__module__.startswith("colorstats.")):
            unresolved.append(f"{mod}.{attr}")
    assert unresolved == [] and len(tracer.TARGETS) >= 38


# the standard-library modules `import colorstats` adds after `import numpy`;
# the benchmark's setup_s times this import, so a new one must be deliberate
IMPORTED_STDLIB = set(
    "__future__ _csv _decimal _heapq _json _queue _string concurrent"
    " concurrent.futures concurrent.futures._base concurrent.futures.thread"
    " copy csv dataclasses decimal fractions heapq json json.decoder"
    " json.encoder json.scanner logging queue string traceback".split()
)


def test_import_adds_only_pinned_modules():
    probe = (
        "import sys\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        "import colorstats\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=60, check=True,
    )
    added = proc.stdout.split()
    assert "colorstats.coloring" in added
    extra = [m for m in added if m.partition(".")[0] != "colorstats" and m not in IMPORTED_STDLIB]
    assert extra == []


def test_benchmark_graph_count_pin(monkeypatch, tmp_path, capsys):
    # the benchmark's graphs_per_s divides this fixed count by the wall time;
    # a change that draws more or fewer graphs must fail here
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    drawn = []
    generate, config_sample = randgraph.generate, randgraph.config_sample

    def counted_generate(spec, rng):
        if not isinstance(spec, randgraph.ConfigModel):  # its config_sample call counts
            drawn.append(spec)
        return generate(spec, rng)

    def counted_config_sample(spec, rng):
        drawn.append(spec)
        return config_sample(spec, rng)

    monkeypatch.setattr(randgraph, "generate", counted_generate)
    monkeypatch.setattr(experiments, "generate", counted_generate)
    monkeypatch.setattr(randgraph, "config_sample", counted_config_sample)
    for command in workloads.commands("many_small", 1, str(tmp_path), {}):
        assert main(list(command.argv)) == 0, command.label
    capsys.readouterr()
    assert len(drawn) == workloads.logical_work("many_small")[1] == 1204


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

    @pytest.mark.parametrize("kind", ["classes", "law", "weights", "gnp"])
    def test_zero_denominator_exits_2(self, capsys, tmp_path, kind):
        weights = tmp_path / "w.txt"
        weights.write_text("1 2\n1/0\n")
        argv = {
            "classes": ["regime", "--family", "star", "--classes", "1/0,1", "--grid", "8",
                        "--out", str(tmp_path / "rows.json")],
            "law": ["rdcheck", "--model", "config:n=50,law=3:1/0"],
            "weights": ["rdcheck", "--model", f"cl:n=3,w={weights}"],
            "gnp": ["rdcheck", "--model", "gnp:n=50,p=1/0"],
        }[kind]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err == "error: '1/0' has a zero denominator\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["rdcheck", "--model", "gnp:n=10,p=1/2,n=20"], "parameter 'n' given twice"),
            (["rdcheck", "--model", "gnp:n=10,p=1/2,zz=3"],
             "model 'gnp' has no parameter 'zz'; it takes n, p"),
            (["rdcheck", "--model", "gnp:n=10,p=1/2,=3"], "empty parameter name in '=3'"),
            (["moments", "--graph", "circulant:n=10,d=4,zz=1", "--classes", "5,5"],
             "graph 'circulant' has no parameter 'zz'; it takes n, d"),
        ],
        ids=["repeated", "unknown", "empty", "family"],
    )
    def test_spec_key_refused_exits_2(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["moments", "--graph", "cycle:10", "--classes", "balancedfoo:2"],
             "class sizes are whole numbers like 5,3 (or balanced:s), got 'balancedfoo:2'"),
            (["moments", "--graph", "cycle:10", "--classes", "balanced:x"],
             "balanced rule needs a whole class count, e.g. balanced:2, got 'x'"),
            (["moments", "--graph", "cycle:10", "--classes", "balanced:2.5"],
             "balanced rule needs a whole class count, e.g. balanced:2, got '2.5'"),
            (["moments", "--graph", "cycle:10", "--classes", "balanced:"],
             "balanced rule needs a whole class count, e.g. balanced:2, got ''"),
            (["moments", "--graph", "cycle:10", "--classes", "3/4,1/4"],
             "class sizes are whole numbers like 5,3 (or balanced:s), got '3/4'"),
            (["simulate", "--graph", "cycle:10", "--classes", "5,-5"],
             "class sizes are whole numbers like 5,3 (or balanced:s), got '-5'"),
            (["regime", "--family", "star", "--classes", "balancedfoo:2", "--grid", "8",
              "--out", "unused.json"], "'balancedfoo:2' is not a number"),
        ],
        ids=["kind", "count_word", "count_fraction", "count_empty", "sizes_ratio", "sizes_negative",
             "regime_kind"],
    )
    def test_bad_class_list_exits_2(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"
        assert not (tmp_path / "unused.json").exists()

    @pytest.mark.parametrize(
        "flag", ["--zeta-threshold=nan", "--zeta-threshold=inf", "--zeta-threshold=-0.5",
                 "--imbalance-threshold=-1", "--imbalance-threshold=NaN", "--imbalance-threshold=x"]
    )
    def test_bad_threshold_exits_2(self, capsys, tmp_path, flag):
        target = tmp_path / "rows.json"
        with pytest.raises(SystemExit) as exc:
            main(["regime", "--family", "star", "--classes", "3/4,1/4", "--grid", "40,100",
                  flag, "--out", str(target)])
        assert exc.value.code == 2
        value = flag.partition("=")[2]
        assert f"expected a finite number >= 0, got {value!r}" in capsys.readouterr().err
        assert not target.exists()

    def test_weight_file_n_mismatch_exits_2(self, capsys, tmp_path):
        weights = tmp_path / "w8.txt"
        weights.write_text("1 2 3 4 1 1 1 2\n")
        for argv in (["rdcheck", "--model", f"cl:w={weights}", "--grid", "8,10"],
                     ["rdcheck", "--model", f"cl:n=10,w={weights}"],
                     ["regime", "--family", f"cl:w={weights}", "--classes", "1,1", "--grid", "8,10",
                      "--out", str(tmp_path / "rows.json")]):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert err == f"error: weight file {str(weights)!r} has 8 weights, but n=10\n"

    @pytest.mark.parametrize("model", ["geo:n=10,r=1e400", "gnp:n=10,p=1e-400"])
    def test_overflow_exits_2(self, capsys, model):
        code, out, err = run(capsys, "rdcheck", "--model", model)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_tiny_p_comes_up_edgeless(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "regime", "--family", "gnp:p=1e-300", "--classes", "1,1", "--grid", "8",
            "--out", str(tmp_path / "rows.json"),
        )
        assert code == 2 and "keeps coming up edgeless" in err

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

    @pytest.mark.parametrize("flags", [("--mode", "both"), ("--mode", "mc")])
    def test_rdcheck_trial_count_checked_before_output(self, capsys, flags):
        code, out, err = run(
            capsys, "rdcheck", "--model", "starlike", "--grid", "100,200", "--trials", "1", *flags
        )
        assert code == 2 and "at least 2" in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--graph", "cycle:12", "--classes", "balanced:3", "--trials", "10"],
            ["regime", "--family", "star", "--classes", "3/4,1/4", "--grid", "40", "--trials", "3"],
            ["rdcheck", "--model", "gnp:n=50,p=1/2", "--mode", "both", "--trials", "3"],
        ],
        ids=["simulate", "regime", "rdcheck"],
    )
    def test_negative_seed_exits_2_before_output(self, capsys, tmp_path, argv):
        target = tmp_path / "out.json"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "-2", "--out", str(target)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "expected a whole number >= 0, got '-2'" in err
        assert not target.exists()

    @pytest.mark.parametrize(
        "argv, token",
        [
            (["rdcheck", "--model", "gnp:n=10,p=1/2", "--grid", "8,x"], "x"),
            (["regime", "--family", "star", "--classes", "3/4,1/4", "--grid", "8,x",
              "--out", "unused.json"], "x"),
            (["rdcheck", "--model", "gnp:n=1x,p=1/2"], "1x"),
            (["moments", "--graph", "circulant:n=10,d=x", "--classes", "5,5"], "x"),
            (["rdcheck", "--model", "config:n=10,law=x:1"], "x"),
        ],
        ids=["rdcheck_grid", "regime_grid", "spec_n", "family_key", "law_value"],
    )
    def test_whole_number_refused_exits_2(self, capsys, tmp_path, monkeypatch, argv, token):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {token!r} is not a whole number\n"
        assert not (tmp_path / "unused.json").exists()

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

    @pytest.mark.parametrize("max_n", ["18", "100000"])
    def test_over_budget_order_exits_2_before_any_work(self, capsys, monkeypatch, max_n):
        def refuse(max_n):
            raise AssertionError("the corpus was built past the budget")

        monkeypatch.setattr(oracle, "corpus_graphs", refuse)
        t0 = time.perf_counter()
        code, out, err = run(capsys, "oracle-verify", "--max-n", max_n)
        assert time.perf_counter() - t0 < 2.0
        assert code == 2 and out == ""
        # the first order past the budget is n = 18, whose largest table is c = (6, 6, 6)
        assert err == "error: enumeration would visit 17153136 colorings, budget is 10000000\n"


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

    def test_blocks_under_a_small_byte_limit_give_the_same_bytes(self, capsys, monkeypatch):
        # at 2^16 bytes a block of cycle:1000 holds 65 rows instead of 256
        args = (
            "simulate", "--graph", "cycle:1000", "--classes", "balanced:2",
            "--trials", "500", "--seed", "1",
        )
        want = run(capsys, *args)
        monkeypatch.setattr(coloring, "MAX_SAMPLE_BYTES", 1 << 16)
        assert run(capsys, *args) == want
        assert want[0] == 0

    @pytest.mark.parametrize("command", ["simulate", "regime"])
    def test_trials_past_byte_limit_exits_2(self, capsys, tmp_path, command):
        # 10^14 trials of 16 bytes each, refused before any coloring is drawn
        argv = {
            "simulate": ["simulate", "--graph", "cycle:1000", "--classes", "balanced:2"],
            "regime": ["regime", "--family", "star", "--classes", "3/4,1/4",
                       "--grid", "40,80", "--out", str(tmp_path / "rows.json")],
        }[command]
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv, "--trials", "100000000000000", "--seed", "1")
        assert time.perf_counter() - t0 < 1
        assert code == 2 and out == ""
        assert err == (
            "error: 100000000000000 trials need 1600000000000000 bytes of "
            "per-trial results, past the 1073741824-byte limit\n"
        )

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
        assert "regime: inconclusive" in out


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

    def test_star_check_on_one_point_grid(self, capsys, tmp_path):
        target = tmp_path / "payload.json"
        code, out, _ = run(
            capsys, "rdcheck", "--model", "gnp:n=100,p=1/2", "--star-check", "--out", str(target)
        )
        assert code == 0
        assert "size-variance check: exponent=n/a holds=False" in out
        check = json.loads(target.read_text())["star_check"]
        assert len(check["values"]) == 1
        assert check["exponent"] is None and check["holds"] is False

    def test_star_check_refusal_comes_before_any_output(self, capsys, tmp_path):
        target = tmp_path / "payload.json"
        code, out, err = run(
            capsys, "rdcheck", "--model", "gnp:n=10,p=0", "--star-check", "--out", str(target)
        )
        assert code == 2
        assert out == ""
        assert "has no edges" in err
        assert not target.exists()

    def test_weight_file_fixes_n(self, capsys, tmp_path):
        weights = tmp_path / "w8.txt"
        weights.write_text("1 2 3 4 1 1 1 2\n")
        code, out, _ = run(capsys, "rdcheck", "--model", f"cl:w={weights}")
        assert code == 0
        assert "n=8 " in out and "verdict: inconclusive" in out
        code, _, _ = run(
            capsys, "regime", "--family", f"cl:w={weights}", "--classes", "1,1", "--grid", "8",
            "--out", str(tmp_path / "rows.json"),
        )
        assert code == 0

    def test_model_without_n_rejected(self, capsys):
        code, _, err = run(capsys, "rdcheck", "--model", "gnp:p=0.1")
        assert code == 2 and "fix n" in err
