"""Regime sweeps, moment cross-checks, and deterministic emission."""

import io
import json
import re
import tracemalloc
from fractions import Fraction

import pytest

from colorstats import experiments, randgraph
from colorstats.coloring import Composition
from colorstats.experiments import (
    FamilySpec,
    emit,
    parse_coloring_rule,
    run_comparison,
    run_regime,
)
from colorstats.graph import cycle, path, regular_circulant, star
from colorstats.moments import full_report, record_json
from colorstats.randgraph import parse_model_template

STAR_SKEWED = FamilySpec(graph="star", coloring="3/4,1/4", grid=(40, 100, 250))
CYCLE_BALANCED = FamilySpec(graph="cycle", coloring="balanced:2", grid=(50, 100, 200))
RATIONAL_FIELDS = (
    "zeta_sq", "rho", "imbalance_sq", "normalized_var", "rho_zeta_product", "pz_bound"
)


class TestParsing:
    def test_coloring_rules(self):
        rule = parse_coloring_rule("balanced:3")
        assert rule(7) == Composition((3, 2, 2))
        rule = parse_coloring_rule("3/4,1/4")
        assert rule(50) == Composition((38, 12))
        with pytest.raises(ValueError, match="class count"):
            parse_coloring_rule("balanced")
        with pytest.raises(ValueError):
            parse_coloring_rule("3/4,oops")

    @pytest.mark.parametrize(
        "text, token",
        [("balanced:x", "'x'"), ("balanced:2.5", "'2.5'"), ("balanced:", "''"), ("balanced", "''")],
    )
    def test_balanced_class_count_must_be_whole(self, text, token):
        with pytest.raises(ValueError, match=re.escape(f"whole class count, e.g. balanced:2, got {token}")):
            parse_coloring_rule(text)

    def test_balanced_kind_matched_exactly(self):
        assert parse_coloring_rule(" Balanced : 2 ")(5) == Composition((3, 2))
        with pytest.raises(ValueError, match="balancedfoo:2"):
            parse_coloring_rule("balancedfoo:2")

    def test_family_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            FamilySpec(graph="star", coloring="balanced:2", grid=())
        with pytest.raises(ValueError, match=">= 4"):
            FamilySpec(graph="star", coloring="balanced:2", grid=(3,))

    @pytest.mark.parametrize("grid", [(2000, 40), (40, 100, 100)])
    def test_grid_must_strictly_increase(self, grid):
        # the classifier reads the last entry as the largest n
        with pytest.raises(ValueError, match=re.escape(f"strictly increasing, got {grid}")):
            FamilySpec(graph="star", coloring="3/4,1/4", grid=grid)

    def test_family_kinds(self):
        assert FamilySpec(graph="gnp:p=0.1", coloring="balanced:2", grid=(10,)).is_random
        assert not STAR_SKEWED.is_random
        fam = FamilySpec(graph="circulant:d=4", coloring="balanced:2", grid=(10,))
        rows = run_regime(fam)
        assert rows[0].zeta_sq == full_report(regular_circulant(10, 4), Composition((5, 5))).zeta_sq
        with pytest.raises(ValueError, match="unknown graph kind 'wheel'"):
            run_regime(FamilySpec(graph="wheel", coloring="balanced:2", grid=(8,)))

    def test_family_model_and_coloring(self):
        fam = FamilySpec(graph="gnp:p=4/n", coloring="balanced:2", grid=(100,))
        assert parse_model_template(fam.graph)(100).p == pytest.approx(0.04)
        assert parse_coloring_rule(fam.coloring)(100) == Composition((50, 50))

    def test_specs_parsed_once_per_sweep(self, monkeypatch):
        calls = []

        def counted(module, name):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda text: calls.append(name) or real(text))

        counted(experiments, "parse_coloring_rule")
        counted(randgraph, "_parse_law")
        run_regime(FamilySpec(graph="config:law=3:1", coloring="3/4,1/4", grid=(40, 80, 160)))
        assert sorted(calls) == ["_parse_law", "parse_coloring_rule"]


class TestComparison:
    def test_path4_cell_agrees(self):
        rec = run_comparison(path(4), Composition((2, 2)), trials=4000, seed=1)
        assert rec.mean_ok and rec.var_ok
        assert rec.exact_mean == 1 and rec.exact_var == Fraction(2, 3)
        assert abs(rec.empirical_mean - 1.0) <= 4 * rec.se_mean

    def test_degenerate_cell_is_exact(self):
        # balanced star: M is the same for every arrangement
        rec = run_comparison(star(8), Composition((4, 4)), trials=500, seed=2)
        assert rec.se_mean == 0.0 and rec.se_var == 0.0
        assert rec.empirical_mean == 3.0 and rec.empirical_var == 0.0
        assert rec.mean_ok and rec.var_ok

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            run_comparison(path(4), Composition((2, 2)), trials=1, seed=0)

    def test_memory_does_not_grow_with_trials(self):
        # the sampled law keeps one entry per value of M, none per trial
        for trials in (10**6, 4 * 10**6):
            tracemalloc.start()
            try:
                rec = run_comparison(cycle(12), Composition.balanced(12, 3), trials=trials, seed=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rec.mean_ok and rec.var_ok
            assert peak < 2 << 20, (trials, peak)

    def test_json_fields(self):
        rec = run_comparison(path(5), Composition((3, 2)), trials=100, seed=3)
        d = record_json(rec)
        assert d["exact_mean"] == {"num": 8, "den": 5}
        assert d["trials"] == 100
        assert isinstance(d["var_ok"], bool)


class TestRegime:
    def test_skewed_star_holds_up(self):
        rows = run_regime(STAR_SKEWED)
        assert [r.predicted_regime for r in rows] == ["anti_concentration"] * 3
        for row in rows:
            assert row.empirical_mean is None and row.empirical_var is None
            assert row.rho_zeta_product == row.rho * row.zeta_sq
            assert row.pz_bound > 0
        # star dispersion tends to 1 from above, well over the flatness bar
        assert float(rows[-1].zeta_sq) > 0.9

    def test_balanced_cycle_concentrates(self):
        rows = run_regime(CYCLE_BALANCED)
        assert rows[0].zeta_sq == Fraction(4, 50)
        assert [r.predicted_regime for r in rows] == ["concentration"] * 3

    def test_balanced_star_lacks_persistent_imbalance(self):
        fam = FamilySpec(graph="star", coloring="balanced:2", grid=(40, 80))
        rows = run_regime(fam)
        assert all(r.imbalance_sq == 0 for r in rows)
        assert rows[0].predicted_regime == "concentration"

    def test_thresholds_can_be_overridden(self):
        # an imbalance bar above the family's imbalance (0.125) leaves it neither
        # persisting above the bar nor vanishing
        strict = run_regime(STAR_SKEWED, imbalance_threshold=1.0)
        assert strict[0].predicted_regime == "inconclusive"
        lax = run_regime(CYCLE_BALANCED, zeta_threshold=1e-9)
        # still concentration: the dispersion trend is decreasing
        assert lax[0].predicted_regime == "concentration"

    @pytest.mark.parametrize(
        "graph, coloring, grid, options, regime",
        [
            # the goldens, criteria 04 and 05, and the benchmark's regime inputs
            ("star", "3/4,1/4", (40, 100, 250), {}, "anti_concentration"),
            ("circulant:d=4", "balanced:2", (10, 20), {}, "concentration"),
            ("star", "3/4,1/4", (40, 100, 250, 630, 1600, 4000), {}, "anti_concentration"),
            ("cycle", "3/4,1/4", (50, 100, 200, 400, 800, 1600, 3200), {}, "concentration"),
            ("gnp:p=4/n", "balanced:2", (250, 500, 1000, 2000), {"seed": 1}, "concentration"),
            ("gnp:p=4/n", "balanced:2", (250, 500, 1000, 2000), {"seed": 7}, "concentration"),
            # the other cases of this class
            ("cycle", "balanced:2", (50, 100, 200), {}, "concentration"),
            ("star", "balanced:2", (40, 80), {}, "concentration"),
            ("cycle", "balanced:2", (50, 100, 200), {"zeta_threshold": 1e-9}, "concentration"),
            ("star", "3/4,1/4", (40, 100, 250), {"imbalance_threshold": 1.0}, "inconclusive"),
            ("gnp:p=8/n", "balanced:2", (40, 80), {"trials": 30, "seed": 4}, "concentration"),
            ("gnp:p=8/n", "balanced:2", (40, 60, 80), {"trials": 25, "seed": 6}, "concentration"),
            # one point shows no trend
            ("star", "3/4,1/4", (40,), {}, "inconclusive"),
            ("circulant:d=4", "balanced:2", (10,), {}, "inconclusive"),
        ],
    )
    def test_regime_table(self, graph, coloring, grid, options, regime):
        rows = run_regime(FamilySpec(graph, coloring, grid), **options)
        assert [r.predicted_regime for r in rows] == [regime] * len(grid)

    def test_empirical_columns(self):
        rows = run_regime(STAR_SKEWED, trials=200, seed=11)
        for row in rows:
            assert row.empirical_mean is not None
            assert row.empirical_var is not None and row.empirical_var >= 0

    def test_random_family(self):
        fam = FamilySpec(graph="gnp:p=8/n", coloring="balanced:2", grid=(40, 80))
        rows = run_regime(fam, trials=30, seed=4)
        assert len(rows) == 2
        assert all(r.empirical_mean is not None for r in rows)
        assert rows[0].predicted_regime == "concentration"

    def test_thread_count_does_not_change_output(self):
        fam = FamilySpec(graph="gnp:p=8/n", coloring="balanced:2", grid=(40, 60, 80))
        one = run_regime(fam, trials=25, seed=6, threads=1)
        four = run_regime(fam, trials=25, seed=6, threads=4)
        assert one == four
        det = run_regime(STAR_SKEWED, trials=100, seed=6, threads=3)
        assert det == run_regime(STAR_SKEWED, trials=100, seed=6, threads=1)

    def test_edgeless_model_reported(self):
        fam = FamilySpec(graph="gnp:p=0", coloring="balanced:2", grid=(8,))
        with pytest.raises(ValueError, match="edgeless"):
            run_regime(fam)


class TestEmission:
    def test_json_round_trip(self):
        rows = run_regime(STAR_SKEWED, trials=50, seed=9)
        buf = io.StringIO()
        emit(rows, "json", buf)
        back = json.loads(buf.getvalue())
        assert back == [record_json(r) for r in rows]
        for obj, row in zip(back, rows):
            for name in RATIONAL_FIELDS:
                assert Fraction(obj[name]["num"], obj[name]["den"]) == getattr(row, name)
            assert obj["empirical_mean"] == row.empirical_mean
            assert obj["empirical_var"] == row.empirical_var

    def test_json_round_trip_without_empirical(self):
        rows = run_regime(CYCLE_BALANCED)
        buf = io.StringIO()
        emit(rows, "json", buf)
        payload = json.loads(buf.getvalue())
        assert payload[0]["empirical_mean"] is None
        assert payload == [record_json(r) for r in rows]

    def test_json_structure(self):
        row = run_regime(CYCLE_BALANCED)[0]
        obj = record_json(row)
        assert obj["zeta_sq"] == {"num": 2, "den": 25}
        assert obj["zeta_sq_float"] == 0.08
        assert list(obj) == ["n"] + [
            key for name in RATIONAL_FIELDS for key in (name, name + "_float")
        ] + ["empirical_mean", "empirical_var", "predicted_regime"]

    def test_csv_layout(self):
        rows = run_regime(CYCLE_BALANCED)
        buf = io.StringIO()
        emit(rows, "csv", buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == (
            "n,zeta_sq_num,zeta_sq_den,zeta_sq_float,rho_num,rho_den,rho_float,"
            "imbalance_sq_num,imbalance_sq_den,imbalance_sq_float,"
            "normalized_var_num,normalized_var_den,normalized_var_float,"
            "rho_zeta_product_num,rho_zeta_product_den,rho_zeta_product_float,"
            "pz_bound_num,pz_bound_den,pz_bound_float,"
            "empirical_mean,empirical_var,predicted_regime"
        )
        assert len(lines) == 1 + len(rows)
        first = lines[1].split(",")
        assert first[0] == "50"
        assert first[-1] == "concentration"
        # empty empirical columns stay empty, not "None"
        assert first[-3] == first[-2] == ""

    def test_deterministic_bytes(self):
        rows = run_regime(STAR_SKEWED, trials=40, seed=13)
        a, b = io.StringIO(), io.StringIO()
        emit(rows, "json", a)
        emit(rows, "csv", b)
        a2, b2 = io.StringIO(), io.StringIO()
        emit(rows, "json", a2)
        emit(rows, "csv", b2)
        assert a.getvalue() == a2.getvalue()
        assert b.getvalue() == b2.getvalue()

    def test_file_target(self, tmp_path):
        rows = run_regime(CYCLE_BALANCED)
        target = tmp_path / "rows.json"
        emit(rows, "json", target)
        assert json.loads(target.read_text()) == [record_json(r) for r in rows]

    def test_bad_format(self):
        with pytest.raises(ValueError, match="format"):
            emit([], "yaml", io.StringIO())
