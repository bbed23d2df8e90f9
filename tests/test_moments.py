"""Exact moment formulas: frozen values and structural identities."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorstats import graph as graph_mod
from colorstats import moments as moments_mod
from colorstats.coloring import Composition, prob_distinct_colors
from colorstats.graph import (
    complete,
    cycle,
    path,
    star,
    stats,
)
from colorstats.moments import (
    coefficients_ab,
    full_report,
    mean_M_L,
    mean_Mi,
    pz_lower_bound,
    record_json,
    records_csv,
    rho,
    var_common,
    var_Mi,
)

compositions = (
    st.lists(st.integers(1, 8), min_size=2, max_size=6)
    .map(tuple)
    .filter(lambda t: sum(t) >= 4)
    .map(Composition)
)


class TestFrozenValues:
    """Hand-checked cell: the 4-path split into two classes of two."""

    def test_path4_half_half(self):
        g = path(4)
        c = Composition((2, 2))
        st_ = stats(g)
        assert mean_Mi(g.m, g.n, 2) == Fraction(1, 2)
        assert var_Mi(st_, c, 1) == Fraction(1, 4)
        assert var_Mi(st_, c, 2) == Fraction(1, 4)
        assert mean_M_L(g.m, c) == (Fraction(1), Fraction(2))
        assert coefficients_ab(c) == (Fraction(1, 3), Fraction(2, 3))
        assert var_common(st_, c) == Fraction(2, 3)

    def test_rho_values(self):
        assert rho(Composition((3, 1))) == Fraction(3, 64)
        assert rho(Composition((2, 2))) == 0
        assert rho(Composition((3, 3, 3))) == 0

    def test_pz_bound(self):
        assert pz_lower_bound(Fraction(1, 2), Fraction(2, 3), 3) == Fraction(1, 54)
        assert pz_lower_bound(0, Fraction(1, 2), 2) == Fraction(1, 8)


class TestDegenerateCells:
    """Cells where the count is constant, so every variance is exactly zero."""

    def test_complete_graph(self):
        # on a complete graph M_i = C(c_i, 2) no matter the arrangement
        g = complete(5)
        c = Composition((3, 2))
        st_ = stats(g)
        assert var_common(st_, c) == 0
        assert var_Mi(st_, c, 1) == 0
        assert var_Mi(st_, c, 2) == 0

    def test_balanced_star(self):
        # the center meets every edge, so M is fixed by the center's class
        g = star(6)
        c = Composition((3, 3))
        assert var_common(stats(g), c) == 0


class TestCoefficientIdentities:
    """a and b are event probabilities; recompute them from the block
    formulas they summarize."""

    @given(compositions)
    @settings(max_examples=80, deadline=None)
    def test_a_is_wedge_probability(self, c):
        a, _ = coefficients_ab(c)
        want = prob_distinct_colors(c, (2, 1)) + prob_distinct_colors(c, (1, 1, 1))
        assert a == want

    @given(compositions)
    @settings(max_examples=80, deadline=None)
    def test_b_is_disjoint_pair_probability(self, c):
        _, b = coefficients_ab(c)
        want = (
            2 * prob_distinct_colors(c, (2, 2))
            + 4 * prob_distinct_colors(c, (2, 1, 1))
            + prob_distinct_colors(c, (1, 1, 1, 1))
        )
        assert b == want

    @given(compositions)
    @settings(max_examples=100, deadline=None)
    def test_rho_nonnegative_zero_iff_balanced(self, c):
        r = rho(c)
        assert r >= 0
        assert (r == 0) == (len(set(c.classes)) == 1)

    @given(compositions)
    @settings(max_examples=60, deadline=None)
    def test_means_sum_to_edge_count(self, c):
        m = 17
        mean_m, mean_l = mean_M_L(m, c)
        assert mean_m + mean_l == m
        assert mean_m == sum(mean_Mi(m, c.n, ci) for ci in c.classes)


class TestValidation:
    def test_small_n_refused(self):
        c = Composition((2, 1))
        g = path(3)
        with pytest.raises(ValueError, match="oracle"):
            var_Mi(stats(g), c, 1)
        with pytest.raises(ValueError, match="oracle"):
            var_common(stats(g), c)
        with pytest.raises(ValueError, match="oracle"):
            coefficients_ab(c)
        with pytest.raises(ValueError, match="oracle"):
            full_report(g, c)

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="covers"):
            var_common(stats(path(5)), Composition((2, 2)))

    def test_color_out_of_range(self):
        with pytest.raises(ValueError, match="1..2"):
            var_Mi(stats(path(4)), Composition((2, 2)), 3)

    def test_pz_domain(self):
        with pytest.raises(ValueError):
            pz_lower_bound(1, Fraction(1), 3)
        with pytest.raises(ValueError):
            pz_lower_bound(Fraction(-1, 2), Fraction(1), 3)
        with pytest.raises(ValueError):
            pz_lower_bound(Fraction(1, 2), Fraction(1), 0)

    def test_report_needs_edges(self):
        from colorstats.graph import Graph

        empty = Graph.from_edges(4, [])
        with pytest.raises(ValueError, match="edge"):
            full_report(empty, Composition((2, 2)))


class TestFullReport:
    def test_internal_consistency(self):
        g = cycle(8)
        c = Composition((4, 3, 1))
        rep = full_report(g, c)
        assert rep.n == 8 and rep.m == 8
        assert rep.mean_M + rep.mean_L == g.m
        assert sum(rep.per_color_mean) == rep.mean_M
        assert rep.normalized_var * g.m**2 == rep.var_common
        assert rep.rho == rho(c)
        assert rep.zeta_sq == Fraction(1, 2)
        assert len(rep.per_color_var) == 3

    def test_degree_statistics_computed_once(self, monkeypatch):
        calls = []
        real = graph_mod.stats

        def counted(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(graph_mod, "stats", counted)
        monkeypatch.setattr(moments_mod, "stats", counted)
        rep = full_report(cycle(8), Composition((4, 4)))
        assert len(calls) == 1 and rep.zeta_sq == Fraction(1, 2)

    def test_json_round_trip(self):
        rep = full_report(star(6), Composition((4, 2)))
        d = record_json(rep)
        assert Fraction(d["var_common"]["num"], d["var_common"]["den"]) == rep.var_common
        assert d["var_common_float"] == float(rep.var_common)
        assert d["classes"] == [4, 2]
        assert len(d["per_color_mean"]) == 2
        got = Fraction(d["per_color_var"][1]["num"], d["per_color_var"][1]["den"])
        assert got == rep.per_color_var[1]


@dataclass(frozen=True)
class _Point:
    label: str
    exact: Fraction | float | None
    se: float | None


class TestRecordEncoder:
    def test_union_field_keeps_floats_and_nulls(self):
        rows = [_Point("a", Fraction(3, 4), None), _Point("b", 0.5, 0.1), _Point("c", None, None)]
        assert [record_json(r) for r in rows] == [
            {"label": "a", "exact": {"num": 3, "den": 4}, "exact_float": 0.75, "se": None},
            {"label": "b", "exact": 0.5, "exact_float": 0.5, "se": 0.1},
            {"label": "c", "exact": None, "exact_float": None, "se": None},
        ]

    def test_names_keep_declaration_order(self):
        got = record_json(_Point("a", Fraction(1, 3), 0.2), ("se", "exact"))
        assert list(got) == ["exact", "exact_float", "se"]

    def test_csv_splits_rationals_and_blanks_nulls(self):
        rows = [_Point("a", Fraction(-3, 4), None), _Point("c", None, 0.25)]
        assert records_csv(_Point, rows).splitlines() == [
            "label,exact_num,exact_den,exact_float,se",
            "a,-3,4,-0.75,",
            "c,,,,0.25",
        ]
