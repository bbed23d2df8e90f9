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
    GraphStats,
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
from colorstats.oracle import compositions_of, corpus_graphs
from colorstats.symfun import elementary_symmetric
from colorstats.symfun import falling_factorial as ff

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


def reference_edge_pair_var(gs, p1, p2, p22):
    """_edge_pair_var as Fraction arithmetic, term by term."""
    m = gs.m
    return (p2 - p22) * gs.sigma2 + (p22 - p1 * p1) * m * m + (p1 - 2 * p2 + p22) * m


def reference_coefficients_ab(c):
    """(a, b) from e_2 and e_3 of the class sizes, as closed forms."""
    n = c.n
    e2, e3 = (elementary_symmetric(c.classes, k) for k in (2, 3))
    a = Fraction(e2, ff(n, 2)) + Fraction(3 * e3, ff(n, 3))
    b = Fraction(4, ff(n, 4)) * (e2 * e2 - (n - 1) * e2 - 3 * e3)
    return a, b


class TestEdgePairSum:
    @given(
        st.integers(0, 10**9),
        st.integers(0, 10**12),
        st.lists(st.fractions(0, 1, max_denominator=10**9), min_size=3, max_size=3),
    )
    def test_matches_fraction_arithmetic(self, m, sigma2, ps):
        gs = GraphStats(n=4, m=m, sigma2=sigma2)
        got = moments_mod._edge_pair_var(gs, *ps)
        assert type(got) is Fraction
        assert got == reference_edge_pair_var(gs, *ps)

    def test_variances_match_on_the_corpus(self):
        graphs = corpus_graphs(max_n=9)
        for n in range(4, 10):
            for s in range(2, 6):
                for parts in compositions_of(n, s):
                    c = Composition(parts)
                    e2 = elementary_symmetric(parts, 2)
                    p_bi = Fraction(2 * e2, ff(n, 2))  # one edge bichromatic
                    a, b = reference_coefficients_ab(c)
                    assert coefficients_ab(c) == (a, b)
                    for _, g in graphs:
                        if g.n != n:
                            continue
                        gs = stats(g)
                        assert mean_M_L(g.m, c) == (g.m - g.m * p_bi, g.m * p_bi)
                        assert var_common(gs, c) == reference_edge_pair_var(gs, p_bi, a, b)
                        for i, ci in enumerate(parts, start=1):
                            ps = (Fraction(ff(ci, k), ff(n, k)) for k in (2, 3, 4))
                            assert var_Mi(gs, c, i) == reference_edge_pair_var(gs, *ps)


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

    def test_class_size_out_of_range(self):
        assert mean_Mi(3, 4, 4) == 3
        assert mean_Mi(3, 4, 0) == 0
        for ci in (-1, 5, 7):
            with pytest.raises(ValueError, match="0 <= c_i <= n, got n=4"):
                mean_Mi(3, 4, ci)

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

    def test_csv_splits_rationals_and_blanks_nulls(self):
        rows = [_Point("a", Fraction(-3, 4), None), _Point("c", None, 0.25)]
        assert records_csv(_Point, rows).splitlines() == [
            "label,exact_num,exact_den,exact_float,se",
            "a,-3,4,-0.75,",
            "c,,,,0.25",
        ]
