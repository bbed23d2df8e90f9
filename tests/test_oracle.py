"""The exhaustive-enumeration ground truth and its verification sweep."""

import importlib
import itertools
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from colorstats import oracle
from colorstats.coloring import Composition, prob_distinct_colors
from colorstats.graph import Graph, path, stats
from colorstats.moments import mean_M_L, var_common
from colorstats.oracle import (
    BudgetExceededError,
    arrangements,
    compositions_of,
    corpus_graphs,
    enumerate_colorings,
    event_frequency,
    exact_moments,
    run_verification,
    total_colorings,
    verify_events,
    verify_formulas,
)
from test_coloring import count, multiset_permutations


class TestMultisetPermutations:
    def test_lexicographic_and_distinct(self):
        got = list(multiset_permutations([2, 1, 1, 3]))
        assert got == sorted(got)
        assert len(got) == len(set(got)) == 12

    def test_matches_filtered_permutations(self):
        word = [1, 1, 2, 3]
        want = sorted(set(itertools.permutations(word)))
        assert list(multiset_permutations(word)) == want

    def test_single_arrangement(self):
        assert list(multiset_permutations([4])) == [(4,)]
        assert list(multiset_permutations([1, 1, 1])) == [(1, 1, 1)]


class TestTotals:
    def test_multinomial(self):
        assert total_colorings(Composition((2, 2))) == 6
        assert total_colorings(Composition((3, 2, 1))) == 60

    def test_budget_guard(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a table was allocated past the budget")

        monkeypatch.setattr(np, "empty", refuse)
        c = Composition((5, 5))
        with pytest.raises(BudgetExceededError, match="252"):
            arrangements(c, budget=100)
        with pytest.raises(BudgetExceededError):
            arrangements(Composition((2, 2)), budget=2)
        # 10^55 rows could not be allocated: the refusal comes first
        monkeypatch.undo()
        with pytest.raises(BudgetExceededError):
            arrangements(Composition((40, 40, 40)))

    def test_far_over_budget_refused_before_the_count(self):
        # the exact multinomial of n = 10^6 takes minutes; it is refused from
        # its logarithm, and a small total of a large order is counted at once
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceededError, match=r"about 10\^\d+ colorings, budget is 10000000"):
            arrangements(Composition.balanced(10**6, 3))
        assert total_colorings(Composition((10**6 - 1, 1))) == 10**6
        assert time.perf_counter() - t0 < 1.0

    def test_size_mismatch(self):
        c = Composition((2, 1))
        with pytest.raises(ValueError, match="covers"):
            enumerate_colorings(path(4), c, arrangements(c))


def _word(c):
    return [color for color, ci in enumerate(c.classes, start=1) for _ in range(ci)]


def reference_table(c):
    """c's table from the successor generator, rows in the order it yields them."""
    rows = multiset_permutations(_word(c))
    flat = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.uint8, count=total_colorings(c) * c.n)
    assert next(rows, None) is None, "enumeration count does not match multinomial"
    return flat.reshape(-1, c.n)


@st.composite
def graph_and_composition(draw):
    n = draw(st.integers(2, 7))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    s = draw(st.integers(2, min(3, n)))
    parts = draw(st.sampled_from(list(compositions_of(n, s))))
    return Graph.from_edges(n, edges), Composition(parts)


class TestArrangements:
    def test_rows_are_the_multiset_permutations(self):
        for n in range(2, 12):
            for s in range(2, min(n, 4) + 1):
                for parts in compositions_of(n, s):
                    c = Composition(parts)
                    table = arrangements(c)
                    assert table.dtype == np.uint8
                    assert table.shape == (total_colorings(c), n)
                    assert np.array_equal(table, reference_table(c))
                    # each row is lexicographically above the one before it
                    step = np.diff(table.astype(np.int8), axis=0)
                    assert (step[np.arange(len(step)), (step != 0).argmax(axis=1)] > 0).all()

    @given(graph_and_composition())
    def test_distribution_matches_scalar_count(self, case):
        g, c = case
        want: dict[tuple[int, ...], int] = {}
        for colors in multiset_permutations(_word(c)):
            key = count(g, colors, c.s).per_color
            want[key] = want.get(key, 0) + 1
        dist = enumerate_colorings(g, c, arrangements(c))
        assert dist.support == want
        assert dist.total == sum(want.values())


class TestExactDistribution:
    def test_path3_distribution(self):
        c = Composition((2, 1))
        dist = enumerate_colorings(path(3), c, arrangements(c))
        assert dist.total == 3
        assert dist.support == {(1, 0): 2, (0, 0): 1}

    def test_path3_moments(self):
        c = Composition((2, 1))
        dist = enumerate_colorings(path(3), c, arrangements(c))
        om = exact_moments(dist, m=2)
        assert om.mean_Mi == (Fraction(2, 3), Fraction(0))
        assert om.var_Mi == (Fraction(2, 9), Fraction(0))
        assert om.mean_M == Fraction(2, 3)
        assert om.var_M == Fraction(2, 9)
        assert om.mean_L == Fraction(4, 3)
        assert om.var_L == om.var_M

    def test_agrees_with_closed_forms(self):
        g = path(4)
        c = Composition((2, 2))
        om = exact_moments(enumerate_colorings(g, c, arrangements(c)), g.m)
        mean_m, mean_l = mean_M_L(g.m, c)
        assert om.mean_M == mean_m and om.mean_L == mean_l
        assert om.var_M == var_common(stats(g), c) == Fraction(2, 3)

    def test_covariance_sums_to_total_variance(self):
        g = path(5)
        c = Composition((2, 2, 1))
        om = exact_moments(enumerate_colorings(g, c, arrangements(c)), g.m)
        s = len(om.mean_Mi)
        total = sum(
            (om.cov_Mi[i][j] for i in range(s) for j in range(s)),
            start=Fraction(0),
        )
        assert total == om.var_M


class TestEventFrequency:
    def test_matches_formula(self):
        c = Composition((3, 2))
        got = event_frequency(c, arrangements(c), (2, 1))
        assert got == prob_distinct_colors(c, (2, 1))

    def test_block_choice_is_irrelevant(self):
        c = Composition((2, 2, 1))
        table = arrangements(c)
        # permuted columns put vertices (4, 1) and (2,), or (0, 3), in the blocks
        default = event_frequency(c, table, (2, 1))
        scattered = event_frequency(c, table[:, [4, 1, 2, 0, 3]], (2, 1))
        assert default == scattered
        fixed_default = event_frequency(c, table, (2,), iota=(2,))
        fixed_scattered = event_frequency(c, table[:, [0, 3, 1, 2, 4]], (2,), iota=(2,))
        assert fixed_default == fixed_scattered

    def test_set_validation(self):
        c = Composition((2, 2, 1))
        with pytest.raises(ValueError, match="one color per block"):
            event_frequency(c, arrangements(c), (2, 1), iota=(1,))
        with pytest.raises(ValueError, match="do not fit"):
            event_frequency(c, arrangements(c), (5, 1))


class TestCompositionsOf:
    def test_enumeration(self):
        assert list(compositions_of(4, 2)) == [(1, 3), (2, 2), (3, 1)]

    def test_count_and_validity(self):
        for n, s in [(6, 2), (6, 3), (8, 3)]:
            parts = list(compositions_of(n, s))
            assert len(parts) == math.comb(n - 1, s - 1)
            assert len(set(parts)) == len(parts)
            assert all(sum(p) == n and min(p) >= 1 for p in parts)


class TestCorpus:
    def test_deterministic_and_well_formed(self):
        a = corpus_graphs(max_n=6)
        b = corpus_graphs(max_n=6)
        assert [lbl for lbl, _ in a] == [lbl for lbl, _ in b]
        assert all(ga == gb for (_, ga), (_, gb) in zip(a, b))
        labels = [lbl for lbl, _ in a]
        assert len(set(labels)) == len(labels)
        for _, g in a:
            assert 4 <= g.n <= 6
            assert g.m >= 1
        assert sum(lbl.startswith("random:") for lbl in labels) == 20

    def test_too_small_refused(self):
        with pytest.raises(ValueError):
            corpus_graphs(max_n=3)


class TestVerification:
    def test_formula_rows_all_pass(self):
        g, c = path(5), Composition((2, 2, 1))
        rows = verify_formulas(g, stats(g), c, arrangements(c))
        names = [name for name, _ in rows]
        assert "var_common" in names and "mean_M" in names
        assert all(ok for _, ok in rows)

    def test_event_rows_all_pass(self):
        c = Composition((3, 2))
        rows = verify_events(c, arrangements(c))
        assert len(rows) >= 6
        assert all(ok for _, ok in rows)

    def test_sweep_small(self):
        rows = run_verification(max_n=5)
        assert len(rows) > 200
        bad = [r for r in rows if not r[3]]
        assert bad == []

    def test_benchmark_instance_pin(self, monkeypatch):
        # the benchmark's oracle_sweep gates on this count; a refactor that
        # changes the sweep must fail here, not only in a benchmark run
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        workloads = importlib.import_module("workloads")
        rows = run_verification(max_n=workloads.ORACLE_MAX_N)
        assert len(rows) == workloads.ORACLE_INSTANCES == 8221

    def test_one_table_per_composition(self, monkeypatch):
        built = []

        def counted(c, budget=oracle.DEFAULT_BUDGET):
            built.append(c.classes)
            return arrangements(c, budget)

        monkeypatch.setattr(oracle, "arrangements", counted)
        run_verification(max_n=6)
        want = [
            parts for n in range(4, 7) for s in (2, 3) for parts in compositions_of(n, s)
        ]
        assert sorted(built) == sorted(want)
        assert len(set(built)) == len(built)

    def test_stats_once_per_graph(self, monkeypatch):
        calls = []

        def counted(g):
            calls.append(g)
            return stats(g)

        monkeypatch.setattr(oracle, "stats", counted)
        run_verification(max_n=5)
        assert len(calls) == len(corpus_graphs(max_n=5))
