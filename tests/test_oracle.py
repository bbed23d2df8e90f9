"""The exhaustive-enumeration ground truth and its verification sweep."""

import importlib
import itertools
import math
import time
import tracemalloc
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from colorstats import oracle
from colorstats.coloring import BATCH_CELLS, Composition, prob_distinct_colors, prob_fixed_colors
from colorstats.graph import Graph, complete, path, stats
from colorstats.moments import mean_M_L, var_common
from colorstats.oracle import (
    BudgetExceededError,
    ExactDistribution,
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

    def test_table_bytes_budgeted(self, monkeypatch):
        # 10^5 rows pass the row budget, but the table would be 10^5 x 10^5
        # cells (9.3 GiB); it is refused before anything is allocated
        def refuse(*args, **kwargs):
            raise AssertionError("a table was allocated past the budget")

        monkeypatch.setattr(np, "empty", refuse)
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceededError, match=r"table of 100000 x 100000 cells exceeds 32 x budget 10000000"):
            arrangements(Composition((99999, 1)))
        assert time.perf_counter() - t0 < 0.1

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


def reference_enumerate_colorings(g, c, table):
    """enumerate_colorings as one boolean scatter-add per edge, tabulated by
    the same lexsort."""
    per_color = np.zeros((len(table), c.s), dtype=np.min_scalar_type(g.m))
    for u, v in zip(g.u.tolist(), g.v.tolist()):
        cu = table[:, u]
        same = cu == table[:, v]
        per_color[same, cu[same] - 1] += 1
    rows = per_color[np.lexsort(per_color.T[::-1])]
    starts = np.flatnonzero(np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)])
    freq = np.diff(np.r_[starts, len(rows)])
    support = dict(zip(map(tuple, rows[starts].tolist()), freq.tolist()))
    return ExactDistribution(support=support, total=len(table))


def reference_exact_moments(dist, m):
    """exact_moments by a loop over the support and Fraction arithmetic on
    each first and second moment."""
    s = len(next(iter(dist.support)))
    total = dist.total
    s1 = [0] * s
    s2 = [[0] * s for _ in range(s)]
    for outcome, cnt in dist.support.items():
        for i in range(s):
            s1[i] += outcome[i] * cnt
            for j in range(s):
                s2[i][j] += outcome[i] * outcome[j] * cnt
    e1 = [Fraction(x, total) for x in s1]
    cov = tuple(
        tuple(Fraction(s2[i][j], total) - e1[i] * e1[j] for j in range(s))
        for i in range(s)
    )
    mean_m = sum(e1, start=Fraction(0))
    var_m = sum((cov[i][j] for i in range(s) for j in range(s)), start=Fraction(0))
    return oracle.OracleMoments(
        mean_Mi=tuple(e1),
        var_Mi=tuple(cov[i][i] for i in range(s)),
        cov_Mi=cov,
        mean_M=mean_m,
        var_M=var_m,
        mean_L=m - mean_m,
        var_L=var_m,
    )


def _reference_cells():
    """Every corpus cell of the max-9 sweep, 4- and 5-class compositions on
    the corpus graphs of orders 5..8, and edgeless graphs."""
    graphs = corpus_graphs(max_n=9)
    for n in range(4, 10):
        for s in (2, 3, 4, 5):
            if s > 3 and not 5 <= n <= 8:
                continue
            for parts in compositions_of(n, s):
                c = Composition(parts)
                table = arrangements(c)
                for _, g in graphs:
                    if g.n == n:
                        yield g, c, table
                yield Graph.from_edges(n, []), c, table


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


class TestAgainstReferences:
    def test_laws_and_moments_match(self):
        cells = 0
        for g, c, table in _reference_cells():
            dist = enumerate_colorings(g, c, table)
            want = reference_enumerate_colorings(g, c, table)
            # the same outcomes and counts, in the same key order
            assert list(dist.support.items()) == list(want.support.items())
            assert dist.total == want.total
            got_m, want_m = exact_moments(dist, g.m), reference_exact_moments(want, g.m)
            for f in fields(got_m):
                got, ref = getattr(got_m, f.name), getattr(want_m, f.name)
                assert got == ref and type(got) is type(ref), (g, c, f.name)
            for row in got_m.cov_Mi:
                assert all(type(x) is Fraction for x in row)
            cells += 1
        assert cells > 1500


class TestTableCheck:
    def test_other_composition_refused(self):
        # a (3, 1) table read as (2, 2): the law had total 4 and the event 1/2
        c, wrong = Composition((2, 2)), arrangements(Composition((3, 1)))
        with pytest.raises(ValueError, match="not an arrangement table of classes"):
            enumerate_colorings(path(4), c, wrong)
        with pytest.raises(ValueError, match="not an arrangement table of classes"):
            event_frequency(c, wrong, (2,))

    def test_same_shape_other_counts_refused(self):
        c, wrong = Composition((2, 1, 1)), arrangements(Composition((1, 2, 1)))
        assert wrong.shape == (total_colorings(c), c.n)
        with pytest.raises(ValueError, match="not an arrangement table"):
            enumerate_colorings(path(4), c, wrong)
        with pytest.raises(ValueError, match="not an arrangement table"):
            event_frequency(c, wrong, (1, 1), iota=(2, 3))

    def test_permuted_columns_accepted(self):
        # the rows of a column-permuted table are every coloring once more
        c = Composition((3, 2, 2))
        table = arrangements(c)
        g = path(7)
        got = enumerate_colorings(g, c, table[:, [6, 2, 0, 5, 1, 3, 4]])
        want = enumerate_colorings(g, c, table)
        assert list(got.support.items()) == list(want.support.items())


class TestExactDistribution:
    def test_path3_distribution(self):
        c = Composition((2, 1))
        dist = enumerate_colorings(path(3), c, arrangements(c))
        assert dist.total == 3
        assert dist.support == {(1, 0): 2, (0, 0): 1}

    def test_memory_is_the_counts_and_a_few_chunks(self):
        # 252,252 rows x 91 edges: a gather of every (row, edge) cell at once
        # would hold about 23 MB per array
        c = Composition((5, 5, 4))
        table = arrangements(c)
        g = complete(14)
        tracemalloc.start()
        try:
            dist = enumerate_colorings(g, c, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dist.total == len(table)
        rows = len(table)
        # the uint8 counts and, for the tabulation, a sorted copy of them and
        # the lexsort permutation; each chunk holds at most five arrays of
        # BATCH_CELLS bytes (both gathers, the equality, the color mask and
        # their conjunction)
        assert peak < 2 * rows * c.s + 8 * rows + 5 * BATCH_CELLS + (1 << 20)

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

    @pytest.mark.parametrize(
        "sizes, iota", [((2,), (7,)), ((2,), (0,)), ((1, 1), (2, 2)), ((2, 1), (1,))]
    )
    def test_iota_checked_like_the_formula(self, sizes, iota):
        c = Composition((2, 2, 1))
        with pytest.raises(ValueError) as want:
            prob_fixed_colors(c, sizes, iota)
        with pytest.raises(ValueError) as got:
            event_frequency(c, arrangements(c), sizes, iota=iota)
        assert str(got.value) == str(want.value)


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
