"""Compositions, samplers, counting, and exact event probabilities."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chisquare

from colorstats.coloring import (
    Composition,
    count,
    count_batch,
    imbalance,
    prob_distinct_colors,
    prob_fixed_colors,
    sample,
    sample_batch,
)
from colorstats.graph import path
from colorstats.oracle import compositions_of, multiset_permutations, total_colorings
from colorstats.seeds import stream
from colorstats.symfun import falling_factorial


class TestComposition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Composition((5,))
        with pytest.raises(ValueError):
            Composition((3, 0))

    def test_balanced(self):
        assert Composition.balanced(7, 3).classes == (3, 2, 2)
        assert Composition.balanced(6, 2).classes == (3, 3)
        with pytest.raises(ValueError):
            Composition.balanced(4, 5)

    def test_from_ratios_largest_remainder(self):
        assert Composition.from_ratios(50, (Fraction(3, 4), Fraction(1, 4))).classes == (38, 12)
        assert Composition.from_ratios(4000, (Fraction(3, 4), Fraction(1, 4))).classes == (3000, 1000)
        # unnormalized ratios are scaled
        assert Composition.from_ratios(8, (3, 1)).classes == (6, 2)

    def test_from_ratios_tie_lowest_index(self):
        assert Composition.from_ratios(7, (1, 1, 1)).classes == (3, 2, 2)

    def test_from_ratios_zero_bumped(self):
        assert Composition.from_ratios(4, (1, 1000)).classes == (1, 3)

    def test_gamma_and_elementary(self):
        c = Composition((3, 1))
        assert c.gamma() == (Fraction(3, 4), Fraction(1, 4))
        assert c.elementary(2) == 3


class TestSampling:
    def test_sample_respects_classes(self):
        c = Composition((3, 2, 1))
        for i in range(20):
            colors = sample(c, stream(11, i))
            assert sorted(colors) == [1, 1, 1, 2, 2, 3]

    def test_sample_deterministic(self):
        c = Composition((4, 4))
        assert sample(c, stream(5, 1)) == sample(c, stream(5, 1))

    def test_batch_rows_are_valid_colorings(self):
        c = Composition((2, 2, 2))
        mat = sample_batch(c, 500, stream(3))
        assert mat.shape == (500, 6)
        counts = np.stack([(mat == k).sum(axis=1) for k in (1, 2, 3)], axis=1)
        assert (counts == 2).all()

    def test_batch_colors_stay_distinct_past_int16(self):
        row = sample_batch(Composition((1,) * 70_000), 1, stream(4))[0]
        assert len(np.unique(row)) == 70_000

    def test_uniform_over_all_colorings(self):
        """Chi-square goodness of fit at the 1e-3 level, every composition
        of every n <= 6, 1e5 samples each."""
        trials = 100_000
        cell = 0
        for n in range(2, 7):
            for s in range(2, n + 1):
                for parts in compositions_of(n, s):
                    c = Composition(parts)
                    word = []
                    for color, ci in enumerate(parts, start=1):
                        word.extend([color] * ci)
                    powers = s ** np.arange(n, dtype=np.int64)
                    codes = {
                        int(np.dot(np.array(p) - 1, powers)): idx
                        for idx, p in enumerate(multiset_permutations(word))
                    }
                    total = total_colorings(c)
                    assert len(codes) == total
                    mat = sample_batch(c, trials, stream(20260822, cell))
                    sampled = (mat.astype(np.int64) - 1) @ powers
                    observed = np.zeros(total, dtype=np.int64)
                    for code, cnt in zip(*np.unique(sampled, return_counts=True)):
                        observed[codes[int(code)]] = cnt
                    assert observed.sum() == trials
                    p_value = chisquare(observed).pvalue
                    assert p_value >= 1e-3, (parts, p_value)
                    cell += 1


class TestCounting:
    def test_hand_example(self):
        got = count(path(4), (1, 1, 2, 2))
        assert got.per_color == (1, 1)
        assert got.mono == 2 and got.bi == 1

    def test_explicit_class_count(self):
        got = count(path(3), (1, 1, 1), s=3)
        assert got.per_color == (2, 0, 0)

    def test_colors_outside_range_refused(self):
        with pytest.raises(ValueError, match=r"1\.\.1"):
            count(path(3), (0, 0, 1))
        with pytest.raises(ValueError, match=r"1\.\.2"):
            count(path(3), (1, 1, 3), s=2)

    @pytest.mark.parametrize("colors", [(1, 1, 1, 2), (1, 1)])
    def test_coloring_length_must_match_order(self, colors):
        with pytest.raises(ValueError, match="n=3"):
            count(path(3), colors)

    def test_batch_matches_scalar(self):
        g = path(6)
        c = Composition((3, 2, 1))
        mat = sample_batch(c, 200, stream(7))
        batch = count_batch(g, mat)
        for row, want in zip(mat, batch):
            assert count(g, tuple(int(x) for x in row), s=3).mono == want


class TestEventProbabilities:
    def test_single_vertex(self):
        c = Composition((3, 1))
        assert prob_fixed_colors(c, (1,), (1,)) == Fraction(3, 4)
        assert prob_fixed_colors(c, (1,), (2,)) == Fraction(1, 4)

    def test_frozen_examples(self):
        c = Composition((2, 2))
        assert prob_fixed_colors(c, (2,), (1,)) == Fraction(1, 6)
        assert prob_distinct_colors(c, (2, 1)) == Fraction(1, 3)
        assert prob_distinct_colors(c, (2, 2)) == Fraction(1, 3)
        assert prob_distinct_colors(c, (1, 1)) == Fraction(2, 3)

    def test_more_blocks_than_colors(self):
        assert prob_distinct_colors(Composition((3, 3)), (1, 1, 1)) == 0

    def test_oversized_block_impossible(self):
        assert prob_fixed_colors(Composition((2, 3)), (3,), (1,)) == 0

    def test_validation(self):
        c = Composition((3, 3))
        with pytest.raises(ValueError, match="injective"):
            prob_fixed_colors(c, (1, 1), (2, 2))
        with pytest.raises(ValueError, match="1..2"):
            prob_fixed_colors(c, (1,), (3,))
        with pytest.raises(ValueError, match="fit"):
            prob_distinct_colors(c, (4, 3))

    def test_total_mass_over_injections(self):
        for parts in [(2, 2), (3, 1), (2, 2, 2), (1, 2, 4)]:
            c = Composition(parts)
            for sizes in [(1, 1), (2, 1), (2, 2)]:
                total = sum(
                    prob_fixed_colors(c, sizes, iota)
                    for iota in itertools.permutations(
                        range(1, c.s + 1), len(sizes)
                    )
                )
                assert total == prob_distinct_colors(c, sizes)

    def test_two_pairs_closed_form_specialization(self):
        # the equal-size route at two blocks of two must match the explicit
        # e2/e3/e4 expression
        for parts in [(2, 2), (3, 2), (4, 4), (2, 2, 2), (3, 2, 2), (5, 1, 3)]:
            c = Composition(parts)
            e1, e2, e3, e4 = (c.elementary(k) for k in (1, 2, 3, 4))
            explicit = Fraction(
                2 * (e2 * (e2 - e1 + 1) - e3 * (2 * e1 - 3) + 2 * e4),
                falling_factorial(c.n, 4),
            )
            assert prob_distinct_colors(c, (2, 2)) == explicit

    def test_enumeration_cap(self):
        c = Composition((2,) * 13)
        with pytest.raises(ValueError, match="12"):
            prob_distinct_colors(c, (3, 1))

    def test_probability_range(self):
        for parts in [(2, 2), (4, 1), (2, 3, 3)]:
            c = Composition(parts)
            for sizes in [(2,), (2, 1), (1, 1, 1)]:
                if len(sizes) > c.s:
                    continue
                p = prob_distinct_colors(c, sizes)
                assert 0 <= p <= 1


class TestImbalance:
    def test_balanced_is_zero(self):
        assert imbalance(Composition((3, 3, 3))) == 0

    def test_values(self):
        assert imbalance(Composition((3, 1))) == Fraction(1, 8)
        assert imbalance(Composition((2, 1, 1))) == Fraction(1, 24)
