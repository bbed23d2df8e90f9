"""Compositions, samplers, counting, and exact event probabilities."""

import itertools
import math
import time
import tracemalloc
from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chisquare

from colorstats import coloring
from colorstats.coloring import (
    Composition,
    count_batch,
    imbalance,
    prob_distinct_colors,
    prob_fixed_colors,
    prob_mono_blocks,
    sample,
    sample_batch,
    sample_counts,
)
from colorstats.experiments import sampled_moments
from colorstats.graph import Graph, complete, cycle, path, star
from colorstats.oracle import arrangements, compositions_of, total_colorings
from colorstats.seeds import stream
from colorstats.symfun import elementary_symmetric, falling_factorial


@dataclass(frozen=True)
class EdgeCounts:
    """Monochromatic edges per color, their total, and the bichromatic rest."""

    per_color: tuple[int, ...]
    mono: int
    bi: int


def count(g: Graph, colors: Sequence[int], s: int | None = None) -> EdgeCounts:
    """Scalar reference for count_batch: monochromatic edges of g under one
    coloring, by a Python loop over the edges.

    `s` fixes the length of per_color; by default the largest color present
    is used.  A color outside 1..s, or a coloring without one entry per
    vertex, is refused.
    """
    if len(colors) != g.n:
        raise ValueError(f"coloring has {len(colors)} entries, graph has n={g.n}")
    if s is None:
        s = max(colors, default=0)
    if any(not 1 <= color <= s for color in colors):
        raise ValueError(f"colors must lie in 1..{s}, got {min(colors)}..{max(colors)}")
    per = [0] * s
    for u, v in zip(g.u.tolist(), g.v.tolist()):
        cu = colors[u]
        if cu == colors[v]:
            per[cu - 1] += 1
    mono = sum(per)
    return EdgeCounts(per_color=tuple(per), mono=mono, bi=g.m - mono)


def multiset_permutations(word: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All distinct permutations of `word` in lexicographic order.

    Standard in-place successor algorithm; with repeated values each
    distinct arrangement appears exactly once.
    """
    arr = sorted(word)
    size = len(arr)
    while True:
        yield tuple(arr)
        i = size - 2
        while i >= 0 and arr[i] >= arr[i + 1]:
            i -= 1
        if i < 0:
            return
        j = size - 1
        while arr[j] <= arr[i]:
            j -= 1
        arr[i], arr[j] = arr[j], arr[i]
        arr[i + 1 :] = arr[size - 1 : i : -1]


def reference_sample_batch(c: Composition, trials: int, rng: np.random.Generator) -> np.ndarray:
    """sample_batch's narrow matrix shuffled whole: one tile of the color
    multiset per row, permuted in place along the rows."""
    dtype = np.int8 if c.s <= 127 else np.int16 if c.s <= 32767 else np.int32
    base = np.repeat(np.arange(1, c.s + 1, dtype=dtype), c.classes)
    mat = np.tile(base, (trials, 1))
    rng.permuted(mat, axis=1, out=mat)
    return mat


def reference_wide_sample_batch(c: Composition, trials: int, rng: np.random.Generator) -> np.ndarray:
    """sample_batch for rows of at least SHUFFLE_CELLS vertices: the color
    of the first largest class everywhere, then the other colors, in class
    order, at one rng.choice placement of distinct positions per row."""
    dtype = np.int8 if c.s <= 127 else np.int16 if c.s <= 32767 else np.int32
    big = min(range(c.s), key=lambda i: (-c.classes[i], i))
    rest = [i + 1 for i, ci in enumerate(c.classes) if i != big for _ in range(ci)]
    mat = np.full((trials, c.n), big + 1, dtype=dtype)
    for t in range(trials):
        mat[t, rng.choice(c.n, len(rest), replace=False)] = rest
    return mat


def reference_key_sample_batch(
    c: Composition, trials: int, rng: np.random.Generator, bits: int = 32
) -> np.ndarray:
    """sample_batch for at most three classes: for each block of
    SHUFFLE_CELLS // n rows, n keys per row from the generator's raw 64-bit
    words, two 32-bit keys each, of which the low `bits` are kept; each row
    colored by the stable rank of its keys; then the rows whose keys are
    equal on both sides of a class boundary drawn again together, in row
    order, until none is."""
    n = c.n
    word = np.repeat(np.arange(1, c.s + 1, dtype=np.int8), c.classes)
    bounds = np.cumsum(c.classes)[:-1]

    def draw(rows: int) -> np.ndarray:
        raw = rng.bit_generator.random_raw(-(-rows * n // 2)).view(np.uint32)[: rows * n]
        return (raw & (2**bits - 1)).reshape(rows, n)

    def color(keys: np.ndarray) -> tuple[np.ndarray, bool]:
        order = np.argsort(keys, kind="stable")
        row = np.empty(n, dtype=np.int8)
        row[order] = word
        ranked = keys[order]
        return row, bool((ranked[bounds - 1] == ranked[bounds]).any())

    mat = np.empty((trials, n), dtype=np.int8)
    step = max(1, coloring.SHUFFLE_CELLS // n)
    for lo in range(0, trials, step):
        tied = list(range(lo, min(lo + step, trials)))
        while tied:
            again = []
            for r, keys in zip(tied, draw(len(tied))):
                mat[r], tie = color(keys)
                if tie:
                    again.append(r)
            tied = again
    return mat


@pytest.fixture
def low_bit_keys(monkeypatch):
    """Keep only the low `bits` of every sample_batch key, so rows tie at
    class boundaries and are drawn again."""
    full = coloring._keys

    def patch(bits: int) -> None:
        def keys(rng, rows, n):
            return full(rng, rows, n) & (2**bits - 1)

        monkeypatch.setattr(coloring, "_keys", keys)

    return patch


# (composition, trials): short last blocks, rows past SHUFFLE_CELLS, a
# single row, each result dtype, and (last two) wide rows whose largest
# class is not the first, placed by numpy's tail shuffle and by Floyd's
# algorithm; at most three classes take the key path, more the shuffles
BATCH_SHAPES = [
    (Composition.balanced(100, 3), 1000),
    (Composition.balanced(40, 3), 3),
    (Composition.balanced(100_000, 3), 3),
    (Composition((4, 3)), 1),
    (Composition((6, 5)), 7000),
    (Composition.balanced(1000, 200), 70),
    (Composition.balanced(40_000, 40_000), 2),
    (Composition((20_000, 50_000, 30_000, 50_000)), 2),
    (Composition((1_000, 99_000)), 3),
]


# (composition, graph, trials): narrow rows over blocks of BLOCK_ROWS rows
# rounded up to two key blocks (436 rows), wide rows (n >= SHUFFLE_CELLS)
# over two blocks with 3 classes, narrow rows in blocks of SHUFFLE_CELLS // n
# rows, trials below one block, and exactly two blocks
COUNT_SHAPES = [
    (Composition((200, 100)), complete(300), 1000),
    (Composition((60_000, 3_000, 3_000)), cycle(66_000), 300),
    (Composition((100, 60, 40)), cycle(200), 5000),
    (Composition((7, 3)), star(10), 100),
    (Composition((128, 128)), cycle(256), 512),
]


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

    def test_gamma(self):
        c = Composition((3, 1))
        assert c.gamma() == (Fraction(3, 4), Fraction(1, 4))


class TestSampling:
    def test_sample_respects_classes(self):
        c = Composition((3, 2, 1))
        for i in range(20):
            colors = sample(c, stream(11, i))
            assert sorted(colors.tolist()) == [1, 1, 1, 2, 2, 3]

    def test_sample_deterministic(self):
        c = Composition((4, 4))
        assert sample(c, stream(5, 1)).tolist() == sample(c, stream(5, 1)).tolist()

    def test_batch_rows_are_valid_colorings(self):
        c = Composition((2, 2, 2))
        mat = sample_batch(c, 500, stream(3))
        assert mat.shape == (500, 6)
        counts = np.stack([(mat == k).sum(axis=1) for k in (1, 2, 3)], axis=1)
        assert (counts == 2).all()

    def test_batch_colors_stay_distinct_past_int16(self):
        row = sample_batch(Composition((1,) * 70_000), 1, stream(4))[0]
        assert len(np.unique(row)) == 70_000

    @pytest.mark.parametrize("c, trials", BATCH_SHAPES)
    def test_batch_matches_reference(self, c, trials):
        # at most three classes: keys; more: the permuted matrix, or one
        # placement per row past the cut
        if c.s <= 3:
            reference = reference_key_sample_batch
        elif c.n >= coloring.SHUFFLE_CELLS:
            reference = reference_wide_sample_batch
        else:
            reference = reference_sample_batch
        rng, ref_rng = stream(8), stream(8)
        got, want = sample_batch(c, trials, rng), reference(c, trials, ref_rng)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert np.array_equal(got, want)
        assert rng.random() == ref_rng.random()  # the same draws were consumed

    # redraws in most rows (2 bits), in a few rows of each block (16 bits)
    @pytest.mark.parametrize("c, trials, bits", [
        (Composition((3, 2)), 300, 2),
        (Composition((2, 1, 3)), 300, 2),
        (Composition((100, 60, 40)), 700, 16),
        (Composition((400, 230)), 200, 16),
    ])
    def test_tied_rows_match_reference(self, low_bit_keys, c, trials, bits):
        low_bit_keys(bits)
        rng, ref_rng = stream(13), stream(13)
        got = sample_batch(c, trials, rng)
        assert np.array_equal(got, reference_key_sample_batch(c, trials, ref_rng, bits))
        assert rng.random() == ref_rng.random()  # the same draws were consumed

    def test_tied_rows_keep_the_class_sizes(self, low_bit_keys):
        # 2-bit keys tie at a boundary in most rows; a kept tie breaks the sizes
        low_bit_keys(2)
        for parts in [(1, 1), (3, 2), (2, 5), (1, 1, 1), (2, 1, 3), (3, 3, 3), (1, 4, 2)]:
            c = Composition(parts)
            mat = sample_batch(c, 500, stream(14, len(parts)))
            for color, ci in enumerate(parts, start=1):
                assert ((mat == color).sum(axis=1) == ci).all(), (parts, color)

    @pytest.mark.parametrize("c, trials", [BATCH_SHAPES[0], BATCH_SHAPES[2]])
    def test_batch_memory_is_the_result_and_one_buffer(self, c, trials):
        tracemalloc.start()
        try:
            out = sample_batch(c, trials, stream(10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 8 * max(coloring.SHUFFLE_CELLS, c.n) + (1 << 20)

    def test_batch_refused_above_byte_limit(self, monkeypatch):
        # 10^5 trials of 10^5 int8 colors are 10^10 bytes, past the 2^30 limit
        def refuse(*args, **kwargs):
            raise AssertionError("a coloring matrix was allocated past the limit")

        monkeypatch.setattr(np, "empty", refuse)
        monkeypatch.setattr(np, "full", refuse)
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=r"100000 trials x n=100000 colorings exceed the 1073741824-byte limit"):
            sample_batch(Composition.balanced(100_000, 2), 100_000, stream(1))
        assert time.perf_counter() - t0 < 0.1

    def test_batch_at_the_byte_limit(self, monkeypatch):
        # a matrix of exactly MAX_SAMPLE_BYTES is built, one row more is refused
        monkeypatch.setattr(coloring, "MAX_SAMPLE_BYTES", 3 * 100)
        c = Composition.balanced(100, 3)
        assert sample_batch(c, 3, stream(2)).nbytes == 300
        with pytest.raises(ValueError, match="300-byte limit"):
            sample_batch(c, 4, stream(2))

    @pytest.mark.parametrize("c, g, trials", COUNT_SHAPES)
    def test_counts_match_the_whole_matrix(self, c, g, trials):
        rng, ref_rng = stream(9), stream(9)
        got = sample_counts(g, c, trials, rng)
        assert got == Counter(count_batch(g, sample_batch(c, trials, ref_rng)).tolist())
        assert rng.random() == ref_rng.random()  # the same draws were consumed

    @pytest.mark.parametrize("c, g, trials", COUNT_SHAPES)
    def test_sampled_moments_are_exact(self, c, g, trials):
        # the law's power sums give the moments of the whole count vector
        ms = count_batch(g, sample_batch(c, trials, stream(9)))
        mean, var, m4 = sampled_moments(sample_counts(g, c, trials, stream(9)))
        want = Fraction(sum(ms.tolist()), trials)
        assert mean == want
        assert var == sum((x - want) ** 2 for x in ms.tolist()) / (trials - 1)
        assert m4 == sum((x - want) ** 4 for x in ms.tolist()) / trials
        assert float(mean) == np.mean(ms)  # bit for bit: integer sums below 2^53 are exact

    def test_counts_match_the_whole_matrix_with_redraws(self, low_bit_keys):
        # n = 630: keys come in blocks of 104 rows, and 256-row count blocks
        # would put a redrawn row's keys elsewhere in the stream
        low_bit_keys(16)
        g, c = cycle(630), Composition((400, 230))
        rng, ref_rng = stream(15), stream(15)
        got = sample_counts(g, c, 600, rng)
        assert got == Counter(count_batch(g, sample_batch(c, 600, ref_rng)).tolist())
        assert rng.random() == ref_rng.random()

    def test_counts_memory_is_one_block(self):
        # the whole (20000, 4000) int8 matrix would take 80 MB
        g, c = star(4000), Composition((3000, 1000))
        tracemalloc.start()
        try:
            sample_counts(g, c, 20_000, stream(12))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    def test_uniform_over_all_colorings(self, monkeypatch):
        """Chi-square goodness of fit at the 1e-3 level, every composition
        of every n <= 6: 1e5 samples each through the key path (s <= 3) or
        the block shuffle, then 8e3 each with SHUFFLE_CELLS at 1, so every
        row takes its own keys or, with four or more classes, is placed by
        rng.choice."""
        for cut, trials in [(coloring.SHUFFLE_CELLS, 100_000), (1, 8_000)]:
            monkeypatch.setattr(coloring, "SHUFFLE_CELLS", cut)
            self._check_uniform(trials)

    def test_uniform_with_tied_rows(self, low_bit_keys):
        """The same fit for every 2- and 3-class composition of n <= 6 with
        2-bit keys, where most rows tie at a boundary and are drawn again."""
        low_bit_keys(2)
        self._check_uniform(20_000, most_classes=3)

    @staticmethod
    def _check_uniform(trials: int, most_classes: int = 6) -> None:
        cell = 0
        for n in range(2, 7):
            for s in range(2, min(n, most_classes) + 1):
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
        for parts in [(2, 2), (3, 1), (2, 2, 2), (1, 2, 4), (3, 3, 2, 2), (1, 4, 2, 3, 3)]:
            c = Composition(parts)
            for sizes in [(1, 1), (2, 1), (2, 2), (2, 2, 1), (3, 2, 2, 1)]:
                if sum(sizes) > c.n:
                    continue
                total = sum(
                    prob_fixed_colors(c, sizes, iota)
                    for iota in itertools.permutations(
                        range(1, c.s + 1), len(sizes)
                    )
                )
                assert total == prob_distinct_colors(c, sizes)

    def test_two_pairs_closed_form_specialization(self):
        # the sum over colors at two blocks of two must match the explicit
        # e2/e3/e4 expression
        for parts in [(2, 2), (3, 2), (4, 4), (2, 2, 2), (3, 2, 2), (5, 1, 3)]:
            c = Composition(parts)
            e1, e2, e3, e4 = (elementary_symmetric(parts, k) for k in (1, 2, 3, 4))
            explicit = Fraction(
                2 * (e2 * (e2 - e1 + 1) - e3 * (2 * e1 - 3) + 2 * e4),
                falling_factorial(c.n, 4),
            )
            assert prob_distinct_colors(c, (2, 2)) == explicit

    def test_thirteen_colors_match_injection_sum(self):
        c = Composition(tuple(range(1, 14)))
        sizes = (3, 2, 1)
        want = sum(
            prob_fixed_colors(c, sizes, iota)
            for iota in itertools.permutations(range(1, c.s + 1), len(sizes))
        )
        assert prob_distinct_colors(c, sizes) == want

    def test_probability_range(self):
        for parts in [(2, 2), (4, 1), (2, 3, 3)]:
            c = Composition(parts)
            for sizes in [(2,), (2, 1), (1, 1, 1)]:
                if len(sizes) > c.s:
                    continue
                p = prob_distinct_colors(c, sizes)
                assert 0 <= p <= 1


def block_shapes(n: int, most: int = 4) -> Iterator[tuple[int, ...]]:
    """Every multiset of at most `most` block sizes with total <= n, as a
    non-increasing tuple."""
    def parts(left, cap, k):
        for a in range(min(left, cap), 0, -1):
            yield (a,)
            if k > 1:
                yield from ((a, *rest) for rest in parts(left - a, a, k - 1))
    return parts(n, n, most)


class TestMonoBlocks:
    """prob_mono_blocks against the row frequency of its event in the
    arrangement table: blocks are consecutive vertex ranges."""

    def test_matches_enumeration(self):
        checked = 0
        for n in range(2, 9):
            for s in range(2, min(n, 4) + 1):
                for parts in compositions_of(n, s):
                    c = Composition(parts)
                    table = arrangements(c)
                    # rows whose columns lo..hi-1 share one color, per (lo, hi)
                    same = {
                        (lo, hi): (table[:, lo:hi] == table[:, lo : lo + 1]).all(axis=1)
                        for lo in range(n) for hi in range(lo + 1, n + 1)
                    }
                    for sizes in block_shapes(n):
                        starts = list(itertools.accumulate(sizes, initial=0))
                        mono = np.logical_and.reduce([same[b] for b in itertools.pairwise(starts)])
                        colors = np.sort(table[:, starts[:-1]], axis=1)
                        distinct = mono & (colors[:, 1:] != colors[:, :-1]).all(axis=1)
                        for flag, rows in ((False, mono), (True, distinct)):
                            want = Fraction(int(rows.sum()), len(table))
                            assert prob_mono_blocks(c, sizes, flag) == want, (parts, sizes, flag)
                        checked += 1
        assert checked == 5779

    def test_block_order_and_trivial_blocks(self):
        c = Composition((4, 3, 2))
        assert prob_mono_blocks(c, (3, 1, 2)) == prob_mono_blocks(c, (1, 2, 3))
        # with s >= 2 no class holds every vertex; a single vertex is always monochromatic
        assert prob_mono_blocks(c, (9,)) == 0
        assert prob_mono_blocks(c, (1, 1)) == 1


class TestImbalance:
    def test_balanced_is_zero(self):
        assert imbalance(Composition((3, 3, 3))) == 0

    def test_values(self):
        assert imbalance(Composition((3, 1))) == Fraction(1, 8)
        assert imbalance(Composition((2, 1, 1))) == Fraction(1, 24)
