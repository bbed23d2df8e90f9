"""Uniform random colorings with fixed class sizes.

A coloring of n vertices with s color classes of sizes (c_1, ..., c_s) is a
uniform draw from all arrangements of the multiset containing c_i copies of
color i.  Colors are numbered 1..s.  This module provides the composition
type, exact probabilities of block events (disjoint vertex blocks each
monochromatic, in given, any or pairwise distinct colors; the oracle checks
them by enumeration), and samplers (single draw and a vectorized batch
used by the Monte Carlo harnesses).

The batch sampler colors a composition of at most three classes from keys:
each cell gets an independent uniform 32-bit key, read from the generator's
raw 64-bit words, and a vertex's color is 1 + the number of class
boundaries b_i = c_1 + ... + c_i whose key (the b_i-th smallest of its row,
found by np.partition) its own key exceeds.  A row with equal keys on both
sides of a boundary is drawn again.  The law is exact: the rank
permutation of i.i.d. keys, ties broken uniformly, is uniform and
independent of the sorted key values, and whether a row is kept depends
only on those values, so a kept row is the coloring by rank of a uniform
permutation.  A redraw happens with probability about (s - 1) n / 2^32 per
row.  Four or more classes keep two exact shuffle paths, cut at
SHUFFLE_CELLS vertices, because there a chain of partitions loses to the
shuffle on short rows.  Narrower rows are shuffled a block at a time in one
reusable np.intp buffer and copied into the narrow int8/int16/int32
result: numpy's Fisher-Yates loop swaps items of sizeof(npy_intp) bytes
directly and items of any other size by a byte copy, and the draws do not
depend on the item size, so a fixed seed gives the colorings of a shuffle
of the narrow matrix itself.  A row of at least SHUFFLE_CELLS vertices is
filled with the color of the first largest class, and the k = n - c_max
other colors go, in class order, to rng.choice(n, k, replace=False): a
uniformly random ordered sample of k distinct positions, drawn in about k
steps by a partial shuffle (Durstenfeld 1964) instead of n.  A batch of
more than MAX_SAMPLE_BYTES bytes is refused before anything is allocated.

The Monte Carlo harnesses read only the law of the monochromatic edge
count, so sample_counts draws and counts a block of rows at a time into one
value -> trials law.  Keys are drawn in blocks of SHUFFLE_CELLS // n rows
and a tied row is drawn again at the end of its key block, so sample_counts
takes whole key blocks; the shuffle paths draw row by row.  Then the law is
that of one whole-matrix draw, and memory is one block plus the law's
support, whatever the trial count.  A run past MAX_WORK_CELLS is refused
before any draw.
count_batch compares a block's edges in chunks of BATCH_CELLS = 2^18
(edge, row) cells: the two gathered int8 operands and the boolean result,
3 x 256 KiB, stay in a 2 MiB per-core L2 cache.  Each chunk's matches are
summed per row in uint16, in about half the time of an int32 sum, so a
chunk holds at most 65,535 edges.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from collections.abc import Sequence

import numpy as np

from .graph import Graph
from .symfun import falling_factorial

# cells (edges x rows) per count_batch comparison chunk, sized to stay in L2
BATCH_CELLS = 1 << 18

# bytes (trials x n x itemsize) of the largest coloring matrix sample_batch builds
MAX_SAMPLE_BYTES = 1 << 30

# (vertex + edge, trial) cells of the largest run check_work allows: about 85
# minutes at the rate of a measured 2e10-cell run (93 s)
MAX_WORK_CELLS = 1 << 40

# cells (rows x n) of one sample_batch block: the 32-bit keys (256 KiB) of at
# most three classes, or the np.intp buffer shuffled for more; rows of at
# least this many vertices in four or more classes are placed by rng.choice
SHUFFLE_CELLS = 1 << 16

# least rows per sample_counts block: count_batch gathers one row per edge
# endpoint, and on blocks of fewer rows those gathers dominate
BLOCK_ROWS = 256


@dataclass(frozen=True)
class Composition:
    """Color class sizes (c_1, ..., c_s), all >= 1, with s >= 2."""

    classes: tuple[int, ...]

    def __post_init__(self):
        if len(self.classes) < 2:
            raise ValueError(f"need at least 2 color classes, got {self.classes}")
        if any(c < 1 for c in self.classes):
            raise ValueError(f"class sizes must be >= 1, got {self.classes}")

    @classmethod
    def balanced(cls, n: int, s: int) -> "Composition":
        """Split n into s classes as evenly as possible, larger classes first."""
        if s < 2 or n < s:
            raise ValueError(f"balanced needs 2 <= s <= n, got n={n}, s={s}")
        q, r = divmod(n, s)
        return cls((q + 1,) * r + (q,) * (s - r))

    @classmethod
    def from_ratios(cls, n: int, ratios: Sequence[Fraction | int]) -> "Composition":
        """Class sizes approximating n * ratios by largest-remainder rounding.

        Ratios are normalized to sum 1, so (3, 1) and (3/4, 1/4) agree.  The
        floor of each target is taken first and the leftover units go to the
        largest fractional remainders, ties broken by lowest index.  Any
        class rounded to zero is bumped to 1 at the expense of the largest
        class, keeping the result a valid composition.
        """
        if len(ratios) < 2:
            raise ValueError("need at least 2 ratios")
        if n < len(ratios):
            raise ValueError(f"cannot fit {len(ratios)} nonempty classes in n={n}")
        fracs = [Fraction(r) for r in ratios]
        if any(f <= 0 for f in fracs):
            raise ValueError(f"ratios must be positive, got {ratios}")
        total = sum(fracs)
        targets = [f / total * n for f in fracs]
        sizes = [int(t) for t in targets]  # floor; targets are non-negative
        leftover = n - sum(sizes)
        remainders = sorted(
            range(len(sizes)), key=lambda i: (-(targets[i] - sizes[i]), i)
        )
        for i in remainders[:leftover]:
            sizes[i] += 1
        for i, c in enumerate(sizes):
            if c == 0:
                donor = max(range(len(sizes)), key=lambda j: (sizes[j], -j))
                sizes[donor] -= 1
                sizes[i] = 1
        return cls(tuple(sizes))

    @property
    def n(self) -> int:
        return sum(self.classes)

    @property
    def s(self) -> int:
        return len(self.classes)

    def gamma(self) -> tuple[Fraction, ...]:
        """Class proportions c_i / n as exact fractions."""
        n = self.n
        return tuple(Fraction(c, n) for c in self.classes)


def sample(c: Composition, rng: np.random.Generator) -> np.ndarray:
    """One uniform coloring: a shuffle of the color multiset, as int64."""
    base = np.repeat(np.arange(1, c.s + 1, dtype=np.int64), c.classes)
    rng.shuffle(base)
    return base


def _color_dtype(c: Composition) -> type:
    return np.int8 if c.s <= 127 else np.int16 if c.s <= 32767 else np.int32


def check_work(trials: int, size: int) -> None:
    """Refuse `trials` draws on a graph of `size` vertices + edges past MAX_WORK_CELLS."""
    if trials * size > MAX_WORK_CELLS:
        raise ValueError(f"{trials} trials x {size} vertices and edges are {trials * size} "
                         f"cells of work, past the {MAX_WORK_CELLS}-cell limit")


def _block_rows(n: int) -> int:
    """Rows of one sample_batch block: about SHUFFLE_CELLS cells, at least one row."""
    return max(1, SHUFFLE_CELLS // n)


def _keys(rng: np.random.Generator, rows: int, n: int) -> np.ndarray:
    """(rows, n) independent uniform 32-bit keys: the generator's raw 64-bit
    words, two keys each (about 1.2 ns a key, against 2.9 for rng.integers)."""
    words = rng.bit_generator.random_raw(-(-rows * n // 2))
    return words.view(np.uint32)[: rows * n].reshape(rows, n)


def _rank_colors(out: np.ndarray, keys: np.ndarray, bounds: tuple[int, ...]) -> np.ndarray:
    """Color each row of the int8 block `out` by the ranks of its keys, and
    return the indices of the rows with equal keys on both sides of a class
    boundary.

    For each boundary b of `bounds` (ascending), from the last, one
    single-kth partition of the columns left of the previous boundary puts
    the b-th smallest key t at index b - 1 (a kth list would take numpy's
    slower path).  A vertex's color is 1 + the number of t its key exceeds.
    At least b keys of a row are at most t, so at most n - b vertices lie
    above each boundary and a row's colors sum to at most n + sum(n - b),
    with equality exactly when no boundary is tied.  One sum over the block
    clears it; only a block that fails is summed by row (a per-row min
    right of each boundary took about as long as its partition at n = 12).
    """
    part, thresholds = keys.copy(), []
    for b in reversed(bounds):
        part.partition(b - 1, axis=1)
        thresholds.append(part[:, b - 1 : b].copy())  # the next partition may move it
        part = part[:, :b]  # the b smallest keys
    np.greater(keys, thresholds.pop(), out=out.view(bool))
    out += 1
    for t in thresholds:
        out += keys > t
    weight = keys.shape[1] * (len(bounds) + 1) - sum(bounds)
    if out.sum(dtype=np.int64) == len(out) * weight:
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(out.sum(axis=1, dtype=np.int64) != weight)


def sample_batch(c: Composition, trials: int, rng: np.random.Generator) -> np.ndarray:
    """(trials, n) array of independent uniform colorings, one per row.

    At most three classes: each block of _block_rows(n) rows gets uniform
    32-bit keys and is colored by their ranks (_rank_colors); the rows tied
    at a class boundary then get new keys together, in row order, until
    none is tied.  A kept row is the coloring by rank of a uniform
    permutation, because the rank permutation of i.i.d. keys is independent
    of their sorted values, which alone decide whether the row is kept; so
    the law is exactly uniform.  Four or more classes: rows narrower than
    SHUFFLE_CELLS are shuffled in order, one block at a time, in one np.intp
    buffer, and the result equals a shuffle of the narrow matrix whole;
    wider rows hold the color of the first largest class except at
    rng.choice(n, k, replace=False), which takes the other k colors in class
    order.  More than MAX_SAMPLE_BYTES bytes of result is refused.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    dtype = _color_dtype(c)
    if trials * c.n * np.dtype(dtype).itemsize > MAX_SAMPLE_BYTES:
        raise ValueError(
            f"{trials} trials x n={c.n} colorings exceed the "
            f"{MAX_SAMPLE_BYTES}-byte limit of one coloring matrix"
        )
    out = np.empty((trials, c.n), dtype=dtype)
    rows = _block_rows(c.n)
    if c.s <= 3:
        bounds = tuple(itertools.accumulate(c.classes[:-1]))
        for lo in range(0, trials, rows):
            block = out[lo : lo + rows]
            tied = _rank_colors(block, _keys(rng, len(block), c.n), bounds)
            while len(tied):  # draw the rows tied at a class boundary again
                redo = block[tied]
                again = _rank_colors(redo, _keys(rng, len(tied), c.n), bounds)
                block[tied] = redo
                tied = tied[again]
        return out
    colors = np.arange(1, c.s + 1, dtype=dtype)
    if c.n >= SHUFFLE_CELLS:
        big = c.classes.index(max(c.classes))
        rest = np.repeat(np.delete(colors, big), np.delete(c.classes, big))
        out[:] = colors[big]
        for row in out:
            row[rng.choice(c.n, len(rest), replace=False)] = rest
        return out
    base = np.repeat(colors, c.classes)
    # numpy swaps items of sizeof(npy_intp) bytes directly, any other size by a byte copy
    buf = np.empty((min(trials, rows), c.n), dtype=np.intp)
    for lo in range(0, trials, len(buf)):
        block = buf[: trials - lo]
        block[:] = base
        rng.permuted(block, axis=1, out=block)
        out[lo : lo + len(block)] = block
    return out


def count_batch(g: Graph, colors: np.ndarray) -> np.ndarray:
    """Monochromatic edge count per row of a (trials, n) coloring matrix.

    The matrix is copied once as (n, trials), one row of colors per vertex;
    edges are then compared in chunks of about BATCH_CELLS (edge, trial)
    cells, so beyond that copy memory stays near 3 * BATCH_CELLS bytes for
    int8 colors (768 KiB), however large m is.  Those three arrays stay in
    a 2 MiB per-core L2 cache: 1000 rows of circulant(10^5, 10) counted in
    256-row blocks took 273 ms at 2^18 cells against 327 ms at 2^22
    (median of 15 runs on a 2-vCPU VM).  The matches of a chunk are summed
    per row as uint8 into uint16, so a chunk has at most 65,535 edges: a
    (1024, 256) chunk sums in 36 us this way, 38 us from bool and 66 us
    into int32 (median of 201).  A fresh comparison array per chunk costs
    no more than one reused buffer (within 1% on the blocks above).
    """
    by_vertex = np.ascontiguousarray(colors.T)
    out = np.zeros(colors.shape[0], dtype=np.int64)
    step = max(1, min(g.m, BATCH_CELLS // max(1, colors.shape[0]), 0xFFFF))
    for lo in range(0, g.m, step):
        us, vs = g.u[lo : lo + step], g.v[lo : lo + step]
        # one expression, so no chunk's comparison outlives its sum
        out += (by_vertex[us] == by_vertex[vs]).view(np.uint8).sum(axis=0, dtype=np.uint16)
    return out


def sample_counts(g: Graph, c: Composition, trials: int, rng: np.random.Generator) -> Counter:
    """Law (value -> trials) of g's monochromatic edge count over `trials`
    uniform colorings: that of count_batch(g, sample_batch(c, trials, rng)),
    with the same draws, but sampled and counted BLOCK_ROWS rows at a time,
    rounded up to whole sample_batch blocks of _block_rows(n) rows (so a
    redrawn row takes its keys where one whole-matrix draw would), no block
    past MAX_SAMPLE_BYTES, each block folded in by np.unique, and a run past
    check_work refused before any draw.
    """
    check_work(trials, g.n + g.m)
    row_bytes = c.n * np.dtype(_color_dtype(c)).itemsize
    step = _block_rows(c.n)
    rows = max(1, min(-(-BLOCK_ROWS // step) * step, MAX_SAMPLE_BYTES // row_bytes))
    law = Counter()
    for lo in range(0, trials, rows):
        counts = count_batch(g, sample_batch(c, min(rows, trials - lo), rng))
        values, freq = np.unique(counts, return_counts=True)
        law.update(dict(zip(values.tolist(), freq.tolist())))
    return law


def imbalance(c: Composition) -> Fraction:
    """Squared distance of the class proportions from uniform: sum (c_i/n - 1/s)^2."""
    u = Fraction(1, c.s)
    return sum(((g - u) ** 2 for g in c.gamma()), start=Fraction(0))


def _validate_sizes(c: Composition, sizes: Sequence[int]) -> int:
    if not sizes:
        raise ValueError("need at least one set size")
    if any(a < 1 for a in sizes):
        raise ValueError(f"set sizes must be >= 1, got {tuple(sizes)}")
    total = sum(sizes)
    if total > c.n:
        raise ValueError(
            f"sets of total size {total} do not fit in {c.n} vertices"
        )
    return total


def _validate_iota(c: Composition, sizes: Sequence[int], iota: Sequence[int]) -> None:
    if len(iota) != len(sizes):
        raise ValueError("iota must assign one color per block")
    if len(set(iota)) != len(iota):
        raise ValueError(f"iota must be injective, got {tuple(iota)}")
    if any(not (1 <= i <= c.s) for i in iota):
        raise ValueError(f"iota colors must lie in 1..{c.s}, got {tuple(iota)}")


def prob_fixed_colors(
    c: Composition, sizes: Sequence[int], iota: Sequence[int]
) -> Fraction:
    """P(block j is colored iota[j] for every j) for disjoint vertex sets.

    `sizes` gives the block sizes (a_1, ..., a_k); `iota` assigns each block
    a distinct color in 1..s.  The probability only depends on sizes and
    colors, not on which vertices form the blocks.
    """
    total = _validate_sizes(c, sizes)
    _validate_iota(c, sizes, iota)
    num = 1
    for a, i in zip(sizes, iota):
        num *= falling_factorial(c.classes[i - 1], a)
    return Fraction(num, falling_factorial(c.n, total))


@functools.lru_cache
def prob_mono_blocks(c: Composition, sizes: tuple[int, ...], distinct: bool = False) -> Fraction:
    """P(every block is monochromatic) for disjoint blocks of the given sizes
    (a tuple), in pairwise distinct colors if `distinct`.

    One sum color by color over the count r_b of open blocks of each size b:
    a color of c_i vertices taking t_b of them for each b (one block at most
    if `distinct`) adds a factor prod C(r_b, t_b) (c_i)_(sum t_b b)."""
    total = _validate_sizes(c, sizes)
    kinds = Counter(sizes)
    # ways[open] sums the numerators over the colors so far, by open blocks per size
    ways = {tuple(kinds.values()): 1}
    moves = {}  # open blocks -> (open blocks after, ways to pick the blocks, vertices used)
    for ci in c.classes:
        nxt = dict(ways)  # the color takes no block
        for open_, w in ways.items():
            if open_ not in moves:
                takes = itertools.product(*(range(r + 1) for r in open_))
                moves[open_] = [
                    (tuple(map(operator.sub, open_, t)), math.prod(map(math.comb, open_, t)),
                     sum(map(operator.mul, t, kinds)))
                    for t in takes if any(t) and (not distinct or sum(t) == 1)
                ]
            for key, picks, used in moves[open_]:
                if used <= ci:
                    nxt[key] = nxt.get(key, 0) + w * picks * falling_factorial(ci, used)
        ways = nxt
    return Fraction(ways.get((0,) * len(kinds), 0), falling_factorial(c.n, total))


def prob_distinct_colors(c: Composition, sizes: Sequence[int]) -> Fraction:
    """P(each block is monochromatic and the blocks get pairwise distinct colors)."""
    return prob_mono_blocks(c, tuple(sizes), distinct=True)
