"""Uniform random colorings with fixed class sizes.

A coloring of n vertices with s color classes of sizes (c_1, ..., c_s) is a
uniform draw from all arrangements of the multiset containing c_i copies of
color i.  Colors are numbered 1..s.  This module provides the composition
type, exact probabilities of block events (disjoint vertex blocks each
monochromatic, in given, any or pairwise distinct colors; the oracle checks
them by enumeration), and samplers (single draw and a vectorized batch
used by the Monte Carlo harnesses).

The batch sampler has two exact paths, cut at SHUFFLE_CELLS vertices.
Narrower rows are shuffled a block at a time in one reusable np.intp
buffer and copied into the narrow int8/int16/int32 result: numpy's
Fisher-Yates loop swaps items of sizeof(npy_intp) bytes directly and
items of any other size by a byte copy, and the draws do not depend on
the item size, so a fixed seed gives the colorings of a shuffle of the
narrow matrix itself.  A row of at least SHUFFLE_CELLS vertices is filled
with the color of the first largest class, and the k = n - c_max other
colors go, in class order, to rng.choice(n, k, replace=False): a uniformly
random ordered sample of k distinct positions, drawn in about k steps by a
partial shuffle (Durstenfeld 1964) instead of n.  A batch of more than
MAX_SAMPLE_BYTES bytes is refused before anything is allocated.

The Monte Carlo harnesses read only the monochromatic edge count of each
coloring, so sample_counts draws and counts a block of rows at a time
instead of building the whole matrix.  Both sampler paths draw row by row
from the one generator, so the counts equal those of one whole-matrix
draw, whatever the block size; memory is one block, not the trial count.
count_batch compares a block's edges in chunks of BATCH_CELLS = 2^18
(edge, row) cells: the two gathered int8 operands and the boolean result,
3 x 256 KiB, stay in a 2 MiB per-core L2 cache.
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

# cells (rows x n) of the np.intp buffer that sample_batch shuffles; rows of
# at least this many vertices are placed by rng.choice instead
SHUFFLE_CELLS = 1 << 16

# least rows per sample_counts block: count_batch gathers one row per edge
# endpoint, and on blocks of fewer rows those gathers dominate
BLOCK_ROWS = 256

# bytes per trial kept for every trial: the int64 counts or run_comparison's
# float64 copy of them, plus one temporary (the float64 copy being made, or
# numpy's deviations inside var); the fourth powers are taken in place
TRIAL_BYTES = 16


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


def check_trials(trials: int) -> None:
    """Refuse a trial count whose per-trial vectors pass MAX_SAMPLE_BYTES."""
    if trials * TRIAL_BYTES > MAX_SAMPLE_BYTES:
        raise ValueError(
            f"{trials} trials need {trials * TRIAL_BYTES} bytes of per-trial "
            f"results, past the {MAX_SAMPLE_BYTES}-byte limit"
        )


def sample_batch(c: Composition, trials: int, rng: np.random.Generator) -> np.ndarray:
    """(trials, n) array of independent uniform colorings, one per row.

    Rows narrower than SHUFFLE_CELLS are shuffled in order, about
    SHUFFLE_CELLS cells at a time, in one np.intp buffer; the result equals
    a shuffle of the narrow matrix whole.  Wider rows hold the color of the
    first largest class except at rng.choice(n, k, replace=False), which
    takes the other k colors in class order.  More than MAX_SAMPLE_BYTES
    bytes of result is refused.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    dtype = _color_dtype(c)
    if trials * c.n * np.dtype(dtype).itemsize > MAX_SAMPLE_BYTES:
        raise ValueError(
            f"{trials} trials x n={c.n} colorings exceed the "
            f"{MAX_SAMPLE_BYTES}-byte limit of one coloring matrix"
        )
    colors = np.arange(1, c.s + 1, dtype=dtype)
    if c.n >= SHUFFLE_CELLS:
        big = c.classes.index(max(c.classes))
        rest = np.repeat(np.delete(colors, big), np.delete(c.classes, big))
        out = np.full((trials, c.n), colors[big], dtype=dtype)
        for row in out:
            row[rng.choice(c.n, len(rest), replace=False)] = rest
        return out
    base = np.repeat(colors, c.classes)
    out = np.empty((trials, len(base)), dtype=dtype)
    # numpy swaps items of sizeof(npy_intp) bytes directly, any other size by a byte copy
    buf = np.empty((min(trials, max(1, SHUFFLE_CELLS // len(base))), len(base)), dtype=np.intp)
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
    (median of 15 runs on a 2-vCPU VM).  A chunk has at most BATCH_CELLS
    edges, so its per-row sum fits int32.  Every chunk compares into one
    boolean buffer: at 2^22 cells a fresh one per chunk made those blocks
    26% slower (412 ms); at 2^18 the two are within 1%.
    """
    by_vertex = np.ascontiguousarray(colors.T)
    out = np.zeros(colors.shape[0], dtype=np.int64)
    step = max(1, min(g.m, BATCH_CELLS // max(1, colors.shape[0])))
    same = np.empty((step, colors.shape[0]), dtype=bool)
    for lo in range(0, g.m, step):
        eq = same[: min(step, g.m - lo)]
        np.equal(by_vertex[g.u[lo : lo + step]], by_vertex[g.v[lo : lo + step]], out=eq)
        out += eq.sum(axis=0, dtype=np.int32)
    return out


def sample_counts(g: Graph, c: Composition, trials: int, rng: np.random.Generator) -> np.ndarray:
    """Monochromatic edge count of g under each of `trials` uniform colorings.

    Equal to count_batch(g, sample_batch(c, trials, rng)), with the same
    draws, but sampled and counted max(BLOCK_ROWS, SHUFFLE_CELLS // n)
    rows at a time, and no block past MAX_SAMPLE_BYTES.  A trial count
    refused by check_trials is refused before any draw.
    """
    check_trials(trials)
    row_bytes = c.n * np.dtype(_color_dtype(c)).itemsize
    rows = max(1, min(max(BLOCK_ROWS, SHUFFLE_CELLS // c.n), MAX_SAMPLE_BYTES // row_bytes))
    out = np.empty(trials, dtype=np.int64)
    for lo in range(0, trials, rows):
        out[lo : lo + rows] = count_batch(g, sample_batch(c, min(rows, trials - lo), rng))
    return out


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
