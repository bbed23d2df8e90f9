"""Uniform random colorings with fixed class sizes.

A coloring of n vertices with s color classes of sizes (c_1, ..., c_s) is a
uniform draw from all arrangements of the multiset containing c_i copies of
color i.  Colors are numbered 1..s.  This module provides the composition
type, exact event probabilities, and samplers (single draw and a vectorized
batch used by the Monte Carlo harnesses).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from collections.abc import Sequence

import numpy as np

from .graph import Graph
from .symfun import elementary_symmetric, falling_factorial

# injection enumeration in prob_distinct_colors is factorial in s; closed
# forms cover the shapes that arise in the moment formulas, the rest is
# capped here
MAX_ENUMERATED_COLORS = 12

# coloring rows per count_batch comparison buffer, which is (rows, m)
BATCH_ROWS = 4096


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

    def elementary(self, k: int) -> int:
        """e_k of the class sizes."""
        return elementary_symmetric(self.classes, k)


ColorAssignment = Sequence[int]


@dataclass(frozen=True)
class EdgeCounts:
    """Monochromatic edges per color, their total, and the bichromatic rest."""

    per_color: tuple[int, ...]
    mono: int
    bi: int


def sample(c: Composition, rng: np.random.Generator) -> tuple[int, ...]:
    """One uniform coloring: a shuffle of the color multiset."""
    base = np.repeat(np.arange(1, c.s + 1, dtype=np.int64), c.classes)
    rng.shuffle(base)
    return tuple(int(x) for x in base)


def sample_batch(c: Composition, trials: int, rng: np.random.Generator) -> np.ndarray:
    """(trials, n) array of independent uniform colorings, one per row."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    dtype = np.int8 if c.s <= 127 else np.int16 if c.s <= 32767 else np.int32
    base = np.repeat(np.arange(1, c.s + 1, dtype=dtype), c.classes)
    mat = np.tile(base, (trials, 1))
    rng.permuted(mat, axis=1, out=mat)
    return mat


def count(g: Graph, colors: ColorAssignment, s: int | None = None) -> EdgeCounts:
    """Count monochromatic edges of g under one coloring.

    `s` fixes the length of per_color; by default the largest color present
    is used, which undercounts classes only when a trailing color is unused.
    A color outside 1..s, or a coloring without one entry per vertex, is
    refused.
    """
    if len(colors) != g.n:
        raise ValueError(f"coloring has {len(colors)} entries, graph has n={g.n}")
    if s is None:
        s = max(colors, default=0)
    if any(not 1 <= color <= s for color in colors):
        raise ValueError(f"colors must lie in 1..{s}, got {min(colors)}..{max(colors)}")
    per = [0] * s
    for u, v in g.edges:
        cu = colors[u]
        if cu == colors[v]:
            per[cu - 1] += 1
    mono = sum(per)
    return EdgeCounts(per_color=tuple(per), mono=mono, bi=g.m - mono)


def count_batch(g: Graph, colors: np.ndarray) -> np.ndarray:
    """Monochromatic edge count per row of a (trials, n) coloring matrix,
    BATCH_ROWS rows at a time."""
    if g.m == 0:
        return np.zeros(colors.shape[0], dtype=np.int64)
    out = np.empty(colors.shape[0], dtype=np.int64)
    for lo in range(0, colors.shape[0], BATCH_ROWS):
        block = colors[lo : lo + BATCH_ROWS]
        out[lo : lo + BATCH_ROWS] = (block[:, g.u] == block[:, g.v]).sum(axis=1)
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


def prob_fixed_colors(
    c: Composition, sizes: Sequence[int], iota: Sequence[int]
) -> Fraction:
    """P(block j is colored iota[j] for every j) for disjoint vertex sets.

    `sizes` gives the block sizes (a_1, ..., a_k); `iota` assigns each block
    a distinct color in 1..s.  The probability only depends on sizes and
    colors, not on which vertices form the blocks.
    """
    total = _validate_sizes(c, sizes)
    if len(iota) != len(sizes):
        raise ValueError("iota must assign one color per block")
    if len(set(iota)) != len(iota):
        raise ValueError(f"iota must be injective, got {tuple(iota)}")
    if any(not (1 <= i <= c.s) for i in iota):
        raise ValueError(f"iota colors must lie in 1..{c.s}, got {tuple(iota)}")
    num = 1
    for a, i in zip(sizes, iota):
        num *= falling_factorial(c.classes[i - 1], a)
    return Fraction(num, falling_factorial(c.n, total))


def prob_distinct_colors(c: Composition, sizes: Sequence[int]) -> Fraction:
    """P(each block is monochromatic and the blocks get pairwise distinct colors).

    Sum of prob_fixed_colors over all injections of blocks into colors.
    Uses closed forms for the shapes that show up in the moment formulas
    (all sizes equal, and one 2 with the rest 1s); generic shapes fall back
    to injection enumeration, which is capped at s <= MAX_ENUMERATED_COLORS.
    """
    total = _validate_sizes(c, sizes)
    k = len(sizes)
    if k > c.s:
        return Fraction(0)
    n = c.n
    ordered = tuple(sorted(sizes, reverse=True))

    if all(a == ordered[0] for a in ordered):
        # k blocks of equal size b: k! * e_k of the per-class arrangement counts
        b = ordered[0]
        kn_of_classes = [falling_factorial(ci, b) for ci in c.classes]
        return Fraction(
            math.factorial(k) * elementary_symmetric(kn_of_classes, k),
            falling_factorial(n, k * b),
        )

    if ordered[0] == 2 and all(a == 1 for a in ordered[1:]):
        # one block of 2 and k-1 singletons
        ek = c.elementary(k)
        ek1 = c.elementary(k + 1)
        return Fraction(
            math.factorial(k - 1) * ((n - k) * ek - (k + 1) * ek1),
            falling_factorial(n, k + 1),
        )

    if c.s > MAX_ENUMERATED_COLORS:
        raise ValueError(
            f"no closed form for sizes {tuple(sizes)} and enumeration is "
            f"limited to s <= {MAX_ENUMERATED_COLORS} colors, got s={c.s}"
        )
    acc = Fraction(0)
    for iota in itertools.permutations(range(1, c.s + 1), k):
        acc += prob_fixed_colors(c, sizes, iota)
    return acc
