"""Brute-force ground truth by exhaustive enumeration of colorings.

`arrangements` builds every coloring of a composition once, as the rows of
an integer table in lexicographic order, filled in place from the tables of
its sub-compositions.  Each check reads that table: the
joint distribution of the per-color monochromatic counts (M_1, ..., M_s)
and the frequency of block-coloring events.  Everything downstream of the
closed-form moment formulas is validated against this module on small
graphs; it is also the fallback for n < 4 where the variance formulas do
not apply.

The counts come from one gather per graph, not one pass per edge: a chunk
of rows takes the colors of every edge's endpoints at once, about
coloring.BATCH_CELLS (row, edge) cells at a time, and counts each color's
monochromatic edges per row.  The mean and variance of each M_i and of M
are one Fraction each, from that count's integer power sums over the law.

A table has n! / (c_1! ... c_s!) rows of n cells; an explicit budget
(default 10^7) caps the rows, and 32 times it caps the cells.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from collections.abc import Iterator, Sequence

import numpy as np

from . import moments
from .coloring import (
    BATCH_CELLS,
    Composition,
    _validate_iota,
    _validate_sizes,
    prob_distinct_colors,
    prob_fixed_colors,
)
from .graph import Graph, GraphStats, complete, cycle, path, star, stats, threshold_graph
from .randgraph import Gnp, generate
from .seeds import stream

DEFAULT_BUDGET = 10_000_000
CORPUS_SEED = 20291  # master seed of the corpus's Bernoulli graphs


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration would visit more colorings than allowed."""


def total_colorings(c: Composition) -> int:
    """Number of distinct colorings: the multinomial coefficient, as a
    product of binomials, whose cost follows the size of the result."""
    out, left = 1, c.n
    for ci in c.classes:
        out *= math.comb(left, ci)
        left -= ci
    return out


def _check_budget(c: Composition, budget: int) -> int:
    """total_colorings(c); BudgetExceededError if it or its cells / 32 exceed the budget.

    A total more than e^1000 times the budget is refused from its lgamma
    logarithm, before the exact count, which for a balanced composition
    of n = 10^6 takes over ten seconds."""
    log_total = math.lgamma(c.n + 1) - sum(math.lgamma(ci + 1) for ci in c.classes)
    if log_total > math.log(max(budget, 1)) + 1000:
        raise BudgetExceededError(
            f"enumeration would visit about 10^{log_total / math.log(10):.0f} colorings, "
            f"budget is {budget}"
        )
    total = total_colorings(c)
    if total > budget:
        raise BudgetExceededError(f"enumeration would visit {total} colorings, budget is {budget}")
    if total * c.n > 32 * budget:
        raise BudgetExceededError(f"table of {total} x {c.n} cells exceeds 32 x budget {budget}")
    return total


def arrangements(c: Composition, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """Every distinct coloring of c as one row of an (N, n) array of colors
    1..s, rows in lexicographic order; N = total_colorings(c) <= budget.

    The rows that start with color k are k followed by the table of c - e_k,
    N * c_k / n rows.  The table of each remaining-count vector is written
    once and copied to every other place it appears, which is in the same
    columns.
    """
    total = _check_budget(c, budget)
    table = np.empty((total, c.n), dtype=np.min_scalar_type(c.s))
    written: dict[tuple[int, ...], int] = {}  # remaining counts -> first row of their written table
    # (remaining counts, first row, rows) depth first, so a block is complete
    # before any block outside it is taken; a stack, as recursion goes n deep
    stack = [(c.classes, 0, total)]
    while stack:
        left, start, rows = stack.pop()
        col = c.n - sum(left)
        if (src := written.setdefault(left, start)) != start:
            table[start : start + rows, col:] = table[src : src + rows, col:]
            continue
        for k, ck in enumerate(left):
            if ck:
                size = rows * ck // (c.n - col)
                table[start : start + size, col] = k + 1
                stack.append((left[:k] + (ck - 1,) + left[k + 1 :], start, size))
                start += size
    return table


@dataclass(frozen=True)
class ExactDistribution:
    """Joint law of (M_1, ..., M_s) as outcome -> count over all colorings."""

    support: dict[tuple[int, ...], int]
    total: int


def _check_table(c: Composition, table: np.ndarray) -> None:
    """ValueError unless table has the shape of c's arrangement table and
    its first row holds c's color counts; its columns may be permuted."""
    if table.shape != (total_colorings(c), c.n) or np.bincount(
        table[0], minlength=c.s + 1
    ).tolist() != [0, *c.classes]:
        raise ValueError(
            f"table of shape {table.shape} is not an arrangement table of classes {c.classes}"
        )


def enumerate_colorings(g: Graph, c: Composition, table: np.ndarray) -> ExactDistribution:
    """Exact joint distribution of per-color monochromatic counts on g,
    over the rows of c's arrangement table.

    Rows are read in chunks of about BATCH_CELLS (row, edge) cells, so
    beyond the table, the (rows, s) counts and their tabulation (a sorted
    copy and an 8-byte permutation per row) memory stays near a few
    BATCH_CELLS bytes, however many edges g has.
    """
    if g.n != c.n:
        raise ValueError(f"composition covers {c.n} vertices but graph has {g.n}")
    _check_table(c, table)
    per_color = np.empty((len(table), c.s), dtype=np.min_scalar_type(g.m))
    step = max(1, BATCH_CELLS // max(1, g.m))
    for lo in range(0, len(table), step):
        part, out = table[lo : lo + step], per_color[lo : lo + step]
        tu = part[:, g.u]
        same = tu == part[:, g.v]
        for k in range(c.s):
            # at most m per row, so the count fits per_color's dtype
            out[:, k] = (same & (tu == k + 1)).sum(axis=1, dtype=out.dtype)
    # rows sorted by column 0 first, then the runs of equal rows
    rows = per_color[np.lexsort(per_color.T[::-1])]
    starts = np.flatnonzero(np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)])
    freq = np.diff(np.r_[starts, len(rows)])
    support = dict(zip(map(tuple, rows[starts].tolist()), freq.tolist()))
    return ExactDistribution(support=support, total=len(table))


@dataclass(frozen=True)
class OracleMoments:
    """Exact moments read off an ExactDistribution."""

    mean_Mi: tuple[Fraction, ...]
    var_Mi: tuple[Fraction, ...]
    mean_M: Fraction
    var_M: Fraction
    mean_L: Fraction


def exact_moments(dist: ExactDistribution, m: int) -> OracleMoments:
    """Means and variances of each per-color count M_i and of M = sum M_i;
    m is the edge count, needed to place L = m - M.

    Each column x (one M_i, then M) has integer power sums
    s1 = sum(cnt * x) and s2 = sum(cnt * x^2) over the support, so its
    mean s1 / total and variance (total * s2 - s1^2) / total^2 are one
    Fraction each.
    """
    total, counts = dist.total, dist.support.values()
    mean, var = [], []
    for col in [*zip(*dist.support), tuple(map(sum, dist.support))]:
        weighted = [x * cnt for x, cnt in zip(col, counts)]
        s1, s2 = sum(weighted), sum(w * x for w, x in zip(weighted, col))
        mean.append(Fraction(s1, total))
        var.append(Fraction(total * s2 - s1 * s1, total * total))
    return OracleMoments(
        mean_Mi=tuple(mean[:-1]),
        var_Mi=tuple(var[:-1]),
        mean_M=mean[-1],
        var_M=var[-1],
        mean_L=m - mean[-1],
    )


def event_frequency(
    c: Composition,
    table: np.ndarray,
    sizes: Sequence[int],
    iota: Sequence[int] | None = None,
) -> Fraction:
    """Exact probability of a block-coloring event, over the rows of c's
    arrangement table.

    Blocks are consecutive vertex ranges of the given sizes; the probability
    does not depend on that choice.  With `iota`, block j must be colored
    iota[j]; without it, blocks must be monochromatic in pairwise distinct
    colors.
    """
    _validate_sizes(c, sizes)
    if iota is not None:
        _validate_iota(c, sizes, iota)
    _check_table(c, table)
    starts = list(itertools.accumulate(sizes, initial=0))[:-1]
    ok = np.ones(len(table), dtype=bool)
    for start, a in zip(starts, sizes):
        if a > 1:  # a block of one vertex is always monochromatic
            cols = table[:, start : start + a]
            ok &= (cols == cols[:, :1]).all(axis=1)
    block_colors = table[:, starts]
    if iota is not None:
        ok &= (block_colors == np.asarray(iota)).all(axis=1)
    else:
        block_colors.sort(axis=1)
        ok &= (block_colors[:, 1:] != block_colors[:, :-1]).all(axis=1)
    return Fraction(int(np.count_nonzero(ok)), len(table))


# ── verification harness ──────────────────────────────────────────────────
# Shared by the oracle-verify CLI subcommand and the acceptance suite: a
# small corpus of graphs, every 2- and 3-class composition of each order,
# and exact comparison of all closed-form quantities against enumeration.


def compositions_of(n: int, s: int) -> Iterator[tuple[int, ...]]:
    """All ordered compositions of n into s positive parts."""
    for cuts in itertools.combinations(range(1, n), s - 1):
        prev = 0
        parts = []
        for cut in (*cuts, n):
            parts.append(cut - prev)
            prev = cut
        yield tuple(parts)


def corpus_graphs(max_n: int = 8) -> list[tuple[str, Graph]]:
    """Deterministic verification corpus: named families plus seeded
    Bernoulli graphs, all on 4..max_n vertices with at least one edge."""
    if max_n < 4:
        raise ValueError(f"corpus needs max_n >= 4, got {max_n}")
    out: list[tuple[str, Graph]] = []
    for n in range(4, max_n + 1):
        out.append((f"path:{n}", path(n)))
        out.append((f"cycle:{n}", cycle(n)))
        out.append((f"star:{n}", star(n)))
    for n in range(4, min(max_n, 6) + 1):
        out.append((f"complete:{n}", complete(n)))
    out.append(("threshold:IDID", threshold_graph("IDID")))
    orders = list(range(4, max_n + 1))
    for i in range(20):
        n = orders[i % len(orders)]
        for attempt in range(100):
            g = generate(Gnp(n, Fraction(1, 2)), stream(CORPUS_SEED, i, attempt))
            if g.m:
                out.append((f"random:{i}(n={n})", g))
                break
        else:  # pragma: no cover - p(no edges) is astronomically small
            raise RuntimeError("could not draw a nonempty random graph")
    return out


_FIXED_SHAPES = [
    ((2,), (1,)),
    ((2,), (2,)),
    ((3,), (1,)),
    ((1, 1), (1, 2)),
    ((1, 1), (2, 1)),
    ((2, 1), (2, 1)),
    ((2, 2), (1, 2)),
    ((2, 1, 1), (1, 2, 3)),
    ((1, 1, 1), (3, 1, 2)),
]

_DISTINCT_SHAPES = [
    (2,),
    (3,),
    (1, 1),
    (2, 1),
    (2, 2),
    (3, 1),
    (1, 1, 1),
    (2, 1, 1),
    (2, 2, 1),
]


def verify_formulas(
    g: Graph, st: GraphStats, c: Composition, table: np.ndarray
) -> list[tuple[str, bool]]:
    """Compare every closed-form moment on (g, c) with enumeration over c's
    arrangement table; st is stats(g).

    Returns (formula name, exact match) pairs; variance formulas are
    skipped below n = 4 where they are defined to refuse.
    """
    om = exact_moments(enumerate_colorings(g, c, table), g.m)
    rows = []
    for i in range(1, c.s + 1):
        got = moments.mean_Mi(g.m, g.n, c.classes[i - 1])
        rows.append((f"mean_Mi[{i}]", got == om.mean_Mi[i - 1]))
    if g.n >= 4:
        for i in range(1, c.s + 1):
            got = moments.var_Mi(st, c, i)
            rows.append((f"var_Mi[{i}]", got == om.var_Mi[i - 1]))
    mean_m, mean_l = moments.mean_M_L(g.m, c)
    rows.append(("mean_M", mean_m == om.mean_M))
    rows.append(("mean_L", mean_l == om.mean_L))
    if g.n >= 4:
        got = moments.var_common(st, c)
        rows.append(("var_common", got == om.var_M))
    return rows


def verify_events(c: Composition, table: np.ndarray) -> list[tuple[str, bool]]:
    """Compare the block-event probability formulas with enumeration over
    c's arrangement table."""
    rows = []
    n, s = c.n, c.s
    for sizes, iota in _FIXED_SHAPES:
        if sum(sizes) > n or len(sizes) > s or any(i > s for i in iota):
            continue
        got = prob_fixed_colors(c, sizes, iota)
        want = event_frequency(c, table, sizes, iota=iota)
        rows.append((f"prob_fixed{sizes}->{iota}", got == want))
    for sizes in _DISTINCT_SHAPES:
        if sum(sizes) > n or len(sizes) > s:
            continue
        got = prob_distinct_colors(c, sizes)
        want = event_frequency(c, table, sizes)
        rows.append((f"prob_distinct{sizes}", got == want))
    return rows


def run_verification(
    max_n: int = 8, budget: int = DEFAULT_BUDGET
) -> list[tuple[str, tuple[int, ...], str, bool]]:
    """Full oracle sweep: every corpus graph x every 2/3-class composition.

    Yields (graph label, composition, formula, ok) rows; event-probability
    rows are graph-independent and reported once per composition under the
    label "(any graph)".  Each composition's arrangement table is built
    once and read by every graph of its order.
    """
    # an order's largest table is its balanced 3-class one, and it grows with
    # n: refuse the first order past the budget before anything is built
    for n in range(4, max_n + 1):
        _check_budget(Composition.balanced(n, 3), budget)
    graphs = corpus_graphs(max_n=max_n)
    graph_rows = [[] for _ in graphs]
    event_rows = []
    for n in range(4, max_n + 1):
        of_order = [(label, g, stats(g), out) for (label, g), out in zip(graphs, graph_rows) if g.n == n]
        for parts in itertools.chain(compositions_of(n, 2), compositions_of(n, 3)):
            c = Composition(parts)
            table = arrangements(c, budget)
            for label, g, st, out in of_order:
                out.extend((label, parts, f, ok) for f, ok in verify_formulas(g, st, c, table))
            event_rows.extend(("(any graph)", parts, f, ok) for f, ok in verify_events(c, table))
            del table  # so the next table is built with this one freed
    return [row for out in graph_rows for row in out] + event_rows
