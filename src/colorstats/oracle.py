"""Brute-force ground truth by exhaustive enumeration of colorings.

Walks every arrangement of the color multiset in lexicographic order and
tabulates the joint distribution of the per-color monochromatic counts
(M_1, ..., M_s).  Everything downstream of the closed-form moment formulas
is validated against this module on small graphs; it is also the fallback
for n < 4 where the variance formulas do not apply.

The number of arrangements is n! / (c_1! ... c_s!), so enumeration is
guarded by an explicit budget (default 10^7).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from collections.abc import Iterator, Sequence

import numpy as np

from . import moments
from .coloring import Composition, _per_color_counts, prob_distinct_colors, prob_fixed_colors
from .graph import Graph, complete, cycle, path, star, stats, threshold_graph
from .seeds import stream

DEFAULT_BUDGET = 10_000_000
CORPUS_SEED = 20291  # master seed of the corpus's Bernoulli graphs


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration would visit more colorings than allowed."""


def total_colorings(c: Composition) -> int:
    """Number of distinct colorings: the multinomial coefficient."""
    out = math.factorial(c.n)
    for ci in c.classes:
        out //= math.factorial(ci)
    return out


def _check_budget(c: Composition, budget: int) -> int:
    total = total_colorings(c)
    if total > budget:
        raise BudgetExceededError(
            f"enumeration would visit {total} colorings, budget is {budget}"
        )
    return total


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


def _color_word(c: Composition) -> list[int]:
    word = []
    for color, ci in enumerate(c.classes, start=1):
        word.extend([color] * ci)
    return word


@dataclass(frozen=True)
class ExactDistribution:
    """Joint law of (M_1, ..., M_s) as outcome -> count over all colorings."""

    support: dict[tuple[int, ...], int]
    total: int

    def prob(self, outcome: tuple[int, ...]) -> Fraction:
        return Fraction(self.support.get(outcome, 0), self.total)


def enumerate_colorings(
    g: Graph, c: Composition, budget: int = DEFAULT_BUDGET
) -> ExactDistribution:
    """Exact joint distribution of per-color monochromatic counts on g."""
    if g.n != c.n:
        raise ValueError(f"composition covers {c.n} vertices but graph has {g.n}")
    total = _check_budget(c, budget)
    s = c.s
    edges = g.edges
    support: dict[tuple[int, ...], int] = {}
    visited = 0
    for colors in multiset_permutations(_color_word(c)):
        key = tuple(_per_color_counts(edges, colors, s))
        support[key] = support.get(key, 0) + 1
        visited += 1
    assert visited == total, "enumeration count does not match multinomial"
    return ExactDistribution(support=support, total=total)


@dataclass(frozen=True)
class OracleMoments:
    """Exact moments read off an ExactDistribution."""

    mean_Mi: tuple[Fraction, ...]
    var_Mi: tuple[Fraction, ...]
    cov_Mi: tuple[tuple[Fraction, ...], ...]
    mean_M: Fraction
    var_M: Fraction
    mean_L: Fraction
    var_L: Fraction


def exact_moments(dist: ExactDistribution, m: int) -> OracleMoments:
    """Means, variances, and covariances of the per-color counts; m is the
    edge count, needed to place L = m - M."""
    s = len(next(iter(dist.support)))
    total = dist.total
    e1 = [Fraction(0)] * s
    e2 = [[Fraction(0)] * s for _ in range(s)]
    for outcome, cnt in dist.support.items():
        for i in range(s):
            e1[i] += Fraction(outcome[i] * cnt, total)
            for j in range(s):
                e2[i][j] += Fraction(outcome[i] * outcome[j] * cnt, total)
    cov = tuple(
        tuple(e2[i][j] - e1[i] * e1[j] for j in range(s)) for i in range(s)
    )
    mean_m = sum(e1, start=Fraction(0))
    var_m = sum(
        (cov[i][j] for i in range(s) for j in range(s)), start=Fraction(0)
    )
    return OracleMoments(
        mean_Mi=tuple(e1),
        var_Mi=tuple(cov[i][i] for i in range(s)),
        cov_Mi=cov,
        mean_M=mean_m,
        var_M=var_m,
        mean_L=m - mean_m,
        var_L=var_m,
    )


def event_frequency(
    c: Composition,
    sizes: Sequence[int],
    iota: Sequence[int] | None = None,
    sets: Sequence[Sequence[int]] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> Fraction:
    """Exact probability of a block-coloring event, by enumeration.

    Blocks default to consecutive vertex ranges of the given sizes; the
    probability does not depend on that choice, and `sets` lets tests
    verify exactly that.  With `iota`, block j must be colored iota[j];
    without it, blocks must be monochromatic in pairwise distinct colors.
    """
    if sets is None:
        sets = []
        start = 0
        for a in sizes:
            sets.append(range(start, start + a))
            start += a
    else:
        if len(sets) != len(sizes) or any(
            len(block) != a for block, a in zip(sets, sizes)
        ):
            raise ValueError("explicit sets must match the given sizes")
        flat = [v for block in sets for v in block]
        if len(set(flat)) != len(flat):
            raise ValueError("explicit sets must be disjoint")
        if any(not (0 <= v < c.n) for v in flat):
            raise ValueError(f"set vertices out of range for n={c.n}")
    total = _check_budget(c, budget)
    favorable = 0
    for colors in multiset_permutations(_color_word(c)):
        if iota is not None:
            ok = all(
                all(colors[v] == want for v in block)
                for block, want in zip(sets, iota)
            )
        else:
            block_colors = []
            ok = True
            for block in sets:
                it = iter(block)
                first = colors[next(it)]
                if any(colors[v] != first for v in it):
                    ok = False
                    break
                block_colors.append(first)
            ok = ok and len(set(block_colors)) == len(block_colors)
        if ok:
            favorable += 1
    return Fraction(favorable, total)


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
        pairs = np.column_stack(np.triu_indices(n, k=1))
        for attempt in range(100):
            keep = stream(CORPUS_SEED, i, attempt).random(len(pairs)) < 0.5
            if keep.any():
                out.append((f"random:{i}(n={n})", Graph.from_edges(n, pairs[keep])))
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
    g: Graph, c: Composition, budget: int = DEFAULT_BUDGET
) -> list[tuple[str, bool]]:
    """Compare every closed-form moment on (g, c) with enumeration.

    Returns (formula name, exact match) pairs; variance formulas are
    skipped below n = 4 where they are defined to refuse.
    """
    dist = enumerate_colorings(g, c, budget=budget)
    om = exact_moments(dist, g.m)
    st = stats(g)
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
        rows.append(("var_common", got == om.var_M and got == om.var_L))
    return rows


def verify_events(
    c: Composition, budget: int = DEFAULT_BUDGET
) -> list[tuple[str, bool]]:
    """Compare the block-event probability formulas with enumeration."""
    rows = []
    n, s = c.n, c.s
    for sizes, iota in _FIXED_SHAPES:
        if sum(sizes) > n or len(sizes) > s or any(i > s for i in iota):
            continue
        got = prob_fixed_colors(c, sizes, iota)
        want = event_frequency(c, sizes, iota=iota, budget=budget)
        rows.append((f"prob_fixed{sizes}->{iota}", got == want))
    for sizes in _DISTINCT_SHAPES:
        if sum(sizes) > n or len(sizes) > s:
            continue
        got = prob_distinct_colors(c, sizes)
        want = event_frequency(c, sizes, budget=budget)
        rows.append((f"prob_distinct{sizes}", got == want))
    return rows


def run_verification(
    max_n: int = 8, budget: int = DEFAULT_BUDGET
) -> list[tuple[str, tuple[int, ...], str, bool]]:
    """Full oracle sweep: every corpus graph x every 2/3-class composition.

    Yields (graph label, composition, formula, ok) rows; event-probability
    rows are graph-independent and reported once per composition under the
    label "(any graph)".
    """
    rows = []
    graphs = corpus_graphs(max_n=max_n)
    comps_by_n: dict[int, list[tuple[int, ...]]] = {}
    for n in sorted({g.n for _, g in graphs}):
        comps_by_n[n] = [
            parts for s in (2, 3) if s <= n for parts in compositions_of(n, s)
        ]
    for label, g in graphs:
        for parts in comps_by_n[g.n]:
            c = Composition(parts)
            for formula, ok in verify_formulas(g, c, budget=budget):
                rows.append((label, parts, formula, ok))
    for n, comps in comps_by_n.items():
        for parts in comps:
            c = Composition(parts)
            for formula, ok in verify_events(c, budget=budget):
                rows.append(("(any graph)", parts, formula, ok))
    return rows
