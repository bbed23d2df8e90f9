"""Sweep harness: regime classification along n-grids and MC cross-checks.

A family couples a graph family (deterministic generator or random model
template) with a coloring rule (balanced classes or fixed ratios) over an
n-grid.  run_regime evaluates the exact dispersion/imbalance diagnostics
per grid point, optionally adds empirical moments from sampled colorings,
and classifies the predicted regime; run_comparison checks one cell's
empirical moments against the exact formulas at 4 standard errors.

Emission is deterministic and follows the record's dataclass fields
(moments.record_json, moments.records_csv): keys or columns come in field
order, and every rational is written as {"num", "den"} followed by its
float mirror, or as num, den and float columns in CSV.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from collections.abc import Callable, Mapping, Sequence

from .coloring import Composition, count_batch, sample, sample_counts
from .graph import Graph, graph_template, parse_number, write_text
from .moments import full_report, pz_lower_bound, record_json, records_csv
from .randgraph import MODEL_KEYS, ModelSpec, check_draws, check_grid, generate, parse_model_template, trend
from .seeds import stream
from .symfun import power_sums

# Regime thresholds: the floors of randgraph.trend for zeta^2 and for the
# imbalance.  Both are finite-grid proxies for asymptotic statements; the
# CLI exposes flags to override them.
ZETA_THRESHOLD = 0.2
IMBALANCE_THRESHOLD = 1e-3
PZ_THETA = Fraction(1, 2)  # deviation level of each regime row's pz_bound
SE_BAND = 4.0  # run_comparison's tolerance, in standard errors


def balanced_classes(text: str) -> int | None:
    """The class count s of a "balanced:s" class list; None for any other list."""
    kind, _, s = text.partition(":")
    if kind.strip().lower() != "balanced":
        return None
    if not s.strip().isdecimal():
        raise ValueError(f"balanced rule needs a whole class count, e.g. balanced:2, got {s.strip()!r}")
    return int(s)


def parse_coloring_rule(text: str) -> Callable[[int], Composition]:
    """Coloring rule from "balanced:s" or a comma list of ratios ("3/4,1/4")."""
    s = balanced_classes(text)
    if s is not None:
        return lambda n: Composition.balanced(n, s)
    ratios = tuple(parse_number(tok) for tok in text.split(","))
    return lambda n: Composition.from_ratios(n, ratios)


@dataclass(frozen=True)
class FamilySpec:
    """A graph family, a coloring rule, and the n-grid to sweep.

    graph is either a deterministic family understood by
    graph.graph_template ("star", "circulant:d=4", ...) or a random model
    template understood by randgraph.parse_model_template.
    """

    graph: str
    coloring: str
    grid: tuple[int, ...]

    def __post_init__(self):
        if len(self.grid) < 1:
            raise ValueError("family grid must be nonempty")
        if any(n < 4 for n in self.grid):
            raise ValueError(f"grid entries must be >= 4, got {self.grid}")
        check_grid(self.grid)

    @property
    def is_random(self) -> bool:
        kind = self.graph.partition(":")[0].strip().lower()
        return kind in MODEL_KEYS


@dataclass(frozen=True)
class RegimeRow:
    """Exact diagnostics (plus optional empirical moments) at one grid point."""

    n: int
    zeta_sq: Fraction
    rho: Fraction
    imbalance_sq: Fraction
    normalized_var: Fraction
    rho_zeta_product: Fraction
    pz_bound: Fraction
    empirical_mean: float | None
    empirical_var: float | None
    predicted_regime: str


def sampled_moments(law: Mapping[int, int]) -> tuple[Fraction, Fraction, Fraction]:
    """Exact mean, unbiased variance and fourth central moment sum cnt (x -
    s1/t)^4 / t of a law of t >= 2 trials (value x -> cnt), from its power sums."""
    t, s1, s2, s3, s4 = power_sums(law.keys(), law.values(), 4)
    m4 = t**3 * s4 - 4 * t * t * s1 * s3 + 6 * t * s1 * s1 * s2 - 3 * s1**4
    return Fraction(s1, t), Fraction(t * s2 - s1 * s1, t * (t - 1)), Fraction(m4, t**4)


def _empirical_random(model: ModelSpec, c: Composition, trials: int, seed: int, n: int) -> Counter:
    """Law of M over `trials` fresh graphs, one coloring each; refused first by check_draws."""
    check_draws(model, trials)
    law = Counter()
    for t in range(trials):
        rng = stream(seed, n, 2, t)
        g = generate(model, rng)
        law[int(count_batch(g, sample(c, rng)[None, :])[0])] += 1
    return law


def _regime_point(family: FamilySpec, at: Callable, rule: Callable, n: int, trials: int, seed: int):
    """Exact report and empirical mean and variance at n; `at` and `rule`
    are the family's graph or model template and its coloring rule."""
    c = rule(n)
    if family.is_random:
        # exact columns come from one representative draw; the empirical
        # columns average over fresh graphs per trial
        model = at(n)
        for attempt in range(100):
            g = generate(model, stream(seed, n, 0, attempt))
            if g.m > 0:
                break
        else:
            raise ValueError(f"model {family.graph!r} at n={n} keeps coming up edgeless")
    else:
        g = at(n)
    report = full_report(g, c)
    if trials == 0:
        return report, (None, None)
    law = (_empirical_random(model, c, trials, seed, n) if family.is_random
           else sample_counts(g, c, trials, stream(seed, n, 1)))
    mean, var, _ = sampled_moments(law)
    return report, (float(mean), float(var))


def run_regime(
    family: FamilySpec,
    trials: int = 0,
    seed: int = 0,
    zeta_threshold: float = ZETA_THRESHOLD,
    imbalance_threshold: float = IMBALANCE_THRESHOLD,
    threads: int = 1,
) -> list[RegimeRow]:
    """Sweep the family grid; returns one RegimeRow per n.

    With trials > 0 each point also gets empirical mean/variance of the
    monochromatic count (for random families: over fresh graphs per trial).
    Work is keyed by (seed, n), so the output is independent of `threads`.
    """
    if trials != 0 and trials < 2:
        raise ValueError(f"trials must be 0 (exact only) or at least 2, got {trials}")
    grid = family.grid
    at = (parse_model_template if family.is_random else graph_template)(family.graph)
    rule = parse_coloring_rule(family.coloring)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda n: _regime_point(family, at, rule, n, trials, seed), grid))
    else:
        # in the caller's thread: a one-worker pool gives each call a fresh
        # thread and malloc arena, and the process's peak RSS then varies
        results = [_regime_point(family, at, rule, n, trials, seed) for n in grid]
    # anti-concentration needs zeta^2 = Theta(1) and a persisting imbalance;
    # either one vanishing means concentration
    labels = {
        trend(grid, [rep.zeta_sq for rep, _ in results], zeta_threshold)[1],
        trend(grid, [rep.imbalance_sq for rep, _ in results], imbalance_threshold)[1],
    }
    if "vanishing" in labels:
        regime = "concentration"
    elif labels == {"flat"}:
        regime = "anti_concentration"
    else:
        regime = "inconclusive"
    return [
        RegimeRow(
            n=n,
            zeta_sq=rep.zeta_sq,
            rho=rep.rho,
            imbalance_sq=rep.imbalance_sq,
            normalized_var=rep.normalized_var,
            rho_zeta_product=rep.rho * rep.zeta_sq,
            pz_bound=pz_lower_bound(PZ_THETA, rep.var_common, rep.m),
            empirical_mean=emp_mean,
            empirical_var=emp_var,
            predicted_regime=regime,
        )
        for n, (rep, (emp_mean, emp_var)) in zip(grid, results)
    ]


@dataclass(frozen=True)
class ComparisonRecord:
    """Empirical vs exact moments of M for one cell, with 4-SE checks.

    The variance check uses the fourth-moment standard error of the sample
    variance; a degenerate cell (zero exact variance) requires exact
    agreement.
    """

    n: int
    m: int
    classes: tuple[int, ...]
    trials: int
    exact_mean: Fraction
    exact_var: Fraction
    empirical_mean: float
    empirical_var: float
    se_mean: float
    se_var: float
    mean_ok: bool
    var_ok: bool


def run_comparison(
    g: Graph, c: Composition, trials: int, seed: int
) -> ComparisonRecord:
    """Sample `trials` colorings of g and compare M's moments to the formulas.

    coloring.sample_counts draws and counts them a block of rows at a time
    into M's sampled law, never a (trials, n) matrix or a per-trial vector;
    sampled_moments reads the mean, the unbiased variance and the fourth
    central moment from it exactly, each rounded to float once."""
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    report = full_report(g, c)
    emp_mean, emp_var, m4 = map(float, sampled_moments(sample_counts(g, c, trials, stream(seed))))
    se_mean = math.sqrt(emp_var / trials)
    var_of_var = (m4 - (trials - 3) / (trials - 1) * emp_var**2) / trials
    se_var = math.sqrt(max(var_of_var, 0.0))
    # a zero standard error asks for exact agreement
    mean_ok = abs(emp_mean - float(report.mean_M)) <= SE_BAND * se_mean
    var_ok = abs(emp_var - float(report.var_common)) <= SE_BAND * se_var
    return ComparisonRecord(
        n=g.n,
        m=g.m,
        classes=c.classes,
        trials=trials,
        exact_mean=report.mean_M,
        exact_var=report.var_common,
        empirical_mean=emp_mean,
        empirical_var=emp_var,
        se_mean=se_mean,
        se_var=se_var,
        mean_ok=mean_ok,
        var_ok=var_ok,
    )


# ── emission ──────────────────────────────────────────────────────────────


def emit(rows: Sequence[RegimeRow], fmt: str, path_or_file) -> None:
    """Write rows as a JSON array or CSV table; output is deterministic."""
    if fmt == "json":
        text = json.dumps([record_json(r) for r in rows], indent=2) + "\n"
    elif fmt == "csv":
        text = records_csv(RegimeRow, rows)
    else:
        raise ValueError(f"format must be json or csv, got {fmt!r}")
    write_text(text, path_or_file)
