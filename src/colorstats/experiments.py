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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from collections.abc import Callable, Sequence

import numpy as np

from .coloring import Composition, count_batch, sample_batch
from .graph import Graph, graph_template, parse_rational, write_text
from .moments import full_report, pz_lower_bound, record_json, records_csv
from .randgraph import MODEL_PARAMS, ModelSpec, fit_power_law, generate, parse_model_template
from .seeds import stream

# Regime thresholds: the dispersion ratio is treated as order-one when it
# exceeds ZETA_THRESHOLD at the largest n without a decreasing power-law
# trend, and an imbalance is persistent when it exceeds IMBALANCE_THRESHOLD
# at every grid point.  Both are finite-grid proxies for asymptotic
# statements; the CLI exposes flags to override them.
ZETA_THRESHOLD = 0.2
IMBALANCE_THRESHOLD = 1e-3
PZ_THETA = Fraction(1, 2)  # deviation level of each regime row's pz_bound
SE_BAND = 4.0  # run_comparison's tolerance, in standard errors


def parse_coloring_rule(text: str) -> Callable[[int], Composition]:
    """Coloring rule from "balanced:s" or a comma list of ratios ("3/4,1/4")."""
    text = text.strip()
    if text.lower().startswith("balanced"):
        _, sep, s = text.partition(":")
        if not sep:
            raise ValueError("balanced rule needs a class count, e.g. balanced:2")
        s_int = int(s)
        return lambda n: Composition.balanced(n, s_int)
    ratios = tuple(parse_rational(tok) for tok in text.split(","))
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

    @property
    def is_random(self) -> bool:
        kind = self.graph.partition(":")[0].strip().lower()
        return kind in MODEL_PARAMS

    def graph_for(self, n: int) -> Graph:
        return graph_template(self.graph)(n)

    def model_for(self, n: int) -> ModelSpec:
        return parse_model_template(self.graph)(n)

    def composition_for(self, n: int) -> Composition:
        return parse_coloring_rule(self.coloring)(n)


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


def _empirical_fixed(g: Graph, c: Composition, trials: int, rng) -> tuple[float, float]:
    ms = count_batch(g, sample_batch(c, trials, rng))
    return float(ms.mean()), float(ms.var(ddof=1))


def _empirical_random(
    model: ModelSpec, c: Composition, trials: int, seed: int, n: int
) -> tuple[float, float]:
    base = np.repeat(np.arange(1, c.s + 1, dtype=np.int64), c.classes)
    ms = np.empty(trials)
    for t in range(trials):
        rng = stream(seed, n, 2, t)
        g = generate(model, rng)
        colors = base.copy()
        rng.shuffle(colors)
        ms[t] = count_batch(g, colors[None, :])[0]
    return float(ms.mean()), float(ms.var(ddof=1))


def _regime_point(family: FamilySpec, n: int, trials: int, seed: int):
    c = family.composition_for(n)
    if family.is_random:
        # exact columns come from one representative draw; the empirical
        # columns average over fresh graphs per trial
        model = family.model_for(n)
        for attempt in range(100):
            g = generate(model, stream(seed, n, 0, attempt))
            if g.m > 0:
                break
        else:
            raise ValueError(f"model {family.graph!r} at n={n} keeps coming up edgeless")
        report = full_report(g, c)
        emp = (
            _empirical_random(model, c, trials, seed, n) if trials > 0 else (None, None)
        )
    else:
        g = family.graph_for(n)
        report = full_report(g, c)
        emp = (
            _empirical_fixed(g, c, trials, stream(seed, n, 1))
            if trials > 0
            else (None, None)
        )
    return report, emp


def _classify(
    grid: Sequence[int],
    zetas: Sequence[Fraction],
    imbalances: Sequence[Fraction],
    zeta_threshold: float,
    imbalance_threshold: float,
) -> str:
    vals = [float(z) for z in zetas]
    flat = float(zetas[-1]) > zeta_threshold
    if flat and len(grid) >= 2 and all(v > 0 for v in vals):
        flat = fit_power_law(grid, vals) > -0.1
    persistent = all(float(b) > imbalance_threshold for b in imbalances)
    return "anti_concentration" if (flat and persistent) else "concentration"


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
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(
                pool.map(lambda n: _regime_point(family, n, trials, seed), grid)
            )
    else:
        results = [_regime_point(family, n, trials, seed) for n in grid]
    regime = _classify(
        grid,
        [rep.zeta_sq for rep, _ in results],
        [rep.imbalance_sq for rep, _ in results],
        zeta_threshold,
        imbalance_threshold,
    )
    rows = []
    for n, (rep, (emp_mean, emp_var)) in zip(grid, results):
        rows.append(
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
        )
    return rows


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
    """Sample `trials` colorings of g and compare M's moments to the formulas."""
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    report = full_report(g, c)
    ms = count_batch(g, sample_batch(c, trials, stream(seed))).astype(np.float64)
    emp_mean = float(ms.mean())
    emp_var = float(ms.var(ddof=1))
    se_mean = math.sqrt(emp_var / trials)
    centered = ms - emp_mean
    m4 = float((centered**4).mean())
    var_of_var = (m4 - (trials - 3) / (trials - 1) * emp_var**2) / trials
    se_var = math.sqrt(max(var_of_var, 0.0))
    exact_mean = report.mean_M
    exact_var = report.var_common
    if se_mean == 0.0:
        mean_ok = emp_mean == float(exact_mean)
    else:
        mean_ok = abs(emp_mean - float(exact_mean)) <= SE_BAND * se_mean
    if se_var == 0.0:
        var_ok = emp_var == float(exact_var)
    else:
        var_ok = abs(emp_var - float(exact_var)) <= SE_BAND * se_var
    return ComparisonRecord(
        n=g.n,
        m=g.m,
        classes=c.classes,
        trials=trials,
        exact_mean=exact_mean,
        exact_var=exact_var,
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
