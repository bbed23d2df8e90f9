"""Random graph models and the concentration ratio criterion.

For a random graph the quantity E[sigma2] / E[m]^2 (degree second moment
over squared expected edge count) decides whether the bichromatic count
concentrates: a ratio vanishing along an n-grid means concentration, a
ratio bounded away from zero means it does not.  This module provides the
four models (Bernoulli pairs, erased configuration, torus geometric,
weight-product), edge_moments, the one exact law of E[m], Var(m) and
E[sigma2] per model that both the closed-form ratio and the star check
Var(m) / E[m]^2 read (neither draws a graph), Monte Carlo estimates with
standard errors (the only part that reads a trial count and a seed), and
trend, the one rule that turns a series over an n-grid into a verdict.

Closed forms are computed with exact rationals whenever the model
parameters are rational; float parameters flow through as floats.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from collections.abc import Callable, Sequence

import numpy as np

from .graph import Graph, parse_int, parse_number, spec_template
from .seeds import stream

# The slopes of trend's power-law fit: at most VANISHING_SLOPE vanishes,
# within FLAT_SLOPE of zero is flat.  RATIO_FLOOR is the floor that the ratio
# criterion and the relative edge-count variance give trend.
VANISHING_SLOPE = -0.5
FLAT_SLOPE = 0.1
RATIO_FLOOR = 0.05


@dataclass(frozen=True)
class DegreeLaw:
    """Finite-support degree distribution with rational probabilities."""

    values: tuple[int, ...]
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) != len(self.probs) or not self.values:
            raise ValueError("degree law needs matching nonempty values/probs")
        if any(v < 0 for v in self.values):
            raise ValueError(f"degrees must be >= 0, got {self.values}")
        if any(p < 0 for p in self.probs) or sum(self.probs) != 1:
            raise ValueError(f"probabilities must be >= 0 and sum to 1, got {self.probs}")
        if self.mean == 0:
            raise ValueError("degree law with zero mean generates no edges")

    @property
    def mean(self) -> Fraction:
        return sum(
            (Fraction(v) * p for v, p in zip(self.values, self.probs)),
            start=Fraction(0),
        )

    @property
    def second_moment(self) -> Fraction:
        return sum(
            (Fraction(v * v) * p for v, p in zip(self.values, self.probs)),
            start=Fraction(0),
        )

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.choice(
            np.asarray(self.values, dtype=np.int64),
            size=size,
            p=[float(p) for p in self.probs],
        )


@dataclass(frozen=True)
class Gnp:
    """Independent Bernoulli(p) edges on all vertex pairs."""

    n: int
    p: Fraction | float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"gnp needs n >= 1, got {self.n}")
        if not (0 <= self.p <= 1):
            raise ValueError(f"gnp needs 0 <= p <= 1, got {self.p}")


@dataclass(frozen=True)
class ConfigModel:
    """Erased configuration model with i.i.d. degrees from `law`.

    Degrees are sampled per vertex; an odd total gets one extra stub at a
    uniformly chosen vertex; stubs are matched uniformly; self-loops and
    parallel edges are then erased.
    """

    n: int
    law: DegreeLaw

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"config needs n >= 1, got {self.n}")


@dataclass(frozen=True)
class GeometricTorus:
    """Uniform points on the unit torus, edges within distance r.

    r <= 1/2 keeps the disk from wrapping onto itself, so the edge
    probability is exactly pi * r^2.
    """

    n: int
    r: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"geometric model needs n >= 1, got {self.n}")
        if not (0 < self.r <= 0.5):
            raise ValueError(f"radius must lie in (0, 1/2], got {self.r}")


@dataclass(frozen=True)
class ChungLu:
    """Independent edges with probability min(1, w_u * w_v / sum(w)).

    With all weights equal to w this reduces exactly to gnp with p = w/n.
    """

    n: int
    weights: tuple[Fraction | int | float, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"weight model needs n >= 1, got {self.n}")
        if len(self.weights) != self.n:
            raise ValueError(
                f"need one weight per vertex: n={self.n}, got {len(self.weights)}"
            )
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")


ModelSpec = Gnp | ConfigModel | GeometricTorus | ChungLu


def star_like(n: int) -> ChungLu:
    """Weight-product model with one heavy vertex: w_1 = n, the rest 1."""
    if n < 2:
        raise ValueError(f"star_like needs n >= 2, got {n}")
    return ChungLu(n, (n,) + (1,) * (n - 1))


# ── generation ────────────────────────────────────────────────────────────


def _decode_pairs(idx: np.ndarray, n: int) -> np.ndarray:
    """(m, 2) endpoint pairs of linearized pair indices in (u, v) order."""
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(np.arange(n - 1, 0, -1, dtype=np.int64), out=starts[1:])
    us = np.searchsorted(starts, idx, side="right") - 1
    return np.column_stack((us, idx - starts[us] + us + 1))


def _bernoulli_pair_edges(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Edge list of independent Bernoulli(p) pairs, in canonical pair order.

    Sparse p uses geometric skipping over the linearized pair index, dense p
    a single vectorized draw; both are deterministic functions of the rng
    state.
    """
    total = n * (n - 1) // 2
    if total == 0 or p <= 0.0:
        return _decode_pairs(np.empty(0, dtype=np.int64), n)
    if p >= 1.0:
        return _decode_pairs(np.arange(total, dtype=np.int64), n)
    if p >= 0.1:
        hits = np.nonzero(rng.random(total) < p)[0]
        return _decode_pairs(hits, n)
    chunks = []
    pos = -1
    while pos < total - 1:
        expect = (total - 1 - pos) * p
        block = max(16, int(expect + 4.0 * math.sqrt(expect) + 10.0))
        # from pos >= -1 a gap of total + 1 already ends the draw; the clip keeps
        # the cumsum from wrapping when p < ~1e-18 saturates draws at 2**63 - 1
        gaps = np.minimum(rng.geometric(p, size=block), total + 1)
        hits = pos + np.cumsum(gaps)
        inside = hits[hits < total]
        chunks.append(inside)
        if len(inside) < len(hits):
            break
        pos = int(hits[-1])
    idx = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    return _decode_pairs(idx, n)


def _torus_edges(pts: np.ndarray, r: float) -> np.ndarray:
    """Sorted (m, 2) pairs i < j of points within torus distance r.

    The points are binned into k x k cells, each wider than r, so a pair can
    only lie in the same or in neighbouring cells (wrapping around).  k is at
    most sqrt(n), so the cell table stays O(n); candidates are then O(n + m).
    Candidates are tested with the float expression an all-pairs test uses,
    so the edge set is the same to the bit.
    """
    n = len(pts)
    k = max(1, int(min(1 / r, math.isqrt(n) + 1)) - 1)  # cell width 1/k > r
    cell = np.minimum((pts * k).astype(np.int64), k - 1)
    key = cell[:, 0] * k + cell[:, 1]
    order = np.argsort(key, kind="stable")
    counts = np.bincount(key, minlength=k * k)
    starts = np.cumsum(counts) - counts
    steps = sorted({s % k for s in (-1, 0, 1)})  # k <= 2 repeats a neighbour
    found = []
    for dx in steps:
        for dy in steps:
            nb = (cell[:, 0] + dx) % k * k + (cell[:, 1] + dy) % k
            reps = counts[nb]
            i = np.repeat(np.arange(n), reps)
            j = order[np.repeat(starts[nb] - np.cumsum(reps) + reps, reps) + np.arange(len(i))]
            keep = i < j
            i, j = i[keep], j[keep]
            diff = np.abs(pts[i] - pts[j])
            diff = np.minimum(diff, 1.0 - diff)
            hit = (diff**2).sum(axis=-1) <= r**2
            found.append(i[hit] * n + j[hit])  # int64 keys that sort like (i, j)
    u, v = np.divmod(np.sort(np.concatenate(found)), n)
    return np.column_stack((u, v))


@dataclass(frozen=True)
class ConfigSample:
    """One erased-configuration draw with its pre-erasure degree statistics."""

    graph: Graph
    pre_degrees: np.ndarray
    pre_m: int
    pre_sigma2: int


def config_sample(spec: ConfigModel, rng: np.random.Generator) -> ConfigSample:
    n = spec.n
    degrees = spec.law.sample(rng, n)
    if int(degrees.sum()) % 2 == 1:
        degrees[int(rng.integers(n))] += 1
    stubs = np.repeat(np.arange(n, dtype=np.int64), degrees)
    # the same swaps as indexing by rng.permutation(len(stubs)), in place
    rng.shuffle(stubs)
    lo, hi = np.minimum(stubs[0::2], stubs[1::2]), np.maximum(stubs[0::2], stubs[1::2])
    keep = lo != hi
    # one int64 key per pair sorts like (u, v); it fits while n * n < 2**63,
    # i.e. n < 3.0e9, where the degree array alone would take 24 GB.  Keys are
    # >= 0, so a sort and a compare with the predecessor drop the repeats
    # (np.unique hashes before it sorts, several times slower)
    keys = np.sort(lo[keep] * n + hi[keep])
    u, v = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
    return ConfigSample(
        graph=Graph.from_edges(n, np.column_stack((u, v))),
        pre_degrees=degrees,
        pre_m=int(degrees.sum()) // 2,
        pre_sigma2=int((degrees * degrees).sum()),
    )


def generate(spec: ModelSpec, rng: np.random.Generator) -> Graph:
    """One graph drawn from the model."""
    if isinstance(spec, Gnp):
        return Graph.from_edges(spec.n, _bernoulli_pair_edges(spec.n, float(spec.p), rng))
    if isinstance(spec, ConfigModel):
        return config_sample(spec, rng).graph
    if isinstance(spec, GeometricTorus):
        return Graph.from_edges(spec.n, _torus_edges(rng.random((spec.n, 2)), spec.r))
    if isinstance(spec, ChungLu):
        w = np.array([float(x) for x in spec.weights])
        total = w.sum()
        iu = np.triu_indices(spec.n, k=1)
        probs = np.minimum(1.0, w[iu[0]] * w[iu[1]] / total)
        hit = rng.random(len(probs)) < probs
        return Graph.from_edges(spec.n, np.column_stack((iu[0][hit], iu[1][hit])))
    raise TypeError(f"unknown model spec {spec!r}")


# ── ratio criterion ───────────────────────────────────────────────────────


@dataclass(frozen=True)
class RatioCriterion:
    """E[sigma2] / E[m]^2 for one model instance.

    Exact rationals in closed form for rational parameters, floats
    otherwise; Monte Carlo mode adds a delta-method standard error.
    """

    n: int
    ratio: Fraction | float | None
    ratio_se: float | None = None
    post_erasure_ratio: float | None = None


def edge_moments(spec: ModelSpec) -> tuple:
    """(E[m], Var(m), E[sigma2]) of one model, exact for rational parameters.

    gnp, cl and starlike have independent edges, and geo has pairwise
    independent ones with probability pi r^2 while r <= 1/2, so it is gnp.
    Grouping the k_b vertices of each weight b (one group for gnp), a vertex
    of weight a has degree mean d_a = sum_b (k_b - [a = b]) p(a, b) and
    variance v_a = sum_b (k_b - [a = b]) p(a, b) (1 - p(a, b)); then
    E[m] = sum_a k_a d_a / 2, Var(m) = sum_a k_a v_a / 2 and
    E[sigma2] = sum_a k_a (v_a + d_a^2).  For config, m is half the stub
    total before the parity stub and before erasure.
    """
    n = spec.n
    if isinstance(spec, ConfigModel):
        mean, second = spec.law.mean, spec.law.second_moment
        return n * mean / 2, n * (second - mean * mean) / 4, n * second
    if isinstance(spec, GeometricTorus):
        return edge_moments(Gnp(n, math.pi * spec.r**2))
    if isinstance(spec, Gnp):
        groups, pair = {0: n}, lambda a, b: spec.p
    elif isinstance(spec, ChungLu):
        groups = {Fraction(w): k for w, k in Counter(spec.weights).items()}
        total = sum(w * k for w, k in groups.items())
        pair = lambda a, b: min(1, a * b / total)
    else:
        raise TypeError(f"unknown model spec {spec!r}")
    # Fraction(0) keeps int sums exact and turns into a float on a float p;
    # the pair sums (k_a k) p are the float product gnp's n (n - 1) p needs
    twice_mean = twice_var = sigma2 = Fraction(0)
    for a, k_a in groups.items():
        d = v = Fraction(0)
        for b, k_b in groups.items():
            p, k = pair(a, b), k_b - (a == b)
            d += k * p
            v += k * p * (1 - p)
            twice_mean += k_a * k * p
            twice_var += k_a * k * p * (1 - p)
        sigma2 += k_a * (v + d * d)
    return twice_mean / 2, twice_var / 2, sigma2


def ratio_closed_form(spec: ModelSpec) -> RatioCriterion:
    """Exact (or numerically evaluated) E[sigma2] / E[m]^2 for one model."""
    mean, _, sigma2 = edge_moments(spec)
    den = mean * mean
    return RatioCriterion(n=spec.n, ratio=None if den == 0 else sigma2 / den)


def _sample_stats(spec: ModelSpec, trials: int, seed: int, key: tuple[int, ...]):
    """Per-trial (sigma2, m) pairs; config uses pre-erasure values and also
    returns the post-erasure pairs for reporting."""
    sig = np.empty(trials)
    ms = np.empty(trials)
    post = np.empty((trials, 2)) if isinstance(spec, ConfigModel) else None
    for t in range(trials):
        rng = stream(seed, *key, t)
        if isinstance(spec, ConfigModel):
            samp = config_sample(spec, rng)
            sig[t] = samp.pre_sigma2
            ms[t] = samp.pre_m
            post[t] = ((samp.graph.degrees**2).sum(), samp.graph.m)
        else:
            g = generate(spec, rng)
            sig[t] = (g.degrees**2).sum()
            ms[t] = g.m
    return sig, ms, post


def ratio_monte_carlo(
    spec: ModelSpec, trials: int, seed: int, key: tuple[int, ...] = ()
) -> RatioCriterion:
    """Estimate E[sigma2] / E[m]^2 from `trials` sampled graphs.

    Per-trial streams are derived from (seed, *key, trial), so the estimate
    is reproducible and independent of evaluation order; `key` separates
    the streams of different grid points sharing one master seed.  For the
    erased configuration model the headline numbers use pre-erasure degrees
    (the quantities the closed form refers to); the post-erasure ratio is
    reported alongside.
    """
    if trials < 2:
        raise ValueError(f"need at least 2 trials for a standard error, got {trials}")
    sig, ms, post = _sample_stats(spec, trials, seed, key)
    mean_sig = float(sig.mean())
    mean_m = float(ms.mean())
    if mean_m == 0.0:
        return RatioCriterion(n=spec.n, ratio=None)
    ratio = mean_sig / mean_m**2
    var_sig = float(sig.var(ddof=1)) / trials
    var_m = float(ms.var(ddof=1)) / trials
    cov = float(np.cov(sig, ms, ddof=1)[0, 1]) / trials
    # delta method for X / Y^2 at (mean_sig, mean_m)
    var_ratio = (
        var_sig / mean_m**4
        + 4.0 * mean_sig**2 * var_m / mean_m**6
        - 4.0 * mean_sig * cov / mean_m**5
    )
    post_ratio = None
    if post is not None and post[:, 1].mean() > 0:
        post_ratio = float(post[:, 0].mean() / post[:, 1].mean() ** 2)
    return RatioCriterion(
        n=spec.n,
        ratio=ratio,
        ratio_se=math.sqrt(max(var_ratio, 0.0)),
        post_erasure_ratio=post_ratio,
    )


def check_grid(ns: Sequence[int]) -> None:
    """Refuse an n-grid that is not strictly increasing: the trend verdicts
    read its last entry as the largest n."""
    if any(a >= b for a, b in zip(ns, ns[1:])):
        raise ValueError(f"grid must be strictly increasing, got {tuple(ns)}")


def fit_power_law(ns: Sequence[int], values: Sequence[float]) -> float:
    """Least-squares slope of log(value) against log(n)."""
    if len(ns) < 2 or len(ns) != len(values):
        raise ValueError("need matching grids of length >= 2")
    if any(v <= 0 for v in values):
        raise ValueError("power-law fit needs positive values")
    return float(np.polyfit(np.log(np.asarray(ns, dtype=float)), np.log(values), 1)[0])


def trend(ns: Sequence[int], values: Sequence, floor: float) -> tuple[float | None, str]:
    """(fitted slope or None, label) of a series over an n-grid; every grid
    verdict reads this rule.  "vanishing": all values 0, or slope <=
    VANISHING_SLOPE and the last value below `floor`.  "flat": every value
    above `floor` and |slope| < FLAT_SLOPE.  Else, a one-point grid, a None
    value and zero mixed with other values included, "inconclusive"."""
    if any(v is None for v in values) or len(ns) < 2:
        return None, "inconclusive"
    vals = [float(v) for v in values]
    if all(v == 0.0 for v in vals):
        return None, "vanishing"
    if any(v <= 0.0 for v in vals):
        return None, "inconclusive"
    slope = fit_power_law(ns, vals)
    if slope <= VANISHING_SLOPE and vals[-1] < floor:
        return slope, "vanishing"
    if min(vals) > floor and abs(slope) < FLAT_SLOPE:
        return slope, "flat"
    return slope, "inconclusive"


@dataclass(frozen=True)
class GridResult:
    """Ratio criterion along an n-grid with the shared trend verdict."""

    points: tuple[RatioCriterion, ...]
    verdict: str


def ratio_over_grid(
    template: Callable[[int], ModelSpec],
    ns: Sequence[int],
    mode: str = "closed_form",
    trials: int = 200,
    seed: int = 0,
) -> GridResult:
    """Evaluate the ratio criterion on each n and classify the trend."""
    if mode not in ("closed_form", "monte_carlo"):
        raise ValueError(f"mode must be closed_form or monte_carlo, got {mode!r}")
    check_grid(ns)
    points = []
    for i, n in enumerate(ns):
        spec = template(int(n))
        if mode == "closed_form":
            points.append(ratio_closed_form(spec))
        else:
            points.append(ratio_monte_carlo(spec, trials, seed, key=(i,)))
    _, label = trend(ns, [p.ratio for p in points], RATIO_FLOOR)
    verdict = {"vanishing": "concentrates", "flat": "anti_concentrates"}.get(label, "inconclusive")
    return GridResult(tuple(points), verdict)


# ── assumption check: Var(m) / E[m]^2 ─────────────────────────────────────


@dataclass(frozen=True)
class StarCheck:
    """Relative edge-count variance along an n-grid and its trend.

    `exponent` is the trend's slope and `holds` means the trend is
    "vanishing" (see trend, with floor RATIO_FLOOR).
    """

    values: tuple[float, ...]
    exponent: float | None
    holds: bool


def assumption_star_check(
    template: Callable[[int], ModelSpec], ns: Sequence[int]
) -> StarCheck:
    """Var(m) / E[m]^2 on an n-grid, from edge_moments, and whether it vanishes."""
    check_grid(ns)
    values = []
    for n in ns:
        mean, var, _ = edge_moments(template(int(n)))
        if mean * mean == 0:
            raise ValueError(f"model at n={n} has no edges: E[m]^2 is 0")
        values.append(float(var / (mean * mean)))
    exponent, label = trend(ns, values, RATIO_FLOOR)
    return StarCheck(values=tuple(values), exponent=exponent, holds=label == "vanishing")


# ── model spec strings ────────────────────────────────────────────────────

# model kind -> the keys its spec must give besides n
MODEL_KEYS = {"gnp": ("p",), "config": ("law",), "geo": ("r",), "cl": ("w",), "starlike": ()}


def _parse_law(text: str) -> DegreeLaw:
    values = []
    probs = []
    for pair in text.split(","):
        v, sep, p = pair.partition(":")
        if not sep:
            raise ValueError(f"degree law entries are value:prob, got {pair!r}")
        values.append(parse_int(v))
        probs.append(parse_number(p))
    return DegreeLaw(tuple(values), tuple(probs))


def _load_weights(path: str) -> tuple:
    with open(path, encoding="utf-8") as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError(f"weight file {path!r} is empty")
    return tuple(parse_number(tok) for tok in tokens)


def _model_maker(kind: str, params: dict[str, str]) -> Callable[[int], ModelSpec]:
    """n -> model for one parsed spec; a law or a weight file is read here,
    once, and p and r are evaluated at each n."""
    if kind == "gnp":
        return lambda n: Gnp(n, parse_number(params["p"], n))
    if kind == "geo":
        return lambda n: GeometricTorus(n, float(parse_number(params["r"], n)))
    if kind == "config":
        law = _parse_law(params["law"])
        return lambda n: ConfigModel(n, law)
    if kind == "cl":
        path = params["w"]
        weights = _load_weights(path)
        params.setdefault("n", str(len(weights)))  # the file fixes n

        def chung_lu(n: int) -> ChungLu:
            if n != len(weights):
                raise ValueError(f"weight file {path!r} has {len(weights)} weights, but n={n}")
            return ChungLu(n, weights)

        return chung_lu
    return star_like


def parse_model_template(text: str) -> Callable[[int | None], ModelSpec]:
    """Model template from a spec string; n is supplied at call time.

    Forms: "gnp:n=500,p=0.1", "config:n=500,law=3:1.0", "geo:n=500,r=0.1",
    "cl:w=weights.txt", "starlike:n=500" (see graph.spec_template;
    MODEL_KEYS lists each kind's keys).  An n given in the string is the
    default; grid evaluation overrides it.  A weight file's count is cl's
    n, and no other n is accepted.  p and r may be expressions in
    n, e.g. "p=4/n" (see graph.parse_number).
    """
    return spec_template(text, MODEL_KEYS, _model_maker, "model")


def parse_model(text: str) -> ModelSpec:
    """One concrete model from a spec string; n must be present."""
    return parse_model_template(text)(None)
