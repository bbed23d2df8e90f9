"""Random graph models and the concentration ratio criterion.

For a random graph the quantity E[sigma2] / E[m]^2 (degree second moment
over squared expected edge count) decides whether the bichromatic count
concentrates: a ratio vanishing along an n-grid means concentration, a
ratio bounded away from zero means it does not.  This module provides the
four models (Bernoulli pairs, erased configuration, torus geometric,
weight-product), exact closed-form ratios where the model admits them,
Monte Carlo estimates with standard errors, and the grid-trend classifier.

Closed forms are computed with exact rationals whenever the model
parameters are rational; float parameters flow through as floats.
"""

from __future__ import annotations

import ast
import dataclasses
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from collections.abc import Callable, Sequence

import numpy as np

from .graph import Graph, parse_params, parse_rational
from .seeds import stream

# Grid verdict thresholds.  "concentrates": fitted power-law exponent of the
# ratio over the n-grid at most CONC_EXPONENT and final ratio below
# FINAL_THRESHOLD.  "anti_concentrates": every ratio above FINAL_THRESHOLD
# with fitted exponent within FLAT_EXPONENT of zero.  Anything else is
# "inconclusive".
FINAL_THRESHOLD = 0.05
CONC_EXPONENT = -0.5
FLAT_EXPONENT = 0.1


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

    def label(self) -> str:
        return f"gnp(n={self.n},p={_num_str(self.p)})"


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

    def label(self) -> str:
        parts = ",".join(
            f"{v}:{_num_str(p)}" for v, p in zip(self.law.values, self.law.probs)
        )
        return f"config(n={self.n},law={parts})"


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

    def label(self) -> str:
        return f"geo(n={self.n},r={_num_str(self.r)})"


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

    def label(self) -> str:
        if len(set(self.weights)) <= 2:
            return f"cl(n={self.n},w={{{','.join(sorted({_num_str(w) for w in self.weights}))}}})"
        return f"cl(n={self.n},w=<{self.n} weights>)"


ModelSpec = Gnp | ConfigModel | GeometricTorus | ChungLu


def star_like(n: int) -> ChungLu:
    """Weight-product model with one heavy vertex: w_1 = n, the rest 1."""
    if n < 2:
        raise ValueError(f"star_like needs n >= 2, got {n}")
    return ChungLu(n, (n,) + (1,) * (n - 1))


def _num_str(x) -> str:
    if isinstance(x, Fraction):
        return str(x)
    return repr(x) if isinstance(x, float) else str(x)


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
        gaps = rng.geometric(p, size=block)
        hits = pos + np.cumsum(gaps)
        inside = hits[hits < total]
        chunks.append(inside)
        if len(inside) < len(hits):
            break
        pos = int(hits[-1])
    idx = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    return _decode_pairs(idx, n)


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
    pairs = np.sort(stubs[rng.permutation(len(stubs))].reshape(-1, 2), axis=1)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    return ConfigSample(
        graph=Graph.from_edges(n, np.unique(pairs, axis=0)),
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
        pts = rng.random((spec.n, 2))
        diff = np.abs(pts[:, None, :] - pts[None, :, :])
        diff = np.minimum(diff, 1.0 - diff)
        d2 = (diff**2).sum(axis=-1)
        iu = np.triu_indices(spec.n, k=1)
        hit = d2[iu] <= spec.r**2
        return Graph.from_edges(spec.n, np.column_stack((iu[0][hit], iu[1][hit])))
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
    otherwise; Monte Carlo mode adds a delta-method standard error.  The
    verdict field only leaves "inconclusive" when the point was evaluated
    as part of an n-grid (concentration is a statement about a limit, not
    about any single n).
    """

    model: str
    n: int
    numerator: Fraction | float
    denominator: Fraction | float
    ratio: Fraction | float | None
    mode: str
    verdict: str = "inconclusive"
    ratio_se: float | None = None
    post_erasure_ratio: float | None = None


def _chung_lu_pairwise(spec: ChungLu):
    """Group weights by value; yields exact per-pair probabilities."""
    w = [Fraction(x) for x in spec.weights]
    total = sum(w)
    groups: dict[Fraction, int] = {}
    for x in w:
        groups[x] = groups.get(x, 0) + 1
    vals = sorted(groups)
    p = {
        (a, b): min(Fraction(1), a * b / total)
        for i, a in enumerate(vals)
        for b in vals[i:]
    }

    def prob(a: Fraction, b: Fraction) -> Fraction:
        return p[(a, b)] if (a, b) in p else p[(b, a)]

    return vals, groups, prob


def ratio_closed_form(spec: ModelSpec) -> RatioCriterion:
    """Exact (or numerically evaluated) E[sigma2] / E[m]^2 for one model."""
    n = spec.n
    if isinstance(spec, Gnp):
        p = spec.p
        mean_d = (n - 1) * p
        mean_d2 = mean_d * (1 - p) + mean_d * mean_d
        num = n * mean_d2
        den_root = Fraction(n * (n - 1), 2) * p if isinstance(p, (Fraction, int)) else n * (n - 1) / 2 * p
        den = den_root * den_root
    elif isinstance(spec, ConfigModel):
        num = n * spec.law.second_moment
        den_root = Fraction(n, 2) * spec.law.mean
        den = den_root * den_root
    elif isinstance(spec, GeometricTorus):
        return dataclasses.replace(
            ratio_closed_form(Gnp(n, math.pi * spec.r**2)),
            model=spec.label(),
        )
    elif isinstance(spec, ChungLu):
        vals, groups, prob = _chung_lu_pairwise(spec)
        num = Fraction(0)
        mean_m2 = Fraction(0)
        for a in vals:
            mean_d = sum(
                (Fraction(groups[b]) * prob(a, b) for b in vals), start=Fraction(0)
            ) - prob(a, a)
            var_d = sum(
                (Fraction(groups[b]) * prob(a, b) * (1 - prob(a, b)) for b in vals),
                start=Fraction(0),
            ) - prob(a, a) * (1 - prob(a, a))
            num += groups[a] * (var_d + mean_d * mean_d)
            mean_m2 += groups[a] * mean_d
        den_root = mean_m2 / 2
        den = den_root * den_root
    else:
        raise TypeError(f"unknown model spec {spec!r}")
    ratio = None if den == 0 else num / den
    return RatioCriterion(
        model=spec.label(),
        n=n,
        numerator=num,
        denominator=den,
        ratio=ratio,
        mode="closed_form",
    )


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
        return RatioCriterion(
            model=spec.label(),
            n=spec.n,
            numerator=mean_sig,
            denominator=0.0,
            ratio=None,
            mode="monte_carlo",
        )
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
        model=spec.label(),
        n=spec.n,
        numerator=mean_sig,
        denominator=mean_m**2,
        ratio=ratio,
        mode="monte_carlo",
        ratio_se=math.sqrt(max(var_ratio, 0.0)),
        post_erasure_ratio=post_ratio,
    )


def fit_power_law(ns: Sequence[int], values: Sequence[float]) -> float:
    """Least-squares slope of log(value) against log(n)."""
    if len(ns) < 2 or len(ns) != len(values):
        raise ValueError("need matching grids of length >= 2")
    if any(v <= 0 for v in values):
        raise ValueError("power-law fit needs positive values")
    return float(np.polyfit(np.log(np.asarray(ns, dtype=float)), np.log(values), 1)[0])


def classify_ratio_trend(ns: Sequence[int], ratios: Sequence[Fraction | float | None]) -> str:
    """Grid verdict from the ratio trend; thresholds documented at module top."""
    if any(r is None for r in ratios) or len(ns) < 2:
        return "inconclusive"
    vals = [float(r) for r in ratios]
    if all(v == 0.0 for v in vals):
        return "concentrates"
    if any(v <= 0.0 for v in vals):
        return "inconclusive"
    slope = fit_power_law(ns, vals)
    if slope <= CONC_EXPONENT and vals[-1] < FINAL_THRESHOLD:
        return "concentrates"
    if min(vals) > FINAL_THRESHOLD and abs(slope) < FLAT_EXPONENT:
        return "anti_concentrates"
    return "inconclusive"


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
    points = []
    for i, n in enumerate(ns):
        spec = template(int(n))
        if mode == "closed_form":
            points.append(ratio_closed_form(spec))
        else:
            points.append(ratio_monte_carlo(spec, trials, seed, key=(i,)))
    verdict = classify_ratio_trend(list(ns), [p.ratio for p in points])
    return GridResult(
        points=tuple(dataclasses.replace(p, verdict=verdict) for p in points),
        verdict=verdict,
    )


# ── assumption check: Var(m) / E[m]^2 ─────────────────────────────────────


@dataclass(frozen=True)
class StarCheck:
    """Relative edge-count variance along an n-grid and its trend.

    `holds` means the variance ratio trends to zero: either identically
    zero (deterministic edge count) or fitted exponent <= -1/2.
    """

    ns: tuple[int, ...]
    values: tuple[float, ...]
    exponent: float | None
    holds: bool


def _edge_count_samples(spec: ModelSpec, trials: int, rng: np.random.Generator) -> np.ndarray:
    """Samples of the edge count m under the model.

    gnp and the configuration model admit direct sampling from the exact
    law of m (binomial count, half the stub total); other models fall back
    to generating graphs.
    """
    if isinstance(spec, Gnp):
        return rng.binomial(spec.n * (spec.n - 1) // 2, float(spec.p), size=trials).astype(
            np.float64
        )
    if isinstance(spec, ConfigModel):
        sums = spec.law.sample(rng, (trials, spec.n)).sum(axis=1)
        sums = sums + (sums % 2)  # odd totals get one extra stub
        return (sums // 2).astype(np.float64)
    return np.array([float(generate(spec, rng).m) for _ in range(trials)])


def assumption_star_check(
    template: Callable[[int], ModelSpec],
    ns: Sequence[int],
    trials: int = 400,
    seed: int = 0,
) -> StarCheck:
    """Estimate Var(m) / E[m]^2 on an n-grid and report whether it vanishes."""
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    values = []
    for i, n in enumerate(ns):
        ms = _edge_count_samples(template(int(n)), trials, stream(seed, i))
        mean = ms.mean()
        if mean == 0.0:
            raise ValueError(f"model at n={n} generated no edges in {trials} trials")
        values.append(float(ms.var(ddof=1)) / float(mean) ** 2)
    if all(v == 0.0 for v in values):
        exponent, holds = None, True
    elif any(v <= 0.0 for v in values):
        exponent, holds = None, False
    else:
        exponent = fit_power_law(ns, values)
        holds = exponent <= -0.5
    return StarCheck(
        ns=tuple(int(n) for n in ns),
        values=tuple(values),
        exponent=exponent,
        holds=holds,
    )


# ── model spec strings ────────────────────────────────────────────────────

# model kind -> the parameter its spec string must give (None: n only)
MODEL_PARAMS = {"gnp": "p", "config": "law", "geo": "r", "cl": "w", "starlike": None}

_PARAM_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
}
_PARAM_FUNCS = {"sqrt": math.sqrt, "log": math.log}
# a power may not exceed 2**MAX_POWER_BITS in magnitude, so n**n**n fails
# at once instead of running away
MAX_POWER_BITS = 1024


def _eval_node(node: ast.AST, n: int):
    match node:
        case ast.Constant(value=int() | float() as v) if type(v) is not bool:
            return v
        case ast.Name(id="n"):
            return n
        case ast.Name(id="pi"):
            return math.pi
        case ast.UnaryOp(op=ast.USub(), operand=x):
            return -_eval_node(x, n)
        case ast.BinOp(left=x, op=ast.Pow(), right=y):
            base, exp = _eval_node(x, n), _eval_node(y, n)
            if abs(exp) * math.log2(max(abs(base), 2)) > MAX_POWER_BITS:
                raise ValueError(f"power exceeds 2**{MAX_POWER_BITS}")
            return base**exp
        case ast.BinOp(left=x, op=op, right=y) if type(op) in _PARAM_OPS:
            return _PARAM_OPS[type(op)](_eval_node(x, n), _eval_node(y, n))
        case ast.Call(func=ast.Name(id=f), args=[x], keywords=[]) if f in _PARAM_FUNCS:
            return _PARAM_FUNCS[f](_eval_node(x, n))
    raise ValueError(f"{ast.unparse(node)!r} is not allowed")


def _eval_param(text: str, n: int | None):
    """Numeric parameter: exact Fraction for plain numbers ("0.1", "3/4"),
    otherwise an expression in n ("4/n", "n**-0.5") built from numbers, n,
    pi, + - * / **, unary minus, sqrt and log."""
    try:
        f = Fraction(text)
        return int(f) if f.denominator == 1 else f
    except (ValueError, ZeroDivisionError):
        pass
    if n is None:
        raise ValueError(f"parameter {text!r} needs n, which is not set")
    try:
        val = _eval_node(ast.parse(text.strip(), mode="eval").body, n)
    except (
        SyntaxError,
        MemoryError,  # the parser's report of input nested too deeply
        RecursionError,
        ArithmeticError,
        TypeError,
        ValueError,
    ) as exc:
        raise ValueError(f"cannot evaluate parameter {text!r}: {exc}") from exc
    if not isinstance(val, (int, float)):
        raise ValueError(f"parameter {text!r} is not a real number: {val!r}")
    return val


def _parse_law(text: str) -> DegreeLaw:
    values = []
    probs = []
    for pair in text.split(","):
        v, sep, p = pair.partition(":")
        if not sep:
            raise ValueError(f"degree law entries are value:prob, got {pair!r}")
        values.append(int(v))
        probs.append(parse_rational(p))
    return DegreeLaw(tuple(values), tuple(probs))


def _load_weights(path: str) -> tuple:
    with open(path, encoding="utf-8") as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError(f"weight file {path!r} is empty")
    out = []
    for tok in tokens:
        f = parse_rational(tok)
        out.append(int(f) if f.denominator == 1 else f)
    return tuple(out)


def parse_model_template(text: str) -> Callable[[int], ModelSpec]:
    """Model template from a spec string; n is supplied at call time.

    Forms: "gnp:n=500,p=0.1", "config:n=500,law=3:1.0", "geo:n=500,r=0.1",
    "cl:n=500,w=weights.txt", "starlike:n=500".  An n given in the string
    is the default; grid evaluation overrides it.  p and r may be
    expressions in n, e.g. "p=4/n".
    """
    kind, sep, rest = text.partition(":")
    kind = kind.strip().lower()
    if kind not in MODEL_PARAMS:
        raise ValueError(f"unknown model kind {kind!r}")
    required = MODEL_PARAMS[kind]
    if not sep and required is not None:
        raise ValueError(f"model spec needs parameters, got {text!r}")
    params = parse_params(rest) if rest else {}
    if required is not None and required not in params:
        raise ValueError(f"model {kind!r} needs parameter {required!r}")
    default_n = int(params["n"]) if "n" in params else None

    def at(n: int | None) -> ModelSpec:
        n = n if n is not None else default_n
        if n is None:
            raise ValueError(f"model spec {text!r} does not fix n")
        if kind == "gnp":
            return Gnp(n, _eval_param(params["p"], n))
        if kind == "config":
            return ConfigModel(n, _parse_law(params["law"]))
        if kind == "geo":
            return GeometricTorus(n, float(_eval_param(params["r"], n)))
        if kind == "cl":
            return ChungLu(n, _load_weights(params["w"]))
        return star_like(n)

    return at


def parse_model(text: str) -> ModelSpec:
    """One concrete model from a spec string; n must be present."""
    return parse_model_template(text)(None)
