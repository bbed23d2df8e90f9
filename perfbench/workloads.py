"""The three pinned workloads: their commands, inputs, logical work counts
and correctness gates.

Every input is a function of the workload seed.  The gates compare the
program's outputs with references the benchmark computes itself, from the
inputs it generated and from closed forms derived here independently of
colorstats.moments, so a later change to the program cannot move its own
reference.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

WORKLOADS = ("oracle_sweep", "big_graph", "many_small")

ORACLE_MAX_N = 9
# formula instances `oracle-verify --max-n 9` checks; pinned from the
# corpus and shape tables, which do not depend on the seed
ORACLE_INSTANCES = 8221

BIG_N = 50_000
BIG_MEAN_DEGREE = 20
CIRCULANT_N, CIRCULANT_D = 100_000, 10
GEO_GRID = (1000, 2000)
GEO_TRIALS = 3
MC_GRID = (500, 1000, 2000, 4000)
MC_TRIALS = 100
REGIME_GRID = (250, 500, 1000, 2000)
CYCLE_N = 12
CYCLE_TRIALS = 100_000
STAR_GRID = (40, 100, 250, 630, 1600, 4000)
STAR_TRIALS = 2000
# largest-remainder split of n into ratios 3/4, 1/4 (ties go to the first class)
STAR_SIZES = {
    40: (30, 10),
    100: (75, 25),
    250: (188, 62),
    630: (473, 157),
    1600: (1200, 400),
    4000: (3000, 1000),
}
# config:law=1:1/2,5:1/2 has E[d] = 3 and E[d^2] = 13, so the closed-form
# ratio n E[d^2] / (n E[d] / 2)^2 is 52 / (9 n)
CONFIG_LAW = "1:1/2,5:1/2"
CONFIG_RATIO_NUM, CONFIG_RATIO_DEN = 52, 9

# The oracle's block-event shapes, reduced to what decides whether a shape
# applies to a composition: (total block size, block count, largest colour)
# for the fixed-colour shapes and (total block size, block count) for the
# distinct-colour shapes.
_FIXED_EVENTS = ((2, 1, 1), (2, 1, 2), (3, 1, 1), (2, 2, 2), (2, 2, 2),
                 (3, 2, 2), (4, 2, 2), (4, 3, 3), (3, 3, 3))
_DISTINCT_EVENTS = ((2, 1), (3, 1), (2, 2), (3, 2), (4, 2), (4, 2), (3, 3),
                    (4, 3), (5, 3))


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a pass; `out` is the file it writes, if any."""

    label: str
    argv: tuple[str, ...]
    out: str | None = None


# ── inputs and commands ───────────────────────────────────────────────────


def prepare(workload: str, seed: int, work: str) -> dict:
    """Write the workload's input files into `work`; returns what the gates
    need to know about them."""
    if workload != "big_graph":
        return {}
    us, vs = _gnp_edges(BIG_N, Fraction(BIG_MEAN_DEGREE, BIG_N), seed)
    path = os.path.join(work, "gnp.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{BIG_N} {len(us)}\n")
        fh.write("\n".join(f"{u} {v}" for u, v in zip(us.tolist(), vs.tolist())))
        fh.write("\n")
    deg = np.bincount(np.concatenate([us, vs]), minlength=BIG_N).astype(np.int64)
    return {"gnp_path": path, "gnp_m": len(us), "gnp_sigma2": int((deg * deg).sum())}


def _gnp_edges(n: int, p: Fraction, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Gnp(n, p) edge arrays (u < v, sorted), drawn with numpy alone."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, n)))
    pairs = n * (n - 1) // 2
    m = int(rng.binomial(pairs, float(p)))
    idx = np.sort(rng.choice(pairs, size=m, replace=False))
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(np.arange(n - 1, 0, -1, dtype=np.int64), out=starts[1:])
    us = np.searchsorted(starts, idx, side="right") - 1
    return us, idx - starts[us] + us + 1


def commands(workload: str, seed: int, work: str, ctx: dict) -> list[Command]:
    """The CLI invocations of one pass, in the order they run."""
    s = str(seed)

    def grid(ns):
        return ",".join(map(str, ns))

    def out(name):
        return os.path.join(work, name)

    if workload == "oracle_sweep":
        return [Command("oracle-verify", ("oracle-verify", "--max-n", str(ORACLE_MAX_N)))]
    if workload == "big_graph":
        return [
            Command("moments-gnp", ("moments", "--graph", ctx["gnp_path"], "--classes", "balanced:3")),
            Command("simulate-circulant", (
                "simulate", "--graph", f"circulant:n={CIRCULANT_N},d={CIRCULANT_D}",
                "--classes", "balanced:3", "--trials", "200", "--seed", s)),
            Command("rdcheck-geo", (
                "rdcheck", "--model", "geo:r=0.05", "--grid", grid(GEO_GRID), "--mode", "mc",
                "--trials", str(GEO_TRIALS), "--seed", s, "--out", out("geo.json")), out("geo.json")),
        ]
    if workload == "many_small":
        star = ("regime", "--family", "star", "--classes", "3/4,1/4", "--grid", grid(STAR_GRID),
                "--trials", str(STAR_TRIALS), "--seed", s)
        return [
            Command("rdcheck-gnp", (
                "rdcheck", "--model", "gnp:p=4/n", "--grid", grid(MC_GRID), "--mode", "mc",
                "--trials", str(MC_TRIALS), "--seed", s, "--out", out("gnp.json")), out("gnp.json")),
            Command("rdcheck-config", (
                "rdcheck", "--model", f"config:law={CONFIG_LAW}", "--grid", grid(MC_GRID),
                "--mode", "both", "--trials", str(MC_TRIALS), "--star-check", "--seed", s,
                "--out", out("config.json")), out("config.json")),
            Command("regime-gnp", (
                "regime", "--family", "gnp:p=4/n", "--classes", "balanced:2",
                "--grid", grid(REGIME_GRID), "--trials", str(MC_TRIALS), "--seed", s,
                "--out", out("regime_gnp.json")), out("regime_gnp.json")),
            Command("simulate-cycle", (
                "simulate", "--graph", f"cycle:{CYCLE_N}", "--classes", "balanced:3",
                "--trials", str(CYCLE_TRIALS), "--seed", s)),
            Command("regime-star-t1", star + ("--threads", "1", "--out", out("star1.json")), out("star1.json")),
            Command("regime-star-t2", star + ("--threads", "2", "--out", out("star2.json")), out("star2.json")),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ── logical work per pass ─────────────────────────────────────────────────


def multinomial(parts) -> int:
    out = math.factorial(sum(parts))
    for c in parts:
        out //= math.factorial(c)
    return out


def _compositions(n: int, s: int):
    for cuts in itertools.combinations(range(1, n), s - 1):
        bounds = (0, *cuts, n)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def _oracle_colorings(max_n: int) -> int:
    """Colorings `oracle-verify --max-n` enumerates: every corpus graph times
    every 2- and 3-class composition of its order, plus one enumeration per
    applicable block-event shape of each composition."""
    orders = range(4, max_n + 1)
    graphs = {n: 3 for n in orders}  # path, cycle, star
    for n in range(4, min(max_n, 6) + 1):
        graphs[n] += 1  # complete
    graphs[4] += 1  # threshold:IDID
    for i in range(20):  # seeded Bernoulli graphs, orders taken round robin
        graphs[4 + i % len(orders)] += 1
    total = 0
    for n in orders:
        for s in (2, 3):
            events = sum(1 for t, k, top in _FIXED_EVENTS if t <= n and k <= s and top <= s)
            events += sum(1 for t, k in _DISTINCT_EVENTS if t <= n and k <= s)
            for parts in _compositions(n, s):
                total += (graphs[n] + events) * multinomial(parts)
    return total


def logical_work(workload: str) -> tuple[int, int]:
    """(colorings, random graphs) one pass evaluates, fixed by the workload
    definition: a coloring counts whether it is enumerated or sampled."""
    if workload == "oracle_sweep":
        return _oracle_colorings(ORACLE_MAX_N), 20  # the corpus draws 20 Bernoulli graphs
    if workload == "big_graph":
        return 200, len(GEO_GRID) * GEO_TRIALS
    if workload == "many_small":
        colorings = CYCLE_TRIALS + 2 * len(STAR_GRID) * STAR_TRIALS + len(REGIME_GRID) * MC_TRIALS
        # rdcheck gnp and config MC draw one graph per trial; the random
        # regime draws one representative graph per point plus one per trial
        graphs = 2 * len(MC_GRID) * MC_TRIALS + len(REGIME_GRID) * (1 + MC_TRIALS)
        return colorings, graphs
    raise ValueError(f"unknown workload {workload!r}")


# ── references ────────────────────────────────────────────────────────────


def _ff(a: int, k: int) -> int:
    out = 1
    for j in range(k):
        out *= a - j
    return out


def moments_of_M(n: int, m: int, sigma2: int, sizes) -> tuple[Fraction, Fraction]:
    """Exact E[M] and Var[M], summed over ordered pairs of edge indicators.

    An edge is monochromatic with probability p2; two edges sharing a
    vertex (sigma2 - 2m ordered pairs) both are with probability p3; two
    disjoint edges both are with probability p22.
    """
    p2 = Fraction(sum(_ff(c, 2) for c in sizes), _ff(n, 2))
    p3 = Fraction(sum(_ff(c, 3) for c in sizes), _ff(n, 3))
    same = sum(_ff(c, 4) for c in sizes)
    cross = sum(_ff(a, 2) * _ff(b, 2) for a, b in itertools.permutations(sizes, 2))
    p22 = Fraction(same + cross, _ff(n, 4))
    sharing = sigma2 - 2 * m
    disjoint = m * (m - 1) - sharing
    var = m * (p2 - p2 * p2) + sharing * (p3 - p2 * p2) + disjoint * (p22 - p2 * p2)
    return m * p2, var


def _balanced(n: int, s: int) -> tuple[int, ...]:
    q, r = divmod(n, s)
    return (q + 1,) * r + (q,) * (s - r)


def _rho_imbalance(sizes) -> tuple[Fraction, Fraction]:
    n, s = sum(sizes), len(sizes)
    gamma = [Fraction(c, n) for c in sizes]
    p2 = sum(g * g for g in gamma)
    rho = sum(g**3 for g in gamma) - p2 * p2
    return rho, sum((g - Fraction(1, s)) ** 2 for g in gamma)


def _gnp_ratio(n: int, p: Fraction) -> Fraction:
    """E[sigma2] / E[m]^2 for Gnp: degrees are Binomial(n - 1, p)."""
    mean_d = (n - 1) * p
    return n * (mean_d * (1 - p) + mean_d * mean_d) / (Fraction(n * (n - 1), 2) * p) ** 2


# ── gates ─────────────────────────────────────────────────────────────────


class Gates:
    """Named pass/fail checks; every check counts as one attempted gate."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))


def _rat(obj) -> Fraction:
    return Fraction(obj["num"], obj["den"])


def check_outputs(workload: str, ctx: dict, outputs: dict, gates: Gates) -> None:
    """Gate one pass's outputs.  `outputs` maps a command label to
    (exit code, stdout, stderr, bytes of its --out file or None)."""
    for label, (rc, _, err, _) in outputs.items():
        gates.check(f"{label}.exit_code", rc == 0, f"exit {rc}: {err.strip()[-200:]}")
    check = {"oracle_sweep": _check_oracle, "big_graph": _check_big, "many_small": _check_many}
    try:
        check[workload](ctx, outputs, gates)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        gates.check(f"{workload}.outputs_readable", False, f"{type(exc).__name__}: {exc}")


def _check_oracle(ctx: dict, outputs: dict, gates: Gates) -> None:
    lines = outputs["oracle-verify"][1].splitlines()
    passed = sum(1 for line in lines if line.startswith("PASS"))
    failed = sum(1 for line in lines if line.startswith("FAIL"))
    gates.check("oracle.instances", passed + failed == ORACLE_INSTANCES,
                f"{passed + failed} instances, pinned {ORACLE_INSTANCES}")
    gates.check("oracle.all_pass", failed == 0 and lines[-1].endswith("all pass"), lines[-1])


def _check_exact_pair(name: str, got_mean, got_var, want: tuple[Fraction, Fraction], gates: Gates):
    gates.check(f"{name}.exact_mean", _rat(got_mean) == want[0], f"{_rat(got_mean)} != {want[0]}")
    gates.check(f"{name}.exact_var", _rat(got_var) == want[1], f"{_rat(got_var)} != {want[1]}")


def _check_simulation(name: str, rec: dict, n: int, m: int, sigma2: int, sizes, gates: Gates):
    _check_exact_pair(name, rec["exact_mean"], rec["exact_var"], moments_of_M(n, m, sigma2, sizes), gates)
    gates.check(f"{name}.mean_ok", rec["mean_ok"] is True, f"mean {rec['empirical_mean']}")
    gates.check(f"{name}.var_ok", rec["var_ok"] is True, f"var {rec['empirical_var']}")


def _check_big(ctx: dict, outputs: dict, gates: Gates) -> None:
    rep = json.loads(outputs["moments-gnp"][1])
    n, m, sigma2 = BIG_N, ctx["gnp_m"], ctx["gnp_sigma2"]
    gates.check("moments-gnp.size", (rep["n"], rep["m"]) == (n, m), f"n={rep['n']} m={rep['m']}")
    mean, var = moments_of_M(n, m, sigma2, _balanced(n, 3))
    _check_exact_pair("moments-gnp", rep["mean_M"], rep["var_common"], (mean, var), gates)
    gates.check("moments-gnp.mean_L", _rat(rep["mean_L"]) == m - mean)
    gates.check("moments-gnp.zeta_sq", _rat(rep["zeta_sq"]) == Fraction(sigma2, m * m))
    gates.check("moments-gnp.normalized_var", _rat(rep["normalized_var"]) == var / (m * m))

    n, d = CIRCULANT_N, CIRCULANT_D
    rec = json.loads(outputs["simulate-circulant"][1])
    _check_simulation("simulate-circulant", rec, n, n * d // 2, n * d * d, _balanced(n, 3), gates)

    # three trials per point give a standard error too rough for a 4-SE
    # band, so the geometric point is gated on its verdict only
    geo = json.loads(outputs["rdcheck-geo"][3])
    gates.check("rdcheck-geo.verdict", geo["monte_carlo"]["verdict"] == "concentrates",
                geo["monte_carlo"]["verdict"])


def _check_mc_points(name: str, points, closed, gates: Gates) -> None:
    for pt, want in zip(points, closed):
        err = abs(pt["ratio_float"] - float(want))
        gates.check(f"{name}.n{pt['n']}.within_4se", err <= 4 * pt["ratio_se"],
                    f"|mc - closed| = {err:.3g}, se = {pt['ratio_se']:.3g}")


def _check_many(ctx: dict, outputs: dict, gates: Gates) -> None:
    gnp = json.loads(outputs["rdcheck-gnp"][3])
    gates.check("rdcheck-gnp.verdict", gnp["monte_carlo"]["verdict"] == "concentrates",
                gnp["monte_carlo"]["verdict"])
    _check_mc_points("rdcheck-gnp", gnp["monte_carlo"]["points"],
                     [_gnp_ratio(n, Fraction(4, n)) for n in MC_GRID], gates)

    cfg = json.loads(outputs["rdcheck-config"][3])
    closed = [Fraction(CONFIG_RATIO_NUM, CONFIG_RATIO_DEN * n) for n in MC_GRID]
    for pt, want in zip(cfg["closed_form"]["points"], closed):
        gates.check(f"rdcheck-config.n{pt['n']}.closed_ratio", _rat(pt["ratio"]) == want,
                    f"{pt['ratio']} != {want}")
    for mode in ("closed_form", "monte_carlo"):
        gates.check(f"rdcheck-config.{mode}.verdict", cfg[mode]["verdict"] == "concentrates",
                    cfg[mode]["verdict"])
    _check_mc_points("rdcheck-config", cfg["monte_carlo"]["points"], closed, gates)
    gates.check("rdcheck-config.star_check", cfg["star_check"]["holds"] is True,
                f"exponent {cfg['star_check']['exponent']}")

    for row in json.loads(outputs["regime-gnp"][3]):
        n = row["n"]
        rho, imb = _rho_imbalance(_balanced(n, 2))
        zeta = _rat(row["zeta_sq"])
        gates.check(f"regime-gnp.n{n}.exact", (
            _rat(row["rho"]) == rho and _rat(row["imbalance_sq"]) == imb
            and _rat(row["rho_zeta_product"]) == rho * zeta
            and _rat(row["pz_bound"]) == _rat(row["normalized_var"]) / 4
        ), json.dumps(row)[:200])
        gates.check(f"regime-gnp.n{n}.regime", row["predicted_regime"] == "concentration",
                    row["predicted_regime"])

    n = CYCLE_N
    rec = json.loads(outputs["simulate-cycle"][1])
    _check_simulation("simulate-cycle", rec, n, n, 4 * n, _balanced(n, 3), gates)

    star1, star2 = outputs["regime-star-t1"], outputs["regime-star-t2"]
    gates.check("regime-star.thread_identity", star1[1:] == star2[1:],
                "--threads 1 and --threads 2 outputs differ")
    for row in json.loads(star1[3]):
        n = row["n"]
        m, sigma2 = n - 1, n * (n - 1)  # star: centre degree n-1, leaves 1
        mean, var = moments_of_M(n, m, sigma2, STAR_SIZES[n])
        rho, imb = _rho_imbalance(STAR_SIZES[n])
        zeta = Fraction(sigma2, m * m)
        want = {"zeta_sq": zeta, "rho": rho, "imbalance_sq": imb,
                "normalized_var": var / (m * m), "rho_zeta_product": rho * zeta,
                "pz_bound": var / (4 * m * m)}
        bad = [k for k, v in want.items() if _rat(row[k]) != v]
        gates.check(f"regime-star.n{n}.exact", not bad, f"columns {bad} differ")
        gates.check(f"regime-star.n{n}.regime", row["predicted_regime"] == "anti_concentration",
                    row["predicted_regime"])
        err = abs(row["empirical_mean"] - float(mean))
        se = math.sqrt(float(var) / STAR_TRIALS)
        gates.check(f"regime-star.n{n}.mean_within_4se", err <= 4 * se,
                    f"|empirical - exact| = {err:.3g}, se = {se:.3g}")
