"""Acceptance gate: end-to-end checks at fixed tolerances.

One test per criterion (the edge-count variance check splits into its two
model families).  Grids, tolerances, and time budgets are pinned here; a
red row means the stated property genuinely fails, and the assertion
message says why.  The terminal summary prints one verdict line per
criterion (see conftest).
"""

import time
from fractions import Fraction

from colorstats.cli import main as cli_main
from colorstats.coloring import Composition
from colorstats.experiments import FamilySpec, run_comparison, run_regime
from colorstats.graph import complete, cycle, path, star, threshold_graph
from colorstats.oracle import compositions_of, corpus_graphs, run_verification
from colorstats.randgraph import (
    ConfigModel,
    DegreeLaw,
    Gnp,
    assumption_star_check,
    fit_power_law,
    ratio_closed_form,
    ratio_monte_carlo,
    star_like,
)
from colorstats.seeds import stream
from colorstats.symfun import elementary_symmetric
from test_symfun import e_from_newton

STAR_GRID = (40, 100, 250, 630, 1600, 4000)
CYCLE_GRID = (50, 100, 200, 400, 800, 1600, 3200)
CHECK_GRID = (250, 500, 1000, 2000)
DELTA3 = DegreeLaw((3,), (Fraction(1),))


def test_criterion_01_closed_forms_match_enumeration():
    """Every moment and event formula equals brute-force enumeration,
    exactly, over the whole corpus x all 2- and 3-class compositions."""
    t0 = time.perf_counter()
    rows = run_verification(max_n=11)
    elapsed = time.perf_counter() - t0
    bad = [r for r in rows if not r[3]]
    assert bad == [], f"{len(bad)} formula instances disagree with enumeration: {bad[:5]}"
    assert len(rows) >= 6000
    formulas = {r[2] for r in rows}
    assert "var_common" in formulas and "mean_M" in formulas
    assert any(f.startswith("prob_fixed") for f in formulas)
    assert any(f.startswith("prob_distinct") for f in formulas)
    assert elapsed < 60.0, f"verification sweep took {elapsed:.1f}s, budget 60s"


def test_criterion_02_symmetric_function_identities():
    """Weighted-subset and squared-entry identities plus the power-sum
    route, exact on 1000 seeded integer vectors (length <= 8, entries <= 50)."""
    rng = stream(17041)
    t0 = time.perf_counter()
    for trial in range(1000):
        s = int(rng.integers(1, 9))
        v = [int(x) for x in rng.integers(0, 51, size=s)]
        size = 1 << s
        sums = [0] * size
        prods = [1] * size
        pops = [0] * size
        for mask in range(1, size):
            low = mask & -mask
            rest = mask ^ low
            i = low.bit_length() - 1
            sums[mask] = sums[rest] + v[i]
            prods[mask] = prods[rest] * v[i]
            pops[mask] = pops[rest] + 1
        lhs = [0] * (s + 1)
        for mask in range(1, size):
            k = pops[mask]
            lhs[k] += (sums[mask] - k) * prods[mask]
        e = [elementary_symmetric(v, j) for j in range(s + 2)]
        for k in range(1, s + 1):
            assert lhs[k] == (e[1] - k) * e[k] - (k + 1) * e[k + 1], (v, k)
        sq = [x * x for x in v]
        e1, e2, e3, e4 = (elementary_symmetric(v, j) for j in (1, 2, 3, 4))
        assert elementary_symmetric(sq, 2) == e2 * e2 - 2 * e1 * e3 + 2 * e4
        if s >= 3:
            assert e_from_newton(v) == (e1, e2, e3)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"identity sweep took {elapsed:.2f}s, budget 5s"


def test_criterion_03_degenerate_cells_have_zero_variance():
    """Complete graphs (any composition) and balanced stars: the count is
    deterministic, so every variance is exactly zero."""
    from colorstats.graph import stats
    from colorstats.moments import var_common, var_Mi

    for n in (4, 5, 6):
        g = complete(n)
        st = stats(g)
        for s in (2, 3):
            for parts in compositions_of(n, s):
                c = Composition(parts)
                assert var_common(st, c) == 0, (n, parts)
                for i in range(1, s + 1):
                    assert var_Mi(st, c, i) == 0, (n, parts, i)
    for n in (4, 6, 8):
        g = star(n)
        c = Composition.balanced(n, 2)
        assert var_common(stats(g), c) == 0, n


def test_criterion_04_skewed_star_anti_concentrates():
    """Star family at ratios 3:1: normalized variance lands within 10% of
    rho * zeta^2 = (3/64) n/(n-1) at the top of the grid, and the deviation
    bound at theta = 1/2 stays >= 0.01 on every point."""
    fam = FamilySpec(graph="star", coloring="3/4,1/4", grid=STAR_GRID)
    t0 = time.perf_counter()
    rows = run_regime(fam)
    elapsed = time.perf_counter() - t0
    n_top = STAR_GRID[-1]
    target = Fraction(3, 64) * Fraction(n_top, n_top - 1)
    rel = abs(rows[-1].normalized_var - target) / target
    assert rel <= Fraction(1, 10), f"normalized variance off by {float(rel):.3%}"
    for n, row in zip(STAR_GRID, rows):
        assert row.pz_bound >= Fraction(1, 100), (n, float(row.pz_bound))
    assert rows[-1].predicted_regime == "anti_concentration"
    assert elapsed < 30.0, f"star sweep took {elapsed:.1f}s, budget 30s"


def test_criterion_05_imbalanced_cycle_concentrates():
    """Cycle family at fixed imbalanced ratios: normalized variance decays
    like a power law with exponent in [-1.3, -0.7] over the grid."""
    fam = FamilySpec(graph="cycle", coloring="3/4,1/4", grid=CYCLE_GRID)
    rows = run_regime(fam)
    exponent = fit_power_law(
        list(CYCLE_GRID), [float(r.normalized_var) for r in rows]
    )
    assert -1.3 <= exponent <= -0.7, f"fitted exponent {exponent:.3f}"
    assert rows[-1].predicted_regime == "concentration"


def test_criterion_06_variance_decomposition_residual():
    """On both sweep families, n * |normalized_var - rho * zeta^2| stays
    below 1 across the grid."""
    bound = Fraction(1)
    for graph, grid in (("star", STAR_GRID), ("cycle", CYCLE_GRID)):
        fam = FamilySpec(graph=graph, coloring="3/4,1/4", grid=grid)
        for n, row in zip(grid, run_regime(fam)):
            residual = n * abs(row.normalized_var - row.rho_zeta_product)
            assert residual <= bound, (graph, n, float(residual))


def test_criterion_07_monte_carlo_consistency():
    """Ten corpus cells, 1e5 colorings each: empirical mean and variance
    within 4 SE of the exact values in at least 95% of (cell, seed) runs
    over 5 master seeds."""
    rand8 = next(
        g for lbl, g in corpus_graphs() if lbl.startswith("random:") and g.n == 8
    )
    cells = [
        (path(4), (2, 2)),
        (path(5), (3, 2)),
        (cycle(5), (2, 2, 1)),
        (cycle(8), (4, 4)),
        (star(6), (3, 3)),
        (star(8), (5, 3)),
        (complete(6), (2, 2, 2)),
        (complete(5), (3, 2)),
        (threshold_graph("IDID"), (2, 2)),
        (rand8, (3, 3, 2)),
    ]
    t0 = time.perf_counter()
    outcomes = []
    for master in range(5):
        for idx, (g, classes) in enumerate(cells):
            rec = run_comparison(
                g, Composition(classes), trials=100_000, seed=1000 * master + idx
            )
            outcomes.append(rec.mean_ok and rec.var_ok)
    elapsed = time.perf_counter() - t0
    rate = sum(outcomes) / len(outcomes)
    assert rate >= 0.95, f"cell pass rate {rate:.2%} over {len(outcomes)} runs"
    assert elapsed < 300.0, f"consistency sweep took {elapsed:.1f}s, budget 5min"


def test_criterion_08_ratio_criterion_three_models():
    """Dispersion-ratio criterion: exact value for the 3-regular
    configuration model (with MC agreement at 5%), a star-like weight model
    bounded away from zero, and a sparse Bernoulli family decaying with
    exponent <= -1/2."""
    crit = ratio_closed_form(ConfigModel(500, DELTA3))
    assert crit.ratio == Fraction(4, 500)
    mc = ratio_monte_carlo(ConfigModel(500, DELTA3), trials=200, seed=0)
    rel = abs(mc.ratio - float(crit.ratio)) / float(crit.ratio)
    assert rel <= 0.05, f"MC ratio {mc.ratio} vs exact {float(crit.ratio)}"

    for n in (200, 400, 800):
        ratio = ratio_closed_form(star_like(n)).ratio
        assert float(ratio) > 0.05, (n, float(ratio))

    ratios = [float(ratio_closed_form(Gnp(n, n**-0.5)).ratio) for n in CHECK_GRID]
    exponent = fit_power_law(list(CHECK_GRID), ratios)
    assert exponent <= -0.5, f"fitted exponent {exponent:.3f}"


def test_criterion_09a_edge_count_variance_bernoulli():
    """Var(m)/E[m]^2 for the sparse Bernoulli family decays like 1/n:
    fitted exponent within [-1.3, -0.7]."""
    chk = assumption_star_check(
        lambda n: Gnp(n, 4.0 / n), CHECK_GRID
    )
    assert chk.exponent is not None
    assert -1.3 <= chk.exponent <= -0.7, f"fitted exponent {chk.exponent:.3f}"


def test_criterion_09b_edge_count_variance_config():
    """Var(m)/E[m]^2 for the 3-regular configuration model: required to
    decay like 1/n with a fitted exponent in [-1.3, -0.7]."""
    chk = assumption_star_check(
        lambda n: ConfigModel(n, DELTA3), CHECK_GRID
    )
    assert chk.exponent is not None and -1.3 <= chk.exponent <= -0.7, (
        "relative edge-count variance of the degree-3 configuration model "
        f"came out {chk.values} (fitted exponent {chk.exponent}): every "
        "vertex draws degree 3, the stub total is deterministically 3n "
        "(even for the even grid orders), so m = 3n/2 exactly and "
        "Var(m) = 0 at every point; no power-law fit can land in "
        "[-1.3, -0.7] for this family"
    )


def test_criterion_10_reproducibility(tmp_path, capsys, monkeypatch):
    """Fixed-seed CLI runs are byte-identical across invocations and
    across worker thread counts (flag or environment)."""
    # three classes take keys on a narrow graph, on one past SHUFFLE_CELLS
    # and over three blocks of rows; four classes take the block shuffle
    for graph, classes, trials, seed in [
        ("cycle:12", "balanced:3", "2000", "11"),
        ("circulant:n=70000,d=2", "balanced:3", "20", "11"),
        ("star:4000", "3000,1000", "600", "3"),
        ("cycle:12", "balanced:4", "2000", "11"),
    ]:
        sim = [
            "simulate", "--graph", graph, "--classes", classes,
            "--trials", trials, "--seed", seed,
        ]
        assert cli_main(sim) == 0
        first = capsys.readouterr().out
        assert cli_main(sim) == 0
        assert capsys.readouterr().out == first

    # a random family, and a fixed one whose four classes take the block shuffle
    for family, classes in [("gnp:p=8/n", "balanced:2"), ("cycle", "balanced:4")]:
        base = [
            "regime", "--family", family, "--classes", classes,
            "--grid", "40,60,80", "--trials", "40", "--seed", "9",
        ]
        t1 = tmp_path / "threads1.json"
        t4 = tmp_path / "threads4.json"
        tenv = tmp_path / "threads_env.json"
        assert cli_main([*base, "--threads", "1", "--out", str(t1)]) == 0
        assert cli_main([*base, "--threads", "4", "--out", str(t4)]) == 0
        monkeypatch.setenv("COLORSTATS_THREADS", "3")
        assert cli_main([*base, "--out", str(tenv)]) == 0
        monkeypatch.delenv("COLORSTATS_THREADS")
        capsys.readouterr()
        assert t1.read_bytes() == t4.read_bytes() == tenv.read_bytes()

    for mode in ("mc", "both"):
        rd = [
            "rdcheck", "--model", "config:law=1:1/2,3:1/2", "--grid", "100,200",
            "--mode", mode, "--trials", "50", "--seed", "4",
        ]
        outs = [tmp_path / f"rd_{mode}_{i}.json" for i in range(2)]
        assert cli_main([*rd, "--out", str(outs[0])]) == 0
        out_a = capsys.readouterr().out
        assert cli_main([*rd, "--out", str(outs[1])]) == 0
        assert capsys.readouterr().out == out_a
        assert outs[0].read_bytes() == outs[1].read_bytes()
