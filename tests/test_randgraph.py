"""Random graph models, the ratio criterion, and spec-string parsing."""

import itertools
import math
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from colorstats import randgraph
from colorstats.randgraph import (
    ChungLu,
    ConfigModel,
    DegreeLaw,
    GeometricTorus,
    Gnp,
    RATIO_FLOOR,
    RatioCriterion,
    _bernoulli_pair_edges,
    _decode_pairs,
    assumption_star_check,
    config_sample,
    edge_moments,
    fit_power_law,
    generate,
    parse_model,
    parse_model_template,
    ratio_closed_form,
    ratio_monte_carlo,
    ratio_over_grid,
    star_like,
    trend,
)
from colorstats.graph import parse_int, parse_number
from colorstats.seeds import stream

MIXED_LAW = DegreeLaw((1, 3), (Fraction(1, 2), Fraction(1, 2)))
DELTA3 = DegreeLaw((3,), (Fraction(1),))

# ── references: the verdict rules that trend replaced ─────────────────────


def classify_ratio_trend(ns, ratios):
    """The ratio criterion's grid verdict, by the rule it had of its own."""
    if any(r is None for r in ratios) or len(ns) < 2:
        return "inconclusive"
    vals = [float(r) for r in ratios]
    if all(v == 0.0 for v in vals):
        return "concentrates"
    if any(v <= 0.0 for v in vals):
        return "inconclusive"
    slope = fit_power_law(ns, vals)
    if slope <= -0.5 and vals[-1] < 0.05:
        return "concentrates"
    if min(vals) > 0.05 and abs(slope) < 0.1:
        return "anti_concentrates"
    return "inconclusive"


def reference_star_rule(ns, values):
    """(exponent, holds) of the edge-count check, by the rule it had of its own."""
    if all(v == 0.0 for v in values):
        return None, True
    if any(v <= 0.0 for v in values):
        return None, False
    exponent = fit_power_law(ns, values)
    return exponent, exponent <= -0.5


def rdcheck_verdict(ns, ratios):
    """ratio_over_grid's verdict when the ratio at ns[i] is ratios[i]."""
    at = dict(zip(ns, ratios))
    with mock.patch.object(randgraph, "ratio_closed_form", lambda n: RatioCriterion(n, at[n])):
        return ratio_over_grid(lambda n: n, ns).verdict


def grids(min_size):
    return st.sets(st.integers(4, 10**6), min_size=min_size, max_size=6).map(sorted)


@st.composite
def ratio_series(draw):
    """A grid and a series on it: a power law (decaying, flat or growing),
    all zeros, or loose values with None, zero and negative entries."""
    ns = draw(grids(1))
    shape = draw(st.sampled_from(("power", "zeros", "loose")))
    if shape == "power":
        last, slope = draw(st.floats(1e-4, 10.0)), draw(st.floats(-2.0, 0.5))
        return ns, [last * (n / ns[-1]) ** slope for n in ns]
    if shape == "zeros":
        return ns, [0.0] * len(ns)
    loose = st.one_of(st.none(), st.just(0.0), st.floats(-1.0, 1.0), st.fractions(0, 10))
    return ns, draw(st.lists(loose, min_size=len(ns), max_size=len(ns)))


@st.composite
def variance_series(draw):
    """Relative variances (>= 0) on a grid of two or more points whose last
    value is below RATIO_FLOOR."""
    ns = draw(grids(2))
    last = draw(st.floats(0.0, RATIO_FLOOR, exclude_max=True))
    if draw(st.booleans()):
        slope = draw(st.floats(-2.0, 0.5))
        return ns, [last * (n / ns[-1]) ** slope for n in ns]
    head = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 10.0)), min_size=len(ns) - 1, max_size=len(ns) - 1)
    return ns, draw(head) + [last]


class TestModelValidation:
    def test_gnp(self):
        with pytest.raises(ValueError):
            Gnp(0, Fraction(1, 2))
        with pytest.raises(ValueError):
            Gnp(5, Fraction(3, 2))

    def test_degree_law(self):
        with pytest.raises(ValueError):
            DegreeLaw((1, 2), (Fraction(1),))
        with pytest.raises(ValueError):
            DegreeLaw((-1,), (Fraction(1),))
        with pytest.raises(ValueError):
            DegreeLaw((1, 2), (Fraction(1, 2), Fraction(1, 3)))
        with pytest.raises(ValueError, match="zero mean"):
            DegreeLaw((0,), (Fraction(1),))

    def test_geo(self):
        with pytest.raises(ValueError):
            GeometricTorus(10, 0.0)
        with pytest.raises(ValueError):
            GeometricTorus(10, 0.6)

    def test_chung_lu(self):
        with pytest.raises(ValueError):
            ChungLu(3, (1, 1))
        with pytest.raises(ValueError):
            ChungLu(2, (1, 0))
        with pytest.raises(ValueError):
            star_like(1)

    def test_law_moments(self):
        assert MIXED_LAW.mean == 2
        assert MIXED_LAW.second_moment == 5
        assert DELTA3.mean == 3 and DELTA3.second_moment == 9


class TestGeneration:
    def test_pair_decoding(self):
        want = [[u, v] for u in range(6) for v in range(u + 1, 6)]
        assert _decode_pairs(np.arange(15), 6).tolist() == want

    def test_gnp_extremes(self):
        rng = stream(1)
        assert generate(Gnp(12, Fraction(0)), rng).m == 0
        assert generate(Gnp(6, Fraction(1)), rng).m == 15

    @pytest.mark.parametrize("p", [1e-300, 1e-19, 1e-18])
    def test_tiny_p_draws_no_edges(self, p):
        # below about 1e-18 the geometric gaps saturate at 2**63 - 1
        assert _bernoulli_pair_edges(8, p, stream(0)).shape == (0, 2)
        assert generate(Gnp(8, p), stream(1)).m == 0

    def test_deterministic(self):
        spec = Gnp(50, Fraction(7, 100))
        a = generate(spec, stream(3))
        b = generate(spec, stream(3))
        assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)

    def test_config_sample_conservation(self):
        spec = ConfigModel(40, MIXED_LAW)
        for t in range(10):
            samp = config_sample(spec, stream(9, t))
            assert sum(samp.pre_degrees) % 2 == 0
            assert samp.pre_m == sum(samp.pre_degrees) // 2
            assert samp.pre_sigma2 == sum(d * d for d in samp.pre_degrees)
            assert samp.graph.m <= samp.pre_m
            assert all(
                got <= pre
                for got, pre in zip(samp.graph.degrees, samp.pre_degrees)
            )

    def test_torus_degrees_bounded(self):
        g = generate(GeometricTorus(30, 0.1), stream(4))
        assert g.n == 30
        assert all(d < 30 for d in g.degrees)


class TestClosedForm:
    def test_gnp_is_exact_fraction(self):
        crit = ratio_closed_form(Gnp(10, Fraction(1, 2)))
        # mean degree 9/2, second moment 9/4 + 81/4 = 90/4; E[sigma2] = 225
        # over E[m]^2 = (45/2)^2
        assert crit.ratio == Fraction(225 * 4, 45 * 45)

    def test_config_delta3(self):
        crit = ratio_closed_form(ConfigModel(500, DELTA3))
        assert crit.ratio == Fraction(4, 500)

    def test_uniform_weights_reduce_to_bernoulli(self):
        for n, w in [(30, 3), (50, 2)]:
            cl = ratio_closed_form(ChungLu(n, (w,) * n))
            bp = ratio_closed_form(Gnp(n, Fraction(w, n)))
            assert cl.ratio == bp.ratio

    def test_geo_matches_density(self):
        r = 0.2
        geo = ratio_closed_form(GeometricTorus(40, r))
        bp = ratio_closed_form(Gnp(40, math.pi * r * r))
        assert geo.ratio == pytest.approx(float(bp.ratio), rel=1e-12)

    def test_star_like_stays_flat(self):
        ratios = [float(ratio_closed_form(star_like(n)).ratio) for n in (200, 400, 800)]
        assert all(r > 0.05 for r in ratios)


def weighted_graph_moments(n, prob):
    """(E[m], Var(m), E[sigma2]) over every graph on n vertices, each weighted
    by its probability when the pair {u, v} is an edge independently with
    probability prob(u, v)."""
    pairs = list(itertools.combinations(range(n), 2))
    mean = second = sigma2 = Fraction(0)
    for present in itertools.product((False, True), repeat=len(pairs)):
        weight = Fraction(1)
        degrees = [0] * n
        for (u, v), edge in zip(pairs, present):
            p = prob(u, v)
            weight *= p if edge else 1 - p
            if edge:
                degrees[u] += 1
                degrees[v] += 1
        m = sum(present)
        mean += weight * m
        second += weight * m * m
        sigma2 += weight * sum(d * d for d in degrees)
    return mean, second - mean * mean, sigma2


def weighted_degree_moments(n, law):
    """(E[m], Var(m), E[sigma2]) of the configuration model's m = half the stub
    total, over every degree vector of n i.i.d. draws from `law`."""
    mean = second = sigma2 = Fraction(0)
    for draw in itertools.product(range(len(law.values)), repeat=n):
        weight = math.prod((law.probs[i] for i in draw), start=Fraction(1))
        degrees = [law.values[i] for i in draw]
        m = Fraction(sum(degrees), 2)
        mean += weight * m
        second += weight * m * m
        sigma2 += weight * sum(d * d for d in degrees)
    return mean, second - mean * mean, sigma2


class TestEdgeMoments:
    @pytest.mark.parametrize(
        "spec",
        [
            Gnp(4, Fraction(1, 3)),
            Gnp(5, Fraction(2, 7)),
            ChungLu(5, (4, 3, 1, 1, 1)),  # 4 * 3 > 10: that pair is capped at 1
            ChungLu(4, (Fraction(5, 2), 3, 3, Fraction(1, 2))),  # 3 * 3 = 9 = sum(w)
        ],
        ids=["gnp4", "gnp5", "cl5_capped", "cl4_at_cap"],
    )
    def test_independent_edges_match_every_weighted_graph(self, spec):
        if isinstance(spec, Gnp):
            prob = lambda u, v: spec.p
        else:
            w = [Fraction(x) for x in spec.weights]
            prob = lambda u, v: min(Fraction(1), w[u] * w[v] / sum(w))
        assert edge_moments(spec) == weighted_graph_moments(spec.n, prob)

    @pytest.mark.parametrize(
        "law", [MIXED_LAW, DegreeLaw((0, 2, 5), (Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)))]
    )
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_config_matches_every_degree_vector(self, law, n):
        assert edge_moments(ConfigModel(n, law)) == weighted_degree_moments(n, law)

    @pytest.mark.parametrize(
        "template",
        [
            lambda n: Gnp(n, Fraction(1, 2)),
            lambda n: GeometricTorus(n, 0.1),
            lambda n: ChungLu(n, tuple(range(1, n + 1))),
            star_like,
            lambda n: ConfigModel(n, MIXED_LAW),
        ],
        ids=["gnp", "geo", "cl", "starlike", "config"],
    )
    def test_star_check_draws_no_graph(self, monkeypatch, template):
        def refuse(*args):
            raise AssertionError("the star check drew a graph")

        monkeypatch.setattr(randgraph, "generate", refuse)
        monkeypatch.setattr(randgraph, "config_sample", refuse)
        chk = assumption_star_check(template, [40, 80])
        assert len(chk.values) == 2 and all(v > 0 for v in chk.values)


class TestMonteCarlo:
    def test_needs_trials(self):
        with pytest.raises(ValueError):
            ratio_monte_carlo(Gnp(10, Fraction(1, 2)), trials=1, seed=0)

    def test_deterministic_given_seed(self):
        spec = Gnp(60, Fraction(1, 10))
        a = ratio_monte_carlo(spec, trials=20, seed=7)
        b = ratio_monte_carlo(spec, trials=20, seed=7)
        assert a == b
        c = ratio_monte_carlo(spec, trials=20, seed=8)
        assert a.ratio != c.ratio

    @pytest.mark.parametrize("p", [Fraction(1, 20), Fraction(3, 10)], ids=["sparse", "dense"])
    def test_gnp_within_four_se(self, p):
        spec = Gnp(200, p)
        closed = float(ratio_closed_form(spec).ratio)
        mc = ratio_monte_carlo(spec, trials=300, seed=1234)
        assert mc.ratio_se is not None and mc.ratio_se > 0
        assert abs(mc.ratio - closed) <= 4 * mc.ratio_se

    def test_torus_within_four_se(self):
        spec = GeometricTorus(60, 0.2)
        closed = ratio_closed_form(spec).ratio
        mc = ratio_monte_carlo(spec, trials=300, seed=88)
        assert abs(mc.ratio - closed) <= 4 * mc.ratio_se

    def test_config_deterministic_law_is_exact(self):
        spec = ConfigModel(200, DELTA3)
        mc = ratio_monte_carlo(spec, trials=5, seed=0)
        assert mc.ratio == float(Fraction(4, 200))
        assert mc.ratio_se == 0.0
        assert mc.post_erasure_ratio is not None
        assert mc.post_erasure_ratio >= mc.ratio

    def test_config_mixed_law_close(self):
        spec = ConfigModel(200, MIXED_LAW)
        closed = float(ratio_closed_form(spec).ratio)
        mc = ratio_monte_carlo(spec, trials=300, seed=55)
        assert abs(mc.ratio - closed) / closed < 0.05


class TestTrendClassifier:
    def test_power_law_fit_recovers_slope(self):
        ns = [50, 100, 200, 400]
        vals = [3.0 * n**-0.7 for n in ns]
        assert fit_power_law(ns, vals) == pytest.approx(-0.7, abs=1e-12)
        with pytest.raises(ValueError):
            fit_power_law([10], [1.0])
        with pytest.raises(ValueError):
            fit_power_law([10, 20], [1.0, 0.0])

    def test_verdicts(self):
        # the reference rule's table; ratio_over_grid is held to that rule below
        assert classify_ratio_trend([100, 1000], [0.04, 0.004]) == "concentrates"
        assert classify_ratio_trend([100, 1000], [0.3, 0.301]) == "anti_concentrates"
        assert classify_ratio_trend([100, 1000], [0.0, 0.0]) == "concentrates"
        assert classify_ratio_trend([100, 1000], [0.0, 0.1]) == "inconclusive"
        assert classify_ratio_trend([100, 1000], [10.0, 1.0]) == "inconclusive"
        assert classify_ratio_trend([100], [0.3]) == "inconclusive"
        assert classify_ratio_trend([100, 1000], [0.3, None]) == "inconclusive"

    def test_trend_labels(self):
        assert trend([100, 1000], [0.04, 0.004], 0.05) == (pytest.approx(-1.0), "vanishing")
        assert trend([100, 1000], [0.3, 0.3], 0.05) == (pytest.approx(0.0, abs=1e-12), "flat")
        assert trend([100, 1000], [0.0, 0.0], 0.05) == (None, "vanishing")
        assert trend([100, 1000], [0.0, 0.1], 0.05) == (None, "inconclusive")
        assert trend([100, 1000], [-0.1, -0.1], 0.05) == (None, "inconclusive")
        assert trend([100, 1000], [0.3, None], 0.05) == (None, "inconclusive")
        assert trend([100], [0.3], 0.05) == (None, "inconclusive")
        assert trend([100], [0.0], 0.05) == (None, "inconclusive")
        # decaying but not yet below the floor, below the floor but decaying
        # too slowly, flat but not above the floor, above the floor but growing
        assert trend([100, 1000], [10.0, 1.0], 0.05)[1] == "inconclusive"
        assert trend([100, 10000], [0.04, 0.04 * 100**-0.4], 0.05)[1] == "inconclusive"
        assert trend([100, 1000], [0.3, 0.3], 0.5)[1] == "inconclusive"
        assert trend([100, 1000], [0.3, 3.0], 0.05)[1] == "inconclusive"

    @given(ratio_series())
    def test_rdcheck_verdict_matches_reference(self, case):
        ns, ratios = case
        assert rdcheck_verdict(ns, ratios) == classify_ratio_trend(ns, ratios)

    def test_grid_closed_form(self):
        # dense Bernoulli pairs: the ratio is exactly 4 / (n - 1)
        res = ratio_over_grid(lambda n: Gnp(n, Fraction(1, 2)), [20, 40, 80, 160])
        assert [p.ratio for p in res.points] == [
            Fraction(4, n - 1) for n in (20, 40, 80, 160)
        ]
        assert res.verdict == "concentrates"
        res = ratio_over_grid(star_like, [200, 400, 800])
        assert res.verdict == "anti_concentrates"

    def test_grid_monte_carlo(self):
        res = ratio_over_grid(
            lambda n: Gnp(n, 4.0 / n), [100, 200, 400], mode="monte_carlo",
            trials=100, seed=9,
        )
        assert res.verdict == "concentrates"
        assert all(p.ratio_se is not None for p in res.points)

    def test_grid_mode_validated(self):
        with pytest.raises(ValueError, match="mode"):
            ratio_over_grid(star_like, [10, 20], mode="guess")

    @pytest.mark.parametrize("grid", [[2000, 40], [100, 100]])
    @pytest.mark.parametrize("check", [ratio_over_grid, assumption_star_check])
    def test_grid_must_strictly_increase(self, check, grid):
        # the verdicts read the last entry as the largest n
        with pytest.raises(ValueError, match=re.escape(f"strictly increasing, got {tuple(grid)}")):
            check(lambda n: Gnp(n, Fraction(1, 2)), grid)


class TestEdgeCountCheck:
    def test_bernoulli_pairs_hold(self):
        chk = assumption_star_check(
            lambda n: Gnp(n, Fraction(1, 2)), [40, 80, 160]
        )
        assert chk.holds
        assert chk.exponent == pytest.approx(-2.0, abs=0.5)

    def test_deterministic_total_holds_trivially(self):
        chk = assumption_star_check(
            lambda n: ConfigModel(n, DELTA3), [50, 100]
        )
        assert chk.values == (0.0, 0.0)
        assert chk.exponent is None
        assert chk.holds

    @given(variance_series())
    def test_rule_matches_reference_below_the_floor(self, case):
        ns, values = case
        slope, label = trend(ns, values, RATIO_FLOOR)
        assert (slope, label == "vanishing") == reference_star_rule(ns, values)

    @pytest.mark.parametrize(
        "template, grid",
        [
            (lambda n: Gnp(n, Fraction(1, 2)), [40, 80, 160]),
            (lambda n: Gnp(n, 4.0 / n), [250, 500, 1000, 2000]),
            (lambda n: ConfigModel(n, DELTA3), [50, 100]),
            (lambda n: ConfigModel(n, MIXED_LAW), [100, 200, 400]),
        ],
    )
    def test_check_matches_reference(self, template, grid):
        chk = assumption_star_check(template, grid)
        assert chk.values[-1] < RATIO_FLOOR
        assert (chk.exponent, chk.holds) == reference_star_rule(grid, list(chk.values))

    def test_decay_above_the_floor_does_not_hold(self):
        # Var(m)/E[m]^2 of gnp with p = 1/n is about 2/n: it decays, but at
        # n = 32 it is still above the floor
        chk = assumption_star_check(lambda n: Gnp(n, Fraction(1, n)), [8, 16, 32])
        assert chk.values[-1] > RATIO_FLOOR
        assert chk.exponent <= -0.5 and not chk.holds
        assert reference_star_rule([8, 16, 32], list(chk.values))[1]

    def test_one_point_grid(self):
        chk = assumption_star_check(lambda n: Gnp(n, Fraction(1, 2)), [100])
        assert len(chk.values) == 1
        assert chk.exponent is None and not chk.holds

    def test_edgeless_model_refused(self):
        with pytest.raises(ValueError, match="no edges"):
            assumption_star_check(lambda n: Gnp(n, Fraction(0)), [10, 20])


class TestSpecStrings:
    def test_gnp(self):
        spec = parse_model("gnp:n=40,p=1/5")
        assert spec == Gnp(40, Fraction(1, 5))

    def test_parameter_expressions(self):
        spec = parse_model_template("gnp:p=4/n")(100)
        assert isinstance(spec, Gnp) and spec.p == pytest.approx(0.04)
        geo = parse_model_template("geo:r=1/(2*sqrt(n))")(25)
        assert geo == GeometricTorus(25, 0.1)

    def test_config_law_with_commas(self):
        spec = parse_model("config:n=20,law=1:1/2,3:1/2")
        assert spec == ConfigModel(20, MIXED_LAW)

    def test_starlike(self):
        spec = parse_model_template("starlike")(8)
        assert spec == ChungLu(8, (8, 1, 1, 1, 1, 1, 1, 1))
        spec = parse_model("starlike:n=6")
        assert spec.n == 6

    def test_weights_file(self, tmp_path):
        f = tmp_path / "w.txt"
        f.write_text("2 2 1/2\n")
        spec = parse_model_template(f"cl:w={f}")(3)
        assert spec == ChungLu(3, (2, 2, Fraction(1, 2)))

    def test_weight_file_fixes_n(self, tmp_path):
        f = tmp_path / "w.txt"
        f.write_text("2 2 1/2\n")
        assert parse_model(f"cl:w={f}") == ChungLu(3, (2, 2, Fraction(1, 2)))
        assert parse_model(f"cl:n=3,w={f}") == ChungLu(3, (2, 2, Fraction(1, 2)))
        for spec, n in ((f"cl:n=4,w={f}", None), (f"cl:w={f}", 4), (f"cl:n=3,w={f}", 2)):
            with pytest.raises(ValueError, match=re.escape(f"weight file {str(f)!r} has 3 weights, but n={n or 4}")):
                parse_model_template(spec)(n)

    def test_n_in_short_form(self):
        assert parse_model("starlike:8") == parse_model("starlike:n=8")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("gnp:n=10,p=1/2,n=20", "parameter 'n' given twice"),
            ("gnp:n=10,p=1/2,zz=3", "model 'gnp' has no parameter 'zz'; it takes n, p"),
            ("gnp:n=10,p=1/2,=3", "empty parameter name in '=3'"),
            ("starlike:n=8,p=1/2", "model 'starlike' has no parameter 'p'; it takes n"),
            ("config:n=10,law=3:1,N=5", "model 'config' has no parameter 'N'"),
        ],
    )
    def test_unknown_empty_and_repeated_keys_refused(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_model_template(text)

    def test_grid_overrides_embedded_n(self):
        template = parse_model_template("gnp:n=10,p=0.25")
        assert template(None).n == 10
        assert template(77).n == 77

    @pytest.mark.parametrize(
        "text",
        ["foo:p=1", "gnp:n=10", "gnp:0.5", "gnp"],
    )
    def test_rejected_at_build(self, text):
        with pytest.raises(ValueError):
            parse_model_template(text)

    @pytest.mark.parametrize(
        "text",
        [
            "config:n=5,law=3",
            "gnp:n=10,p=q+1",
            "gnp:n=500,p=n**n**n",
            "gnp:n=500,p=(-n)**0.5",
            "gnp:n=500,p=True",
        ],
    )
    def test_rejected_at_evaluation(self, text):
        with pytest.raises(ValueError):
            parse_model(text)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("4/n", 4 / 100),
            ("n**-0.5", 100**-0.5),
            ("sqrt(n)/n", math.sqrt(100) / 100),
            ("log(n)/n", math.log(100) / 100),
            ("pi/n", math.pi / 100),
            ("2*n", 200),
            ("0.1", Fraction(1, 10)),
            ("3/4", Fraction(3, 4)),
        ],
    )
    def test_expression_values_and_types(self, text, expected):
        got = parse_number(text, 100)
        assert got == expected and type(got) is type(expected)

    @pytest.mark.parametrize("text", ["8", " 8 ", "+8", "-3", "0008", "1_000", "\u0663"])
    def test_whole_numbers_read_as_int_reads_them(self, text):
        assert parse_int(text) == int(text)

    @pytest.mark.parametrize("text", ["8.0", "1x", "", "3/1", "1e3"])
    def test_whole_number_refused(self, text):
        with pytest.raises(ValueError, match="is not a whole number"):
            parse_int(text)

    def test_missing_n_rejected_at_build(self):
        with pytest.raises(ValueError, match="fix n"):
            parse_model("gnp:p=0.1")
