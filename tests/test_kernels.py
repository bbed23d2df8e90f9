"""The graph-building and edge-counting kernels against their dense references.

Each reference is the straightforward form of its kernel: quadratic memory
or an unconditional sort.  The kernels must give exactly the same arrays,
the same errors and the same stream consumption; the scale tests show that
they stay within memory bounds the references cannot meet.
"""

import os
import resource
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from colorstats import coloring
from colorstats.coloring import Composition, count_batch, sample_batch
from colorstats.graph import EdgeListError, Graph, path, regular_circulant, star, stats
from colorstats.moments import var_common, var_Mi
from colorstats.oracle import compositions_of, corpus_graphs
from colorstats.randgraph import (
    ConfigModel,
    ConfigSample,
    DegreeLaw,
    GeometricTorus,
    _torus_edges,
    config_sample,
    generate,
)
from colorstats.seeds import stream

# ── references ────────────────────────────────────────────────────────────


def reference_torus_edges(pts, r):
    """All pairs i < j of the (n, n, 2) difference array within distance r."""
    diff = np.abs(pts[:, None, :] - pts[None, :, :])
    diff = np.minimum(diff, 1.0 - diff)
    d2 = (diff**2).sum(axis=-1)
    iu = np.triu_indices(len(pts), k=1)
    hit = d2[iu] <= r**2
    return np.column_stack((iu[0][hit], iu[1][hit]))


def reference_config_sample(spec, rng):
    """Erased configuration draw as first written: stubs indexed by
    rng.permutation, pairs ordered by np.sort(axis=1), repeats dropped by
    np.unique(axis=0)."""
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


def reference_from_edges(n, edges):
    """Graph.from_edges with an unconditional lexsort and duplicate scan."""
    try:
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        pairs = np.frompyfunc(int, 1, 1)(np.asarray(edges, dtype=object)).reshape(-1, 2)
    lo, hi = np.minimum(*pairs.T), np.maximum(*pairs.T)
    bad = (lo == hi) | (lo < 0) | (hi >= n)
    first = int(np.argmax(bad)) if bad.any() else len(pairs)
    order = np.lexsort((hi[:first], lo[:first]))
    u, v = lo[order], hi[order]
    dup = (u[1:] == u[:-1]) & (v[1:] == v[:-1])
    if dup.any():
        i = int(order[1:][dup].min())
        raise EdgeListError(f"duplicate edge {(int(lo[i]), int(hi[i]))}", edge=i)
    if first < len(pairs):
        x, y = pairs[first].tolist()
        if x == y:
            raise EdgeListError(f"self-loop at vertex {x}", edge=first)
        raise EdgeListError(f"edge ({x}, {y}) out of range for n={n}", edge=first)
    if not 1 <= n < 2**63:
        raise EdgeListError(f"graph needs 1 <= n < 2**63 vertices, got n={n}")
    return Graph(n, u, v)


def reference_count_batch(g, colors, rows=4096):
    """Monochromatic edges per row, comparing (rows, m) blocks."""
    out = np.zeros(colors.shape[0], dtype=np.int64)
    for lo in range(0, colors.shape[0], rows):
        block = colors[lo : lo + rows]
        out[lo : lo + rows] = (block[:, g.u] == block[:, g.v]).sum(axis=1)
    return out


# ── torus generator ───────────────────────────────────────────────────────

# radii around the cell-count steps: k = int(1/r) - 1 changes at r = 1/j
BOUNDARY_RADII = sorted(
    {x for j in range(2, 30) for x in (1 / j, np.nextafter(1 / j, 0), np.nextafter(1 / j, 1))
     if 0 < x <= 0.5}
)
RADII = st.one_of(
    st.sampled_from([0.5, 0.34, 0.3, 0.26, 0.01, *BOUNDARY_RADII]),
    st.floats(1e-3, 0.5, exclude_min=False),
)


def _edges(g):
    return np.column_stack((g.u, g.v))


class TestTorus:
    @given(n=st.one_of(st.sampled_from([1, 2]), st.integers(1, 80)), r=RADII,
           seed=st.integers(0, 2**32))
    def test_generate_matches_dense_reference(self, n, r, seed):
        rng = stream(seed)
        g = generate(GeometricTorus(n, r), rng)
        pts = stream(seed).random((n, 2))
        assert g == Graph.from_edges(n, reference_torus_edges(pts, r))
        assert rng.random() == stream(seed).random(2 * n + 1)[-1]  # draws only the points

    @pytest.mark.parametrize("r", [0.5, 0.34, 0.3, 0.26, 1 / 7, 0.05, 0.01])
    def test_n2000_matches_dense_reference(self, r):
        g = generate(GeometricTorus(2000, r), stream(5))
        pts = stream(5).random((2000, 2))
        assert np.array_equal(_edges(g), reference_torus_edges(pts, r))

    @given(
        coords=st.lists(
            st.one_of(
                st.integers(0, 40).flatmap(
                    lambda j: st.sampled_from([j / 40, np.nextafter(j / 40, 0),
                                               np.nextafter(j / 40, 1)])),
                st.floats(0, 1, exclude_max=True),
            ).filter(lambda x: 0 <= x < 1),
            min_size=2, max_size=60,
        ),
        r=RADII,
    )
    def test_points_on_cell_edges(self, coords, r):
        """Coordinates on and next to cell boundaries, 0 and 1 - ulp."""
        pts = np.array(coords[: len(coords) // 2 * 2]).reshape(-1, 2)
        assert np.array_equal(_torus_edges(pts, r), reference_torus_edges(pts, r))

    def test_tiny_radius_keeps_the_cell_table_small(self):
        pts = stream(2).random((50, 2))
        assert _torus_edges(pts, 1e-300).shape == (0, 2)
        assert _torus_edges(pts, 5e-324).shape == (0, 2)  # 1/r is inf


# ── configuration model ───────────────────────────────────────────────────

LAWS = [
    DegreeLaw((1, 5), (Fraction(1, 2), Fraction(1, 2))),
    DegreeLaw((3,), (Fraction(1),)),
    DegreeLaw((0, 2, 9), (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))),
]


class TestConfig:
    @given(n=st.integers(1, 120), law=st.sampled_from(LAWS), seed=st.integers(0, 2**32))
    def test_matches_axis0_unique_reference(self, n, law, seed):
        spec = ConfigModel(n, law)
        rng, ref_rng = stream(seed), stream(seed)
        got, want = config_sample(spec, rng), reference_config_sample(spec, ref_rng)
        assert got.graph == want.graph
        assert np.array_equal(got.pre_degrees, want.pre_degrees)
        assert (got.pre_m, got.pre_sigma2) == (want.pre_m, want.pre_sigma2)
        assert rng.random() == ref_rng.random()

    def test_large_draw_matches_reference(self):
        spec = ConfigModel(4000, LAWS[0])
        assert config_sample(spec, stream(3)).graph == reference_config_sample(spec, stream(3)).graph

    @pytest.mark.parametrize("n", [3, 10, 500, 4000])
    def test_same_graphs_and_next_draw_as_the_reference(self, n):
        for seed in range(30):
            spec = ConfigModel(n, LAWS[seed % len(LAWS)])
            rng, ref_rng = stream(seed, n), stream(seed, n)
            assert config_sample(spec, rng).graph == reference_config_sample(spec, ref_rng).graph
            assert rng.random() == ref_rng.random()


# ── graph construction ────────────────────────────────────────────────────


def _outcome(build, n, edges):
    try:
        g = build(n, edges)
    except EdgeListError as err:
        return str(err), err.edge
    return g.n, g.u.tolist(), g.v.tolist()


@st.composite
def edge_lists(draw):
    """Small edge lists, sometimes sorted, with repeats and bad endpoints."""
    n = draw(st.integers(1, 8))
    vertex = st.integers(-1, n)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=12))
    if draw(st.booleans()):
        edges = sorted((min(e), max(e)) for e in edges)
    if edges and draw(st.booleans()):
        i = draw(st.integers(0, len(edges) - 1))
        edges.insert(i + 1, edges[i])
    return n, edges


class TestFromEdges:
    @given(edge_lists())
    def test_matches_lexsort_reference(self, case):
        n, edges = case
        assert _outcome(Graph.from_edges, n, edges) == _outcome(reference_from_edges, n, edges)

    @pytest.mark.parametrize(
        "edges, message, index",
        [
            ([(0, 1), (0, 1)], "duplicate edge (0, 1)", 1),
            ([(0, 1), (1, 2), (2, 3), (3, 3)], "self-loop at vertex 3", 3),
            ([(0, 1), (0, 2), (0, 2), (4, 4)], "duplicate edge (0, 2)", 2),
            ([(0, 1), (1, 2), (2, 9)], "edge (2, 9) out of range for n=4", 2),
        ],
    )
    def test_sorted_input_faults(self, edges, message, index):
        for build in (Graph.from_edges, reference_from_edges):
            with pytest.raises(EdgeListError) as err:
                build(4, edges)
            assert (str(err.value), err.value.edge) == (message, index)

    def test_sorted_input_kept_as_is(self):
        g = Graph.from_edges(5, np.array([[0, 1], [0, 4], [2, 3]]))
        assert list(zip(g.u.tolist(), g.v.tolist())) == [(0, 1), (0, 4), (2, 3)]
        assert g.u.dtype == np.int64 and not g.u.flags.writeable


# ── edge counting ─────────────────────────────────────────────────────────

GRAPHS = [path(1), path(2), path(7), star(9), regular_circulant(10, 4), regular_circulant(30, 7)]


class TestCountBatch:
    @given(
        g=st.sampled_from(GRAPHS),
        rows=st.integers(1, 40),
        cells=st.sampled_from([1, 2, 7, 64, coloring.BATCH_CELLS]),
        seed=st.integers(0, 2**32),
    )
    def test_matches_row_chunked_reference(self, g, rows, cells, seed):
        """Edge chunks from one edge per chunk up to the whole graph."""
        s = min(3, g.n) if g.n > 1 else 1
        colors = stream(seed).integers(1, s + 1, size=(rows, g.n)).astype(np.int8)
        with mock.patch.object(coloring, "BATCH_CELLS", cells):
            got = count_batch(g, colors)
        assert got.dtype == np.int64
        assert np.array_equal(got, reference_count_batch(g, colors, rows=3))

    def test_single_row_and_edgeless_graph(self):
        colors = np.array([[1, 2, 1, 1, 2, 2, 1]], dtype=np.int8)
        assert count_batch(path(7), colors).tolist() == [2]
        assert count_batch(Graph.from_edges(7, []), np.repeat(colors, 5, axis=0)).tolist() == [0] * 5

    @pytest.mark.parametrize("cells", [1 << 10, 1 << 18, 1 << 22])
    def test_chunk_sums_do_not_wrap(self, cells):
        """Under all-equal colors every edge is monochromatic; one chunk of
        all 80,000 edges would wrap a uint16 row sum past 65,535."""
        g = regular_circulant(20000, 8)
        for rows in (1, 2, 3, 5):
            colors = np.ones((rows, g.n), dtype=np.int8)
            with mock.patch.object(coloring, "BATCH_CELLS", cells):
                got = count_batch(g, colors)
            assert got.tolist() == [g.m] * rows
            assert np.array_equal(got, (colors[:, g.u] == colors[:, g.v]).sum(axis=1))

    def test_more_rows_than_one_chunk_holds(self):
        g = regular_circulant(20000, 10)  # m = 100,000
        rows = coloring.BATCH_CELLS // g.m + 5
        colors = sample_batch(Composition.balanced(g.n, 3), rows, stream(4))
        assert np.array_equal(count_batch(g, colors), reference_count_batch(g, colors))


def complement(g):
    """The complement graph, built from the pair indices of np.triu_indices."""
    iu, iv = np.triu_indices(g.n, 1)
    keep = np.ones(len(iu), dtype=bool)
    keep[g.u * g.n - g.u * (g.u + 1) // 2 + g.v - g.u - 1] = False
    return Graph.from_edges(g.n, np.column_stack((iu[keep], iv[keep])))


class TestComplementIdentity:
    """Every vertex pair is an edge of exactly one of G and its complement,
    so per coloring their monochromatic counts sum to sum_i C(c_i, 2), and
    M and each M_i have the same variance on both."""

    def test_counts_and_variances_of_a_graph_and_its_complement(self):
        large = [star(2000), path(1500), regular_circulant(2000, 7)]
        graphs = [g for _, g in corpus_graphs(max_n=9)] + large
        for i, g in enumerate(graphs):
            gc = complement(g)
            assert g.m + gc.m == g.n * (g.n - 1) // 2
            if g.n <= 9:
                comps = [Composition(p) for s in (2, 3) for p in compositions_of(g.n, s)]
            else:
                comps = [Composition.balanced(g.n, 3),
                         Composition.from_ratios(g.n, (Fraction(3, 4), Fraction(1, 4)))]
                # 7 rows of each composition, counted in one matrix
                colors = np.vstack([sample_batch(c, 7, stream(30, i, k)) for k, c in enumerate(comps)])
                pairs = np.repeat([sum(ci * (ci - 1) // 2 for ci in c.classes) for c in comps], 7)
                for cells in (1 << 10, 1 << 18, 1 << 22):
                    with mock.patch.object(coloring, "BATCH_CELLS", cells):
                        total = count_batch(g, colors) + count_batch(gc, colors)
                    assert np.array_equal(total, pairs), (g.n, cells)
            g_stats, gc_stats = stats(g), stats(gc)
            for c in comps:
                assert var_common(g_stats, c) == var_common(gc_stats, c), (g.n, c)
                for k in range(1, c.s + 1):
                    assert var_Mi(g_stats, c, k) == var_Mi(gc_stats, c, k), (g.n, c, k)


# ── scale ─────────────────────────────────────────────────────────────────


class TestScale:
    def test_geo_grid_runs_in_one_gib(self):
        """The dense generator needs 5.96 GiB for one n = 20000 draw."""
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "colorstats.cli", "rdcheck", "--model", "geo:r=0.01",
             "--grid", "20000,40000", "--mode", "mc", "--trials", "2"],
            capture_output=True, text=True, env=env, timeout=120,
            preexec_fn=limit_address_space,
        )
        assert proc.returncode == 0, proc.stderr
        assert "verdict: concentrates" in proc.stdout

    def test_count_batch_memory_is_bounded_by_the_chunk(self):
        g = regular_circulant(20000, 10)
        colors = sample_batch(Composition.balanced(g.n, 3), 100, stream(6))
        tracemalloc.start()
        try:
            count_batch(g, colors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the transposed copy plus two gathered operands and one comparison
        assert peak < colors.nbytes + 3 * coloring.BATCH_CELLS + (1 << 20)

    def test_count_batch_chunks_fit_two_mib(self):
        """The same count, bounded by a fixed size, not by the chunk constant."""
        g = regular_circulant(20000, 10)
        colors = sample_batch(Composition.balanced(g.n, 3), 100, stream(6))
        tracemalloc.start()
        try:
            count_batch(g, colors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < colors.nbytes + (2 << 20)
