"""Graph construction, degree statistics, generators, and edge-list IO."""

import io
import itertools
import math
import os
import re
import tempfile
import threading
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from colorstats import graph
from colorstats.coloring import Composition
from colorstats.graph import (
    EdgeListError,
    Graph,
    complete,
    cycle,
    disjoint_union,
    graph_from_spec,
    graph_template,
    load_edge_list,
    path,
    regular_circulant,
    save_edge_list,
    star,
    stats,
    threshold_graph,
)
from colorstats.moments import full_report


def edges(g):
    return tuple(zip(g.u.tolist(), g.v.tolist()))


def zeta_sq(g):
    """The zeta^2 the CLI writes: full_report's, under a balanced 2-coloring."""
    return full_report(g, Composition.balanced(g.n, 2)).zeta_sq


# the list-built generators that star, path, cycle and threshold_graph replaced
LIST_BUILT = {
    star: lambda n: Graph.from_edges(n, [(0, v) for v in range(1, n)]),
    path: lambda n: Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)]),
    cycle: lambda n: Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)]),
}


def circulant_blocks(n, d):
    """regular_circulant as one (v, v + off mod n) block per offset, sorted by from_edges."""
    vs = np.arange(n, dtype=np.int64)
    blocks = [np.column_stack((vs, (vs + off) % n)) for off in range(1, d // 2 + 1)]
    if d % 2 == 1:
        blocks.append(np.column_stack((vs[: n // 2], vs[n // 2 :])))
    return Graph.from_edges(n, np.concatenate(blocks))


def threshold_loop(creation):
    """threshold_graph as a loop over the sequence: a D vertex joins every earlier one."""
    seq = creation.strip().upper()
    edges = [(u, v) for v, ch in enumerate(seq) if ch == "D" for u in range(v)]
    return Graph.from_edges(len(seq), edges)


class TestGraphConstruction:
    def test_canonicalization(self):
        g = Graph.from_edges(4, [(3, 1), (0, 2), (1, 0)])
        assert edges(g) == ((0, 1), (0, 2), (1, 3))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(3, [(1, 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph.from_edges(3, [(0, 1), (1, 0)])

    def test_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(3, [(0, 3)])

    def test_degrees(self):
        assert path(4).degrees.tolist() == [1, 2, 2, 1]
        assert star(5).degrees.tolist() == [4, 1, 1, 1, 1]

    def test_first_bad_edge_in_input_order_is_named(self):
        with pytest.raises(ValueError, match=r"edge \(4, 0\) out of range"):
            Graph.from_edges(4, [(0, 1), (4, 0), (2, 2), (-1, 3)])
        with pytest.raises(ValueError, match="self-loop at vertex 2"):
            Graph.from_edges(4, [(0, 1), (2, 2), (4, 0)])
        with pytest.raises(ValueError, match=r"duplicate edge \(1, 2\)"):
            Graph.from_edges(4, [(2, 1), (0, 3), (1, 2)])
        with pytest.raises(EdgeListError, match=r"duplicate edge \(0, 1\)") as err:
            Graph.from_edges(4, [(0, 1), (1, 0), (2, 2)])
        assert err.value.edge == 1 and err.value.line is None

    def test_order_past_the_int64_code_range(self):
        # u * n + v codes would overflow int64 here; the sort must not
        big = 3 * 10**9
        g = Graph.from_edges(4 * 10**9, [(big + 1, big), (big, 0), (1, 2)])
        assert edges(g) == ((0, big), (1, 2), (big, big + 1))

    def test_arrays_are_read_only_and_unhashable(self):
        g = path(4)
        for arr in (g.u, g.v, g.degrees):
            with pytest.raises(ValueError):
                arr[0] = 3
        with pytest.raises(TypeError):
            hash(g)
        assert g == path(4) and g != path(5) and g != cycle(4)


@st.composite
def vertex_pairs(draw):
    n = draw(st.integers(1, 9))
    ends = st.integers(0, n - 1)
    return n, draw(st.sets(st.tuples(ends, ends)))


class TestStats:
    @given(vertex_pairs())
    def test_matches_python_loop_reference(self, case):
        n, pairs = case
        canon = sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b})
        g = Graph.from_edges(n, canon[::-1])
        deg = [0] * n
        for a, b in canon:
            deg[a] += 1
            deg[b] += 1
        assert edges(g) == tuple(canon) and g.degrees.tolist() == deg
        assert stats(g).sigma2 == sum(d * d for d in deg)

    def test_path4(self):
        st = stats(path(4))
        assert (st.n, st.m, st.sigma2) == (4, 3, 10)

    def test_wedge_identity(self):
        # sigma2 = 2 * wedges + 2 * m on any graph, wedges = sum of C(d, 2)
        for g in (path(7), cycle(6), star(8), complete(5), threshold_graph("IDDID")):
            st = stats(g)
            wedges = sum(math.comb(d, 2) for d in g.degrees.tolist())
            assert st.sigma2 == 2 * wedges + 2 * st.m

    def test_zeta_examples(self):
        assert zeta_sq(path(4)) == Fraction(10, 9)
        assert zeta_sq(complete(4)) == 1
        assert zeta_sq(cycle(10)) == Fraction(4, 10)
        assert zeta_sq(star(8)) == Fraction(8, 7)

    def test_zeta_regular_is_4_over_n(self):
        for n, d in ((10, 4), (12, 3), (9, 2)):
            g = regular_circulant(n, d)
            assert zeta_sq(g) == Fraction(4, n)

    def test_zeta_needs_edges(self):
        with pytest.raises(ValueError, match="at least one edge"):
            zeta_sq(Graph.from_edges(4, []))


class TestGenerators:
    def test_complete(self):
        g = complete(5)
        assert g.m == 10 and set(g.degrees) == {4}

    def test_cycle_path_star_sizes(self):
        assert cycle(6).m == 6
        assert path(6).m == 5
        assert star(6).m == 5

    @pytest.mark.parametrize("build, low", [(star, 2), (path, 1), (cycle, 3)],
                             ids=["star", "path", "cycle"])
    def test_matches_list_built_reference(self, build, low):
        for n in [*range(low, 61), 10**5]:
            assert build(n) == LIST_BUILT[build](n), n

    def test_circulant_regular(self):
        assert set(regular_circulant(10, 4).degrees) == {4}
        assert set(regular_circulant(6, 3).degrees) == {3}
        assert set(regular_circulant(8, 5).degrees) == {5}

    def test_circulant_matches_offset_blocks_in_canonical_order(self, monkeypatch):
        """The edges reach from_edges already sorted: its lexsort never runs."""
        want = {(n, d): circulant_blocks(n, d)
                for n in range(3, 65) for d in range(1, n) if n * d % 2 == 0}

        def no_sort(*args, **kwargs):
            raise AssertionError("from_edges sorted the circulant's edges")

        monkeypatch.setattr(graph.np, "lexsort", no_sort)
        for (n, d), g in want.items():
            assert regular_circulant(n, d) == g, (n, d)

    def test_circulant_parity_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            regular_circulant(7, 3)

    def test_threshold_idid_maximizes_sigma2(self):
        g = threshold_graph("IDID")
        assert g.n == 4 and g.m == 4
        assert stats(g).sigma2 == 18
        # among all 4-vertex graphs with 4 edges
        pairs = list(itertools.combinations(range(4), 2))
        best = max(
            stats(Graph.from_edges(4, chosen)).sigma2
            for chosen in itertools.combinations(pairs, 4)
        )
        assert best == 18

    def test_threshold_matches_loop_reference(self):
        for length in range(1, 11):
            for seq in itertools.product("ID", repeat=length):
                creation = "".join(seq)
                assert threshold_graph(creation) == threshold_loop(creation), creation
        assert threshold_graph("D" * 2000) == threshold_loop("D" * 2000)
        assert threshold_graph(" idDi ") == threshold_loop(" idDi ")

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            threshold_graph("IDX")
        with pytest.raises(ValueError):
            threshold_graph("")

    def test_disjoint_union(self):
        g = disjoint_union([path(3), cycle(3)])
        assert g.n == 6 and g.m == 5
        assert (3, 4) in edges(g)

    def test_graph_from_spec(self):
        assert graph_from_spec("star:8").m == 7
        assert graph_from_spec("circulant:n=10,d=4").m == 20
        assert graph_from_spec("threshold:IDID").m == 4
        assert graph_from_spec("star:n=8") == graph_from_spec("star:8")
        with pytest.raises(ValueError):
            graph_from_spec("mystery:4")

    def test_graph_template_takes_grid_n(self):
        assert graph_template("star")(9) == star(9)
        assert graph_template("star:8")(9) == star(9)
        assert graph_template("circulant:d=4")(10) == graph_from_spec("circulant:n=10,d=4")
        with pytest.raises(ValueError, match="does not fix n"):
            graph_from_spec("circulant:d=4")
        with pytest.raises(ValueError, match="needs parameter 'd'"):
            graph_template("circulant:n=10")
        with pytest.raises(ValueError, match="no grid n"):
            graph_template("threshold:IDID")(8)


# what each fault message says, most specific first
FAULT_KINDS = ("more than", "'u v'", "two integers", "self-loop", "out of range",
               "duplicate", "declared", "vertices")


def reference_load(text):
    """Reference loader that checks one line at a time, in file order: the
    sorted edges, or (line, fault kind) of the first fault.  Headers are valid
    but for n, which past int64 is refused only after every line passes."""
    lines = text.splitlines()
    n, m = map(int, lines[0].split())
    seen = set()
    lineno = 1
    for raw in lines[1:]:
        lineno += 1
        if not raw.strip():
            continue
        if len(seen) == m:
            return lineno, "more than"
        tokens = raw.split()
        if len(tokens) != 2:
            return lineno, "'u v'"
        if not all(re.fullmatch(r"-?[0-9]+", t) for t in tokens):
            return lineno, "two integers"
        u, v = map(int, tokens)
        if u == v:
            return lineno, "self-loop"
        if not (0 <= u < n and 0 <= v < n):
            return lineno, "out of range"
        e = (min(u, v), max(u, v))
        if e in seen:
            return lineno, "duplicate"
        seen.add(e)
    if len(seen) != m:
        return lineno, "declared"
    if n >= 2**63:
        return None, "vertices"
    return tuple(sorted(seen))


def load_outcome(text):
    """load_edge_list's answer in reference_load's form."""
    try:
        return edges(load_edge_list(io.StringIO(text)))
    except EdgeListError as err:
        return err.line, next(k for k in FAULT_KINDS if k in str(err))


@st.composite
def edge_list_texts(draw):
    """A header (n small or past int64), then edge, blank and malformed lines
    joined by mixed line breaks and separated by mixed whitespace."""
    n = draw(st.one_of(st.integers(1, 6), st.sampled_from([2**63, 10**22])))
    vertex = st.integers(0, n - 1).map(str)
    odd_number = st.sampled_from(
        ["-1", str(n), "0007", str(10**20), "+1", "1_0", "\u0663", "x"])
    number = st.integers(0, 9).flatmap(lambda k: vertex if k else odd_number)
    space = st.sampled_from([" ", "\t", "  ", "\xa0", "\x1f"])
    edge = st.builds(lambda a, sp, b: a + sp + b, number, space, number)
    blank = st.sampled_from(["", " ", "\t", "\u3000"])
    body = draw(st.lists(st.one_of(edge, edge, edge, blank), max_size=8))
    if draw(st.booleans()):
        body.insert(draw(st.integers(0, len(body))), draw(st.sampled_from(["1", "1 2 3"])))
    breaks = st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\u2028"])
    m = draw(st.one_of(st.just(sum(1 for line in body if line.strip())), st.integers(0, 5)))
    text = f"{n} {m}"
    for line in body:
        text += draw(breaks) + draw(st.sampled_from(["", " "])) + line
    return text + draw(st.sampled_from(["", "\n", "\r\n"]))


@st.composite
def plain_edge_list_texts(draw):
    """Edge lists of only ASCII digits, "-", spaces, tabs and LF or CRLF line
    ends, the files numpy's reader takes: distinct valid edges written with
    leading zeros, "-0" and blank lines, and in a third of the draws one flaw:
    n past int64, a number near +-2**63, a line of one or three numbers or a
    wrong m."""
    flaw = draw(st.sampled_from(["n", "number", "line", "m", *[""] * 8]))
    n = 2**63 if flaw == "n" else draw(st.one_of(st.integers(2, 40), st.just(2**63 - 1)))
    vertex = st.one_of(st.integers(0, min(n, 40) - 1), st.just(n - 1))
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
                          unique_by=frozenset, min_size=1, max_size=10))
    spelt = st.sampled_from(["{}", "0{}", "000{}"])

    def number(x):
        return "-0" if x == 0 and draw(st.booleans()) else draw(spelt).format(x)

    space = st.sampled_from([" ", "\t", "  ", " \t "])
    margin = st.sampled_from(["", "", " ", "\t"])
    body = [draw(margin) + number(u) + draw(space) + number(v) + draw(margin) for u, v in pairs]
    for _ in range(draw(st.integers(0, 3))):
        body.insert(draw(st.integers(0, len(body))), draw(st.sampled_from(["", " ", "\t"])))
    odd = {"number": st.sampled_from([f"{x} 0" for x in (2**63 - 1, 2**63, -(2**63), -(2**63) - 1, -1, n)]),
           "line": st.sampled_from(["1", "1 2 3", "0\t1 2"])}.get(flaw)
    if odd is not None:
        body.insert(draw(st.integers(0, len(body))), draw(odd))
    m = sum(1 for line in body if line.strip())
    if flaw == "m":
        m = draw(st.integers(0, 12).filter(lambda k: k != m))
    text = f"{n} {m}"
    for line in body:
        text += draw(st.sampled_from(["\n", "\r\n"])) + line
    return text + draw(st.sampled_from(["", "\n", "\r\n"]))


def load_result(source):
    """load_edge_list's graph, or the line and message of its EdgeListError."""
    try:
        return load_edge_list(source)
    except EdgeListError as err:
        return err.line, str(err)


def written(directory, text, name="g.txt"):
    """A file holding text as UTF-8, its line ends as given."""
    p = Path(directory) / name
    with open(p, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return p


@pytest.fixture
def loadtxt_sources(monkeypatch):
    """What np.loadtxt is handed, call by call."""
    sources = []
    loadtxt = np.loadtxt

    def spy(source, *args, **kwargs):
        sources.append(source)
        return loadtxt(source, *args, **kwargs)

    monkeypatch.setattr(graph.np, "loadtxt", spy)
    return sources


class TestEdgeListIO:
    def test_round_trip(self):
        g = cycle(5)
        buf = io.StringIO()
        save_edge_list(g, buf)
        assert load_edge_list(io.StringIO(buf.getvalue())) == g

    def test_non_canonical_input_canonicalized(self):
        g = load_edge_list(io.StringIO("3 2\n2 0\n1 0\n"))
        assert edges(g) == ((0, 1), (0, 2))
        out = io.StringIO()
        save_edge_list(g, out)
        assert out.getvalue() == "3 2\n0 1\n0 2\n"

    def test_file_round_trip(self, tmp_path):
        p = tmp_path / "g.txt"
        save_edge_list(star(6), p)
        assert load_edge_list(p) == star(6)

    @pytest.mark.parametrize(
        "text,lineno,fragment",
        [
            ("", 1, "empty"),
            ("3\n", 1, "header"),
            ("3 x\n", 1, "two integers"),
            ("3 1\n0 q\n", 2, "two integers"),
            ("12 1\n0 1_0\n", 2, "two integers"),
            ("3 1\n-1 2\n", 2, "out of range"),
            ("3 1\n0 1 2\n", 2, "u v"),
            ("3 1\n1 1\n", 2, "self-loop"),
            ("3 1\n0 5\n", 2, "out of range"),
            ("3 2\n0 1\n1 0\n", 3, "duplicate"),
            ("3 1\n0 1\n0 2\n", 3, "more than the declared"),
            ("3 2\n0 1\n", 2, "declared 2 edges but found 1"),
            ("3 3\n0 1\n1 0\n2 2\n", 3, "duplicate"),
            ("3 2\n1 1\n0 1\n0 2\n", 2, "self-loop"),
            ("3 2\n0 1\n\n\n1 0\n", 5, "duplicate"),
            ("3 1\n0 99999999999999999999\n", 2, "out of range"),
            ("3 1\n0 1\n1 x\n", 3, "more than the declared"),
            ("3 2\n0 1\n1 x\n", 3, "two integers"),
            (f"{10**22} 1\n0 0\n", 2, "self-loop"),
            (f"{10**22} 2\n0 1\n", 2, "declared 2 edges but found 1"),
        ],
    )
    def test_errors_name_line(self, text, lineno, fragment):
        with pytest.raises(EdgeListError) as err:
            load_edge_list(io.StringIO(text))
        assert err.value.line == lineno
        assert fragment in str(err.value)

    def test_crlf_blank_lines_and_leading_zeros(self):
        g = load_edge_list(io.StringIO("8 2\r\n0007 1\r\n\r\n  \r\n2 0\r\n"))
        assert edges(g) == ((0, 2), (1, 7))

    @pytest.mark.parametrize(
        "text,lineno,fragment",
        [
            ("3 1\n0 " + "1" * 5000 + "\n", 2, "out of range for n=3"),
            ("3 1\n-" + "1" * 5000 + " 2\n", 2, "out of range for n=3"),
            ("3 1\n" + "1" * 5000 + " " + "1" * 5000 + "\n", 2, "self-loop"),
            ("3 1\n" + "1" * 5000 + " " + "2" * 5000 + "\n", 2, "out of range for n=3"),
            ("1" * 5000 + " 1\n0 1\n", 1, "header values out of range"),
            ("3 " + "1" * 5000 + "\n0 1\n", 1, "header values out of range"),
        ],
        ids=["endpoint", "negative", "equal", "both", "header_n", "header_m"],
    )
    def test_numbers_past_the_int_digit_limit(self, text, lineno, fragment):
        with pytest.raises(EdgeListError) as err:
            load_edge_list(io.StringIO(text))
        assert err.value.line == lineno
        assert fragment in str(err.value)

    def test_leading_zeros_past_the_int_digit_limit(self):
        zeros = "0" * 5000
        g = load_edge_list(io.StringIO(f"{zeros}8 {zeros}2\n{zeros}7 1\n2 {zeros}\n"))
        assert g == Graph.from_edges(8, [(1, 7), (0, 2)])
        assert g.u.dtype == np.int64

    @given(edge_list_texts())
    def test_matches_per_line_reference(self, text):
        assert load_outcome(text) == reference_load(text)

    @given(plain_edge_list_texts())
    def test_plain_files_match_per_line_reference(self, text):
        assert load_outcome(text) == reference_load(text)

    @pytest.mark.parametrize(
        "text, want",
        [("3 0\n", ()), ("3 0\n\n \t\n", ()), ("3 2\n\n \n", (3, "declared")),
         ("3 1\r0 2\r", ((0, 2),)), ("3 1\r0 1\n0 2\n", (3, "more than")),
         ("3 1\n0 2\r", ((0, 2),)), ("3 1\n0 2\n\x0c", ((0, 2),)),
         (f"{2**63} 1\n0 1\n", (None, "vertices"))],
    )
    def test_bodies_numpy_does_not_read(self, text, want):
        assert load_outcome(text) == want == reference_load(text)

    def test_plain_file_loads_in_at_most_8x_its_size(self, tmp_path):
        p = tmp_path / "g.txt"
        g = regular_circulant(20_000, 10)
        save_edge_list(g, p)
        size = p.stat().st_size
        assert size >= 1 << 20
        tracemalloc.start()
        try:
            got = load_edge_list(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == g
        assert peak <= 8 * size, f"peak {peak / size:.1f}x the file"

    @given(st.one_of(edge_list_texts(), plain_edge_list_texts()))
    def test_path_reads_as_its_text(self, text):
        """A file loaded from its path and from the text it holds gives the
        same graph or the same error, though numpy may read a plain file
        again from its path."""
        with tempfile.TemporaryDirectory() as directory:
            p = written(directory, text)
            want = load_result(io.StringIO(p.read_text(encoding="utf-8")))
            assert load_result(p) == want
            assert load_result(str(p)) == want

    def test_numpy_reads_a_regular_file_from_its_path(self, tmp_path, loadtxt_sources):
        """Given a str path numpy reads in chunks in C, given anything else
        one line at a time through Python."""
        p = written(tmp_path, "5 3\r\n0 1\r\n\r\n4 2\r\n3 1\r\n")
        want = Graph.from_edges(5, [(0, 1), (2, 4), (1, 3)])
        assert load_edge_list(p) == want
        with open(p, encoding="utf-8") as fh:
            assert load_edge_list(fh) == want
        assert [type(source) for source in loadtxt_sources] == [str, io.BytesIO]
        assert os.path.samefile(loadtxt_sources[0], p)

    def test_compressed_suffix_is_read_as_text(self, tmp_path, loadtxt_sources):
        """numpy decompresses a path with these suffixes; a plain file so
        named is read from its text."""
        for name in ("g.gz", "g.txt.bz2", "g.xz", "g.lzma"):
            assert load_edge_list(written(tmp_path, "3 1\n0 2\n", name)) == Graph.from_edges(3, [(0, 2)])
        assert [type(source) for source in loadtxt_sources] == [io.BytesIO] * 4

    def test_path_through_a_symlink_and_dotdot(self, tmp_path):
        """link/.. is the link target's parent, so the path is not normalized."""
        (tmp_path / "a" / "b").mkdir(parents=True)
        written(tmp_path / "a", "3 1\n0 1\n")
        written(tmp_path, "3 1\n0 2\n")
        (tmp_path / "link").symlink_to(tmp_path / "a" / "b")
        assert load_edge_list(tmp_path / "link" / ".." / "g.txt") == Graph.from_edges(3, [(0, 1)])

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_fifo_is_read_once(self, tmp_path):
        """A FIFO's text can be read only once: a second open would wait for
        a writer that is gone.  The threads are joined with a timeout, so a
        hang fails the test."""
        fifo = tmp_path / "g.fifo"
        os.mkfifo(fifo)
        result = []

        def write():
            with open(fifo, "w", encoding="utf-8") as fh:
                fh.write("5 2\n3 4\n0 1\n")

        threads = [threading.Thread(target=f, daemon=True)
                   for f in (write, lambda: result.append(load_edge_list(fifo)))]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        assert not any(t.is_alive() for t in threads), "loading a FIFO hung"
        assert result == [Graph.from_edges(5, [(0, 1), (3, 4)])]
        assert not caught
