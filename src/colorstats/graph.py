"""Simple undirected graphs: construction, degree statistics, file IO.

Graphs are immutable: a vertex count plus two read-only int64 arrays u and
v, edge i joining u[i] < v[i], sorted by (u, v).  The statistic collected
here (the degree second moment) is the graph-side quantity the moment
formulas consume besides n and m.
"""

from __future__ import annotations

import io
import re
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from collections.abc import Callable, Sequence

import numpy as np


class EdgeListError(ValueError):
    """Raised for a bad edge list; `line` is its file line, `edge` the bad edge's input index."""

    def __init__(self, message: str, line: int | None = None, edge: int | None = None):
        self.line, self.edge = line, edge
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph on vertices 0..n-1; edge i joins u[i] < v[i]."""

    n: int
    u: np.ndarray
    v: np.ndarray

    @classmethod
    def from_edges(cls, n: int, edges: np.typing.ArrayLike) -> "Graph":
        """Validate, canonicalize an (m, 2) array-like of ints or decimal strings:
        u < v, sorted, no duplicates; input already in that order is not sorted
        again.  The first bad edge in input order (self-loop, out of range, repeat)
        raises EdgeListError naming its index; then n is checked."""
        try:
            pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        except (OverflowError, ValueError):  # past int64 or int()'s digit limit: exact values
            pairs = np.frompyfunc(_exact_int, 1, 1)(np.asarray(edges, dtype=object)).reshape(-1, 2)
        lo, hi = np.minimum(*pairs.T), np.maximum(*pairs.T)
        bad = (lo == hi) | (lo < 0) | (hi >= n)
        first = int(np.argmax(bad)) if bad.any() else len(pairs)
        u, v = lo[:first], hi[:first]
        # a prefix strictly increasing in (u, v) is sorted and has no repeat
        if not ((u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] > v[:-1]))).all():
            # the sort is stable, so each repeat follows the earlier copy it repeats
            order = np.lexsort((v, u))
            u, v = u[order], v[order]
            dup = (u[1:] == u[:-1]) & (v[1:] == v[:-1])
            if dup.any():
                i = int(order[1:][dup].min())
                raise EdgeListError(f"duplicate edge ({_brief(lo[i])}, {_brief(hi[i])})", edge=i)
        if first < len(pairs):
            x, y = pairs[first].tolist()
            if x == y:
                raise EdgeListError(f"self-loop at vertex {_brief(x)}", edge=first)
            raise EdgeListError(f"edge ({_brief(x)}, {_brief(y)}) out of range for n={_brief(n)}", edge=first)
        if not 1 <= n < 2**63:  # vertex labels are int64
            raise EdgeListError(f"graph needs 1 <= n < 2**63 vertices, got n={_brief(n)}")
        u, v = u.astype(np.int64, copy=False), v.astype(np.int64, copy=False)
        u.flags.writeable = v.flags.writeable = False
        return cls(n, u, v)

    @property
    def m(self) -> int:
        return len(self.u)

    @cached_property
    def degrees(self) -> np.ndarray:
        deg = np.bincount(np.concatenate((self.u, self.v)), minlength=self.n)
        deg.flags.writeable = False
        return deg

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.n == other.n
                and np.array_equal(self.u, other.u) and np.array_equal(self.v, other.v))


@dataclass(frozen=True)
class GraphStats:
    """Degree-based summary: n, m and the sum of squared degrees."""

    n: int
    m: int
    sigma2: int


def stats(g: Graph) -> GraphStats:
    """Compute GraphStats for g.

    sigma2 is the sum of d(v)^2 over vertices; the equivalent edge-sum form
    sum of d(u)+d(v) over edges is recomputed as an internal consistency
    check.
    """
    deg = g.degrees
    sigma2 = int((deg * deg).sum())
    edge_sum = int(deg[g.u].sum() + deg[g.v].sum())
    assert edge_sum == sigma2, "degree-square identity violated"
    return GraphStats(n=g.n, m=g.m, sigma2=sigma2)


# ── deterministic generators ──────────────────────────────────────────────


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    return Graph.from_edges(n, np.column_stack(np.triu_indices(n, k=1)))


def star(n: int) -> Graph:
    """Star on n vertices: center 0 joined to the n-1 leaves."""
    if n < 2:
        raise ValueError(f"star needs n >= 2, got {n}")
    return Graph.from_edges(n, [(0, v) for v in range(1, n)])


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    return Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def regular_circulant(n: int, d: int) -> Graph:
    """d-regular circulant: each vertex joined to the d/2 nearest offsets on
    either side; an odd d additionally uses the antipodal offset n/2, which
    needs n even (otherwise no d-regular graph on n vertices exists)."""
    if n < 3:
        raise ValueError(f"circulant needs n >= 3, got {n}")
    if not (1 <= d < n):
        raise ValueError(f"circulant degree must satisfy 1 <= d < n, got d={d}")
    if d % 2 == 1 and n % 2 == 1:
        raise ValueError(f"no {d}-regular graph on {n} vertices: n*d is odd")
    vs = np.arange(n, dtype=np.int64)
    blocks = [np.column_stack((vs, (vs + off) % n)) for off in range(1, d // 2 + 1)]
    if d % 2 == 1:
        blocks.append(np.column_stack((vs[: n // 2], vs[n // 2 :])))
    return Graph.from_edges(n, np.concatenate(blocks))


def threshold_graph(creation: str) -> Graph:
    """Threshold graph from a creation sequence over {I, D}.

    Vertices are added left to right; a D vertex is joined to everything
    already present, an I vertex to nothing.
    """
    seq = creation.strip().upper()
    if not seq or any(ch not in "ID" for ch in seq):
        raise ValueError(f"creation sequence must be nonempty over I/D, got {creation!r}")
    edges = []
    for v, ch in enumerate(seq):
        if ch == "D":
            edges.extend((u, v) for u in range(v))
    return Graph.from_edges(len(seq), edges)


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    """Disjoint union; vertex labels of later graphs are shifted up."""
    if not graphs:
        raise ValueError("disjoint_union needs at least one graph")
    shifted = []
    offset = 0
    for g in graphs:
        shifted.append(np.column_stack((g.u, g.v)) + offset)
        offset += g.n
    return Graph.from_edges(offset, np.concatenate(shifted))


_FAMILIES = {
    "complete": complete,
    "star": star,
    "path": path,
    "cycle": cycle,
}


def parse_params(rest: str) -> dict[str, str]:
    """key=value pairs split on commas; a fragment without '=' continues the
    previous value (degree laws contain commas of their own)."""
    out: dict[str, str] = {}
    last = None
    for part in rest.split(","):
        if "=" in part:
            key, _, val = part.partition("=")
            key = key.strip()
            out[key] = val.strip()
            last = key
        elif last is not None:
            out[last] += "," + part.strip()
        else:
            raise ValueError(f"expected key=value, got {part!r}")
    return out


def parse_rational(tok: str) -> Fraction:
    """Fraction from a decimal or p/q token; a zero denominator is a ValueError."""
    try:
        return Fraction(tok)
    except ZeroDivisionError:
        raise ValueError(f"{tok.strip()!r} has a zero denominator") from None


def graph_template(spec: str) -> Callable[[int | None], Graph]:
    """Graph family from a compact string; n is supplied at call time.

    Forms: "star:8", "cycle:12", "path:5", "complete:6", "circulant:n=10,d=4",
    "threshold:IDID".  An n given in the string is the default and a grid n
    overrides it, so "star" and "circulant:d=4" are grid-only families.  A
    threshold graph fixes its own order and takes no grid n.
    """
    name, _, rest = spec.partition(":")
    name = name.strip().lower()
    default_n = None
    if name in _FAMILIES:
        if rest.strip():
            default_n = int(rest)
    elif name == "circulant":
        params = parse_params(rest)
        if "d" not in params:
            raise ValueError("circulant spec needs a degree, e.g. circulant:n=10,d=4")
        d = int(params["d"])
        if "n" in params:
            default_n = int(params["n"])
    elif name != "threshold":
        raise ValueError(f"unknown deterministic family {name!r}")

    def at(n: int | None) -> Graph:
        if name == "threshold":
            if n is not None:
                raise ValueError(f"threshold spec {spec!r} fixes n and takes no grid n")
            return threshold_graph(rest)
        n = default_n if n is None else n
        if n is None:
            raise ValueError(f"graph spec {spec!r} does not fix n")
        return regular_circulant(n, d) if name == "circulant" else _FAMILIES[name](n)

    return at


def graph_from_spec(spec: str) -> Graph:
    """One concrete graph from a spec string (see graph_template); n must be
    present."""
    return graph_template(spec)(None)


# ── edge-list files ───────────────────────────────────────────────────────


def _brief(x) -> str:
    """An int or Decimal in decimal digits; past 30 digits only its first 20,
    "..." and its digit count, so an error message stays one short line."""
    text = str(Decimal(x) if isinstance(x, int) else x)  # Decimal: no str(int) digit limit
    digits = len(text.lstrip("-"))
    return text if digits <= 30 else f"{text[: len(text) - digits + 20]}... ({digits} digits)"


def _exact_int(tok):
    """Exact value of an int or a decimal token.  A token of more digits than
    int() reads (see sys.get_int_max_str_digits) is read as an exact Decimal,
    which compares with ints exactly; leading zeros are not counted."""
    try:
        return int(tok)
    except ValueError:
        if not (isinstance(tok, str) and re.fullmatch(r"\s*-?[0-9]+\s*", tok)):
            raise
    value = Decimal(tok)
    return int(value) if value.adjusted() < sys.get_int_max_str_digits() else value


# the start of a line that is neither blank nor two ASCII-decimal numbers
# (int() alone would also take "+1", "1_0" and non-ASCII digits)
_MALFORMED_LINE = re.compile(r"^(?![^\S\n]*(?:-?[0-9]+[^\S\n]+-?[0-9]+[^\S\n]*)?$)", re.M)


# what numpy's C reader reads exactly as the scanner below does: ASCII digits,
# "-", spaces, tabs and LF line ends (a CR only before an LF)
_PLAIN = b"0123456789- \t\r\n"
_DIGIT = re.compile(rb"[0-9]")


def _read_plain(text: str, n: int, m: int) -> Graph | None:
    """The graph of a plain file read by numpy's C reader; None for any other
    file and for every file that reader or Graph.from_edges refuses."""
    data = text.encode() if text.isascii() else b"x"
    if data.translate(None, _PLAIN) or data.count(b"\r") != data.count(b"\r\n"):
        return None
    if not _DIGIT.search(data, data.find(b"\n") + 1 or len(data)):  # loadtxt warns on a body without numbers
        return None
    try:
        pairs = np.loadtxt(io.BytesIO(data), dtype=np.int64, ndmin=2, comments=None, skiprows=1)
        return Graph.from_edges(n, pairs) if pairs.shape == (m, 2) else None
    except ValueError:  # EdgeListError too: the scanner names the fault
        return None


def _echo(line: str) -> str:
    """A line quoted; past 60 characters only its first 40, "..." and its length."""
    return repr(line) if len(line) <= 60 else f"{line[:40]!r}... ({len(line)} characters)"


def load_edge_list(path_or_file) -> Graph:
    """Read a graph from the plain edge-list format.

    First line: "n m".  Then exactly m lines "u v" with 0 <= u < v < n.
    Lines with u > v are accepted and canonicalized; blank lines are skipped
    and CRLF line ends are accepted.  The first faulty line (malformed, a
    self-loop, a duplicate edge, an out-of-range endpoint, or one edge too
    many) raises EdgeListError naming it.  A file of only ASCII digits, "-",
    spaces, tabs and LF or CRLF line ends is read by numpy's C reader in
    about 5x its size of memory; every other file, and every file that reader
    or Graph.from_edges refuses, goes through the line scanner, which gives
    the same graph and writes every error message.
    """
    if hasattr(path_or_file, "read"):
        text = path_or_file.read()
    else:
        with open(path_or_file, encoding="utf-8") as fh:
            text = fh.read()
    if not text:
        raise EdgeListError("empty file", line=1)
    first = text[: text.find("\n") + 1 or None].splitlines()[0]  # the header, without splitting the rest
    header = first.split()
    if len(header) != 2:
        raise EdgeListError(f"header must be 'n m', got {_echo(first)}", line=1)
    if _MALFORMED_LINE.match(first):
        raise EdgeListError(f"header must be two integers, got {_echo(first)}", line=1)
    n, m = map(_exact_int, header)
    if isinstance(n, Decimal) or isinstance(m, Decimal) or n < 1 or m < 0:
        raise EdgeListError(f"header values out of range: n={_brief(n)}, m={_brief(m)}", line=1)

    g = _read_plain(text, n, m)
    if g is not None:
        return g
    lines = text.splitlines()
    good, *bad = _MALFORMED_LINE.split("\n".join(lines[1:]), maxsplit=1)  # bad: from the first malformed line on
    tokens = good.split()
    found = len(tokens) // 2

    def line_of(edge):  # edge `edge` is on the edge-th non-blank line after the header
        return [i for i, raw in enumerate(lines[1:], 2) if raw.strip()][edge]

    try:
        g = Graph.from_edges(n, tokens[: 2 * m])
    except EdgeListError as err:
        if err.edge is not None:  # a bad edge comes before any other fault
            raise EdgeListError(str(err), line=line_of(err.edge)) from None
        if not bad and found == m:  # n past int64 is refused after the lines' faults
            raise
    if not bad and found == m:
        return g
    if found >= m:
        raise EdgeListError(f"more than the declared {m} edges", line=line_of(m))
    if not bad:
        raise EdgeListError(f"declared {m} edges but found {found}", line=len(lines))
    raw = bad[0].partition("\n")[0]
    form = "'u v'" if len(raw.split()) != 2 else "two integers"
    raise EdgeListError(f"edge line must be {form}, got {_echo(raw)}", line=line_of(found))


def save_edge_list(g: Graph, path_or_file) -> None:
    """Write g in canonical edge-list form (sorted edges, u < v)."""
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in zip(g.u.tolist(), g.v.tolist()))
    write_text("\n".join(out) + "\n", path_or_file)


def write_text(text: str, dest) -> None:
    """Write text to stdout (dest None), an open file, or a path."""
    if dest is None:
        sys.stdout.write(text)
    elif hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(text)
