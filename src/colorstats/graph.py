"""Simple undirected graphs: construction, degree statistics, file IO.

Graphs are immutable: a vertex count plus two read-only int64 arrays u and
v, edge i joining u[i] < v[i], sorted by (u, v).  The statistics collected
here (degree second moment, wedge count) are exactly the graph-side
quantities the moment formulas consume.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from collections.abc import Callable, Sequence

import numpy as np


class EdgeListError(ValueError):
    """Raised for malformed edge-list files; `line` is the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph on vertices 0..n-1; edge i joins u[i] < v[i]."""

    n: int
    u: np.ndarray
    v: np.ndarray

    @classmethod
    def from_edges(cls, n: int, edges: np.typing.ArrayLike) -> "Graph":
        """Validate, canonicalize an (m, 2) array-like: u < v, sorted, no duplicates."""
        if not 1 <= n < 2**63:  # vertex labels are int64
            raise ValueError(f"graph needs 1 <= n < 2**63 vertices, got n={n}")
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        lo, hi = np.minimum(*pairs.T), np.maximum(*pairs.T)
        bad = (lo == hi) | (lo < 0) | (hi >= n)
        if bad.any():
            x, y = pairs[np.argmax(bad)].tolist()
            if x == y:
                raise ValueError(f"self-loop at vertex {x}")
            raise ValueError(f"edge ({x}, {y}) out of range for n={n}")
        order = np.lexsort((hi, lo))
        u, v = lo[order], hi[order]
        dup = (u[1:] == u[:-1]) & (v[1:] == v[:-1])
        if dup.any():
            i = np.argmax(dup)
            raise ValueError(f"duplicate edge {(int(u[i]), int(v[i]))}")
        u.flags.writeable = v.flags.writeable = False
        return cls(n, u, v)

    @property
    def m(self) -> int:
        return len(self.u)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges as Python-int pairs, for per-edge Python loops."""
        return tuple(zip(self.u.tolist(), self.v.tolist()))

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
    """Degree-based summary: n, m, sum of squared degrees, wedges, max degree."""

    n: int
    m: int
    sigma2: int
    wedges: int
    max_degree: int


def stats(g: Graph) -> GraphStats:
    """Compute GraphStats for g.

    sigma2 is the sum of d(v)^2 over vertices; the equivalent edge-sum form
    sum of d(u)+d(v) over edges is recomputed as an internal consistency
    check.  wedges counts unordered paths of length two, sum of C(d, 2).
    """
    deg = g.degrees
    sigma2 = int((deg * deg).sum())
    edge_sum = int(deg[g.u].sum() + deg[g.v].sum())
    assert edge_sum == sigma2, "degree-square identity violated"
    return GraphStats(
        n=g.n,
        m=g.m,
        sigma2=sigma2,
        wedges=int((deg * (deg - 1) // 2).sum()),
        max_degree=int(deg.max()),
    )


def zeta_squared(g: Graph) -> Fraction:
    """Dispersion parameter: sigma2 / m^2, exact.  Requires m >= 1."""
    if g.m == 0:
        raise ValueError("zeta_squared undefined for an edgeless graph")
    return Fraction(stats(g).sigma2, g.m * g.m)


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


# a number in an edge-list file; int() alone would also take "+1", "1_0"
# and non-ASCII digits
_DECIMAL = re.compile(r"-?[0-9]+")


def load_edge_list(path_or_file) -> Graph:
    """Read a graph from the plain edge-list format.

    First line: "n m".  Then exactly m lines "u v" with 0 <= u < v < n.
    Lines with u > v are accepted and canonicalized; self-loops, duplicate
    edges, out-of-range endpoints, and malformed lines raise EdgeListError
    naming the offending line.
    """
    if hasattr(path_or_file, "read"):
        text = path_or_file.read()
    else:
        with open(path_or_file, encoding="utf-8") as fh:
            text = fh.read()
    lines = text.splitlines()
    if not lines:
        raise EdgeListError("empty file", line=1)
    header = lines[0].split()
    if len(header) != 2:
        raise EdgeListError(f"header must be 'n m', got {lines[0]!r}", line=1)
    if not all(map(_DECIMAL.fullmatch, header)):
        raise EdgeListError(f"header must be two integers, got {lines[0]!r}", line=1)
    n, m = map(int, header)
    if n < 1 or m < 0:
        raise EdgeListError(f"header values out of range: n={n}, m={m}", line=1)

    ends = []  # u0, v0, u1, v1, ...
    seen = set()
    lineno = 1
    for raw in lines[1:]:
        lineno += 1
        if not raw.strip():
            continue
        if len(seen) == m:
            raise EdgeListError(f"more than the declared {m} edges", line=lineno)
        tokens = raw.split()
        if len(tokens) != 2:
            raise EdgeListError(f"edge line must be 'u v', got {raw!r}", line=lineno)
        if not all(map(_DECIMAL.fullmatch, tokens)):
            raise EdgeListError(f"edge line must be two integers, got {raw!r}", line=lineno)
        u, v = map(int, tokens)
        if u == v:
            raise EdgeListError(f"self-loop at vertex {u}", line=lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListError(f"endpoint out of range for n={n}: ({u}, {v})", line=lineno)
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise EdgeListError(f"duplicate edge {e}", line=lineno)
        seen.add(e)
        ends.extend(e)
    if len(seen) != m:
        raise EdgeListError(
            f"declared {m} edges but found {len(seen)}", line=lineno
        )
    return Graph.from_edges(n, np.reshape(ends, (-1, 2)))


def save_edge_list(g: Graph, path_or_file) -> None:
    """Write g in canonical edge-list form (sorted edges, u < v)."""
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges)
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
