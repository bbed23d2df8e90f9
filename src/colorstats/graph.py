"""Simple undirected graphs: construction, degree statistics, file IO.

Graphs are immutable: a vertex count plus a canonically sorted tuple of
edges (u, v) with u < v.  The statistics collected here (degree second
moment, wedge count) are exactly the graph-side quantities the moment
formulas consume.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from collections.abc import Callable, Iterable, Sequence


class EdgeListError(ValueError):
    """Raised for malformed edge-list files; `line` is the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1 with canonical edge order."""

    n: int
    edges: tuple[tuple[int, int], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Validate, canonicalize (u < v, sorted, deduplicated is an error)."""
        if n < 1:
            raise ValueError(f"graph needs at least one vertex, got n={n}")
        canon = []
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            canon.append((u, v) if u < v else (v, u))
        canon.sort()
        for a, b in zip(canon, canon[1:]):
            if a == b:
                raise ValueError(f"duplicate edge {a}")
        return cls(n, tuple(canon))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)


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
    sigma2 = sum(d * d for d in deg)
    edge_sum = sum(deg[u] + deg[v] for u, v in g.edges)
    assert edge_sum == sigma2, "degree-square identity violated"
    wedges = sum(d * (d - 1) // 2 for d in deg)
    return GraphStats(
        n=g.n,
        m=g.m,
        sigma2=sigma2,
        wedges=wedges,
        max_degree=max(deg) if deg else 0,
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
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


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
    edges = set()
    for v in range(n):
        for off in range(1, d // 2 + 1):
            edges.add(tuple(sorted((v, (v + off) % n))))
        if d % 2 == 1:
            edges.add(tuple(sorted((v, (v + n // 2) % n))))
    return Graph.from_edges(n, sorted(edges))


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
    edges = []
    offset = 0
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges)
        offset += g.n
    return Graph.from_edges(offset, edges)


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
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise EdgeListError(f"header must be two integers, got {lines[0]!r}", line=1)
    if n < 1 or m < 0:
        raise EdgeListError(f"header values out of range: n={n}, m={m}", line=1)

    edges = []
    seen = set()
    lineno = 1
    for raw in lines[1:]:
        lineno += 1
        if not raw.strip():
            continue
        if len(edges) == m:
            raise EdgeListError(f"more than the declared {m} edges", line=lineno)
        tokens = raw.split()
        if len(tokens) != 2:
            raise EdgeListError(f"edge line must be 'u v', got {raw!r}", line=lineno)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListError(f"edge line must be two integers, got {raw!r}", line=lineno)
        if u == v:
            raise EdgeListError(f"self-loop at vertex {u}", line=lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListError(f"endpoint out of range for n={n}: ({u}, {v})", line=lineno)
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise EdgeListError(f"duplicate edge {e}", line=lineno)
        seen.add(e)
        edges.append(e)
    if len(edges) != m:
        raise EdgeListError(
            f"declared {m} edges but found {len(edges)}", line=lineno
        )
    return Graph.from_edges(n, edges)


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
