"""Simple undirected graphs: construction, degree statistics, file IO, and
the spec grammar (spec_template, parse_number, parse_int) that every spec is
read by.

Graphs are immutable: a vertex count plus two read-only int64 arrays u and
v, edge i joining u[i] < v[i], sorted by (u, v).  The statistic collected
here (the degree second moment) is the graph-side quantity the moment
formulas consume besides n and m.
"""

from __future__ import annotations

import ast
import io
import math
import operator
import os
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
    leaves = np.arange(1, n)
    return Graph.from_edges(n, np.column_stack((np.zeros_like(leaves), leaves)))


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    v = np.arange(n - 1)
    return Graph.from_edges(n, np.column_stack((v, v + 1)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    v = np.arange(n)
    return Graph.from_edges(n, np.column_stack((v, (v + 1) % n)))


def regular_circulant(n: int, d: int) -> Graph:
    """d-regular circulant: each vertex joined to the d/2 nearest offsets on
    either side; an odd d additionally uses the antipodal offset n/2, which
    needs n even (otherwise no d-regular graph on n vertices exists).  The
    edges are built in canonical order, so from_edges does not sort them."""
    if n < 3:
        raise ValueError(f"circulant needs n >= 3, got {n}")
    if not (1 <= d < n):
        raise ValueError(f"circulant degree must satisfy 1 <= d < n, got d={d}")
    if d % 2 == 1 and n % 2 == 1:
        raise ValueError(f"no {d}-regular graph on {n} vertices: n*d is odd")
    h = d // 2
    offsets = np.concatenate((np.arange(1, h + 1), np.arange(n // 2, n // 2 + d % 2), np.arange(n - h, n)))
    # u is joined forward to u + o for each offset o < n - u; listed by u and
    # then by o, the edges come out in canonical (u, v) order
    counts = np.searchsorted(offsets, n - np.arange(n))
    us = np.repeat(np.arange(n), counts)
    first = np.repeat(np.cumsum(counts) - counts, counts)  # where each edge's run of u's edges starts
    return Graph.from_edges(n, np.column_stack((us, us + offsets[np.arange(len(us)) - first])))


def threshold_graph(creation: str) -> Graph:
    """Threshold graph from a creation sequence over {I, D}.

    Vertices are added left to right; a D vertex is joined to everything
    already present, an I vertex to nothing.
    """
    seq = creation.strip().upper()
    if not seq or any(ch not in "ID" for ch in seq):
        raise ValueError(f"creation sequence must be nonempty over I/D, got {creation!r}")
    n = len(seq)
    dom = np.flatnonzero([ch == "D" for ch in seq])
    # u is joined to the D vertices after it, dom[after[u]:], listed in (u, v) order
    after = np.searchsorted(dom, np.arange(n), side="right")
    counts = len(dom) - after
    starts = np.cumsum(counts) - counts
    v = dom[np.arange(counts.sum()) - np.repeat(starts - after, counts)]
    return Graph.from_edges(n, np.column_stack((np.repeat(np.arange(n), counts), v)))


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


# family kind -> generator(n, *values of the kind's FAMILY_KEYS, as ints)
_FAMILIES = {
    "complete": complete,
    "star": star,
    "path": path,
    "cycle": cycle,
    "circulant": regular_circulant,
}
FAMILY_KEYS = {"complete": (), "star": (), "path": (), "cycle": (), "circulant": ("d",)}


def parse_params(rest: str) -> dict[str, str]:
    """key=value pairs split on commas; a fragment without '=' continues the
    previous value (degree laws contain commas of their own).  An empty or
    repeated key is a ValueError."""
    out: dict[str, str] = {}
    last = None
    for part in rest.split(","):
        if "=" in part:
            key, _, val = part.partition("=")
            key = key.strip()
            if not key:
                raise ValueError(f"empty parameter name in {part.strip()!r}")
            if key in out:
                raise ValueError(f"parameter {key!r} given twice")
            out[key] = val.strip()
            last = key
        elif last is not None:
            out[last] += "," + part.strip()
        else:
            raise ValueError(f"expected key=value, got {part!r}")
    return out


_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv}
_FUNCS = {"sqrt": math.sqrt, "log": math.log}
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
        case ast.BinOp(left=x, op=op, right=y) if type(op) in _OPS:
            return _OPS[type(op)](_eval_node(x, n), _eval_node(y, n))
        case ast.Call(func=ast.Name(id=f), args=[x], keywords=[]) if f in _FUNCS:
            return _FUNCS[f](_eval_node(x, n))
    raise ValueError(f"{ast.unparse(node)!r} is not allowed")


def parse_number(text: str, n: int | None = None) -> int | Fraction | float:
    """A plain number ("3", "0.1", "3/4") as an exact int or Fraction; given
    n, also an expression in n ("4/n", "n**-0.5") built from numbers, n, pi,
    + - * / **, unary minus, sqrt and log.  A zero denominator is a
    ValueError."""
    try:
        f = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text.strip()!r} has a zero denominator") from None
    except ValueError:
        if n is None:
            raise ValueError(f"{text.strip()!r} is not a number") from None
    else:
        return int(f) if f.denominator == 1 else f
    try:
        val = _eval_node(ast.parse(text.strip(), mode="eval").body, n)
    # MemoryError: the parser's report of input nested too deeply
    except (SyntaxError, MemoryError, RecursionError, ArithmeticError, TypeError, ValueError) as exc:
        raise ValueError(f"cannot evaluate parameter {text!r}: {exc}") from exc
    if not isinstance(val, (int, float)):
        raise ValueError(f"parameter {text!r} is not a real number: {val!r}")
    return val


def parse_int(text: str) -> int:
    """A whole number, read as int() reads it; a ValueError names the token."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{_echo(text.strip())} is not a whole number") from None


def spec_template(spec: str, kinds: dict[str, tuple[str, ...]], build: Callable, what: str) -> Callable:
    """Template n -> object from "kind", "kind:N" or "kind:key=value,...".

    `kinds` maps each kind to the keys it needs besides n; any other key is
    refused.  build(kind, params) runs once and returns the maker n ->
    object; a build whose data fixes n sets params["n"] if the spec left it
    out.  An n given in the spec is the default and a grid n overrides it.
    """
    kind, _, rest = spec.partition(":")
    kind = kind.strip().lower()
    if kind not in kinds:
        raise ValueError(f"unknown {what} kind {kind!r}")
    params = parse_params(rest) if "=" in rest else {"n": rest.strip()} if rest.strip() else {}
    keys = ("n", *kinds[kind])
    if unknown := [key for key in params if key not in keys]:
        raise ValueError(f"{what} {kind!r} has no parameter {unknown[0]!r}; it takes {', '.join(keys)}")
    if missing := [key for key in kinds[kind] if key not in params]:
        raise ValueError(f"{what} {kind!r} needs parameter {missing[0]!r}")
    make = build(kind, params)
    default_n = parse_int(params["n"]) if "n" in params else None

    def at(n: int | None):
        n = default_n if n is None else n
        if n is None:
            raise ValueError(f"{what} spec {spec!r} does not fix n")
        return make(n)

    return at


def graph_template(spec: str) -> Callable[[int | None], Graph]:
    """Graph family from a compact string; n is supplied at call time.

    Forms: "star:8", "cycle:12", "path:5", "complete:6", "circulant:n=10,d=4"
    (see spec_template), and "threshold:IDID".  An n given in the string is
    the default and a grid n overrides it, so "star" and "circulant:d=4" are
    grid-only families.  A threshold graph fixes its own order and takes no
    grid n.
    """
    name, _, rest = spec.partition(":")
    if name.strip().lower() == "threshold":

        def fixed(n: int | None) -> Graph:
            if n is not None:
                raise ValueError(f"threshold spec {spec!r} fixes n and takes no grid n")
            return threshold_graph(rest)

        return fixed

    def build(kind: str, params: dict[str, str]) -> Callable[[int], Graph]:
        args = [parse_int(params[key]) for key in FAMILY_KEYS[kind]]
        return lambda n: _FAMILIES[kind](n, *args)

    return spec_template(spec, FAMILY_KEYS, build, "graph")


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
# suffixes of the files numpy's loadtxt decompresses when given their path
_COMPRESSED = (".bz2", ".gz", ".lzma", ".xz")


def _read_plain(text: str, n: int, m: int, source) -> Graph | None:
    """The graph of a plain file read by numpy's C reader; None for any other
    file and for every file that reader or Graph.from_edges refuses.  `text`
    is what was read from `source`.  Given a str path, loadtxt reads the
    file in chunks in C, and any other input one line at a time through
    Python, so a regular file is read again from its path; a file object, a
    FIFO or a pipe can be read only once, and is read from `text`."""
    data = text.encode() if text.isascii() else b"x"
    if data.translate(None, _PLAIN) or (b"\r" in data and data.count(b"\r") != data.count(b"\r\n")):
        return None
    if not _DIGIT.search(data, data.find(b"\n") + 1 or len(data)):  # loadtxt warns on a body without numbers
        return None
    path = os.fsdecode(source) if isinstance(source, (str, bytes, os.PathLike)) else ""
    if os.path.isfile(path) and not path.endswith(_COMPRESSED):
        # made absolute but not normalized (link/.. is the parent of the
        # link's target), so numpy cannot take it for a URL; numpy reads it
        # in text mode, as `text` was read, so both see a CR line end as an LF
        source = os.path.join(os.getcwd(), path)
    else:
        source = io.BytesIO(data)
    try:
        pairs = np.loadtxt(source, dtype=np.int64, ndmin=2, comments=None, skiprows=1, encoding="utf-8")
        return Graph.from_edges(n, pairs) if pairs.shape == (m, 2) else None
    except (ValueError, OSError):  # EdgeListError too: the scanner names the fault
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
    about 5x its size of memory: a regular file from its path, a file object,
    FIFO or pipe from the text already read.  Every other file, and every
    file that reader or Graph.from_edges refuses, goes through the line
    scanner, which gives the same graph and writes every error message.
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

    g = _read_plain(text, n, m, path_or_file)
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
