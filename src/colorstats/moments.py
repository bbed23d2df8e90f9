"""Closed-form moments of monochromatic edge counts under random colorings.

For a graph G with m edges and a composition (c_1, ..., c_s) of its vertex
count, M_i is the number of edges whose endpoints both receive color i,
M is their total, and L = m - M is the bichromatic count.  The formulas
below give exact means and variances in terms of m, the degree second
moment, and falling factorials / elementary symmetric polynomials of the
class sizes.  Rational arithmetic is authoritative.

Variance formulas divide by the falling factorial of n over 4 entries and
therefore require n >= 4; for n in {2, 3} use the exhaustive distribution
in the oracle module instead.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable, Sequence
from dataclasses import Field, dataclass, fields
from fractions import Fraction

from .coloring import Composition, imbalance
from .graph import Graph, GraphStats, stats
from .symfun import falling_factorial as ff


def _require_n4(n: int, what: str) -> None:
    if n < 4:
        raise ValueError(
            f"{what} requires n >= 4 (degree-4 falling factorial vanishes); "
            "use oracle.enumerate_colorings for tiny graphs"
        )


def mean_Mi(m: int, n: int, c_i: int) -> Fraction:
    """E[M_i] = m * (c_i)_2 / (n)_2."""
    if n < 2:
        raise ValueError(f"mean_Mi needs n >= 2, got n={n}")
    return Fraction(m * ff(c_i, 2), ff(n, 2))


def var_Mi(st: GraphStats, c: Composition, color: int) -> Fraction:
    """Var[M_i] for color i (1-based), from the graph's (m, sigma2) summary."""
    n, m = st.n, st.m
    _require_n4(n, "var_Mi")
    if c.n != n:
        raise ValueError(f"composition covers {c.n} vertices but graph has {n}")
    if not (1 <= color <= c.s):
        raise ValueError(f"color must lie in 1..{c.s}, got {color}")
    ci = c.classes[color - 1]
    q2 = Fraction(ff(ci, 2), ff(n, 2))
    q3 = Fraction(ff(ci, 3), ff(n, 3))
    q4 = Fraction(ff(ci, 4), ff(n, 4))
    sigma2_coeff = Fraction(ff(ci, 3) * (n - ci), ff(n, 4))
    return sigma2_coeff * st.sigma2 - (q2 * q2 - q4) * m * m + (q2 - 2 * q3 + q4) * m


def coefficients_ab(c: Composition) -> tuple[Fraction, Fraction]:
    """The pair (a, b) entering Var[L] = (a-b)*sigma2 + ... for composition c.

    a is the probability that one fixed edge plus one fixed extra vertex
    are bichromatic in every pair; b plays the same role for two disjoint
    fixed edges.  Both are rational functions of the elementary symmetric
    polynomials e_2, e_3 of the class sizes.
    """
    n = c.n
    _require_n4(n, "coefficients_ab")
    e2, e3 = c.elementary(2), c.elementary(3)
    a = Fraction(e2, ff(n, 2)) + Fraction(3 * e3, ff(n, 3))
    b = Fraction(4, ff(n, 4)) * (e2 * e2 - (n - 1) * e2 - 3 * e3)
    return a, b


def mean_M_L(m: int, c: Composition) -> tuple[Fraction, Fraction]:
    """(E[M], E[L]); they sum to m exactly."""
    n = c.n
    if n < 2:
        raise ValueError(f"mean_M_L needs n >= 2, got n={n}")
    mean_l = Fraction(2 * m * c.elementary(2), ff(n, 2))
    return m - mean_l, mean_l


def var_common(st: GraphStats, c: Composition) -> Fraction:
    """Common variance of M and of L (they differ by the constant m)."""
    n, m = st.n, st.m
    _require_n4(n, "var_common")
    if c.n != n:
        raise ValueError(f"composition covers {c.n} vertices but graph has {n}")
    a, b = coefficients_ab(c)
    q = Fraction(c.elementary(2), ff(n, 2))
    return (a - b) * st.sigma2 + (b - 4 * q * q) * m * m + (2 * q - 2 * a + b) * m


def rho(c: Composition) -> Fraction:
    """Imbalance functional p3(gamma) - p2(gamma)^2 of the class proportions.

    Non-negative, and zero exactly when the composition is perfectly
    balanced; the product rho * zeta_sq is the leading term of the
    normalized variance.
    """
    g = c.gamma()
    p2 = sum((x * x for x in g), start=Fraction(0))
    p3 = sum((x**3 for x in g), start=Fraction(0))
    return p3 - p2 * p2


def pz_lower_bound(theta: Fraction | float, var: Fraction, m: int) -> Fraction:
    """Anti-concentration bound: P(|L - E L| > theta * E|L - E L|) >= this.

    Valid for any statistic bounded by m, hence for L.  Requires
    0 <= theta < 1.
    """
    th = Fraction(theta)
    if not (0 <= th < 1):
        raise ValueError(f"theta must lie in [0, 1), got {theta}")
    if m < 1:
        raise ValueError(f"pz_lower_bound needs m >= 1, got m={m}")
    return (1 - th) ** 2 * var / (m * m)


@dataclass(frozen=True)
class MomentReport:
    """Exact moment summary of one (graph, composition) cell."""

    n: int
    m: int
    classes: tuple[int, ...]
    per_color_mean: tuple[Fraction, ...]
    per_color_var: tuple[Fraction, ...]
    mean_M: Fraction
    mean_L: Fraction
    var_common: Fraction
    a_c: Fraction
    b_c: Fraction
    rho: Fraction
    zeta_sq: Fraction
    imbalance_sq: Fraction
    normalized_var: Fraction


def _is_rational(f: Field) -> bool:
    # str() covers both string annotations and evaluated types
    return "Fraction" in str(f.type)


def _rational(x: Fraction | float | None):
    if x is None or isinstance(x, float):
        return x
    f = Fraction(x)
    return {"num": f.numerator, "den": f.denominator}


def record_json(rec, names: Sequence[str] | None = None) -> dict:
    """A dataclass record as a JSON-ready dict, fields in declaration order.

    A field declared with Fraction (alone, in a tuple or in a union) is
    written as {"num", "den"}, or a list of them for a tuple, followed by a
    "<name>_float" mirror; a float or None in such a field is written as
    is, with float(x) or None as its mirror.  Other tuples become lists;
    everything else is written as is.  `names` keeps only those fields.
    """
    out: dict = {}
    for f in fields(rec):
        if names is not None and f.name not in names:
            continue
        val = getattr(rec, f.name)
        if not _is_rational(f):
            out[f.name] = list(val) if isinstance(val, tuple) else val
        elif isinstance(val, tuple):
            out[f.name] = [_rational(x) for x in val]
            out[f.name + "_float"] = [float(x) for x in val]
        else:
            out[f.name] = _rational(val)
            out[f.name + "_float"] = None if val is None else float(val)
    return out


def records_csv(cls: type, recs: Iterable) -> str:
    """CSV table of records of dataclass cls: the values of record_json,
    with each rational split into "<name>_num" and "<name>_den" columns
    ahead of its float mirror.  None becomes an empty cell."""
    rational = {f.name for f in fields(cls) if _is_rational(f)}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")  # writes None as ""
    header = []
    for f in fields(cls):
        header += [f.name + p for p in ("_num", "_den", "_float")] if f.name in rational else [f.name]
    writer.writerow(header)
    for rec in recs:
        row = []
        for key, val in record_json(rec).items():
            if key in rational:
                row += [val["num"], val["den"]] if isinstance(val, dict) else [None, None]
            else:
                row.append(val)
        writer.writerow(row)
    return buf.getvalue()


def full_report(g: Graph, c: Composition) -> MomentReport:
    """All exact moments and regime diagnostics for one cell.

    Requires n >= 4 (variance formulas) and m >= 1 (normalization by m^2).
    """
    if g.n != c.n:
        raise ValueError(f"composition covers {c.n} vertices but graph has {g.n}")
    _require_n4(g.n, "full_report")
    if g.m == 0:
        raise ValueError("full_report needs at least one edge")
    st = stats(g)
    a, b = coefficients_ab(c)
    mean_m, mean_l = mean_M_L(g.m, c)
    var = var_common(st, c)
    return MomentReport(
        n=g.n,
        m=g.m,
        classes=c.classes,
        per_color_mean=tuple(mean_Mi(g.m, g.n, ci) for ci in c.classes),
        per_color_var=tuple(var_Mi(st, c, i) for i in range(1, c.s + 1)),
        mean_M=mean_m,
        mean_L=mean_l,
        var_common=var,
        a_c=a,
        b_c=b,
        rho=rho(c),
        zeta_sq=Fraction(st.sigma2, g.m * g.m),
        imbalance_sq=imbalance(c),
        normalized_var=var / (g.m * g.m),
    )
