"""Command-line interface.

Subcommands:
  moments        exact moment report for one (graph, composition) cell
  oracle-verify  compare every closed-form formula against enumeration
  simulate       Monte Carlo check of one cell at 4 standard errors
  regime         sweep a family over an n-grid and classify the regime
  rdcheck        ratio criterion for random graph models along an n-grid

Exit codes: 0 success, 1 a verification/consistency check failed, 2 bad
input.  All randomized commands are reproducible: outputs are a pure
function of the arguments and --seed, regardless of COLORSTATS_THREADS.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import experiments, oracle, randgraph
from .coloring import Composition
from .graph import graph_from_spec, load_edge_list, parse_int, write_text
from .moments import full_report, record_json
from .oracle import BudgetExceededError


def _graph_arg(text: str):
    if os.path.exists(text):
        return load_edge_list(text)
    return graph_from_spec(text)


def _classes_arg(text: str, n: int) -> Composition:
    s = experiments.balanced_classes(text)
    if s is not None:
        return Composition.balanced(n, s)
    tokens = [tok.strip() for tok in text.split(",")]
    if bad := [tok for tok in tokens if not tok.isdecimal()]:
        raise ValueError(f"class sizes are whole numbers like 5,3 (or balanced:s), got {bad[0]!r}")
    sizes = tuple(map(int, tokens))
    if sum(sizes) != n:
        raise ValueError(f"class sizes {sizes} sum to {sum(sizes)}, graph has n={n}")
    return Composition(sizes)


def _positive_int(text: str) -> int:
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _seed(text: str) -> int:
    if not text.strip().isdigit():
        raise argparse.ArgumentTypeError(f"expected a whole number >= 0, got {text!r}")
    return int(text)


def _threshold(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _grid_arg(text: str) -> tuple[int, ...]:
    return tuple(parse_int(tok) for tok in text.split(","))


def _cmd_moments(args) -> int:
    g = _graph_arg(args.graph)
    c = _classes_arg(args.classes, g.n)
    report = full_report(g, c)
    write_text(json.dumps(record_json(report), indent=2) + "\n", args.out)
    return 0


def _cmd_oracle_verify(args) -> int:
    rows = oracle.run_verification(max_n=args.max_n, budget=args.budget)
    failures = 0
    for label, comp, formula, ok in rows:
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{status}  {label:<18} c={','.join(map(str, comp)):<14} {formula}")
    print(
        f"checked {len(rows)} formula instances: "
        + ("all pass" if failures == 0 else f"{failures} FAILED")
    )
    return 0 if failures == 0 else 1


def _cmd_simulate(args) -> int:
    g = _graph_arg(args.graph)
    c = _classes_arg(args.classes, g.n)
    record = experiments.run_comparison(g, c, trials=args.trials, seed=args.seed)
    write_text(json.dumps(record_json(record), indent=2) + "\n", args.out)
    ok = record.mean_ok and record.var_ok
    if not ok:
        print("empirical moments fell outside the 4-SE band", file=sys.stderr)
    return 0 if ok else 1


def _cmd_regime(args) -> int:
    family = experiments.FamilySpec(
        graph=args.family, coloring=args.classes, grid=_grid_arg(args.grid)
    )
    rows = experiments.run_regime(
        family,
        trials=args.trials,
        seed=args.seed,
        zeta_threshold=args.zeta_threshold,
        imbalance_threshold=args.imbalance_threshold,
        threads=args.threads,
    )
    experiments.emit(rows, args.format, args.out)
    print(
        f"regime: {rows[-1].predicted_regime} "
        f"(zeta_threshold={args.zeta_threshold}, "
        f"imbalance_threshold={args.imbalance_threshold}, rows={len(rows)})"
    )
    return 0


def _cmd_rdcheck(args) -> int:
    template = randgraph.parse_model_template(args.model)
    if args.grid is not None:
        grid = _grid_arg(args.grid)
    else:
        grid = (template(None).n,)
    if args.mode != "closed" and args.trials < 2:
        raise ValueError(f"need at least 2 trials, got {args.trials}")
    modes = {"closed": ["closed_form"], "mc": ["monte_carlo"], "both": ["closed_form", "monte_carlo"]}[args.mode]
    # exact and cheap, so a model it refuses ends the run before any output
    check = randgraph.assumption_star_check(template, grid) if args.star_check else None
    payload: dict = {"model": args.model, "grid": list(grid)}
    # every mode runs before the first line is printed, so a refused one leaves no partial output
    results = [(mode, randgraph.ratio_over_grid(template, grid, mode=mode, trials=args.trials, seed=args.seed))
               for mode in modes]
    for mode, result in results:
        points = [record_json(pt) for pt in result.points]
        payload[mode] = {"points": points, "verdict": result.verdict}
        label = "closed" if mode == "closed_form" else "mc"
        for pt in result.points:
            se = "" if pt.ratio_se is None else f" +- {pt.ratio_se:.3g}"
            val = "n/a" if pt.ratio is None else f"{float(pt.ratio):.6g}"
            print(f"{label:>6}  n={pt.n:<6} ratio={val}{se}")
        print(f"{label:>6}  verdict: {result.verdict}")
    if check is not None:
        payload["star_check"] = record_json(check)
        exp = "n/a" if check.exponent is None else f"{check.exponent:.3f}"
        print(f"size-variance check: exponent={exp} holds={check.holds}")
    if args.out is not None:
        write_text(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colorstats",
        description="Moments and concentration diagnostics for monochromatic "
        "edge counts under uniform random colorings with fixed class sizes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="exact moment report for one cell")
    p.add_argument("--graph", required=True, help="edge-list file or family spec like star:8")
    p.add_argument("--classes", required=True, help="sizes c1,c2,... or balanced:s")
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("oracle-verify", help="check all formulas against enumeration")
    p.add_argument("--max-n", type=int, default=8, help="largest corpus order (default 8)")
    p.add_argument(
        "--budget",
        type=int,
        default=oracle.DEFAULT_BUDGET,
        help="enumeration budget per cell",
    )
    p.set_defaults(func=_cmd_oracle_verify)

    p = sub.add_parser("simulate", help="Monte Carlo check of one cell")
    p.add_argument("--graph", required=True, help="edge-list file or family spec")
    p.add_argument("--classes", required=True, help="sizes c1,c2,... or balanced:s")
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("regime", help="sweep a family over an n-grid")
    p.add_argument("--family", required=True, help="graph spec with n from --grid (star, circulant:d=4, ...) or model spec")
    p.add_argument("--classes", required=True, help="ratio list like 3/4,1/4 or balanced:s")
    p.add_argument("--grid", required=True, help="comma-separated n values")
    p.add_argument("--trials", type=int, default=0, help="colorings per point (0: exact only)")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--zeta-threshold", type=_threshold, default=experiments.ZETA_THRESHOLD)
    p.add_argument(
        "--imbalance-threshold", type=_threshold, default=experiments.IMBALANCE_THRESHOLD
    )
    p.add_argument(
        "--threads",
        type=_positive_int,
        default=os.environ.get("COLORSTATS_THREADS", "1"),
        help="worker threads (default: COLORSTATS_THREADS or 1); output does not depend on it",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", required=True, help="output file")
    p.set_defaults(func=_cmd_regime)

    p = sub.add_parser("rdcheck", help="ratio criterion for random models")
    p.add_argument("--model", required=True, help="gnp:n=500,p=0.1 | config:n=500,law=3:1.0 | geo:... | cl:... | starlike:n=500")
    p.add_argument("--grid", default=None, help="n-grid; defaults to the n in --model")
    p.add_argument("--mode", choices=("closed", "mc", "both"), default="closed")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--star-check", action="store_true", help="also compute the exact Var(m)/E[m]^2")
    p.add_argument("--out", default=None, help="also write a JSON payload here")
    p.set_defaults(func=_cmd_rdcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError, BudgetExceededError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
