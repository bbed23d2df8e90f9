"""colorstats benchmark.

    python3 perfbench/run.py --workload many_small --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py            # every workload in turn, default seed

Run from anywhere inside a checkout; the package is imported from the
checkout's src/.  Process model: a closed loop with one client.  The
workload runs in its own child process, which makes back-to-back passes
over the workload's commands through colorstats.cli.main for --seconds
seconds; one pass is what a CLI user pays for the workload.  Before it,
separate interpreters measure the time to `import colorstats`.

With --trace 0 the end-to-end metrics of BENCHMARK.json are reported, with
--trace 1 its per-layer metrics, taken from traced passes that follow
untraced ones in the same child.  Each workload's report ends with one
line of JSON, {"correct", "attempted", "failed", "metrics"}, where
attempted and failed count correctness gates.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median, quantiles

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIME_LIMIT_S = 175
SETUP_PROBES = 9
PROBE = "import colorstats, time; print(time.monotonic())"


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("COLORSTATS_THREADS", None)  # commands without --threads run single-threaded
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_times(env: dict, deadline: float) -> list[float]:
    """Seconds from starting an interpreter until `import colorstats` is done."""
    out = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"import colorstats failed: {proc.stderr.strip()[-300:]}")
        out.append(float(proc.stdout.split()[-1]) - start)
    return out


def run_child(args, workload: str, env: dict, work: str, deadline: float) -> dict:
    result = os.path.join(work, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--result", result, "--spans", spans_path(workload, args.seed)]
    proc = subprocess.Popen(cmd, env=env)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"workload {workload} exceeded the time limit")
    if rc != 0:
        raise RuntimeError(f"workload process exited with {rc}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def spans_path(workload: str, seed: int) -> str:
    return os.path.join(".perfbench_work", f"spans-{workload}-seed{seed}.jsonl")


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = quantiles(values, n=4)
    return f"q1={q1:.4f} q3={q3:.4f} n={len(values)}"


def end_to_end(workload: str, spec: dict, res: dict, setups: list[float]) -> dict:
    walls = res["walls"]
    wall = median(walls)
    colorings, graphs = wl.logical_work(workload)
    values = {
        "wall_s": (wall, f"median over passes, {spread(walls)}"),
        "setup_s": (median(setups), f"median over interpreters, {spread(setups)}"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "ru_maxrss of the workload process"),
        "colorings_per_s": (colorings / wall, f"{colorings} colorings per pass"),
        "graphs_per_s": (graphs / wall, f"{graphs} random graphs per pass"),
    }
    for m in spec["end_to_end"]:
        value, note = values[m["name"]]
        print(f"{m['name']:<16} {value:12.4f} {m['unit']:<6} {note}")
    return {m["name"]: values[m["name"]][0] for m in spec["end_to_end"]}


def per_layer(spec: dict, meta: dict, res: dict) -> dict:
    self_s, counts = res["self_s"], res["counts"]
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_s":
            out[name] = median(res["traced_walls"]) - median(res["walls"])
        elif name.endswith(".self_s"):
            out[name] = self_s.get(name[: -len(".self_s")], 0.0)
        else:
            out[name] = counts.get(name, 0)
        tag = " (computed)" if m["unit"] in ("count", "bytes") else ""
        print(f"{name:<40} {out[name]:>16.6g} {m['unit']}{tag}")
    llc = meta["machine"]["l3_bytes"]
    for name in (n for n in out if n.endswith("max_bytes") and out[n]):
        print(f"largest array {name}: {out[name] / 2**20:.1f} MiB, last-level cache {llc / 2**20:.0f} MiB")
    return out


def run_workload(args, workload: str, spec: dict, meta: dict) -> int:
    deadline = time.monotonic() + TIME_LIMIT_S
    work = os.path.join(".perfbench_work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    env = child_env()
    try:
        setups = setup_times(env, deadline)
        res = run_child(args, workload, env, work, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    gates = res["gates"]
    failed = [g for g in gates if not g[1]]
    print(f"workload {workload}, seed {args.seed}, {len(res['walls'])} untraced passes")
    for name, _, detail in failed:
        print(f"GATE FAILED {name}: {detail}")
    print(f"{'error_rate':<16} {len(failed) / len(gates):12.4f} {'ratio':<6} "
          f"{len(failed)} of {len(gates)} gates failed")
    print(f"output digest {res['digest']} (recorded, not gated)")
    if args.trace:
        metrics = per_layer(spec, meta, res)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print(f"spans of the last traced pass: {spans_path(workload, args.seed)}")
    else:
        metrics = end_to_end(workload, spec, res, setups)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(json.dumps({
        "correct": not failed,
        "attempted": len(gates),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def main() -> int:
    with open(os.path.join(HERE, "meta.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=wl.WORKLOADS + ("all",),
                    help="one workload, or all of them in turn (default)")
    ap.add_argument("--seed", type=int, default=meta["default_seed"])
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "colorstats", "cli.py")):
        print(f"no colorstats sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(args, name, spec, meta) for name in names)


if __name__ == "__main__":
    sys.exit(main())
