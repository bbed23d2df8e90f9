"""Self-test of the benchmark; run from a checkout:

    python3 perfbench/check.py

For every workload it makes two short traced runs on the default seed and
requires every computed count to repeat exactly and to agree with the
workload's logical work, then one untraced run on the held-out seed.  All
runs must pass every correctness gate; a gate failing on the held-out seed
is a finding about the program, reported here and not hidden by another
seed.  Exits 1 if anything fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    for line in proc.stdout.splitlines():
        if line.startswith("GATE FAILED"):
            print(f"{workload} seed {seed}: {line}")
    return json.loads(proc.stdout.splitlines()[-1])


def counts(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] in ("count", "bytes")}


def main() -> int:
    with open(os.path.join(HERE, "meta.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    problems = []
    for workload in wl.WORKLOADS:
        first = bench(workload, meta["default_seed"], 1)
        second = bench(workload, meta["default_seed"], 1)
        held_out = bench(workload, meta["held_out_seed"], 0)
        a, b = counts(first), counts(second)
        problems += [f"{workload}: {k} was {a[k]} then {b[k]}" for k in a if a[k] != b[k]]
        colorings, graphs = wl.logical_work(workload)
        # the random regime shuffles its colourings inline, outside sample_batch
        inline = len(wl.REGIME_GRID) * wl.MC_TRIALS if workload == "many_small" else 0
        traced = a["oracle.colorings"] + a["coloring.sample_batch.colorings"] + inline
        if traced != colorings:
            problems.append(f"{workload}: traced colorings {traced}, logical {colorings}")
        if workload != "oracle_sweep" and a["randgraph.graphs"] != graphs:
            problems.append(f"{workload}: traced graphs {a['randgraph.graphs']}, logical {graphs}")
        for name, res in (("default seed", first), ("default seed", second), ("held-out seed", held_out)):
            if not res["correct"]:
                problems.append(f"{workload}: {res['failed']} of {res['attempted']} gates failed on the {name}")
        print(f"{workload}: {len(a)} counts repeat: {a == b}; "
              f"gates {first['attempted']} traced, {held_out['attempted']} on the held-out seed")
    for p in problems:
        print("PROBLEM", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
