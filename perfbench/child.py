"""One workload in its own process: back-to-back passes through
colorstats.cli.main, gates on the outputs, and optionally traced passes.

Started by run.py; writes its results as JSON to --result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
from time import perf_counter

import tracer as tr
import workloads as wl


def run_pass(cli_main, cmds) -> tuple[float, dict]:
    """Run every command once; returns the pass's wall time and outputs."""
    captured = []
    start = perf_counter()
    for cmd in cmds:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli_main(list(cmd.argv))
            except SystemExit as exc:  # argparse rejects bad arguments this way
                rc = exc.code
        captured.append((cmd, rc, out.getvalue(), err.getvalue()))
    wall = perf_counter() - start
    outputs = {}
    for cmd, rc, out, err in captured:
        data = None
        if cmd.out is not None and os.path.exists(cmd.out):
            with open(cmd.out, "rb") as fh:
                data = fh.read()
        outputs[cmd.label] = (rc, out, err, data)
    return wall, outputs


def digest(outputs: dict) -> str:
    h = hashlib.sha256()
    for label, (rc, out, err, data) in outputs.items():
        h.update(f"{label}\0{rc}\0".encode())
        h.update(out.encode() + b"\0" + err.encode() + b"\0" + (data or b""))
    return h.hexdigest()


def passes(cli_main, cmds, seconds: float, minimum: int):
    """Passes back to back until `seconds` have gone by (at least `minimum`)."""
    start = perf_counter()
    done = 0
    while done < minimum or perf_counter() - start < seconds:
        gc.collect()  # start every pass from a collected heap, outside the timing
        yield run_pass(cli_main, cmds)
        done += 1


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", required=True, help="with --trace 1, the last traced pass's spans go here")
    args = ap.parse_args()

    from colorstats import cli

    src = os.path.realpath(os.path.join("src", "colorstats"))
    if os.path.dirname(os.path.realpath(cli.__file__)) != src:
        print(f"colorstats imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    ctx = wl.prepare(args.workload, args.seed, args.work)
    cmds = wl.commands(args.workload, args.seed, args.work, ctx)
    gates = wl.Gates()
    untraced_budget = args.seconds / 2 if args.trace else args.seconds
    walls, digests = [], []
    for wall, outputs in passes(cli.main, cmds, untraced_budget, minimum=1 if args.trace else 3):
        digests.append(digest(outputs))
        if len(digests) == 1:
            wl.check_outputs(args.workload, ctx, outputs, gates)
        else:
            gates.check(f"pass{len(digests)}.digest_repeats", digests[-1] == digests[0])
        walls.append(wall)
    result = {"walls": walls, "digest": digests[0]}

    if args.trace:
        tracer = tr.Tracer()
        tr.install(tracer)
        traced_walls, self_times, counts = [], [], []
        for wall, outputs in passes(cli.main, cmds, args.seconds / 2, minimum=2):
            traced_walls.append(wall)
            spans = tracer.reset()
            self_s, cnt = tr.summarize(spans)
            self_times.append(self_s)
            counts.append(cnt)
            gates.check(f"traced{len(counts)}.digest_matches_untraced", digest(outputs) == digests[0])
        gates.check("traced.counts_repeat", all(c == counts[0] for c in counts[1:]),
                    "a computed count differed between traced passes")
        result.update(traced_walls=traced_walls, self_s=tr.median_self(self_times), counts=counts[0])
        with open(args.spans, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(span) + "\n" for span in spans)

    result["gates"] = gates.results
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
