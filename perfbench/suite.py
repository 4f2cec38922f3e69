"""Run every workload round-robin and print each metric's median and spread.

    python3 perfbench/suite.py                      # one round, end-to-end
    python3 perfbench/suite.py --rounds 10          # the stability check
    python3 perfbench/suite.py --rounds 2 --trace 1 # per-layer metrics

Round r runs each workload once with seed `--seed + r`, starting one
workload later each round, so slow drift of a shared host spreads over all
workloads instead of landing on one.  For each workload and metric it prints
the median, the quartiles, and the spread (q3 - q1) / median next to the
metric's bound from BENCHMARK.json, plus fail_ratio (failed / attempted
invocations).  With --trace 1 it also checks that the deterministic counts
repeat exactly across rounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from spans import DETERMINISTIC
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
            "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit("run.py %s failed with exit %d" % (workload, proc.returncode))
    return json.loads(lines[-2]), json.loads(lines[-1])


def quartiles(values):
    """(q1, q3, (q3 - q1) / median), with None where it is undefined."""
    if len(values) < 2:
        return None, None, None
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / median if median else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS)
    specs = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]

    host, values, tally = None, {}, {w: [0, 0] for w in names}
    for r in range(args.rounds):
        for i in range(len(names)):
            w = names[(r + i) % len(names)]
            record, result = run_once(w, args.seed + r, args.trace)
            host = record["host"]
            tally[w][0] += result["attempted"]
            tally[w][1] += result["failed"]
            for k, m in result["metrics"].items():
                values.setdefault((w, k), []).append(m["value"])
            print("round %d %-16s correct=%s %s" % (
                r, w, result["correct"],
                " ".join("%s=%.4g" % (k, m["value"])
                         for k, m in result["metrics"].items()
                         if k in ("wall_s", "cpu_s", "enumeration.fields"))),
                file=sys.stderr, flush=True)

    print("host %s" % json.dumps(host))
    print("%-16s %-26s %-6s %12s %12s %12s %8s %6s" % (
        "workload", "metric", "unit", "median", "q1", "q3", "spread", "bound"))
    unstable = []
    for w in names:
        attempted, failed = tally[w]
        print("%-16s %-26s %-6s %12.6g" % (w, "fail_ratio", "1", failed / attempted))
        for spec in specs:
            vals = values.get((w, spec["name"]), [])
            if not vals:
                print("%-16s %-26s %-6s %12s" % (w, spec["name"], spec["unit"], "absent"))
                continue
            q1, q3, s = quartiles(vals)
            cells = ["%12.6g" % x if x is not None else "%12s" % "-" for x in (q1, q3)]
            print("%-16s %-26s %-6s %12.6g %s %8s %6s" % (
                w, spec["name"], spec["unit"], statistics.median(vals), " ".join(cells),
                "-" if s is None else "%.4f" % s, spec.get("bound", "")))
            if args.trace and spec["name"] in DETERMINISTIC and len(set(vals)) > 1:
                unstable.append((w, spec["name"], vals))
    for w, name, vals in unstable:
        print("NOT DETERMINISTIC: %s %s %s" % (w, name, vals))
    failed = any(f for _, f in tally.values())
    return 1 if failed or unstable else 0


if __name__ == "__main__":
    sys.exit(main())
