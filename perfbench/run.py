"""Run one benchmark workload through the real s3census CLI.

    python3 perfbench/run.py --workload desk-live --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the program is taken from the
checkout's `src/`.  Each CLI invocation is a fresh interpreter, so every
measured run pays what a user pays.  With `--trace 0` the workload repeats
for `--seconds` (at least once) and the end-to-end metrics are medians over
the repetitions.  With `--trace 1` the workload runs twice under
perfbench/spans.py with one untraced pass between, whatever `--seconds`
says; the per-layer metrics are medians of the two traced passes, whose
counts must agree exactly.

Every output is checked against the reference tables.  The last stdout line
is the result object; the line before it records the host and raw samples.
Exit code 2 when the checkout holds no program to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from spans import DETERMINISTIC, layer_metrics
from workloads import CACHE_NAME, WORKLOADS, Invocation, WrongOutput

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
TIMEOUT_S = 170.0
SETUP_REPEATS = 11


@dataclass
class Sample:
    label: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    ok: bool


def _run_child(argv, stdout_path: Path, stderr_path: Path):
    """Spawn argv; return (wall seconds, exit code, rusage of the child)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        lock, done = threading.Lock(), []

        def kill():
            with lock:
                if not done:
                    proc.kill()

        timer = threading.Timer(TIMEOUT_S, kill)
        timer.start()
        # wait without reaping, so the timer can never signal a reused pid
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        with lock:
            done.append(True)
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = code = os.waitstatus_to_exitcode(status)
    return wall, code, usage


def _invoke(inv: Invocation, workdir: Path, traced: Path | None) -> Sample:
    args = [a.replace("{cache}", str(workdir / CACHE_NAME)) for a in inv.args]
    prefix = [sys.executable, "-m", "s3census.cli"]
    if traced is not None:
        prefix = [sys.executable, str(HERE / "spans.py"), str(traced)]
    out, err = workdir / "stdout", workdir / "stderr"
    wall, code, usage = _run_child(prefix + args, out, err)
    ok = code == 0
    try:
        if ok:
            inv.check(out.read_text(), workdir)
    except (WrongOutput, ValueError, KeyError, IndexError, OSError) as exc:
        ok = False
        print("perfbench: %s: wrong output: %s" % (inv.label, exc), file=sys.stderr)
    if code != 0:
        print("perfbench: %s: exit %d: %s" % (inv.label, code,
              err.read_text()[-2000:]), file=sys.stderr)
    return Sample(inv.label, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss * 1024 / 1e6, ok)


def _pass(invocations, workdir: Path, traced: bool = False):
    """One pass over the workload: (samples, traced documents, cache MB)."""
    cache_files = lambda: workdir.glob(CACHE_NAME + "*")
    for stale in cache_files():
        stale.unlink()
    samples, docs = [], []
    for i, inv in enumerate(invocations):
        doc = workdir / ("spans-%d.json" % i) if traced else None
        samples.append(_invoke(inv, workdir, doc))
        if doc is not None and doc.exists():
            docs.append(json.loads(doc.read_text()))
    cache_mb = sum(p.stat().st_size for p in cache_files()) / 1e6
    return samples, docs, cache_mb


def _setup_seconds(workdir: Path) -> list[float]:
    """Fresh-interpreter import of the CLI module, after one warm-up."""
    argv = [sys.executable, "-c", "import s3census.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        wall, code, _ = _run_child(argv, workdir / "stdout", workdir / "stderr")
        if code != 0:
            raise RuntimeError("import s3census.cli failed: %s"
                               % (workdir / "stderr").read_text()[-2000:])
        if i:
            times.append(wall)
    return times


def _by_label(samples, label: str) -> float:
    return next(s.wall_s for s in samples if s.label == label)


def _end_to_end(reps) -> dict:
    return {
        "wall_s": statistics.median(sum(s.wall_s for s in r) for r in reps),
        "cpu_s": statistics.median(sum(s.cpu_s for s in r) for r in reps),
        "peak_rss_mb": statistics.median(max(s.rss_mb for s in r) for r in reps),
    }


def _cache_metrics(passes) -> dict:
    reps = [samples for samples, _, _ in passes]
    if not any(s.label == "enumerate" for s in reps[0]):
        return {"cache_write_s": 0.0, "cache_read_s": 0.0, "cache_mb": 0.0}
    return {
        "cache_write_s": statistics.median(_by_label(r, "enumerate") for r in reps),
        "cache_read_s": statistics.median(_by_label(r, "census-replay") for r in reps),
        "cache_mb": statistics.median(mb for _, _, mb in passes),
    }


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path):
    # the inputs are the paper's fixed checkpoints; the seed is only recorded
    invocations = workload.invocations
    record = {"seed": seed}
    plain, traced = [], []
    if trace:
        # traced, untraced, traced: the untraced pass sits between the two
        # traced ones so host drift biases the overhead ratio least
        traced.append(_pass(invocations, workdir, traced=True))
        plain.append(_pass(invocations, workdir))
        traced.append(_pass(invocations, workdir, traced=True))
    else:
        record["setup_s"] = _setup_seconds(workdir)
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            plain.append(_pass(invocations, workdir))
            now = time.perf_counter()
            if now - start + (now - t0) > seconds:
                break
    reps = [samples for samples, _, _ in plain]
    every = reps + [samples for samples, _, _ in traced]
    attempted = sum(len(r) for r in every)
    failed = sum(not s.ok for r in every for s in r)
    record["samples"] = [[vars(s) for s in r] for r in reps]

    if not trace:
        metrics = _end_to_end(reps)
        metrics["setup_s"] = statistics.median(record["setup_s"])
        return record, attempted, failed, metrics

    per_pass = [layer_metrics(docs) for _, docs, _ in traced]
    for key in DETERMINISTIC:
        values = {m.get(key) for m in per_pass}
        if len(values) > 1:
            failed += 1
            print("perfbench: %s differs between traced passes: %s"
                  % (key, sorted(values, key=str)), file=sys.stderr)
    metrics = {k: per_pass[0][k] if k in DETERMINISTIC
               else statistics.median(m[k] for m in per_pass)
               for k in per_pass[0] if all(k in m for m in per_pass)}
    traced_wall = statistics.median(sum(s.wall_s for s in r) for r, _, _ in traced)
    metrics["trace.overhead_ratio"] = traced_wall / _end_to_end(reps)["wall_s"] - 1
    metrics.update(_cache_metrics(plain))
    return record, attempted, failed, metrics


def host() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 1e6,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "s3census" / "cli.py").is_file():
        print("perfbench: no s3census sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        record, attempted, failed, metrics = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
            workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    record.update(workload=args.workload, trace=args.trace, host=host())
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
