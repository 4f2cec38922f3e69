"""Outside-in layer tracing of one CLI invocation, and its per-layer metrics.

Run as a script, this file replaces the module-level names that
`s3census.cli` and `s3census.census` call with timed wrappers, runs the CLI
once with the given arguments, and writes the recorded spans and counters
as JSON:

    python3 perfbench/spans.py SPANS.json census --sign neg --live ...

Nothing in `src/` changes.  Span stacks are thread-local, so spans opened on
the `--threads` workers nest under their own callers; a span opened on a
worker thread with nothing above it belongs to the invocation's root span.
A wrapped name that no longer exists is reported as missing, and the
metrics that depend on it are left out instead of failing the run.

`layer_metrics` turns the documents of one workload's invocations into the
per-layer metrics listed in perfbench/README.md.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import operator
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = "cli:main"
ENUM = "enumeration:next"
DECODE = "cli:decode"
ACCUMULATE = "census:accumulate_stream"
BUILD_REPORT = "census:build_report"

# wrapped attribute -> (modules that call it, kind, span name)
TARGETS = {
    "iter_batches": (("cli", "census"), "batches", ENUM),
    "accumulate_stream": (("cli", "census"), "accumulate", ACCUMULATE),
    "build_report": (("cli",), "span", BUILD_REPORT),
    "resolvent_vec": (("cli", "census"), "span", "sextic:resolvent_vec"),
    "abs_sextic_below": (("census",), "span", "sextic:abs_sextic_below"),
    "sextic_residues": (("census",), "span", "sextic:sextic_residues"),
    "brute_force_enumerate": (("cli",), "span", "oracle:brute_force_enumerate"),
    "predict": (("cli", "census"), "span", "predictor:predict"),
    "exact_constants": (("cli",), "span", "predictor:exact_constants"),
    "mod5_prediction": (("cli",), "span", "predictor:mod5_prediction"),
    "_encode_batch": (("cli",), "count", "cli.cache_rows"),
}


class Tracer:
    """Spans and counters of one process; safe to use from several threads."""

    def __init__(self):
        self.spans = []          # [id, parent, name, thread, t0, t1, first]
        self.counters = {}
        self.missing = []
        self.root = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str):
        stack = self._stack()
        parent = stack[-1][0] if stack else self.root
        span = [next(self._ids), parent, name, threading.get_ident(),
                time.perf_counter(), None, False]
        if self.root is None:
            self.root = span[0]
        stack.append(span)
        return span

    def close(self, span) -> None:
        span[5] = time.perf_counter()
        popped = self._stack().pop()
        if popped is not span:
            raise RuntimeError("span %s closed out of order" % span[2])
        self.spans.append(span)

    def count(self, key: str, value, combine=operator.add) -> None:
        with self._lock:
            old = self.counters.get(key)
            self.counters[key] = value if old is None else combine(old, value)

    def timed(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap every TARGETS name found in the given {short name: module}."""
        for attr, (owners, kind, name) in TARGETS.items():
            found = [modules[m] for m in owners if hasattr(modules[m], attr)]
            if not found:
                self.missing.append(attr)
                continue
            wrapped = self._wrap(kind, name, getattr(found[0], attr))
            for mod in found:
                setattr(mod, attr, wrapped)

    def _wrap(self, kind: str, name: str, fn):
        if kind == "span":
            on_result = None
            if name.startswith("oracle:"):
                on_result = lambda fields: self.count("oracle.fields", len(fields))
            return self.timed(name, fn, on_result)
        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.count(name, len(result))
                return result
            return counted
        if kind == "batches":
            @functools.wraps(fn)
            def batches(*args, **kwargs):
                return TimedIter(self, ENUM, fn(*args, **kwargs))
            return batches
        return self._wrap_accumulate(fn)

    def _wrap_accumulate(self, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def accumulate(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            source = bound.arguments.get("batches")
            stream = None
            if source is not None:
                # live batches are already timed as enumeration; anything
                # else (a replayed cache) is timed as CLI decoding
                stream = source if isinstance(source, TimedIter) \
                    else TimedIter(self, DECODE, iter(source))
                bound.arguments["batches"] = stream
            rows_before = stream.rows if stream is not None else 0
            span = self.open(ACCUMULATE)
            try:
                result = fn(*bound.args, **bound.kwargs)
            finally:
                self.close(span)
            counts = result[0]
            self.count("census.counted", int(counts[-1]) if len(counts) else 0)
            if stream is not None:
                self.count("census.records", stream.rows - rows_before)
            return result
        return accumulate

    def document(self) -> dict:
        return {"spans": self.spans, "counters": self.counters,
                "missing": self.missing}


class TimedIter:
    """Times each next() of a batch iterator as one span."""

    def __init__(self, tracer: Tracer, name: str, inner):
        self.tracer, self.name, self.inner = tracer, name, inner
        self.rows = 0
        self._first = True

    def __iter__(self):
        return self

    def __next__(self):
        span = self.tracer.open(self.name)
        span[6], self._first = self._first, False
        try:
            batch = next(self.inner)
        finally:
            self.tracer.close(span)
        size = len(batch.disc)
        self.rows += size
        if self.name == ENUM:
            nbytes = sum(getattr(v, "nbytes", 0) for v in vars(batch).values())
            self.tracer.count("enumeration.batches", 1)
            self.tracer.count("enumeration.fields", size)
            self.tracer.count("enumeration.batch_mb_max", nbytes / 1e6, max)
        return batch


# --------------------------------------------------------------- aggregation


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its direct children's intervals.

    Children may run on other threads and overlap each other; the part of
    the parent's interval that any child covers counts once.
    """
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append((s[4], s[5]))
    out = {}
    for sid, _, _, _, t0, t1, _ in spans:
        covered, reach = 0.0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[sid] = (t1 - t0) - covered
    return out


# metric -> wrapped names it needs; absent when any of them was missing
NEEDS = {
    "enumeration.busy_s": ("iter_batches",),
    "enumeration.first_batch_s": ("iter_batches",),
    "enumeration.batches": ("iter_batches",),
    "enumeration.fields": ("iter_batches",),
    "enumeration.batch_mb_max": ("iter_batches",),
    "census.self_s": ("accumulate_stream",),
    "census.counted": ("accumulate_stream",),
    "census.records": ("accumulate_stream",),
    "census.useful_ratio": ("accumulate_stream",),
    "census.partition_skew": ("accumulate_stream",),
    "census.thread_busy_ratio": ("accumulate_stream",),
    "sextic.resolvent_s": ("resolvent_vec",),
    "sextic.threshold_s": ("abs_sextic_below",),
    "sextic.threshold_calls": ("abs_sextic_below",),
    "sextic.residues_s": ("sextic_residues",),
    "cli.self_s": (),
    "cli.decode_s": ("accumulate_stream",),
    "cli.cache_rows": ("_encode_batch",),
    "oracle.busy_s": ("brute_force_enumerate",),
    "oracle.fields": ("brute_force_enumerate",),
    "predictor.busy_s": ("predict", "exact_constants", "mod5_prediction"),
}

# counts that must repeat exactly between traced runs of one workload
DETERMINISTIC = ("enumeration.fields", "enumeration.batches",
                 "sextic.threshold_calls", "cli.cache_rows", "oracle.fields",
                 "census.counted", "census.records")


def layer_metrics(docs) -> dict:
    """Per-layer metrics of one workload from its invocations' documents."""
    total = dict.fromkeys(NEEDS, 0)
    total["enumeration.batch_mb_max"] = 0.0
    busy = wall = 0.0
    missing = set()
    for doc in docs:
        missing.update(doc["missing"])
        spans = doc["spans"]
        own = self_times(spans)
        durations = {}
        for sid, _, name, _, t0, t1, first in spans:
            durations.setdefault(name, []).append(t1 - t0)
            if name == ENUM and first:
                total["enumeration.first_batch_s"] += t1 - t0
            if name in (ROOT, ACCUMULATE, BUILD_REPORT, DECODE):
                key = {ROOT: "cli.self_s", DECODE: "cli.decode_s"}.get(name, "census.self_s")
                total[key] += own[sid]
        total["enumeration.busy_s"] += sum(durations.get(ENUM, ()))
        total["sextic.resolvent_s"] += sum(durations.get("sextic:resolvent_vec", ()))
        total["sextic.threshold_s"] += sum(durations.get("sextic:abs_sextic_below", ()))
        total["sextic.threshold_calls"] += len(durations.get("sextic:abs_sextic_below", ()))
        total["sextic.residues_s"] += sum(durations.get("sextic:sextic_residues", ()))
        total["oracle.busy_s"] += sum(durations.get("oracle:brute_force_enumerate", ()))
        total["predictor.busy_s"] += sum(
            sum(v) for k, v in durations.items() if k.startswith("predictor:"))
        parts = durations.get(ACCUMULATE, ())
        if parts:
            skew = max(parts) / statistics.mean(parts)
            total["census.partition_skew"] = max(total["census.partition_skew"], skew)
            busy += sum(parts)
            wall += len(parts) * sum(durations[ROOT])
        for key, value in doc["counters"].items():
            if key == "enumeration.batch_mb_max":
                total[key] = max(total[key], value)
            else:
                total[key] += value
    if wall:
        total["census.thread_busy_ratio"] = busy / wall
    if total["census.records"]:
        total["census.useful_ratio"] = total["census.counted"] / total["census.records"]
    return {k: v for k, v in total.items() if not missing.intersection(NEEDS[k])}


def main(argv: list[str]) -> int:
    out, args = Path(argv[0]), argv[1:]
    from s3census import census, cli

    tracer = Tracer()
    tracer.install({"cli": cli, "census": census})
    for attr in tracer.missing:
        print("perfbench: %s not found, its metrics are left out" % attr,
              file=sys.stderr)
    root = tracer.open(ROOT)
    code = 0
    try:
        cli.main(args, prog_name="s3census")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        tracer.close(root)
        sys.stdout.flush()
        out.write_text(json.dumps(tracer.document()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
