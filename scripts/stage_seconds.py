"""Seconds and memory peak of each stage of `_build_batch`, the complete enumeration's window step.

Replaces the module-level stage functions of `s3census.enumeration` with
timed wrappers, runs the complete enumeration of one sign over
0 <= |disc| < N on one thread under tracemalloc, and prints JSON: the
seconds of each stage, the whole of `_build_batch`, and what is left over
(sorting and the row copies between stages), and each stage's peak of
traced memory in MB (10^6 bytes), the highest over its calls, counting
what its caller holds.  Seconds are taken under tracing, which adds a
little to every allocation.  "sweep" is the swept-rows step: the sweep
with each chunk's disc, region check and content test.  A stage whose
functions do not exist in the enumeration module is skipped and listed
under "missing", so the script runs unchanged against older and newer
versions of the module.  It also prints the number of chunks the sweep
yields and the rows of the largest one, which are deterministic.

    PYTHONPATH=src python3 scripts/stage_seconds.py --sign neg --max-abs-disc 3e6
"""

import argparse
import functools
import json
import sys
import time
import tracemalloc
from decimal import Decimal

from s3census import enumeration

# stage -> the module-level functions that make it up
STAGES = {
    "sweep": ("_swept_rows",),
    "irreducible": ("_irreducible_mask",),
    "cone": ("_cone_keep_mask",),
    "nonmax_2_3": ("_nonmax_2_3_mask",),
    "factor": ("_factor_pairs",),
    "nonmax": ("_nonmax_mask",),
    "tags": ("_check_tags",),
    "cyclic": ("_cyclic_mask",),
}


class Peaks:
    """Highest traced memory of each stage; a call inside another counts for both."""

    def __init__(self):
        self.mb = {}
        self._open = []

    def _fold(self):
        peak = tracemalloc.get_traced_memory()[1]
        for key in self._open:
            self.mb[key] = max(self.mb[key], peak / 1e6)
        tracemalloc.reset_peak()

    def timed(self, seconds, key, fn):
        self.mb.setdefault(key, 0.0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._fold()
            self._open.append(key)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[key] += time.perf_counter() - t0
                self._fold()
                self._open.pop()
        return wrapper


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--sign", choices=("pos", "neg"), required=True)
    parser.add_argument("--max-abs-disc", required=True,
                        help="enumerate 0 <= |disc| < N (integer, or a form such as 3e6)")
    args = parser.parse_args(argv)
    bound = Decimal(args.max_abs_disc)
    if bound != bound.to_integral_value() or bound < 1:
        parser.error("--max-abs-disc must be a positive integer")
    seconds = {}
    peaks = Peaks()
    missing = []
    for stage, names in STAGES.items():
        found = [n for n in names if hasattr(enumeration, n)]
        if not found:
            missing.append(stage)
            continue
        seconds[stage] = 0.0
        for name in found:
            setattr(enumeration, name, peaks.timed(seconds, stage, getattr(enumeration, name)))
    seconds["build_batch"] = 0.0
    enumeration._build_batch = peaks.timed(seconds, "build_batch", enumeration._build_batch)
    chunks = {"count": 0, "max_rows": 0}
    sweep = enumeration._sweep

    def counted(*args):
        for m in sweep(*args):
            chunks["count"] += 1
            chunks["max_rows"] = max(chunks["max_rows"], len(m))
            yield m

    enumeration._sweep = counted

    sign = 1 if args.sign == "pos" else -1
    fields = 0
    tracemalloc.start()
    try:
        for batch in enumeration.iter_batches(enumeration.EnumerationRange(0, int(bound)), sign):
            fields += batch.size
            del batch
    finally:
        tracemalloc.stop()
    staged = sum(v for k, v in seconds.items() if k != "build_batch")
    doc = {
        "sign": args.sign,
        "max_abs_disc": int(bound),
        "fields": fields,
        "seconds": {k: round(v, 4) for k, v in seconds.items()},
        "other_s": round(seconds["build_batch"] - staged, 4),
        "peak_mb": {k: round(v, 1) for k, v in peaks.mb.items()},
        "sweep_chunks": chunks,
        "missing": missing,
    }
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
