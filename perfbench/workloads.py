"""The benchmark's fixed workloads and the checks on their outputs.

Every workload is a list of real CLI invocations, each run in a fresh
interpreter.  Inputs are the paper's checkpoints, so they never vary; the
seed only chooses the order of invocations that do not depend on each
other.  A checker gets the invocation's stdout and the run's scratch
directory and raises WrongOutput on the first difference from the
reference tables.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


class WrongOutput(Exception):
    """An invocation printed something other than the reference values."""


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise WrongOutput(message)


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


# Published desk rows (tests/reference_tables.py): X, actual, pred_strong,
# pred_stronger, error_strong.
DESK_ROWS = {
    "neg": [
        [str(10**12), "2809", "2979", "2828", "0.079"],
        [str(10**13), "6315", "6613", "6362", "0.073"],
        [str(10**14), "14121", "14617", "14199", "0.064"],
    ],
    "pos": [
        [str(10**12), "690", "756", "709", "0.031"],
        [str(10**13), "1650", "1762", "1682", "0.027"],
        [str(10**14), "3848", "4045", "3910", "0.025"],
    ],
}
REPORT_HEADER = ["X", "actual", "pred_strong", "pred_stronger", "error_strong"]

# The mod-5 table at the paper's ten checkpoints up to 1e15, as printed by
# the initial import; its last row is 9579 = 2288+1780+1885+1773+1853.
MOD5_SHA256 = "6228da0c076579e1cf2f288fbd5184444e7d7d4a2002ffbb83142f812a98be75"
MOD5_LAST = [str(10**15), "9579", "2288", "1780", "1885", "1773", "1853"]

CACHE_NAME = "neg.csv"
CACHE_RECORDS = 559928
CACHE_SHA256 = "3f001ec2a3c93f768f0b84f4ff50766149b8dc445fbab72b6964441aaabfc009"
# the replayed census repeats the neg desk rows at 1e12 and 1e13 and adds
# the 2e13 row, whose actual count 8050 is not in the published tables
REPLAY_ROWS = DESK_ROWS["neg"][:2] + [[str(2 * 10**13), "8050", "8400", "8108", "0.071"]]

# verify's oracle-equivalence checks, with the number of fields they compare
VERIFY_ORACLE = {
    "oracle_equivalence_pos": "173 fields with |disc| < 5000",
    "oracle_equivalence_neg": "729 fields with |disc| < 5000",
}

# rounded mod-5 quintuples: the ramified class, then four equal classes
PREDICT_ROUNDED = {
    str(10**20): [122686] + [96552] * 4,
    str(3 * 10**23): [1824977] + [1437438] * 4,
}


def check_desk(sign: str) -> Callable[[str, Path], None]:
    def check(stdout: str, workdir: Path) -> None:
        rows = _rows(stdout)
        _expect(rows[:1] == [REPORT_HEADER], "desk %s: header %r" % (sign, rows[:1]))
        _expect(rows[1:] == DESK_ROWS[sign], "desk %s: rows %r" % (sign, rows[1:]))
    return check


def check_mod5(stdout: str, workdir: Path) -> None:
    rows = _rows(stdout)[1:]
    _expect(len(rows) == 10, "mod5: %d rows" % len(rows))
    counts = [int(r[1]) for r in rows]
    for r in rows:
        _expect(sum(int(v) for v in r[5:]) == int(r[1]),
                "mod5: residues of X=%s do not sum to %s" % (r[0], r[1]))
    _expect(counts == sorted(counts), "mod5: counts decrease: %r" % counts)
    _expect(rows[-1][:2] + rows[-1][5:] == MOD5_LAST, "mod5: last row %r" % rows[-1])
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    _expect(digest == MOD5_SHA256, "mod5: stdout sha256 %s" % digest)


def check_cache_write(stdout: str, workdir: Path) -> None:
    cache = workdir / CACHE_NAME
    _expect(stdout == "wrote %d records to %s\n" % (CACHE_RECORDS, cache),
            "enumerate: stdout %r" % stdout)
    meta = json.loads((workdir / (CACHE_NAME + ".meta.json")).read_text())
    _expect(meta.get("records") == CACHE_RECORDS, "cache: records %r" % meta.get("records"))
    _expect(meta.get("sha256") == CACHE_SHA256, "cache: sidecar sha256 %r" % meta.get("sha256"))
    digest = hashlib.sha256(cache.read_bytes()).hexdigest()
    _expect(digest == CACHE_SHA256, "cache: file sha256 %s" % digest)


def check_replay(stdout: str, workdir: Path) -> None:
    rows = _rows(stdout)
    _expect(rows[:1] == [REPORT_HEADER], "replay: header %r" % rows[:1])
    _expect(rows[1:] == REPLAY_ROWS, "replay: rows %r" % rows[1:])


def check_verify(stdout: str, workdir: Path) -> None:
    doc = json.loads(stdout)
    _expect(doc.get("pass") is True, "verify: pass is %r" % doc.get("pass"))
    failed = [c["name"] for c in doc["checks"] if not c["pass"]]
    _expect(not failed, "verify: failed checks %r" % failed)
    details = {c["name"]: c["detail"] for c in doc["checks"]}
    for name, detail in VERIFY_ORACLE.items():
        _expect(details.get(name) == detail, "verify: %s says %r" % (name, details.get(name)))


def check_predict(stdout: str, workdir: Path) -> None:
    got = {}
    for line in stdout.splitlines():
        head = re.fullmatch(r"X=(\d+) sign=neg mod5 (.*)", line)
        _expect(head is not None, "predict: line %r" % line)
        got[head.group(1)] = [int(v) for v in re.findall(r"\((\d+)\)", head.group(2))]
    _expect(got == PREDICT_ROUNDED, "predict: rounded %r" % got)


@dataclass(frozen=True)
class Invocation:
    """One CLI call; `{cache}` in args names the run's cache file."""

    label: str
    args: tuple[str, ...]
    check: Callable[[str, Path], None]


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]


_DESK = ("--live", "--threads", "1", "--checkpoints", "1e12,1e13,1e14")
_MOD5_CPS = "1e12,2e12,5e12,1e13,2e13,5e13,1e14,2e14,5e14,1e15"

WORKLOADS = {w.name: w for w in (
    Workload(
        "desk-live",
        (
            Invocation("census-neg", ("census", "--sign", "neg") + _DESK,
                       check_desk("neg")),
            Invocation("census-pos", ("census", "--sign", "pos") + _DESK,
                       check_desk("pos")),
        ),
    ),
    Workload(
        "mod5-threads",
        (
            Invocation("census-mod5",
                       ("census", "--sign", "neg", "--live", "--threads", "2",
                        "--mod", "5", "--unram", "2,3", "--checkpoints", _MOD5_CPS),
                       check_mod5),
        ),
    ),
    Workload(
        "cache-roundtrip",
        (
            Invocation("enumerate",
                       ("enumerate", "--sign", "neg", "--max-abs-disc", "3e6",
                        "--cache", "{cache}"),
                       check_cache_write),
            Invocation("census-replay",
                       ("census", "--sign", "neg", "--checkpoints",
                        "1e12,1e13,2e13", "--cache", "{cache}"),
                       check_replay),
        ),
    ),
    Workload(
        "verify-oracle",
        (
            Invocation("verify", ("verify",), check_verify),
            Invocation("predict",
                       ("predict", "--exact", "--mod5", "--sign", "neg",
                        "--X", "1e20,3e23"),
                       check_predict),
        ),
    ),
)}
