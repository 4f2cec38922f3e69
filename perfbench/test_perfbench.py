"""Self-tests of the benchmark on tiny inputs: python3 -m pytest perfbench"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

import spans
import workloads
from spans import ACCUMULATE, ENUM, ROOT, Tracer, layer_metrics, self_times
from workloads import WrongOutput

REPO = Path(__file__).resolve().parent.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
REJECTS = (WrongOutput, ValueError, KeyError, IndexError)


# ----------------------------------------------------------------- self time


def test_self_time_subtracts_union_of_children_across_threads():
    # [id, parent, name, thread, t0, t1, first]
    spans_ = [
        [0, None, ROOT, 1, 0.0, 10.0, False],
        [1, 0, ACCUMULATE, 2, 1.0, 4.0, False],
        [2, 0, ACCUMULATE, 3, 3.0, 6.0, False],   # overlaps span 1
        [3, 1, ENUM, 2, 1.5, 2.0, True],
        [4, 0, ACCUMULATE, 3, 8.0, 12.0, False],  # runs past its parent
    ]
    own = self_times(spans_)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[1] == pytest.approx(3.0 - 0.5)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(0.5)


def test_thread_local_stacks_nest_per_thread():
    tracer = Tracer()
    root = tracer.open(ROOT)
    barrier = threading.Barrier(2)

    def worker():
        outer = tracer.open(ACCUMULATE)
        barrier.wait(timeout=10)       # both outers open before any inner
        inner = tracer.open(ENUM)
        barrier.wait(timeout=10)
        tracer.close(inner)
        tracer.close(outer)

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    tracer.close(root)

    by_id = {s[0]: s for s in tracer.spans}
    outers = [s for s in tracer.spans if s[2] == ACCUMULATE]
    inners = [s for s in tracer.spans if s[2] == ENUM]
    assert [s[1] for s in outers] == [root[0], root[0]]
    for inner in inners:
        assert by_id[inner[1]][3] == inner[3]     # parent ran on the same thread
    assert len({s[1] for s in inners}) == 2
    own = self_times(tracer.spans)
    union = max(s[5] for s in outers) - min(s[4] for s in outers)
    assert own[root[0]] == pytest.approx(root[5] - root[4] - union)


# ------------------------------------------------------ layers and metrics


def _fake_modules(drop=()):
    def iter_batches(rng, sign):
        for n in (3, 2):
            yield SimpleNamespace(disc=list(range(n)))

    def accumulate_stream(checkpoints, filt, batches, stop_at=None):
        total = sum(len(b.disc) for b in batches)
        return [total - 1] * len(checkpoints), None

    names = dict(iter_batches=iter_batches, accumulate_stream=accumulate_stream,
                 resolvent_vec=len, abs_sextic_below=len, sextic_residues=len,
                 build_report=len, brute_force_enumerate=list, predict=len,
                 exact_constants=len, mod5_prediction=len, _encode_batch=list)
    for name in drop:
        del names[name]
    return SimpleNamespace(**names), SimpleNamespace(**names)


def _traced_flow(drop=()):
    cli, census = _fake_modules(drop)
    tracer = Tracer()
    tracer.install({"cli": cli, "census": census})
    root = tracer.open(ROOT)
    cli.accumulate_stream([1, 2], None, cli.iter_batches(None, -1))
    census.accumulate_stream([1, 2], None, [SimpleNamespace(disc=[7])])
    if hasattr(census, "abs_sextic_below"):
        census.abs_sextic_below([1])
    tracer.close(root)
    return tracer, json.loads(json.dumps(tracer.document()))


def test_layer_metrics_on_fake_modules():
    _, doc = _traced_flow()
    m = layer_metrics([doc])
    assert m["enumeration.batches"] == 2
    assert m["enumeration.fields"] == 5
    assert m["census.records"] == 6
    assert m["census.counted"] == 4
    assert m["census.useful_ratio"] == pytest.approx(4 / 6)
    assert m["sextic.threshold_calls"] == 1
    assert m["census.partition_skew"] >= 1.0
    assert set(m) == set(spans.NEEDS)


def test_missing_wrapped_name_gives_absent_metric():
    tracer, doc = _traced_flow(drop=("abs_sextic_below",))
    assert tracer.missing == ["abs_sextic_below"]
    m = layer_metrics([doc])
    assert "sextic.threshold_s" not in m
    assert "sextic.threshold_calls" not in m
    assert m["enumeration.fields"] == 5


def test_metric_names_and_units_match_benchmark_json():
    end_to_end = {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"}
    assert {s["name"] for s in SPEC["end_to_end"]} == end_to_end
    per_layer = set(spans.NEEDS) | {"trace.overhead_ratio", "cache_write_s",
                                    "cache_read_s", "cache_mb"}
    assert {s["name"] for s in SPEC["per_layer"]} == per_layer
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


# ---------------------------------------------------------- output checkers


def _desk_csv(sign):
    lines = [",".join(workloads.REPORT_HEADER)]
    lines += [",".join(r) for r in workloads.DESK_ROWS[sign]]
    return "\n".join(lines) + "\n"


MOD5_CSV = """\
X,actual,pred_strong,pred_stronger,error_strong,res_0,res_1,res_2,res_3,res_4
1000000000000,839,922,874,0.039,204,152,170,145,168
2000000000000,1092,1175,1119,0.032,267,191,223,190,221
5000000000000,1484,1616,1548,0.039,354,273,289,259,309
10000000000000,1904,2057,1977,0.037,439,368,365,344,388
20000000000000,2423,2616,2523,0.039,566,454,479,436,488
50000000000000,3384,3592,3479,0.033,789,649,660,619,667
100000000000000,4302,4565,4432,0.034,1010,811,845,788,848
200000000000000,5444,5798,5642,0.038,1291,1028,1058,1016,1051
500000000000000,7473,7948,7758,0.039,1770,1412,1451,1393,1447
1000000000000000,9579,10087,9864,0.035,2288,1780,1885,1773,1853
"""

REPLAY_CSV = """\
X,actual,pred_strong,pred_stronger,error_strong
1000000000000,2809,2979,2828,0.079
10000000000000,6315,6613,6362,0.073
20000000000000,8050,8400,8108,0.071
"""

PREDICT_TEXT = (
    "X=100000000000000000000 sign=neg mod5 0:122686.16702025422(122686) "
    "1:96551.65726439137(96552) 2:96551.65726439137(96552) "
    "3:96551.65726439137(96552) 4:96551.65726439137(96552)\n"
    "X=300000000000000000000000 sign=neg mod5 0:1824976.9868569402(1824977) "
    "1:1437438.0761107448(1437438) 2:1437438.0761107448(1437438) "
    "3:1437438.0761107448(1437438) 4:1437438.0761107448(1437438)\n"
)

VERIFY_JSON = json.dumps({"pass": True, "checks": [
    {"name": "oracle_equivalence_pos", "pass": True,
     "detail": "173 fields with |disc| < 5000"},
    {"name": "oracle_equivalence_neg", "pass": True,
     "detail": "729 fields with |disc| < 5000"},
    {"name": "zeta_two_identity", "pass": True, "detail": "zeta(2) = 1.6449340668482264"},
]}, indent=2)


def _bump(text: str, i: int) -> str:
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


@pytest.mark.parametrize("check, good", [
    (workloads.check_desk("neg"), _desk_csv("neg")),
    (workloads.check_desk("pos"), _desk_csv("pos")),
    (workloads.check_mod5, MOD5_CSV),
    (workloads.check_replay, REPLAY_CSV),
])
def test_checker_rejects_every_one_digit_corruption(check, good, tmp_path):
    check(good, tmp_path)
    for i, ch in enumerate(good):
        if ch.isdigit():
            with pytest.raises(REJECTS):
                check(_bump(good, i), tmp_path)


@pytest.mark.parametrize("check, good, old, new", [
    (workloads.check_predict, PREDICT_TEXT, "(122686)", "(122687)"),
    (workloads.check_predict, PREDICT_TEXT, "(1437438)\n", "(1437439)\n"),
    (workloads.check_predict, PREDICT_TEXT, "X=3000", "X=4000"),
    (workloads.check_verify, VERIFY_JSON, "173 fields", "174 fields"),
    (workloads.check_verify, VERIFY_JSON, "729 fields", "728 fields"),
    (workloads.check_verify, VERIFY_JSON, '"pass": true,\n  "checks"',
     '"pass": false,\n  "checks"'),
])
def test_checker_rejects_corrupted_checked_value(check, good, old, new, tmp_path):
    check(good, tmp_path)
    assert old in good
    with pytest.raises(REJECTS):
        check(good.replace(old, new, 1), tmp_path)


def test_cache_checker_rejects_corrupted_file_sidecar_and_stdout(tmp_path, monkeypatch):
    body = b"a,b,c,d,disc_k,cyclic,ram_profile\n1,0,1,1,-31,0,31:1:P\n"
    digest = hashlib.sha256(body).hexdigest()
    monkeypatch.setattr(workloads, "CACHE_RECORDS", 1)
    monkeypatch.setattr(workloads, "CACHE_SHA256", digest)
    cache = tmp_path / workloads.CACHE_NAME
    sidecar = tmp_path / (workloads.CACHE_NAME + ".meta.json")
    meta = json.dumps({"records": 1, "sha256": digest})
    stdout = "wrote 1 records to %s\n" % cache

    def check(body_, meta_, stdout_):
        cache.write_bytes(body_)
        sidecar.write_text(meta_)
        workloads.check_cache_write(stdout_, tmp_path)

    check(body, meta, stdout)
    with pytest.raises(REJECTS):
        check(body.replace(b"-31", b"-32"), meta, stdout)
    with pytest.raises(REJECTS):
        check(body, meta.replace('"records": 1', '"records": 2'), stdout)
    with pytest.raises(REJECTS):
        check(body, meta.replace(digest[:8], _bump(digest[:8], 0)), stdout)
    with pytest.raises(REJECTS):
        check(body, meta, stdout.replace("wrote 1", "wrote 2"))


def test_desk_rows_match_reference_tables():
    path = REPO / "tests" / "reference_tables.py"
    if not path.exists():
        pytest.skip("no reference tables in this checkout")
    spec = importlib.util.spec_from_file_location("reference_tables", path)
    ref = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ref)
    for sign, actual, strong, stronger, err in (
        ("neg", ref.NEG_ACTUAL, ref.NEG_TWO_TERM, ref.NEG_TAIL_CORRECTED, ref.NEG_ERROR),
        ("pos", ref.POS_ACTUAL, ref.POS_TWO_TERM, ref.POS_TAIL_CORRECTED, ref.POS_ERROR),
    ):
        want = [[str(x), str(a), str(s), str(t), e] for x, a, s, t, e
                in zip(ref.POS_BOUNDS[:3], actual, strong, stronger, err)]
        assert workloads.DESK_ROWS[sign] == want


# ------------------------------------------------------------------ contract


def test_run_without_program_fails_without_result(tmp_path):
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-live",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
