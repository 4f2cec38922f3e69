import bisect
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference_tables as ref
import s3census
from s3census import cli, enumeration
from s3census.cli import _load_cache, main
from s3census.enumeration import (
    EnumerationRange,
    WindowBatch,
    enumerate_fields,
    iter_batches,
)
from s3census.forms import ConsistencyError


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory, runner):
    root = tmp_path_factory.mktemp("cache")
    result = runner.invoke(
        main,
        ["enumerate", "--sign", "neg", "--max-abs-disc", "6e5",
         "--cache", str(root / "neg.csv")],
    )
    assert result.exit_code == 0, result.output
    return root


def test_enumerate_counts_match_library(cache_dir):
    meta = json.loads((cache_dir / "neg.csv.meta.json").read_text())
    expected = sum(b.size for b in iter_batches(EnumerationRange(0, 600000), -1))
    assert meta["records"] == expected
    assert meta["format_version"] == 1
    assert meta["lower"] == 0 and meta["upper"] == 600000
    assert meta["sign"] == "neg"
    body = (cache_dir / "neg.csv").read_text().splitlines()
    assert body[0] == "a,b,c,d,disc_k,cyclic,ram_profile"
    assert len(body) == expected + 1


def test_enumerate_deterministic_across_threads(runner, cache_dir, tmp_path, monkeypatch):
    # 50 000-wide complete windows: 12 of them, in rounds of 1, 2 and 3
    monkeypatch.setattr(enumeration, "_COMPLETE_WINDOW", 50_000)
    for k in ("1", "2", "3"):
        result = runner.invoke(
            main,
            ["enumerate", "--sign", "neg", "--max-abs-disc", "600000",
             "--cache", str(tmp_path / f"neg{k}.csv"), "--threads", k],
        )
        assert result.exit_code == 0
    base = (cache_dir / "neg.csv").read_bytes()
    for k in ("1", "2", "3"):
        assert (tmp_path / f"neg{k}.csv").read_bytes() == base


@pytest.mark.parametrize("width", [50_000, 2_000_000, 8_000_000])
def test_enumerate_bytes_do_not_depend_on_the_complete_width(runner, cache_dir, tmp_path,
                                                             monkeypatch, width):
    monkeypatch.setattr(enumeration, "_COMPLETE_WINDOW", width)
    cache = tmp_path / "neg.csv"
    result = runner.invoke(
        main, ["enumerate", "--sign", "neg", "--max-abs-disc", "6e5", "--cache", str(cache)])
    assert result.exit_code == 0, result.output
    for name in ("neg.csv", "neg.csv.meta.json"):
        assert (tmp_path / name).read_bytes() == (cache_dir / name).read_bytes()


def _enumerate_peak(runner, cache, upper):
    tracemalloc.start()
    try:
        result = runner.invoke(
            main, ["enumerate", "--sign", "neg", "--max-abs-disc", str(upper),
                   "--cache", str(cache)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0, result.output
    return peak


def test_enumerate_memory_is_bounded_by_the_window(runner, tmp_path, monkeypatch):
    """Each window's lines go to the file as they arrive, so twice the
    range, in twice as many 1e5-wide windows, takes about the same peak."""
    monkeypatch.setattr(enumeration, "_COMPLETE_WINDOW", 100_000)
    single = _enumerate_peak(runner, tmp_path / "half.csv", 600_000)
    double = _enumerate_peak(runner, tmp_path / "whole.csv", 1_200_000)
    assert (tmp_path / "whole.csv").stat().st_size > 1.9 * (tmp_path / "half.csv").stat().st_size
    assert double <= 1.3 * single


@pytest.mark.parametrize("threads", ["1", "2"])
def test_enumerate_error_leaves_no_file(runner, tmp_path, monkeypatch, threads):
    """An error in the second window exits as any uncaught error does, and
    leaves no cache, no sidecar and no temporary file."""
    monkeypatch.setattr(enumeration, "_COMPLETE_WINDOW", 100_000)
    build = enumeration._build_batch

    def fail_second(lo, hi, *args):
        if lo == 100_000:
            raise ConsistencyError("second window")
        return build(lo, hi, *args)

    monkeypatch.setattr(enumeration, "_build_batch", fail_second)
    result = runner.invoke(
        main, ["enumerate", "--sign", "neg", "--max-abs-disc", "4e5",
               "--cache", str(tmp_path / "neg.csv"), "--threads", threads])
    assert result.exit_code == 1
    assert isinstance(result.exception, ConsistencyError)
    assert list(tmp_path.iterdir()) == []


def test_cache_round_trip_exact(cache_dir):
    batches, covered = _load_cache(cache_dir / "neg.csv", -1)
    n = json.loads((cache_dir / "neg.csv.meta.json").read_text())["records"]
    assert covered == EnumerationRange(0, 600000)
    replayed = []
    for batch in batches:
        for i in range(batch.size):
            from s3census.enumeration import _batch_record

            replayed.append(_batch_record(batch, i))
    assert n == len(replayed)
    assert replayed == list(enumerate_fields(covered, -1))


def test_census_from_cache_matches_published(runner, cache_dir):
    result = runner.invoke(
        main,
        ["census", "--sign", "neg", "--checkpoints", "1e12",
         "--cache", str(cache_dir / "neg.csv")],
    )
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert lines[0] == "X,actual,pred_strong,pred_stronger,error_strong"
    assert lines[1] == "1000000000000,2809,2979,2828,0.079"


def test_census_live_equals_cache_and_threads(runner, cache_dir, tmp_path):
    args = ["census", "--sign", "neg", "--checkpoints", "1e11,1e12"]
    outputs = []
    for extra in (
        ["--cache", str(cache_dir / "neg.csv")],
        ["--live"],
        ["--live", "--threads", "8"],
    ):
        out = tmp_path / ("o%d.csv" % len(outputs))
        result = runner.invoke(main, args + extra + ["--out", str(out)])
        assert result.exit_code == 0, result.output
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_census_replay_equals_prefiltered_live(runner, cache_dir, threads):
    # replay is the complete stream, live the admissible subset only
    args = ["census", "--sign", "neg", "--checkpoints", "1e10,1e11,1e12",
            "--mod", "7", "--unram", "2", "--format", "json"]
    replay = runner.invoke(main, args + ["--cache", str(cache_dir / "neg.csv")])
    live = runner.invoke(main, args + ["--live", "--threads", threads])
    assert replay.exit_code == 0, replay.output
    assert live.exit_code == 0, live.output
    assert live.stdout_bytes == replay.stdout_bytes
    assert json.loads(live.output)["rows"][-1]["actual"] > 0


def test_census_histogram_json(runner, cache_dir):
    result = runner.invoke(
        main,
        ["census", "--sign", "neg", "--checkpoints", "1e11", "--mod", "5",
         "--unram", "2,3", "--cache", str(cache_dir / "neg.csv"),
         "--format", "json"],
    )
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["modulus"] == 5
    assert doc["unramified"] == [2, 3]
    row = doc["rows"][0]
    assert sum(row["residues"]) == row["actual"]


def test_census_insufficient_cache_exits_5(runner, cache_dir):
    result = runner.invoke(
        main,
        ["census", "--sign", "neg", "--checkpoints", "1e13",
         "--cache", str(cache_dir / "neg.csv")],
    )
    assert result.exit_code == 5
    # the largest admissible |disc K| below 1e13 is 1825200
    assert "[0, 1825201) is needed" in result.output


def test_census_rejects_tampered_cache(runner, cache_dir, tmp_path):
    body = (cache_dir / "neg.csv").read_text().splitlines(keepends=True)
    body[1] = body[1].replace("-23", "-31", 1)
    bad = tmp_path / "bad.csv"
    bad.write_text("".join(body))
    meta = (cache_dir / "neg.csv.meta.json").read_text()
    (tmp_path / "bad.csv.meta.json").write_text(meta)
    result = runner.invoke(
        main,
        ["census", "--sign", "neg", "--checkpoints", "1e12",
         "--cache", str(bad)],
    )
    assert result.exit_code == 4
    assert "checksum" in result.output


def test_census_wrong_sign_cache(runner, cache_dir):
    result = runner.invoke(
        main,
        ["census", "--sign", "pos", "--checkpoints", "1e12",
         "--cache", str(cache_dir / "neg.csv")],
    )
    assert result.exit_code == 4


def test_enumerate_io_failure_exits_3(runner, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    result = runner.invoke(
        main,
        ["enumerate", "--sign", "pos", "--max-abs-disc", "100",
         "--cache", str(blocker / "x.csv")],
    )
    assert result.exit_code == 3
    assert not (blocker / "x.csv").exists()


def test_usage_errors_exit_2(runner, cache_dir):
    cases = [
        ["census", "--sign", "neg", "--checkpoints", "1.5", "--live"],
        ["census", "--sign", "neg", "--checkpoints", "1e12"],
        ["census", "--sign", "neg", "--checkpoints", "1e12", "--live",
         "--cache", str(cache_dir / "neg.csv")],
        ["census", "--sign", "neg", "--checkpoints", "1e12,1e12", "--live"],
        ["census", "--sign", "neg", "--checkpoints", "1e12", "--live",
         "--unram", "6"],
        ["enumerate", "--sign", "neg", "--max-abs-disc", "0",
         "--cache", "x.csv"],
        ["predict", "--X", "zzz", "--sign", "neg"],
    ]
    for args in cases:
        result = runner.invoke(main, args)
        assert result.exit_code == 2, args


def _cli_env():
    env = dict(os.environ)
    src = str(Path(s3census.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("route", ["--live", "--cache"])
@pytest.mark.parametrize("checkpoint", ["1e300", str(10**24 + 1)])
def test_checkpoint_past_limit_exits_2(runner, cache_dir, route, checkpoint):
    args = ["census", "--sign", "neg", "--checkpoints", checkpoint, route]
    if route == "--cache":
        args.append(str(cache_dir / "neg.csv"))
    result = runner.invoke(main, args)
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit), result.output
    assert "the largest checkpoint must be at most 10^24" in result.output


@pytest.mark.parametrize("args", [
    ["census", "--sign", "neg", "--live", "--checkpoints", "0"],
    ["census", "--sign", "neg", "--live", "--checkpoints", ","],
    ["predict", "--sign", "neg", "--X", "1e5"],
    ["predict", "--sign", "neg", "--X", ","],
    ["predict", "--sign", "neg", "--X", "1e12", "--unram", "2,2"],
    ["census", "--sign", "neg", "--live", "--checkpoints", "1e10", "--unram", "2,2"],
    ["predict", "--sign", "neg", "--X", "1e12", "--unram", "2,3,5,7,11,13,17,19,23,29,31"],
    ["census", "--sign", "pos", "--cubic-ap", "--mod", "1", "--max-abs-disc", "1e3"],
    ["census", "--sign", "pos", "--cubic-ap", "--mod", "5", "--max-abs-disc", "0"],
    *(["census", "--sign", "pos", "--cubic-ap", "--mod", "5", "--max-abs-disc", "1e3",
       *extra] for extra in (["--checkpoints", "1e12"], ["--unram", "2"],
                             ["--cache", "x.csv"], ["--live"], ["--exact"])),
    ["census", "--sign", "neg", "--live", "--checkpoints", "1e10",
     "--max-abs-disc", "1e3"],
    ["census", "--sign", "neg", "--live", "--checkpoints", "1e10", "--exclude-cyclic"],
    ["census", "--sign", "neg", "--live", "--checkpoints", "1000"],
    ["census", "--sign", "neg", "--cache", "{cache}", "--checkpoints", "1000"],
    ["predict", "--X", "1e12", "--sign", "neg", "--mod5", "--unram", "2"],
    ["predict", "--X", "1e12", "--sign", "neg", "--mod5", "--model", "stronger"],
    ["predict", "--X", "1e12", "--sign", "neg", "--mod5", "--model", "main"],
    *(["census", "--sign", "neg", "--live", "--checkpoints", "1e10", "--mod", m]
      for m in ("1000001", "1000000000000")),
    *(["census", "--sign", "pos", "--cubic-ap", "--mod", m, "--max-abs-disc", "1e3"]
      for m in ("1000001", "100000000000")),
    ["predict", "--sign", "neg", "--X", "2e308"],
    ["census", "--sign", "neg", "--live", "--checkpoints", "1e400"],
    # int() of either of the next two alone would run past the timeout
    ["census", "--sign", "neg", "--live", "--checkpoints", "1e100000000"],
    ["predict", "--sign", "neg", "--X", "1e100000000"],
    ["census", "--sign", "neg", "--live", "--checkpoints", "inf"],
    ["predict", "--sign", "neg", "--X", "snan"],
    # |disc| is int64, so a bound past 2^63 is refused before any window is built
    ["enumerate", "--sign", "neg", "--max-abs-disc", "1e30", "--cache", "x.csv"],
    ["census", "--sign", "pos", "--cubic-ap", "--mod", "7", "--max-abs-disc", "1e30"],
    *([*cmd, "--threads", k]
      for cmd in (["enumerate", "--sign", "neg", "--max-abs-disc", "1e3", "--cache", "x.csv"],
                  ["census", "--sign", "neg", "--live", "--checkpoints", "1e10"],
                  ["repro", "--table", "pos-desk"])
      for k in ("0", "65")),
], ids=["checkpoint 0", "no checkpoints", "bound below 1e6", "predict no bounds",
        "duplicate unram", "census duplicate unram", "predict 11 unram primes",
        "cubic-ap mod 1", "cubic-ap bound 0", "cubic-ap checkpoints",
        "cubic-ap unram", "cubic-ap cache", "cubic-ap live", "cubic-ap exact",
        "max-abs-disc without cubic-ap", "exclude-cyclic without cubic-ap",
        "census checkpoint below 1e6 live", "census checkpoint below 1e6 cache",
        "mod5 unram", "mod5 model stronger", "mod5 model main",
        "census mod past cap", "census mod 1e12", "cubic-ap mod past cap",
        "cubic-ap mod 1e11", "predict bound past float range",
        "census checkpoint past float range", "census checkpoint 1e100000000",
        "predict bound 1e100000000", "census checkpoint inf", "predict bound snan",
        "enumerate bound past int64", "cubic-ap bound past int64",
        *("%s threads %s" % (cmd, k) for cmd in ("enumerate", "census", "repro")
          for k in ("0", "65"))])
def test_rejected_values_exit_2_without_traceback(args, cache_dir):
    args = [a.replace("{cache}", str(cache_dir / "neg.csv")) for a in args]
    out = subprocess.run([sys.executable, "-m", "s3census.cli", *args], env=_cli_env(),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stdout + out.stderr


@pytest.mark.parametrize("args", [
    ["census", "--sign", "neg", "--live", "--checkpoints", "1e10", "--mod", "1000000"],
    ["census", "--sign", "pos", "--cubic-ap", "--mod", "1000000", "--max-abs-disc", "1e3"],
], ids=["census", "cubic-ap"])
def test_modulus_at_the_cap_is_accepted(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert len(result.output.splitlines()[-1].split(",")) > 10**6


@pytest.mark.parametrize("args", [
    ["census", "--sign", "pos", "--live", "--checkpoints", "1e10"],
    ["predict", "--sign", "neg", "--X", "1e12"],
    ["repro", "--table", "mod5-predicted"],
    ["verify"],
], ids=["census", "predict", "repro", "verify"])
def test_out_write_failure_exits_3_without_traceback(args, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = subprocess.run([sys.executable, "-m", "s3census.cli", *args,
                          "--out", str(blocker / "out.txt")], env=_cli_env(),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 3, out.stderr
    assert "cannot write output" in out.stderr
    assert "Traceback" not in out.stdout + out.stderr


def test_predict_rounded_values(runner):
    result = runner.invoke(
        main, ["predict", "--X", "1e23", "--sign", "neg", "--model", "strong"]
    )
    assert result.exit_code == 0
    assert "rounded=16468453" in result.output
    result = runner.invoke(
        main, ["predict", "--X", "1e23", "--sign", "neg", "--model", "stronger"]
    )
    assert "rounded=16421298" in result.output
    result = runner.invoke(
        main, ["predict", "--X", "1e12,1e13", "--sign", "pos",
               "--model", "stronger", "--format", "json"]
    )
    doc = json.loads(result.output)
    assert [row["rounded"] for row in doc["rows"]] == [709, 1682]


def test_predict_mod5_quintuples(runner):
    result = runner.invoke(
        main, ["predict", "--X", "1e20,3e23", "--sign", "neg", "--mod5",
               "--format", "json"]
    )
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["rows"][0]["mod5_rounded"] == [122687] + [96553] * 4
    assert doc["rows"][1]["mod5_rounded"] == [1824995] + [1437452] * 4
    strong = runner.invoke(
        main, ["predict", "--X", "1e20,3e23", "--sign", "neg", "--mod5",
               "--model", "strong", "--format", "json"]
    )
    assert strong.exit_code == 0 and strong.output == result.output


def test_predict_conditioned(runner):
    result = runner.invoke(
        main, ["predict", "--X", "1e16", "--sign", "neg", "--unram", "2,3",
               "--format", "json"]
    )
    doc = json.loads(result.output)
    base = runner.invoke(
        main, ["predict", "--X", "1e16", "--sign", "neg", "--format", "json"]
    )
    assert doc["rows"][0]["rounded"] < json.loads(base.output)["rows"][0]["rounded"]


@pytest.mark.parametrize("unram,message", [
    ("2,2", "--unram repeats 2"),
    ("4", "filter entries must be prime, got 4"),
    ("2,3,5,7,11,13,17,19,23,29,31", "at most 10 filter primes"),
])
def test_census_and_predict_share_the_unram_rule(runner, unram, message):
    for args in (["census", "--sign", "neg", "--live", "--checkpoints", "1e10"],
                 ["predict", "--sign", "neg", "--X", "1e12"]):
        result = runner.invoke(main, [*args, "--unram", unram])
        assert result.exit_code == 2, result.output
        assert message in result.output, result.output


def test_cubic_ap_command(runner):
    result = runner.invoke(
        main,
        ["census", "--sign", "pos", "--cubic-ap", "--mod", "5",
         "--max-abs-disc", "2e6"],
    )
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    cells = lines[1].split(",")
    assert cells[3] == "cyclic included"
    assert tuple(int(v) for v in cells[5:]) == ref.CUBIC_AP_MOD5
    excl = runner.invoke(
        main,
        ["census", "--sign", "pos", "--cubic-ap", "--mod", "5",
         "--max-abs-disc", "2e6", "--exclude-cyclic", "--format", "json"],
    )
    doc = json.loads(excl.output)
    assert doc["total"] == ref.CUBIC_AP_TOTAL - ref.CUBIC_AP_CYCLIC
    assert doc["convention"] == "cyclic excluded"


def test_repro_small_tables(runner, tmp_path):
    result = runner.invoke(
        main, ["repro", "--table", "cubic-ap-7", "--out", str(tmp_path / "ap7.csv")]
    )
    assert result.exit_code == 0
    row = (tmp_path / "ap7.csv").read_text().splitlines()[1]
    assert tuple(int(v) for v in row.split(",")[5:]) == ref.CUBIC_AP_MOD7

    result = runner.invoke(main, ["repro", "--table", "mod5-predicted"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[1] == "100000000000000000000,122687,96553"
    assert lines[2] == "300000000000000000000000,1824995,1437452"

    result = runner.invoke(main, ["repro", "--table", "predictions-neg"])
    rows = {}
    for line in result.output.splitlines()[1:]:
        x, strong, stronger = (int(v) for v in line.split(","))
        rows[x] = (strong, stronger)
    binding = {10**e for e in ref.BINDING_EXPONENTS}
    for x, strong, stronger in zip(
        ref.NEG_BOUNDS, ref.NEG_TWO_TERM, ref.NEG_TAIL_CORRECTED
    ):
        got = rows[x]
        if x in binding:
            assert got == (strong, stronger), x
        else:
            assert abs(got[0] - strong) <= 1 and abs(got[1] - stronger) <= 1, x


def test_repro_desk_table_positive(runner):
    result = runner.invoke(main, ["repro", "--table", "pos-desk", "--threads", "2"])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert lines[1] == "1000000000000,690,756,709,0.031"
    assert lines[2] == "10000000000000,1650,1762,1682,0.027"
    assert lines[3] == "100000000000000,3848,4045,3910,0.025"


# ------------------------------------------------------------- cache codec


def _reference_lines(batch: WindowBatch) -> list[str]:
    """The per-record formatter the column codec replaced, kept as its oracle."""
    lines = []
    ptr = batch.prof_ptr
    for i in range(batch.size):
        tags = ";".join(
            "%d:%d:%s" % (batch.prof_p[j], batch.prof_e[j],
                          "T" if batch.prof_total[j] else "P")
            for j in range(ptr[i], ptr[i + 1])
        )
        a, b, c, d = batch.coeffs[i]
        lines.append(
            "%d,%d,%d,%d,%d,%d,%s" % (a, b, c, d, batch.disc[i],
                                      int(batch.cyclic[i]), tags)
        )
    return lines


def _reference_bytes(batch: WindowBatch) -> bytes:
    return "".join(line + "\n" for line in _reference_lines(batch)).encode()


def _assert_same_coeffs(got: np.ndarray, want: WindowBatch) -> None:
    """Replay reads only a, b, c and d of each line."""
    assert got.dtype == want.coeffs.dtype and got.shape == want.coeffs.shape
    assert np.array_equal(got, want.coeffs)


_INT64 = st.one_of(st.integers(-999, 999), st.integers(-(2**63), 2**63 - 1))


@st.composite
def window_batches(draw):
    """Random batches: any int64 values, zero to four profile pairs a row."""
    n = draw(st.integers(min_value=0, max_value=40))
    counts = draw(arrays(np.int64, n, elements=st.integers(0, 4)))
    pairs = int(counts.sum())
    return WindowBatch(
        draw(arrays(np.int64, (n, 4), elements=_INT64)),
        draw(arrays(np.int64, n, elements=_INT64)),
        draw(arrays(bool, n)),
        np.concatenate(([0], np.cumsum(counts))),
        draw(arrays(np.int64, pairs, elements=_INT64)),
        draw(arrays(np.int64, pairs, elements=_INT64)),
        draw(arrays(bool, pairs)),
    )


@given(batch=window_batches(), slice_rows=st.sampled_from((1, 2, 3, 7, 65536)))
@settings(max_examples=200, deadline=None)
def test_codec_matches_reference_and_round_trips(batch, slice_rows):
    with mock.patch.object(cli, "_SLICE_ROWS", slice_rows):
        encoded = cli._encode_batch(batch)
    body = b"".join(encoded.blocks)
    assert len(encoded) == batch.size
    assert len(encoded.blocks) == -(-batch.size // slice_rows)
    assert body == _reference_bytes(batch)
    _assert_same_coeffs(cli._parse_rows(body), batch)


def test_codec_edge_values():
    top = 2**63 - 1
    batch = WindowBatch(
        np.array([[0, 0, 0, 0], [-top, top, -1, 1], [-(2**63), 10, -10, 9]],
                 dtype=np.int64),
        np.array([0, -top, top], dtype=np.int64),
        np.array([False, True, False]),
        np.array([0, 0, 3, 3], dtype=np.int64),
        np.array([top, 2, -5], dtype=np.int64),
        np.array([1, -top, 0], dtype=np.int64),
        np.array([True, False, True]),
    )
    assert cli._encode_batch(batch).blocks == [_reference_bytes(batch)]
    _assert_same_coeffs(cli._parse_rows(_reference_bytes(batch)), batch)
    empty = cli._encode_batch(cli._row_slice(batch, 0, 0))
    assert (len(empty), empty.blocks) == (0, [])


def test_decode_batches_keep_their_boundaries(cache_dir, monkeypatch):
    """Replay yields one batch per codec slice, and the batches encode back
    to the cache body in order."""
    body = (cache_dir / "neg.csv").read_bytes()
    rows = body[body.index(b"\n") + 1 :]
    batches = list(_load_cache(cache_dir / "neg.csv", -1)[0])
    assert [b.size for b in batches] == [65536, 42578]
    assert b"".join(cli._encode_rows(b) for b in batches) == rows
    monkeypatch.setattr(cli, "_SLICE_ROWS", 25000)
    batches = list(_load_cache(cache_dir / "neg.csv", -1)[0])
    assert [b.size for b in batches] == [25000] * 4 + [8114]
    assert b"".join(cli._encode_rows(b) for b in batches) == rows


def _edit_line(n, old, new):
    def edit(body, meta):
        lines = body.split(b"\n")
        assert old in lines[n], lines[n]
        lines[n] = lines[n].replace(old, new, 1)
        return b"\n".join(lines), meta
    return edit


def _drop_key(key):
    def edit(body, meta):
        return body, {k: v for k, v in meta.items() if k != key}
    return edit


def _set_key(key, value):
    def edit(body, meta):
        return body, dict(meta, **{key: value})
    return edit


_MALFORMED = {
    "cyclic flag x": _edit_line(1, b",0,", b",x,"),
    "eighth field": _edit_line(1, b":P", b":P,5"),
    "non-digit token": _edit_line(1, b"-23,", b"-2.3,"),
    "lone minus": _edit_line(1, b"-23,", b"-,"),
    "leading zero": _edit_line(1, b"-23,", b"-023,"),
    "tag kind digit": _edit_line(1, b":P", b":0"),
    "tag without exponent": _edit_line(1, b"23:1:P", b"23:P"),
    "overflow": _edit_line(1, b"-23,", b"-99999999999999999999,"),
    # rows that encode canonically but whose profile does not factor |disc|
    "no profile": _edit_line(1, b",23:1:P", b","),
    "wrong exponent": _edit_line(1, b"23:1:P", b"23:2:P"),
    "prime 1": _edit_line(1, b"23:1:P", b"1:1:P;23:1:P"),
    "exponent 0": _edit_line(1, b"23:1:P", b"23:1:P;29:0:P"),
    "descending primes": _edit_line(7, b"3:1:P;29:1:P", b"29:1:P;3:1:P"),
    "product past int64": _edit_line(1, b"23:1:P", b"23:1:P;29:99:P"),
    # rows whose disc or profile is not what their form gives, or whose
    # form is outside the sign's region or the sidecar's range
    "composite prime": _edit_line(10, b"2:2:T;3:3:T", b"4:1:P;27:1:P"),
    "disc not its form's": _edit_line(10, b"-108,0,2:2:T;3:3:T", b"-111,0,3:1:P;37:1:P"),
    "positive disc": _edit_line(1, b"-23,", b"23,"),
    "row at sidecar upper": _set_key("upper", 599999),
    "row past sidecar upper": _edit_line(-2, b"7,4,25,17,-599999,0,599999:1:P",
                                         b"13,8,10,13,-600011,0,600011:1:P"),
    "no trailing newline": lambda body, meta: (body[:-1], meta),
    "sidecar not json": lambda body, meta: (body, "{not json"),
    "sidecar missing lower": _drop_key("lower"),
    "sidecar missing upper": _drop_key("upper"),
    "sidecar missing records": _drop_key("records"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_cache_exits_4(runner, cache_dir, tmp_path, case):
    body = (cache_dir / "neg.csv").read_bytes()
    meta = json.loads((cache_dir / "neg.csv.meta.json").read_text())
    assert body.split(b"\n")[1] == b"1,-1,2,-1,-23,0,23:1:P"
    body, meta = _MALFORMED[case](body, meta)
    bad = tmp_path / "bad.csv"
    bad.write_bytes(body)
    if isinstance(meta, dict):
        meta = json.dumps(dict(meta, sha256=hashlib.sha256(body).hexdigest()))
    (tmp_path / "bad.csv.meta.json").write_text(meta)
    result = runner.invoke(
        main,
        ["census", "--sign", "neg", "--checkpoints", "1e12", "--cache", str(bad)],
    )
    assert result.exit_code == 4, (result.exit_code, result.output)
    assert str(bad) in result.output
    assert "X,actual" not in result.output


def _neg_1000_cache(runner, tmp_path):
    """The lines of a fresh `enumerate --sign neg --max-abs-disc 1000` cache."""
    cache = tmp_path / "neg.csv"
    result = runner.invoke(main, ["enumerate", "--sign", "neg", "--max-abs-disc", "1000",
                                  "--cache", str(cache)])
    assert result.exit_code == 0, result.output
    lines = cache.read_bytes().split(b"\n")
    assert len(lines) == 129 and lines[1] == b"1,-1,2,-1,-23,0,23:1:P"
    return cache, lines


def _rewrite_cache(cache, lines):
    """Write lines as the cache, with a sidecar whose records and sha256 match."""
    body = b"\n".join(lines)
    cache.write_bytes(body)
    sidecar = cache.with_name(cache.name + ".meta.json")
    meta = json.loads(sidecar.read_text())
    meta.update(records=body.count(b"\n") - 1, sha256=hashlib.sha256(body).hexdigest())
    sidecar.write_text(json.dumps(meta))


def test_unfactored_profile_names_its_line(runner, tmp_path):
    """Line 48 of the |disc| < 1000 neg cache is -431 with profile 431:1:P.
    Blanked, it still encodes canonically, and a replay that read it would
    take F = -4 and count 17 fields below 1e6 instead of 16."""
    cache, lines = _neg_1000_cache(runner, tmp_path)
    assert lines[47] == b"2,1,3,2,-431,0,431:1:P"
    lines[47] = b"2,1,3,2,-431,0,"
    _rewrite_cache(cache, lines)
    result = runner.invoke(
        main, ["census", "--sign", "neg", "--checkpoints", "1e6", "--cache", str(cache)])
    assert result.exit_code == 4, result.output
    assert "line 48 is not a cache record: '2,1,3,2,-431,0,'" in result.output


@pytest.mark.parametrize("slice_rows", [65536, 1])
def test_repeated_line_names_its_line(runner, tmp_path, monkeypatch, slice_rows):
    """Line 2 of the |disc| < 1000 neg cache (-23) repeated after itself keeps
    |disc| ascending, within one slice or as the first line of the next, and
    a replay that read it would count 17 fields below 1e6 instead of 16."""
    cache, lines = _neg_1000_cache(runner, tmp_path)
    lines.insert(2, lines[1])
    _rewrite_cache(cache, lines)
    monkeypatch.setattr(cli, "_SLICE_ROWS", slice_rows)
    result = runner.invoke(
        main, ["census", "--sign", "neg", "--checkpoints", "1e6", "--cache", str(cache)])
    assert result.exit_code == 4, result.output
    assert "line 3 is not a cache record: '1,-1,2,-1,-23,0,23:1:P'" in result.output


def test_replay_slices_ascend(runner, cache_dir, tmp_path, monkeypatch):
    """With 8-record slices, lines 9 (-104) and 10 (-107) swapped leave each
    slice ascending, but the second starts below the first's last |disc|."""
    lines = (cache_dir / "neg.csv").read_bytes().split(b"\n")
    lines[8], lines[9] = lines[9], lines[8]
    body = b"\n".join(lines)
    bad = tmp_path / "bad.csv"
    bad.write_bytes(body)
    meta = json.loads((cache_dir / "neg.csv.meta.json").read_text())
    meta["sha256"] = hashlib.sha256(body).hexdigest()
    (tmp_path / "bad.csv.meta.json").write_text(json.dumps(meta))
    monkeypatch.setattr(cli, "_SLICE_ROWS", 8)
    result = runner.invoke(
        main, ["census", "--sign", "neg", "--checkpoints", "1e12", "--cache", str(bad)])
    assert result.exit_code == 4, result.output
    assert "line 10 is not a cache record: '2,-2,3,-1,-104,0,2:3:P;13:1:P'" in result.output


def test_verify_resolvent_mismatch_exits_4(runner, monkeypatch):
    # the oracle comparison is stubbed out; it is not what this test is about
    monkeypatch.setattr(cli, "brute_force_enumerate", lambda bound, sign: [])
    monkeypatch.setattr(cli, "enumerate_fields", lambda rng, sign: iter(()))
    honest = cli.fundamental_discriminant
    monkeypatch.setattr(cli, "fundamental_discriminant", lambda d: honest(d) + 1)
    result = runner.invoke(main, ["verify"])
    assert result.exit_code == 4, result.output
    doc = json.loads(result.output)
    checks = {c["name"]: c for c in doc["checks"]}
    assert doc["pass"] is False
    assert checks["resolvent_dual_route"]["pass"] is False
    assert "mismatches" in checks["resolvent_dual_route"]["detail"]
    assert [c["name"] for c in doc["checks"] if not c["pass"]] == ["resolvent_dual_route"]


def _under_both_interpreters(args):
    """(exit code, stdout, stderr) of the CLI under `python` and `python -O`, run at once."""
    procs = [
        subprocess.Popen([sys.executable, *flags, "-m", "s3census.cli", *args],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env())
        for flags in ([], ["-O"])
    ]
    return [(p.returncode, *outs) for p, outs in
            zip(procs, [p.communicate(timeout=300) for p in procs])]


def test_optimised_interpreter_same_output(cache_dir):
    """`python -O` strips asserts; verify and cache replay must not change."""
    def both(args):
        runs = _under_both_interpreters(args)
        for code, _, err in runs:
            assert code == 0, err
        assert runs[0][1] == runs[1][1]
        return runs[1][1].decode()

    doc = json.loads(both(["verify"]))
    spot = {c["name"]: c["detail"] for c in doc["checks"]}["resolvent_dual_route"]
    assert doc["pass"] is True and int(spot.split()[0]) > 0
    replay = both(["census", "--sign", "neg", "--checkpoints", "1e11,1e12",
                   "--mod", "5", "--cache", str(cache_dir / "neg.csv")])
    assert replay.splitlines()[2].startswith("1000000000000,2809,")


# --------------------------------------------------- forms that are no field


@pytest.fixture(scope="module")
def small_caches(tmp_path_factory, runner):
    """Fresh caches of `enumerate --sign neg --max-abs-disc 6000` and `--sign pos ... 20000`."""
    root = tmp_path_factory.mktemp("small")
    for sign, bound in (("neg", "6000"), ("pos", "20000")):
        result = runner.invoke(main, ["enumerate", "--sign", sign, "--max-abs-disc", bound,
                                      "--cache", str(root / (sign + ".csv"))])
        assert result.exit_code == 0, result.output
    return root


def _cache_with_line(small_caches, tmp_path, sign, line):
    """A copy of the sign's small cache with `line` inserted at its (|disc|, a, b, c, d)
    place, and the inserted line's number."""
    def key(text):
        a, b, c, d, disc = map(int, text.split(b",")[:5])
        return abs(disc), a, b, c, d

    lines = (small_caches / (sign + ".csv")).read_bytes().split(b"\n")
    at = 1 + bisect.bisect(lines[1:-1], key(line), key=key)
    lines.insert(at, line)
    cache = tmp_path / (sign + ".csv")
    sidecar = sign + ".csv.meta.json"
    (tmp_path / sidecar).write_bytes((small_caches / sidecar).read_bytes())
    _rewrite_cache(cache, lines)
    return cache, at + 1


_CONE_MATE = b"1,3,-3,-3,756,0,2:2:T;3:3:T;7:1:P"

# Lines that encode canonically from their form (disc, cyclic flag, profile)
# but whose form is not a field's canonical form.  A replay that skipped the
# window build's filters would count the first three (92 neg or 17 pos fields
# below 1e8 instead of 91 or 16) and fail a cross-check on the last two.
_NOT_A_FIELD = {
    "not maximal at 3": ("neg", b"1,-3,6,-9,-783,0,3:3:T;29:1:P"),
    "content 3": ("neg", b"3,-3,6,-3,-1863,0,3:4:T;23:1:P"),
    # after its orbit's lex-min cone form 1,0,-6,-2
    "cone mate not lex-min": ("pos", _CONE_MATE),
    "not maximal at 2": ("neg", b"1,-3,2,-4,-428,0,2:2:P;107:1:P"),
    "reducible": ("neg", b"2,-3,6,-5,-1404,0,2:2:P;3:3:T;13:1:P"),
}


@pytest.mark.parametrize("case", list(_NOT_A_FIELD))
def test_form_of_no_field_names_its_line(runner, small_caches, tmp_path, case):
    sign, line = _NOT_A_FIELD[case]
    cache, number = _cache_with_line(small_caches, tmp_path, sign, line)
    result = runner.invoke(
        main, ["census", "--sign", sign, "--checkpoints", "1e8", "--cache", str(cache)])
    assert result.exit_code == 4, result.output
    assert "line %d is not a cache record: '%s'" % (number, line.decode()) in result.output
    assert "X,actual" not in result.output


def test_optimised_interpreter_refuses_a_cone_mate(small_caches, tmp_path):
    """The refusal comes from the window build's explicit checks, not from asserts."""
    cache, number = _cache_with_line(small_caches, tmp_path, "pos", _CONE_MATE)
    runs = _under_both_interpreters(
        ["census", "--sign", "pos", "--checkpoints", "1e8", "--cache", str(cache)])
    for code, out, err in runs:
        assert code == 4, err
        assert out == b""
        assert ("line %d is not a cache record: '%s'" % (number, _CONE_MATE.decode())
                in err.decode())
