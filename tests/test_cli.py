import json
from pathlib import Path

import pytest
from click.testing import CliRunner

import reference_tables as ref
from s3census.cli import _load_cache, main
from s3census.enumeration import EnumerationRange, enumerate_fields, iter_batches


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


def test_enumerate_deterministic_across_threads(runner, cache_dir, tmp_path):
    for k in ("1", "3"):
        result = runner.invoke(
            main,
            ["enumerate", "--sign", "neg", "--max-abs-disc", "600000",
             "--cache", str(tmp_path / f"neg{k}.csv"), "--threads", k],
        )
        assert result.exit_code == 0
    base = (cache_dir / "neg.csv").read_bytes()
    assert (tmp_path / "neg1.csv").read_bytes() == base
    assert (tmp_path / "neg3.csv").read_bytes() == base


def test_cache_round_trip_exact(cache_dir):
    batches, covered, n = _load_cache(cache_dir / "neg.csv", -1)
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
    assert "1825742" in result.output


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
