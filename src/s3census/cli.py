"""Command line surface: caches, tables, predictions, and verification.

Subcommands
-----------
enumerate  sweep a discriminant range into a CSV cache plus a JSON sidecar
census     checkpoint tables: counts, predictions, error column, histograms
predict    model values at chosen bounds, including the mod-5 breakdown
verify     brute-force oracle equivalence and the numeric identity suite
repro      regenerate each comparison table with a single invocation

Exit codes: 0 success, 2 usage error, 3 I/O failure, 4 verification
failure, 5 insufficient enumeration range.

Every output is deterministic for a given configuration.  Caches and
reports carry no timestamps, floats print in shortest round-trip form,
integers in full decimal, and threaded runs merge partition results in
partition order, so the bytes never depend on the thread count.  Files
are written to a temporary name and renamed into place; a crash can only
leave a `.tmp.` file behind, never a truncated final artifact.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal, InvalidOperation
from pathlib import Path

import click
import numpy as np

from .census import (
    CensusFilter,
    CensusReport,
    InsufficientRangeError,
    build_report,
    cubic_ap_histogram,
    format_error,
    live_accumulation,
)
from .enumeration import (
    EnumerationRange,
    WindowBatch,
    brute_force_enumerate,
    enumerate_fields,
    factor_table,
    iter_batches,
    partition,
    subset_batch,
)
from .local_analysis import ALL_TYPES, UNRAMIFIED, _is_prime
from .predictor import (
    MODEL_MAIN,
    MODEL_TAIL_CORRECTED,
    MODEL_TWO_TERM,
    REFERENCE_CONSTANTS,
    TERM_SECONDARY,
    TERM_ZETA2_KERNEL,
    LocalCondition,
    PredictionModel,
    euler_product,
    exact_constants,
    local_factor,
    main_density,
    mod5_prediction,
    nearest_count,
    predict,
    riemann_zeta,
    secondary_density,
)
from .sextic import fundamental_discriminant, resolvent_vec

EXIT_IO = 3
EXIT_VERIFY = 4
EXIT_RANGE = 5

CACHE_FORMAT_VERSION = 1
CACHE_HEADER = "a,b,c,d,disc_k,cyclic,ram_profile"
REPORT_HEADER = ("X", "actual", "pred_strong", "pred_stronger", "error_strong")

_SIGN_FLAGS = {"pos": 1, "neg": -1}
_SIGN_NAMES = {1: "pos", -1: "neg"}
_MODEL_FLAGS = {
    "main": MODEL_MAIN,
    "strong": MODEL_TWO_TERM,
    "stronger": MODEL_TAIL_CORRECTED,
}
_CACHE_BATCH_ROWS = 500_000


def _parse_exact_int(text: str) -> int:
    """Exact integer from decimal or scientific notation ('1e12', '12167')."""
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise click.BadParameter("not a number: %r" % text)
    if value != value.to_integral_value():
        raise click.BadParameter("not an integer: %r" % text)
    return int(value)


def _parse_int_list(text: str) -> list[int]:
    return [_parse_exact_int(part) for part in text.split(",") if part]


def _fail(code: int, message: str):
    click.echo("error: %s" % message, err=True)
    sys.exit(code)


def _write_atomic(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".tmp.", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _emit(out: str | None, text: str) -> None:
    if out is None:
        click.echo(text, nl=False)
    else:
        _write_atomic(Path(out), text.encode())


# cache encoding: one record per line, profile tags as p:e:T or p:e:P
# joined with ';' (empty for unramified everywhere, which cannot happen
# for a field discriminant but keeps the format total)


def _encode_batch(batch: WindowBatch) -> list[str]:
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


def _encode_range(rng: EnumerationRange, sign: int) -> list[str]:
    lines = []
    for batch in iter_batches(rng, sign):
        lines.extend(_encode_batch(batch))
    return lines


def _sidecar_path(cache: Path) -> Path:
    return cache.with_name(cache.name + ".meta.json")


def _load_cache(cache: Path, sign: int):
    """Parsed cache as (batch iterator, covered range, record count)."""
    meta_path = _sidecar_path(cache)
    try:
        meta = json.loads(meta_path.read_text())
        body = cache.read_bytes()
    except OSError as exc:
        _fail(EXIT_IO, "cannot read cache: %s" % exc)
    if meta.get("format_version") != CACHE_FORMAT_VERSION:
        _fail(EXIT_VERIFY, "unsupported cache format version")
    if meta.get("sha256") != hashlib.sha256(body).hexdigest():
        _fail(EXIT_VERIFY, "cache checksum mismatch: %s" % cache)
    if meta.get("sign") != _SIGN_NAMES[sign]:
        _fail(EXIT_VERIFY, "cache holds sign=%s records" % meta.get("sign"))
    covered = EnumerationRange(int(meta["lower"]), int(meta["upper"]))
    lines = body.decode().splitlines()
    if not lines or lines[0] != CACHE_HEADER:
        _fail(EXIT_VERIFY, "cache header mismatch: %s" % cache)
    rows = lines[1:]
    if len(rows) != int(meta["records"]):
        _fail(EXIT_VERIFY, "cache record count mismatch: %s" % cache)
    return _batches_from_rows(rows), covered, len(rows)


def _batches_from_rows(rows):
    for start in range(0, len(rows), _CACHE_BATCH_ROWS):
        chunk = rows[start : start + _CACHE_BATCH_ROWS]
        n = len(chunk)
        coeffs = np.empty((n, 4), dtype=np.int64)
        disc = np.empty(n, dtype=np.int64)
        cyclic = np.empty(n, dtype=bool)
        counts = np.empty(n, dtype=np.int64)
        pp, pe, pt = [], [], []
        for i, line in enumerate(chunk):
            a, b, c, d, dk, cy, tags = line.split(",")
            coeffs[i] = (int(a), int(b), int(c), int(d))
            disc[i] = int(dk)
            cyclic[i] = cy == "1"
            pairs = tags.split(";") if tags else []
            counts[i] = len(pairs)
            for tag in pairs:
                p, e, kind = tag.split(":")
                pp.append(int(p))
                pe.append(int(e))
                pt.append(kind == "T")
        ptr = np.concatenate(([0], np.cumsum(counts)))
        yield WindowBatch(
            coeffs,
            disc,
            cyclic,
            ptr,
            np.array(pp, dtype=np.int64),
            np.array(pe, dtype=np.int64),
            np.array(pt, dtype=bool),
        )


@click.group()
def main():
    """Cubic fields by discriminant and their sextic twin statistics."""


@main.command("enumerate")
@click.option("--sign", type=click.Choice(sorted(_SIGN_FLAGS)), required=True)
@click.option("--max-abs-disc", "bound", required=True,
              help="enumerate fields with |disc| below this (exact integer)")
@click.option("--cache", "cache_path", required=True, type=click.Path(),
              help="output CSV path; a .meta.json sidecar is written next to it")
@click.option("--threads", default=1, show_default=True)
def cmd_enumerate(sign, bound, cache_path, threads):
    """Write the discriminant-range cache and its metadata sidecar."""
    upper = _parse_exact_int(bound)
    if upper < 1:
        raise click.BadParameter("--max-abs-disc must be positive")
    if threads < 1:
        raise click.BadParameter("--threads must be positive")
    signum = _SIGN_FLAGS[sign]
    rng = EnumerationRange(0, upper)
    factor_table(rng)  # sieved once, before the partitions share it
    pieces = partition(rng, threads)
    if threads == 1:
        blocks = [_encode_range(pieces[0], signum)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(lambda piece: _encode_range(piece, signum), pieces))
    lines = [CACHE_HEADER]
    for block in blocks:
        lines.extend(block)
    body = ("\n".join(lines) + "\n").encode()
    meta = {
        "format_version": CACHE_FORMAT_VERSION,
        "sign": sign,
        "lower": rng.lower,
        "upper": rng.upper,
        "records": len(lines) - 1,
        "sha256": hashlib.sha256(body).hexdigest(),
    }
    cache = Path(cache_path)
    try:
        _write_atomic(cache, body)
        _write_atomic(
            _sidecar_path(cache),
            (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode(),
        )
    except OSError as exc:
        _fail(EXIT_IO, "cannot write cache: %s" % exc)
    click.echo("wrote %d records to %s" % (meta["records"], cache))


def _census_filter(sign, unram, mod):
    try:
        return CensusFilter(
            sign=_SIGN_FLAGS[sign],
            unramified=tuple(unram),
            modulus=mod,
        )
    except ValueError as exc:
        raise click.BadParameter(str(exc))


def _report_csv(report: CensusReport) -> str:
    header = list(REPORT_HEADER)
    m = report.filt.modulus
    if report.histogram is not None:
        header += ["res_%d" % r for r in range(m)]
    rows = [",".join(header)]
    strong = report.predicted.get(MODEL_TWO_TERM)
    stronger = report.predicted.get(MODEL_TAIL_CORRECTED)
    for i, x in enumerate(report.checkpoints):
        cells = [
            str(x),
            str(report.actual[i]),
            str(strong[i]) if strong is not None else "",
            str(stronger[i]) if stronger is not None else "",
            format_error(report.errors[i]) if report.errors else "",
        ]
        if report.histogram is not None:
            cells += [str(v) for v in report.histogram[i]]
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


def _report_json(report: CensusReport) -> str:
    rows = []
    for i, x in enumerate(report.checkpoints):
        row = {
            "X": x,
            "actual": report.actual[i],
            "pred_strong": report.predicted.get(MODEL_TWO_TERM, (None,) * (i + 1))[i],
            "pred_stronger": report.predicted.get(
                MODEL_TAIL_CORRECTED, (None,) * (i + 1)
            )[i],
            "error_strong": format_error(report.errors[i]) if report.errors else None,
        }
        if report.histogram is not None:
            row["residues"] = list(report.histogram[i])
        rows.append(row)
    doc = {
        "sign": _SIGN_NAMES[report.filt.sign],
        "unramified": list(report.filt.unramified),
        "modulus": report.filt.modulus,
        "rows": rows,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _cubic_ap_csv(result) -> str:
    header = ["modulus", "bound", "sign", "convention", "total"]
    header += ["res_%d" % r for r in range(result.modulus)]
    cells = [
        str(result.modulus),
        str(result.bound),
        _SIGN_NAMES[result.sign],
        result.convention,
        str(result.total),
    ]
    cells += [str(v) for v in result.counts]
    return ",".join(header) + "\n" + ",".join(cells) + "\n"


def _cubic_ap_json(result) -> str:
    doc = {
        "modulus": result.modulus,
        "bound": result.bound,
        "sign": _SIGN_NAMES[result.sign],
        "convention": result.convention,
        "counts": list(result.counts),
        "total": result.total,
        "cyclic_seen": result.cyclic_seen,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@main.command("census")
@click.option("--sign", type=click.Choice(sorted(_SIGN_FLAGS)), required=True)
@click.option("--checkpoints", "--X", "checkpoints", default=None,
              help="comma-separated bounds, e.g. 1e12,1e13,1e14")
@click.option("--mod", type=int, default=None,
              help="histogram modulus for the sextic discriminant")
@click.option("--unram", default="",
              help="comma-separated primes required unramified, e.g. 2,3")
@click.option("--cache", "cache_path", type=click.Path(), default=None,
              help="replay a cache written by the enumerate command")
@click.option("--live", is_flag=True, help="enumerate on the fly instead")
@click.option("--cubic-ap", is_flag=True,
              help="histogram cubic field discriminants instead of sextic ones")
@click.option("--max-abs-disc", "bound", default=None,
              help="cubic discriminant bound (only with --cubic-ap)")
@click.option("--exclude-cyclic", is_flag=True,
              help="drop cyclic fields from the cubic histogram")
@click.option("--exact", is_flag=True,
              help="evaluate constants from scratch instead of pinned values")
@click.option("--threads", default=1, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--out", type=click.Path(), default=None,
              help="output path (stdout when omitted)")
def cmd_census(sign, checkpoints, mod, unram, cache_path, live, cubic_ap,
               bound, exclude_cyclic, exact, threads, fmt, out):
    """Tabulate counts against predictions, or residue histograms."""
    if threads < 1:
        raise click.BadParameter("--threads must be positive")
    signum = _SIGN_FLAGS[sign]

    if cubic_ap:
        if mod is None or bound is None:
            raise click.BadParameter("--cubic-ap needs --mod and --max-abs-disc")
        result = cubic_ap_histogram(
            mod,
            _parse_exact_int(bound),
            include_cyclic=not exclude_cyclic,
            sign=signum,
        )
        _emit(out, _cubic_ap_csv(result) if fmt == "csv" else _cubic_ap_json(result))
        return

    if checkpoints is None:
        raise click.BadParameter("--checkpoints is required")
    cps = _parse_int_list(checkpoints)
    if cps != sorted(set(cps)):
        raise click.BadParameter("checkpoints must be strictly increasing")
    if (cache_path is None) == (not live):
        raise click.BadParameter("choose exactly one of --cache and --live")
    filt = _census_filter(sign, _parse_int_list(unram), mod)
    constants = exact_constants() if exact else REFERENCE_CONSTANTS
    try:
        if live:
            accumulated = live_accumulation(cps, filt, threads)
            report = build_report(cps, filt, constants=constants,
                                  accumulated=accumulated)
        else:
            batches, covered, _ = _load_cache(Path(cache_path), signum)
            report = build_report(cps, filt, constants=constants,
                                  batches=batches, covered=covered)
    except InsufficientRangeError as exc:
        _fail(EXIT_RANGE, str(exc))
    _emit(out, _report_csv(report) if fmt == "csv" else _report_json(report))


@main.command("predict")
@click.option("--X", "bounds", required=True,
              help="comma-separated bounds to evaluate")
@click.option("--sign", type=click.Choice(sorted(_SIGN_FLAGS)), required=True)
@click.option("--model", type=click.Choice(sorted(_MODEL_FLAGS)), default="strong",
              show_default=True)
@click.option("--mod5", is_flag=True,
              help="print the mod-5 quintuple conditioned on 2,3 unramified")
@click.option("--unram", default="",
              help="comma-separated primes to condition as unramified")
@click.option("--exact", is_flag=True,
              help="evaluate constants from scratch instead of pinned values")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="text", show_default=True)
@click.option("--out", type=click.Path(), default=None)
def cmd_predict(bounds, sign, model, mod5, unram, exact, fmt, out):
    """Print predicted counts at full precision plus rounded form."""
    xs = _parse_int_list(bounds)
    signum = _SIGN_FLAGS[sign]
    constants = exact_constants() if exact else REFERENCE_CONSTANTS
    try:
        overrides = tuple(
            LocalCondition(p, UNRAMIFIED) for p in _parse_int_list(unram)
        )
    except ValueError as exc:
        raise click.BadParameter(str(exc))
    rows = []
    try:
        for x in xs:
            if mod5:
                values = mod5_prediction(x, signum, constants)
                rows.append({
                    "X": x,
                    "mod5": [repr(v) for v in values],
                    "mod5_rounded": [nearest_count(v) for v in values],
                })
            else:
                value = predict(
                    x, PredictionModel(signum, _MODEL_FLAGS[model]),
                    overrides, constants,
                )
                rows.append({
                    "X": x,
                    "model": model,
                    "value": repr(value),
                    "rounded": nearest_count(value),
                })
    except ArithmeticError as exc:
        _fail(EXIT_VERIFY, "convergence check failed: %s" % exc)
    if fmt == "json":
        _emit(out, json.dumps({"sign": sign, "rows": rows}, indent=2,
                              sort_keys=True) + "\n")
        return
    lines = []
    for row in rows:
        if mod5:
            classes = " ".join(
                "%d:%s(%d)" % (r, row["mod5"][r], row["mod5_rounded"][r])
                for r in range(5)
            )
            lines.append("X=%d sign=%s mod5 %s" % (row["X"], sign, classes))
        else:
            lines.append(
                "X=%d sign=%s model=%s value=%s rounded=%d"
                % (row["X"], sign, model, row["value"], row["rounded"])
            )
    _emit(out, "\n".join(lines) + "\n")


def _verify_checks():
    checks = []

    def check(name, passed, detail):
        checks.append({"name": name, "pass": bool(passed), "detail": detail})

    for sign in (1, -1):
        oracle = brute_force_enumerate(5000, sign)
        swept = list(enumerate_fields(EnumerationRange(0, 5000), sign))
        check(
            "oracle_equivalence_%s" % _SIGN_NAMES[sign],
            oracle == swept,
            "%d fields with |disc| < 5000" % len(swept),
        )

    basel = riemann_zeta(2.0)
    check("zeta_two_identity", abs(basel - math.pi**2 / 6) <= 1e-9,
          "zeta(2) = %r" % basel)

    kernel = euler_product(TERM_ZETA2_KERNEL)
    check("euler_kernel_identity", abs(kernel - 6 / math.pi**2) <= 1e-9,
          "prod (1 - p^-2) = %r" % kernel)

    refl = math.gamma(1 / 3) * math.gamma(2 / 3)
    target = 2 * math.pi / math.sqrt(3.0)
    check("gamma_reflection", abs(refl - target) <= 1e-12 * target,
          "gamma(1/3) gamma(2/3) = %r" % refl)

    z13 = riemann_zeta(1 / 3)
    oracle13 = _zeta_by_averaging(1 / 3)
    check("zeta_one_third_oracle", abs(z13 - oracle13) <= 1e-9,
          "series %r vs averaging %r" % (z13, oracle13))

    alt3 = (1 - 3.0**-2) * (
        1 + 1 / 3 + (2 / 27) * 3 ** (2 / 3) + (1 / 27) * 3 ** (4 / 3)
    ) / (1 + 1 / 3)
    check("c3_dual_form", abs(main_density(3) - alt3) <= 1e-12,
          "closed %r vs alternative %r" % (main_density(3), alt3))

    worst = 0.0
    p = 2
    while p <= 10**4:
        if _is_prime(p) and p != 3:
            closed = secondary_density(p)
            weights = local_factor(LocalCondition(p, ALL_TYPES), TERM_SECONDARY)
            theta = 1.0 / (p * p * (1 + p ** (-2 / 3) + 1 / p + p ** (-4 / 3)))
            tame = (1 + theta * p ** (5 / 9)) * (
                1 - (p ** (1 / 3) + 1) / (p * (p + 1))
            )
            worst = max(worst, abs(closed - weights), abs(closed - tame))
        p += 1
    check("kp_triple_form", worst <= 1e-12, "max spread %r over p <= 10^4" % worst)

    checked = 0
    for sign in (1, -1):
        for batch in iter_batches(EnumerationRange(0, 20000), sign):
            sub = subset_batch(batch, ~batch.cyclic)
            f = resolvent_vec(sub)
            for i in range(0, sub.size, 37):
                assert int(f[i]) == fundamental_discriminant(int(sub.disc[i]))
                checked += 1
    check("resolvent_dual_route", True, "%d spot checks, tripwires clean" % checked)

    return checks


def _zeta_by_averaging(s: float, rows: int = 60) -> float:
    # repeated pairwise averaging of the alternating partial sums; an
    # independent route to eta(s), hence zeta(s) off the pole line
    partial = 0.0
    table = []
    for n in range(1, rows + 1):
        partial += (-1) ** (n - 1) * n ** (-s)
        table.append(partial)
    while len(table) > 1:
        table = [(a + b) / 2 for a, b in zip(table, table[1:])]
    return table[0] / (1.0 - 2.0 ** (1.0 - s))


@main.command("verify")
@click.option("--out", type=click.Path(), default=None)
def cmd_verify(out):
    """Run the oracle and identity suite; nonzero exit on any failure."""
    checks = _verify_checks()
    ok = all(c["pass"] for c in checks)
    doc = {"pass": ok, "checks": checks}
    _emit(out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if not ok:
        sys.exit(EXIT_VERIFY)


_DESK_CHECKPOINTS = "1e12,1e13,1e14"
_PREDICTION_BOUNDS_POS = [10**e for e in range(12, 24)]
_PREDICTION_BOUNDS_NEG = _PREDICTION_BOUNDS_POS + [3 * 10**23]


def _predictions_csv(sign: int, bounds) -> str:
    rows = ["X,pred_strong,pred_stronger"]
    for x in bounds:
        strong = nearest_count(predict(x, PredictionModel(sign, MODEL_TWO_TERM)))
        stronger = nearest_count(
            predict(x, PredictionModel(sign, MODEL_TAIL_CORRECTED))
        )
        rows.append("%d,%d,%d" % (x, strong, stronger))
    return "\n".join(rows) + "\n"


def _mod5_predicted_csv() -> str:
    rows = ["X,ramified_class,unramified_class"]
    for x in (10**20, 3 * 10**23):
        values = mod5_prediction(x)
        rows.append(
            "%d,%d,%d" % (x, nearest_count(values[0]), nearest_count(values[1]))
        )
    return "\n".join(rows) + "\n"


_REPRO_TABLES = (
    "pos-desk",
    "neg-desk",
    "mod5-sextic",
    "cubic-ap-7",
    "cubic-ap-5",
    "predictions-pos",
    "predictions-neg",
    "mod5-predicted",
)


@main.command("repro")
@click.option("--table", type=click.Choice(_REPRO_TABLES), required=True)
@click.option("--out", type=click.Path(), default=None)
@click.option("--threads", default=1, show_default=True)
def cmd_repro(table, out, threads):
    """Regenerate one comparison table from scratch."""
    if threads < 1:
        raise click.BadParameter("--threads must be positive")
    if table in ("pos-desk", "neg-desk"):
        filt = CensusFilter(sign=1 if table == "pos-desk" else -1)
        cps = _parse_int_list(_DESK_CHECKPOINTS)
        accumulated = live_accumulation(cps, filt, threads)
        report = build_report(cps, filt, accumulated=accumulated)
        _emit(out, _report_csv(report))
    elif table == "mod5-sextic":
        filt = CensusFilter(sign=-1, unramified=(2, 3), modulus=5)
        cps = [10**16]
        accumulated = live_accumulation(cps, filt, threads)
        report = build_report(cps, filt, accumulated=accumulated)
        _emit(out, _report_csv(report))
    elif table in ("cubic-ap-7", "cubic-ap-5"):
        result = cubic_ap_histogram(
            7 if table.endswith("7") else 5, 2 * 10**6, include_cyclic=True
        )
        _emit(out, _cubic_ap_csv(result))
    elif table == "predictions-pos":
        _emit(out, _predictions_csv(1, _PREDICTION_BOUNDS_POS))
    elif table == "predictions-neg":
        _emit(out, _predictions_csv(-1, _PREDICTION_BOUNDS_NEG))
    else:
        _emit(out, _mod5_predicted_csv())


if __name__ == "__main__":
    main()
