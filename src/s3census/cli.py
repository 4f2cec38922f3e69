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
integers in full decimal, and `--threads` windows are built at once but
used in window order, so the bytes never depend on the thread count.  Files
are written to a temporary name and renamed into place; a crash can only
leave a `.tmp.` file behind, never a truncated final artifact.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import sys
import tempfile
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import Iterable

import click
import numpy as np

from . import enumeration
from .census import (
    CensusFilter,
    CensusReport,
    InsufficientRangeError,
    build_report,
    checked_checkpoints,
    cubic_ap_histogram,
    format_error,
    predicted_pair,
)
from .enumeration import (
    _MAX_THREADS,
    ConsistencyError,
    EnumerationRange,
    WindowBatch,
    brute_force_enumerate,
    enumerate_fields,
    iter_batches,
    map_windows,
)
from .local_analysis import ALL_TYPES
from .predictor import (
    _MODELS,
    MODEL_TWO_TERM,
    REFERENCE_CONSTANTS,
    TERM_SECONDARY,
    TERM_ZETA2_KERNEL,
    LocalCondition,
    PredictionModel,
    _primes,
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

_threads_option = click.option("--threads", type=click.IntRange(1, _MAX_THREADS), default=1,
                               show_default=True, help="windows built at once")


def _parse_exact_int(text: str) -> int:
    """Exact integer from decimal or scientific notation ('1e12', '12167')."""
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise click.BadParameter("not a number: %r" % text)
    # int() takes time growing with the exponent; 10^400 is past any usable bound
    if not value.is_finite() or (value and value.adjusted() >= 400):
        raise click.BadParameter("not a number of at most 400 digits: %r" % text)
    if value != value.to_integral_value():
        raise click.BadParameter("not an integer: %r" % text)
    return int(value)


def _parse_int_list(text: str) -> list[int]:
    return [_parse_exact_int(part) for part in text.split(",") if part]


def _fail(code: int, message: str):
    click.echo("error: %s" % message, err=True)
    sys.exit(code)


def _write_atomic(path: Path, blocks: Iterable[bytes]) -> None:
    """Write the blocks to a temporary file, removed on any error, then rename it to path."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".tmp.", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(blocks)  # drops each block before taking the next
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _emit(out: str | None, text: str) -> None:
    if out is None:
        click.echo(text, nl=False)
        return
    try:
        _write_atomic(Path(out), [text.encode()])
    except OSError as exc:
        _fail(EXIT_IO, "cannot write output: %s" % exc)


# cache encoding: one record per line, `a,b,c,d,disc_k,cyclic,ram_profile`,
# with the profile as p:e:T or p:e:P tags joined by ';', one per prime
# dividing the discriminant.  Both directions work on whole columns.  The
# encoder lays each record out as one NUL-padded uint8 grid row (a sign
# slot and right-aligned decimal digits per integer) and keeps the non-NUL
# bytes in row-major order.  The decoder reads only a, b, c and d, a
# slice's in one C pass, and the window build's step decides which forms
# are fields and derives the rest (enumeration._window_batch).  A slice
# is accepted only if it encodes back to exactly its bytes.

_SLICE_ROWS = 65_536   # records per codec pass; bounds its temporaries
_SCAN_BYTES = 1 << 20  # bytes searched at once for line ends, so no array spans the body


class MalformedCache(ValueError):
    """Cache rows that are not the canonical encoding of any batch."""


class EncodedRows:
    """Cache lines of some records, one block per codec slice; len() counts records."""

    def __init__(self, blocks: list[bytes], rows: int):
        self.blocks, self.rows = blocks, rows

    def __len__(self) -> int:
        return self.rows


def _magnitude(values: np.ndarray) -> np.ndarray:
    # |-2^63| wraps to -2^63, whose uint64 view is the wanted 2^63
    return np.abs(np.asarray(values, dtype=np.int64)).view(np.uint64)


def _cell_width(cell) -> int:
    if isinstance(cell, int):
        return cell
    if isinstance(cell, str) or cell.dtype == np.uint8:
        return 1
    return 1 + len(str(int(_magnitude(cell).max(initial=0))))


def _put_digits(out: np.ndarray, values: np.ndarray) -> None:
    """A '-' or NUL, then the digits of |value| right-aligned after NULs."""
    width = out.shape[1]
    mag = _magnitude(values)
    if width <= 10:  # at most 9 digits: uint32 divides several times faster
        mag = mag.astype(np.uint32)
    out[:, 0] = np.where(values < 0, ord("-"), 0)
    for col in range(width - 1, 0, -1):
        shown = mag > 0 if col < width - 1 else True
        mag, digit = np.divmod(mag, 10)
        digit += ord("0")
        digit *= shown
        out[:, col] = digit


def _grid(n: int, cells) -> np.ndarray:
    """(n, width) uint8 rows laid out from cells: an int is that many NUL
    columns, a one-character string a constant column, a uint8 array one
    byte per row, an int64 array a sign column and decimal digits."""
    widths = [_cell_width(cell) for cell in cells]
    grid = np.zeros((n, sum(widths)), dtype=np.uint8)
    at = 0
    for cell, width in zip(cells, widths):
        if isinstance(cell, str):
            grid[:, at] = ord(cell)
        elif isinstance(cell, np.ndarray) and cell.dtype == np.uint8:
            grid[:, at] = cell
        elif not isinstance(cell, int):
            _put_digits(grid[:, at : at + width], cell)
        at += width
    return grid


def _chars(mask: np.ndarray, yes: str, no: str) -> np.ndarray:
    return np.where(mask, ord(yes), ord(no) if no else 0).astype(np.uint8)


def _encode_rows(batch: WindowBatch) -> bytes:
    n = batch.size
    row = batch.pair_rows
    slot = np.arange(row.size) - batch.prof_ptr[row]
    tag = _grid(row.size, [_chars(slot > 0, ";", ""), batch.prof_p, ":",
                           batch.prof_e, ":", _chars(batch.prof_total, "T", "P")])
    pairs = int(np.diff(batch.prof_ptr).max(initial=0))
    blank = pairs * tag.shape[1]
    a, b, c, d = batch.coeffs.T
    grid = _grid(n, [a, ",", b, ",", c, ",", d, ",", batch.disc, ",",
                     _chars(batch.cyclic, "1", "0"), ",", blank, "\n"])
    # splitting the contiguous last axis is always a view, so this writes grid
    grid[:, -1 - blank : -1].reshape(n, pairs, tag.shape[1])[row, slot] = tag
    return grid[grid != 0].tobytes()


def _row_slice(batch: WindowBatch, start: int, stop: int) -> WindowBatch:
    lo, hi = batch.prof_ptr[start], batch.prof_ptr[stop]
    return WindowBatch(
        batch.coeffs[start:stop], batch.disc[start:stop],
        batch.cyclic[start:stop], batch.prof_ptr[start : stop + 1] - lo,
        batch.prof_p[lo:hi], batch.prof_e[lo:hi], batch.prof_total[lo:hi],
    )


def _encode_batch(batch: WindowBatch) -> EncodedRows:
    """Cache lines of a batch, encoded in row slices to bound the grid."""
    return EncodedRows([
        _encode_rows(_row_slice(batch, start, min(start + _SLICE_ROWS, batch.size)))
        for start in range(0, batch.size, _SLICE_ROWS)
    ], batch.size)


def _encode_window(window: EnumerationRange, sign: int) -> EncodedRows:
    """Cache lines of one complete window, built and encoded on the calling thread."""
    # _build_batch is looked up per window, so a patched one is used
    return _encode_batch(enumeration._build_batch(window.lower, window.upper, sign))


def _parse_rows(block: bytes) -> np.ndarray:
    """(n, 4) coefficients of whole cache lines; ValueError when they do not split.

    Each line has six commas (the profile uses ';' and ':'), so its bytes
    from the fourth comma on are dropped before the one C pass."""
    raw = np.frombuffer(block, dtype=np.uint8)
    ends, commas = np.flatnonzero(raw == ord("\n")), np.flatnonzero(raw == ord(","))
    if commas.size != 6 * ends.size:
        raise ValueError("a line without six commas")
    tail = np.zeros(raw.size, dtype=np.int8)  # positive from a fourth comma to its line's end
    tail[commas[3::6]], tail[ends] = 1, -1
    text = raw.copy()
    text[commas] = ord(" ")
    text = text[np.cumsum(tail, dtype=np.int8) <= 0]
    return np.fromstring(text.tobytes(), dtype=np.int64, sep=" ").reshape(ends.size, 4)


def _check_ascending(m: np.ndarray, disc: np.ndarray, after: np.ndarray | None) -> None:
    """ValueError unless the rows' (|disc|, a, b, c, d) strictly ascend, from `after` if given."""
    keys = np.column_stack((np.abs(disc), m))
    if after is not None:
        keys = np.vstack((after, keys))
    if not np.all(enumeration._lex_less(keys[:-1], keys[1:])):
        raise ValueError("rows do not strictly ascend")


def _decode_rows(block: bytes, sign: int, lower: int, upper: int,
                 first_line: int = 1, after: np.ndarray | None = None) -> WindowBatch:
    """The batch whose cache lines are exactly `block`: their (|disc|, a, b, c, d)
    strictly ascend from the key `after` of the line before, if given, and the
    window build's step keeps each line's form, a field with |disc| in
    [lower, upper), and derives the rest of the line.

    Raises MalformedCache naming the first line, numbered from `first_line`,
    where that fails.
    """
    def read(text: bytes) -> WindowBatch | None:
        try:
            m = _parse_rows(text)
            disc = enumeration._disc_vec(m)
            _check_ascending(m, disc, after)
            # the factor table is sized by hi; a |disc| at or past upper is refused
            hi = min(upper, int(np.abs(disc).max(initial=lower)) + 1)
            batch = enumeration._window_batch([m], lower, hi, sign)
        except (ValueError, ConsistencyError):
            return None
        return batch if _encode_rows(batch) == text else None

    batch = read(block)
    if batch is not None:
        return batch
    lines = block.splitlines(keepends=True)
    good, bad = 0, len(lines)  # lines[:good] read back, lines[:bad] do not
    while bad - good > 1:
        mid = (good + bad) // 2
        if read(b"".join(lines[:mid])) is None:
            bad = mid
        else:
            good = mid
    raise MalformedCache("line %d is not a cache record: %r" % (
        first_line + good, lines[good][:80].rstrip(b"\n").decode("ascii", "replace")))


def _sidecar_path(cache: Path) -> Path:
    return cache.with_name(cache.name + ".meta.json")


def _cache_meta(text: bytes, sign: int, cache: Path):
    """(covered range, record count, sha256) of a sidecar; exit 4 if unusable."""
    try:
        meta = json.loads(text)
        if meta["format_version"] != CACHE_FORMAT_VERSION:
            _fail(EXIT_VERIFY, "unsupported cache format version: %s" % cache)
        lower, upper, records = (meta[key] for key in ("lower", "upper", "records"))
        if not all(type(v) is int for v in (lower, upper, records)):
            raise TypeError("lower, upper and records must be integers")
        covered = EnumerationRange(lower, upper)
    except (ValueError, LookupError, TypeError) as exc:
        _fail(EXIT_VERIFY, "malformed cache sidecar %s: %r" % (_sidecar_path(cache), exc))
    if meta.get("sign") != _SIGN_NAMES[sign]:
        _fail(EXIT_VERIFY, "cache holds sign=%s records: %s" % (meta.get("sign"), cache))
    return covered, records, meta.get("sha256")


def _load_cache(cache: Path, sign: int):
    """Checked cache as (lazy batch iterator, covered range).

    The sidecar, checksum, header, trailing newline and record count are
    checked here.  Rows are checked as they are decoded, and a malformed
    one raises MalformedCache from the iterator; replay that stops at the
    census range leaves the later batches undecoded and unchecked.
    """
    try:
        text = _sidecar_path(cache).read_bytes()
        body = cache.read_bytes()
    except OSError as exc:
        _fail(EXIT_IO, "cannot read cache: %s" % exc)
    covered, records, sha256 = _cache_meta(text, sign, cache)
    if sha256 != hashlib.sha256(body).hexdigest():
        _fail(EXIT_VERIFY, "cache checksum mismatch: %s" % cache)
    header = CACHE_HEADER.encode() + b"\n"
    if not body.startswith(header):
        _fail(EXIT_VERIFY, "cache header mismatch: %s" % cache)
    if not body.endswith(b"\n"):
        _fail(EXIT_VERIFY, "cache does not end with a newline: %s" % cache)
    if body.count(b"\n") - 1 != records:
        _fail(EXIT_VERIFY, "cache record count mismatch: %s" % cache)
    return _decode_batches(body, len(header), sign, covered), covered


def _decode_batches(body: bytes, start: int, sign: int, covered: EnumerationRange):
    """Batches decoded from body[start:], one per codec slice of _SLICE_ROWS
    records, whose line ends are found _SCAN_BYTES at a time."""
    lower, after, line = covered.lower, None, 2  # then the slice before's last |disc|, key, line
    while start < len(body):
        stop, need = start, _SLICE_ROWS
        while need and stop < len(body):
            block = np.frombuffer(body, np.uint8, min(_SCAN_BYTES, len(body) - stop), stop)
            ends = np.flatnonzero(block == ord("\n"))[:need]
            need -= ends.size
            stop += int(ends[-1]) + 1 if not need else block.size
        batch = _decode_rows(body[start:stop], sign, lower, covered.upper,
                             first_line=line, after=after)
        yield batch
        lower, start, line = abs(int(batch.disc[-1])), stop, line + batch.size
        after = np.concatenate(([lower], batch.coeffs[-1]))


@click.group()
def main():
    """Cubic fields by discriminant and their sextic twin statistics."""


@main.command("enumerate")
@click.option("--sign", type=click.Choice(sorted(_SIGN_FLAGS)), required=True)
@click.option("--max-abs-disc", "bound", required=True,
              help="enumerate fields with |disc| below this (exact integer)")
@click.option("--cache", "cache_path", required=True, type=click.Path(),
              help="output CSV path; a .meta.json sidecar is written next to it")
@_threads_option
def cmd_enumerate(sign, bound, cache_path, threads):
    """Write the discriminant-range cache and its metadata sidecar."""
    upper = _parse_exact_int(bound)
    signum = _SIGN_FLAGS[sign]
    try:
        rng = EnumerationRange(0, upper)
    except ValueError as exc:
        raise click.BadParameter(str(exc))
    header = CACHE_HEADER.encode() + b"\n"
    digest, records = hashlib.sha256(header), 0

    def blocks():
        # each window is encoded on the thread that built it, and its lines
        # are written as they arrive, so only one round of windows is held
        nonlocal records
        yield header
        for encoded in map_windows(lambda w: _encode_window(w, signum), rng, threads):
            records += len(encoded)
            for block in encoded.blocks:
                digest.update(block)
                yield block
            del encoded  # before the next window is built

    cache = Path(cache_path)
    try:
        _write_atomic(cache, blocks())
        meta = {
            "format_version": CACHE_FORMAT_VERSION,
            "sign": sign,
            "lower": rng.lower,
            "upper": rng.upper,
            "records": records,
            "sha256": digest.hexdigest(),
        }
        _write_atomic(
            _sidecar_path(cache),
            [(json.dumps(meta, indent=2, sort_keys=True) + "\n").encode()],
        )
    except OSError as exc:
        _fail(EXIT_IO, "cannot write cache: %s" % exc)
    click.echo("wrote %d records to %s" % (meta["records"], cache))


def _census_filter(sign, unram, mod=None) -> CensusFilter:
    """The filter of a census or predict command; a repeated or bad prime exits 2."""
    primes = _parse_int_list(unram)
    for p in primes:
        if primes.count(p) > 1:
            raise click.BadParameter("--unram repeats %d" % p)
    try:
        return CensusFilter(_SIGN_FLAGS[sign], tuple(primes), mod)
    except ValueError as exc:
        raise click.BadParameter(str(exc))


def _census_query(sign, checkpoints, unram, mod):
    """(checkpoints, filter) of a census command; bad values exit 2."""
    cps = _parse_int_list(checkpoints or "")
    if not cps:
        raise click.BadParameter("--checkpoints needs at least one bound")
    filt = _census_filter(sign, unram, mod)
    try:
        return checked_checkpoints(cps), filt
    except ValueError as exc:
        raise click.BadParameter(str(exc))


def _report_rows(report: CensusReport):
    """X, actual, strong, stronger, formatted error and residues per row."""
    residues = report.histogram or ((),) * len(report.checkpoints)
    return zip(report.checkpoints, report.actual, report.strong, report.stronger,
               map(format_error, report.errors), residues)


def _report_csv(report: CensusReport) -> str:
    header = list(REPORT_HEADER)
    if report.histogram is not None:
        header += ["res_%d" % r for r in range(report.filt.modulus)]
    rows = [",".join(header)]
    for *cells, residues in _report_rows(report):
        rows.append(",".join(map(str, [*cells, *residues])))
    return "\n".join(rows) + "\n"


def _report_json(report: CensusReport) -> str:
    rows = []
    for *cells, residues in _report_rows(report):
        row = dict(zip(REPORT_HEADER, cells))
        if report.histogram is not None:
            row["residues"] = list(residues)
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
    cells = [result.modulus, result.bound, _SIGN_NAMES[result.sign], result.convention,
             result.total, *result.counts]
    return ",".join(header) + "\n" + ",".join(map(str, cells)) + "\n"


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
              help="histogram modulus, from 2 to 10^6")
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
@_threads_option
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--out", type=click.Path(), default=None,
              help="output path (stdout when omitted)")
def cmd_census(sign, checkpoints, mod, unram, cache_path, live, cubic_ap,
               bound, exclude_cyclic, exact, threads, fmt, out):
    """Tabulate counts against predictions, or residue histograms."""
    signum = _SIGN_FLAGS[sign]
    census_only = {"--checkpoints": checkpoints is not None, "--unram": unram != "",
                   "--cache": cache_path is not None, "--live": live, "--exact": exact}
    cubic_only = {"--max-abs-disc": bound is not None, "--exclude-cyclic": exclude_cyclic}
    for name, given in (census_only if cubic_ap else cubic_only).items():
        if given:
            raise click.BadParameter("%s %s --cubic-ap" % (
                name, "does not apply with" if cubic_ap else "needs"))

    if cubic_ap:
        if mod is None or bound is None:
            raise click.BadParameter("--cubic-ap needs --mod and --max-abs-disc")
        try:
            result = cubic_ap_histogram(
                mod,
                _parse_exact_int(bound),
                include_cyclic=not exclude_cyclic,
                sign=signum,
                threads=threads,
            )
        except ValueError as exc:
            raise click.BadParameter(str(exc))
        _emit(out, _cubic_ap_csv(result) if fmt == "csv" else _cubic_ap_json(result))
        return

    cps, filt = _census_query(sign, checkpoints, unram, mod)
    if (cache_path is None) == (not live):
        raise click.BadParameter("choose exactly one of --cache and --live")
    constants = exact_constants() if exact else REFERENCE_CONSTANTS
    batches = covered = None
    try:
        if not live:
            batches, covered = _load_cache(Path(cache_path), signum)
        report = build_report(cps, filt, constants, batches, covered, threads)
    except InsufficientRangeError as exc:
        _fail(EXIT_RANGE, str(exc))
    except MalformedCache as exc:
        _fail(EXIT_VERIFY, "malformed cache %s: %s" % (cache_path, exc))
    except ValueError as exc:
        raise click.BadParameter(str(exc))
    _emit(out, _report_csv(report) if fmt == "csv" else _report_json(report))


@main.command("predict")
@click.option("--X", "bounds", required=True,
              help="comma-separated bounds to evaluate")
@click.option("--sign", type=click.Choice(sorted(_SIGN_FLAGS)), required=True)
@click.option("--model", type=click.Choice(sorted(_MODELS)), default=MODEL_TWO_TERM,
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
    if not xs:
        raise click.BadParameter("--X needs at least one bound")
    if mod5 and unram:
        raise click.BadParameter("--unram does not apply with --mod5")
    if mod5 and model != MODEL_TWO_TERM:
        raise click.BadParameter("--model %s does not apply with --mod5" % model)
    filt = _census_filter(sign, unram)
    constants = exact_constants() if exact else REFERENCE_CONSTANTS
    rows = []
    try:
        for x in xs:
            if mod5:
                values = mod5_prediction(x, filt.sign, constants)
                rows.append({
                    "X": x,
                    "mod5": [repr(v) for v in values],
                    "mod5_rounded": [nearest_count(v) for v in values],
                })
            else:
                value = predict(
                    x, PredictionModel(filt.sign, model), filt.conditions, constants
                )
                rows.append({
                    "X": x,
                    "model": model,
                    "value": repr(value),
                    "rounded": nearest_count(value),
                })
    except ArithmeticError as exc:
        _fail(EXIT_VERIFY, "convergence check failed: %s" % exc)
    except ValueError as exc:
        raise click.BadParameter(str(exc))
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
    for p in _primes(10**4).tolist():
        if p != 3:
            closed = secondary_density(p)
            weights = local_factor(LocalCondition(p, ALL_TYPES), TERM_SECONDARY)
            theta = 1.0 / (p * p * (1 + p ** (-2 / 3) + 1 / p + p ** (-4 / 3)))
            tame = (1 + theta * p ** (5 / 9)) * (
                1 - (p ** (1 / 3) + 1) / (p * (p + 1))
            )
            worst = max(worst, abs(closed - weights), abs(closed - tame))
    check("kp_triple_form", worst <= 1e-12, "max spread %r over p <= 10^4" % worst)

    checked = mismatched = 0
    for sign in (1, -1):
        for batch in iter_batches(EnumerationRange(0, 20000), sign):
            f = resolvent_vec(batch)
            for i in np.flatnonzero(~batch.cyclic)[::37]:
                mismatched += int(f[i]) != fundamental_discriminant(int(batch.disc[i]))
                checked += 1
    check("resolvent_dual_route", checked and not mismatched,
          "%d spot checks, %s" % (checked, "%d mismatches" % mismatched
                                  if mismatched else "tripwires clean"))

    return checks


def _zeta_by_averaging(s: float) -> float:
    # repeated pairwise averaging of the first 60 alternating partial sums;
    # an independent route to eta(s), hence zeta(s) off the pole line
    partial = 0.0
    table = []
    for n in range(1, 61):
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


_DESK_CHECKPOINTS = [10**12, 10**13, 10**14]
_PREDICTION_BOUNDS_POS = [10**e for e in range(12, 24)]
_PREDICTION_BOUNDS_NEG = _PREDICTION_BOUNDS_POS + [3 * 10**23]


def _predictions_csv(sign: int, bounds) -> str:
    rows = ["X,pred_strong,pred_stronger"]
    for x in bounds:
        rows.append("%d,%d,%d" % (x, *predicted_pair(x, CensusFilter(sign))))
    return "\n".join(rows) + "\n"


def _mod5_predicted_csv() -> str:
    rows = ["X,ramified_class,unramified_class"]
    for x in (10**20, 3 * 10**23):
        values = mod5_prediction(x)
        rows.append(
            "%d,%d,%d" % (x, nearest_count(values[0]), nearest_count(values[1]))
        )
    return "\n".join(rows) + "\n"


def _census_table(filt: CensusFilter, checkpoints):
    return lambda threads: _report_csv(build_report(checkpoints, filt, threads=threads))


def _cubic_ap_table(modulus: int):
    return lambda threads: _cubic_ap_csv(
        cubic_ap_histogram(modulus, 2 * 10**6, include_cyclic=True, threads=threads))


# table name -> its text for a thread count, in the order `--table` lists them
_REPRO_TABLES = {
    "pos-desk": _census_table(CensusFilter(sign=1), _DESK_CHECKPOINTS),
    "neg-desk": _census_table(CensusFilter(sign=-1), _DESK_CHECKPOINTS),
    "mod5-sextic": _census_table(
        CensusFilter(sign=-1, unramified=(2, 3), modulus=5), [10**16]),
    "cubic-ap-7": _cubic_ap_table(7),
    "cubic-ap-5": _cubic_ap_table(5),
    "predictions-pos": lambda threads: _predictions_csv(1, _PREDICTION_BOUNDS_POS),
    "predictions-neg": lambda threads: _predictions_csv(-1, _PREDICTION_BOUNDS_NEG),
    "mod5-predicted": lambda threads: _mod5_predicted_csv(),
}


@main.command("repro")
@click.option("--table", type=click.Choice(list(_REPRO_TABLES)), required=True)
@click.option("--out", type=click.Path(), default=None)
@_threads_option
def cmd_repro(table, out, threads):
    """Regenerate one comparison table from scratch."""
    _emit(out, _REPRO_TABLES[table](threads))


if __name__ == "__main__":
    main()
