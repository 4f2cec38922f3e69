"""Tabulation of sextic closures against the asymptotic predictions.

Enumerated cubic fields are rolled up into the comparison tables: cumulative
counts of twin sextic discriminants below a list of checkpoints, optionally
restricted to fields unramified at chosen primes, optionally broken down by
residue class of the sextic discriminant, and paired with rounded model
predictions plus a normalised error column.

Counting is streaming: one pass over the enumeration batches into one
(checkpoint, residue) table, with a single residue column when no modulus
is requested.  One exact test, |disc(Kt)| < X, cuts and bins: a field
is kept if it passes at the largest checkpoint, and its row, the number
of other checkpoints it fails, is that of the first checkpoint above its
|disc(Kt)|; a cumulative sum over the rows then gives the tables.

Write disc(K) = F * f^2 with F the fundamental discriminant of the
quadratic resolvent; then |disc(Kt)| = disc(K)^2 * |F| = |F|^3 * f^4, so
below X only the admissible values |disc K| = |F| * f^2 with F != 1 of the
filter's sign and |F|^3 * f^4 <= X - 1 occur: about X^(1/3) of them,
against the roughly X^(1/2) discriminants below the largest one (the
(F, f) parametrisation of Cohen-Morra).  A prime required unramified in Kt
cannot divide disc(K) either, so its multiples are dropped too.  The set
is built per query in exact integer arithmetic and may only ever be a
superset of what counts.  Its largest element m fixes the cubic range a
query needs, [0, m + 1), on both routes.  Live counts sweep exactly that
range, in windows that each hold a bounded number of admissible values,
and build only those; the sweep still checks the region of every form,
and every kept record still goes through the dual-route resolvent checks
and the exact threshold.  A replayed stream must declare the range it
covers, is rejected rather than silently undercounted if that stops short
of m + 1, and is cut off at m + 1.  An empty set counts nothing and
enumerates nothing.  Enumeration, caches and cubic histograms never use
the set.

Every count reads one batch stream in |disc| order; threads only build
the windows of a round at once (enumeration.map_windows), so threaded
runs reproduce the single-thread tables byte for byte.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Iterable, Sequence

import numpy as np

from .enumeration import EnumerationRange, WindowBatch, iter_batches
from .forms import _require
from .local_analysis import UNRAMIFIED, _is_prime
from .predictor import (
    MODEL_TAIL_CORRECTED,
    MODEL_TWO_TERM,
    REFERENCE_CONSTANTS,
    EvaluationConstants,
    LocalCondition,
    PredictionModel,
    nearest_count,
    predict,
)
from .sextic import abs_sextic_below, resolvent_vec, sextic_residues

_MAX_FILTER_PRIMES = 10
# residues below the modulus m multiply to less than m^2 = 1e12, exact in
# int64, and a residue table holds only m counters a checkpoint
_MAX_MODULUS = 10**6
_MAX_CHECKPOINT = 10**24  # keeps every reference row (to 3e23); |F| table of 10^8 entries


class InsufficientRangeError(ValueError):
    """A record stream stops short of the cubic range a query needs."""


@dataclass(frozen=True)
class CensusFilter:
    """What subset of fields a table counts.

    `sign` selects totally real (+1) or complex (-1) cubic fields, which is
    also the sign of the twin sextic discriminant.  `unramified` lists primes
    at which the sextic closure must be unramified, i.e. primes not dividing
    disc(Kt) = disc(K)^2 * F.  F divides disc(K), so this is the same as p
    not dividing disc(K), at 2 as well: an odd disc(K) is 1 mod 4, and the
    resolvent is then unramified at 2.  `modulus` switches on the
    per-residue histogram of the sextic discriminant.
    """

    sign: int
    unramified: tuple[int, ...] = ()
    modulus: int | None = None

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        primes = tuple(sorted({operator.index(p) for p in self.unramified}))
        if len(primes) > _MAX_FILTER_PRIMES:
            raise ValueError("at most %d filter primes" % _MAX_FILTER_PRIMES)
        for p in primes:
            if not _is_prime(p):
                raise ValueError("filter entries must be prime, got %d" % p)
        object.__setattr__(self, "unramified", primes)
        if self.modulus is not None:
            m = operator.index(self.modulus)
            if not 2 <= m <= _MAX_MODULUS:
                raise ValueError("modulus must be between 2 and %d" % _MAX_MODULUS)
            object.__setattr__(self, "modulus", m)

    @property
    def conditions(self) -> tuple[LocalCondition, ...]:
        """The unramified primes as prediction overrides."""
        return tuple(LocalCondition(p, UNRAMIFIED) for p in self.unramified)


def _icbrt(n: int) -> int:
    """Largest r with r**3 <= n, for n >= 0, by integer Newton steps."""
    if n == 0:
        return 0
    r = 1 << -(-n.bit_length() // 3)
    while True:
        s = (2 * r + n // (r * r)) // 3
        if s >= r:
            return r
        r = s


def _fundamental_abs(sign: int, bound: int) -> np.ndarray:
    """Sorted |F| <= bound over fundamental discriminants F != 1 of the sign."""
    n = np.arange(bound + 1, dtype=np.int64)
    squarefree = n > 0
    for p in range(2, math.isqrt(bound) + 1):
        squarefree[p * p :: p * p] = False
    odd = squarefree & ((sign * n) % 4 == 1) & (n > 1)
    m = n[: bound // 4 + 1]
    even = squarefree[: m.size] & np.isin((sign * m) % 4, (2, 3))
    return np.sort(np.concatenate((n[odd], 4 * m[even])))


def admissible_discriminants(x_max: int, filt: CensusFilter) -> np.ndarray:
    """Sorted |disc K| = |F| f^2 that can give 0 < sign * disc(Kt) < x_max.

    F runs over fundamental discriminants of the filter's sign other than 1
    and f over f >= 1 with |F|^3 f^4 <= x_max - 1; the bound is exact
    integer arithmetic, one integer cube root per f.  Multiples of the
    filter's unramified primes are left out, since such a prime divides
    disc(Kt).  The result is a superset of the cubic discriminants any
    counted field has.  An x_max past 10^24 raises ValueError before any
    array is built.
    """
    if operator.index(x_max) > _MAX_CHECKPOINT:
        raise ValueError("the largest checkpoint must be at most 10^24")
    y = x_max - 1
    fund = _fundamental_abs(filt.sign, _icbrt(max(y, 0)))
    parts = [np.empty(0, dtype=np.int64)]
    f = 1
    while fund.size and int(fund[0]) ** 3 * f**4 <= y:
        top = _icbrt(y // f**4)
        parts.append(fund[: np.searchsorted(fund, top, side="right")] * (f * f))
        f += 1
    out = np.sort(np.concatenate(parts))
    for p in filt.unramified:
        out = out[out % p != 0]
    return out


def checked_checkpoints(checkpoints: Sequence[int]) -> tuple[int, ...]:
    """Exact, positive, strictly increasing checkpoints as a tuple."""
    cps = tuple(operator.index(x) for x in checkpoints)
    for a, b in zip(cps, cps[1:]):
        if a >= b:
            raise ValueError("checkpoints must be strictly increasing")
    if cps and cps[0] < 1:
        raise ValueError("checkpoints must be positive")
    return cps


def accumulate_stream(
    checkpoints: Sequence[int],
    filt: CensusFilter,
    batches: Iterable[WindowBatch],
    stop_at: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Count one batch stream, live or replayed.

    Returns per-checkpoint counts and the (checkpoint, residue) table of
    disc(Kt) mod filt.modulus, with a single column when there is no
    modulus; each row sums to its count.  The keep mask drops the cyclic
    records (resolvent 1) and those failing abs_sextic_below at the largest
    checkpoint; the same test at the other checkpoints bins the rest.
    Results from disjoint sub-ranges add elementwise.  `stop_at` cuts off
    a stream that extends past the needed cubic range: batches arrive in
    increasing |disc| order, so none is pulled after the first that reaches it.
    """
    cps = checked_checkpoints(checkpoints)
    x_max = cps[-1] if cps else 1
    mod = filt.modulus or 1
    table = np.zeros(len(cps) * mod, dtype=np.int64)
    for batch in batches:
        f = resolvent_vec(batch)
        keep = ~batch.cyclic & abs_sextic_below(batch.disc, f, x_max)
        for p in filt.unramified:
            keep &= batch.disc % p != 0
        disc, f = batch.disc[keep], f[keep]
        # every kept field is below x_max, so the last checkpoint bounds no bin
        row = sum(~abs_sextic_below(disc, f, x) for x in cps[:-1])
        table += np.bincount(row * mod + sextic_residues(disc, f, mod),
                             minlength=table.size)
        if stop_at is not None and batch.size and abs(int(batch.disc[-1])) >= stop_at:
            break
    hist = np.cumsum(table.reshape(len(cps), mod), axis=0)
    return hist.sum(axis=1), hist


def tabulate(
    checkpoints: Sequence[int],
    filt: CensusFilter,
    batches: Iterable[WindowBatch] | None = None,
    covered: EnumerationRange | None = None,
    threads: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """accumulate_stream over the cubic range the checkpoints need.

    The range is [0, m + 1) with m the largest admissible |disc K|.  With
    no `batches`, it is enumerated on the fly, building only admissible
    discriminants, `threads` windows at once; the stream, and so the
    tables, do not depend on `threads`.  A supplied stream must declare
    `covered`, is rejected if it stops short of the range, and is cut off
    at its end.  With no admissible discriminant, as for empty
    checkpoints, the tables are zero and nothing is enumerated.
    """
    cps = checked_checkpoints(checkpoints)
    admissible = admissible_discriminants(cps[-1] if cps else 1, filt)
    if batches is not None and covered is None:
        raise ValueError("externally supplied batches need their covered range")
    if not admissible.size:
        return accumulate_stream(cps, filt, ())
    required = EnumerationRange(0, int(admissible[-1]) + 1)
    if batches is None:
        batches = iter_batches(required, filt.sign, admissible, threads)
    elif covered.lower != 0 or covered.upper < required.upper:
        raise InsufficientRangeError(
            "enumeration covers |disc| in [%d, %d) but [0, %d) is needed"
            % (covered.lower, covered.upper, required.upper)
        )
    return accumulate_stream(cps, filt, batches, stop_at=required.upper)


@dataclass(frozen=True)
class CubicApResult:
    """Residue histogram of cubic field discriminants below a bound."""

    modulus: int
    bound: int
    sign: int
    include_cyclic: bool
    counts: tuple[int, ...]
    total: int
    cyclic_seen: int

    def __post_init__(self):
        _require(len(self.counts) == self.modulus, "one bin per residue class required")
        _require(sum(self.counts) == self.total, "histogram bins must sum to the total")

    @property
    def convention(self) -> str:
        return "cyclic included" if self.include_cyclic else "cyclic excluded"


def cubic_ap_histogram(
    modulus: int,
    bound: int,
    include_cyclic: bool = True,
    sign: int = 1,
    threads: int = 1,
) -> CubicApResult:
    """Cubic discriminants with 0 < sign * disc < bound, binned mod `modulus`.

    Both cyclic-inclusion conventions are supported and the one used is
    recorded on the result, since published tables differ on the point.
    One pass over the complete batch stream, `threads` windows built at once.
    """
    modulus = CensusFilter(sign, modulus=modulus).modulus  # checks sign and modulus
    bound = operator.index(bound)

    counts, cyclic = np.zeros(modulus, dtype=np.int64), 0
    for batch in iter_batches(EnumerationRange(0, bound), sign, threads=threads):
        cyclic += int(batch.cyclic.sum())
        disc = batch.disc if include_cyclic else batch.disc[~batch.cyclic]
        counts += np.bincount(disc % modulus, minlength=modulus)
    return CubicApResult(modulus, bound, sign, include_cyclic,
                         counts=tuple(int(c) for c in counts),
                         total=int(counts.sum()), cyclic_seen=cyclic)


def error_column(predicted: float, actual: int, x: int) -> float:
    """Normalised overshoot (predicted - actual) / x^(5/18)."""
    if not x > 0:
        raise ValueError("checkpoint must be positive")
    return (predicted - actual) / float(x) ** (5.0 / 18.0)


def format_error(value: float) -> str:
    """Three decimals, ties away from zero, matching the published columns."""
    return str(Decimal(repr(value)).quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))


def predicted_pair(
    x: int, filt: CensusFilter, constants: EvaluationConstants = REFERENCE_CONSTANTS
) -> tuple[int, int]:
    """Rounded two-term and tail-corrected predictions at x.

    They are conditioned on the filter's unramified primes, so a filtered
    table is compared against the matching conditional asymptotic.
    """
    return tuple(
        nearest_count(predict(x, PredictionModel(filt.sign, name), filt.conditions, constants))
        for name in (MODEL_TWO_TERM, MODEL_TAIL_CORRECTED)
    )


@dataclass(frozen=True)
class CensusReport:
    """One assembled comparison table.

    `strong` and `stronger` are the rounded two-term and tail-corrected
    predictions, and `errors` the error column against `strong`.  The
    histogram, present only when the filter has a modulus, carries one
    residue row per checkpoint.
    """

    filt: CensusFilter
    checkpoints: tuple[int, ...]
    actual: tuple[int, ...]
    strong: tuple[int, ...]
    stronger: tuple[int, ...]
    histogram: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        n = len(self.checkpoints)
        _require(len(self.actual) == len(self.strong) == len(self.stronger) == n,
                 "one count and one prediction per checkpoint required")
        _require(all(a <= b for a, b in zip(self.actual, self.actual[1:])),
                 "cumulative counts cannot decrease")
        if self.histogram is not None:
            _require(self.filt.modulus is not None, "histogram rows require a filter modulus")
            _require(len(self.histogram) == n, "one histogram row per checkpoint required")
            for row, total in zip(self.histogram, self.actual):
                _require(len(row) == self.filt.modulus,
                         "histogram rows need one bin per residue")
                _require(sum(row) == total, "histogram row does not sum to its count")

    @property
    def errors(self) -> tuple[float, ...]:
        return tuple(map(error_column, self.strong, self.actual, self.checkpoints))


def build_report(
    checkpoints: Sequence[int],
    filt: CensusFilter,
    constants: EvaluationConstants = REFERENCE_CONSTANTS,
    batches: Iterable[WindowBatch] | None = None,
    covered: EnumerationRange | None = None,
    threads: int = 1,
) -> CensusReport:
    """Counts from `tabulate`, both predictions, and the error column.

    The predictions come first, so a checkpoint the models reject fails
    before any counting.  An empty checkpoint list yields an empty report.
    """
    cps = checked_checkpoints(checkpoints)
    pairs = [predicted_pair(x, filt, constants) for x in cps]
    counts, hist = tabulate(cps, filt, batches, covered, threads)
    return CensusReport(
        filt=filt,
        checkpoints=cps,
        actual=tuple(int(c) for c in counts),
        strong=tuple(s for s, _ in pairs),
        stronger=tuple(t for _, t in pairs),
        histogram=None if filt.modulus is None else tuple(
            tuple(int(v) for v in row) for row in hist
        ),
    )
