"""Complete enumeration of cubic fields ordered by absolute discriminant.

Cubic fields correspond one-to-one with GL2(Z)-classes of irreducible
integral binary cubic forms whose cubic ring is maximal, and every class
has a unique canonical representative (forms.py).  This module sweeps the
canonical region directly: for each (a, b, c) it intersects, in exact
integer arithmetic, the runs of d allowed by the region inequalities and
by the |disc| window, so every field appears exactly once.  One sweep
loop (_sweep) serves both signs; a sign differs only in its region
function, which gives each a's b values, c ranges, d-intervals and any
band to cut.  Grid blocks and row chunks have fixed budgets, and triples
whose concave disc(d) cannot reach the window on their region interval
are dropped first, so a window costs about what it emits.

A range is cut once, into equal windows (map_windows), and each is built
on its own: the window bounds memory, is the unit of parallel work, and
glues back deterministically.  A live census keeps only its admissible
|disc| values, so its windows are up to _WINDOW wide; the complete route
keeps nearly every swept form, so its windows are up to the narrower
_COMPLETE_WINDOW (the first builds in under 90 MB).  One window step
(_window_batch) takes a window's forms in chunks in (a, b, c, d) order,
the sweep's bounded chunks or a cache slice, so both routes decide a
field alike.  Its stages, in order: on each chunk as it comes, disc and
region check, the cut to a live census's admissible |disc| values, and
content, so only survivors are kept and the whole sweep is never held;
then maximality at 2 and 3 (where 4 | disc and 9 | disc), irreducibility
(a mod-q root sieve, then an exact integer root test), the cone boundary
(positive sign), one sort by (|disc|, row), factoring (a strided window
table when dense, division when sparse), one pass over all (record, p)
pairs for their T tags, maximality at p >= 5 (e >= 3, or e = 2 without
T, as ramification there is tame), and the tag check.
"""

from __future__ import annotations

import functools
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from s3census.forms import (
    SMALL_GL2,
    BinaryCubicForm,
    ConsistencyError,
    _reduce_complex,
    _reduce_real,
    _require,
    content,
    discriminant,
    is_irreducible,
)
from s3census.local_analysis import (
    RamifiedPrime,
    factorize,
    is_cyclic,
    is_maximal,
    ramification_profile,
)
from s3census.predictor import _primes

_SENT = 1 << 40  # beyond any d the sweeps can reach, safe under int64 run algebra
_WINDOW = 8_000_000           # |disc| width of a live census window
_COMPLETE_WINDOW = 2_000_000  # and of a complete one, which keeps every swept row
_TRIPLES = 1 << 16            # (b, c) triples of a sweep's grid block
_ROWS = 1 << 16               # and rows of a sweep chunk
_MAX_THREADS = 64
_ORACLE_LIMIT = 100_000
_SIEVE = (2, 3, 5, 7, 11, 13)  # moduli of the root sieve in front of the exact test


@dataclass(frozen=True)
class EnumerationRange:
    """Half-open window lower <= |disc| < upper, with upper <= 2^63 as |disc| is int64."""

    lower: int
    upper: int

    def __post_init__(self):
        if not (0 <= self.lower < self.upper <= 2**63):
            raise ValueError("need 0 <= lower < upper <= 2^63 (|disc| is int64), got [%d, %d)"
                             % (self.lower, self.upper))


@dataclass(frozen=True)
class CubicFieldRecord:
    a: int
    b: int
    c: int
    d: int
    disc: int
    cyclic: bool
    profile: tuple[RamifiedPrime, ...]

    def form(self) -> BinaryCubicForm:
        return BinaryCubicForm(self.a, self.b, self.c, self.d)


def partition(rng: EnumerationRange, k: int) -> Iterator[EnumerationRange]:
    """Yield at most k contiguous subranges covering rng exactly, in order.

    Enumerating the pieces in order yields the same record sequence as
    enumerating rng directly.
    """
    if k < 1:
        raise ValueError("k must be positive")
    width = rng.upper - rng.lower
    k = min(k, width)
    base, extra = divmod(width, k)
    lo = rng.lower
    for i in range(k):
        hi = lo + base + (1 if i < extra else 0)
        yield EnumerationRange(lo, hi)
        lo = hi


def map_windows(fn, rng: EnumerationRange, width: int, threads: int = 1) -> Iterator:
    """fn over the windows of rng, yielded in window order.

    rng is cut into threads * ceil((upper - lower) / (threads * width))
    equal windows, taken and run in rounds of `threads` adjacent ones.  The
    calling thread runs the first window of each round while pool threads
    run the rest, so threads=1 starts no thread, and at most one round of
    windows is listed or in flight.
    """
    if not 1 <= threads <= _MAX_THREADS:
        raise ValueError("threads must be between 1 and %d" % _MAX_THREADS)
    windows = partition(rng, threads * -(-(rng.upper - rng.lower) // (threads * width)))
    with ThreadPoolExecutor(max_workers=max(threads - 1, 1)) as pool:
        while group := list(itertools.islice(windows, threads)):
            others = [pool.submit(fn, w) for w in group[1:]]
            yield fn(group[0])
            for other in others:
                yield other.result()


# --------------------------------------------------------------- run algebra


def _disc_coeffs(a, b, c):
    """a2, a1 and a0 of disc(a, b, c, d) = a2*d^2 + a1*d + a0, made one at a time."""
    yield -27 * a * a
    yield (18 * a * c - 4 * b * b) * b
    yield (b * b - 4 * a * c) * c * c


def _quadratic(a2, a1, a0):
    """The integer vertex v of q(d) = a2*d^2 + a1*d + a0 (a2 < 0), and q.

    Over the integers q rises up to v = floor(-a1 / 2a2) and falls from
    v + 1.  q evaluates by Horner steps, so at an integer d its int64
    intermediates are a2*d + a1 and (a2*d + a1)*d, never a1^2 or d^2.
    """
    def q(d):
        return (a2 * d + a1) * d + a0

    return (-a1) // (2 * a2), q


def _band_le(a2, a1, a0, thresh):
    """Integer solution band of a concave quadratic inequality.

    For a2 < 0 elementwise, the integers d with a2*d^2 + a1*d + a0 <= thresh
    form (-inf, uL] | [uR, +inf); returns (uL, uR), with uL = +SENT and
    uR = -SENT when every integer qualifies.  The band is not empty exactly
    when q(v) or q(v + 1) exceeds thresh, at the vertex v of _quadratic, and
    then uL <= v < uR.  Float roots only seed uL and uR, clamped to their
    side of v; exact integer predicates fix the returned endpoints.
    """
    a1 = np.asarray(a1, dtype=np.int64)
    a0 = np.asarray(a0, dtype=np.int64)
    v, q = _quadratic(a2, a1, a0)
    band = np.maximum(q(v), q(v + 1)) > thresh
    a1f, den = a1.astype(np.float64), 2.0 * a2
    s = np.sqrt(np.clip(a1f * a1f - 2.0 * den * (a0.astype(np.float64) - thresh), 0, None))
    uL = np.minimum(np.floor((s - a1f) / den).astype(np.int64), v)
    uR = np.maximum(np.ceil((-a1f - s) / den).astype(np.int64), v + 1)

    def settle(u, step, move):
        for _ in range(64):
            m = band & move(u)
            if not m.any():
                return
            u[m] += step
        raise ConsistencyError("band endpoint did not settle")

    settle(uL, -1, lambda u: q(u) > thresh)
    settle(uL, 1, lambda u: (u < v) & (q(u + 1) <= thresh))
    settle(uR, 1, lambda u: q(u) > thresh)
    settle(uR, -1, lambda u: (u > v + 1) & (q(u - 1) <= thresh))
    return np.where(band, uL, _SENT), np.where(band, uR, -_SENT)


def _cut(lo, hi, band_l, band_r):
    """Remove the open integer band (band_l, band_r) from [lo, hi].

    Returns two disjoint pieces; emptiness shows up as lo > hi.
    """
    hi1 = np.minimum(hi, band_l)
    lo2 = np.maximum(np.maximum(lo, band_r), hi1 + 1)
    return (lo, hi1), (lo2, hi)


def _blocks(sizes, budget):
    """Contiguous cuts [i, j) of sizes summing to at most budget, or of one item over it."""
    ends, i = np.cumsum(sizes), 0
    while i < len(sizes):
        j = max(i + 1, int(np.searchsorted(ends, ends[i] - sizes[i] + budget, side="right")))
        yield i, j
        i = j


def _expand(a, B, C, pieces):
    """Rows (a, b, c, d), stored column by column, of the runs lo <= d <= hi
    in pieces, in chunks of at most _ROWS rows or of one longer run.

    A triple's pieces are disjoint and ascend in d, so taking them triple by
    triple keeps the rows in (b, c, d) order."""
    lo = np.stack([p[0] for p in pieces], axis=1).ravel()
    hi = np.stack([p[1] for p in pieces], axis=1).ravel()
    keep = lo <= hi
    lo, w = lo[keep], (hi - lo + 1)[keep]
    B, C = (np.repeat(x, len(pieces))[keep] for x in (B, C))
    for i, j in _blocks(w, _ROWS):
        wi = w[i:j]
        out = np.empty((4, int(wi.sum())), dtype=np.int64)
        out[0] = a
        out[1] = np.repeat(B[i:j], wi)
        out[2] = np.repeat(C[i:j], wi)
        out[3] = _runs(lo[i:j], wi)
        yield out.T


def _runs(lo, w):
    """lo[k], lo[k] + 1, ..., lo[k] + w[k] - 1 for each k in turn."""
    return np.repeat(lo - (np.cumsum(w) - w), w) + np.arange(w.sum(), dtype=np.int64)


def _disc_reaches(a2, a1, a0, L, R, low, high):
    """Mask of triples whose disc can lie in [low, high] at an integer d in [L, R].

    disc(d) = a2*d^2 + a1*d + a0 with a2 < 0 is concave, so over the
    integers of [L, R] its maximum is at the vertex v of _quadratic or at
    v + 1, each clipped into [L, R], and its minimum is at L or R.  A triple
    is kept when L <= R, the maximum is >= low and the minimum is <= high: a
    superset of the triples with some d in [L, R] and disc(d) in the window,
    found by exact int64 Horner evaluation at four points of [L, R].

    At any d with |d| <= D = max(|L|, |R|) every Horner intermediate is at
    most |a2| D^2 + |a1| D + |a0| in absolute value, and that must stay
    below 2^63.  A float evaluation of that sum over every a of both region
    functions' grids (after the L <= R cut) at U = 5.8e9, the range of
    X = 1e20, gives at most 3.8e13 (negative) and 6.6e13 (positive): far
    inside int64, but a measurement, not a proof.  Every int64 value in the
    band solve is likewise a Horner value at an integer: here at four
    points of [L, R], in _band_le at v, v + 1 and the band ends.
    """
    v, q = _quadratic(a2, a1, a0)
    top = np.maximum(q(np.clip(v, L, R)), q(np.clip(v + 1, L, R)))
    bottom = np.minimum(q(L), q(R))
    return (L <= R) & (top >= low) & (bottom <= high)


def _window_pieces(a, B, C, L, R, low, high):
    """Each triple (a, b, c)'s d-pieces in [L, R] with low <= disc(d) <= high.

    Triples with L > R are taken out first, so the disc(d) coefficients are
    built only for the rest, and _disc_reaches drops those whose disc cannot
    meet [low, high] on [L, R] before the two band solves: the low end
    narrows [L, R], the high end cuts a middle band out of it.  Returns b
    and c of the kept triples, and their two disjoint pieces in ascending d.
    """
    live = L <= R
    B, C, L, R = B[live], C[live], L[live], R[live]
    a2, a1, a0 = _disc_coeffs(a, B, C)
    live = _disc_reaches(a2, a1, a0, L, R, low, high)
    B, C, L, R, a1, a0 = (x[live] for x in (B, C, L, R, a1, a0))
    nL, nR = _band_le(a2, a1, a0, low - 1)   # disc >= low inside (nL, nR)
    L = np.maximum(L, nL + 1)
    R = np.minimum(R, nR - 1)
    cL, cR = _band_le(a2, a1, a0, high)      # disc <= high outside (cL, cR)
    return B, C, _cut(L, R, cL, cR)


def _cdiv(n, m):
    # ceil for ints of any sign (m != 0)
    return -((-n) // m)


# ------------------------------------------------------------------- sweeps


def _negative_region(a, X):
    """Canonical region of negative |disc| <= X for one a, or None past the last a.

    Gives each b's c range; ad - bc > 0 and ad - bc < (a+b)^2 + ac give each
    (b, c) a d-interval [L, R], and d^2 - bd + ac - a^2 > 0 removes a middle
    band of it, given as a function of the kept b and c."""
    if 27 * a**4 > 16 * X:
        return None
    m_rad = (X / 3) ** 0.25 / a
    bmax = int(1.5 * a + (X / 3) ** 0.25) + 2
    c_lo = math.floor(a * (1 - m_rad)) - 2
    c_hi = math.ceil(0.75 * a + (X / 3) ** 0.25 + (X / 4) ** (1 / 3) / a ** (1 / 3)) + 2
    bs = np.arange(-bmax, bmax + 1, dtype=np.int64)
    return (bs, np.full(bs.shape, c_lo), np.full(bs.shape, c_hi),
            lambda B, C: (B * C // a + 1, _cdiv(B * C + (a + B) ** 2 + a * C, a) - 1),
            lambda B, C: _band_le(-1, B, a * a - a * C, -1))


def _positive_region(a, X):
    """Hessian cone of positive disc <= X for one a, or None past the last a.

    The cone 0 <= Q <= P <= R in the Hessian (P, Q, R) has P <= sqrt(disc),
    which pins each b's c range through P = b^2 - 3ac; the Q-window and the
    R >= P ray bound each (b, c)'s d to [L, R].  It cuts no band."""
    pmax = math.isqrt(X)
    if 27 * a * a > 4 * pmax:
        return None
    bmax = (3 * a + math.isqrt(4 * pmax - 27 * a * a)) // 2
    bs = np.arange(-bmax, bmax + 1, dtype=np.int64)
    p_low = np.maximum(1, bs * bs - 3 * a * np.abs(bs) + 9 * a * a)

    def interval(B, C):
        P = B * B - 3 * a * C
        L = _cdiv(B * C - P, 9 * a)              # Q <= P
        R = (B * C) // (9 * a)                   # Q >= 0
        rhi = np.where(B > 0, (C * C - P) // (3 * np.where(B > 0, B, 1)), _SENT)
        rlo = np.where(B < 0, _cdiv(C * C - P, 3 * np.where(B < 0, B, -1)), -_SENT)
        flat = (B == 0) & (C * C < P)            # R >= P fails for every d
        rhi = np.where(flat, -_SENT, rhi)
        return np.maximum(L, rlo), np.minimum(R, rhi)

    return bs, _cdiv(bs * bs - pmax, 3 * a), (bs * bs - p_low) // (3 * a), interval, None


def _sweep(lo: int, hi: int, sign: int, a: int = 1) -> Iterator[np.ndarray]:
    """Reduced forms of the given sign with lo <= |disc| < hi, in bounded chunks.

    The sign's region function gives each a's b values and their c ranges,
    sized from hi alone, each triple's d-interval and any band to cut.  The
    grid is built in blocks of whole b's of at most _TRIPLES triples (or one
    b), so the working set is bounded by the budgets, not by an a.  Yields
    _expand's chunks from the given a on, in (a, b, c, d) order."""
    low, high = (1 - hi, -max(lo, 1)) if sign < 0 else (max(lo, 1), hi - 1)
    region = _negative_region if sign < 0 else _positive_region
    while (grid := region(a, hi - 1)) is not None:
        bs, c_min, c_max, interval, band = grid
        counts = np.clip(c_max - c_min + 1, 0, None)
        for i, j in _blocks(counts, _TRIPLES):
            B, C = np.repeat(bs[i:j], counts[i:j]), _runs(c_min[i:j], counts[i:j])
            B, C, pieces = _window_pieces(a, B, C, *interval(B, C), low, high)
            if band is not None:
                tL, tR = band(B, C)
                pieces = [piece for p in pieces for piece in _cut(*p, tL, tR)]
            yield from _expand(a, B, C, pieces)
        a += 1


# ------------------------------------------------------------------ filters


def _hessian_vec(m):
    A, B, C, D = m[:, 0], m[:, 1], m[:, 2], m[:, 3]
    return B * B - 3 * A * C, B * C - 9 * A * D, C * C - 3 * B * D


def _disc_vec(m):
    disc, D = 0, m[:, 3]
    for coeff in _disc_coeffs(m[:, 0], m[:, 1], m[:, 2]):  # Horner steps
        disc = disc * D + coeff
        del coeff  # freed before the next is made: three row-sized arrays at most
    return disc


def _check_rows(m, disc, sign, lo, hi):
    absd = np.abs(disc)
    _require(np.all((np.sign(disc) == sign) & (absd >= lo) & (absd < hi)),
             "sweep emitted a form outside its window")
    A, B, C, D = m[:, 0], m[:, 1], m[:, 2], m[:, 3]
    _require(np.all(A > 0), "sweep emitted a form with a <= 0")
    if sign < 0:
        t1 = A * D - B * C
        _require(np.all(t1 > 0), "sweep emitted a form with ad - bc <= 0")
        _require(np.all((A + B) ** 2 + A * C - t1 > 0),
                 "sweep emitted a form with ad - bc >= (a+b)^2 + ac")
        _require(np.all(D * D - B * D + A * C - A * A > 0),
                 "sweep emitted a form with d^2 - bd + ac - a^2 <= 0")
    else:
        P, Q, R = _hessian_vec(m)
        _require(np.all((P > 0) & (Q >= 0) & (Q <= P) & (P <= R)),
                 "sweep emitted a form outside the Hessian cone")


@functools.cache
def _root_table(q: int) -> np.ndarray:
    """Flat table over (a, b, c, d) mod q: has the form a root in P^1(F_q)?"""
    a, b, c, d, k = np.meshgrid(*[np.arange(q)] * 5, indexing="ij", sparse=True)
    return ((a[..., 0] == 0) | np.any((((a * k + b) * k + c) * k + d) % q == 0, axis=-1)).ravel()


def _irreducible_mask(m):
    """Rows of m (nonzero disc) with no linear factor over Q, decided exactly.

    A rational root reduces to a root in P^1(F_q) for every prime q, so rows
    with no root mod a q in _SIEVE are irreducible.  The rest go to
    _has_integer_root: in int64 where a float bound on its values,
    (t + |b|) t^2 + |ac| t + a^2 |d| at t = T + 2, is below 2^62 (rounding
    stays far inside the 2x margin to 2^63), in Python integers beyond."""
    A, B, C, D = (m[:, j] for j in range(4))
    root = np.ones(len(m), dtype=bool)
    for q in _SIEVE:
        root &= _root_table(q)[((A % q * q + B % q) * q + C % q) * q + D % q]
    irr, rest = ~root, np.flatnonzero(root)
    a, b, c, d = np.abs(m[rest].astype(np.float64)).T
    t = a + np.maximum(np.maximum(b, c), d) + 2
    wide = ((t + b) * t + a * c) * t + a * a * d >= 2.0**62
    for rows, dtype in ((rest[~wide], np.int64), (rest[wide], object)):
        irr[rows] = ~_has_integer_root(*m[rows].astype(dtype).T)
    return irr


def _has_integer_root(A, B, C, D):
    """Rows where h(t) = t^3 + b t^2 + ac t + a^2 d = f(t, a) / a has an integer root.

    A root (u : v) of f in lowest terms has v | a, so f has a rational root
    exactly when h has the integer root ua/v (a = 0: t = 0).  Real roots
    have |t| <= T = |a| + max(|b|, |c|, |d|) (Cauchy's bound, times |a|).
    Integers m1 < m2 at the critical points cut the line into runs where h
    rises, falls and rises; bisecting each for its last t with h(t) <= 0
    (>= 0 where h falls) finds its one possible root.  Points evaluated
    have |t| <= T + 2.  Works on int64 and object arrays alike."""
    c1, c0 = A * C, A * A * D
    T = abs(A) + np.maximum(np.maximum(abs(B), abs(C)), abs(D))
    w = (-B) // 3  # h' = (3t + 2b)t + ac falls up to w and rises after it

    def slope(t):
        return (3 * t + 2 * B) * t + c1

    m1 = _last_true(lambda t: slope(t) >= 0, -T - 1, w)
    m2 = _last_true(lambda t: slope(t) < 0, w + 1, T + 1) + 1
    lo, hi = np.concatenate((-T, m1 + 1, m2)), np.concatenate((m1, m2 - 1, T))
    s, b, c1, c0 = np.repeat([1, -1, 1], len(A)), *(np.tile(x, 3) for x in (B, c1, c0))

    def h(t):
        return ((t + b) * t + c1) * t + c0

    t = _last_true(lambda t: s * h(t) <= 0, lo, hi)
    return ((t >= lo) & (h(t) == 0)).reshape(3, -1).any(axis=0)


def _last_true(pred, lo, hi):
    """Per row, the largest t in [lo, hi] with pred(t) (pred holds, then fails), or lo - 1."""
    L, R = lo - 1, hi + 1
    while (live := R - L > 1).any():
        mid = (L + R) // 2
        ok = pred(mid)
        L = np.where(live & ok, mid, L)
        R = np.where(live & ~ok, mid, R)
    return L


def _lex_less(x, y):
    out = np.zeros(len(x), dtype=bool)
    for j in reversed(range(x.shape[1])):  # a later column decides only a tie before it
        out = (x[:, j] < y[:, j]) | ((x[:, j] == y[:, j]) & out)
    return out


def _apply_vec(m, g):
    al, be, ga, de = g.g11, g.g21, g.g12, g.g22
    A, B, C, D = m[:, 0], m[:, 1], m[:, 2], m[:, 3]
    out = np.empty_like(m)
    out[:, 0] = A * al**3 + B * al * al * ga + C * al * ga * ga + D * ga**3
    out[:, 1] = (3 * A * al * al * be + B * (al * al * de + 2 * al * be * ga)
                 + C * (2 * al * ga * de + be * ga * ga) + 3 * D * ga * ga * de)
    out[:, 2] = (3 * A * al * be * be + B * (2 * al * be * de + be * be * ga)
                 + C * (al * de * de + 2 * be * ga * de) + 3 * D * ga * de * de)
    out[:, 3] = A * be**3 + B * be * be * de + C * be * de * de + D * de**3
    return out


def _cone_keep_mask(m):
    """Among Hessian-cone boundary forms, keep only the orbit lex minimum."""
    P, Q, R = _hessian_vec(m)
    border = (Q == 0) | (Q == P) | (P == R)
    keep = np.ones(len(m), dtype=bool)
    idx = np.flatnonzero(border)
    if idx.size == 0:
        return keep
    sub = m[idx]
    best = sub.copy()
    for g in SMALL_GL2:
        cand = _apply_vec(sub, g)
        neg = cand[:, 0] < 0
        cand[neg] = -cand[neg]
        p, q, r = _hessian_vec(cand)
        ok = (cand[:, 0] > 0) & (q >= 0) & (q <= p) & (p <= r)
        better = ok & _lex_less(cand, best)
        best[better] = cand[better]
    keep[idx] = ~_lex_less(best, sub)
    return keep


# ---------------------------------------------------------------- factoring


def _stride_hits(vals, lo, hi, primes):
    """(p, indices of vals divisible by p) by striding a window-sized slot table."""
    slot = np.full(hi - lo, -1, dtype=np.int32)
    slot[vals - lo] = np.arange(vals.size, dtype=np.int32)
    for p in primes.tolist():
        hits = slot[-(-max(lo, 1) // p) * p - lo :: p]
        yield p, hits[hits >= 0]


def _division_hits(vals, primes):
    """(p, indices of vals divisible by p) by one remainder pass per prime."""
    for p in primes.tolist():
        yield p, np.flatnonzero(vals % p == 0)


def _factor_pairs(absdisc: np.ndarray, lo: int, hi: int):
    """CSR-style (record index, prime, exponent) triples, primes ascending.

    The values ascend, and every one lies in the window [lo, hi).  Each
    prime p <= isqrt(hi - 1) finds its multiples among the distinct values
    and divides them out fully, so a cofactor left above 1 is prime.  A run
    of records sharing a value takes the pairs of that value.  The
    multiples come from striding a window-sized slot table when the values
    are dense, and from remainders of the distinct values when they are
    sparse (fewer value-prime pairs than window slots), as after the live
    census's admissible filter.
    """
    _require(np.all(absdisc[1:] >= absdisc[:-1]), "factoring needs ascending values")
    first = np.flatnonzero(np.diff(absdisc, prepend=-1))
    vals = absdisc[first]
    primes = _primes(math.isqrt(hi - 1))
    if vals.size * primes.size < hi - lo:
        hits = _division_hits(vals, primes)
    else:
        hits = _stride_hits(vals, lo, hi, primes)
    return _pairs_from_hits(vals, np.diff(first, append=absdisc.size), hits)


def _pairs_from_hits(vals, runs, prime_hits):
    """CSR triples for runs[i] records of value vals[i] in a row, from (p, hits) in ascending p.

    The hits of p are the indices of the values that p divides.  Each
    value's pairs are laid out in one block, in the order p is met, so no
    sort is needed; temporaries are int32 indices and int8 exponents."""
    rest = vals.copy()
    found = []
    nfac = np.zeros(vals.size, dtype=np.int32)
    for p, hits in prime_hits:
        vv = rest[hits] // p
        e = np.ones(hits.size, dtype=np.int8)
        more = np.flatnonzero(vv % p == 0)
        while more.size:
            vv[more] //= p
            e[more] += 1
            more = more[vv[more] % p == 0]
        rest[hits] = vv
        nfac[hits] += 1
        found.append((p, hits, e))
    big = np.flatnonzero(rest > 1)
    nfac[big] += 1
    fill = np.cumsum(nfac, dtype=np.int32) - nfac  # where each value's next pair goes
    vstart = fill.copy()
    ps = np.empty(int(nfac.sum()), dtype=np.int64)
    es = np.empty(ps.size, dtype=np.int8)
    for p, hits, e in found:
        at = fill[hits]
        ps[at], es[at] = p, e
        fill[hits] = at + 1
    ps[fill[big]], es[fill[big]] = rest[big], 1
    del found, fill
    counts = np.repeat(nfac, runs)
    shift = np.repeat(vstart, runs) - (np.cumsum(counts, dtype=np.int32) - counts)
    pos = np.arange(int(counts.sum()), dtype=np.int32) + np.repeat(shift, counts)
    idx = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    return idx, ps[pos], es[pos].astype(np.int64)


def _nonmax_2_3_mask(m, disc):
    """Records whose ring fails maximality at 2 or 3 (content 1 input).

    Only p^2 | disc can obstruct maximality at p.  Then, as in
    local_analysis.is_maximal_at, the ring is not maximal when p^2 | a and
    p | b (a repeated root at infinity), or p^2 | f(k, 1) and p | f'(k) for
    some k mod p."""
    nonmax = np.zeros(len(m), dtype=bool)
    for p, q in ((2, 4), (3, 9)):  # q = p^2
        sub = np.flatnonzero(disc % q == 0)
        A, B, C, D = m[sub].T
        bad = (A % q == 0) & (B % p == 0)
        for k in range(p):  # reduced at every step, as a wrapped product changes a residue mod 9
            fk = (((A * k % q + B) * k % q + C) * k % q + D) % q
            dk = ((3 * A * k % p + 2 * B) * k % p + C) % p
            bad |= (fk == 0) & (dk == 0)
        nonmax[sub[bad]] = True
    return nonmax


def _nonmax_mask(m, pair_idx, pair_p, pair_e):
    """Records whose ring fails maximality at some p >= 5, and the tag of every pair.

    A (record, p) pair is tagged T (totally ramified) exactly when the
    Hessian vanishes mod p, a triple root of f mod p, as in
    local_analysis.has_triple_root.  At p >= 5 ramification is tame, so a
    maximal ring has v_p(disc) <= 2, with 2 only when p is totally
    ramified (T).  A ring that is not maximal at p has a form with p^2 | a
    and p | b in its orbit, whose disc has v_p >= 2, and v_p >= 3 at a
    triple root mod p, where p | c too.  So the ring fails maximality at
    p >= 5 exactly when e >= 3, or e = 2 without T.  The rule reads the
    exponents, so they are checked against each form's own disc."""
    triple = np.ones(pair_idx.size, dtype=bool)
    for h in _hessian_vec(m):
        h = h[pair_idx]
        np.remainder(h, pair_p, out=h)  # one pair-sized array at a time
        triple &= h == 0
    sq = np.flatnonzero((pair_p >= 5) & (pair_e >= 2))
    idx, e = pair_idx[sq], pair_e[sq]
    _require(np.all(_disc_vec(m[idx]) % pair_p[sq] ** e == 0),
             "claimed p^e does not divide the form's disc")
    nonmax = np.zeros(len(m), dtype=bool)
    nonmax[idx[(e >= 3) | ~triple[sq]]] = True
    return nonmax, triple


def _check_tags(batch):
    """Exponent tripwires on the T/P tags of a batch of maximal records.

    The exponents a maximal ring allows, and the tag each implies, are those
    of local_analysis.ramification_profile.  At p >= 5, _nonmax_mask marks
    every e >= 3 and every e = 2 without T, so the "bad exponent" line and
    the e = 2 half of the next guard only a wrong drop in _window_batch."""
    p, e, total = batch.prof_p, batch.prof_e, batch.prof_total
    tame, at3, at2 = p >= 5, p == 3, p == 2
    _require(np.all(~tame | (e == 1) | (e == 2)), "bad exponent at p >= 5")
    _require(np.all(~tame | (total == (e == 2))), "Hessian test disagrees with exponent")
    _require(np.all(~at3 | (e == 1) | ((e >= 3) & (e <= 5))), "bad exponent at 3")
    _require(np.all(~at3 | (total == (e >= 3))), "Hessian test at 3 disagrees with exponent")
    _require(np.all(~at2 | (e == 2) | (e == 3)), "bad exponent at 2")
    _require(not np.any(at2 & total & (e == 3)), "wild cube with odd exponent")


def _cyclic_mask(disc: np.ndarray) -> np.ndarray:
    out = np.zeros(len(disc), dtype=bool)
    pos = disc > 0
    r = np.sqrt(disc[pos].astype(np.float64)).astype(np.int64)
    d = disc[pos]
    out[pos] = (r * r == d) | ((r + 1) ** 2 == d) | ((r - 1) * (r - 1) == d)
    return out


# ------------------------------------------------------------------- batches


@dataclass
class WindowBatch:
    """One |disc| window of fields, already sorted by (|disc|, a, b, c, d)."""

    coeffs: np.ndarray       # (n, 4) int64
    disc: np.ndarray         # (n,)   int64, signed
    cyclic: np.ndarray       # (n,)   bool
    prof_ptr: np.ndarray     # (n+1,) CSR offsets into the three pair arrays
    prof_p: np.ndarray
    prof_e: np.ndarray
    prof_total: np.ndarray

    @property
    def size(self) -> int:
        return len(self.disc)

    @property
    def pair_rows(self) -> np.ndarray:
        """The record of each (record, p) pair."""
        return np.repeat(np.arange(self.size, dtype=np.int64), np.diff(self.prof_ptr))

    def per_record(self, ufunc: np.ufunc, values: np.ndarray) -> np.ndarray:
        """ufunc reduced over each record's slice of a pair array, by one reduceat.

        reduceat would give a record with no pair the next record's value, or
        fail on the last record, so a record with no pair raises instead."""
        _require(np.all(np.diff(self.prof_ptr) > 0), "a record has no ramified prime")
        return ufunc.reduceat(values, self.prof_ptr[:-1]) if self.size else values[:0]


def _keep(mask, *arrays):
    # on row-major arrays np.compress copies rows several times faster than m[mask]
    return tuple(np.compress(mask, x, axis=0) for x in arrays)


def _swept_rows(chunks, lo: int, hi: int, sign: int, admissible: np.ndarray | None):
    """The primitive forms among the chunks (row-major, in order) and their discs.

    Each chunk is checked against the region and the window as it comes,
    cut to the |disc| values in `admissible` when given (one window-sized
    table), and cut to content 1; only its survivors are kept.
    """
    if admissible is not None:
        i, j = np.searchsorted(admissible, (lo, hi))
        table = np.zeros(hi - lo, dtype=bool)
        table[admissible[i:j] - lo] = True
    ms, discs = [np.empty((0, 4), dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for m in chunks:
        disc = _disc_vec(m)
        _check_rows(m, disc, sign, max(lo, 1), hi)
        if admissible is not None:
            keep = table[np.abs(disc) - lo]
            m, disc = m[keep], disc[keep]
        prim = np.gcd(np.gcd(m[:, 0], m[:, 1]), np.gcd(m[:, 2], m[:, 3])) == 1
        ms.append(m[prim])
        discs.append(disc[prim])
    return np.concatenate(ms), np.concatenate(discs)


def _window_batch(chunks, lo: int, hi: int, sign: int,
                  admissible: np.ndarray | None = None) -> WindowBatch:
    """The batch of the fields with lo <= |disc| < hi among the forms of chunks,
    (n, 4) arrays in (a, b, c, d) order: a sweep's bounded chunks, or a cache slice."""
    m, disc = _swept_rows(chunks, lo, hi, sign, admissible)
    m, disc = _keep(~_nonmax_2_3_mask(m, disc), m, disc)
    m, disc = _keep(_irreducible_mask(m), m, disc)
    if sign > 0:
        m, disc = _keep(_cone_keep_mask(m), m, disc)

    # rows are in (a, b, c, d) order, so unique keys |disc| * n + row sort fully
    n = len(disc)
    _require(hi * n < 2**63, "sort key of the window past int64")
    order = np.sort(np.abs(disc) * n + np.arange(n)) % n
    m, disc = np.take(m, order, axis=0), np.take(disc, order)
    del order

    pair_idx, pair_p, pair_e = _factor_pairs(np.abs(disc), lo, hi)
    nonmax, total = _nonmax_mask(m, pair_idx, pair_p, pair_e)
    ptr = np.concatenate(([0], np.cumsum(np.bincount(pair_idx, minlength=n))))
    del pair_idx
    batch = subset_batch(WindowBatch(m, disc, _cyclic_mask(disc), ptr, pair_p, pair_e, total),
                         ~nonmax)
    _check_tags(batch)
    return batch


def _build_batch(lo: int, hi: int, sign: int,
                 admissible: np.ndarray | None = None) -> WindowBatch:
    return _window_batch(_sweep(lo, hi, sign), lo, hi, sign, admissible)


def subset_batch(batch: WindowBatch, mask: np.ndarray) -> WindowBatch:
    """Restrict a batch to the records selected by a boolean mask."""
    counts = np.diff(batch.prof_ptr)
    ptr = np.concatenate(([0], np.cumsum(counts[mask])))
    return WindowBatch(*_keep(mask, batch.coeffs, batch.disc, batch.cyclic), ptr,
                       *_keep(np.repeat(mask, counts), batch.prof_p, batch.prof_e,
                              batch.prof_total))


def iter_batches(rng: EnumerationRange, sign: int,
                 admissible: np.ndarray | None = None,
                 threads: int = 1) -> Iterator[WindowBatch]:
    """Window-sized batches of fields, globally ordered by (|disc|, coeffs).

    With `admissible`, a sorted int64 array of |disc| values, only fields
    whose |disc| is in it are kept; the region check still sees every
    swept form.  Without it the enumeration is complete and keeps nearly
    every swept row, so its windows are the narrower _COMPLETE_WINDOW.
    `threads` windows are built at once (map_windows); the stream does not
    depend on it.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    width = _COMPLETE_WINDOW if admissible is None else _WINDOW
    # _build_batch is looked up per window, so a patched one is used
    return map_windows(lambda w: _build_batch(w.lower, w.upper, sign, admissible),
                       rng, width, threads)


def _batch_record(batch: WindowBatch, i: int) -> CubicFieldRecord:
    s, e = batch.prof_ptr[i], batch.prof_ptr[i + 1]
    profile = tuple(
        RamifiedPrime(int(batch.prof_p[j]), int(batch.prof_e[j]),
                      bool(batch.prof_total[j]))
        for j in range(s, e)
    )
    a, b, c, d = (int(x) for x in batch.coeffs[i])
    return CubicFieldRecord(a, b, c, d, int(batch.disc[i]),
                            bool(batch.cyclic[i]), profile)


def enumerate_fields(rng: EnumerationRange, sign: int) -> Iterator[CubicFieldRecord]:
    """All cubic fields with sign(disc) = sign and lower <= |disc| < upper.

    Yields one record per field (cyclic ones included, flagged), ordered by
    |disc| and then lexicographically by the canonical form coefficients.
    """
    for batch in iter_batches(rng, sign):
        for i in range(batch.size):
            yield _batch_record(batch, i)


# -------------------------------------------------------------------- oracle


def _disc_band(a, a1, p, t):
    """Integer band [lo, hi] of d with disc(a, b, c, d) >= t, or None."""
    # disc(d) - t = -27a^2 d^2 + a1 d + a0 - t has discriminant 16P^3 - 108a^2 t
    dd = 16 * p**3 - 108 * a * a * t
    if dd < 0:
        return None
    s = math.isqrt(dd)
    w = 54 * a * a
    return -((s - a1) // w), (a1 + s) // w


def _oracle_d_values(a, b, c, bound, sign):
    """Integers d with 1 <= |disc(a,b,c,d)| < bound and the wanted sign, ascending."""
    a1 = 18 * a * b * c - 4 * b**3
    p = b * b - 3 * a * c
    y = bound - 1
    t_outer, t_inner = (1, y + 1) if sign > 0 else (-y, 0)
    outer = _disc_band(a, a1, p, t_outer)
    if outer is None:
        return []
    lo, hi = outer
    inner_lo, inner_hi = _disc_band(a, a1, p, t_inner) or (hi + 1, hi)  # or empty
    out = [*range(lo, inner_lo), *range(inner_hi + 1, hi + 1)]
    a2, a0 = -27 * a * a, b * b * c * c - 4 * a * c**3
    for d in out:
        v = (a2 * d + a1) * d + a0
        _require(v != 0 and abs(v) < bound and (v > 0) == (sign > 0),
                 f"oracle band holds d={d} with disc {v}")
    return out


def brute_force_enumerate(upper: int, sign: int) -> list[CubicFieldRecord]:
    """Oracle enumeration by box scan plus per-form reduction.

    Scans a generous coefficient box for every form with |disc| < upper of
    the requested sign, reduces each primitive irreducible one, and decides
    each canonical form once: it is kept when maximal, which is a property
    of its ring and so of its whole orbit.  Shares no run arithmetic with
    the sweep, so agreement with enumerate_fields is a real cross-check.

    Only b >= 0 is scanned: (a, -b, c, -d) is the mirror image of (a, b, c, d)
    and so in the same orbit, and the box, the c loop's stop (which sees only
    P) and the d band (disc is unchanged) are all mirror-symmetric, so each
    skipped form's mirror is scanned and the orbits hit are the same.

    All exact integers: max disc(d) over real d is 4P^3 / 27a^2 with
    P = b^2 - 3ac, which falls as c rises, so the c loop stops at the first
    c where no d reaches the wanted sign; the wanted d are an isqrt band
    less an inner band.  For upper <= 100000 only: 5000 takes about 0.6 s (pos)
    and 0.8 s (neg), 20000 about 2.4 s and 3.6 s, on a 2-core host.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if upper > _ORACLE_LIMIT:
        raise ValueError("oracle is for small ranges")
    y = upper - 1
    if y < 1:
        return []
    reduce = _reduce_real if sign > 0 else _reduce_complex
    t_outer = 1 if sign > 0 else -y
    seen = {}  # canonical form -> its record, or None when not maximal
    amax = math.ceil(y**0.25) + 1
    bmax = math.ceil(2.6 * y**0.25) + 2
    cmax = math.ceil(2.6 * math.sqrt(y)) + 2
    for a in range(1, amax + 1):
        for b in range(bmax + 1):
            for c in range(-cmax, cmax + 1):
                if 4 * (b * b - 3 * a * c) ** 3 < 27 * a * a * t_outer:
                    break  # no d reaches t_outer, nor at any larger c
                for d in _oracle_d_values(a, b, c, upper, sign):
                    f = BinaryCubicForm(a, b, c, d)
                    if content(f) != 1 or not is_irreducible(f):
                        continue
                    cf = reduce(f)
                    if cf in seen:
                        continue
                    dd = discriminant(cf)
                    fact = factorize(dd)
                    seen[cf] = (CubicFieldRecord(cf.a, cf.b, cf.c, cf.d, dd, is_cyclic(cf),
                                                 ramification_profile(cf, fact))
                                if is_maximal(cf, fact) else None)
    return sorted((r for r in seen.values() if r is not None),
                  key=lambda r: (abs(r.disc), r.a, r.b, r.c, r.d))
