import itertools
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import s3census
from s3census import enumeration
from s3census.enumeration import (
    CubicFieldRecord,
    EnumerationRange,
    WindowBatch,
    _band_le,
    _disc_band,
    _disc_reaches,
    _division_hits,
    _factor_pairs,
    _oracle_d_values,
    _pairs_from_hits,
    _stride_hits,
    _sweep,
    brute_force_enumerate,
    enumerate_fields,
    iter_batches,
    map_windows,
    partition,
    subset_batch,
)
from s3census.forms import (
    SMALL_GL2,
    BinaryCubicForm,
    ConsistencyError,
    UnimodularMap,
    apply,
    canonical_reduce,
    content,
    discriminant,
    is_irreducible,
)
from s3census.local_analysis import (
    factorize,
    has_triple_root,
    is_cyclic,
    is_maximal,
    is_maximal_at,
    ramification_profile,
)
from s3census.census import CensusFilter, admissible_discriminants, tabulate
from s3census.predictor import _primes


def test_range_validation():
    with pytest.raises(ValueError):
        EnumerationRange(5, 5)
    with pytest.raises(ValueError):
        EnumerationRange(-1, 10)
    with pytest.raises(ValueError):
        EnumerationRange(10, 3)


def test_range_stops_at_int64():
    """|disc| is int64, so a range may reach 2^63 but not pass it."""
    assert EnumerationRange(0, 2**63).upper == 2**63
    with pytest.raises(ValueError, match="2\\^63"):
        EnumerationRange(0, 2**63 + 1)
    with pytest.raises(ValueError, match="2\\^63"):
        EnumerationRange(0, 10**30)


def test_first_records_negative():
    recs = list(enumerate_fields(EnumerationRange(0, 24), -1))
    assert [r.disc for r in recs] == [-23]
    assert (recs[0].a, recs[0].b, recs[0].c, recs[0].d) == (1, -1, 2, -1)
    assert not recs[0].cyclic


def test_first_records_positive():
    recs = list(enumerate_fields(EnumerationRange(0, 100), 1))
    assert [(r.disc, r.cyclic) for r in recs] == [(49, True), (81, True)]
    recs = list(enumerate_fields(EnumerationRange(0, 200), 1))
    assert [(r.disc, r.cyclic) for r in recs] == [
        (49, True), (81, True), (148, False), (169, True)]


def test_bad_sign_rejected():
    with pytest.raises(ValueError):
        list(enumerate_fields(EnumerationRange(0, 100), 0))
    with pytest.raises(ValueError):
        brute_force_enumerate(100, 2)


def test_oracle_range_cap():
    with pytest.raises(ValueError):
        brute_force_enumerate(200_000, 1)


@pytest.mark.parametrize("sign", [1, -1])
def test_matches_oracle_small(sign, monkeypatch):
    """The oracle agrees with the sweep while scanning only the half box b >= 0."""
    honest, bs = enumeration._oracle_d_values, set()

    def d_values(a, b, c, bound, sign):
        bs.add(b)
        return honest(a, b, c, bound, sign)

    monkeypatch.setattr(enumeration, "_oracle_d_values", d_values)
    fast = list(enumerate_fields(EnumerationRange(0, 1500), sign))
    slow = brute_force_enumerate(1500, sign)
    assert fast == slow
    assert min(bs) == 0


@pytest.mark.slow
@pytest.mark.parametrize("sign, count", [(1, 832), (-1, 3169)])
def test_matches_oracle_at_20000(sign, count):
    fast = list(enumerate_fields(EnumerationRange(0, 20_000), sign))
    assert len(fast) == count
    assert fast == brute_force_enumerate(20_000, sign)


@given(*[st.integers(-10**12, 10**12)] * 4)
def test_oracle_band_discriminant_identity(a, b, c, t):
    a2, a1, a0 = -27 * a * a, 18 * a * b * c - 4 * b**3, b * b * c * c - 4 * a * c**3
    assert a1 * a1 - 4 * a2 * (a0 - t) == 16 * (b * b - 3 * a * c) ** 3 - 108 * a * a * t


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 13), st.integers(-33, 33), st.integers(-60, 60),
       st.integers(2, 20_001), st.sampled_from([1, -1]))
@example(1, 0, -3, 82, 1)  # disc(d) = 108 - 27 d^2 reaches 81 exactly at d = +-1
@example(1, 0, 1, 5, -1)  # 16 P^3 - 108 a^2 t = 0: the outer band is d = 0 alone
@example(1, 0, 2, 5, -1)  # 4 P^3 < 27 a^2 t: the c loop stops here
def test_oracle_d_values_match_plain_scan(a, b, c, bound, sign):
    # every d with disc(d) >= -y has 27 a^2 |d| <= |a1| + |a0| + y once |d| >= 1
    a2, a1, a0 = -27 * a * a, 18 * a * b * c - 4 * b**3, b * b * c * c - 4 * a * c**3
    y = bound - 1
    dmax = max(1, (abs(a1) + abs(a0) + y) // (27 * a * a))
    d = np.arange(-dmax, dmax + 1, dtype=np.int64)
    v = (a2 * d + a1) * d + a0
    want = d[(v != 0) & (np.abs(v) < bound) & ((v > 0) == (sign > 0))].tolist()
    assert _oracle_d_values(a, b, c, bound, sign) == want
    # disc(a, -b, c, -d) = disc(a, b, c, d): the oracle's half box b >= 0 relies on it
    assert _oracle_d_values(a, -b, c, bound, sign) == sorted(-x for x in want)
    if 4 * (b * b - 3 * a * c) ** 3 < 27 * a * a * (1 if sign > 0 else -y):
        assert want == []


@settings(deadline=None)
@given(st.builds(BinaryCubicForm, *[st.integers(-12, 12)] * 4))
@example(BinaryCubicForm(1, 0, 0, 4))  # Z[4^(1/3)] has index 2 in the ring of Q(2^(1/3))
def test_maximality_is_orbit_invariant(f):
    """The oracle decides maximality once per orbit, on its canonical form."""
    dd = discriminant(f)
    assume(dd != 0)
    fact = factorize(dd)
    want = is_maximal(f, fact)
    event("maximal" if want else "not maximal")
    for g in SMALL_GL2:
        assert is_maximal(apply(g, f), fact) == want


@pytest.mark.parametrize("sign", [1, -1])
def test_record_invariants(sign):
    recs = list(enumerate_fields(EnumerationRange(0, 3000), sign))
    assert len(recs) > 0
    seen = set()
    last_key = None
    for r in recs:
        f = r.form()
        assert discriminant(f) == r.disc
        assert (r.disc > 0) == (sign > 0)
        assert canonical_reduce(f) == f
        assert f not in seen
        seen.add(f)
        key = (abs(r.disc), r.a, r.b, r.c, r.d)
        assert last_key is None or last_key < key
        last_key = key
        fact = factorize(r.disc)
        assert r.profile == ramification_profile(f, fact)
        assert r.cyclic == is_cyclic(f)


def test_partition_glues_back():
    rng = EnumerationRange(0, 4000)
    whole = list(enumerate_fields(rng, -1))
    for k in (1, 3, 9):
        parts = list(partition(rng, k))
        assert parts[0].lower == rng.lower and parts[-1].upper == rng.upper
        for prev, nxt in zip(parts, parts[1:]):
            assert prev.upper == nxt.lower
        glued = [r for sub in parts for r in enumerate_fields(sub, -1)]
        assert glued == whole


def test_partition_small_width():
    rng = EnumerationRange(10, 13)
    parts = list(partition(rng, 8))
    assert len(parts) == 3
    assert [p.lower for p in parts] == [10, 11, 12]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_windows_tile_the_range_in_rounds(k):
    for lo, hi in ((0, 1), (10, 12), (0, 1_000), (0, 1_001), (17, 5_017), (3, 12_345)):
        windows = list(map_windows(lambda w: w, EnumerationRange(lo, hi), 1_000, k))
        assert windows[0].lower == lo and windows[-1].upper == hi
        assert all(a.upper == b.lower for a, b in zip(windows, windows[1:]))
        widths = [w.upper - w.lower for w in windows]
        assert max(widths) <= 1_000 and max(widths) - min(widths) <= 1
        assert len(windows) % k == 0 or len(windows) == hi - lo < k
        # the fewest full rounds that keep every window within the width
        assert len(windows) in (hi - lo, k * -(-(hi - lo) // (k * 1_000)))


def test_first_round_is_taken_without_listing_the_range(monkeypatch):
    """[0, 2e11) is 10^5 complete windows; the first batch comes after one
    round of them is taken, not after all of them are listed."""
    monkeypatch.setattr(enumeration, "_build_batch", lambda lo, hi, *args: (lo, hi))
    tracemalloc.start()
    try:
        first = next(iter_batches(EnumerationRange(0, 2 * 10**11), -1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == (0, enumeration._COMPLETE_WINDOW)
    assert peak < 10**6


@pytest.mark.parametrize("threads", [0, -1, 65])
def test_window_map_rejects_thread_counts_out_of_bounds(threads):
    with pytest.raises(ValueError, match="threads"):
        list(map_windows(lambda w: w, EnumerationRange(0, 10), 1_000, threads))


def test_a_failing_window_stops_the_next_rounds(monkeypatch):
    """An error on the caller's window of round 2 surfaces once that round
    is done: no window of a later round is started."""
    filt, cps = CensusFilter(1), [10**12]
    upper = int(admissible_discriminants(cps[-1], filt)[-1]) + 1
    monkeypatch.setattr(enumeration, "_WINDOW", -(-upper // 12))
    windows = list(partition(EnumerationRange(0, upper), 12))
    built = []
    build = enumeration._build_batch

    def spy(lo, hi, *args):
        built.append(lo)
        if lo == windows[2].lower:
            raise ConsistencyError("third window")
        return build(lo, hi, *args)

    monkeypatch.setattr(enumeration, "_build_batch", spy)
    with pytest.raises(ConsistencyError, match="third window"):
        tabulate(cps, filt, threads=2)
    assert sorted(built) == [w.lower for w in windows[:4]]


def test_inner_ranges_match_slicing():
    all_recs = list(enumerate_fields(EnumerationRange(0, 4000), 1))
    mid = list(enumerate_fields(EnumerationRange(700, 2100), 1))
    assert mid == [r for r in all_recs if 700 <= abs(r.disc) < 2100]


@settings(max_examples=150, deadline=None)
@given(
    a2=st.integers(min_value=-200, max_value=-1),
    a1=st.integers(min_value=-3000, max_value=3000),
    a0=st.integers(min_value=-50000, max_value=50000),
    thresh=st.integers(min_value=-60000, max_value=60000),
)
def test_band_le_against_scan(a2, a1, a0, thresh):
    uL, uR = _band_le(np.array([a2]), np.array([a1]), np.array([a0]), thresh)
    uL, uR = int(uL[0]), int(uR[0])
    for d in range(-300, 301):
        want = a2 * d * d + a1 * d + a0 <= thresh
        got = d <= uL or d >= uR
        assert want == got, (a2, a1, a0, thresh, d)


def _assert_band_le_exact(a, b, c, t):
    """_band_le on disc(d) <= t against the oracle's isqrt band of disc(d) > t."""
    a1, p = 18 * a * b * c - 4 * b**3, b * b - 3 * a * c
    a0 = b * b * c * c - 4 * a * c**3
    uL, uR = _band_le(-27 * a * a, np.array([a1]), np.array([a0]), t)
    band = _disc_band(a, a1, p, t + 1)
    if band is None or band[0] > band[1]:
        band = (enumeration._SENT + 1, -enumeration._SENT - 1)
    assert (int(uL[0]), int(uR[0])) == (band[0] - 1, band[1] + 1), (a, b, c, t)


# P = b^2 - 3ac near 10^6: 16 P^3 passes 2^63 there.  The vertex is 0 for
# (1, 0, c), the integer c - 2 for (1, 3, c), and half an integer for (2, 3, even c).
@pytest.mark.parametrize("a, b, c", [(1, 0, -333334), (1, 3, -333334), (2, 3, -150000),
                                     (369, 1100, -200), (7, -25, -47620)])
def test_band_le_is_exact_where_the_discriminant_passes_int64(a, b, c):
    a1, a0 = 18 * a * b * c - 4 * b**3, b * b * c * c - 4 * a * c**3
    assert 16 * (b * b - 3 * a * c) ** 3 >= 2**63
    v = a1 // (54 * a * a)
    top = max((-27 * a * a * d + a1) * d + a0 for d in (v, v + 1))
    for t in (0, -(10**11), -(10**15), 10**9, top - 1, top, top + 1, top - 10**6):
        _assert_band_le_exact(a, b, c, t)


@st.composite
def _wide_band_cases(draw):
    """Form-shaped (a, b, c, t) with 16 P^3 - 108 a^2 t >= 2^63 and int64 Horner values."""
    a = draw(st.integers(1, 700))
    b = draw(st.integers(-1200, 1200))
    p = draw(st.integers(840_000, 2_000_000 * round(a ** (2 / 3))))
    c = (b * b - p) // (3 * a)
    p = b * b - 3 * a * c
    assume(4 * p**3 < 27 * a * a * 2**61)  # the largest disc(d) over real d
    t = draw(st.integers(-(2**61), (16 * p**3 - 2**63) // (108 * a * a)))
    return a, b, c, t


@settings(max_examples=300, deadline=None)
@given(_wide_band_cases())
def test_band_le_matches_the_isqrt_band_past_int64(case):
    _assert_band_le_exact(*case)


def _window_scan(sign, a, lo, hi, bmax, cs):
    """Rows (a, b, c, d) with lo <= |disc| < hi of the sign's region, b and c over
    a box, by Python integers: the negative region's three inequalities, or the
    Hessian cone 0 <= Q <= P <= R.  A float pass keeps the (b, c) whose window
    roots come within 0.01 of an integer of the region's d-interval, widened by
    0.01; their float error here is far below that, so the pass only saves time."""
    B, C = (x.ravel() for x in np.meshgrid(np.arange(-bmax, bmax + 1), cs, indexing="ij"))
    a1, p = (18 * a * B * C - 4 * B**3).astype(float), (B * B - 3 * a * C).astype(float)
    if sign < 0:
        L = B * C // a + 1.0
        R = -(-(B * C + (a + B) ** 2 + a * C) // a) - 1.0
    else:  # 0 <= Q <= P and P <= R, each linear in d
        bc, r = (B * C).astype(float), (C * C).astype(float) - p
        ray = r / (3 * np.where(B == 0, 1, B))  # R >= P: d <= ray (b > 0), d >= ray (b < 0)
        L = np.maximum((bc - p) / (9 * a), np.where(B < 0, ray, -np.inf))
        R = np.minimum(bc / (9 * a), np.where(B > 0, ray, np.inf))
        R[(B == 0) & (r < 0)] = -np.inf
        L, R = np.ceil(L - 0.01), np.floor(R + 0.01)

    def roots(t):
        s = np.sqrt(np.clip(16 * p**3 - 108.0 * a * a * t, 0, None))
        return (a1 - s) / (54 * a * a), (a1 + s) / (54 * a * a)

    t_out, t_in = (1 - hi, 1 - lo) if sign < 0 else (lo, hi)
    (o1, o2), (i1, i2) = roots(t_out), roots(t_in)
    near = np.zeros(B.size, dtype=bool)
    for x, y in ((o1, i1), (i2, o2)):
        near |= np.maximum(np.ceil(x - 0.01), L) <= np.minimum(np.floor(y + 0.01), R)
    rows = []
    for b, c in zip(B[near].tolist(), C[near].tolist()):
        a1, p = 18 * a * b * c - 4 * b**3, b * b - 3 * a * c
        outer = _disc_band(a, a1, p, t_out)
        if outer is None:
            continue
        o1, o2 = outer
        i1, i2 = _disc_band(a, a1, p, t_in) or (o2 + 1, o2)
        for d in [*range(o1, min(i1, o2 + 1)), *range(max(i2 + 1, o1), o2 + 1)]:
            if sign < 0:
                t1 = a * d - b * c
                inside = 0 < t1 < (a + b) ** 2 + a * c and d * d - b * d + a * c - a * a > 0
            else:
                q, r = b * c - 9 * a * d, c * c - 3 * b * d
                inside = 0 <= q <= p <= r
            if inside:
                rows.append((a, b, c, d))
    return np.array(rows, dtype=np.int64).reshape(-1, 4)


def _rows_of_a(lo, hi, sign, a):
    """Every row the sweep gives for a, which its first chunks hold."""
    chunks = itertools.takewhile(lambda m: m[0, 0] == a, _sweep(lo, hi, sign, a))
    return np.concatenate(list(chunks))


def test_negative_sweep_is_exact_where_the_discriminant_passes_int64():
    # a = 369 on the top 8e6 window below 1e11 (sextic X about 3e22): the
    # P = b^2 - 3ac of its grid pass 8.3e5, and 16 P^3 passes 2^63.  The box
    # is wider than the sweep's grid for this a (|b| <= 982, -60 <= c <= 1114).
    lo, hi = 10**11 - 8_000_000, 10**11
    rows = _rows_of_a(lo, hi, -1, 369)
    assert len(rows) == 1784
    scan = _window_scan(-1, 369, lo, hi, 1100, np.arange(-150, 1251))
    assert np.array_equal(rows, scan)


def test_positive_sweep_is_exact_in_a_far_window():
    # a = 80 on the same window, above anything the oracle reaches.  The box
    # is wider than the sweep's grid for this a: |b| <= 642 + 5, and
    # 0 < P <= isqrt(hi - 1) = 316 227 bounds c for each b.
    lo, hi = 10**11 - 8_000_000, 10**11
    rows = _rows_of_a(lo, hi, 1, 80)
    assert len(rows) == 4487
    scan = _window_scan(1, 80, lo, hi, 647, np.arange(-1322, 1750))
    assert np.array_equal(rows, scan)


@st.composite
def _reach_cases(draw):
    a2 = draw(st.integers(min_value=-60, max_value=-1))
    L = draw(st.integers(min_value=-80, max_value=80))
    R = L + draw(st.integers(min_value=-3, max_value=40))  # L > R and L = R too
    # a vertex anywhere, or one near [L, R], possibly just outside it
    near = draw(st.integers(min_value=L - 4, max_value=max(L, R) + 4))
    a1 = draw(st.one_of(
        st.integers(min_value=-3000, max_value=3000),
        st.integers(min_value=-abs(a2), max_value=abs(a2)).map(lambda k: 2 * -a2 * near + k),
    ))
    a0 = draw(st.integers(min_value=-50_000, max_value=50_000))

    def f(d):
        return (a2 * d + a1) * d + a0

    # window ends on |disc| values the form takes near [L, R], and one off;
    # the values at the two integers around the vertex and at L, R come first
    v = a1 // (-2 * a2)
    key = [v, v + 1, L, R]
    ends = [max(0, abs(f(d)) + k) for d in key + list(range(L - 1, max(L, R) + 2))
            for k in (0, 1, -1)]
    end = st.one_of(st.sampled_from(ends[:12]), st.sampled_from(ends),
                    st.integers(min_value=0, max_value=10**6))
    lo, top = sorted((draw(end), draw(end)))
    hi = max(top + draw(st.integers(min_value=0, max_value=1)), lo + 1)
    sign = draw(st.sampled_from([1, -1]))
    return a2, a1, a0, L, R, sign, lo, hi


@settings(max_examples=600, deadline=None)
@given(_reach_cases())
@example((-5, 17, 0, 0, 5, 1, 14, 100))  # the maximum is at floor(vertex) + 1
@example((-5, 17, 0, 0, 5, -1, 40, 100))  # the minimum, at R, equals -lo
def test_disc_reaches_against_scan(case):
    a2, a1, a0, L, R, sign, lo, hi = case
    # the disc interval each sweep passes for the window lo <= |disc| < hi
    lo_eff = max(lo, 1)
    low, high = (lo_eff, hi - 1) if sign > 0 else (1 - hi, -lo_eff)
    kept = bool(_disc_reaches(a2, np.array([a1]), np.array([a0]),
                              np.array([L]), np.array([R]), low, high)[0])
    values = [(a2 * d + a1) * d + a0 for d in range(L, R + 1)]
    assert kept or not any(low <= v <= high for v in values), case
    assert kept == bool(values and max(values) >= low and min(values) <= high), case


@pytest.mark.parametrize("sign", [1, -1])
def test_admissible_subset_matches_complete_batches(sign, monkeypatch):
    monkeypatch.setattr(enumeration, "_WINDOW", 7_001)
    monkeypatch.setattr(enumeration, "_COMPLETE_WINDOW", 7_001)
    rng = EnumerationRange(0, 30_000)
    admissible = np.arange(1, rng.upper, 7, dtype=np.int64)
    complete = list(iter_batches(rng, sign))
    kept = list(iter_batches(rng, sign, admissible))
    assert len(kept) == len(complete) == 5
    for full, sub in zip(complete, kept):
        want = subset_batch(full, np.isin(np.abs(full.disc), admissible))
        for name, value in vars(want).items():
            assert np.array_equal(getattr(sub, name), value), name
    assert sum(b.size for b in kept) > 0


def _stream(batches):
    """Concatenated columns of a batch stream, pair counts per record included."""
    batches = list(batches)
    names = ("coeffs", "disc", "cyclic", "prof_p", "prof_e", "prof_total")
    cols = [np.concatenate([getattr(b, n) for b in batches]) for n in names]
    return cols + [np.concatenate([np.diff(b.prof_ptr) for b in batches])]


@st.composite
def _split_ranges(draw):
    upper = draw(st.one_of(st.integers(min_value=2, max_value=2000),
                           st.integers(min_value=100_000, max_value=300_000)))
    cuts = draw(st.lists(st.integers(min_value=1, max_value=upper - 1),
                         min_size=1, max_size=3, unique=True))
    # a cut just past another gives the narrow pieces
    cuts += [c + draw(st.integers(min_value=1, max_value=50)) for c in cuts[:1]]
    ends = [0] + sorted({c for c in cuts if c < upper}) + [upper]
    stride = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=40)))
    return ends, draw(st.sampled_from([1, -1])), stride


@settings(max_examples=12, deadline=None)
@given(_split_ranges())
def test_partition_independence_at_random_cuts(case):
    ends, sign, stride = case
    admissible = None if stride is None else np.arange(stride, ends[-1], stride,
                                                       dtype=np.int64)
    whole = _stream(iter_batches(EnumerationRange(0, ends[-1]), sign, admissible))
    pieces = _stream(b for lo, hi in zip(ends, ends[1:])
                     for b in iter_batches(EnumerationRange(lo, hi), sign, admissible))
    for got, want in zip(pieces, whole):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _assert_factor_pairs(vals, lo, hi):
    # a window's records reach factoring sorted by |disc|
    vals = np.sort(np.asarray(vals, dtype=np.int64))
    idx, p, e = _factor_pairs(vals, lo, hi)
    assert idx.dtype == p.dtype == e.dtype == np.int64
    assert np.all(np.diff(idx) >= 0)
    # rebuild each factorization from the CSR triples
    got = {}
    for j, pp, ee in zip(idx.tolist(), p.tolist(), e.tolist()):
        got.setdefault(j, []).append((pp, ee))
    for i, v in enumerate(vals.tolist()):
        assert got.get(i, []) == list(factorize(v).factors), v


def test_factor_pairs_match_scalar():
    vals = [23, 44, 108, 972, 2**10 * 3**4 * 7, 9973, 2 * 3 * 5 * 7 * 11]
    _assert_factor_pairs(vals, 0, max(vals) + 1)
    with pytest.raises(ConsistencyError, match="ascending"):
        _factor_pairs(np.array(vals, dtype=np.int64), 0, max(vals) + 1)


@st.composite
def _factor_windows(draw):
    lo = draw(st.one_of(st.integers(min_value=0, max_value=10**7),
                        st.integers(min_value=10**6, max_value=10**7)))
    # narrow windows mostly stride a slot table, wide ones divide
    hi = lo + draw(st.one_of(st.integers(min_value=1, max_value=500),
                             st.integers(min_value=1, max_value=5000),
                             st.integers(min_value=50_000, max_value=300_000)))
    root = math.isqrt(hi - 1)
    # the window ends, every square in it (prime squares included), the
    # first primes above isqrt(hi - 1), and products of powers of 2 and 3
    special = [lo, hi - 1] + [r * r for r in range(math.isqrt(lo), root + 1)]
    above = [q for q in range(root + 1, root + 60)
             if all(q % r for r in range(2, math.isqrt(q) + 1))]
    special += above[:4]
    special += [2**j * 3**k for j in range(24) for k in range(15)]
    pool = sorted({v for v in special if max(lo, 1) <= v < hi})
    value = st.integers(min_value=max(lo, 1), max_value=max(lo, 1, hi - 1))
    if pool:
        value = st.one_of(value, st.sampled_from(pool))
    vals = draw(st.lists(value, max_size=60)) if hi > 1 else []
    return vals + vals[: draw(st.integers(0, len(vals)))], lo, hi


@settings(max_examples=300, deadline=None)
@given(_factor_windows())
def test_factor_pairs_window_matches_factorize(window):
    vals, lo, hi = window
    _assert_factor_pairs(vals, lo, hi)
    uniq, runs = np.unique(np.asarray(vals, dtype=np.int64), return_counts=True)
    primes = _primes(math.isqrt(hi - 1))
    event("divide" if uniq.size * primes.size < hi - lo else "stride")
    strided = _pairs_from_hits(uniq, runs, _stride_hits(uniq, lo, hi, primes))
    divided = _pairs_from_hits(uniq, runs, _division_hits(uniq, primes))
    for got, want in zip(divided, strided):
        assert np.array_equal(got, want)


def test_region_check_survives_optimised_interpreter():
    """Under `python -O`, a form moved out of its window fails the region
    check, a flipped T/P tag fails the resolvent's dual-route check, a
    flipped cyclic flag fails the resolvent's square test, a wrong
    total-ramification answer fails the oracle's tag check, a claimed
    5^2 | disc of x^3 + y^3 (disc -27) fails the maximality pass,
    a T tag at 2 with e = 3 and a P tag at 5 with e = 2 fail the tag check,
    and a band end seeded 1000 steps off fails the band settle."""
    script = textwrap.dedent("""
        import numpy as np
        from s3census import enumeration as en, local_analysis as la
        from s3census.forms import BinaryCubicForm
        from s3census.sextic import resolvent_vec

        assert False, "asserts must be stripped"
        sweep, build = en._sweep, en._build_batch

        def moved(lo, hi, sign):
            chunks = sweep(lo, hi, sign)
            m = next(chunks).copy()
            m[0, 3] += 10**4
            yield m
            yield from chunks

        def flipped(*args):
            batch = build(*args)
            batch.prof_total[0] = not batch.prof_total[0]
            return batch

        def uncyclic(*args):
            batch = build(*args)
            batch.cyclic[0] = not batch.cyclic[0]
            return batch

        en._sweep = moved
        try:
            list(en.iter_batches(en.EnumerationRange(0, 1000), -1))
        except en.ConsistencyError as exc:
            print(exc)
        en._sweep = sweep
        for wrong in (flipped, uncyclic):
            en._build_batch = wrong
            try:
                resolvent_vec(next(en.iter_batches(en.EnumerationRange(0, 1000), -1)))
            except en.ConsistencyError as exc:
                print(exc)
        la.is_totally_ramified = lambda f, p: True
        try:  # disc -23, so 23 ramifies partially
            la.ramification_profile(BinaryCubicForm(1, 0, -1, -1), la.factorize(-23))
        except en.ConsistencyError as exc:
            print(exc)
        try:  # x^3 + y^3 (disc -27) with the pair (5, e = 2) claimed
            en._nonmax_mask(np.array([[1, 0, 0, 1]]), *np.array([[0], [5], [2]]))
        except en.ConsistencyError as exc:
            print(exc)
        for p, e, total in ((2, 3, True), (5, 2, False)):
            batch = en.WindowBatch(np.ones((1, 4), dtype=np.int64), np.ones(1, dtype=np.int64),
                                   np.zeros(1, dtype=bool), np.array([0, 1]), np.array([p]),
                                   np.array([e]), np.array([total]))
            try:
                en._check_tags(batch)
            except en.ConsistencyError as exc:
                print(exc)
        floor = np.floor
        np.floor = lambda x: floor(x) - 1000
        try:
            en._band_le(-27, np.array([0]), np.array([4 * 333334**3]), 0)
        except en.ConsistencyError as exc:
            print(exc)
    """)
    env = dict(os.environ)
    src = str(Path(s3census.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == ("sweep emitted a form outside its window\n"
                          "discriminant routes disagree at a prime\n"
                          "trivial resolvent not exactly on the cyclic records\n"
                          "total ramification disagrees with e\n"
                          "claimed p^e does not divide the form's disc\n"
                          "wild cube with odd exponent\n"
                          "Hessian test disagrees with exponent\n"
                          "band endpoint did not settle\n")


def test_batches_align_with_records():
    rng = EnumerationRange(0, 3000)
    recs = list(enumerate_fields(rng, -1))
    total = sum(b.size for b in iter_batches(rng, -1))
    assert total == len(recs)


def test_known_field_counts_at_2e5():
    # regression totals beyond oracle reach; cyclic fields never have disc < 0
    neg_batches = list(iter_batches(EnumerationRange(0, 200_000), -1))
    pos_batches = list(iter_batches(EnumerationRange(0, 200_000), 1))
    assert sum(b.size for b in neg_batches) == 34967
    assert sum(b.size for b in pos_batches) == 10015
    assert sum(int(b.cyclic.sum()) for b in neg_batches) == 0
    assert sum(int(b.cyclic.sum()) for b in pos_batches) == 70


def test_profile_string_round_trip():
    recs = list(enumerate_fields(EnumerationRange(0, 300), -1))
    by_disc = {r.disc: r for r in recs}
    f23 = by_disc[-23]
    assert [str(rp) for rp in f23.profile] == ["23:1:P"]
    f108 = by_disc[-108]
    assert sorted(str(rp) for rp in f108.profile) == ["2:2:T", "3:3:T"]


# ------------------------------------------- filter stack against the scalar oracle


@st.composite
def _cubic_forms(draw):
    """Forms with nonzero disc and 1 <= a <= 60: random ones, and products
    (alpha x + beta y)(q0 x^2 + q1 xy + q2 y^2), with |coefficients| up to
    1e6, or up to about 1e11 so the exact root test passes int64."""
    if draw(st.booleans()):
        alpha = draw(st.integers(1, 60))
        q0 = draw(st.integers(1, 60 // alpha))
        beta, q2 = draw(st.integers(-1000, 1000)), draw(st.integers(-1000, 1000))
        q1 = draw(st.integers(-900, 900) | st.integers(-10**8, 10**8))
        f = (alpha * q0, alpha * q1 + beta * q0, alpha * q2 + beta * q1, beta * q2)
    else:
        big = st.integers(-10**6, 10**6)
        f = (draw(st.integers(1, 60)), draw(big | st.integers(-10**9, 10**9)),
             draw(big), draw(big))
    assume(discriminant(BinaryCubicForm(*f)) != 0)
    return f


@settings(max_examples=120, deadline=None)
@given(st.lists(_cubic_forms(), min_size=1, max_size=30))
@example([(1, 0, -1, -1), (1, 1, 1, 1), (2, 1, 0, 1), (1, 0, 0, -2)])
def test_irreducible_mask_matches_scalar_oracle(rows):
    got = enumeration._irreducible_mask(np.array(rows, dtype=np.int64))
    want = [is_irreducible(BinaryCubicForm(*f)) for f in rows]
    event("reducible rows" if not all(want) else "irreducible only")
    assert got.tolist() == want


def test_irreducible_mask_decides_wide_rows_in_python_integers(monkeypatch):
    """Rows whose root-test values could pass int64 go to Python integers."""
    dtypes = []
    inner = enumeration._has_integer_root

    def spy(*cols):
        dtypes.append(cols[0].dtype)
        return inner(*cols)

    monkeypatch.setattr(enumeration, "_has_integer_root", spy)
    rows = [
        (6, 2 * 10**9 + 9, 3 * 10**9 + 10, 15),   # (2x + 3y)(3x^2 + 10^9 xy + 5y^2)
        (60, 10**9, -7, 11),
        (1, -(10**9), 10**6, -(10**6)),
        (1, 1, 1, 1),                              # narrow: (x + y)(x^2 + y^2)
    ]
    got = enumeration._irreducible_mask(np.array(rows, dtype=np.int64))
    assert got.tolist() == [is_irreducible(BinaryCubicForm(*f)) for f in rows]
    assert np.dtype(object) in dtypes and np.dtype(np.int64) in dtypes


_PRIMES_5_TO_1E4 = [int(p) for p in _primes(10**4) if p >= 5]


@st.composite
def _ramified_forms(draw):
    """Irreducible content-1 forms with p^2 | disc for a prime 5 <= p <= 1e4.

    Either f = x^3 + p v x y^2 + p^j u y^3 (a triple root at 0 mod p, T),
    maximal at p for j = 1 and not for j = 2, or f = (x - r y)^2 (alpha x +
    beta y) + p^j u y^3 with j = 2 or 3 (a repeated root at r, not maximal;
    P where the third root differs, so e = 3 comes without T too), then moved
    by a small unimodular map, which also puts the root at infinity (p | a).
    """
    p = draw(st.sampled_from(_PRIMES_5_TO_1E4))
    u = draw(st.integers(1, 3)) * draw(st.sampled_from((1, -1)))
    if draw(st.booleans()):
        f = BinaryCubicForm(1, 0, p * draw(st.integers(-3, 3)), p ** draw(st.integers(1, 2)) * u)
    else:
        r, alpha = draw(st.integers(-10, 10)), draw(st.integers(1, 3))
        beta = draw(st.integers(-3, 3))
        f = BinaryCubicForm(alpha, beta - 2 * alpha * r, alpha * r * r - 2 * beta * r,
                            beta * r * r + p ** draw(st.integers(2, 3)) * u)
    shear = UnimodularMap(1, 0, draw(st.integers(-3, 3)), 1)
    f = apply(draw(st.sampled_from(SMALL_GL2)), apply(shear, f))
    d = discriminant(f)
    assume(d != 0 and abs(d) < 2**62 and content(f) == 1 and is_irreducible(f))
    assume(d % (p * p) == 0)
    event("p | a" if f.a % p == 0 else "p does not divide a")
    event("disc > 0" if d > 0 else "disc < 0")
    return f.coefficients()


@st.composite
def _small_forms(draw):
    """Irreducible content-1 forms with small coefficients, for 2 and 3."""
    f = BinaryCubicForm(*draw(st.lists(st.integers(-12, 12), min_size=4, max_size=4)))
    assume(f.a != 0 and discriminant(f) != 0 and content(f) == 1 and is_irreducible(f))
    return f.coefficients()


@settings(max_examples=60, deadline=None)
@given(st.lists(_ramified_forms() | _small_forms(), min_size=1, max_size=8))
@example([(5, 0, 0, 1), (25, 0, 0, 1), (25, 0, 1, 1), (1, 0, -15, 5)])
@example([(1, 0, 0, 5), (1, 1, 0, 25), (1, 0, 5, 125), (1, 1, 0, 125), (1, 0, 0, 25),
          (25, 5, 1, 1)])  # at 5: e = 2 T, e = 2 P, e = 3 T, e = 3 P, e = 4 T, p | a
def test_maximality_and_tags_match_scalar_oracle(rows):
    """Record by record: the 2/3-adic and the one-pass p >= 5 maximality tests
    against is_maximal (the small forms vary the 2- and 3-adic cases), the
    tag of every (record, p) pair, 2 and 3 included, against has_triple_root,
    and the tags of the maximal records against ramification_profile, which
    the tag check's exponent tripwires accept."""
    forms = [BinaryCubicForm(*f) for f in rows]
    facts = [factorize(discriminant(f)) for f in forms]
    m = np.array(rows, dtype=np.int64)
    disc = np.array([fact.value() for fact in facts], dtype=np.int64)
    pairs = [(i, p, e) for i, fact in enumerate(facts) for p, e in fact.factors]
    pair_idx, pair_p, pair_e = (np.array(col, dtype=np.int64) for col in zip(*pairs))

    nonmax, total = enumeration._nonmax_mask(m, pair_idx, pair_p, pair_e)
    maximal = ~(enumeration._nonmax_2_3_mask(m, disc) | nonmax)
    assert maximal.tolist() == [is_maximal(f, fact) for f, fact in zip(forms, facts)]
    assert total.tolist() == [has_triple_root(forms[i], int(p))
                              for i, p in zip(pair_idx, pair_p)]

    ptr = np.concatenate(([0], np.cumsum(np.bincount(pair_idx, minlength=len(m)))))
    batch = subset_batch(WindowBatch(m, disc, np.zeros(len(m), dtype=bool), ptr,
                                     pair_p, pair_e, total), maximal)
    enumeration._check_tags(batch)
    assert batch.prof_total.tolist() == [
        rp.total for f, fact, ok in zip(forms, facts, maximal) if ok
        for rp in ramification_profile(f, fact)]


def test_tag_check_catches_a_skipped_p_ge_5_drop(monkeypatch):
    """With _nonmax_mask marking nothing, the records it should drop (e >= 3,
    or e = 2 without T, at some p >= 5) reach the tag check in a real window."""
    inner = enumeration._nonmax_mask

    def keep_all(*args):
        nonmax, total = inner(*args)
        return np.zeros_like(nonmax), total

    monkeypatch.setattr(enumeration, "_nonmax_mask", keep_all)
    with pytest.raises(ConsistencyError, match="bad exponent at p >= 5"):
        enumeration._build_batch(0, 200_000, -1)


@pytest.mark.slow
@pytest.mark.parametrize("sign", [-1, 1])
def test_maximality_rule_at_1e8(sign, monkeypatch):
    """The p >= 5 maximality rule against is_maximal_at past the oracle's
    reach: every record of the complete window [1e8, 1e8 + 2e6) with a pair
    p >= 5, p^2 | disc, as the window build hands it to _nonmax_mask."""
    calls, inner = [], enumeration._nonmax_mask

    def spy(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(enumeration, "_nonmax_mask", spy)
    enumeration._build_batch(10**8, 10**8 + 2_000_000, sign)
    ((m, pair_idx, pair_p, pair_e),) = calls
    nonmax, _ = inner(m, pair_idx, pair_p, pair_e)
    sq = (pair_p >= 5) & (pair_e >= 2)
    want = np.zeros(len(m), dtype=bool)
    for i, p in zip(pair_idx[sq].tolist(), pair_p[sq].tolist()):
        want[i] |= not is_maximal_at(BinaryCubicForm(*m[i].tolist()), p)
    assert np.array_equal(nonmax, want)
    assert sq.sum() > 20_000 and 0 < want.sum() < sq.sum()


def _lex_increasing(m):
    a, b = m[:-1], m[1:]
    first = np.argmax(a != b, axis=1)  # first column where consecutive rows differ
    rows = np.arange(len(a))
    return bool(np.all((a != b).any(axis=1) & (a[rows, first] < b[rows, first])))


@pytest.mark.parametrize("sign", [-1, 1], ids=["_sweep_negative", "_sweep_positive"])
@pytest.mark.parametrize("lo, hi", [(0, 200_000), (150_000, 400_000), (10**7, 10**7 + 50_000)])
def test_sweeps_emit_rows_in_lexicographic_order(sign, lo, hi):
    chunks = list(_sweep(lo, hi, sign))
    firsts = [int(m[0, 0]) for m in chunks]
    assert all(np.all(m[:, 0] == a) for m, a in zip(chunks, firsts))  # one a a chunk
    assert firsts == sorted(firsts)
    m = np.concatenate(chunks)
    assert len(m) > 100
    assert _lex_increasing(m)


def _one_run(m):
    return bool(np.all(m[:, 1:3] == m[0, 1:3]) and np.all(np.diff(m[:, 3]) == 1))


@pytest.mark.parametrize("sign", [-1, 1])
@pytest.mark.parametrize("rows, triples", [(1 << 16, 1 << 16), (40, 100)])
def test_sweep_chunks_keep_to_the_row_and_triple_budgets(monkeypatch, sign, rows, triples):
    """No chunk passes _ROWS rows unless it is one triple's run, no grid block
    passes _TRIPLES triples unless it is one b's, and the rows do not depend
    on the budgets.  At 40 rows and 100 triples, [0, 2e6) has runs and b's
    over each budget on both signs."""
    whole = np.concatenate(list(_sweep(0, 2_000_000, sign)))
    blocks, pieces = [], enumeration._window_pieces

    def spy(a, B, C, *rest):  # each grid block's triples, before any is dropped
        blocks.append((np.unique(B).size, B.size))
        return pieces(a, B, C, *rest)

    monkeypatch.setattr(enumeration, "_window_pieces", spy)
    monkeypatch.setattr(enumeration, "_ROWS", rows)
    monkeypatch.setattr(enumeration, "_TRIPLES", triples)
    chunks = list(_sweep(0, 2_000_000, sign))
    assert np.array_equal(np.concatenate(chunks), whole)
    assert all(0 < len(m) <= rows or _one_run(m) for m in chunks)
    assert all(size <= triples or nb == 1 for nb, size in blocks)
    if rows < 1 << 16:
        assert any(len(m) > rows for m in chunks)
        assert any(size > triples for _, size in blocks)


def test_top_positive_window_sweep_is_bounded_by_the_chunk_budgets():
    """The positive sweep of the top 8e6 window below 4.4721e8 (1e18's
    range) builds a = 1's grid of about two million triples and peaks at
    about 8.5 MB of traced memory, chunk by chunk; a sweep that held an a's
    whole grid and rows at once peaked at 167 MB."""
    hi = 447_210_000
    tracemalloc.start()
    try:
        swept = sum(len(m) for m in _sweep(hi - 8_000_000, hi, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert swept == 986_909
    assert peak < 24e6


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("lo, hi", [(0, 300_000), (10**6, 10**6 + 300_000)])
def test_batch_order_equals_the_five_key_lexsort(sign, lo, hi):
    batch = enumeration._build_batch(lo, hi, sign)
    a, b, c, d = batch.coeffs.T
    order = np.lexsort((d, c, b, a, np.abs(batch.disc)))
    assert batch.size > 100
    assert np.array_equal(order, np.arange(batch.size))
