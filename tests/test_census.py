import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_tables as ref
from s3census import census, enumeration
from s3census.census import (
    CensusFilter,
    CensusReport,
    CubicApResult,
    InsufficientRangeError,
    accumulate_stream,
    admissible_discriminants,
    build_report,
    cubic_ap_histogram,
    error_column,
    format_error,
    predicted_pair,
    tabulate,
)
from s3census.enumeration import (
    EnumerationRange,
    enumerate_fields,
    iter_batches,
    map_windows,
    partition,
    subset_batch,
)
from s3census.forms import ConsistencyError
from s3census.sextic import fundamental_discriminant, resolvent_vec, sextic_discriminant


def _loose_upper(x):
    """U with 3 (U - 1)^2 < x <= 3 U^2: |F| >= 3 alone puts every field with
    |disc Kt| < x below U, past the largest admissible discriminant."""
    return math.isqrt((x - 1) // 3) + 1


def test_boundary_strict():
    neg = CensusFilter(sign=-1)
    assert tabulate([12167], neg)[0].tolist() == [0]
    assert tabulate([12168], neg)[0].tolist() == [1]


def test_desk_counts_smallest_checkpoint():
    assert tabulate([10**12], CensusFilter(1))[0].tolist() == [690]
    assert tabulate([10**12], CensusFilter(-1))[0].tolist() == [2809]


def test_multi_checkpoint_positive():
    counts, _ = tabulate([10**12, 10**13], CensusFilter(1))
    assert counts.tolist() == [690, 1650]


def test_counts_never_decrease():
    counts = tabulate([10**10, 10**11, 10**12], CensusFilter(-1))[0].tolist()
    assert counts == sorted(counts)


def test_histogram_rows_partition_the_counts():
    cps = [10**11, 10**12]
    filt = CensusFilter(sign=-1, modulus=7)
    rows = tabulate(cps, filt)[1].tolist()
    totals = tabulate(cps, CensusFilter(sign=-1))[0].tolist()
    assert [sum(r) for r in rows] == totals
    assert all(len(r) == 7 for r in rows)


def test_filtered_counts_match_brute_force():
    x = 10**9
    rng = EnumerationRange(0, _loose_upper(x))
    brute = 0
    brute_hist = [0] * 5
    brute_cubic_only = 0
    for r in enumerate_fields(rng, -1):
        if r.cyclic:
            continue
        d6 = sextic_discriminant(r.disc, r.profile)
        if not -x < d6 < 0:
            continue
        if all(p not in {q.p for q in r.profile} for p in (2, 3)):
            brute_cubic_only += 1
            if d6 % 2 and d6 % 3:
                brute += 1
                brute_hist[d6 % 5] += 1
    filt = CensusFilter(sign=-1, unramified=(2, 3), modulus=5)
    counts, hist = tabulate([x], filt)
    assert counts.tolist() == [brute]
    assert hist.tolist() == [brute_hist]
    # discriminants are 0 or 1 mod 4, so an odd cubic discriminant forces an
    # odd resolvent: the closure filter and the cubic-only filter agree
    assert brute == brute_cubic_only
    assert brute > 0


def test_reference_rows_1e15():
    assert tabulate([10**15], CensusFilter(1))[0].tolist() == [ref.POS_ACTUAL[3]]
    assert tabulate([10**15], CensusFilter(-1))[0].tolist() == [ref.NEG_ACTUAL[3]]


@pytest.mark.slow
def test_reference_rows_1e16():
    assert tabulate([10**16], CensusFilter(1))[0].tolist() == [ref.POS_ACTUAL[4]]
    assert tabulate([10**16], CensusFilter(-1))[0].tolist() == [ref.NEG_ACTUAL[4]]


@pytest.mark.slow
def test_reference_row_1e17_pos():
    assert tabulate([10**17], CensusFilter(1))[0].tolist() == [ref.POS_ACTUAL[5]]


@pytest.mark.slow
def test_reference_row_1e17_neg():
    assert tabulate([10**17], CensusFilter(-1), threads=2)[0].tolist() == [ref.NEG_ACTUAL[5]]


@pytest.mark.slow
@pytest.mark.parametrize("sign, actual", [(1, ref.POS_ACTUAL[6]), (-1, ref.NEG_ACTUAL[6])])
def test_reference_row_1e18(sign, actual):
    assert tabulate([10**18], CensusFilter(sign), threads=2)[0].tolist() == [actual]


@pytest.mark.slow
def test_reference_row_mod5_at_1e17_and_1e18():
    rows = ref.MOD5_ACTUAL[1:3]
    filt = CensusFilter(-1, unramified=(2, 3), modulus=5)
    hist = tabulate([x for x, *_ in rows], filt, threads=2)[1]
    assert hist.tolist() == [list(counts) for _, *counts in rows]


def _unfiltered(cps, filt):
    """accumulate_stream over the complete enumeration below _loose_upper."""
    loose = EnumerationRange(0, _loose_upper(cps[-1]))
    return accumulate_stream(cps, filt, iter_batches(loose, filt.sign))


def _assert_same_tables(got, want):
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


_FILTERS = {
    "plain": {},
    "mod7-unram2": {"unramified": (2,), "modulus": 7},
    "mod5-unram23": {"unramified": (2, 3), "modulus": 5},
}


@given(
    x=st.integers(min_value=10**6, max_value=10**11),
    sign=st.sampled_from((1, -1)),
    variant=st.sampled_from(sorted(_FILTERS)),
    threads=st.sampled_from((1, 2)),
)
@settings(max_examples=50, deadline=None)
def test_prefiltered_census_equals_complete_stream(x, sign, variant, threads):
    filt = CensusFilter(sign=sign, **_FILTERS[variant])
    cps = [x // 100, x // 10, x]
    want = _unfiltered(cps, filt)
    _assert_same_tables(tabulate(cps, filt, threads=threads), want)
    _assert_same_tables(tabulate(cps, filt), want)


@functools.cache
def _closures(sign):
    """Batches of the fields with |disc K| < 2000 of one sign, and the
    (disc K, disc Kt) of their non-cyclic fields in Python integers."""
    batches = list(iter_batches(EnumerationRange(0, 2000), sign))
    out = []
    for batch in batches:
        sub = subset_batch(batch, ~batch.cyclic)
        f = resolvent_vec(sub)
        out += [(int(d), int(d) ** 2 * int(g)) for d, g in zip(sub.disc, f)]
    return batches, out


@given(st.integers(min_value=0))
@settings(max_examples=20, deadline=None)
def test_prefilter_exact_at_closure_discriminants(pick):
    closures = _closures(1)[1]
    disc, x = closures[pick % len(closures)]
    filt = CensusFilter(sign=1)
    below, at = (tabulate([y], filt)[0][0] for y in (x, x + 1))
    assert below == _unfiltered([x], filt)[0][0]
    assert at == _unfiltered([x + 1], filt)[0][0]
    assert at > below  # the field itself counts from x + 1 on
    assert disc in admissible_discriminants(x + 1, filt)
    assert disc not in admissible_discriminants(x, filt)


@st.composite
def _binning_queries(draw):
    """Checkpoints at, and one either side of, some |disc Kt|, or past 2^63."""
    sign = draw(st.sampled_from((1, -1)))
    sextic = [abs(s) for _, s in _closures(sign)[1]]
    near = st.builds(lambda i, k: sextic[i % len(sextic)] + k,
                     st.integers(min_value=0), st.integers(-1, 1))
    wide = st.integers(2**63 - 1, 2**63 + 1) | st.integers(2**63, 2**70)
    size = draw(st.sampled_from((1, 2, 10)))
    cps = draw(st.lists(near | wide, min_size=size, max_size=size, unique=True))
    filt = CensusFilter(sign, draw(st.sampled_from(((), (2,), (3, 5)))),
                        draw(st.sampled_from((None, 5, 7))))
    return sorted(cps), filt


@given(_binning_queries())
@settings(max_examples=200, deadline=None)
def test_binning_matches_python_int_oracle(query):
    """Counts and residue rows against |d^2 F| < X counted per checkpoint in
    Python integers, with p not dividing d^2 F as the unramified test."""
    cps, filt = query
    batches, closures = _closures(filt.sign)
    kept = [s for _, s in closures if all(s % p for p in filt.unramified)]
    mod = filt.modulus or 1
    counts, hist = accumulate_stream(cps, filt, batches)
    assert hist.shape == (len(cps), mod)
    for x, count, row in zip(cps, counts, hist):
        below = [s for s in kept if abs(s) < x]
        assert count == len(below)
        assert list(row) == [sum(s % mod == r for s in below) for r in range(mod)]


@pytest.mark.parametrize("x", [1, 12168, 10**6, 10**8, 3 * 10**9 + 1])
@pytest.mark.parametrize("sign", [1, -1])
def test_admissible_set_matches_brute_force(x, sign):
    upper = _loose_upper(x)
    want = set()
    for d in range(1, upper):
        n = sign * d
        if n % 4 in (0, 1):
            f = fundamental_discriminant(n)
            if f != 1 and d * d * abs(f) < x:
                want.add(d)
    got = admissible_discriminants(x, CensusFilter(sign))
    assert got.dtype == np.int64
    assert list(got) == sorted(want)
    odd = admissible_discriminants(x, CensusFilter(sign, unramified=(2, 3)))
    assert list(odd) == sorted(d for d in want if d % 2 and d % 3)


def test_filter_validation():
    with pytest.raises(ValueError):
        CensusFilter(sign=0)
    with pytest.raises(ValueError):
        CensusFilter(sign=1, unramified=(4,))
    with pytest.raises(ValueError):
        CensusFilter(sign=1, unramified=tuple(ref.CUBIC_AP_MOD7) + (2, 3, 5, 7))
    with pytest.raises(ValueError):
        CensusFilter(sign=1, modulus=1)
    f = CensusFilter(sign=1, unramified=(5, 3, 3, 2))
    assert f.unramified == (2, 3, 5)


def test_checkpoint_validation():
    neg = CensusFilter(sign=-1)
    with pytest.raises(ValueError):
        tabulate([100, 100], neg)
    with pytest.raises(ValueError):
        tabulate([200, 100], neg)
    with pytest.raises(ValueError):
        tabulate([0], neg)
    with pytest.raises(TypeError):
        tabulate([1e12], neg)
    assert tabulate([], neg)[0].tolist() == []


def test_checkpoint_limit_is_10_to_the_24(monkeypatch):
    """Past 10^24 the refusal comes before any array is built."""
    for x_max in (10**300, 10**24 + 1):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"at most 10\^24"):
                admissible_discriminants(x_max, CensusFilter(-1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
    bounds = []

    def no_fundamentals(sign, bound):
        bounds.append(bound)
        return np.empty(0, dtype=np.int64)

    monkeypatch.setattr(census, "_fundamental_abs", no_fundamentals)
    assert admissible_discriminants(10**24, CensusFilter(-1)).size == 0
    assert bounds == [10**8 - 1]  # icbrt(10^24 - 1)


def test_insufficient_range_rejected():
    small = EnumerationRange(0, 100)
    batches = list(iter_batches(small, -1))
    with pytest.raises(ValueError, match="needed"):
        tabulate([10**8], CensusFilter(-1), batches=batches, covered=small)
    with pytest.raises(ValueError, match="covered range"):
        tabulate([10**8], CensusFilter(-1), batches=batches)
    shifted = EnumerationRange(5, 10**6)
    with pytest.raises(ValueError):
        tabulate([10**8], CensusFilter(-1), batches=batches, covered=shifted)


def test_oversized_stream_is_cut_off():
    cps = [10**9, 10**10]
    wide = EnumerationRange(0, 10**6)
    direct = tabulate(cps, CensusFilter(-1))
    replay = tabulate(
        cps, CensusFilter(-1), batches=iter_batches(wide, -1), covered=wide
    )
    assert replay[0].tolist() == direct[0].tolist()


def test_replay_stops_at_the_batch_that_reaches_the_range(monkeypatch):
    monkeypatch.setattr(enumeration, "_COMPLETE_WINDOW", 10_000)
    batches = list(iter_batches(EnumerationRange(0, 30_000), -1))
    assert len(batches) == 3
    pulled = []

    def stream():
        for batch in batches:
            pulled.append(batch)
            yield batch

    stop_at = int(abs(batches[0].disc[-1]))
    filt = CensusFilter(-1)
    got = accumulate_stream([10**9], filt, stream(), stop_at=stop_at)
    assert len(pulled) == 1
    assert list(got[0]) == list(accumulate_stream([10**9], filt, batches[:1])[0])


# (filter, checkpoints, m + 1) with m the largest admissible |disc K| below
# the last checkpoint; _loose_upper(10**12) is 577351
_BOUNDARY_QUERIES = [
    (CensusFilter(1), [10**10, 10**11, 10**12], 447006),
    (CensusFilter(-1, unramified=(2, 3), modulus=5), [10**11, 10**12], 367088),
]


@pytest.mark.parametrize("filt, cps, upper", _BOUNDARY_QUERIES)
def test_replay_needs_exactly_the_admissible_range(filt, cps, upper):
    assert int(admissible_discriminants(cps[-1], filt)[-1]) + 1 == upper
    exact = EnumerationRange(0, upper)
    replay = tabulate(cps, filt, iter_batches(exact, filt.sign), exact)
    _assert_same_tables(replay, tabulate(cps, filt))
    short = EnumerationRange(0, upper - 1)
    with pytest.raises(InsufficientRangeError, match=r"\[0, %d\) is needed" % upper):
        tabulate(cps, filt, iter_batches(short, filt.sign), short)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("filt, cps, upper", _BOUNDARY_QUERIES)
def test_live_windows_stop_at_the_admissible_range(monkeypatch, filt, cps, upper, threads):
    monkeypatch.setattr(enumeration, "_VALUES", 5_000)
    monkeypatch.setattr(enumeration, "_SLOTS", 50_000)
    built = []
    build = enumeration._build_batch

    def spy(lo, hi, *args):
        built.append((lo, hi))
        return build(lo, hi, *args)

    monkeypatch.setattr(enumeration, "_build_batch", spy)
    tabulate(cps, filt, threads=threads)
    # the windows tile [0, upper) exactly, so none starts at or past it
    built.sort()
    assert built[0][0] == 0 and built[-1][1] == upper
    assert all(a[1] == b[0] for a, b in zip(built, built[1:]))


def _live_windows(x, filt, threads):
    """The (lower, upper) windows a live census below x builds."""
    admissible = admissible_discriminants(x, filt)
    rng = EnumerationRange(0, int(admissible[-1]) + 1)
    return [(w.lower, w.upper) for w in map_windows(lambda w: w, rng, threads, admissible)]


@pytest.mark.parametrize("sign", [1, -1])
def test_live_rounds_tile_the_range_within_their_budgets(sign):
    """At 1e18 the rounds (threads=1 windows) tile [0, m + 1) in order, each
    with at most _VALUES admissible values and _SLOTS slots, and both cuts bind."""
    admissible = admissible_discriminants(10**18, CensusFilter(sign))
    windows = _live_windows(10**18, CensusFilter(sign), 1)
    assert windows[0][0] == 0 and windows[-1][1] == admissible[-1] + 1
    assert all(a[1] == b[0] for a, b in zip(windows, windows[1:]))
    held = np.diff(np.searchsorted(admissible, [lo for lo, _ in windows] + [windows[-1][1]]))
    spans = [hi - lo for lo, hi in windows]
    assert held.max() == enumeration._VALUES and max(spans) <= enumeration._SLOTS
    assert enumeration._SLOTS in spans


def test_bench_queries_keep_their_windows():
    """The desk and mod-5 queries are one round each, so they build the
    windows that equal 8e6-wide rounds gave them."""
    assert _live_windows(10**14, CensusFilter(-1), 1) == [(0, 5_771_308)]
    assert _live_windows(10**14, CensusFilter(1), 1) == [(0, 4_465_126)]
    mod5 = CensusFilter(-1, unramified=(2, 3), modulus=5)
    assert _live_windows(10**15, mod5, 2) == [(0, 5_942_332), (5_942_332, 11_884_664)]


@pytest.mark.parametrize("threads", [1, 2])
def test_tiny_round_budgets_keep_the_tables(monkeypatch, threads):
    """26 rounds in place of one give the same counts and histograms."""
    cases = [(CensusFilter(s, **_FILTERS[v]), [10**12, 10**13])
             for s, v in ((1, "plain"), (-1, "plain"), (-1, "mod5-unram23"))]
    want = [tabulate(cps, filt, threads=threads) for filt, cps in cases]
    monkeypatch.setattr(enumeration, "_VALUES", 1_000)
    monkeypatch.setattr(enumeration, "_SLOTS", 1 << 18)
    assert len(_live_windows(10**13, CensusFilter(-1), 1)) == 26
    for (filt, cps), tables in zip(cases, want):
        _assert_same_tables(tabulate(cps, filt, threads=threads), tables)


def test_live_window_build_never_holds_the_whole_sweep():
    """The 1e13 neg census sweeps 618 814 forms in one window; as rows they
    take 32 bytes each, and the build peaks at about 11.7 bytes per swept
    form (7.22 MB), below the 14 pinned here, since the sweep's rows come in
    chunks of at most _ROWS and each is checked and cut as it comes."""
    admissible = admissible_discriminants(10**13, CensusFilter(-1))
    hi = int(admissible[-1]) + 1
    assert hi == 1_825_201
    assert _live_windows(10**13, CensusFilter(-1), 1) == [(0, hi)]
    swept = sum(len(m) for m in enumeration._sweep(0, hi, -1))
    assert swept == 618_814
    tracemalloc.start()
    try:
        batch = enumeration._build_batch(0, hi, -1, admissible)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert batch.size > 0
    assert peak < 14 * swept


def test_positive_live_window_build_stays_below_its_bytes_per_swept_form():
    """The 1e13 pos census sweeps 141 130 forms in one window, and its build
    peaks at about 43 bytes per swept form (6.09 MB), below the 48 pinned
    here: no grid or row array of the whole sweep is held beside the build."""
    admissible = admissible_discriminants(10**13, CensusFilter(1))
    hi = int(admissible[-1]) + 1
    assert hi == 1_409_806
    assert _live_windows(10**13, CensusFilter(1), 1) == [(0, hi)]
    swept = sum(len(m) for m in enumeration._sweep(0, hi, 1))
    assert swept == 141_130
    tracemalloc.start()
    try:
        batch = enumeration._build_batch(0, hi, 1, admissible)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert batch.size > 0
    assert peak < 48 * swept


def test_complete_window_build_stays_below_its_bytes_per_swept_form():
    """The complete route keeps nearly every swept form, so its windows are
    2e6 wide: the first window of [0, 4e6) is [0, 2e6), which sweeps
    680 164 forms and keeps 370 444 fields, and its build peaks below 150
    bytes per swept form, since the sort order and the pair index are
    dropped as soon as they are used."""
    assert enumeration._COMPLETE_WINDOW == 2_000_000
    swept = sum(len(m) for m in enumeration._sweep(0, 2_000_000, -1))
    assert swept == 680_164
    tracemalloc.start()
    try:
        batch = next(iter_batches(EnumerationRange(0, 4_000_000), -1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert batch.size == 370_444
    assert peak < 150 * swept


def test_no_admissible_discriminant_enumerates_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("iter_batches called")

    monkeypatch.setattr(census, "iter_batches", refuse)
    assert admissible_discriminants(100, CensusFilter(1)).size == 0
    counts, hist = tabulate([100], CensusFilter(1))
    assert counts.tolist() == [0] and hist.tolist() == [[0]]
    counts, hist = tabulate([10, 100], CensusFilter(1, modulus=5), threads=2)
    assert counts.tolist() == [0, 0] and hist.tolist() == [[0] * 5] * 2
    counts, hist = tabulate([], CensusFilter(-1, modulus=3))
    assert counts.shape == (0,) and hist.shape == (0, 3)


@pytest.mark.parametrize("k", [2, 5])
def test_partition_independence(k):
    cps = [10**10, 10**12]
    filt = CensusFilter(sign=-1, modulus=5)
    rng = EnumerationRange(0, _loose_upper(cps[-1]))
    parts = [
        accumulate_stream(cps, filt, iter_batches(piece, filt.sign))
        for piece in partition(rng, k)
    ]
    counts = sum(c for c, _ in parts)
    hist = sum(h for _, h in parts)
    assert list(counts) == tabulate(cps, CensusFilter(sign=-1))[0].tolist()
    assert hist.tolist() == tabulate(cps, filt)[1].tolist()


def test_cubic_ap_published_rows():
    r7 = cubic_ap_histogram(7, 2 * 10**6, include_cyclic=True)
    assert r7.counts == ref.CUBIC_AP_MOD7
    assert r7.total == ref.CUBIC_AP_TOTAL
    assert r7.cyclic_seen == ref.CUBIC_AP_CYCLIC
    assert r7.convention == "cyclic included"
    r5 = cubic_ap_histogram(5, 2 * 10**6, include_cyclic=True)
    assert r5.counts == ref.CUBIC_AP_MOD5
    assert r5.total == ref.CUBIC_AP_TOTAL


@pytest.mark.parametrize("sign", [1, -1])
def test_cubic_ap_threads_agree(sign, monkeypatch):
    # 200 000-wide complete windows: rounds of 1, 2 and 3 over 10 or 12 windows
    monkeypatch.setattr(enumeration, "_COMPLETE_WINDOW", 200_000)
    runs = [cubic_ap_histogram(7, 2 * 10**6, sign=sign, threads=k) for k in (1, 2, 3)]
    assert runs[1] == runs[0] and runs[2] == runs[0]
    if sign > 0:
        assert runs[0].counts == ref.CUBIC_AP_MOD7
        assert runs[0].cyclic_seen == ref.CUBIC_AP_CYCLIC


def test_cubic_ap_exclusion_convention():
    r = cubic_ap_histogram(7, 2 * 10**6, include_cyclic=False)
    assert r.total == ref.CUBIC_AP_TOTAL - ref.CUBIC_AP_CYCLIC
    assert r.convention == "cyclic excluded"
    assert r.cyclic_seen == ref.CUBIC_AP_CYCLIC


def test_cubic_ap_validation():
    with pytest.raises(ValueError):
        cubic_ap_histogram(1, 10**5)
    with pytest.raises(ValueError):
        cubic_ap_histogram(7, 0)
    with pytest.raises(ValueError):
        cubic_ap_histogram(7, 10**5, sign=2)
    with pytest.raises(ConsistencyError):
        CubicApResult(5, 10, 1, True, (1, 2, 3, 4, 5), 14, 0)


def test_error_column_examples():
    assert format_error(error_column(756, 690, 10**12)) == "0.031"
    assert format_error(error_column(2979, 2809, 10**12)) == "0.079"
    assert format_error(error_column(690, 756, 10**12)) == "-0.031"
    assert format_error(0.0005) == "0.001"
    assert format_error(-0.0005) == "-0.001"
    with pytest.raises(ValueError):
        error_column(1, 1, 0)


def test_build_report_live_counts():
    rep = build_report([10**12, 10**13], CensusFilter(sign=1))
    assert rep.actual == (690, 1650)
    assert rep.strong == (756, 1762)
    assert rep.stronger == (709, 1682)
    assert [format_error(e) for e in rep.errors] == ["0.031", "0.027"]
    assert rep.histogram is None


def test_build_report_histogram_rows():
    filt = CensusFilter(sign=-1, modulus=5)
    rep = build_report([10**11, 10**12], filt)
    assert rep.histogram is not None
    assert [sum(r) for r in rep.histogram] == list(rep.actual)


def test_report_columns_at_reference_counts():
    filt = CensusFilter(sign=-1)
    cps = (10**15, 10**16)
    pairs = [predicted_pair(x, filt) for x in cps]
    rep = CensusReport(filt, cps, tuple(ref.NEG_ACTUAL[3:5]),
                       strong=tuple(s for s, _ in pairs),
                       stronger=tuple(t for _, t in pairs))
    assert rep.strong == tuple(ref.NEG_TWO_TERM[3:5])
    assert rep.stronger == tuple(ref.NEG_TAIL_CORRECTED[3:5])
    assert [format_error(e) for e in rep.errors] == ref.NEG_ERROR[3:5]


def test_build_report_empty_checkpoints():
    rep = build_report([], CensusFilter(sign=1))
    assert rep.checkpoints == ()
    assert rep.actual == ()
    assert rep.errors == ()
    assert rep.strong == rep.stronger == ()
    hist = build_report([], CensusFilter(sign=-1, modulus=5), threads=2).histogram
    assert hist == ()


def test_build_report_validation():
    with pytest.raises(ValueError, match="increasing"):
        build_report([10**11, 10**10], CensusFilter(1))
    small = EnumerationRange(0, 10)
    with pytest.raises(ValueError, match="covered range"):
        build_report([10**10], CensusFilter(1), batches=iter_batches(small, 1))
    with pytest.raises(InsufficientRangeError):
        build_report([10**10], CensusFilter(1), batches=iter_batches(small, 1),
                     covered=small)


def test_report_invariants_direct():
    filt = CensusFilter(sign=1, modulus=3)
    with pytest.raises(ConsistencyError, match="sum"):
        CensusReport(
            filt=filt,
            checkpoints=(10,),
            actual=(4,),
            strong=(4,),
            stronger=(4,),
            histogram=((1, 1, 1),),
        )
    with pytest.raises(ConsistencyError, match="decrease"):
        CensusReport(filt=filt, checkpoints=(10, 20), actual=(4, 3),
                     strong=(4, 4), stronger=(4, 4))
    with pytest.raises(ConsistencyError, match="prediction"):
        CensusReport(filt=filt, checkpoints=(10,), actual=(4,),
                     strong=(), stronger=(4,))
    with pytest.raises(ConsistencyError, match="modulus"):
        CensusReport(
            filt=CensusFilter(sign=1),
            checkpoints=(10,),
            actual=(2,),
            strong=(2,),
            stronger=(2,),
            histogram=((1, 1),),
        )
