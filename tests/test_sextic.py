import os
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import s3census
from s3census import cli
from s3census.enumeration import (
    EnumerationRange,
    WindowBatch,
    enumerate_fields,
    iter_batches,
    subset_batch,
)
from s3census.forms import ConsistencyError
from s3census.local_analysis import factorize
from s3census.sextic import (
    abs_sextic_below,
    fundamental_discriminant,
    resolvent_vec,
    sextic_discriminant,
    sextic_residues,
    squarefree_kernel,
)


def _record(disc):
    sign = 1 if disc > 0 else -1
    for r in enumerate_fields(EnumerationRange(abs(disc), abs(disc) + 1), sign):
        if r.disc == disc:
            return r
    raise LookupError(disc)


def test_known_sextic_discriminants():
    assert sextic_discriminant(-23, _record(-23).profile) == -12167
    assert sextic_discriminant(148, _record(148).profile) == 810448
    assert sextic_discriminant(-108, _record(-108).profile) == -34992
    assert 810448 == 2**4 * 37**3
    assert 810448 % 5 == 3
    assert -34992 == -(2**4) * 3**7


def test_sextic_discriminant_sign():
    # disc(Kt) has the sign of disc(K)
    assert sextic_discriminant(-23, _record(-23).profile) == -12167
    assert sextic_discriminant(148, _record(148).profile) > 0


def test_cyclic_rejected():
    assert _record(49).cyclic
    with pytest.raises(ValueError, match="cyclic"):
        sextic_discriminant(49, _record(49).profile)


def test_profile_mismatch_rejected():
    with pytest.raises(ValueError):
        sextic_discriminant(-23, _record(-108).profile)


def test_fundamental_discriminants():
    cases = {1: 1, 2: 8, 3: 12, 5: 5, 8: 8, 12: 12, 18: 8, -1: -4, -3: -3,
             -4: -4, -8: -8, -23: -23, 148: 37, 45: 5, -75: -3}
    for n, want in cases.items():
        assert fundamental_discriminant(n) == want, n


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-100000, max_value=100000).filter(lambda n: n != 0))
def test_fundamental_discriminant_properties(n):
    f = fundamental_discriminant(n)
    assert f % 4 in (0, 1)
    # same quadratic field: identical squarefree kernels
    assert squarefree_kernel(factorize(f)) == squarefree_kernel(factorize(n))
    if f % 2:
        for p, e in factorize(f).factors:
            assert e == 1
    else:
        q = f // 4
        assert q % 4 != 1
        for p, e in factorize(q).factors:
            assert e == 1


def _v3(n):
    v = 0
    while n % 3 == 0:
        v += 1
        n //= 3
    return v


def cube_defect_at_three(disc):
    """3-part of disc(K)^3 / disc(Kt): 1, 9 or 81 as v_3(disc) is <3, =3, >3.

    Totally ramified wild cubes at 3 are the only place where the closure
    discriminant falls behind the full cube of the cubic discriminant by
    more than the tame square factors.
    """
    v3 = _v3(abs(disc))
    if v3 < 3:
        return 1
    return 9 if v3 == 3 else 81


def test_cube_defect_values():
    assert cube_defect_at_three(-23) == 1
    assert cube_defect_at_three(-87) == 1      # v3 = 1
    assert cube_defect_at_three(-108) == 9     # v3 = 3
    assert cube_defect_at_three(-324) == 81    # v3 = 4
    assert cube_defect_at_three(1944) == 81    # v3 = 5


def test_cube_defect_matches_route_ratio():
    for disc in (-23, -87, -108, -324, -1228, 148, 229, 257):
        r = _record(disc)
        ds = sextic_discriminant(disc, r.profile)
        assert 3 ** (3 * _v3(abs(disc)) - _v3(abs(ds))) == cube_defect_at_three(disc)


def test_negative_square_discriminant_fields():
    # disc = -324 = -18^2: trivial-looking kernel s = -1, resolvent Q(i)
    r = _record(-324)
    assert not r.cyclic
    assert fundamental_discriminant(-324) == -4
    assert sextic_discriminant(-324, r.profile) == (-324) ** 2 * -4


def test_closure_grows_by_at_least_three():
    for sign in (1, -1):
        for r in enumerate_fields(EnumerationRange(0, 4000), sign):
            if r.cyclic:
                continue
            ds = sextic_discriminant(r.disc, r.profile)
            assert abs(ds) >= 3 * r.disc * r.disc
            assert (ds > 0) == (r.disc > 0)


@pytest.mark.parametrize("sign", [1, -1])
def test_vector_route_matches_scalar(sign):
    for b in iter_batches(EnumerationRange(0, 20000), sign):
        nb = subset_batch(b, ~b.cyclic)
        f = resolvent_vec(nb)
        for i in range(nb.size):
            assert int(f[i]) == fundamental_discriminant(int(nb.disc[i]))


def test_resolvent_is_one_exactly_on_cyclic_records():
    cyclic = []
    for b in iter_batches(EnumerationRange(0, 20000), 1):
        f = resolvent_vec(b)
        assert np.array_equal(f == 1, b.cyclic)
        cyclic += b.disc[b.cyclic].tolist()
    assert cyclic[:3] == [49, 81, 169]


def test_census_mask_boundary_exact():
    b = next(iter_batches(EnumerationRange(23, 24), -1))
    f = resolvent_vec(b)
    assert int(abs_sextic_below(b.disc, f, 12167).sum()) == 0
    assert int(abs_sextic_below(b.disc, f, 12168).sum()) == 1


def test_census_mask_boundary_exact_beyond_float64():
    # synthetic pair whose product sits near 1e23, where the bound itself
    # is not float64-representable; the fence must still be exact
    disc = np.array([10**7], dtype=np.int64)
    f = np.array([10**9 + 7], dtype=np.int64)
    d6 = 10**14 * (10**9 + 7)
    assert not abs_sextic_below(disc, f, d6)[0]
    assert abs_sextic_below(disc, f, d6 + 1)[0]
    assert not abs_sextic_below(disc, f, d6 - 1)[0]


_ROOT_2_63 = 3_037_000_499  # largest d with d^2 < 2^63


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.integers(1, 3 * 10**9),
                      st.integers(_ROOT_2_63 - 8, _ROOT_2_63 + 8)),
            st.one_of(st.integers(1, 4 * 10**9), st.just(1)),
            st.sampled_from((-1, 1)),
            st.sampled_from((-1, 1)),
        ),
        min_size=1,
        max_size=20,
    ),
    st.integers(0, 19),
    st.sampled_from((-1, 0, 1)),
    st.booleans(),
)
def test_census_mask_matches_python_ints(rows, pick, delta, near_int64_max):
    disc = np.array([s * d for d, _, s, _ in rows], dtype=np.int64)
    f = np.array([s * g for _, g, _, s in rows], dtype=np.int64)
    if near_int64_max:
        x = 2**63 + delta  # x - 1 on both sides of the int64 limit
    else:
        d, g, _, _ = rows[pick % len(rows)]
        x = max(d * d * g + delta, 1)
    want = [d * d * g < x for d, g, _, _ in rows]
    assert abs_sextic_below(disc, f, x).tolist() == want


def test_residues_match_exact():
    for b in iter_batches(EnumerationRange(0, 20000), -1):
        nb = subset_batch(b, ~b.cyclic)
        f = resolvent_vec(nb)
        for mod in (5, 7):
            r = sextic_residues(nb.disc, f, mod)
            for i in range(0, nb.size, 53):
                ds = int(nb.disc[i]) ** 2 * int(f[i])
                assert int(r[i]) == ds % mod


@pytest.mark.parametrize("sign", [1, -1])
def test_kernel_matches_scalar_on_complete_and_decoded_batches(sign):
    """One reduceat per batch gives each record's kernel, on complete
    windows low and high and on the slices a cache replay decodes."""
    batches = [b for lo in (0, 10**8)
               for b in iter_batches(EnumerationRange(lo, lo + 20_000), sign)]
    with mock.patch.object(cli, "_SLICE_ROWS", 500):
        decoded = [cli._decode_rows(block, sign, 0, 2**63)
                   for b in batches for block in cli._encode_batch(b).blocks]
    assert len(decoded) > len(batches)
    for batch in batches + decoded:
        f = resolvent_vec(batch)
        want = [squarefree_kernel(factorize(int(d))) for d in batch.disc]
        assert np.where(f % 4 == 1, f, f // 4).tolist() == want


def _without_pairs(batch: WindowBatch, i: int) -> WindowBatch:
    """The batch with record i's pairs taken out."""
    ptr = batch.prof_ptr
    keep = np.ones(ptr[-1], dtype=bool)
    keep[ptr[i] : ptr[i + 1]] = False
    counts = np.diff(ptr)
    counts[i] = 0
    return WindowBatch(batch.coeffs, batch.disc, batch.cyclic,
                       np.concatenate(([0], np.cumsum(counts))),
                       batch.prof_p[keep], batch.prof_e[keep], batch.prof_total[keep])


@pytest.mark.parametrize("which", [0, -1], ids=["first", "last"])
def test_resolvent_rejects_a_record_without_a_pair(which):
    """reduceat would give a record with no pair the next record's factor,
    or fail on the last record; the guard raises for both."""
    batch = next(iter_batches(EnumerationRange(0, 100), -1))
    assert batch.disc[0] == -23 and batch.size > 2
    with pytest.raises(ConsistencyError, match="no ramified prime"):
        resolvent_vec(_without_pairs(batch, which % batch.size))


def test_resolvent_of_an_empty_batch_is_empty():
    batch = next(iter_batches(EnumerationRange(0, 100), -1))
    f = resolvent_vec(subset_batch(batch, np.zeros(batch.size, dtype=bool)))
    assert f.dtype == np.int64 and f.shape == (0,)


def test_missing_pair_raises_under_optimised_interpreter():
    script = textwrap.dedent("""
        import numpy as np
        from s3census import enumeration as en
        from s3census.sextic import resolvent_vec

        assert False, "asserts must be stripped"
        b = next(en.iter_batches(en.EnumerationRange(0, 100), -1))
        n = b.prof_ptr[1]
        ptr = np.concatenate(([0], b.prof_ptr[2:] - n))
        bare = en.WindowBatch(b.coeffs, b.disc, b.cyclic, np.concatenate(([0], ptr)),
                              b.prof_p[n:], b.prof_e[n:], b.prof_total[n:])
        try:
            resolvent_vec(bare)
        except en.ConsistencyError as exc:
            print(exc)
    """)
    env = dict(os.environ)
    src = str(Path(s3census.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "a record has no ramified prime\n"
