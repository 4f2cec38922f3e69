import ast
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import s3census
from s3census.enumeration import EnumerationRange, enumerate_fields
from s3census.forms import (
    SMALL_GL2,
    BinaryCubicForm,
    ConsistencyError,
    UnimodularMap,
    _below_half_cubic,
    _invert,
    _mirror,
    _reduce_real,
    _translate,
    apply,
    canonical_reduce,
    content,
    discriminant,
    hessian,
    is_irreducible,
)

F = BinaryCubicForm
IDENTITY = UnimodularMap(1, 0, 0, 1)


def compose(g, h):
    """Matrix product g @ h (test-local: the library only applies maps)."""
    return UnimodularMap(g.g11 * h.g11 + g.g12 * h.g21, g.g11 * h.g12 + g.g12 * h.g22,
                         g.g21 * h.g11 + g.g22 * h.g21, g.g21 * h.g12 + g.g22 * h.g22)


def inverse(g):
    det = g.determinant()
    return UnimodularMap(det * g.g22, -det * g.g12, -det * g.g21, det * g.g11)


def det5(m):
    # cofactor expansion, exact integers
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j, head in enumerate(m[0]):
        if head == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * head * det5(minor)
    return total


def disc_oracle(f):
    """Discriminant via the Sylvester resultant of f(x,1) and its derivative.

    Independent of the closed-form polynomial used by the library.
    """
    a, b, c, d = f.a, f.b, f.c, f.d
    assert a != 0
    syl = [
        [a, b, c, d, 0],
        [0, a, b, c, d],
        [3 * a, 2 * b, c, 0, 0],
        [0, 3 * a, 2 * b, c, 0],
        [0, 0, 3 * a, 2 * b, c],
    ]
    res = det5(syl)
    assert res % a == 0
    return -res // a


coeff = st.integers(min_value=-40, max_value=40)
forms = st.builds(F, coeff, coeff, coeff, coeff)


def gl2_maps():
    shear = st.integers(min_value=-4, max_value=4).map(
        lambda k: UnimodularMap(1, 0, k, 1))
    flip = st.sampled_from([UnimodularMap(0, 1, -1, 0),
                            UnimodularMap(-1, 0, 0, 1),
                            IDENTITY])
    word = st.lists(st.one_of(shear, flip), min_size=0, max_size=6)

    def mul(ms):
        out = IDENTITY
        for m in ms:
            out = compose(out, m)
        return out

    return word.map(mul)


# ---------------------------------------------------------------- invariants


def test_discriminant_known_values():
    assert discriminant(F(1, 0, -1, -1)) == -23
    assert discriminant(F(1, 0, 0, 0)) == 0
    assert discriminant(F(1, -1, -2, 1)) == 49
    assert discriminant(F(1, 0, 0, -2)) == -108


@given(forms)
def test_discriminant_matches_resultant_oracle(f):
    if f.a == 0:
        f = F(f.a + 1, f.b, f.c, f.d)
    assert discriminant(f) == disc_oracle(f)


def test_hessian_values():
    assert hessian(F(1, 0, -3, 1)) == (9, -9, 9)
    assert hessian(F(1, 0, 0, 0)) == (0, 0, 0)
    assert hessian(F(1, -1, -2, 1)) == (7, -7, 7)


@given(forms)
def test_hessian_syzygy(f):
    p, q, r = hessian(f)
    assert q * q - 4 * p * r == -3 * discriminant(f)


def test_content_values():
    assert content(F(2, 4, -6, 8)) == 2
    assert content(F(1, 0, -1, -1)) == 1
    with pytest.raises(ValueError):
        content(F(0, 0, 0, 0))


# ------------------------------------------------------------------- action


def test_apply_swap_example():
    g = UnimodularMap(0, 1, 1, 0)
    assert apply(g, F(1, 0, -1, -1)) == F(-1, -1, 0, 1)


def test_apply_rejects_nonunimodular():
    with pytest.raises(ValueError):
        UnimodularMap(2, 0, 0, 1)
    with pytest.raises(ValueError):
        UnimodularMap(1, 1, 1, 1)


@given(forms, gl2_maps())
def test_disc_and_content_invariant(f, g):
    if f == F(0, 0, 0, 0):
        return
    assert discriminant(apply(g, f)) == discriminant(f)
    assert content(apply(g, f)) == content(f)


@given(forms, gl2_maps(), gl2_maps())
def test_apply_is_right_action(f, g, h):
    assert apply(h, apply(g, f)) == apply(compose(g, h), f)


@given(gl2_maps())
def test_inverse(g):
    assert compose(g, inverse(g)) == IDENTITY
    assert compose(inverse(g), g) == IDENTITY


# ----------------------------------------------------------- irreducibility


def test_irreducible_examples():
    assert is_irreducible(F(1, 0, -1, -1))
    assert is_irreducible(F(1, 0, 0, -2))
    assert not is_irreducible(F(1, 1, 1, 1))     # (x+1)(x^2+1)
    assert not is_irreducible(F(0, 1, 1, 1))     # v divides
    assert not is_irreducible(F(2, 1, 0, 1))     # root at x = -1
    with pytest.raises(ValueError):
        is_irreducible(F(1, 0, 0, 0))


def test_reducible_detection_against_root_search():
    rng = random.Random(5)
    for _ in range(300):
        f = F(rng.randint(-15, 15), rng.randint(-15, 15),
              rng.randint(-15, 15), rng.randint(-15, 15))
        if discriminant(f) == 0:
            continue
        has_root = any(
            f(p, q) == 0
            for q in range(0, 16)
            for p in range(-15, 16)
            if (p, q) != (0, 0) and math.gcd(p, q) == 1
        )
        assert is_irreducible(f) == (not has_root)


# -------------------------------------------------------------- reduction


def test_canonical_of_smallest_complex_field():
    assert canonical_reduce(F(1, 0, -1, -1)) == F(1, -1, 2, -1)


def test_canonical_rejects_reducible_and_degenerate():
    with pytest.raises(ValueError):
        canonical_reduce(F(1, 0, 0, 0))
    with pytest.raises(ValueError):
        canonical_reduce(F(1, 1, 1, 1))


def reduced_region_ok(f):
    D = discriminant(f)
    if D > 0:
        p, q, r = hessian(f)
        return f.a > 0 and 0 <= q <= p <= r
    t1 = f.a * f.d - f.b * f.c
    t2 = (f.a + f.b) ** 2 + f.a * f.c - t1
    t3 = f.d * f.d - f.b * f.d + f.a * f.c - f.a * f.a
    return f.a > 0 and t1 > 0 and t2 > 0 and t3 > 0


irr_forms = forms.filter(
    lambda f: discriminant(f) != 0 and f.a != 0 and f.d != 0 and is_irreducible(f))


@settings(deadline=None)
@given(irr_forms, gl2_maps())
def test_canonical_is_orbit_invariant(f, g):
    cf = canonical_reduce(f)
    assert reduced_region_ok(cf)
    assert canonical_reduce(cf) == cf
    assert canonical_reduce(apply(g, f)) == cf
    assert canonical_reduce(-f) == cf
    assert canonical_reduce(_mirror(f)) == cf  # lets the oracle scan b >= 0 only


def equivalent(f, g):
    """GL2(Z)-equivalence, decided by comparing canonical representatives."""
    return canonical_reduce(f) == canonical_reduce(g)


@settings(deadline=None)
@given(irr_forms, gl2_maps())
def test_equivalent_agrees_with_explicit_map(f, g):
    assert equivalent(f, apply(g, f))


def test_inequivalent_when_disc_differs():
    assert not equivalent(F(1, 0, -1, -1), F(1, 0, 0, -2))


def all_maps_entries_within(bound):
    rng = range(-bound, bound + 1)
    for g11 in rng:
        for g12 in rng:
            for g21 in rng:
                for g22 in rng:
                    if g11 * g22 - g12 * g21 in (1, -1):
                        yield UnimodularMap(g11, g12, g21, g22)


def test_small_map_scan_is_complete_for_positive_disc():
    """Entries-in-{-1,0,1} maps already reach every cone representative.

    Rescanning with entries up to 2 must find no new reduced forms, so the
    lexicographic minimum over SMALL_GL2 is the true orbit minimum.
    """
    wide = list(all_maps_entries_within(2))
    rng = random.Random(11)
    checked = 0
    while checked < 25:
        f = F(rng.randint(-9, 9), rng.randint(-9, 9),
              rng.randint(-9, 9), rng.randint(-9, 9))
        if discriminant(f) <= 0:
            continue
        if not is_irreducible(f):
            continue
        cf = canonical_reduce(f)

        def cone_mates(maps, base):
            out = set()
            for g in maps:
                h = apply(g, base)
                if h.a < 0:
                    h = -h
                p, q, r = hessian(h)
                if 0 <= q <= p <= r:
                    out.add(h.coefficients())
            return out

        assert cone_mates(wide, cf) == cone_mates(SMALL_GL2, cf)
        assert min(cone_mates(SMALL_GL2, cf)) == cf.coefficients()
        checked += 1


@settings(max_examples=300)
@given(st.builds(F, *[st.integers(-10**6, 10**6)] * 4), st.integers(-10**4, 10**4))
def test_below_half_cubic_is_the_translated_predicate(f, k):
    a, b, c, d = _translate(f, k).coefficients()
    long_way = (a + b) ** 2 + a * c - (a * d - b * c)
    g3, g2, g1, g0 = _below_half_cubic(f)
    assert ((g3 * k + g2) * k + g1) * k + g0 == long_way


def full_cone_scan(f):
    """Lexicographically least a > 0 cone form among all SMALL_GL2 images of f."""
    mates = []
    for g in SMALL_GL2:
        h = apply(g, f)
        h = h if h.a > 0 else -h
        p, q, r = hessian(h)
        if 0 <= q <= p <= r:
            mates.append(h.coefficients())
    return F(*min(mates))


def _face(f):
    p, q, r = hessian(f)
    return "Q=0" if q == 0 else "Q=P" if q == p else "P=R" if p == r else "inside"


# canonical positive forms from the sweep, an independent route
POSITIVE_FIELDS = [r.form() for r in enumerate_fields(EnumerationRange(0, 5000), 1)]


@settings(deadline=None)
@given(irr_forms.filter(lambda f: discriminant(f) > 0), gl2_maps())
def test_reduce_real_equals_full_cone_scan(f, g):
    cf = _reduce_real(apply(g, f))
    assert cf == full_cone_scan(cf) == _reduce_real(f)


@pytest.mark.parametrize("face", ["Q=0", "Q=P", "P=R"])
@settings(deadline=None, max_examples=60)
@given(data=st.data(), g=gl2_maps())
def test_reduce_real_on_cone_faces(face, data, g):
    f = data.draw(st.sampled_from([f for f in POSITIVE_FIELDS if _face(f) == face]))
    assert full_cone_scan(f) == f
    assert _reduce_real(apply(g, f)) == f
    assert _reduce_real(-apply(g, f)) == f


def test_reduce_real_normalises_the_sign_inside_the_cone():
    # inverting an inside form with d > 0 brings reduction back to -f
    assert any(_face(f) == "inside" and f.d > 0 for f in POSITIVE_FIELDS)
    for f in POSITIVE_FIELDS:
        assert _reduce_real(_invert(f)) == f
        for g in SMALL_GL2:
            assert _reduce_real(apply(g, f)) == f


@pytest.mark.parametrize("f", [
    F(1, -3, -1, 1),  # real: Hessian (12, -6, 10), R < P needs an invert
    F(1, 0, -1, -1),  # complex, needs an invert
])
def test_reducers_fail_loudly_without_progress(f, monkeypatch):
    monkeypatch.setattr(s3census.forms, "_invert", lambda f: f)
    with pytest.raises(ConsistencyError, match="did not converge"):
        canonical_reduce(f)


def test_no_bare_assert_in_package():
    """Package checks raise ConsistencyError, so they survive `python -O`."""
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(Path(s3census.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_one_thread_pool_in_package():
    """Threads start in one place, `enumeration.map_windows`, which bounds them."""
    found = [
        "%s:%s" % (path.name, getattr(top, "name", top.lineno))
        for path in sorted(Path(s3census.__file__).parent.glob("*.py"))
        for top in ast.parse(path.read_text(), str(path)).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None))
        in ("ThreadPoolExecutor", "ProcessPoolExecutor", "Thread")
    ]
    assert found == ["enumeration.py:map_windows"]
