"""Integer binary cubic forms: invariants, GL2(Z) action, reduction.

A form ``(a, b, c, d)`` stands for ``a*u**3 + b*u**2*v + c*u*v**2 + d*v**3``.
Matrices act by substitution on the row vector ``(u, v)``, i.e.
``apply(g, f)(u, v) == f((u, v) @ g)``; applying g and then h therefore
applies the matrix product g @ h.

Every irreducible form with nonzero discriminant has a unique canonical
representative in its GL2(Z)-orbit:

* negative discriminant: the unique equivalent form with positive leading
  coefficient whose complex upper-half-plane root z satisfies
  ``0 < Re z < 1/2`` and ``|z| > 1``.  Those analytic conditions are decided
  by exact integer inequalities on the coefficients (see ``_re_positive``
  and friends below); for irreducible forms the boundary cases cannot occur.
* positive discriminant: the Hessian is positive definite, so it is Gauss
  reduced to the cone ``0 <= Q <= P <= R``; remaining ambiguity (only on the
  cone boundary, plus the global sign) is resolved by scanning the finitely
  many unimodular maps with entries in {-1, 0, 1} and picking the
  lexicographically least equivalent form with ``a > 0``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass


class ConsistencyError(RuntimeError):
    """An internal cross-check failed: the program, not its input, is wrong.

    Raised explicitly, so the checks also run under `python -O`.
    """


def _require(ok, message: str) -> None:
    if not ok:
        raise ConsistencyError(message)


_ROUNDS = 10_000  # cap on reduction rounds; Gauss reduction needs O(log P)


@dataclass(frozen=True)
class BinaryCubicForm:
    a: int
    b: int
    c: int
    d: int

    def __call__(self, u: int, v: int) -> int:
        return ((self.a * u + self.b * v) * u + self.c * v * v) * u + self.d * v**3

    def coefficients(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __neg__(self) -> "BinaryCubicForm":
        return BinaryCubicForm(-self.a, -self.b, -self.c, -self.d)


@dataclass(frozen=True)
class UnimodularMap:
    """2x2 integer matrix with determinant +-1."""

    g11: int
    g12: int
    g21: int
    g22: int

    def __post_init__(self):
        if self.determinant() not in (1, -1):
            raise ValueError(f"map {self.rows()} is not unimodular")

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.g11, self.g12), (self.g21, self.g22))

    def determinant(self) -> int:
        return self.g11 * self.g22 - self.g12 * self.g21


# All unimodular maps with entries in {-1, 0, 1}.  For a positive-definite
# reduced quadratic these exhaust the maps between cone representatives.
SMALL_GL2 = tuple(
    UnimodularMap(g11, g12, g21, g22)
    for g11 in (-1, 0, 1)
    for g12 in (-1, 0, 1)
    for g21 in (-1, 0, 1)
    for g22 in (-1, 0, 1)
    if g11 * g22 - g12 * g21 in (1, -1)
)


def discriminant(f: BinaryCubicForm) -> int:
    a, b, c, d = f.a, f.b, f.c, f.d
    return (18 * a * b * c * d - 4 * b**3 * d + b * b * c * c
            - 4 * a * c**3 - 27 * a * a * d * d)


def hessian(f: BinaryCubicForm) -> tuple[int, int, int]:
    """Quadratic covariant (P, Q, R) with P*u*u + Q*u*v + R*v*v.

    Satisfies Q*Q - 4*P*R == -3 * discriminant(f), so it is positive
    definite exactly when the discriminant is positive.
    """
    a, b, c, d = f.a, f.b, f.c, f.d
    return (b * b - 3 * a * c, b * c - 9 * a * d, c * c - 3 * b * d)


def content(f: BinaryCubicForm) -> int:
    g = math.gcd(math.gcd(abs(f.a), abs(f.b)), math.gcd(abs(f.c), abs(f.d)))
    if g == 0:
        raise ValueError("content of the zero form is undefined")
    return g


def apply(g: UnimodularMap, f: BinaryCubicForm) -> BinaryCubicForm:
    """Form obtained by substituting (u, v) -> (u, v) @ g into f."""
    al, ga = g.g11, g.g21
    be, de = g.g12, g.g22
    a, b, c, d = f.a, f.b, f.c, f.d
    return BinaryCubicForm(
        f(al, ga),
        3 * a * al * al * be + b * (al * al * de + 2 * al * be * ga)
        + c * (2 * al * ga * de + be * ga * ga) + 3 * d * ga * ga * de,
        3 * a * al * be * be + b * (2 * al * be * de + be * be * ga)
        + c * (al * de * de + 2 * be * ga * de) + 3 * d * ga * de * de,
        f(be, de),
    )


@functools.lru_cache(maxsize=1 << 16)
def _divisors(n: int) -> tuple[int, ...]:
    # positive divisors, trial division; the oracle asks for the same few often
    n = abs(n)
    small = [i for i in range(1, math.isqrt(n) + 1) if n % i == 0]
    return (*small, *(n // i for i in reversed(small) if i * i != n))


def is_irreducible(f: BinaryCubicForm) -> bool:
    """True when f has no linear factor over Q.

    Forms with zero discriminant are rejected: they have a repeated root
    and never cut out a cubic field, so callers must not reach this point
    with one.
    """
    if discriminant(f) == 0:
        raise ValueError("form has zero discriminant")
    a, b, c, d = f.a, f.b, f.c, f.d
    if a == 0 or d == 0:
        return False
    # any rational projective root (p : q) in lowest terms has p | d, q | a;
    # f(+-p, q) = even +- odd, with even = (b p^2 + d q^2) q, odd = (a p^2 + c q^2) p
    for q in _divisors(a):
        bq, dq3, cq2 = b * q, d * q * q * q, c * q * q
        for p in _divisors(d):
            if math.gcd(p, q) == 1:
                pp = p * p
                even, odd = bq * pp + dq3, (a * pp + cq2) * p
                if even == odd or even == -odd:
                    return False
    return True


def _sign_norm(f: BinaryCubicForm) -> BinaryCubicForm:
    return f if f.a > 0 else -f


def _translate(f: BinaryCubicForm, k: int) -> BinaryCubicForm:
    # x -> x + k on the dehomogenized cubic; roots shift by -k
    a, b, c, d = f.a, f.b, f.c, f.d
    return BinaryCubicForm(a, 3 * a * k + b, (3 * a * k + 2 * b) * k + c, f(k, 1))


def _mirror(f: BinaryCubicForm) -> BinaryCubicForm:
    # x -> -x, sign normalized; roots negate
    return BinaryCubicForm(f.a, -f.b, f.c, -f.d)


def _invert(f: BinaryCubicForm) -> BinaryCubicForm:
    # x -> -1/x; swaps Hessian P and R and negates Q
    return BinaryCubicForm(f.d, -f.c, f.b, -f.a)


# Exact predicates on the complex root z (Im z > 0) of a negative
# discriminant form with a > 0.  Writing f = a(x - t)(x^2 + p x + q):
#   a*d - b*c            == -a^2 p |t + z|^2       > 0  iff  Re z > 0
#   (a+b)^2 + a*c - (ad-bc) == a^2 (1+p) |t-1+z|^2 > 0  iff  Re z < 1/2
#   d^2 - b*d + a*c - a^2 == a^2 (q-1) q |t - 1/z|^2   > 0  iff  |z| > 1
# Equality forces a rational factor, impossible for irreducible forms.
# The middle predicate of _translate(f, k), as a polynomial in k, is
#   g(k) = 8a^2 k^3 + (12a^2 + 8ab) k^2 + (6a^2 + 8ab + 2ac + 2b^2) k
#          + (a+b)^2 + ac - ad + bc,
# and g(k) > 0 iff Re z - k < 1/2: its sign changes once, from - to +.

def _re_positive(f: BinaryCubicForm) -> int:
    return f.a * f.d - f.b * f.c


def _below_half_cubic(f: BinaryCubicForm) -> tuple[int, int, int, int]:
    # coefficients of g(k), highest degree first
    a, b, c, d = f.a, f.b, f.c, f.d
    return (8 * a * a, 12 * a * a + 8 * a * b,
            6 * a * a + 8 * a * b + 2 * a * c + 2 * b * b,
            (a + b) ** 2 + a * c - a * d + b * c)


def _outside_unit_circle(f: BinaryCubicForm) -> int:
    return f.d * f.d - f.b * f.d + f.a * f.c - f.a * f.a


def _reduce_complex(f: BinaryCubicForm) -> BinaryCubicForm:
    f = _sign_norm(f)
    for _ in range(_ROUNDS):
        # shift Re z into (-1/2, 1/2): bisect the least integer k with g(k) > 0
        g3, g2, g1, g0 = _below_half_cubic(f)
        bound = 2 + max(abs(f.b), abs(f.c), abs(f.d)) // f.a
        lo, hi = -bound, bound  # Cauchy bound: lo - 1/2 < Re z < hi + 1/2
        _require(((g3 * hi + g2) * hi + g1) * hi + g0 > 0,
                 "complex root beyond the Cauchy bound")
        while lo < hi:
            mid = (lo + hi) // 2
            if ((g3 * mid + g2) * mid + g1) * mid + g0 > 0:
                hi = mid
            else:
                lo = mid + 1
        if lo:
            f = _translate(f, lo)
        t1 = _re_positive(f)
        _require(t1 != 0, "boundary form should have been caught as reducible")
        if t1 < 0:
            f = _mirror(f)
        if _outside_unit_circle(f) > 0:
            return f
        f = _sign_norm(_invert(f))
    raise ConsistencyError(f"complex reduction did not converge in {_ROUNDS} rounds")


def _reduce_real(f: BinaryCubicForm) -> BinaryCubicForm:
    f = _sign_norm(f)
    for _ in range(_ROUNDS):
        p, q, r = hessian(f)
        k = (p - q) // (2 * p)  # puts q + 2*p*k in (-p, p]
        if k:
            f = _translate(f, k)
        elif r < p:
            f = _invert(f)  # strictly decreases p
        else:
            break
    else:
        raise ConsistencyError(f"real reduction did not converge in {_ROUNDS} rounds")
    if q < 0:
        f, q = _mirror(f), -q
    if 0 < q < p < r:
        # strictly inside the Gauss cone only +-I keep the Hessian there,
        # and the sign normalisation undoes -I
        return _sign_norm(f)
    # on a cone face: settle the boundary/sign ambiguity by small-map scan
    mates = []
    for g in SMALL_GL2:
        h = _sign_norm(apply(g, f))
        p, q, r = hessian(h)
        if 0 <= q <= p <= r:
            mates.append(h.coefficients())
    _require(mates, "no equivalent form in the Gauss cone")
    return BinaryCubicForm(*min(mates))


def canonical_reduce(f: BinaryCubicForm) -> BinaryCubicForm:
    """Canonical representative of the GL2(Z)-orbit of f.

    Only irreducible forms are accepted: reducible or repeated-root input
    raises ValueError.
    """
    if not is_irreducible(f):  # also rejects zero discriminant
        raise ValueError(f"form {f.coefficients()} is reducible")
    if discriminant(f) > 0:
        return _reduce_real(f)
    return _reduce_complex(f)
