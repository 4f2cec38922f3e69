"""Local behaviour of a cubic form at a prime.

For an irreducible integral form f this module decides, prime by prime,
whether the associated cubic ring is maximal, how the prime splits in the
cubic field, and whether ramification is partial (one square factor) or
total (a cube).  Everything here is exact scalar arithmetic; the heavy
array versions used during enumeration live next to the sweep code and are
cross-tested against these.

Conventions used throughout:

* a point of the projective line over F_p is (k : 1) for 0 <= k < p,
  or (1 : 0);
* the ring attached to f is non-maximal at p exactly when p divides the
  content, or some multiplicity >= 2 root of f mod p can be moved to
  (1 : 0) so that the transformed form has p^2 | a' and p | b';
* f has a triple root mod p exactly when its Hessian vanishes mod p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from s3census.forms import BinaryCubicForm, _require, content, discriminant, hessian


class SplittingType(Enum):
    SPLIT = "(111)"
    MIXED = "(12)"
    INERT = "(3)"
    PARTIAL = "(1^2 1)"
    TOTAL = "(1^3)"

    def __str__(self):
        return self.value


UNRAMIFIED = (SplittingType.SPLIT, SplittingType.MIXED, SplittingType.INERT)
RAMIFIED = (SplittingType.PARTIAL, SplittingType.TOTAL)
ALL_TYPES = UNRAMIFIED + RAMIFIED


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    # deterministic Miller-Rabin, valid far beyond 2^64
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Factorization:
    """Signed prime factorization: value == sign * prod(p**e)."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +-1")
        last = 1
        for p, e in self.factors:
            if p <= last or e < 1:
                raise ValueError("factors must be ascending primes with e >= 1")
            last = p

    def value(self) -> int:
        n = self.sign
        for p, e in self.factors:
            n *= p**e
        return n

    def exponent(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0


def factorize(n: int) -> Factorization:
    """Trial-division factorization of a nonzero integer."""
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = 1 if n > 0 else -1
    n = abs(n)
    factors = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
    q = 5
    while q * q <= n:
        if n % q == 0:
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            factors.append((q, e))
        q += 4 if q % 6 == 1 else 2
    if n > 1:
        factors.append((n, 1))
    return Factorization(sign, tuple(factors))


def _fprime(f: BinaryCubicForm, k: int) -> int:
    # d/dx of f(x, 1) at k
    return (3 * f.a * k + 2 * f.b) * k + f.c


def is_maximal_at(f: BinaryCubicForm, p: int) -> bool:
    """Whether the cubic ring of f is maximal at the prime p."""
    if content(f) % p == 0:
        return False
    # root at (1 : 0) with multiplicity >= 2 means p | a and p | b;
    # the form is already in moved position there
    if f.a % p == 0 and f.b % p == 0:
        if f.a % (p * p) == 0:
            return False
    for k in range(p):
        if f(k, 1) % p == 0 and _fprime(f, k) % p == 0:
            # moving (k : 1) to (1 : 0) gives a' = f(k, 1), b' = -f'(k),
            # so with p | b' known the index test is p^2 | f(k, 1)
            if f(k, 1) % (p * p) == 0:
                return False
    return True


def is_maximal(f: BinaryCubicForm, disc_factorization: Factorization) -> bool:
    """Maximality of the cubic ring of f at every prime.

    The caller supplies the factorization of disc(f); it is checked against
    the form and a mismatch raises ValueError.  Only primes whose square
    divides the discriminant can obstruct maximality.
    """
    if disc_factorization.value() != discriminant(f):
        raise ValueError("factorization does not match disc(f)")
    for p, e in disc_factorization.factors:
        if e >= 2 and not is_maximal_at(f, p):
            return False
    return True


def has_triple_root(f: BinaryCubicForm, p: int) -> bool:
    """Triple root of f mod p in P^1(F_p); requires p not dividing content."""
    if content(f) % p == 0:
        raise ValueError("form vanishes mod p")
    hp, hq, hr = hessian(f)
    return hp % p == 0 and hq % p == 0 and hr % p == 0


def _root_count(f: BinaryCubicForm, p: int) -> int:
    n = sum(1 for k in range(p) if f(k, 1) % p == 0)
    if f.a % p == 0:
        n += 1
    return n


def splitting_type(f: BinaryCubicForm, p: int) -> SplittingType:
    """Factor shape of f mod p, the splitting of p in the cubic ring.

    This is a statement about the reduction of f mod p only; for a maximal
    irreducible form it is the splitting of p in the field.  The form must
    not vanish mod p.
    """
    if content(f) % p == 0:
        raise ValueError("form vanishes mod p")
    if discriminant(f) % p == 0:
        return SplittingType.TOTAL if has_triple_root(f, p) else SplittingType.PARTIAL
    n = _root_count(f, p)
    if n == 3:
        return SplittingType.SPLIT
    if n == 1:
        return SplittingType.MIXED
    _require(n == 0, "cubic mod p with exactly two simple roots")
    return SplittingType.INERT


def is_totally_ramified(f: BinaryCubicForm, p: int) -> bool:
    return splitting_type(f, p) is SplittingType.TOTAL


def is_cyclic(f: BinaryCubicForm) -> bool:
    """Square discriminant detects the cyclic (Galois) cubics."""
    d = discriminant(f)
    if d <= 0:
        return False
    r = math.isqrt(d)
    return r * r == d


@dataclass(frozen=True)
class RamifiedPrime:
    p: int
    e: int        # exponent of p in disc(f)
    total: bool   # cube factor mod p, rather than a single square

    def __str__(self):
        return f"{self.p}:{self.e}:{'T' if self.total else 'P'}"


# exponents a prime can contribute to the discriminant of a maximal ring
_ALLOWED_E = {2: (2, 3), 3: (1, 3, 4, 5)}


def ramification_profile(f: BinaryCubicForm,
                         disc_factorization: Factorization) -> tuple[RamifiedPrime, ...]:
    """Ramified primes of a maximal form, with exponent and T/P tag.

    Cross-checks the exponent against what each kind of ramification can
    produce, so a non-maximal or mis-factored input fails loudly.
    """
    if disc_factorization.value() != discriminant(f):
        raise ValueError("factorization does not match disc(f)")
    out = []
    for p, e in disc_factorization.factors:
        total = is_totally_ramified(f, p)
        allowed = _ALLOWED_E.get(p, (1, 2))
        if e not in allowed:
            raise ValueError(f"disc exponent {e} at p={p} impossible for a maximal form")
        if p == 3:
            _require(total == (e >= 3), "total ramification at 3 disagrees with e")
        elif p >= 5:
            _require(total == (e == 2), "total ramification disagrees with e")
        elif p == 2 and e == 3:
            _require(not total, "wild cube at 2 with odd exponent")
        out.append(RamifiedPrime(p, e, total))
    return tuple(out)
