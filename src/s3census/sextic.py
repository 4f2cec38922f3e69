"""From non-cyclic cubic fields to their Galois closures.

A non-cyclic cubic field K has an S3 sextic closure Kt, and every such
sextic arises exactly once this way, so tabulating sextic fields by
|disc(Kt)| reduces to tabulating cubic fields with a discriminant
translation.  Two independent routes to disc(Kt) are implemented:

* resolvent route: disc(Kt) = disc(K)^2 * F, with F the fundamental
  discriminant of the quadratic resolvent Q(sqrt(disc K));
* local route: v_p(disc Kt) is read off the ramification profile alone
  (3 * v_p(disc K) when p is not totally ramified in K, 2 * v_p when it
  is and p != 3, and 7/8/11 for v_3 = 3/4/5 when 3 is).

They must agree exponent by exponent; every entry point checks that they
do, which guards the profile tags, the factorization and the resolvent
arithmetic against each other.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from s3census.enumeration import WindowBatch
from s3census.forms import _require
from s3census.local_analysis import Factorization, RamifiedPrime, factorize

_TOTAL_AT_3 = {3: 7, 4: 8, 5: 11}
_INT64_MAX = np.iinfo(np.int64).max


def squarefree_kernel(fact: Factorization) -> int:
    """Signed product of the primes appearing to an odd power."""
    k = fact.sign
    for p, e in fact.factors:
        if e % 2:
            k *= p
    return k


def fundamental_discriminant(n: int) -> int:
    """Discriminant of Q(sqrt(n)); 1 when n is a square."""
    s = squarefree_kernel(factorize(n))
    f = s if s % 4 == 1 else 4 * s
    _require(f % 4 in (0, 1), "fundamental discriminant is not 0 or 1 mod 4")
    return f


def _local_exponent(rp: RamifiedPrime) -> int:
    if not rp.total:
        return 3 * rp.e
    if rp.p == 3:
        return _TOTAL_AT_3[rp.e]
    return 2 * rp.e


def sextic_discriminant(disc: int, profile: Iterable[RamifiedPrime]) -> int:
    """Discriminant of the S3 closure of a cubic field.

    disc and profile must describe the same non-cyclic field; cyclic input
    (square discriminant, trivial resolvent) is rejected.  Both discriminant
    routes are evaluated and compared before the value is returned.
    """
    fact = factorize(disc)
    prof = tuple(profile)
    if [(p, e) for p, e in fact.factors] != [(rp.p, rp.e) for rp in prof]:
        raise ValueError("profile does not match the discriminant")
    s = squarefree_kernel(fact)
    if s == 1:
        raise ValueError("cyclic cubic fields have no S3 closure")
    f = s if s % 4 == 1 else 4 * s

    local = 1 if disc > 0 else -1
    for rp in prof:
        local *= rp.p ** _local_exponent(rp)
    v2f = 0 if f % 2 else (3 if s % 2 == 0 else 2)
    for rp in prof:
        vf = v2f if rp.p == 2 else rp.e % 2
        _require(_local_exponent(rp) == 2 * rp.e + vf,
                 "discriminant routes disagree at a prime")
        if rp.p == 2 and rp.e == 2:
            _require(rp.total == (s % 4 == 1),
                     "wild tag at 2 inconsistent with the resolvent")
    resolvent = disc * disc * f
    _require(local == resolvent, "discriminant routes disagree")
    return resolvent


# ----------------------------------------------------------------- vector API


def resolvent_vec(batch: WindowBatch) -> np.ndarray:
    """Fundamental resolvent discriminant F per record, fully cross-checked.

    F is 1 exactly where the batch flags a cyclic record, or it raises.
    The per-prime closure exponents from the profile tags are checked
    against 2*e + v_p(F), so a single inconsistent tag anywhere raises.
    """
    s = batch.per_record(np.multiply, np.where(batch.prof_e % 2 == 1, batch.prof_p, 1))
    s = np.where(batch.disc < 0, -s, s)  # the signed squarefree kernel of disc
    _require(np.array_equal(s == 1, batch.cyclic),
             "trivial resolvent not exactly on the cyclic records")
    f = np.where(s % 4 == 1, s, 4 * s)

    p, e, total = batch.prof_p, batch.prof_e, batch.prof_total
    lemma = np.where(total, 2 * e, 3 * e)
    at3 = total & (p == 3)
    lut = np.array([0, 0, 0, 7, 8, 11], dtype=np.int64)
    lemma[at3] = lut[e[at3]]

    s_at = s[batch.pair_rows]
    v2f = np.where(s_at % 2 == 0, 3, np.where(s_at % 4 == 1, 0, 2))
    vf = np.where(p == 2, v2f, e % 2)
    _require(np.all(lemma == 2 * e + vf), "discriminant routes disagree at a prime")

    wild2 = (p == 2) & (e == 2)
    _require(np.all(total[wild2] == (s_at[wild2] % 4 == 1)),
             "wild tag at 2 inconsistent with the resolvent")
    return f


def abs_sextic_below(disc: np.ndarray, f: np.ndarray, x: int) -> np.ndarray:
    """Mask of records with |disc^2 * F| < x, exact at the boundary.

    The census cuts and bins with this one test.  As |disc(Kt)| overflows
    int64, it is |F| <= (x - 1) // disc^2 in exact int64 floor divisions,
    or in Python integers for a bound x - 1 beyond int64.
    """
    if x - 1 > _INT64_MAX:
        return np.array([int(d) ** 2 * abs(int(g)) < x for d, g in zip(disc, f)],
                        dtype=bool)
    d = np.abs(disc)
    return np.abs(f) <= np.int64(x - 1) // d // d


def sextic_residues(disc: np.ndarray, f: np.ndarray, mod: int) -> np.ndarray:
    """disc^2 * F mod `mod`, with the sign folded in the usual math way."""
    d = disc % mod
    return (d * d % mod) * (f % mod) % mod
