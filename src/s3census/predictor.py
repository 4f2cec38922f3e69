"""Closed-form prediction models for sextic twin-field counts.

The number of Galois sextic fields of symmetric type with 0 < +-d6 < X is
modelled by a two-term asymptotic

    count(X) ~ (C/12) * M * X^(1/3)  +  (4*K*zeta(1/3) / (5*Gamma(2/3)^3)) * S * X^(5/18)

where (C, K) = (1, 1) on the positive side and (3, sqrt(3)) on the negative
side, and M and S are Euler products over all primes of the local densities
``main_density(p)`` and ``secondary_density(p)``.  Since zeta(1/3) < 0 the
secondary term is a deficit, which matches the observed undercounts.

Each density has one body, for a prime or elementwise for a float array of
primes other than 3.  A term table gives each Euler product one row: its
local factor, the zeta values divided out and back in to speed it up, and
its residual tail shape; one evaluator reads the rows, and one doubling
check verifies every truncated product.

Three models are named as on the command line: "main" is the leading
term, "strong" the two-term sum, and "stronger" damps both terms by the
closed-form factors (1 - 12 X^(-1/12)/log X) and (1 - 9 X^(-1/9)/log X),
modelling the exclusion of large totally ramified primes at finite height.

Counts can be conditioned on splitting behaviour at finitely many primes:
each local density splits into five splitting-type weights, and restricting
a prime to a subset of types replaces its Euler factor by the corresponding
partial sum.  This is how the residue-class tables mod 5 are predicted.

On the positive side the enumerated counts exclude cyclic cubic fields, so
predictions subtract their contribution kappa/3 * X^(1/4), where kappa is
the leading constant of the cyclic cubic count by discriminant.

Two sets of evaluation constants are provided.  ``exact_constants()``
evaluates everything to full double precision with verified tail bounds.
``REFERENCE_CONSTANTS`` pins the slightly coarser values (about 1e-5
relative) that generated the bundled reference tables, so that rounded
predictions reproduce those tables digit for digit; see the dataclass
docstring for the details.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from s3census.local_analysis import (
    ALL_TYPES,
    RAMIFIED,
    UNRAMIFIED,
    SplittingType,
    _is_prime,
)


# ---------------------------------------------------------------------------
# special values

_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)


def _zeta_euler_maclaurin(s: float) -> float:
    # 49 explicit terms, integral + half-term, then 8 Bernoulli corrections;
    # the first omitted correction is < 1e-30 for every s >= 7/6 used here.
    n = 50.0
    total = math.fsum(k**-s for k in range(1, 50))
    total += n ** (1.0 - s) / (s - 1.0) + 0.5 * n**-s
    poch = s
    power = n ** (-s - 1.0)
    for j, b in enumerate(_BERNOULLI, start=1):
        total += b / math.factorial(2 * j) * poch * power
        poch *= (s + 2.0 * j - 1.0) * (s + 2.0 * j)
        power /= n * n
    return total


def _eta_alternating(s: float) -> float:
    """Dirichlet eta via Chebyshev-weighted alternating summation.

    The weights are the classic (3+sqrt(8))-acceleration scheme; with 48
    terms the truncation error is around (3+sqrt(8))^-48 ~ 1e-36, so the
    result is correct to working precision for every s in (0, 1].
    """
    n = 48
    d = (3.0 + 2.0 * math.sqrt(2.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    acc = 0.0
    for k in range(n):
        c = b - c
        acc += c * (k + 1.0) ** -s
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
    return acc / d


def riemann_zeta(s: float) -> float:
    """zeta(s) for real s > 0, s != 1, to full double precision.

    Euler-Maclaurin summation for s > 1; for 0 < s < 1 the alternating
    eta series is accelerated and converted via zeta = eta / (1 - 2^(1-s)).
    """
    if s <= 0.0 or s == 1.0:
        raise ValueError(f"zeta evaluated only for s > 0, s != 1, got {s}")
    if s > 1.0:
        return _zeta_euler_maclaurin(s)
    return _eta_alternating(s) / (1.0 - 2.0 ** (1.0 - s))


@lru_cache(maxsize=1)
def secondary_coefficient() -> float:
    """4 zeta(1/3) / (5 Gamma(2/3)^3), the secondary constant at C = K = 1."""
    return 4.0 * riemann_zeta(1.0 / 3.0) / (5.0 * math.gamma(2.0 / 3.0) ** 3)


# ---------------------------------------------------------------------------
# local densities and splitting-type weights

TERM_MAIN = "main"
TERM_SECONDARY = "secondary"
# Cyclic cubic fields by discriminant: 1 - 2/(p(p+1)) at p = 1 mod 6, else 1.
TERM_CYCLIC = "cyclic_cubic"
# Diagnostic kernel: local factor (1 - p^-2), whose full product is 6/pi^2.
# Exercises the sieve / compensation / doubling plumbing against a closed form.
TERM_ZETA2_KERNEL = "reciprocal_zeta2"


def main_weights(p: int) -> tuple[float, float, float, float, float]:
    """Leading-term weights of the five splitting types, ordered as ALL_TYPES.

    The unramified weights 1/6, 1/2, 1/3 sum to 1.  Total ramification at
    p = 3 carries extra mass from the wildly ramified extensions.
    """
    if p == 3:
        fifth = 3.0 ** (-5 / 3) + 2.0 * 3.0 ** (-7 / 3)
    else:
        fifth = float(p) ** (-4 / 3)
    return (1.0 / 6.0, 0.5, 1.0 / 3.0, 1.0 / p, fifth)


def secondary_weights(p: int) -> tuple[float, float, float, float, float]:
    """Secondary-term weights; the unramified three sum to 1 + p^(-2/3)."""
    x = float(p) ** (-1 / 3)
    if p == 3:
        fifth = 3.0 ** (-17 / 9) + 2.0 * 3.0 ** (-22 / 9)
    else:
        fifth = float(p) ** (-13 / 9)
    return (
        (1.0 + 2.0 * x + x * x) / 6.0,
        (1.0 + x * x) / 2.0,
        (1.0 - x + x * x) / 3.0,
        (1.0 + x) / p,
        fifth,
    )


def _float_prime(p: int | np.ndarray) -> float | np.ndarray | None:
    """A prime as a float, None at 3; a float array of other primes as is."""
    if isinstance(p, np.ndarray):
        return p
    return None if p == 3 else float(p)


def main_density(p: int | np.ndarray) -> float | np.ndarray:
    """Euler factor of the leading term at p, or at each p of a float array."""
    q = _float_prime(p)
    if q is None:
        return (2.0 / 3.0) * (4.0 / 3.0 + 3.0 ** (-5 / 3) + 2.0 * 3.0 ** (-7 / 3))
    return (1.0 - 1.0 / q) * (1.0 + 1.0 / q + q ** (-4 / 3))


def secondary_density(p: int | np.ndarray) -> float | np.ndarray:
    """Euler factor of the secondary term at p, or at each p of a float array."""
    q = _float_prime(p)
    if q is None:
        return 0.25 * (
            11.0 / 3.0
            - 3.0 ** (-2 / 3)
            + 3.0 ** (-8 / 9)
            + 2.0 * 3.0 ** (-13 / 9)
            - 3.0 ** (-14 / 9)
            - 2.0 * 3.0 ** (-19 / 9)
        )
    return 1.0 + (1.0 - q ** (-2 / 9) - q ** (-5 / 9) - q ** (-2 / 3)) / (
        q ** (13 / 9) * (1.0 + 1.0 / q)
    )


@dataclass(frozen=True)
class LocalCondition:
    """Restriction of a prime to a nonempty subset of splitting types."""

    p: int
    allowed: tuple[SplittingType, ...]

    def __post_init__(self) -> None:
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if not self.allowed:
            raise ValueError("empty splitting-type condition")
        object.__setattr__(self, "allowed", tuple(dict.fromkeys(self.allowed)))
        for t in self.allowed:
            if not isinstance(t, SplittingType):
                raise TypeError(f"not a splitting type: {t!r}")


def local_factor(condition: LocalCondition, term: str) -> float:
    """Euler factor at condition.p restricted to the allowed types.

    The leading factor is (1 - 1/p) times the allowed main-weight sum; the
    secondary factor is n_p times the allowed secondary-weight sum, with

        n_p = (1 - (p^(1/3)+1)/(p(p+1))) / (1 + p^(-2/3) + 1/p + p^(-4/3)).

    With every type allowed these reproduce main_density / secondary_density.
    """
    p = condition.p
    q = float(p)
    if term == TERM_MAIN:
        weights = main_weights(p)
        scale = 1.0 - 1.0 / q
    elif term == TERM_SECONDARY:
        weights = secondary_weights(p)
        denom = 1.0 + q ** (-2 / 3) + 1.0 / q + q ** (-4 / 3)
        scale = (1.0 - (q ** (1 / 3) + 1.0) / (q * (q + 1.0))) / denom
    else:
        raise ValueError(f"unknown term {term!r}")
    allowed = set(condition.allowed)
    total = sum(w for t, w in zip(ALL_TYPES, weights) if t in allowed)
    return scale * total


# ---------------------------------------------------------------------------
# Euler products

@lru_cache(maxsize=8)
def _primes(limit: int) -> np.ndarray:
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for q in range(2, math.isqrt(limit) + 1):
        if sieve[q]:
            sieve[q * q :: q] = False
    return np.flatnonzero(sieve).astype(np.int64)


# term -> (local factor, zeta_in, zeta_out, (a, coef)).  The factor at p
# times (1 - p^-s) for s in zeta_in, over (1 - p^-s) for s in zeta_out, is a
# residual r_p with |log r_p| <= coef * p^(-a), and zeta(s) at the same s
# restore the product.  The coefficients are measured with a safety margin:
# the main ratio stays below 0.06 for p > 100, the secondary approaches
# -1 * p^(-22/9) from below; the cyclic factor needs no acceleration, as
# -log(1 - 2/(p(p+1))) <= 2 p^-2 (ratio 1.9998 at most over p < 10^4).
_TERMS = {
    TERM_MAIN: (main_density, (4 / 3,), (2.0, 7 / 3, 8 / 3), (8 / 3, 0.6)),
    TERM_SECONDARY: (secondary_density, (13 / 9,), (5 / 3, 2.0, 19 / 9), (22 / 9, 1.3)),
    TERM_ZETA2_KERNEL: (lambda p: 1.0 - p**-2.0, (), (2.0,), (2.0, 0.0)),
    TERM_CYCLIC: (lambda p: np.where(p % 6 == 1, 1.0 - 2.0 / (p * (p + 1.0)), 1.0),
                  (), (), (2.0, 2.0)),
}


def _choose_limit(term: str, rel_tol: float) -> int:
    """Doubled prime bound whose residual tail is below rel_tol / 2, by
    partial summation against pi(t) <= 1.26 t / log t."""
    *_, (a, coef) = _TERMS[term]
    limit = 10**6
    while coef * 1.26 * (a / (a - 1.0)) * limit ** (1.0 - a) / math.log(limit) > 0.5 * rel_tol:
        limit *= 2
    return limit


def _accelerated_product(term: str, limit: int) -> float:
    factor, zeta_in, zeta_out, _ = _TERMS[term]
    q = _primes(limit).astype(np.float64)
    residual = factor(q)
    residual[1] = factor(3)
    for s in zeta_in:
        residual = residual * (1.0 - q**-s)
    slow = 1.0
    for s in zeta_out:
        slow = slow * (1.0 - q**-s)
    residual = residual / slow
    comp = math.prod(map(riemann_zeta, zeta_in)) / math.prod(map(riemann_zeta, zeta_out))
    # ascending-prime reduction keeps the result bit-reproducible
    return float(np.multiply.reduce(residual)) * comp


def euler_product(
    term: str,
    rel_tol: float = 1e-9,
    prime_limit: int | None = None,
) -> float:
    """Product over all primes of the local factors for the given term.

    The raw products converge like sum p^(-4/3) (main) or p^(-13/9)
    (secondary), hopeless to truncate directly.  One acceleration step
    multiplies each factor by its slow zeta-like parts and compensates with
    closed-form zeta values, leaving residuals that converge like p^(-8/3)
    and p^(-22/9); the cyclic cubic factors converge like p^-2 as they are.
    The truncation point is chosen so the residual tail bound sits below
    rel_tol / 2, and the result at twice that prime bound is returned only
    if it agrees with it to rel_tol; otherwise this raises ArithmeticError.
    """
    if rel_tol < 1e-10:
        raise ValueError("rel_tol below 1e-10 is not supported in double precision")
    if term not in _TERMS:
        raise ValueError(f"unknown term {term!r}")
    limit = prime_limit if prime_limit is not None else _choose_limit(term, rel_tol)
    first, second = _accelerated_product(term, limit), _accelerated_product(term, 2 * limit)
    if abs(first - second) > rel_tol * abs(second):
        raise ArithmeticError(
            f"doubling check failed for {term!r} at prime_limit={limit}: "
            f"{first!r} vs {second!r}; raise prime_limit"
        )
    return second


def cyclic_cubic_density() -> float:
    """Leading constant kappa in #{cyclic cubic fields, 0 < disc <= Y} ~ kappa sqrt(Y).

    kappa = (11 sqrt(3) / 36 pi) * prod over p = 1 mod 6 of (1 - 2/(p(p+1))).
    The factors are 1 - O(p^-2), so the plain truncation at 10^6 is
    already good to about 1e-7 relative; verified by doubling.
    """
    return 11.0 * math.sqrt(3.0) / (36.0 * math.pi) * euler_product(TERM_CYCLIC, rel_tol=1e-6)


# ---------------------------------------------------------------------------
# evaluation constants

@dataclass(frozen=True)
class EvaluationConstants:
    """The three slowly-computable constants entering a prediction.

    main_product and secondary_product are the full Euler products M and S;
    cyclic_deduction is the coefficient of the X^(1/4) term subtracted on
    the positive side (one third of the cyclic cubic density, since each
    excluded field is counted there with weight 1/3).

    REFERENCE_CONSTANTS pins the values behind the bundled reference
    tables.  That original evaluation carried roughly 1e-5 relative error:
    its products differ from the exact ones (1.4929785..., 0.6437661...)
    in the sixth decimal.  Below X ~ 1e18 the difference is invisible after
    rounding, but at the largest tabulated bounds it shifts rounded counts
    by tens, so table reproduction must use these pinned values.
    exact_constants() recomputes all three to full precision.
    """

    main_product: float
    secondary_product: float
    cyclic_deduction: float


REFERENCE_CONSTANTS = EvaluationConstants(
    main_product=1.49299482886,
    secondary_product=0.643784654396,
    cyclic_deduction=0.0528363006929,
)


@lru_cache(maxsize=1)
def exact_constants() -> EvaluationConstants:
    """Fully evaluated constants; products verified by prime-bound doubling."""
    return EvaluationConstants(
        main_product=euler_product(TERM_MAIN),
        secondary_product=euler_product(TERM_SECONDARY),
        cyclic_deduction=cyclic_cubic_density() / 3.0,
    )


# ---------------------------------------------------------------------------
# prediction models

MODEL_MAIN = "main"
MODEL_TWO_TERM = "strong"
MODEL_TAIL_CORRECTED = "stronger"

_MODELS = (MODEL_MAIN, MODEL_TWO_TERM, MODEL_TAIL_CORRECTED)

_MIN_BOUND = 1e6


@dataclass(frozen=True)
class PredictionModel:
    """Choice of discriminant sign and which asymptotic terms to include."""

    sign: int
    terms: str = MODEL_TWO_TERM

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.terms not in _MODELS:
            raise ValueError(f"terms must be one of {_MODELS}, got {self.terms!r}")


def tail_correction_factors(x: float) -> tuple[float, float]:
    """Damping factors applied to the two terms by the tail-corrected model."""
    lx = math.log(x)
    return 1.0 - 12.0 * x ** (-1 / 12) / lx, 1.0 - 9.0 * x ** (-1 / 9) / lx


def predict(
    x: float,
    model: PredictionModel,
    overrides: Iterable[LocalCondition] = (),
    constants: EvaluationConstants = REFERENCE_CONSTANTS,
) -> float:
    """Predicted number of fields with 0 < sign * d6 < x, unrounded.

    Overrides condition finitely many primes on splitting-type subsets via
    exact local-factor ratios.  Bounds below 1e6 are rejected; the tail
    corrections are meaningless there and the models are asymptotic.  So
    are bounds past the float range, where x^(1/3) cannot be taken.
    """
    if not _MIN_BOUND <= x <= sys.float_info.max:
        raise ValueError(f"bound must be in [{_MIN_BOUND:g}, {sys.float_info.max:g}], got {x!r}")
    c, k = (3.0, math.sqrt(3.0)) if model.sign < 0 else (1.0, 1.0)
    main_coef = c / 12.0 * constants.main_product
    sec_coef = k * secondary_coefficient() * constants.secondary_product
    main_ratio = 1.0
    sec_ratio = 1.0
    seen: set[int] = set()
    for cond in overrides:
        if cond.p in seen:
            raise ValueError(f"duplicate override for p={cond.p}")
        seen.add(cond.p)
        main_ratio *= local_factor(cond, TERM_MAIN) / main_density(cond.p)
        sec_ratio *= local_factor(cond, TERM_SECONDARY) / secondary_density(cond.p)
    main_term = main_coef * main_ratio * x ** (1 / 3)
    sec_term = sec_coef * sec_ratio * x ** (5 / 18)
    if model.terms == MODEL_TAIL_CORRECTED:
        fm, fs = tail_correction_factors(x)
        main_term *= fm
        sec_term *= fs
    value = main_term if model.terms == MODEL_MAIN else main_term + sec_term
    if model.sign > 0:
        # enumerated positive-side counts exclude cyclic cubic sources
        value -= constants.cyclic_deduction * x**0.25
    return value


def mod5_prediction(
    x: float,
    sign: int = -1,
    constants: EvaluationConstants = REFERENCE_CONSTANTS,
) -> tuple[float, float, float, float, float]:
    """Predicted counts split by the residue of d6 mod 5, unrounded.

    Both the ramified column and the split remainder are conditioned on 2
    and 3 unramified (matching the filtered census tables).  d6 = 0 mod 5
    happens exactly when 5 ramifies; the unramified mass splits evenly over
    the four invertible residues because the twisted secondary terms cancel.
    Entry 0 is the ramified column, entries 1-4 the even split.
    """
    model = PredictionModel(sign, MODEL_TWO_TERM)
    base = (
        LocalCondition(2, UNRAMIFIED),
        LocalCondition(3, UNRAMIFIED),
    )
    ram = predict(x, model, base + (LocalCondition(5, RAMIFIED),), constants)
    unram = predict(x, model, base + (LocalCondition(5, UNRAMIFIED),), constants)
    quarter = unram / 4.0
    return (ram, quarter, quarter, quarter, quarter)


def nearest_count(value: float) -> int:
    """Round to the nearest integer, ties away from zero."""
    if value >= 0.0:
        return int(math.floor(value + 0.5))
    return -int(math.floor(-value + 0.5))
