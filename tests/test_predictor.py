import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s3census.local_analysis import ALL_TYPES, RAMIFIED, UNRAMIFIED, SplittingType
from s3census.predictor import (
    MODEL_MAIN,
    MODEL_TAIL_CORRECTED,
    MODEL_TWO_TERM,
    REFERENCE_CONSTANTS,
    TERM_CYCLIC,
    TERM_MAIN,
    TERM_SECONDARY,
    TERM_ZETA2_KERNEL,
    EvaluationConstants,
    LocalCondition,
    PredictionModel,
    _accelerated_product,
    _primes,
    cyclic_cubic_density,
    euler_product,
    exact_constants,
    local_factor,
    main_density,
    main_weights,
    mod5_prediction,
    nearest_count,
    predict,
    riemann_zeta,
    secondary_density,
    secondary_weights,
    tail_correction_factors,
)

import reference_tables as ref


def _small_primes(limit):
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for q in range(2, math.isqrt(limit) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytearray(len(sieve[q * q :: q]))
    return [i for i, flag in enumerate(sieve) if flag]


def _zeta_by_averaging(s, rows=60):
    # independent oracle: raw partial sums of the alternating series,
    # collapsed by repeated pairwise averaging (nothing shared with the
    # Chebyshev-weight scheme inside the package)
    partial = []
    acc = 0.0
    for k in range(rows):
        acc += (-1.0) ** k * (k + 1.0) ** -s
        partial.append(acc)
    while len(partial) > 1:
        partial = [(u + v) / 2.0 for u, v in zip(partial, partial[1:])]
    return partial[0] / (1.0 - 2.0 ** (1.0 - s))


# ---------------------------------------------------------------------------
# special values


def test_zeta_at_two_is_pi_squared_over_six():
    assert abs(riemann_zeta(2.0) - math.pi**2 / 6.0) < 1e-12


def test_zeta_one_third_against_independent_oracle():
    assert abs(riemann_zeta(1 / 3) - _zeta_by_averaging(1 / 3)) < 1e-9
    assert abs(riemann_zeta(1 / 3) - (-0.9733602483507827)) < 1e-12


def test_zeta_four_thirds_bracketed_by_partial_sum():
    # direct partial sum with integral tail bounds brackets the true value
    n = 20000
    head = math.fsum(k ** (-4 / 3) for k in range(1, n + 1))
    low = head + 3.0 * (n + 1) ** (-1 / 3)
    high = head + 3.0 * n ** (-1 / 3)
    got = riemann_zeta(4 / 3)
    assert low <= got <= high
    assert abs(got - 3.6009377504588631) < 1e-12


def test_zeta_more_values_and_domain():
    assert abs(riemann_zeta(13 / 9) - 2.8585948021109527) < 1e-12
    assert abs(riemann_zeta(0.5) - (-1.4603545088095868)) < 1e-12
    for bad in (1.0, 0.0, -2.0):
        with pytest.raises(ValueError):
            riemann_zeta(bad)


def test_gamma_two_thirds_and_reflection():
    g = math.gamma(2 / 3)
    assert abs(g - 1.3541179394264005) < 1e-12
    target = 2.0 * math.pi / math.sqrt(3.0)
    assert abs(math.gamma(1 / 3) * g - target) < 1e-12 * target
    assert abs(math.gamma(5 / 3) - (2 / 3) * g) < 1e-12


# ---------------------------------------------------------------------------
# weights and densities


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101, 9973])
def test_weight_sums(p):
    mw = main_weights(p)
    sw = secondary_weights(p)
    assert abs(sum(mw[:3]) - 1.0) < 1e-14
    assert abs(sum(sw[:3]) - (1.0 + p ** (-2 / 3))) < 1e-14


def test_weight_values_at_five_and_three():
    assert main_weights(5) == (1 / 6, 0.5, 1 / 3, 0.2, 5.0 ** (-4 / 3))
    assert main_weights(3)[4] == 3.0 ** (-5 / 3) + 2.0 * 3.0 ** (-7 / 3)
    assert secondary_weights(3)[4] == 3.0 ** (-17 / 9) + 2.0 * 3.0 ** (-22 / 9)


def test_density_values():
    assert abs(main_density(2) - 0.9484251314960249) < 1e-14
    assert abs(main_density(3) - 1.0984423791858280) < 1e-14
    assert abs(secondary_density(2) - 0.7139897883489059) < 1e-14
    assert abs(secondary_density(3) - 0.8984773541289656) < 1e-14


@pytest.mark.parametrize("p", [101, 997, 9973])
def test_density_tail_sanity(p):
    assert abs(main_density(p) - 1.0) < 2.0 * p ** (-4 / 3)
    assert abs(secondary_density(p) - 1.0) < 2.0 * p ** (-13 / 9)


def test_densities_on_prime_arrays_match_scalars():
    # the Euler products evaluate each density on a float array of primes
    # other than 3; every entry must be the scalar value to within one ulp
    ps = _primes(10**4)
    ps = ps[ps != 3]
    for density in (main_density, secondary_density):
        got = density(ps.astype(np.float64))
        want = np.array([density(int(p)) for p in ps])
        assert np.all(np.abs(got - want) <= np.spacing(want)), density.__name__


def test_main_density_three_alternative_closed_form():
    # second route to the p=3 leading factor
    alt = (1 - 3**-2) * (1 + 1 / 3 + (2 / 27) * 3 ** (2 / 3) + (1 / 27) * 3 ** (4 / 3)) / (1 + 1 / 3)
    assert abs(main_density(3) - alt) < 1e-12


@pytest.mark.parametrize("p", [2, 5, 7, 11, 101])
def test_main_density_eta_relation(p):
    eta = 1.0 / (p**2 * (1.0 + 1.0 / p))
    assert abs((1.0 - p**-2.0) * (1.0 + eta * p ** (2 / 3)) - main_density(p)) < 1e-14


def test_triple_representation_of_secondary_density():
    # three routes agree to 1e-12 for all p <= 1e4 (wild case handled at 3)
    for p in _small_primes(10**4):
        full = LocalCondition(p, ALL_TYPES)
        weight_route = local_factor(full, TERM_SECONDARY)
        closed = secondary_density(p)
        assert abs(weight_route - closed) < 1e-12, p
        theta = 1.0 / (p**2 * (1.0 + p ** (-2 / 3) + 1.0 / p + p ** (-4 / 3)))
        theta_route = (1.0 + theta * p ** (5 / 9)) * (
            1.0 - (p ** (1 / 3) + 1.0) / (p * (p + 1.0))
        )
        if p == 3:
            # the compact theta form assumes tame ramification; at 3 the
            # wild weights push the true factor well away from it
            assert abs(theta_route - closed) > 1e-3
        else:
            assert abs(theta_route - closed) < 1e-12, p


def test_main_density_matches_weight_machinery_everywhere():
    for p in _small_primes(10**4):
        got = local_factor(LocalCondition(p, ALL_TYPES), TERM_MAIN)
        assert abs(got - main_density(p)) < 1e-14, p


# ---------------------------------------------------------------------------
# conditioned local factors


def test_unramified_main_factor_is_one_minus_inverse_p():
    got = local_factor(LocalCondition(5, UNRAMIFIED), TERM_MAIN)
    assert abs(got - 0.8) < 1e-14


@pytest.mark.parametrize("p", [2, 3, 5, 13])
@pytest.mark.parametrize("term", [TERM_MAIN, TERM_SECONDARY])
def test_condition_partition(p, term):
    unram = local_factor(LocalCondition(p, UNRAMIFIED), term)
    ram = local_factor(LocalCondition(p, RAMIFIED), term)
    full = local_factor(LocalCondition(p, ALL_TYPES), term)
    assert abs((unram + ram) - full) < 1e-14


def test_local_condition_validation():
    with pytest.raises(ValueError):
        LocalCondition(5, ())
    with pytest.raises(ValueError):
        LocalCondition(6, UNRAMIFIED)
    with pytest.raises(TypeError):
        LocalCondition(5, ("(111)",))
    dedup = LocalCondition(5, (SplittingType.SPLIT, SplittingType.SPLIT))
    assert dedup.allowed == (SplittingType.SPLIT,)
    with pytest.raises(ValueError):
        local_factor(LocalCondition(5, UNRAMIFIED), "tertiary")


# ---------------------------------------------------------------------------
# Euler products


def test_main_product_value():
    assert abs(euler_product(TERM_MAIN) - 1.4929784996622153) < 2e-11


def test_secondary_product_value():
    assert abs(euler_product(TERM_SECONDARY) - 0.6437660799259922) < 2e-10


def test_zeta2_kernel_product():
    got = euler_product(TERM_ZETA2_KERNEL)
    assert abs(got - 6.0 / math.pi**2) < 1e-9


def test_exact_products_pinned_to_a_few_ulps():
    # full-precision values of the accelerated products; a change of the
    # evaluation order moves them by ulps, a change of a formula by far more
    exact = exact_constants()
    for got, want in (
        (exact.main_product, 1.4929784996625),
        (exact.secondary_product, 0.6437660799494234),
        (exact.cyclic_deduction, 0.05284275450772588),
        (euler_product(TERM_ZETA2_KERNEL), 0.6079271018540267),
    ):
        assert abs(got - want) <= 4 * math.ulp(want), (got, want)


def test_raw_zeta2_partial_product_converges_from_above():
    # unaccelerated sanity: the partial product exceeds the limit and the
    # gap is about the tail sum of p^-2
    prod = 1.0
    for p in _small_primes(2000):
        prod *= 1.0 - p**-2.0
    assert 0.0 < prod - 6.0 / math.pi**2 < 1e-3


def test_doubling_convergence_contract():
    # the cyclic cubic product is not accelerated: its tail past 4e6 is
    # about 1e-8, so it is held to the 1e-6 it is evaluated at
    for term, tol, doubling in ((TERM_MAIN, 1e-8, 1e-9), (TERM_SECONDARY, 1e-8, 1e-9),
                                (TERM_ZETA2_KERNEL, 1e-8, 1e-9), (TERM_CYCLIC, 1e-6, 1e-6)):
        a = euler_product(term, rel_tol=tol)
        b = euler_product(term, rel_tol=doubling, prime_limit=4 * 10**6)
        assert abs(a - b) <= tol * abs(b)


def test_doubling_check_failure_surfaces():
    with pytest.raises(ArithmeticError):
        euler_product(TERM_SECONDARY, rel_tol=1e-10, prime_limit=100)
    with pytest.raises(ArithmeticError, match="cyclic_cubic"):
        euler_product(TERM_CYCLIC, rel_tol=1e-6, prime_limit=100)


def test_rel_tol_floor():
    with pytest.raises(ValueError):
        euler_product(TERM_MAIN, rel_tol=1e-11)


def test_single_factor_substitution_identity():
    model = PredictionModel(-1, MODEL_MAIN)
    full = predict(1e12, model)
    conditioned = predict(1e12, model, [LocalCondition(5, UNRAMIFIED)])
    want = local_factor(LocalCondition(5, UNRAMIFIED), TERM_MAIN) / main_density(5)
    assert abs(conditioned / full - want) < 1e-12 * want
    assert abs(conditioned / full - 0.8 / main_density(5)) < 1e-12 * want


def test_duplicate_override_rejected():
    conds = [LocalCondition(5, UNRAMIFIED), LocalCondition(5, RAMIFIED)]
    with pytest.raises(ValueError):
        predict(1e12, PredictionModel(-1), conds)


def test_cyclic_cubic_density_value():
    assert abs(cyclic_cubic_density() - 0.1585282585) < 5e-7


def test_cyclic_cubic_density_is_a_term_row():
    """The cyclic row is 1 off p = 1 mod 6, 3 included, so the engine's
    product over all primes is the product over p = 1 mod 6 alone."""
    for limit in (10**6, 2 * 10**6):
        q = _primes(limit)
        q = q[q % 6 == 1].astype(np.float64)
        direct = float(np.multiply.reduce(1.0 - 2.0 / (q * (q + 1.0))))
        assert abs(_accelerated_product(TERM_CYCLIC, limit) - direct) <= 4 * math.ulp(direct)
    assert repr(cyclic_cubic_density()) == "0.15852826352317764"
    assert repr(exact_constants().cyclic_deduction) == "0.05284275450772588"


# ---------------------------------------------------------------------------
# reference constants and published-table reproduction


def test_exact_constants_close_to_but_distinct_from_reference():
    exact = exact_constants()
    for got, pinned in (
        (exact.main_product, REFERENCE_CONSTANTS.main_product),
        (exact.secondary_product, REFERENCE_CONSTANTS.secondary_product),
        (exact.cyclic_deduction, REFERENCE_CONSTANTS.cyclic_deduction),
    ):
        rel = abs(got - pinned) / pinned
        assert 1e-7 < rel < 2e-4


def _counts(bounds, sign, terms, constants=REFERENCE_CONSTANTS):
    model = PredictionModel(sign, terms)
    return [nearest_count(predict(float(x), model, constants=constants)) for x in bounds]


def test_positive_two_term_table_exact():
    assert _counts(ref.POS_BOUNDS, 1, MODEL_TWO_TERM) == ref.POS_TWO_TERM


def test_positive_tail_corrected_table_exact():
    assert _counts(ref.POS_BOUNDS, 1, MODEL_TAIL_CORRECTED) == ref.POS_TAIL_CORRECTED


def test_negative_tables_within_one_count():
    # the reference evaluation wobbles at the unit level in the middle of
    # the negative table; every row is within one count and the rows the
    # acceptance criteria pin are exact
    for terms, want in (
        (MODEL_TWO_TERM, ref.NEG_TWO_TERM),
        (MODEL_TAIL_CORRECTED, ref.NEG_TAIL_CORRECTED),
    ):
        got = _counts(ref.NEG_BOUNDS, -1, terms)
        assert all(abs(g - w) <= 1 for g, w in zip(got, want))
        for exp in ref.BINDING_EXPONENTS:
            i = ref.NEG_BOUNDS.index(10**exp)
            assert got[i] == want[i], (terms, exp)


def test_binding_rows_exact_positive():
    for terms, want in (
        (MODEL_TWO_TERM, ref.POS_TWO_TERM),
        (MODEL_TAIL_CORRECTED, ref.POS_TAIL_CORRECTED),
    ):
        got = _counts(ref.POS_BOUNDS, 1, terms)
        for exp in ref.BINDING_EXPONENTS:
            i = ref.POS_BOUNDS.index(10**exp)
            assert got[i] == want[i], (terms, exp)


def test_small_bound_predictions_insensitive_to_constants():
    exact = exact_constants()
    for sign, want in ((1, 756), (-1, 2979)):
        got = nearest_count(predict(1e12, PredictionModel(sign), constants=exact))
        assert got == want


def test_mod5_predicted_quintuples():
    for bound, ram, split in ref.MOD5_PREDICTED:
        row = mod5_prediction(float(bound))
        counts = [nearest_count(v) for v in row]
        assert counts == [ram, split, split, split, split]
        assert row[1] == row[2] == row[3] == row[4]


def test_mod5_partition_identity():
    base = (LocalCondition(2, UNRAMIFIED), LocalCondition(3, UNRAMIFIED))
    model = PredictionModel(-1, MODEL_TWO_TERM)
    for bound in (1e12, 1e20):
        row = mod5_prediction(bound)
        whole = predict(bound, model, base)
        assert abs(row[0] + 4.0 * row[1] - whole) < 1e-9 * whole


# ---------------------------------------------------------------------------
# model structure


def test_secondary_term_is_a_deficit():
    for sign in (1, -1):
        for x in (1e8, 1e15, 1e23):
            lone = predict(x, PredictionModel(sign, MODEL_MAIN))
            both = predict(x, PredictionModel(sign, MODEL_TWO_TERM))
            assert both < lone


def test_tail_correction_shrinks_prediction():
    for sign in (1, -1):
        for x in (1e8, 1e15, 1e23):
            assert predict(x, PredictionModel(sign, MODEL_TAIL_CORRECTED)) < predict(
                x, PredictionModel(sign, MODEL_TWO_TERM)
            )


def test_tail_correction_factors_frozen_values():
    fm, fs = tail_correction_factors(1e12)
    assert abs(fm - 0.9565705518096748) < 1e-12
    assert abs(fs - 0.9848813768672366) < 1e-12
    fm23, fs23 = tail_correction_factors(1e23)
    assert abs(fm23 - 0.9972548185557449) < 1e-12
    assert abs(fs23 - 0.9995271281849775) < 1e-12


def test_model_validation_and_bound_floor():
    with pytest.raises(ValueError):
        PredictionModel(0)
    with pytest.raises(ValueError):
        PredictionModel(1, "three_term")
    with pytest.raises(ValueError):
        predict(999999.0, PredictionModel(1))
    with pytest.raises(ValueError):
        predict(float("nan"), PredictionModel(1))
    with pytest.raises(ValueError):
        predict(1e12, PredictionModel(1), overrides=[LocalCondition(5, UNRAMIFIED)] * 2)


@settings(max_examples=60, deadline=None)
@given(
    lo=st.floats(min_value=1e6, max_value=1e23),
    ratio=st.floats(min_value=1.0001, max_value=10.0),
    sign=st.sampled_from([1, -1]),
    terms=st.sampled_from([MODEL_MAIN, MODEL_TWO_TERM, MODEL_TAIL_CORRECTED]),
)
def test_predict_strictly_increasing(lo, ratio, sign, terms):
    # ratio keeps hi a real step above lo; at one-ulp separation the cube
    # root itself rounds to the same float and strictness is meaningless
    hi = lo * ratio
    model = PredictionModel(sign, terms)
    assert predict(hi, model) > predict(lo, model)


def test_nearest_count_half_away():
    assert nearest_count(2.5) == 3
    assert nearest_count(2.4999999) == 2
    assert nearest_count(-2.5) == -3
    assert nearest_count(0.0) == 0


def test_constants_are_plain_data():
    c = EvaluationConstants(1.0, 1.0, 0.0)
    assert c.main_product == 1.0
