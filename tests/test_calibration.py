import contextlib
import logging
import math
import re
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares
from scipy.stats import norm

from multicurve.affine import (
    AffineModelSpec,
    InadmissibleSpec,
    affine_bond,
    affine_spread,
    caplet_price_fourier,
)
from multicurve.calibration import (
    BlackDomainError,
    CalibrationResult,
    MaxIterations,
    ObjectiveNaN,
    PriceOutOfBounds,
    VolQuote,
    VolQuoteSurface,
    _evaluate_fit,
    _norm_pdf,
    black_caplet,
    black_implied_vol,
    calibrate,
)
from multicurve.termstructure import DiscountCurve, SpreadTermStructure, Tenor

T6M = Tenor.parse("6M")
TRUE_PARAMS = np.array([0.012, 0.02, 0.15])


def scipy_stats_black_caplet(forward, strike, expiry, vol, annuity):
    """``black_caplet`` as it read on ``scipy.stats.norm.cdf``, the reference
    for the formula on ``scipy.special.ndtr``."""
    if forward <= 0.0 or strike <= 0.0:
        raise BlackDomainError("Black-76 requires positive forward and strike")
    if expiry <= 0.0 or vol < 0.0 or annuity <= 0.0:
        raise ValueError("expiry and annuity must be positive, vol nonnegative")
    stddev = vol * math.sqrt(expiry)
    if stddev == 0.0:
        return annuity * max(forward - strike, 0.0)
    d1 = (math.log(forward / strike) + 0.5 * stddev ** 2) / stddev
    d2 = d1 - stddev
    return annuity * (forward * norm.cdf(d1) - strike * norm.cdf(d2))


def same_bits(a, b):
    """Equal type and equal IEEE bits, so -0.0 differs from 0.0 and NaN matches."""
    return type(a) is type(b) and struct.pack("<d", a) == struct.pack("<d", b)


def build_toy(params):
    """Gaussian short rate and one diffusive spread factor; free parameters
    are the rate vol, the spread vol, and the rate-to-spread drift loading."""
    sig_x, sig_y, q1 = params
    return AffineModelSpec(
        pos_dims=0, real_dims=1,
        drift_const=[0.5 * 0.03], drift_linear=[[-0.5]],
        diffusion_const=[[sig_x ** 2]],
        rate_const=0.0, rate_linear=[1.0],
        n_spread=1, u_vectors=[[1.0]], tenors=(T6M,),
        y_mode="diffusive",
        y_drift_const=[0.001], y_drift_linear=[[q1]],
        y_diff_const=[[sig_y ** 2]],
        x0=[0.02], y0=[0.004],
    )


@pytest.fixture(scope="module")
def toy_market():
    """Market curves and a 12-quote surface synthesized from TRUE_PARAMS."""
    spec = build_toy(TRUE_PARAMS)
    times = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
    disc = DiscountCurve(times, affine_bond(spec, spec.x0, times))
    spread = SpreadTermStructure(
        T6M, times, affine_spread(spec, spec.x0, spec.y0, times, i=0))
    quotes = []
    for expiry in (0.5, 1.0):
        fwd = (spread.spread(expiry) * disc.discount(expiry)
               / disc.discount(expiry + 0.5) - 1.0) / 0.5
        annuity = 0.5 * disc.discount(expiry + 0.5)
        for strike in (0.02, 0.028, 0.035, 0.042, 0.05, 0.06):
            price = caplet_price_fourier(spec, expiry, T6M, strike)
            vol = black_implied_vol(price, fwd, strike, expiry, annuity)
            quotes.append(VolQuote(expiry, T6M, strike, vol))
    return disc, {T6M: spread}, VolQuoteSurface(quotes)


class TestBlackFormula:
    def test_zero_vol_is_intrinsic(self):
        assert black_caplet(0.04, 0.03, 2.0, 0.0, 0.9) == pytest.approx(
            0.9 * 0.01, abs=1e-16)
        assert black_caplet(0.03, 0.04, 2.0, 0.0, 0.9) == 0.0

    def test_atm_hand_value(self):
        # vol * sqrt(T) = 0.2 at the money collapses to F (2 Phi(0.1) - 1)
        price = black_caplet(0.03, 0.03, 4.0, 0.1, 0.7)
        expected = 0.7 * 0.03 * (2.0 * norm.cdf(0.1) - 1.0)
        assert price == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("vol", [0.2, 0.6, 1.5])
    @pytest.mark.parametrize("strike", [0.02, 0.03, 0.05])
    def test_inversion_round_trip(self, vol, strike):
        price = black_caplet(0.03, strike, 1.5, vol, 0.45)
        implied = black_implied_vol(price, 0.03, strike, 1.5, 0.45)
        assert implied == pytest.approx(vol, abs=1e-9)

    def test_inversion_low_vol_at_the_money(self):
        # away from the money a 5 percent vol prices below the resolution
        # of double precision, so the low vol case only round-trips ATM
        price = black_caplet(0.03, 0.03, 1.5, 0.05, 0.45)
        implied = black_implied_vol(price, 0.03, 0.03, 1.5, 0.45)
        assert implied == pytest.approx(0.05, abs=1e-9)

    def test_price_bounds_enforced(self):
        intrinsic = 0.9 * 0.01
        with pytest.raises(PriceOutOfBounds):
            black_implied_vol(intrinsic, 0.04, 0.03, 2.0, 0.9)
        with pytest.raises(PriceOutOfBounds):
            black_implied_vol(0.9 * 0.04, 0.04, 0.03, 2.0, 0.9)

    @given(st.floats(0.002, 0.2), st.floats(0.5, 2.0), st.floats(0.1, 10.0),
           st.floats(0.02, 2.0), st.floats(0.05, 5.0))
    def test_inversion_round_trip_property(self, forward, ratio, expiry, vol, annuity):
        # away from the price bounds and with a vega that resolves the vol,
        # inversion recovers the vol to the solver's 1e-10 bracket
        strike = ratio * forward
        price = black_caplet(forward, strike, expiry, vol, annuity)
        scale = annuity * forward
        assume(price - annuity * max(forward - strike, 0.0) > 1e-6 * scale)
        assume(scale - price > 1e-6 * scale)
        stddev = vol * math.sqrt(expiry)
        d1 = (math.log(forward / strike) + 0.5 * stddev ** 2) / stddev
        assume(scale * norm.pdf(d1) * math.sqrt(expiry) > 1e-3 * scale)
        implied = black_implied_vol(price, forward, strike, expiry, annuity)
        assert implied == pytest.approx(vol, abs=1e-10)

    # a near-zero stddev squares a huge d1 on both paths
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=200)
    @given(st.floats(1e-4, 0.2), st.floats(-2.0, 2.0), st.floats(1e-3, 30.0),
           st.floats(0.0, 3.0), st.floats(0.01, 2.0))
    def test_matches_the_scipy_stats_formulas_bit_for_bit(self, forward, moneyness,
                                                          expiry, vol, annuity):
        strike = forward * math.exp(-moneyness)
        price = black_caplet(forward, strike, expiry, vol, annuity)
        expected = scipy_stats_black_caplet(forward, strike, expiry, vol, annuity)
        assert same_bits(price, expected)
        stddev = vol * math.sqrt(expiry)
        if stddev > 0.0:
            d1 = (moneyness + 0.5 * stddev ** 2) / stddev
            assert same_bits(_norm_pdf(d1), norm.pdf(d1))
        outcomes = []
        for patches in ((), (mock.patch("multicurve.calibration.black_caplet",
                                        scipy_stats_black_caplet),
                             mock.patch("multicurve.calibration._norm_pdf", norm.pdf))):
            with contextlib.ExitStack() as stack:
                for patch in patches:
                    stack.enter_context(patch)
                try:
                    outcomes.append(black_implied_vol(price, forward, strike, expiry, annuity))
                except ValueError as exc:
                    outcomes.append((type(exc), str(exc)))
        if isinstance(outcomes[1], tuple):
            assert outcomes[0] == outcomes[1]
        else:
            assert same_bits(*outcomes)

    def test_positive_inputs_required(self):
        with pytest.raises(ValueError, match="positive forward"):
            black_caplet(-0.01, 0.03, 1.0, 0.2, 0.9)
        with pytest.raises(ValueError, match="positive forward"):
            black_implied_vol(0.001, 0.02, -0.03, 1.0, 0.9)
        with pytest.raises(BlackDomainError):
            black_implied_vol(0.001, -0.02, 0.03, 1.0, 0.9)


class TestQuoteSurface:
    def test_duplicate_quotes_rejected(self):
        q = VolQuote(1.0, T6M, 0.03, 0.4)
        with pytest.raises(ValueError, match="duplicate quote"):
            VolQuoteSurface([q, VolQuote(1.0, T6M, 0.03, 0.5)])

    def test_positive_values_required(self):
        with pytest.raises(ValueError, match="must be positive"):
            VolQuoteSurface([VolQuote(1.0, T6M, 0.03, -0.4)])

    def test_convention_tag_checked(self):
        with pytest.raises(ValueError, match="unknown quote convention"):
            VolQuoteSurface([], convention="spread")


# (lower, upper) pairs: none, one-sided either way, or two-sided
BOUND_PAIRS = st.one_of(
    st.just((None, None)),
    st.tuples(st.floats(-2.0, 2.0), st.none()),
    st.tuples(st.none(), st.floats(-2.0, 2.0)),
    st.tuples(st.floats(-2.0, 2.0), st.floats(0.1, 2.0)).map(lambda p: (p[0], p[0] + p[1])),
)


@st.composite
def quadratic_fits(draw):
    n = draw(st.integers(1, 3))
    coords = st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)
    return (draw(st.lists(BOUND_PAIRS, min_size=n, max_size=n)), draw(coords),
            np.array(draw(coords)), draw(st.integers(0, 3)), draw(st.integers(0, 2 ** 32 - 1)))


def quadratic_evaluator(target, trials):
    """Stand-in for ``_evaluate_fit``: a cheap monotone residual in x - target
    that records every trial vector."""
    def evaluate(build_spec, params, surface, env, target_vols):
        trials.append(np.array(params))
        gap = np.asarray(params) - target
        residuals = gap + 0.3 * gap ** 3
        return float(residuals @ residuals), residuals
    return evaluate


def flat_surface(n):
    return VolQuoteSurface([VolQuote(1.0, T6M, 0.01 * (k + 1), 0.2) for k in range(n)])


class TestLeastSquaresLoop:
    @given(quadratic_fits())
    def test_starts_and_trials_stay_in_bounds_and_repeat(self, problem):
        bounds, initial, target, restarts, seed = problem
        lower = np.array([-np.inf if lo is None else lo for lo, _ in bounds])
        upper = np.array([np.inf if hi is None else hi for _, hi in bounds])
        runs = []
        for _ in range(2):
            trials = []
            with mock.patch("multicurve.calibration._evaluate_fit",
                            quadratic_evaluator(target, trials)), \
                    mock.patch("multicurve.calibration.least_squares",
                               wraps=least_squares) as solver:
                result = calibrate(build_toy, initial, flat_surface(len(initial)),
                                   bounds=bounds, restarts=restarts, seed=seed)
            starts = [call.args[1] for call in solver.call_args_list]
            assert len(starts) == restarts + 1
            for x in starts + trials:
                assert np.all(lower <= x) and np.all(x <= upper)
            assert np.all(np.diff(result.trace) <= 0.0)
            runs.append(result)
        np.testing.assert_array_equal(runs[0].parameters, runs[1].parameters)
        assert runs[0].n_evaluations == runs[1].n_evaluations

    def test_each_start_is_logged(self, caplog):
        with mock.patch("multicurve.calibration._evaluate_fit",
                        quadratic_evaluator(np.array([0.3]), [])), \
                caplog.at_level(logging.DEBUG, logger="multicurve.calibration"):
            calibrate(build_toy, [0.5], flat_surface(1), restarts=2, seed=1)
        messages = [r.getMessage() for r in caplog.records
                    if r.name == "multicurve.calibration"]
        assert len(messages) == 3
        for message in messages:
            assert re.fullmatch(r"calibration start: index=\d+ nfev=\d+ status=-?\d+ "
                                r"cost=\S+", message)


class TestCalibrate:
    def test_self_calibration_round_trip(self, toy_market):
        disc, spreads, surface = toy_market
        result = calibrate(
            build_toy, [0.013, 0.019, 0.13], surface, disc, spreads,
            bounds=[(1e-4, None), (1e-4, None), (None, None)],
            restarts=0, seed=7,
        )
        assert np.max(np.abs(result.residuals)) <= 1e-4
        assert result.objective == pytest.approx(
            float(result.residuals @ result.residuals), rel=1e-12)
        assert result.converged
        assert np.all(np.diff(result.trace) <= 0.0)
        assert result.parameters[0] > 0 and result.parameters[1] > 0

    def test_single_quote_single_parameter(self, toy_market):
        disc, spreads, surface = toy_market
        quote = surface.quotes[7]
        single = VolQuoteSurface([quote])

        def build_one(params):
            return build_toy([TRUE_PARAMS[0], params[0], TRUE_PARAMS[2]])

        result = calibrate(
            build_one, [0.03], single, disc, spreads,
            bounds=[(1e-5, None)], restarts=0, seed=3,
        )
        assert abs(result.residuals[0]) <= 1e-8
        assert result.parameters[0] == pytest.approx(TRUE_PARAMS[1], rel=1e-4)

    def test_zero_free_parameters_echoes_template(self, toy_market):
        disc, spreads, surface = toy_market
        result = calibrate(lambda p: build_toy(TRUE_PARAMS), [], surface,
                           disc, spreads)
        assert result.parameters.size == 0
        assert result.n_evaluations == 1
        assert result.converged
        assert np.max(np.abs(result.residuals)) < 1e-6

    def test_premium_convention_converts(self, toy_market):
        disc, spreads, surface = toy_market
        spec = build_toy(TRUE_PARAMS)
        premiums = VolQuoteSurface(
            [VolQuote(q.expiry, q.tenor, q.strike,
                      caplet_price_fourier(spec, q.expiry, T6M, q.strike))
             for q in surface.quotes[:3]],
            convention="premium",
        )
        result = calibrate(lambda p: spec, [], premiums, disc, spreads)
        assert np.max(np.abs(result.residuals)) < 1e-6

    def test_premium_convention_needs_curves(self, toy_market):
        _, _, surface = toy_market
        premiums = VolQuoteSurface(list(surface.quotes[:2]), convention="premium")
        with pytest.raises(ValueError, match="premium quotes require"):
            calibrate(lambda p: build_toy(TRUE_PARAMS), [], premiums)

    def test_more_parameters_than_quotes_rejected(self, toy_market):
        disc, spreads, surface = toy_market
        single = VolQuoteSurface(list(surface.quotes[:1]))
        with pytest.raises(ValueError, match="at least as many quotes"):
            calibrate(build_toy, [0.01, 0.01, 0.1], single, disc, spreads)

    def test_iteration_budget_exhaustion(self, toy_market):
        disc, spreads, surface = toy_market
        with pytest.raises(MaxIterations):
            calibrate(
                build_toy, [0.016, 0.015, 0.1], surface, disc, spreads,
                bounds=[(1e-4, None), (1e-4, None), (None, None)],
                restarts=0, max_iterations=5,
            )

    def test_exploding_trial_point_flagged(self, toy_market):
        disc, spreads, surface = toy_market

        def build_hot(params):
            return AffineModelSpec(
                pos_dims=1, real_dims=0,
                drift_const=[0.0], drift_linear=[[-2.0]],
                diffusion_const=[[0.0]], diffusion_linear=[[[1.0]]],
                rate_const=0.02, rate_linear=[0.0],
                n_spread=1, u_vectors=[[8.0]], tenors=(T6M,),
                y_mode="integrated", y_drift_linear=[[1.0]],
                x0=[0.04], y0=[0.0],
            )

        env = [(0.04, 0.45)] * len(surface.quotes)
        targets = np.array([q.value for q in surface.quotes])
        with pytest.raises(ObjectiveNaN):
            _evaluate_fit(build_hot, np.array([]), surface, env, targets)

    def test_build_spec_bug_propagates(self, toy_market):
        # a plain ValueError is a bug, not a bad trial point: it must not
        # become a penalty that steers the search away from the buggy region
        disc, spreads, surface = toy_market
        single = VolQuoteSurface([surface.quotes[7]])

        def build_buggy(params):
            spec = build_toy([TRUE_PARAMS[0], params[0], TRUE_PARAMS[2]])
            if params[0] < 0.025:
                spec.y_diff_const = [[spec.y_diff_const[0, 0], 0.0]]
                spec.__post_init__()
            return spec

        with pytest.raises(ValueError, match="y_diff_const must have shape") as err:
            calibrate(build_buggy, [0.03], single, disc, spreads,
                      bounds=[(1e-5, None)], restarts=0, seed=3)
        assert not isinstance(err.value, InadmissibleSpec)

    def test_inadmissible_trial_point_scores_penalty(self, toy_market):
        disc, spreads, surface = toy_market
        single = VolQuoteSurface([surface.quotes[7]])
        trials = []

        def build_variance(params):
            # the spread variance itself is free and unbounded: negative
            # trial values are inadmissible
            trials.append(params[0])
            spec = build_toy(TRUE_PARAMS)
            spec.y_diff_const = [[params[0]]]
            spec.__post_init__()
            return spec

        env = [(0.04, 0.45)]
        with pytest.raises(ObjectiveNaN) as err:
            _evaluate_fit(build_variance, np.array([-1e-5]), single, env, np.array([0.2]))
        assert isinstance(err.value.__cause__, InadmissibleSpec)
        result = calibrate(build_variance, [-2e-5], single, disc, spreads,
                           restarts=0, seed=3)
        assert sum(t < 0 for t in trials) > 1
        assert result.parameters[0] == pytest.approx(TRUE_PARAMS[1] ** 2, rel=1e-4)

    def test_deterministic_given_seed(self, toy_market):
        disc, spreads, surface = toy_market
        quote = surface.quotes[7]
        single = VolQuoteSurface([quote])

        def build_one(params):
            return build_toy([TRUE_PARAMS[0], params[0], TRUE_PARAMS[2]])

        kwargs = dict(bounds=[(1e-5, None)], restarts=1, seed=11)
        a = calibrate(build_one, [0.03], single, disc, spreads, **kwargs)
        b = calibrate(build_one, [0.03], single, disc, spreads, **kwargs)
        np.testing.assert_array_equal(a.parameters, b.parameters)
        assert a.objective == b.objective
        assert a.n_evaluations == b.n_evaluations
