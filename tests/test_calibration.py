import math

import numpy as np
import pytest
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
    _from_unconstrained,
    _to_unconstrained,
    black_caplet,
    black_implied_vol,
    calibrate,
)
from multicurve.termstructure import DiscountCurve, SpreadTermStructure, Tenor

T6M = Tenor.parse("6M")
TRUE_PARAMS = np.array([0.012, 0.02, 0.15])


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


class TestParameterTransform:
    @pytest.mark.parametrize("bounds", [
        None,
        [(None, None), (None, None), (None, None)],
        [(0.0, None), (1e-6, None), (None, None)],
        [(0.0, 1.0), (None, 2.0), (-5.0, None)],
    ])
    def test_round_trip(self, bounds):
        x = np.array([0.3, 0.8, -1.7])
        z = _to_unconstrained(x, bounds)
        np.testing.assert_allclose(_from_unconstrained(z, bounds), x, atol=1e-12)

    def test_bounds_always_respected(self):
        bounds = [(0.0, None), (0.1, 0.9)]
        for z in ([-40.0, -40.0], [40.0, 40.0], [0.0, 0.0]):
            x = _from_unconstrained(np.array(z), bounds)
            assert x[0] >= 0.0
            assert 0.1 <= x[1] <= 0.9


class TestCalibrate:
    def test_self_calibration_round_trip(self, toy_market):
        disc, spreads, surface = toy_market
        result = calibrate(
            build_toy, [0.013, 0.019, 0.13], surface, disc, spreads,
            bounds=[(1e-4, None), (1e-4, None), (None, None)],
            restarts=0, seed=7, xatol=1e-5, fatol=1e-10,
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
            xatol=1e-10, fatol=1e-18,
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
                           restarts=0, seed=3, xatol=1e-10, fatol=1e-18)
        assert sum(t < 0 for t in trials) > 1
        assert result.parameters[0] == pytest.approx(TRUE_PARAMS[1] ** 2, rel=1e-4)

    def test_deterministic_given_seed(self, toy_market):
        disc, spreads, surface = toy_market
        quote = surface.quotes[7]
        single = VolQuoteSurface([quote])

        def build_one(params):
            return build_toy([TRUE_PARAMS[0], params[0], TRUE_PARAMS[2]])

        kwargs = dict(bounds=[(1e-5, None)], restarts=1, seed=11,
                      xatol=1e-4, fatol=1e-10)
        a = calibrate(build_one, [0.03], single, disc, spreads, **kwargs)
        b = calibrate(build_one, [0.03], single, disc, spreads, **kwargs)
        np.testing.assert_array_equal(a.parameters, b.parameters)
        assert a.objective == b.objective
        assert a.n_evaluations == b.n_evaluations
