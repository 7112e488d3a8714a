import logging
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from multicurve.products import irs_swap_rate, ois_swap_rate
from multicurve.termstructure import (
    DiscountCurve,
    ExtrapolationDisabled,
    MarketQuoteSet,
    NegativeSpreadWarning,
    NonIncreasingMaturities,
    NoSolution,
    OisSwapQuote,
    SpreadQuote,
    SpreadTermStructure,
    Tenor,
    bootstrap_ois_curve,
    bootstrap_spread_curve,
    fra_rate,
    fra_rate_from_curves,
)


@pytest.fixture
def two_pillar_curve():
    return DiscountCurve([1.0, 2.0], [0.98, 0.95])


@pytest.fixture
def flat_2pct_curve():
    times = np.array([0.5, 1.0, 1.5, 2.0, 3.0])
    return DiscountCurve(times, np.exp(-0.02 * times))


class TestTenor:
    def test_exact_value(self):
        assert float(Tenor(1, 4)) == 0.25
        assert float(Tenor("1/2")) == 0.5

    def test_parse(self):
        assert Tenor.parse("3M") == Tenor(1, 4)
        assert Tenor.parse("6m") == Tenor(1, 2)
        assert Tenor.parse("1Y") == Tenor(1)
        assert Tenor.parse("0.25") == Tenor(1, 4)
        assert Tenor.parse("1/4") == Tenor(1, 4)

    @pytest.mark.parametrize("text", ["abc", "", "1/0", "1/0M", 6, 0.5, None])
    def test_parse_rejects_with_value_error(self, text):
        with pytest.raises(ValueError):
            Tenor.parse(text)

    def test_ordering_and_hash(self):
        assert Tenor(1, 4) < Tenor(1, 2) < Tenor(1)
        d = {Tenor(1, 4): "3M"}
        assert d[Tenor.parse("3M")] == "3M"

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            Tenor(0)
        with pytest.raises(ValueError):
            Tenor(-1, 4)


class TestDiscountCurve:
    def test_anchored_at_one(self, two_pillar_curve):
        assert two_pillar_curve.discount(0.0) == 1.0

    def test_pillars_reproduced(self, two_pillar_curve):
        assert two_pillar_curve.discount(1.0) == pytest.approx(0.98, abs=1e-15)
        assert two_pillar_curve.discount(2.0) == pytest.approx(0.95, abs=1e-15)

    def test_log_linear_midpoint(self, two_pillar_curve):
        expected = math.exp(0.5 * math.log(0.98) + 0.5 * math.log(0.95))
        assert two_pillar_curve.discount(1.5) == pytest.approx(expected, abs=1e-15)

    def test_flat_curve_midpoint(self, flat_2pct_curve):
        assert flat_2pct_curve.discount(1.25) == pytest.approx(math.exp(-0.025), abs=1e-14)

    def test_simple_forward_frozen(self, two_pillar_curve):
        # (0.98/0.95 - 1) / 1
        assert two_pillar_curve.simple_forward(1.0, 1.0) == pytest.approx(
            0.98 / 0.95 - 1.0, abs=1e-15
        )

    def test_instantaneous_forward_piecewise(self, two_pillar_curve):
        f01 = -math.log(0.98)
        f12 = math.log(0.98 / 0.95)
        assert two_pillar_curve.instantaneous_forward(0.4) == pytest.approx(f01, abs=1e-15)
        assert two_pillar_curve.instantaneous_forward(1.5) == pytest.approx(f12, abs=1e-15)
        # right-continuous at the pillar
        assert two_pillar_curve.instantaneous_forward(1.0) == pytest.approx(f12, abs=1e-15)

    def test_forward_integrates_back_to_discount(self, two_pillar_curve):
        # exp(-int_0^T f) == B(0,T) on a dense grid
        grid = np.linspace(0.0, 2.0, 401)
        f = two_pillar_curve.instantaneous_forward(grid[:-1])  # left values on each cell
        cell = np.diff(grid)
        cum = np.concatenate(([0.0], np.cumsum(f * cell)))
        assert np.max(np.abs(np.exp(-cum) - two_pillar_curve.discount(grid))) < 1e-12

    def test_extrapolation_disabled_by_default(self, two_pillar_curve):
        with pytest.raises(ExtrapolationDisabled):
            two_pillar_curve.discount(2.5)

    def test_flat_forward_extrapolation(self):
        curve = DiscountCurve([1.0, 2.0], [0.98, 0.95], allow_extrapolation=True)
        f_last = math.log(0.98 / 0.95)
        assert curve.discount(3.0) == pytest.approx(0.95 * math.exp(-f_last), rel=1e-14)

    def test_invalid_inputs(self):
        with pytest.raises(NonIncreasingMaturities):
            DiscountCurve([1.0, 1.0], [0.98, 0.97])
        with pytest.raises(ValueError):
            DiscountCurve([1.0], [-0.5])
        with pytest.raises(ValueError):
            DiscountCurve([-1.0], [0.99])


class TestSpreadTermStructure:
    def test_pillars_and_midpoint(self):
        s = SpreadTermStructure(Tenor(1, 2), [1.0, 2.0], [1.01, 1.03])
        assert s.spread(1.0) == pytest.approx(1.01, abs=1e-15)
        mid = math.exp(0.5 * math.log(1.01) + 0.5 * math.log(1.03))
        assert s.spread(1.5) == pytest.approx(mid, abs=1e-15)

    def test_flat_left_of_first_pillar(self):
        s = SpreadTermStructure(Tenor(1, 2), [1.0, 2.0], [1.01, 1.03])
        assert s.spread(0.25) == pytest.approx(1.01, abs=1e-15)
        assert s.forward_spread_rate(0.25) == 0.0

    def test_forward_spread_rate_piecewise(self):
        s = SpreadTermStructure(Tenor(1, 2), [1.0, 2.0], [1.01, 1.03])
        slope = math.log(1.03 / 1.01)
        assert s.forward_spread_rate(1.2) == pytest.approx(slope, abs=1e-15)
        assert s.forward_spread_rate(1.0) == pytest.approx(slope, abs=1e-15)
        assert s.forward_spread_rate(2.0) == pytest.approx(slope, abs=1e-15)

    def test_spread_below_one_is_storable(self):
        s = SpreadTermStructure(Tenor(1, 2), [1.0], [0.995])
        assert s.spread(1.0) == pytest.approx(0.995, abs=1e-15)


class TestFraRate:
    def test_inverse_of_spread_definition(self):
        s = 1.015 / 1.010
        assert fra_rate(s, 0.02, 0.5) == pytest.approx(0.03, abs=1e-14)

    def test_zero_ois_forward(self):
        assert fra_rate(1.002, 0.0, 0.25) == pytest.approx(0.008, abs=1e-15)

    def test_from_curves(self, flat_2pct_curve):
        spread = SpreadTermStructure(Tenor(1, 2), [1.0, 2.0], [1.004, 1.006])
        T, d = 1.0, 0.5
        ld = flat_2pct_curve.simple_forward(T, d)
        expected = (spread.spread(T) * (1 + d * ld) - 1) / d
        assert fra_rate_from_curves(flat_2pct_curve, spread, T) == pytest.approx(expected, abs=1e-15)


class TestOisBootstrap:
    def test_single_quote_closed_form(self):
        curve = bootstrap_ois_curve([OisSwapQuote(1.0, 0.02, Tenor(1))])
        assert curve.discount(1.0) == pytest.approx(1.0 / 1.02, abs=1e-14)

    def test_two_quotes_sequential(self):
        curve = bootstrap_ois_curve(
            [OisSwapQuote(1.0, 0.02, Tenor(1)), OisSwapQuote(2.0, 0.025, Tenor(1))]
        )
        b1 = 1.0 / 1.02
        # (1 - b2) / (b1 + b2) = 0.025  =>  b2 = (1 - 0.025*b1) / 1.025
        b2 = (1.0 - 0.025 * b1) / 1.025
        assert curve.discount(1.0) == pytest.approx(b1, abs=1e-13)
        assert curve.discount(2.0) == pytest.approx(b2, abs=1e-13)

    def test_reprice_residual(self):
        quotes = [
            OisSwapQuote(0.5, 0.015, Tenor(1, 2)),
            OisSwapQuote(1.0, 0.018, Tenor(1, 2)),
            OisSwapQuote(2.0, 0.021, Tenor(1, 2)),
            OisSwapQuote(5.0, 0.024, Tenor(1, 2)),
            OisSwapQuote(10.0, 0.026, Tenor(1, 2)),
        ]
        curve = bootstrap_ois_curve(quotes)
        for q in quotes:
            d = float(q.pay_tenor)
            pays = d * np.arange(1, int(round(q.maturity / d)) + 1)
            dfs = curve.discount(pays)
            par = (1.0 - dfs[-1]) / (d * math.fsum(dfs))
            assert abs(par - q.rate) < 1e-12

    def test_negative_rates_bootstrap(self):
        quotes = [OisSwapQuote(1.0, -0.005, Tenor(1)), OisSwapQuote(2.0, -0.003, Tenor(1))]
        curve = bootstrap_ois_curve(quotes)
        assert curve.discount(1.0) > 1.0  # negative rate => discount above par

    def test_non_increasing_maturities_rejected(self):
        with pytest.raises(NonIncreasingMaturities):
            bootstrap_ois_curve([OisSwapQuote(1.0, 0.02, Tenor(1)), OisSwapQuote(1.0, 0.02, Tenor(1))])

    def test_unreachable_quote_raises(self):
        with pytest.raises(NoSolution):
            bootstrap_ois_curve([OisSwapQuote(1.0, -2.0, Tenor(1))])

    def test_misaligned_schedule_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_ois_curve([OisSwapQuote(0.7, 0.02, Tenor(1, 2))])


def _irs_par_oracle(disc, spread_curve, maturity, delta):
    """Test-side IRS par rate written independently of the bootstrapper."""
    n = int(round(maturity / delta))
    resets = [i * delta for i in range(n)]
    pays = [(i + 1) * delta for i in range(n)]
    floating = sum(
        disc.discount(r) * spread_curve.spread(r) - disc.discount(p) for r, p in zip(resets, pays)
    )
    annuity = delta * sum(disc.discount(p) for p in pays)
    return floating / annuity


def test_bootstraps_are_logged(flat_2pct_curve, caplog):
    with caplog.at_level(logging.DEBUG, logger="multicurve.termstructure"):
        bootstrap_ois_curve([OisSwapQuote(1.0, 0.02, Tenor(1)), OisSwapQuote(2.0, 0.021, Tenor(1))])
        bootstrap_spread_curve(flat_2pct_curve, [SpreadQuote(1.0, 0.03, "FRA")], Tenor(1, 2))
    messages = [r.getMessage() for r in caplog.records if r.name == "multicurve.termstructure"]
    assert len(messages) == 2
    assert re.fullmatch(r"ois bootstrap: pillars=2 seconds=[\d.]+", messages[0])
    assert re.fullmatch(r"spread bootstrap: tenor=\S+ pillars=1 seconds=[\d.]+", messages[1])


class TestSpreadBootstrap:
    def test_single_fra_maps_directly(self, flat_2pct_curve):
        delta = 0.5
        ld = flat_2pct_curve.simple_forward(1.0, delta)
        curve = bootstrap_spread_curve(
            flat_2pct_curve, [SpreadQuote(1.0, 0.03, "FRA")], Tenor(1, 2)
        )
        expected = (1 + delta * 0.03) / (1 + delta * ld)
        assert curve.spread(1.0) == pytest.approx(expected, abs=1e-15)

    def test_irs_round_trip(self, flat_2pct_curve):
        delta = 0.5
        true = SpreadTermStructure(Tenor(1, 2), [0.5, 1.5, 2.5], [1.004, 1.006, 1.009])
        quotes = [
            SpreadQuote(m, _irs_par_oracle(flat_2pct_curve, true, m, delta), "IRS")
            for m in (1.0, 2.0, 3.0)
        ]
        built = bootstrap_spread_curve(flat_2pct_curve, quotes, Tenor(1, 2))
        assert np.allclose(built.pillar_times, [0.5, 1.5, 2.5])
        assert np.max(np.abs(built.pillar_spreads - true.pillar_spreads)) < 1e-10
        for q in quotes:
            assert abs(_irs_par_oracle(flat_2pct_curve, built, q.maturity, delta) - q.rate) < 1e-12

    def test_mixed_fra_and_irs(self, flat_2pct_curve):
        delta = 0.5
        true = SpreadTermStructure(Tenor(1, 2), [0.5, 1.5], [1.004, 1.007])
        ld = flat_2pct_curve.simple_forward(0.5, delta)
        fra_quote = SpreadQuote(0.5, fra_rate(true.spread(0.5), ld, delta), "FRA")
        irs_quote = SpreadQuote(2.0, _irs_par_oracle(flat_2pct_curve, true, 2.0, delta), "IRS")
        built = bootstrap_spread_curve(flat_2pct_curve, [fra_quote, irs_quote], Tenor(1, 2))
        assert np.max(np.abs(built.pillar_spreads - true.pillar_spreads)) < 1e-10

    def test_negative_spread_warns_but_builds(self, flat_2pct_curve):
        delta = 0.5
        ld = flat_2pct_curve.simple_forward(1.0, delta)
        with pytest.warns(NegativeSpreadWarning):
            curve = bootstrap_spread_curve(
                flat_2pct_curve, [SpreadQuote(1.0, ld - 0.005, "FRA")], Tenor(1, 2)
            )
        assert curve.spread(1.0) < 1.0

    def test_pillar_collision_rejected(self, flat_2pct_curve):
        quotes = [SpreadQuote(0.5, 0.02, "FRA"), SpreadQuote(1.0, 0.02, "IRS")]  # both pillar 0.5
        with pytest.raises(NonIncreasingMaturities):
            bootstrap_spread_curve(flat_2pct_curve, quotes, Tenor(1, 2))


@st.composite
def quoted_market(draw):
    """Random curves and the par quotes they imply: a discount curve on
    pillars 1..n years from forwards in [-1%, 10%], quoted by annual OIS
    swaps, and a 6M spread curve >= 1 on pillars every half year to n - 1/2,
    each quoted by a FRA fixing there or an IRS whose last reset is there."""
    n = draw(st.integers(1, 6))
    years = np.arange(1.0, n + 1.0)
    forwards = np.array(draw(st.lists(st.floats(-0.01, 0.1), min_size=n, max_size=n)))
    disc = DiscountCurve(years, np.exp(-np.cumsum(forwards)))
    halves = 0.5 * np.arange(1, 2 * n)
    spreads = draw(st.lists(st.floats(1.0, 1.05), min_size=len(halves), max_size=len(halves)))
    spread = SpreadTermStructure(Tenor(1, 2), halves, spreads)
    ois = [OisSwapQuote(T, ois_swap_rate(disc, np.arange(0.0, T + 1.0)), Tenor(1)) for T in years]
    quotes = []
    for T in halves:
        if draw(st.booleans()):
            quotes.append(SpreadQuote(T, fra_rate_from_curves(disc, spread, T), "FRA"))
        else:
            sched = 0.5 * np.arange(0, round(2 * T) + 2)
            quotes.append(SpreadQuote(T + 0.5, irs_swap_rate(disc, spread, sched), "IRS"))
    return disc, spread, ois, quotes


# a spread of exactly one may come back one ulp below it, which warns
@pytest.mark.filterwarnings("ignore::multicurve.termstructure.NegativeSpreadWarning")
@given(quoted_market())
def test_par_quotes_bootstrap_back_to_their_curves(market):
    disc, spread, ois, quotes = market
    built_disc = bootstrap_ois_curve(ois)
    built = bootstrap_spread_curve(built_disc, quotes, Tenor(1, 2))
    np.testing.assert_array_equal(built_disc.pillar_times, disc.pillar_times)
    np.testing.assert_allclose(built_disc.pillar_discounts, disc.pillar_discounts, rtol=1e-12)
    np.testing.assert_array_equal(built.pillar_times, spread.pillar_times)
    np.testing.assert_allclose(built.pillar_spreads, spread.pillar_spreads, rtol=1e-12)
    for q in ois:
        assert abs(ois_swap_rate(built_disc, np.arange(0.0, q.maturity + 1.0)) - q.rate) <= 1e-12
    for q in quotes:
        if q.kind == "FRA":
            model = fra_rate_from_curves(built_disc, built, q.maturity)
        else:
            model = irs_swap_rate(built_disc, built, 0.5 * np.arange(0, round(2 * q.maturity) + 1))
        assert abs(model - q.rate) <= 1e-12


class TestMarketQuoteSet:
    def test_validate_requires_ois(self):
        with pytest.raises(ValueError):
            MarketQuoteSet().validate()

    def test_spread_quotes_keyed_by_tenor(self):
        qs = MarketQuoteSet(
            ois_swaps=[OisSwapQuote(1.0, 0.02, Tenor(1))],
            spread_quotes={Tenor(1, 2): [SpreadQuote(1.0, 0.03, "FRA")]},
        )
        qs.validate()
        assert Tenor(1, 2) in qs.spread_quotes
