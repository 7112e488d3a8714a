import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from multicurve.products import (
    EmptyPathSet,
    MaturityNotCovered,
    PathSet,
    ProductSpec,
    basis_swap_spread,
    caplet_price_mc,
    fra_value,
    irs_swap_rate,
    irs_value,
    ois_swap_rate,
    ois_swap_value,
    swaption_price_mc,
)
from multicurve.termstructure import (
    DiscountCurve,
    SpreadTermStructure,
    Tenor,
    fra_rate,
    fra_rate_from_curves,
)


@pytest.fixture
def disc():
    times = np.arange(0.5, 5.01, 0.5)
    return DiscountCurve(times, np.exp(-0.02 * times))


@pytest.fixture
def spread_6m():
    return SpreadTermStructure(Tenor(1, 2), [0.5, 2.0, 4.5], [1.004, 1.007, 1.011])


class TestLinearProducts:
    def test_fra_value_frozen(self):
        disc = DiscountCurve([1.0, 2.0], [0.98, 0.95])
        spread = SpreadTermStructure(Tenor(1), [1.0], [1.002])
        v = fra_value(disc, spread, 1.0, fixed_rate=0.03)
        assert v == pytest.approx(0.98 * 1.002 - 0.95 * 1.03, abs=1e-15)
        assert v == pytest.approx(0.00346, abs=1e-12)

    def test_fra_par_identity(self, disc, spread_6m):
        T = 1.5
        K = fra_rate_from_curves(disc, spread_6m, T)
        assert abs(fra_value(disc, spread_6m, T, K, notional=1e6)) < 1e-12 * 1e6

    def test_ois_swap_rate_single_period(self):
        disc = DiscountCurve([1.0], [1.0 / 1.02])
        assert ois_swap_rate(disc, [0.0, 1.0]) == pytest.approx(0.02, abs=1e-14)

    def test_ois_swap_rate_flat_curve_frozen(self):
        times = np.array([1.0, 2.0])
        disc = DiscountCurve(times, np.exp(-0.02 * times))
        expected = (1 - math.exp(-0.04)) / (math.exp(-0.02) + math.exp(-0.04))
        assert ois_swap_rate(disc, [0.0, 1.0, 2.0]) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.0202013, abs=5e-8)

    def test_ois_par_identity(self, disc):
        sched = np.arange(0.0, 3.01, 0.5)
        K = ois_swap_rate(disc, sched)
        assert abs(ois_swap_value(disc, sched, K, notional=1e6)) < 1e-12 * 1e6

    def test_irs_par_identity(self, disc, spread_6m):
        sched = np.arange(0.0, 4.01, 0.5)
        K = irs_swap_rate(disc, spread_6m, sched)
        assert abs(irs_value(disc, spread_6m, sched, K, notional=1e6)) < 1e-12 * 1e6

    def test_irs_rate_is_fra_weighted_average(self, disc, spread_6m):
        # sum_i B(0,T_i) L(0; T_{i-1}, T_i) / sum_i B(0,T_i), with L from the spread
        sched = np.arange(0.0, 3.01, 0.5)
        d = 0.5
        num = den = 0.0
        for t0, t1 in zip(sched[:-1], sched[1:]):
            L = fra_rate(spread_6m.spread(t0), disc.simple_forward(t0, d), d)
            num += disc.discount(t1) * L
            den += disc.discount(t1)
        assert irs_swap_rate(disc, spread_6m, sched) == pytest.approx(num / den, abs=1e-12)

    def test_irs_spacing_mismatch_rejected(self, disc, spread_6m):
        with pytest.raises(ValueError):
            irs_swap_rate(disc, spread_6m, [0.0, 1.0, 2.0])


class TestBasisSwap:
    def test_single_curve_degenerate_is_exactly_zero(self, disc):
        ones_a = SpreadTermStructure(Tenor(1), [1.0], [1.0], allow_extrapolation=True)
        ones_b = SpreadTermStructure(Tenor(1, 2), [1.0], [1.0], allow_extrapolation=True)
        k = basis_swap_spread(
            disc,
            ones_a, [0.0, 1.0, 2.0],
            ones_b, [0.0, 0.5, 1.0, 1.5, 2.0],
            [0.0, 0.5, 1.0, 1.5, 2.0],
        )
        assert k == 0.0

    def test_wider_long_tenor_spread_is_positive(self, disc):
        # two-period coarse leg vs four-period fine leg, S1 > S2 pointwise
        s1 = SpreadTermStructure(Tenor(1), [1.0], [1.02], allow_extrapolation=True)
        s2 = SpreadTermStructure(Tenor(1, 2), [1.0], [1.001], allow_extrapolation=True)
        k = basis_swap_spread(
            disc, s1, [0.0, 1.0, 2.0], s2, [0.0, 0.5, 1.0, 1.5, 2.0], [0.0, 1.0, 2.0]
        )
        assert k > 0

    def test_leg_order_antisymmetry(self, disc):
        s1 = SpreadTermStructure(Tenor(1), [1.0], [1.012], allow_extrapolation=True)
        s2 = SpreadTermStructure(Tenor(1, 2), [1.0], [1.005], allow_extrapolation=True)
        sched1, sched2 = [0.0, 1.0, 2.0], [0.0, 0.5, 1.0, 1.5, 2.0]
        fixed = [0.0, 0.5, 1.0, 1.5, 2.0]
        k_ab = basis_swap_spread(disc, s1, sched1, s2, sched2, fixed)
        k_ba = basis_swap_spread(disc, s2, sched2, s1, sched1, fixed)
        assert k_ab == -k_ba

    def test_mismatched_endpoints_rejected(self, disc):
        s1 = SpreadTermStructure(Tenor(1), [1.0], [1.01])
        s2 = SpreadTermStructure(Tenor(1, 2), [1.0], [1.005])
        with pytest.raises(ValueError):
            basis_swap_spread(disc, s1, [0.0, 1.0], s2, [0.0, 0.5, 1.0, 1.5], [0.0, 0.5, 1.0])


@st.composite
def market_curves(draw):
    """A discount curve on strictly increasing random pillar dates, from
    random forwards in [-1%, 10%], and a 6M and a 1Y spread curve >= 1 on the
    same dates; every curve extrapolates flat-forward past its last pillar."""
    n = draw(st.integers(1, 8))

    def column(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))

    steps = column(0.1, 2.0)
    times = np.cumsum(steps)
    disc = DiscountCurve(times, np.exp(-np.cumsum(column(-0.01, 0.1) * steps)),
                         allow_extrapolation=True)
    spread_6m, spread_1y = (
        SpreadTermStructure(tenor, times, column(1.0, 1.1), allow_extrapolation=True)
        for tenor in (Tenor(1, 2), Tenor(1)))
    return disc, spread_6m, spread_1y


class TestParIdentities:
    """The paper's linear-product identities on random curves."""

    @given(market_curves(), st.sampled_from([0, 1]), st.floats(0.0, 12.0), st.floats(1.0, 1e8))
    def test_fra_at_its_par_rate_is_worth_zero(self, curves, leg, fixing, notional):
        disc, spread = curves[0], curves[1 + leg]
        rate = fra_rate_from_curves(disc, spread, fixing)
        assert abs(fra_value(disc, spread, fixing, rate, notional)) <= 1e-13 * notional

    @given(market_curves(), st.sampled_from([0.5, 1.0]), st.integers(0, 4),
           st.integers(1, 20), st.floats(1.0, 1e8))
    def test_ois_swap_at_its_par_rate_is_worth_zero(self, curves, delta, start, periods,
                                                    notional):
        disc = curves[0]
        sched = delta * np.arange(start, start + periods + 1)
        rate = ois_swap_rate(disc, sched)
        assert abs(ois_swap_value(disc, sched, rate, notional)) <= 1e-13 * notional

    @given(market_curves(), st.sampled_from([0, 1]), st.integers(0, 4),
           st.integers(1, 20), st.floats(1.0, 1e8))
    def test_irs_at_its_par_rate_is_worth_zero(self, curves, leg, start, periods, notional):
        disc, spread = curves[0], curves[1 + leg]
        delta = float(spread.tenor)
        sched = delta * np.arange(start, start + periods + 1)
        rate = irs_swap_rate(disc, spread, sched)
        assert abs(irs_value(disc, spread, sched, rate, notional)) <= 1e-13 * notional

    @given(market_curves(), st.integers(0, 3), st.integers(1, 10), st.sampled_from([0.5, 1.0]))
    def test_swapping_the_basis_legs_negates_the_spread(self, curves, start, years, fixed):
        disc, spread_6m, spread_1y = curves
        sched_6m = 0.5 * np.arange(2 * start, 2 * (start + years) + 1)
        sched_1y = np.arange(start, start + years + 1, dtype=float)
        sched_fixed = fixed * np.arange(start / fixed, (start + years) / fixed + 1)
        k_ab = basis_swap_spread(disc, spread_6m, sched_6m, spread_1y, sched_1y, sched_fixed)
        k_ba = basis_swap_spread(disc, spread_1y, sched_1y, spread_6m, sched_6m, sched_fixed)
        assert k_ab == -k_ba


def _toy_pathset(seed=7, n=500, time=1.0, tenor=Tenor(1, 2)):
    rng = np.random.default_rng(seed)
    mats = np.array([1.0, 1.5, 2.0])
    taus = mats - time
    bonds = np.exp(-0.02 * taus[None, :] + 0.01 * rng.standard_normal((n, 1)) * taus[None, :])
    spreads = np.exp(0.004 * taus[None, :] + np.abs(0.002 * rng.standard_normal((n, 1))))
    numeraire = np.exp(0.02 * time + 0.01 * rng.standard_normal(n))
    return PathSet(time=time, maturities=mats, numeraire=numeraire, bonds=bonds,
                   spreads={tenor: spreads}, seed=seed, dt=1 / 365)


class TestPathSet:
    def test_requires_paths(self):
        with pytest.raises(EmptyPathSet):
            PathSet(1.0, np.array([1.0]), np.array([]), np.zeros((0, 1)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            PathSet(1.0, np.array([1.0, 2.0]), np.ones(3), np.ones((3, 1)))

    def test_positivity_validation(self):
        with pytest.raises(ValueError):
            PathSet(1.0, np.array([1.0]), np.ones(2), -np.ones((2, 1)))

    def test_missing_maturity(self):
        ps = _toy_pathset()
        with pytest.raises(MaturityNotCovered):
            ps.bond(3.0)
        with pytest.raises(MaturityNotCovered):
            ps.spread(Tenor(1), 1.0)

    def test_column_lookup(self):
        ps = _toy_pathset()
        assert ps.bond(1.0).shape == (ps.n_paths,)
        assert np.allclose(ps.bond(1.0), 1.0, atol=1e-12)  # B(t,t) = 1 column


class TestMonteCarloPricers:
    def test_caplet_matches_hand_mean(self):
        ps = _toy_pathset()
        tenor = Tenor(1, 2)
        K, d = 0.02, 0.5
        price, se = caplet_price_mc(ps, tenor, K)
        payoff = np.maximum(ps.spread(tenor, 1.0) - (1 + d * K) * ps.bond(1.5), 0) / ps.numeraire
        assert price == pytest.approx(float(payoff.mean()), abs=1e-15)
        assert se == pytest.approx(float(payoff.std(ddof=1) / math.sqrt(len(payoff))), abs=1e-15)

    def test_caplet_monotone_in_strike(self):
        ps = _toy_pathset()
        prices = [caplet_price_mc(ps, Tenor(1, 2), k)[0] for k in (0.0, 0.01, 0.02, 0.05)]
        assert all(a >= b - 1e-15 for a, b in zip(prices, prices[1:]))

    def test_caplet_equals_scaled_bond_put_single_curve(self):
        # with S == 1 the caplet is (1 + dK) puts on the bond struck at 1/(1+dK)
        ps = _toy_pathset()
        tenor = Tenor(1, 2)
        ones = {tenor: np.ones_like(ps.bonds)}
        ps1 = PathSet(ps.time, ps.maturities, ps.numeraire, ps.bonds, ones, ps.seed, ps.dt)
        K, d = 0.03, 0.5
        kappa = 1 + d * K
        caplet, _ = caplet_price_mc(ps1, tenor, K)
        put_payoff = np.maximum(1.0 / kappa - ps1.bond(1.5), 0) / ps1.numeraire
        assert caplet == pytest.approx(kappa * float(put_payoff.mean()), abs=1e-12)

    def test_swaption_exercise_always_limit(self):
        # K -> -1/delta makes exercise certain: value = discounted sum of floating terms
        ps = _toy_pathset()
        tenor = Tenor(1, 2)
        sched = [1.0, 1.5, 2.0]
        price, _ = swaption_price_mc(ps, tenor, sched, fixed_rate=-1.0 / 0.5)
        expected = np.zeros(ps.n_paths)
        for t0, t1 in zip(sched[:-1], sched[1:]):
            expected += ps.bond(t0) * ps.spread(tenor, t0)  # kappa = 0 kills the fixed side
        assert price == pytest.approx(float((expected / ps.numeraire).mean()), abs=1e-12)

    def test_swaption_expiry_must_match(self):
        ps = _toy_pathset()
        with pytest.raises(ValueError):
            swaption_price_mc(ps, Tenor(1, 2), [1.5, 2.0], 0.02)


class TestProductSpec:
    def test_kind_validated(self):
        with pytest.raises(ValueError):
            ProductSpec("CDO", (1.0,), 0.0, 1.0, Tenor(1, 2))

    def test_basis_needs_all_legs(self):
        with pytest.raises(ValueError):
            ProductSpec("BASIS_SWAP", (0.0, 1.0), 0.0, 1.0, Tenor(1))
