"""Tests for the Levy-driven forward-curve engine."""

import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multicurve.hjm import (
    ExponentialVolatility,
    GridMismatch,
    LevyHjmModel,
    LevyTriplet,
    SimulationAborted,
    StateDependentVolatility,
    _precompute_alpha_rows,
    consistency_residual,
    ois_drift,
    simulate_hjm,
    spread_drift,
    spread_drift_adjustment,
)
from multicurve.termstructure import Tenor

T3M = Tenor.parse("3M")
T6M = Tenor.parse("6M")
T1Y = Tenor.parse("1Y")


def make_model(ois_scale=0.01, spread_scales=(), u=(), tenors=(),
               forward=0.02, spreads=(), mode="none", cov_extra=(), jumps=None):
    """Single-curve-factor model builder used across tests."""
    diag = [1.0, *cov_extra]
    trip_kwargs = {}
    if jumps is not None:
        sizes, lams = jumps
        padded = [list(row) + [0.0] * (len(diag) - len(row)) for row in sizes]
        trip_kwargs = dict(jump_sizes=padded, jump_intensities=lams)
    trip = LevyTriplet(drift=np.zeros(len(diag)), covariance=np.diag(diag), **trip_kwargs)
    return LevyHjmModel(
        driver=trip,
        n_curve_factors=1,
        ois_vol=ExponentialVolatility.flat(ois_scale),
        spread_vols=[ExponentialVolatility.flat(s) for s in spread_scales],
        u_vectors=np.array(u, dtype=float).reshape(len(tenors), len(cov_extra)),
        tenors=list(tenors),
        forward_curve=forward,
        forward_spread_curves=list(spreads),
        spread_factor_mode=mode,
    )


class TestLevyTriplet:
    def test_brownian_exponent(self):
        trip = LevyTriplet(drift=[0.0, 0.0], covariance=np.eye(2))
        assert trip.exponent(np.array([1.0, 0.0])) == pytest.approx(0.5, abs=1e-15)

    def test_jump_exponent_value(self):
        trip = LevyTriplet(drift=[0.0], covariance=[[0.0]],
                           jump_sizes=[[0.1]], jump_intensities=[2.0])
        assert trip.exponent(np.array([1.0])) == pytest.approx(0.21034183615129542, abs=1e-15)

    def test_exponent_at_zero(self):
        trip = LevyTriplet(drift=[0.3, -0.2], covariance=np.eye(2),
                           jump_sizes=[[0.1, 0.0]], jump_intensities=[1.5])
        assert trip.exponent(np.zeros(2)) == 0.0

    def test_gradient_against_finite_differences(self):
        trip = LevyTriplet(
            drift=[0.1, -0.05],
            covariance=[[0.04, 0.01], [0.01, 0.09]],
            jump_sizes=[[0.2, -0.1], [0.05, 0.3]],
            jump_intensities=[1.5, 0.7],
        )
        beta = np.array([0.6, -0.4])
        grad = trip.exponent_gradient(beta)
        h = 1e-6
        for k in range(2):
            bp, bm = beta.copy(), beta.copy()
            bp[k] += h
            bm[k] -= h
            fd = (trip.exponent(bp) - trip.exponent(bm)) / (2 * h)
            assert grad[k] == pytest.approx(fd, abs=1e-8)

    def test_exponent_convex_along_lines(self):
        trip = LevyTriplet(drift=[0.1], covariance=[[0.2]],
                           jump_sizes=[[0.3]], jump_intensities=[1.0])
        rng = np.random.default_rng(0)
        for _ in range(3):
            a, b = rng.normal(size=2)
            mid = trip.exponent(np.array([(a + b) / 2]))
            avg = 0.5 * (trip.exponent(np.array([a])) + trip.exponent(np.array([b])))
            assert mid <= avg + 1e-12

    def test_batched_exponent_matches_scalar(self):
        trip = LevyTriplet(drift=[0.1, 0.0], covariance=np.eye(2),
                           jump_sizes=[[0.2, 0.1]], jump_intensities=[2.0])
        betas = np.array([[0.5, -0.5], [1.0, 0.2], [0.0, 0.0]])
        batched = trip.exponent(betas)
        for row, val in zip(betas, batched):
            assert trip.exponent(row) == pytest.approx(val, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            LevyTriplet(drift=[0.0, 0.0], covariance=[[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="column"):
            LevyTriplet(drift=[0.0, 0.0], covariance=np.eye(2),
                        jump_sizes=[[0.1]], jump_intensities=[1.0])
        for bad in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                LevyTriplet(drift=[0.0], covariance=[[1.0]],
                            jump_sizes=[[0.1]], jump_intensities=[bad])

    @pytest.mark.parametrize("field, kw", [
        ("drift", dict(drift=[math.nan])),
        ("jump_sizes", dict(jump_sizes=[[math.inf]], jump_intensities=[1.0]))],
        ids=["drift", "jump_sizes"])
    def test_non_finite_drift_or_jump_size_named(self, field, kw):
        # finite sizes as large as 1e308 stay allowed
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            LevyTriplet(**{"drift": [0.0], "covariance": [[1.0]], **kw})

    def test_diffusion_factor_singular_covariance(self):
        c = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank one, Cholesky fails
        trip = LevyTriplet(drift=[0.0, 0.0], covariance=c)
        L = trip.diffusion_factor()
        np.testing.assert_allclose(L @ L.T, c, atol=1e-12)


class TestExponentialVolatility:
    def test_integral_closed_form(self):
        vol = ExponentialVolatility(scales=[0.02, 0.01], decays=[0.7, 0.0])
        tau = 1.3
        # dense trapezoid oracle
        x = np.linspace(0.0, tau, 20001)
        numeric = np.trapezoid(vol.values(x), x, axis=0)
        np.testing.assert_allclose(vol.integrals(tau), numeric, atol=1e-9)
        assert vol.integrals(tau)[1] == pytest.approx(0.01 * tau, rel=1e-15)

    def test_zero_tau(self):
        vol = ExponentialVolatility(scales=[0.02], decays=[0.5])
        assert vol.integrals(0.0)[0] == 0.0
        assert vol.values(0.0)[0] == pytest.approx(0.02)

    def test_negative_decay_rejected(self):
        with pytest.raises(ValueError):
            ExponentialVolatility(scales=[0.01], decays=[-0.1])

    @pytest.mark.parametrize("field", ["scales", "decays"])
    def test_nan_scale_or_decay_named(self, field):
        kw = dict(scales=[0.01], decays=[0.5])
        kw[field] = [math.nan]
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            ExponentialVolatility(**kw)


@pytest.mark.parametrize("field, value, rule", [
    ("forward_curve", math.nan, "finite"), ("forward_spread_curves", [math.inf], "finite"),
    ("kernel_mass_cap", math.nan, "positive and finite")],
    ids=["forward_curve", "forward_spread_curves", "kernel_mass_cap"])
def test_non_finite_model_input_named(field, value, rule):
    # a NaN flat level used to abort every path after all the draws, and a
    # NaN mass cap to fail at the first kernel LP under another name
    kw = dict(driver=LevyTriplet(drift=[0.0, 0.0], covariance=np.eye(2)), n_curve_factors=1,
              ois_vol=ExponentialVolatility.flat(0.01),
              spread_vols=[ExponentialVolatility.flat(0.005)], u_vectors=[[1.0]],
              tenors=[T6M], forward_curve=0.02, forward_spread_curves=[0.005],
              spread_factor_mode="kernel")
    kw[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be {rule}"):
        LevyHjmModel(**kw)


class TestDrifts:
    def test_ho_lee_drift(self):
        model = make_model(ois_scale=0.01)
        taus = np.array([0.0, 0.25, 1.0, 3.0])
        np.testing.assert_allclose(ois_drift(model, taus), 0.01**2 * taus, atol=1e-15)
        assert ois_drift(model, 0.0) == pytest.approx(0.0, abs=1e-18)

    def test_jump_driver_drift_finite_difference(self):
        model = make_model(jumps=([[0.05]], [3.0]))
        vol = model.ois_vol
        h = 1e-6
        for tau in (0.3, 1.0, 2.5):
            def psi_of(t):
                big = vol.integrals(t)
                return model.driver.exponent(-big)
            fd = (psi_of(tau + h) - psi_of(tau - h)) / (2 * h)
            assert ois_drift(model, tau) == pytest.approx(fd, abs=1e-8)

    def test_spread_adjustment_vanishes_for_matching_vols(self):
        model = make_model(spread_scales=(0.01,), u=[[1.0]], tenors=[T6M],
                           spreads=(0.005,), cov_extra=(1e-4,))
        taus = np.array([0.0, 0.5, 2.0])
        np.testing.assert_allclose(spread_drift_adjustment(model, 0, taus), 0.0, atol=1e-16)
        # the full spread drift then coincides with the discount drift
        np.testing.assert_allclose(spread_drift(model, 0, taus), ois_drift(model, taus),
                                   atol=1e-16)

    def test_spread_drift_decomposition(self):
        model = make_model(spread_scales=(0.02,), u=[[0.7]], tenors=[T6M],
                           spreads=(0.005,), cov_extra=(3e-4,))
        taus = np.array([0.1, 0.6, 1.4])
        adj = spread_drift_adjustment(model, 0, taus)
        assert np.any(adj != 0.0)
        np.testing.assert_allclose(spread_drift(model, 0, taus),
                                   adj + ois_drift(model, taus), rtol=1e-14)

    def test_spread_drift_finite_difference(self):
        model = make_model(spread_scales=(0.03,), u=[[0.8]], tenors=[T6M],
                           spreads=(0.005,), cov_extra=(2e-4,),
                           jumps=([[0.04, 0.01]], [2.0]))
        h = 1e-6
        for tau in (0.4, 1.2):
            def joint_exponent(t):
                beta = np.concatenate([
                    model.spread_vols[0].integrals(t) - model.ois_vol.integrals(t),
                    model.u_vectors[0],
                ])
                return model.driver.exponent(beta)

            def ois_exponent(t):
                big = model.ois_vol.integrals(t)
                return model.driver.exponent(np.concatenate([-big, [0.0]]))

            fd = (
                -(joint_exponent(tau + h) - joint_exponent(tau - h))
                + (ois_exponent(tau + h) - ois_exponent(tau - h))
            ) / (2 * h)
            assert spread_drift(model, 0, tau) == pytest.approx(fd, abs=1e-8)


class TestSimulateDeterministic:
    def test_zero_vol_bond_transport(self):
        # sloped initial forwards: trapezoid integration is exact on linear curves
        model = make_model(ois_scale=0.0, forward=lambda T: 0.015 + 0.004 * T)
        res = simulate_hjm(model, horizon=1.0, dt=1 / 8, n_paths=2, seed=1,
                           maturities=[1.0, 1.5, 2.0])
        ps = res.pathset(1.0)

        def b0(T):
            return math.exp(-(0.015 * T + 0.002 * T * T))

        for j, T in enumerate(ps.maturities):
            expected = b0(T) / b0(1.0)
            np.testing.assert_allclose(ps.bonds[:, j], expected, rtol=1e-13)

    def test_zero_vol_flat_bank_account(self):
        model = make_model(ois_scale=0.0, forward=0.02)
        res = simulate_hjm(model, horizon=2.0, dt=1 / 12, n_paths=2, seed=1,
                           maturities=[2.0])
        np.testing.assert_allclose(res.pathset(2.0).numeraire, math.exp(0.04), rtol=1e-13)

    def test_zero_vol_spread_transport(self):
        model = make_model(ois_scale=0.0, spread_scales=(0.0,), u=[[1.0]], tenors=[T6M],
                           spreads=(lambda T: 0.004 + 0.001 * T,), cov_extra=(0.0,))
        res = simulate_hjm(model, horizon=0.5, dt=1 / 8, n_paths=2, seed=1,
                           maturities=[1.0, 2.0])
        ps = res.pathset(0.5)

        def s0_integral(a, b):
            return 0.004 * (b - a) + 0.0005 * (b * b - a * a)

        for j, T in enumerate(ps.maturities):
            np.testing.assert_allclose(ps.spreads[T6M][:, j],
                                       math.exp(s0_integral(0.5, T)), rtol=1e-13)


class TestEngineAgreement:
    @pytest.fixture
    def rich_model(self):
        return jump_driver_model()

    def test_grid_and_factor_agree(self, rich_model):
        kw = dict(horizon=1.0, dt=1 / 24, n_paths=48, seed=11,
                  maturities=[1.0, 1.25, 1.75, 2.0], observation_times=[0.5, 1.0])
        rg = simulate_hjm(rich_model, method="grid", **kw)
        rf = simulate_hjm(rich_model, method="factor", **kw)
        for t in (0.5, 1.0):
            pg, pf = rg.pathset(t), rf.pathset(t)
            np.testing.assert_allclose(pg.bonds, pf.bonds, atol=1e-12)
            np.testing.assert_allclose(pg.numeraire, pf.numeraire, atol=1e-12)
            np.testing.assert_allclose(pg.spreads[T6M], pf.spreads[T6M], atol=1e-12)

    def test_off_grid_maturity_partial_cell(self, rich_model):
        # a maturity strictly between grid nodes exercises the partial cell
        kw = dict(horizon=0.5, dt=1 / 8, n_paths=16, seed=3, maturities=[0.7, 1.03])
        rg = simulate_hjm(rich_model, method="grid", **kw)
        rf = simulate_hjm(rich_model, method="factor", **kw)
        np.testing.assert_allclose(rg.pathset(0.5).bonds, rf.pathset(0.5).bonds, atol=1e-12)

    def test_batching_invariance(self, rich_model):
        kw = dict(horizon=0.5, dt=1 / 12, n_paths=40, seed=7, maturities=[1.0])
        a = simulate_hjm(rich_model, batch_size=40, **kw)
        b = simulate_hjm(rich_model, batch_size=7, **kw)
        np.testing.assert_array_equal(a.pathset(0.5).bonds, b.pathset(0.5).bonds)
        np.testing.assert_array_equal(a.pathset(0.5).numeraire, b.pathset(0.5).numeraire)

    def test_snapshot_equals_shorter_run(self):
        # without driver jumps the first steps of a longer run reuse the same draws
        model = make_model(ois_scale=0.01)
        long = simulate_hjm(model, horizon=1.0, dt=1 / 12, n_paths=20, seed=5,
                            maturities=[1.0, 2.0], observation_times=[0.5, 1.0])
        short = simulate_hjm(model, horizon=0.5, dt=1 / 12, n_paths=20, seed=5,
                             maturities=[1.0, 2.0])
        np.testing.assert_array_equal(long.pathset(0.5).bonds, short.pathset(0.5).bonds)


@st.composite
def exponential_vol_models(draw):
    """Admissible exponential-volatility models: 1-2 curve factors, 1-2 tenors,
    nonnegative u vectors, no spread factor or an integrated drift."""
    d, m, n = (draw(st.integers(1, 2)) for _ in range(3))

    def vol():
        return ExponentialVolatility(
            scales=draw(st.lists(st.floats(0.0, 0.02), min_size=d, max_size=d)),
            decays=draw(st.lists(st.floats(0.0, 1.5), min_size=d, max_size=d)))

    u = draw(st.lists(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n),
                      min_size=m, max_size=m))
    return LevyHjmModel(
        driver=LevyTriplet(drift=np.zeros(d + n), covariance=np.diag([1.0] * d + [1e-4] * n)),
        n_curve_factors=d, ois_vol=vol(), spread_vols=[vol() for _ in range(m)],
        u_vectors=u, tenors=[T3M, T6M][:m], forward_curve=0.02,
        forward_spread_curves=[0.003 * (i + 1) for i in range(m)],
        spread_factor_mode=draw(st.sampled_from(["none", "integrated-drift"])))


@given(model=exponential_vol_models(), seed=st.integers(0, 2 ** 32))
def test_factor_engine_matches_grid_engine(model, seed):
    # the grid engine stores whole curves, so it checks the factor engine's recursion
    kw = dict(horizon=0.5, dt=1 / 8, n_paths=6, seed=seed, maturities=[0.5, 0.8, 1.25],
              observation_times=[0.25, 0.5])
    rg = simulate_hjm(model, method="grid", **kw)
    rf = simulate_hjm(model, method="factor", **kw)
    for t in (0.25, 0.5):
        pg, pf = rg.pathset(t), rf.pathset(t)
        np.testing.assert_allclose(pg.bonds, pf.bonds, atol=1e-12)
        np.testing.assert_allclose(pg.numeraire, pf.numeraire, atol=1e-12)
        for tenor in model.tenors:
            np.testing.assert_allclose(pg.spreads[tenor], pf.spreads[tenor], atol=1e-12)


def jump_driver_model():
    """Two curve factors, a spread factor with integrated drift, driver jumps."""
    trip = LevyTriplet(drift=[0.0, 0.0, 0.0], covariance=np.diag([1.0, 1.0, 0.04]),
                       jump_sizes=[[0.01, 0.0, 0.0]], jump_intensities=[4.0])
    return LevyHjmModel(
        driver=trip, n_curve_factors=2,
        ois_vol=ExponentialVolatility(scales=[0.01, 0.004], decays=[0.5, 0.0]),
        spread_vols=[ExponentialVolatility(scales=[0.012, 0.002], decays=[0.3, 1.2])],
        u_vectors=[[0.8]], tenors=[T6M],
        forward_curve=lambda T: 0.02 + 0.001 * T,
        forward_spread_curves=[lambda T: 0.003 + 0.0005 * np.sin(T)],
        spread_factor_mode="integrated-drift",
    )


def kernel_model():
    """Kernel mode; spread levels near a 1:2 ratio keep the atoms small and
    the intensity high enough for a few jumps per run, and static spread
    curves keep the kernel solves few."""
    return make_model(ois_scale=0.01, spread_scales=(0.0, 0.0), u=[[0.5], [1.0]],
                      tenors=[T3M, T6M], spreads=(0.01, 0.0202), cov_extra=(0.0,),
                      mode="kernel")



@pytest.mark.parametrize("kernel", [False, True])
def test_batches_are_logged(kernel, caplog):
    model = kernel_model() if kernel else jump_driver_model()
    with caplog.at_level(logging.DEBUG, logger="multicurve.hjm"):
        simulate_hjm(model, horizon=0.5, dt=1 / 8, n_paths=5, seed=3, maturities=[1.0],
                     batch_size=2)
    batches = [r.getMessage() for r in caplog.records
               if r.name == "multicurve.hjm" and "batch" in r.getMessage()]
    assert len(batches) == 3
    for message in batches:
        assert re.fullmatch(r"hjm batch: paths=\d+ steps=\d+ driver_jumps=\d+ kernel_jumps=\d+ "
                            r"refilled_paths=\d+ live_paths=\d+ kernel_lookups=\d+ "
                            r"lp_solves=\d+ aborted=\d+ "
                            r"draw_s=[\d.]+ step_s=[\d.]+ snapshot_s=[\d.]+",
                            message)

_GAUSSIAN = make_model(ois_scale=0.01, spread_scales=(0.004,), u=[[1.0]], tenors=[T6M],
                       spreads=(0.005,), cov_extra=(0.04,), mode="integrated-drift")
_JUMPS = jump_driver_model()
# (model, method): the factor and grid engines, driver jumps, kernel mode
BATCH_CASES = {
    "factor": (_GAUSSIAN, "factor"),
    "grid": (_GAUSSIAN, "grid"),
    "jumps-factor": (_JUMPS, "factor"),
    "jumps-grid": (_JUMPS, "grid"),
    "kernel": (kernel_model(), "auto"),
}


@pytest.mark.parametrize("name", sorted(BATCH_CASES))
@settings(max_examples=10)
@given(n_paths=st.integers(2, 10), batch_size=st.integers(1, 9), seed=st.integers(0, 2 ** 32))
def test_simulate_hjm_independent_of_batch_size(name, n_paths, batch_size, seed):
    model, method = BATCH_CASES[name]
    kw = dict(horizon=1.0, dt=1 / 8, n_paths=n_paths, seed=seed, maturities=[1.25, 2.0],
              observation_times=[0.5, 1.0], method=method)
    whole = simulate_hjm(model, batch_size=n_paths, **kw)
    split = simulate_hjm(model, batch_size=batch_size, **kw)
    assert whole.diagnostics["aborted"] == split.diagnostics["aborted"]
    assert np.array_equal(whole.diagnostics["consistency_series"],
                          split.diagnostics["consistency_series"])
    for t in (0.5, 1.0):
        a, b = whole.pathset(t), split.pathset(t)
        assert np.array_equal(a.maturities, b.maturities)
        assert np.array_equal(a.numeraire, b.numeraire)
        assert np.array_equal(a.bonds, b.bonds)
        for tenor in model.tenors:
            assert np.array_equal(a.spreads[tenor], b.spreads[tenor])


def test_consistency_series_skips_only_overflowing_paths():
    # a rare driver jump of 1e308 sends one path's short ends to +inf; the
    # step's residual is still the largest one over the paths that stay finite
    model = LevyHjmModel(
        driver=LevyTriplet(drift=[0.0, 0.0], covariance=np.diag([1e-4, 1e-4]),
                           jump_sizes=[[1e308, 0.0]], jump_intensities=[0.002]),
        n_curve_factors=1, ois_vol=ExponentialVolatility.flat(10.0),
        spread_vols=[ExponentialVolatility.flat(10.0)], u_vectors=np.array([[1.0]]),
        tenors=[T6M], forward_curve=0.02, forward_spread_curves=[0.005],
        spread_factor_mode="integrated-drift")
    kw = dict(horizon=0.5, dt=1 / 20, n_paths=2000, seed=3, maturities=[1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        whole = simulate_hjm(model, batch_size=2000, **kw)
        split = simulate_hjm(model, batch_size=500, **kw)
    assert whole.diagnostics["aborted"] == split.diagnostics["aborted"] == 1
    series = whole.diagnostics["consistency_series"]
    assert np.all(series > 0.0)
    assert np.array_equal(series, split.diagnostics["consistency_series"])


def test_pinned_simulate_hjm_factor():
    # two batches (3 + 2 paths) observed at two times; one curve factor with an
    # integrated spread drift, then two curve factors with driver jumps
    kw = dict(horizon=0.5, dt=1 / 8, n_paths=5, seed=41, maturities=[0.5, 1.0],
              observation_times=[0.25, 0.5], method="factor", batch_size=3)
    res = simulate_hjm(_GAUSSIAN, **kw)
    early, late = res.pathset(0.25), res.pathset(0.5)
    assert early.numeraire.tolist() == [
        1.0050871133695396, 1.004216803981928, 1.0047644220712721,
        1.0045079546462996, 1.0051648197449556]
    assert early.spreads[T6M][:, 1].tolist() == [
        0.9897132282282454, 0.9953869546990762, 1.0700309700736041,
        1.0547523202242035, 1.0816924421093432]
    assert late.numeraire.tolist() == [
        1.0097557037762876, 1.0085609260092918, 1.0097964387794989,
        1.00972746287084, 1.0117548479645784]
    assert late.spreads[T6M][:, 1].tolist() == [
        0.9964338431046847, 1.0065800436478376, 0.9388336837390392,
        0.9363048059121118, 1.0698851545620351]
    assert res.diagnostics["consistency_max"] == 0.002642868225481914

    # the driver jumps read stream-0 rows from column 4 (rng.JumpRows)
    res = simulate_hjm(_JUMPS, **kw)
    early, late = res.pathset(0.25), res.pathset(0.5)
    assert early.numeraire.tolist() == [
        1.0053277791348842, 1.004188730641406, 1.0050020506934498,
        1.0046720069370687, 1.004972421635811]
    assert early.spreads[T6M][:, 1].tolist() == [
        0.9746585622511847, 1.1041546142275405, 0.9523167311235496,
        1.0530624970781552, 1.1271536247309981]
    assert late.numeraire.tolist() == [
        1.009147833093721, 1.0080228091078, 1.0103959719990891,
        1.0093869182700062, 1.0112052496914063]
    assert late.spreads[T6M][:, 1].tolist() == [
        0.9541904076481902, 1.0981392120206004, 0.8737851508021677,
        0.9646683682582965, 1.1933215397007881]
    assert res.diagnostics["consistency_max"] == 0.008308241176214669


def discrete_gaussian_bond_mean(sigma, f0, t, tau, dt):
    """Exact mean of the scheme's discounted bond for flat vol and flat forwards.

    Plain-loop evaluation of the scheme definition: drift alpha(x) = sigma^2 x
    accumulated in rectangles, bond integrals by trapezoid, bank by left
    endpoints, noise coefficients summed per increment.  The discounted bond
    is lognormal, so its mean is exp(mean + var/2) exactly.
    """
    L = round(t / dt)
    alpha = lambda x: sigma * sigma * x

    def drift_sum(l, x):
        return dt * math.fsum(alpha(x + r * dt) for r in range(1, l + 1))

    mean = -f0 * (t + tau)
    mean -= dt * math.fsum(drift_sum(l, 0.0) for l in range(L))
    n_cells = round(tau / dt)
    grid = [drift_sum(L, j * dt) for j in range(n_cells + 1)]
    mean -= dt * (0.5 * grid[0] + math.fsum(grid[1:-1]) + 0.5 * grid[-1])
    var = dt * math.fsum((sigma * ((L - 1 - r) * dt + tau)) ** 2 for r in range(L))
    return math.exp(mean + 0.5 * var)


@pytest.mark.parametrize("method", ["factor", "grid"])
@pytest.mark.parametrize("jumps", [None, ([[0.02], [-0.015]], [6.0, 4.0])],
                         ids=["gaussian", "driver-jumps"])
def test_one_factor_bonds_share_one_state_on_every_path(method, jumps):
    # with one curve factor and volatility sigma e^(-kappa tau), every path has
    # ln P(t, T) = a(t, T) - sigma B(T - t) U_t, B(tau) = (1 - e^(-kappa tau)) / kappa,
    # so ln P(t, T2) - B(tau2) / B(tau1) ln P(t, T1) has no U term
    sigma, kappa = 0.01, 0.8
    model = make_model(ois_scale=sigma, forward=lambda T: 0.02 + 0.002 * T, jumps=jumps)
    model.ois_vol = ExponentialVolatility([sigma], [kappa])

    def B(tau):
        return -math.expm1(-kappa * tau) / kappa

    def relative_spread(dt, maturities):
        """Cross-path spread of the combination over that of ln P(t, T1), at t = 1."""
        res = simulate_hjm(model, 1.0, dt, 1000, 7, maturities, method=method)
        log_bonds = np.log(res.pathset(1.0).bonds)
        ratio = B(maturities[1] - 1.0) / B(maturities[0] - 1.0)
        return np.std(log_bonds[:, 1] - ratio * log_bonds[:, 0]) / np.std(log_bonds[:, 0])

    # on grid maturities the trapezoid of e^(-kappa x) is proportional to B, so
    # only rounding is left
    assert relative_spread(1 / 8, [1.5, 3.0]) < 1e-12
    # off the grid the partial cells leave a spread that halves with dt
    spreads = [relative_spread(dt, [1.3, 2.7]) for dt in (1 / 8, 1 / 16, 1 / 32)]
    assert spreads[0] < 1e-3
    assert min(math.log2(spreads[i] / spreads[i + 1]) for i in range(2)) >= 0.9


class TestMartingaleProperty:
    def test_ho_lee_discounted_bond(self):
        model = make_model(ois_scale=0.01)
        res = simulate_hjm(model, horizon=1.0, dt=1 / 52, n_paths=20000, seed=3,
                           maturities=[2.0])
        ps = res.pathset(1.0)
        disc = ps.bonds[:, 0] / ps.numeraire
        target = math.exp(-0.02 * 2.0)
        se = disc.std(ddof=1) / math.sqrt(len(disc))
        assert abs(disc.mean() - target) <= 3 * se

    def test_jump_driver_discounted_bond(self):
        # jump compensation flows through the gradient term of the drift
        model = make_model(ois_scale=0.01, jumps=([[0.02], [-0.015]], [6.0, 4.0]))
        res = simulate_hjm(model, horizon=1.0, dt=1 / 52, n_paths=20000, seed=8,
                           maturities=[2.0])
        ps = res.pathset(1.0)
        disc = ps.bonds[:, 0] / ps.numeraire
        target = math.exp(-0.02 * 2.0)
        se = disc.std(ddof=1) / math.sqrt(len(disc))
        assert abs(disc.mean() - target) <= 3 * se

    def test_spread_weighted_bond(self):
        model = make_model(spread_scales=(0.03,), u=[[1.0]], tenors=[T6M],
                           spreads=(0.005,), cov_extra=(1e-4,), mode="integrated-drift")
        res = simulate_hjm(model, horizon=1.0, dt=1 / 52, n_paths=20000, seed=12,
                           maturities=[2.0])
        ps = res.pathset(1.0)
        prod = ps.spreads[T6M][:, 0] * ps.bonds[:, 0] / ps.numeraire
        target = math.exp(0.005 * 2.0) * math.exp(-0.02 * 2.0)
        se = prod.std(ddof=1) / math.sqrt(len(prod))
        assert abs(prod.mean() - target) <= 3 * se

    def test_scheme_mean_matches_exact_formula_at_high_vol(self):
        sigma, dt = 0.3, 1 / 8
        model = make_model(ois_scale=sigma)
        res = simulate_hjm(model, horizon=1.0, dt=dt, n_paths=40000, seed=21,
                           maturities=[2.0])
        ps = res.pathset(1.0)
        disc = ps.bonds[:, 0] / ps.numeraire
        se = disc.std(ddof=1) / math.sqrt(len(disc))
        exact = discrete_gaussian_bond_mean(sigma, 0.02, 1.0, 1.0, dt)
        # the simulated mean tracks the exact discrete-scheme value ...
        assert abs(disc.mean() - exact) <= 3 * se
        # ... which at this vol and step is visibly biased off the continuum value
        assert abs(disc.mean() - math.exp(-0.02 * 2.0)) >= 5 * se

    def test_scheme_bias_shrinks_linearly(self):
        target = math.exp(-0.02 * 2.0)
        biases = [
            abs(discrete_gaussian_bond_mean(0.3, 0.02, 1.0, 1.0, dt) - target)
            for dt in (1 / 8, 1 / 16, 1 / 32)
        ]
        orders = [math.log2(biases[i] / biases[i + 1]) for i in range(2)]
        assert min(orders) >= 0.9

    def test_zero_drift_negative_control(self):
        sigma = 0.06
        model = make_model(ois_scale=sigma)
        res = simulate_hjm(model, horizon=1.0, dt=1 / 52, n_paths=20000, seed=3,
                           maturities=[2.0], zero_drift=True)
        ps = res.pathset(1.0)
        disc = ps.bonds[:, 0] / ps.numeraire
        se = disc.std(ddof=1) / math.sqrt(len(disc))
        target = math.exp(-0.02 * 2.0)
        assert abs(disc.mean() - target) >= 5 * se
        # without drift the discounted bond is lognormal around target * exp(var/2)
        var = sigma**2 * (1 / 52) * math.fsum(
            ((51 - r) / 52 + 1.0) ** 2 for r in range(52)
        )
        predicted = target * math.exp(0.5 * var)
        assert abs(disc.mean() - predicted) <= 3 * se


class TestConsistency:
    def test_constant_gap_reported(self):
        model = make_model(ois_scale=0.0, spread_scales=(0.0,), u=[[1.0]], tenors=[T6M],
                           spreads=(0.007,), cov_extra=(0.0,), mode="none")
        res = simulate_hjm(model, horizon=1.0, dt=1 / 12, n_paths=2, seed=1,
                           maturities=[2.0])
        assert consistency_residual(res) == pytest.approx(0.007, rel=1e-14)

    def test_integrated_drift_static_targets(self):
        model = make_model(ois_scale=0.0, spread_scales=(0.0,), u=[[1.0]], tenors=[T6M],
                           spreads=(0.007,), cov_extra=(0.0,), mode="integrated-drift")
        res = simulate_hjm(model, horizon=1.0, dt=1 / 12, n_paths=2, seed=1,
                           maturities=[2.0])
        assert consistency_residual(res) <= 1e-12

    def test_kernel_static_targets(self):
        model = make_model(ois_scale=0.0, spread_scales=(0.0, 0.0), u=[[0.5], [1.0]],
                           tenors=[T3M, T6M], spreads=(0.004, 0.012), cov_extra=(0.0,),
                           mode="kernel")
        res = simulate_hjm(model, horizon=1.0, dt=1 / 12, n_paths=16, seed=2,
                           maturities=[2.0])
        assert consistency_residual(res) <= 1e-8

    def test_residual_order_in_dt(self):
        # sloped initial spread curve: the held selection lags the moving
        # short end by one step, so the residual is proportional to dt
        resids = []
        for dt in (1 / 8, 1 / 16, 1 / 32):
            model = make_model(ois_scale=0.0, spread_scales=(0.0,), u=[[1.0]],
                               tenors=[T6M], spreads=(lambda T: 0.004 + 0.002 * T,),
                               cov_extra=(0.0,), mode="integrated-drift")
            res = simulate_hjm(model, horizon=1.0, dt=dt, n_paths=2, seed=1,
                               maturities=[2.0])
            resids.append(consistency_residual(res))
        orders = [math.log2(resids[i] / resids[i + 1]) for i in range(2)]
        assert min(orders) >= 0.9


class TestOrderingAndFloor:
    def test_spreads_ordered_and_floored(self):
        model = make_model(
            ois_scale=0.01,
            spread_scales=(0.0, 0.0, 0.0),
            u=[[0.5], [1.0], [2.0]],
            tenors=[T3M, T6M, T1Y],
            spreads=(0.002, 0.005, 0.02),
            cov_extra=(0.0,),
            mode="kernel",
        )
        res = simulate_hjm(model, horizon=1.0, dt=1 / 26, n_paths=300, seed=14,
                           maturities=[1.0, 1.5, 2.0, 3.0],
                           observation_times=[0.5, 1.0])
        for t in (0.5, 1.0):
            ps = res.pathset(t)
            s1, s2, s3 = (ps.spreads[k] for k in (T3M, T6M, T1Y))
            assert np.all(s1 >= 1.0)
            assert np.all(s2 >= s1)
            assert np.all(s3 >= s2)


@st.composite
def kernel_mode_models(draw):
    """Kernel-mode models with two or three tenors, ordered u in [0.5, 1.5],
    and static spread curves whose levels a kernel of two or three positive
    atoms matches, so that a matching kernel exists."""
    m, k = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    # spaced u and atoms keep the LP rows apart
    u = draw(st.floats(0.5, 1.0)) + np.cumsum(
        [0.0] + draw(st.lists(st.floats(0.1, 0.25), min_size=m - 1, max_size=m - 1)))
    atoms = draw(st.floats(0.02, 0.2)) + np.cumsum(
        [0.0] + draw(st.lists(st.floats(0.05, 0.2), min_size=k - 1, max_size=k - 1)))
    weights = np.array(draw(st.lists(st.floats(0.02, 1.0), min_size=k, max_size=k)))
    model = make_model(ois_scale=0.01, spread_scales=(0.0,) * m, u=u[:, None],
                       tenors=[T3M, T6M, T1Y][:m], cov_extra=(0.0,), mode="kernel",
                       spreads=[float(weights @ np.expm1(ui * atoms)) for ui in u])
    model.kernel_objective = "min-g-extra-mass"
    return model


@settings(max_examples=20)
@given(model=kernel_mode_models(), n_paths=st.integers(30, 60), seed=st.integers(0, 2 ** 32))
def test_kernel_mode_spreads_above_one_ordered_by_tenor(model, n_paths, seed):
    res = simulate_hjm(model, horizon=1.0, dt=1 / 8, n_paths=n_paths, seed=seed,
                       maturities=[1.0, 1.5, 2.0], observation_times=[0.5, 1.0])
    for t in (0.5, 1.0):
        spreads = [res.pathset(t).spreads[tenor] for tenor in model.tenors]
        assert np.all(spreads[0] >= 1.0)
        for low, high in zip(spreads, spreads[1:]):
            assert np.all(high >= low)


class TestStateDependentVolatility:
    @staticmethod
    def _proportional():
        return StateDependentVolatility(
            func=lambda theta, tau: (0.05 * np.abs(theta))[None, :],
            n_components=1, growth_bound=0.05,
        )

    def test_grid_simulation_runs(self):
        model = make_model(ois_scale=0.01)
        model.ois_vol = self._proportional()
        res = simulate_hjm(model, horizon=0.5, dt=1 / 8, n_paths=6, seed=2,
                           maturities=[1.0, 2.0])
        ps = res.pathset(0.5)
        assert res.diagnostics["method"] == "grid"
        assert np.all(np.isfinite(ps.bonds)) and np.all(ps.bonds > 0)

    def test_factor_engine_refuses(self):
        model = make_model(ois_scale=0.01)
        model.ois_vol = self._proportional()
        with pytest.raises(ValueError, match="factor engine"):
            simulate_hjm(model, horizon=0.5, dt=1 / 8, n_paths=2, seed=2,
                         maturities=[1.0], method="factor")

    def test_growth_bound_enforced(self):
        bad = StateDependentVolatility(
            func=lambda theta, tau: np.full((1, len(tau)), 10.0),
            n_components=1, growth_bound=1e-4,
        )
        model = make_model(ois_scale=0.01)
        model.ois_vol = bad
        with pytest.raises(ValueError, match="growth bound"):
            simulate_hjm(model, horizon=0.25, dt=1 / 8, n_paths=2, seed=2,
                         maturities=[1.0])


def two_factor_jump_model():
    """Two correlated curve factors with driver jumps, two tenors on one
    spread factor with an integrated drift, and unequal exponential vols."""
    trip = LevyTriplet(drift=[0.001, -0.002, 0.0],
                       covariance=[[1.0, 0.3, 0.0], [0.3, 0.8, 0.0], [0.0, 0.0, 0.04]],
                       jump_sizes=[[0.02, -0.01, 0.05], [-0.015, 0.01, 0.0]],
                       jump_intensities=[3.0, 2.0])
    return LevyHjmModel(
        driver=trip, n_curve_factors=2,
        ois_vol=ExponentialVolatility(scales=[0.008, 0.005], decays=[0.3, 1.2]),
        spread_vols=[ExponentialVolatility(scales=[0.004, 0.002], decays=[0.5, 0.0]),
                     ExponentialVolatility(scales=[0.006, 0.001], decays=[0.1, 2.0])],
        u_vectors=[[1.0], [1.5]], tenors=[T3M, T6M],
        forward_curve=lambda T: 0.02 + 0.001 * T,
        forward_spread_curves=[0.003, lambda T: 0.005 + 0.0005 * np.sin(T)],
        spread_factor_mode="integrated-drift")


def state_dependent_model():
    """``two_factor_jump_model`` with curve-reading vols on the discount curve
    and the 6M spread curve; the 3M spread curve keeps its exponential vol."""
    model = two_factor_jump_model()
    ois, spread = model.ois_vol, model.spread_vols[1]
    model.ois_vol = StateDependentVolatility(
        func=lambda theta, tau: ois.values(tau).T * (1.0 + 2.0 * np.abs(theta)),
        n_components=2, growth_bound=0.02)
    model.spread_vols[1] = StateDependentVolatility(
        func=lambda theta, tau: spread.values(tau).T + 0.01 * np.abs(theta),
        n_components=2, growth_bound=0.02)
    return model


def curve_blind(model):
    """``model`` with every vol wrapped as a StateDependentVolatility that
    ignores the curve and returns the same exponential loadings."""
    def wrap(vol):
        return StateDependentVolatility(func=lambda theta, tau: vol.values(tau).T,
                                        n_components=vol.n_components,
                                        growth_bound=float(vol.scales.max()))

    model.ois_vol = wrap(model.ois_vol)
    model.spread_vols = [wrap(vol) for vol in model.spread_vols]
    return model


def test_pinned_drifts_and_state_dependent_grid():
    model = two_factor_jump_model()
    tau = np.array([0.0, 0.35, 2.0])
    assert ois_drift(model, tau).tolist() == [
        -0.00018800000000000002, -0.00015523331174959823, -6.97667392955998e-05]
    assert ois_drift(model, 1.1) == -0.00010757278415922343
    assert spread_drift(model, 0, tau).tolist() == [
        -9.230933554359641e-05, -4.902433393513108e-05, 3.339122675009794e-05]
    assert spread_drift(model, 1, 1.1) == -0.0001154840799333268
    assert spread_drift_adjustment(model, 0, tau).tolist() == [
        9.569066445640361e-05, 0.00010620897781446716, 0.00010315796604569774]
    assert spread_drift_adjustment(model, 1, tau).tolist() == [
        1.4000000000000001e-05, 5.82384209277385e-06, -2.503849432816047e-05]
    assert spread_drift_adjustment(model, 1, 1.1) == -7.911295774103373e-06
    assert _precompute_alpha_rows(model, 0.3 * np.arange(4)).tolist() == [
        [-0.00018800000000000002, -0.00015931859737627636, -0.00013690191199571325,
         -0.00011837312475240533],
        [-9.230933554359641e-05, -5.4291329229636215e-05, -2.6359121930719274e-05,
         -5.717070133858112e-06],
        [-0.000174, -0.00015248357916172528, -0.00013578417411570166,
         -0.00012264613504932732]]

    # two batches (2 + 1 paths) of the grid engine with curve-reading vols
    res = simulate_hjm(state_dependent_model(), horizon=0.5, dt=1 / 8, n_paths=3, seed=7,
                       maturities=[0.75, 1.5], observation_times=[0.25, 0.5], batch_size=2)
    early, late = res.pathset(0.25), res.pathset(0.5)
    assert early.bonds[:, 1].tolist() == [
        0.9628562307689214, 0.9758057885302843, 0.9727259093345955]
    assert early.spreads[T3M][:, 0].tolist() == [
        1.1048716376056442, 1.002249645505147, 1.2864501609984305]
    assert late.bonds.tolist() == [
        [0.9883429184210866, 0.9580678592452623], [0.9953944521155352, 0.9806486189683387],
        [0.9934475017107036, 0.974746149385583]]
    assert late.numeraire.tolist() == [
        1.014815307298788, 1.009900521904384, 1.0105453862927993]
    assert late.spreads[T3M].tolist() == [
        [1.2457502934537994, 1.2587892234719795], [1.1372586346643672, 1.1389333164967457],
        [1.358459122657559, 1.364041278980929]]
    assert late.spreads[T6M].tolist() == [
        [1.3896571990697177, 1.410718144800672], [1.213382759884461, 1.2181401681319812],
        [1.5831649935558372, 1.5928083040470982]]
    assert res.diagnostics["consistency_series"].tolist() == [
        0.009496163654972054, 0.012563613890845395, 0.012565012421085094,
        0.012359313726397658]


def test_closed_form_drifts_require_exponential_vols_only_on_the_curves_they_read():
    model = state_dependent_model()
    for drift in (lambda: ois_drift(model, 0.5), lambda: spread_drift(model, 0, 0.5),
                  lambda: spread_drift_adjustment(model, 0, 0.5)):
        with pytest.raises(TypeError, match="exponential volatility"):
            drift()
    # with an exponential discount vol only the 6M curve still reads the state
    model.ois_vol = two_factor_jump_model().ois_vol
    tau = np.array([0.0, 0.35, 2.0])
    for drift in (ois_drift, lambda m, t: spread_drift(m, 0, t),
                  lambda m, t: spread_drift_adjustment(m, 0, t)):
        assert np.array_equal(drift(model, tau), drift(two_factor_jump_model(), tau))
    for drift in (spread_drift, spread_drift_adjustment):
        with pytest.raises(TypeError, match="exponential volatility"):
            drift(model, 1, 0.5)


def test_state_dependent_drift_is_second_order_close_to_the_closed_form():
    # curve-blind loadings give the grid engine the exponential model's noise
    # on the same draws, but a drift from running trapezoids of the loadings
    # where the exponential model's comes from closed-form integrals: the
    # pathwise gap is the trapezoids' O(dt^2) error
    gaps = []
    for dt in (1 / 8, 1 / 16, 1 / 32):
        kw = dict(horizon=0.5, dt=dt, n_paths=4, seed=5, maturities=[1.0, 2.0], method="grid")
        exact = simulate_hjm(two_factor_jump_model(), **kw).pathset(0.5)
        blind = simulate_hjm(curve_blind(two_factor_jump_model()), **kw).pathset(0.5)
        pairs = [(blind.bonds, exact.bonds),
                 *((blind.spreads[t], exact.spreads[t]) for t in (T3M, T6M))]
        gaps.append(max(np.max(np.abs(np.log(b / a))) for b, a in pairs))
        assert gaps[-1] <= 2e-6 * dt**2
    assert all(math.log2(gaps[k] / gaps[k + 1]) >= 1.8 for k in range(2))


class TestGuards:
    def test_observation_off_step_grid(self):
        model = make_model()
        with pytest.raises(GridMismatch):
            simulate_hjm(model, horizon=1.0, dt=1 / 12, n_paths=2, seed=1,
                         maturities=[2.0], observation_times=[0.51, 1.0])

    def test_fractional_horizon(self):
        model = make_model()
        with pytest.raises(GridMismatch):
            simulate_hjm(model, horizon=1.03, dt=1 / 12, n_paths=2, seed=1,
                         maturities=[2.0])

    def test_nan_driver_aborts(self):
        model = make_model()
        # the constructor rejects a NaN drift, so set it afterwards
        bad = LevyTriplet(drift=[0.0], covariance=[[1.0]])
        object.__setattr__(bad, "drift", np.array([np.nan]))
        model.driver = bad
        with pytest.raises(SimulationAborted):
            simulate_hjm(model, horizon=0.5, dt=1 / 4, n_paths=4, seed=1,
                         maturities=[1.0])

    def test_maturities_before_observation_dropped(self):
        model = make_model()
        res = simulate_hjm(model, horizon=0.5, dt=1 / 8, n_paths=2, seed=1,
                           maturities=[0.25, 1.0])
        np.testing.assert_array_equal(res.pathset(0.5).maturities, [1.0])

    def test_model_validation(self):
        trip = LevyTriplet(drift=[0.0, 0.0], covariance=np.eye(2))
        with pytest.raises(ValueError, match="u_vectors"):
            LevyHjmModel(driver=trip, n_curve_factors=1,
                         ois_vol=ExponentialVolatility.flat(0.01),
                         spread_vols=[ExponentialVolatility.flat(0.01)],
                         u_vectors=np.zeros((2, 1)), tenors=[T6M],
                         forward_curve=0.02, forward_spread_curves=[0.005])
        with pytest.raises(ValueError, match="kernel mode"):
            LevyHjmModel(driver=LevyTriplet(drift=np.zeros(3), covariance=np.eye(3)),
                         n_curve_factors=1,
                         ois_vol=ExponentialVolatility.flat(0.01),
                         spread_vols=[ExponentialVolatility.flat(0.01)],
                         u_vectors=[[1.0, 0.0]], tenors=[T6M],
                         forward_curve=0.02, forward_spread_curves=[0.005],
                         spread_factor_mode="kernel")

    def test_unknown_kernel_objective_rejected(self):
        with pytest.raises(ValueError, match="kernel_objective"):
            LevyHjmModel(driver=LevyTriplet(drift=np.zeros(2), covariance=np.eye(2)),
                         n_curve_factors=1,
                         ois_vol=ExponentialVolatility.flat(0.01),
                         spread_vols=[ExponentialVolatility.flat(0.01)],
                         u_vectors=[[1.0]], tenors=[T6M],
                         forward_curve=0.02, forward_spread_curves=[0.005],
                         spread_factor_mode="kernel", kernel_objective="max-fun")
