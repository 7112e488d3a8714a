import contextlib
import copy
import logging
import math
import re
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import multicurve as mc
from multicurve import affine as affine_module
from multicurve.affine import (
    AffineJumps,
    AffineModelSpec,
    DampingOutOfDomain,
    QuadratureNonConvergence,
    RiccatiExplosion,
    _caplet_contour_prices,
    _diffusion_factor,
    _gaussian_terminal_law,
    _terminal_exponents,
    affine_bond,
    affine_spread,
    caplet_price_fourier,
    shifted_curves,
    simulate_affine,
)
from multicurve.hjm import ExponentialVolatility, LevyHjmModel, LevyTriplet, simulate_hjm
from multicurve.momentkernel import KernelFamily, simulate_yperp
from multicurve.products import EmptyPathSet, caplet_price_mc, fra_value
from multicurve.termstructure import DiscountCurve, SpreadTermStructure, Tenor

T3M = Tenor.parse("3M")
T6M = Tenor.parse("6M")

VAS_KAPPA, VAS_THETA, VAS_SIGMA, VAS_X0 = 0.5, 0.03, 0.01, 0.02
CIR_KAPPA, CIR_THETA, CIR_SIGMA, CIR_X0 = 0.8, 0.04, 0.25, 0.03


def vasicek_bond(T, kappa=VAS_KAPPA, theta=VAS_THETA, sigma=VAS_SIGMA, x0=VAS_X0):
    C = (1.0 - math.exp(-kappa * T)) / kappa
    A = (theta - sigma ** 2 / (2 * kappa ** 2)) * (C - T) - sigma ** 2 * C ** 2 / (4 * kappa)
    return math.exp(A - C * x0)


def cir_bond(T, kappa=CIR_KAPPA, theta=CIR_THETA, sigma=CIR_SIGMA, x0=CIR_X0):
    gamma = math.sqrt(kappa ** 2 + 2 * sigma ** 2)
    den = (gamma + kappa) * (math.expm1(gamma * T)) + 2 * gamma
    C = 2 * math.expm1(gamma * T) / den
    A = (2 * gamma * math.exp((gamma + kappa) * T / 2) / den) ** (2 * kappa * theta / sigma ** 2)
    return A * math.exp(-C * x0)


@pytest.fixture(scope="module")
def vasicek_spec():
    """Gaussian short rate plus one diffusive spread factor."""
    return AffineModelSpec(
        pos_dims=0,
        real_dims=1,
        drift_const=[VAS_KAPPA * VAS_THETA],
        drift_linear=[[-VAS_KAPPA]],
        diffusion_const=[[VAS_SIGMA ** 2]],
        rate_const=0.0,
        rate_linear=[1.0],
        n_spread=1,
        u_vectors=[[1.0]],
        tenors=(T6M,),
        y_mode="diffusive",
        y_drift_const=[0.001],
        y_drift_linear=[[0.1]],
        y_diff_const=[[0.008 ** 2]],
        x0=[VAS_X0],
        y0=[0.004],
    )


@pytest.fixture(scope="module")
def cir_spec():
    return AffineModelSpec(
        pos_dims=1,
        real_dims=0,
        drift_const=[CIR_KAPPA * CIR_THETA],
        drift_linear=[[-CIR_KAPPA]],
        diffusion_const=[[0.0]],
        diffusion_linear=[[[CIR_SIGMA ** 2]]],
        rate_const=0.0,
        rate_linear=[1.0],
        x0=[CIR_X0],
    )


@pytest.fixture(scope="module")
def integrated_spec():
    """Square-root driver feeding two ordered exposure vectors through one
    integrated (hence nonnegative, nondecreasing) spread factor."""
    return AffineModelSpec(
        pos_dims=1,
        real_dims=0,
        drift_const=[CIR_KAPPA * CIR_THETA],
        drift_linear=[[-CIR_KAPPA]],
        diffusion_const=[[0.0]],
        diffusion_linear=[[[CIR_SIGMA ** 2]]],
        rate_const=0.0,
        rate_linear=[1.0],
        n_spread=1,
        u_vectors=[[0.4], [1.1]],
        tenors=(T3M, T6M),
        y_mode="integrated",
        y_drift_const=[0.0],
        y_drift_linear=[[0.12]],
        x0=[CIR_X0],
        y0=[0.002],
    )


def gaussian_caplet_closed_form(T, strike, delta=0.5):
    """Exact caplet price for the vasicek_spec fixture.

    The short rate is an OU process, the spread factor collects a constant
    plus a multiple of the integrated rate driver plus independent Brownian
    noise, so the discount weight and the payoff log are jointly Gaussian
    with moments available from the OU covariance triangle.
    """
    kap, th, sig, x0 = VAS_KAPPA, VAS_THETA, VAS_SIGMA, VAS_X0
    q0, q1, sig_y, y0 = 0.001, 0.1, 0.008, 0.004
    Cd = (1 - math.exp(-kap * delta)) / kap
    phi_b = ((th - sig ** 2 / (2 * kap ** 2)) * (Cd - delta)
             - sig ** 2 * Cd ** 2 / (4 * kap))
    psi_b = -Cd
    C = (1 - math.exp(-kap * T)) / kap
    C2 = (1 - math.exp(-2 * kap * T)) / (2 * kap)
    m_x = th + (x0 - th) * math.exp(-kap * T)
    m_a = th * T + (x0 - th) * C
    v_x = sig ** 2 * C2
    v_a = sig ** 2 / kap ** 2 * (T - 2 * C + C2)
    c_xa = sig ** 2 / kap * (C - C2)
    mu_w = -m_a + phi_b + psi_b * m_x
    var_w = v_a + psi_b ** 2 * v_x - 2 * psi_b * c_xa
    mu_l = y0 + q0 * T + q1 * m_a - phi_b - psi_b * m_x
    var_l = (q1 ** 2 * v_a + sig_y ** 2 * T + psi_b ** 2 * v_x
             - 2 * q1 * psi_b * c_xa)
    c_wl = -q1 * v_a + psi_b * c_xa + q1 * psi_b * c_xa - psi_b ** 2 * v_x
    kbar = 1 + delta * strike
    s_l = math.sqrt(var_l)
    d2 = (mu_l + c_wl - math.log(kbar)) / s_l
    return math.exp(mu_w + var_w / 2) * (
        math.exp(mu_l + c_wl + var_l / 2) * norm.cdf(d2 + s_l)
        - kbar * norm.cdf(d2)
    )


def one_row(spec, v, u, w, T):
    """(phi, psi) at horizon T of the one argument (v, u, w)."""
    phi, psi = _terminal_exponents(spec, [v], [u], w, T)
    return phi[0], psi[0]


def transform(spec, v, u, w, T):
    """E[exp(<v, X_T> + u.Y_T + w Z_T)] at the spec's initial state."""
    phi, psi = one_row(spec, v, u, w, T)
    return complex(np.exp(phi + psi @ spec.x0 + np.asarray(u) @ spec.y0))


def spread_rows(spec, horizon):
    """(phi, psi) at the horizon of the (0, u_i, 1) arguments, the bond's
    (u = 0) first."""
    U = np.vstack([np.zeros((1, spec.n_spread)), spec.u_vectors])
    return _terminal_exponents(spec, np.zeros((len(U), spec.dim)), U, 1.0, horizon)


class TestRiccati:
    def test_zero_argument_stays_zero(self, cir_spec):
        phi, psi = one_row(cir_spec, [0.0], [], 0.0, 3.0)
        assert phi == 0.0
        assert np.max(np.abs(psi)) == 0.0

    @pytest.mark.parametrize("T", [0.25, 1.0, 5.0, 10.0])
    def test_gaussian_short_rate_bond(self, vasicek_spec, T):
        price = affine_bond(vasicek_spec, [VAS_X0], T)
        assert price == pytest.approx(vasicek_bond(T), abs=1e-8)

    @pytest.mark.parametrize("T", [0.25, 1.0, 5.0, 10.0])
    def test_square_root_short_rate_bond(self, cir_spec, T):
        price = affine_bond(cir_spec, [CIR_X0], T)
        assert price == pytest.approx(cir_bond(T), abs=1e-8)

    def test_gaussian_bond_slope_closed_form(self, vasicek_spec):
        T = 4.0
        _, psi = one_row(vasicek_spec, [0.0], [0.0], 1.0, T)
        expected = -(1 - math.exp(-VAS_KAPPA * T)) / VAS_KAPPA
        assert psi[0].real == pytest.approx(expected, abs=1e-10)
        assert abs(psi[0].imag) < 1e-14

    def test_flow_property(self, cir_spec):
        T, s = 3.0, 1.2
        full_phi, full_psi = one_row(cir_spec, [-0.3], [], 1.0, T)
        head_phi, head_psi = one_row(cir_spec, [-0.3], [], 1.0, s)
        # the head's psi is the tail's initial argument
        tail_phi, tail_psi = one_row(cir_spec, head_psi, [], 1.0, T - s)
        assert complex(head_phi + tail_phi) == pytest.approx(complex(full_phi), abs=1e-8)
        assert tail_psi[0] == pytest.approx(full_psi[0], abs=1e-8)

    def test_explosion_reports_blow_up_time(self):
        spec = AffineModelSpec(
            pos_dims=1, real_dims=0,
            drift_const=[0.02], drift_linear=[[-0.1]],
            diffusion_const=[[0.0]], diffusion_linear=[[[1.0]]],
            rate_const=0.0, rate_linear=[0.0],
            x0=[0.05],
        )
        # quadratic growth dominates: explosion for v above 2 kappa / sigma^2
        with pytest.raises(RiccatiExplosion) as err:
            one_row(spec, [3.0], [], 0.0, 10.0)
        assert 0.0 < err.value.blow_up_time <= 10.0

    def test_horizon_must_be_nonnegative(self, cir_spec):
        with pytest.raises(ValueError, match="^horizon must be finite and nonnegative"):
            one_row(cir_spec, [0.0], [], 0.0, -0.5)
        # at horizon 0 the exponents are the initial condition (0, V)
        phi, psi = _terminal_exponents(cir_spec, [[-0.3], [0.7]], [[], []], 1.0, [0.0, 0.0])
        assert phi.tolist() == [0.0, 0.0]
        assert psi.tolist() == [[-0.3], [0.7]]

    def test_solver_work_is_logged(self, cir_spec, caplog):
        with caplog.at_level(logging.DEBUG, logger="multicurve.affine"):
            affine_bond(cir_spec, [CIR_X0], np.array([1.0, 5.0]))
        records = [r for r in caplog.records if r.name == "multicurve.affine"]
        assert len(records) == 1
        assert re.fullmatch(r"riccati solve: rows=\d+ accepted_steps=\d+ rejected_steps=\d+",
                            records[0].getMessage())


# ---------------------------------------------------------------------------
# Riccati properties: closed forms and row independence


@given(kappa=st.floats(0.05, 2.0), theta=st.floats(-0.02, 0.08),
       sigma=st.floats(0.001, 0.05), x0=st.floats(-0.05, 0.1), T=st.floats(0.01, 10.0))
def test_gaussian_bond_matches_closed_form(kappa, theta, sigma, x0, T):
    spec = AffineModelSpec(
        pos_dims=0, real_dims=1, drift_const=[kappa * theta], drift_linear=[[-kappa]],
        diffusion_const=[[sigma ** 2]], rate_const=0.0, rate_linear=[1.0], x0=[x0])
    assert abs(affine_bond(spec, [x0], T) - vasicek_bond(T, kappa, theta, sigma, x0)) <= 1e-8


@given(kappa=st.floats(0.05, 2.0), theta=st.floats(0.001, 0.1),
       sigma=st.floats(0.01, 0.5), x0=st.floats(0.0, 0.15), T=st.floats(0.01, 10.0))
def test_square_root_bond_matches_closed_form(kappa, theta, sigma, x0, T):
    spec = AffineModelSpec(
        pos_dims=1, real_dims=0, drift_const=[kappa * theta], drift_linear=[[-kappa]],
        diffusion_const=[[0.0]], diffusion_linear=[[[sigma ** 2]]],
        rate_const=0.0, rate_linear=[1.0], x0=[x0])
    assert abs(affine_bond(spec, [x0], T) - cir_bond(T, kappa, theta, sigma, x0)) <= 1e-8


def y_jump_spec():
    """Gaussian short rate whose jumps move only the spread factor."""
    return AffineModelSpec(
        pos_dims=0, real_dims=1, drift_const=[0.015], drift_linear=[[-0.5]],
        diffusion_const=[[1.4e-4]], rate_const=0.0, rate_linear=[1.0], n_spread=1,
        u_vectors=[[1.0]], tenors=(T6M,), y_mode="diffusive",
        y_drift_const=[0.001], y_diff_const=[[4e-4]], x0=[0.02], y0=[0.004],
        jumps=AffineJumps(atoms_x=[[0.0], [0.0]], probabilities=[0.5, 0.5],
                          intensity_const=1.5, atoms_y=[[0.001], [0.0015]]))


def test_spread_with_y_jumps_independent_of_batch_size():
    # the compensator of the Y jumps enters every row, solved alone or not
    spec = y_jump_spec()
    one_row = affine_spread(spec, spec.x0, spec.y0, np.array([1.0]), 0)[0]
    nine_rows = affine_spread(spec, spec.x0, spec.y0, np.full(9, 1.0), 0)
    assert np.all(nine_rows == one_row)
    # Y, independent of X, moves by a constant drift, noise and jumps only
    jump_mean = 1.5 * (0.5 * math.exp(0.001) + 0.5 * math.exp(0.0015) - 1.0)
    assert math.log(one_row) == pytest.approx(
        0.004 + 0.001 + 0.5 * 4e-4 + jump_mean, rel=1e-9)


ROW_SPECS = {
    "y_jumps": y_jump_spec(),
    "gauss2": AffineModelSpec(
        pos_dims=0, real_dims=2, drift_const=[0.012, 0.0],
        drift_linear=[[-0.4, 0.0], [0.1, -1.25]],
        diffusion_const=[[1e-4, -2.8e-5], [-2.8e-5, 6.4e-5]], rate_const=0.0,
        rate_linear=[1.0, 1.0], n_spread=1, u_vectors=[[1.0]], tenors=(T6M,),
        y_mode="diffusive", y_drift_const=[0.001], y_drift_linear=[[0.15, 0.05]],
        y_diff_const=[[4e-4]], x0=[0.02, 0.001], y0=[0.004]),
    "cir_jumps": AffineModelSpec(
        pos_dims=1, real_dims=1, drift_const=[0.032, 0.0],
        drift_linear=[[-0.8, 0.0], [0.2, -0.5]],
        diffusion_const=[[0.0, 0.0], [0.0, 1e-4]],
        diffusion_linear=[[[0.05, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        rate_const=0.0, rate_linear=[1.0, 1.0], n_spread=1, u_vectors=[[1.0]],
        tenors=(T6M,), y_mode="diffusive", y_drift_const=[0.001],
        y_drift_linear=[[0.1, 0.0]], y_diff_const=[[1e-4]], y_diff_linear=[
            [[2.5e-3]], [[0.0]]],
        jumps=AffineJumps(atoms_x=[[0.01, 0.002], [0.0, -0.004]], probabilities=[0.3, 0.7],
                          intensity_const=0.5, intensity_linear=[4.0, 0.0],
                          atoms_y=[[0.002], [0.0]]),
        x0=[0.03, 0.0], y0=[0.004]),
}


def riccati_rows(spec, kinds, vs, horizons):
    """(V, U, horizon) rows: discount bonds, spread bonds, or damped contour
    nodes z = 1.75 + i v of the caplet transform."""
    psi_b = _terminal_exponents(spec, np.zeros((1, spec.dim)), np.zeros((1, 1)),
                                1.0, 0.5)[1][0].real
    V, U = [], []
    for kind, v in zip(kinds, vs):
        z = {"bond": 0.0, "spread": 1.0, "contour": 1.75 + 1j * v}[kind]
        V.append((1.0 - z) * psi_b if kind == "contour" else np.zeros(spec.dim))
        U.append(z * spec.u_vectors[0])
    return np.array(V, dtype=complex), np.array(U, dtype=complex), np.asarray(horizons)


row_kinds = st.sampled_from(["bond", "spread", "contour"])


@given(name=st.sampled_from(sorted(ROW_SPECS)),
       kinds=st.lists(row_kinds, min_size=2, max_size=10),
       data=st.data())
def test_row_exponents_independent_of_their_batch(name, kinds, data):
    spec = ROW_SPECS[name]
    n = len(kinds)
    vs = data.draw(st.lists(st.floats(0.0, 300.0), min_size=n, max_size=n))
    horizons = data.draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n))
    V, U, T = riccati_rows(spec, kinds, vs, horizons)
    phi, psi = _terminal_exponents(spec, V, U, 1.0, T)
    for k in range(n):
        phi_k, psi_k = _terminal_exponents(spec, V[k:k + 1], U[k:k + 1], 1.0, T[k])
        assert np.array_equal(phi[k:k + 1], phi_k)
        assert np.array_equal(psi[k:k + 1], psi_k)


# ---------------------------------------------------------------------------
# the exact terminal law of jump-free Gaussian models


def ou_triangle(kappa, theta, sigma, x0, T):
    """Means, variances and covariance of X_T and A_T = integral of X for an
    OU driver dX = kappa (theta - X) dt + sigma dW, as gaussian_caplet_closed_form
    uses them: (m_x, m_a, v_x, v_a, c_xa)."""
    C = (1 - math.exp(-kappa * T)) / kappa
    C2 = (1 - math.exp(-2 * kappa * T)) / (2 * kappa)
    return (theta + (x0 - theta) * math.exp(-kappa * T), theta * T + (x0 - theta) * C,
            sigma ** 2 * C2, sigma ** 2 / kappa ** 2 * (T - 2 * C + C2),
            sigma ** 2 / kappa * (C - C2))


def small(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def gaussian_specs(draw):
    """Admissible jump-free specs without positive factors: d 1-2 OU factors
    (stable, upper-triangular drift), n 0-2 spread factors in either mode."""
    d, n = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    mode = draw(st.sampled_from(["integrated", "diffusive"]))

    def vec(k, lo, hi):
        return [draw(small(lo, hi)) for _ in range(k)]

    def psd(k, scale):
        lower = np.tril(np.array(vec(k * k, -scale, scale)).reshape(k, k))
        lower[np.diag_indices(k)] = vec(k, 0.2 * scale, scale)
        return lower @ lower.T

    drift_linear = -np.diag(vec(d, 0.1, 1.5))
    if d == 2:
        drift_linear[0, 1] = draw(small(-0.3, 0.3))
    n_tenors = draw(st.integers(1, 2)) if n else 0
    return AffineModelSpec(
        pos_dims=0, real_dims=d, drift_const=vec(d, -0.02, 0.05),
        drift_linear=drift_linear, diffusion_const=psd(d, 0.02),
        rate_const=draw(small(-0.01, 0.02)), rate_linear=vec(d, 0.3, 1.2), n_spread=n,
        u_vectors=np.array(vec(n_tenors * n, 0.2, 1.5)).reshape(n_tenors, n),
        tenors=(T3M, T6M)[:n_tenors], y_mode=mode, y_drift_const=vec(n, -0.002, 0.004),
        y_drift_linear=np.array(vec(n * d, -0.2, 0.3)).reshape(n, d),
        y_diff_const=psd(n, 0.02) if mode == "diffusive" and n else None,
        x0=vec(d, -0.01, 0.04), y0=vec(n, -0.01, 0.01))


horizons = st.sampled_from([0.25, 1.0, 3.0])


def terminal_moments(spec, T):
    transition, shift, noise = _gaussian_terminal_law(spec, T)
    return transition @ np.concatenate([spec.x0, spec.y0, [0.0]]) + shift, noise @ noise.T


@given(spec=gaussian_specs(), T=horizons, tau=st.sampled_from([0.5, 1.0]), data=st.data())
def test_exact_law_prices_bonds_and_spreads(spec, T, tau, data):
    mean, cov = terminal_moments(spec, T)
    assert math.exp(mean[-1] + cov[-1, -1] / 2) == pytest.approx(
        affine_bond(spec, spec.x0, T), rel=1e-10)
    # E[exp(Z_T) P(T, M) S_i(T, M)] is Gaussian in the state: the exponent at
    # tau = M - T with Y loading u_i is linear in (X, Y, Z)
    i = data.draw(st.integers(0, spec.n_tenors - 1)) if spec.n_tenors else None
    u = spec.u_vectors[i] if spec.n_tenors else np.zeros(spec.n_spread)
    phi, psi = _terminal_exponents(spec, np.zeros((1, spec.dim)), u[None, :], 1.0, tau)
    w = np.concatenate([psi[0].real, u, [1.0]])
    gaussian = math.exp(phi[0].real + w @ mean + w @ cov @ w / 2)
    want = affine_bond(spec, spec.x0, T + tau)
    if i is not None:
        want *= affine_spread(spec, spec.x0, spec.y0, T + tau, i)
    assert gaussian == pytest.approx(want, rel=1e-10)


@given(spec=gaussian_specs().filter(lambda spec: spec.dim == 1), T=horizons)
def test_exact_law_matches_the_ou_triangle(spec, T):
    # the one-factor law behind gaussian_caplet_closed_form, with Y = y0 + q0 T
    # + q1 A_T + noise and Z = -(r0 T + r1 A_T)
    kappa, sigma = -spec.drift_linear[0, 0], math.sqrt(spec.diffusion_const[0, 0])
    m_x, m_a, v_x, v_a, c_xa = ou_triangle(kappa, spec.drift_const[0] / kappa, sigma,
                                          spec.x0[0], T)
    q0, q1, r1 = spec.y_drift_const, spec.y_drift_linear[:, 0], spec.rate_linear[0]
    want_mean = np.concatenate([[m_x], spec.y0 + q0 * T + q1 * m_a,
                                [-(spec.rate_const * T + r1 * m_a)]])
    loadings = np.concatenate([[0.0], q1, [-r1]])     # on A_T
    want_cov = np.outer(loadings, loadings) * v_a
    want_cov[0, 0] = v_x
    want_cov[0, 1:] = want_cov[1:, 0] = loadings[1:] * c_xa
    want_cov[1:-1, 1:-1] += spec.y_diff_const * T
    mean, cov = terminal_moments(spec, T)
    np.testing.assert_allclose(mean, want_mean, rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(cov, want_cov, rtol=1e-8, atol=1e-10 * np.diag(want_cov).max())


@settings(max_examples=30)
@given(spec=gaussian_specs(), T=horizons, n_paths=st.integers(1, 10),
       batch_size=st.integers(1, 10), seed=st.integers(0, 2 ** 64 - 1))
def test_exact_draw_independent_of_batch_size_and_dt(spec, T, n_paths, batch_size, seed):
    whole = simulate_affine(spec, T, T / 4, n_paths, seed, [T, T + 0.5])
    split = simulate_affine(spec, T, T, n_paths, seed, [T, T + 0.5], batch_size=batch_size)
    assert np.array_equal(whole.numeraire, split.numeraire)
    assert np.array_equal(whole.bonds, split.bonds)
    for tenor in spec.tenors:
        assert np.array_equal(whole.spreads[tenor], split.spreads[tenor])


def with_null_jump(spec):
    """The spec with a jump of intensity 0 added: the same model, whose
    exponents come from the Riccati ODE instead of the Gaussian law."""
    ode = copy.deepcopy(spec)
    ode.jumps = AffineJumps(atoms_x=[[0.0] * spec.dim], probabilities=[1.0],
                            intensity_const=0.0)
    ode.__post_init__()
    return ode


complex_parts = small(-4.0, 4.0)


@settings(max_examples=30)
@given(spec=gaussian_specs(), data=st.data())
def test_law_exponents_match_the_riccati_ode(spec, data):
    # complex (V, U, w) rows at mixed horizons, long ones included: the law
    # splits a horizon whose drift span passes one Van Loan exponential
    rows = data.draw(st.integers(1, 4))
    parts = data.draw(st.lists(complex_parts, min_size=2 * rows * (spec.dim + spec.n_spread),
                               max_size=2 * rows * (spec.dim + spec.n_spread)))
    flat = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
    V, U = flat[:rows * spec.dim].reshape(rows, spec.dim), \
        flat[rows * spec.dim:].reshape(rows, spec.n_spread)
    w = complex(data.draw(small(-1.0, 2.0)), data.draw(small(-1.0, 1.0)))
    T = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.0, 40.0]),
                                    min_size=rows, max_size=rows)))
    phi, psi = _terminal_exponents(spec, V, U, w, T)
    want_phi, want_psi = _terminal_exponents(with_null_jump(spec), V, U, w, T, tol=1e-12)
    np.testing.assert_allclose(phi, want_phi, rtol=0, atol=1e-9)
    np.testing.assert_allclose(psi, want_psi, rtol=0, atol=1e-9)


def test_law_exponents_are_logged(caplog):
    spec = ROW_SPECS["gauss2"]
    with caplog.at_level(logging.DEBUG, logger="multicurve.affine"):
        _terminal_exponents(spec, np.zeros((3, 2)), np.zeros((3, 1)), 1.0, [0.5, 1.0, 0.5])
    records = [r.getMessage() for r in caplog.records if r.name == "multicurve.affine"]
    assert len(records) == 1
    assert re.fullmatch(r"gaussian law exponents: rows=\d+ horizons=\d+", records[0])


def test_law_explosion_reports_the_horizon():
    # the law gives no crossing time, so the row's horizon stands in for it
    with pytest.raises(RiccatiExplosion) as err:
        _terminal_exponents(ROW_SPECS["gauss2"], [[0.0, 0.0], [2e12, 0.0]], [[0.0], [0.0]],
                            1.0, [0.5, 2.0])
    assert err.value.blow_up_time == 2.0


@pytest.mark.parametrize("name", ["gauss2", "cir_jumps"])
@pytest.mark.parametrize("horizon", [math.nan, math.inf, -math.inf])
def test_non_finite_horizon_rejected(name, horizon):
    spec = ROW_SPECS[name]
    with pytest.raises(ValueError, match="horizon must be finite"):
        affine_bond(spec, spec.x0, horizon)
    with pytest.raises(ValueError, match="horizon must be finite"):
        _terminal_exponents(spec, np.zeros((2, spec.dim)), np.zeros((2, 1)), 1.0,
                            [0.5, horizon])


# ---------------------------------------------------------------------------
# the stepped affine loop: bit-identical shortcuts and the ordering result

# every special double, and any other, as a 1x1 diffusion argument
edge_doubles = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1.0, math.inf, -math.inf,
                     math.nan]),
    st.floats(allow_nan=True, allow_infinity=True))


def eigh_factor(mats):
    """The eigh formula of _diffusion_factor for any matrix size."""
    w, vecs = np.linalg.eigh(mats)
    return vecs * np.sqrt(np.clip(w, 0.0, None))[:, None, :]


@given(const=edge_doubles, loading=edge_doubles,
       x=st.lists(edge_doubles, min_size=1, max_size=12), pos_dims=st.sampled_from([0, 1]))
def test_one_by_one_diffusion_factor_is_the_eigh_factor_bit_for_bit(const, loading, x,
                                                                    pos_dims):
    x_block = np.array(x)[:, None]
    mats = np.full((len(x), 1, 1), const)
    with np.errstate(over="ignore", invalid="ignore"):
        if pos_dims:
            mats += np.clip(x_block, 0.0, None)[:, :, None] * loading
        got = _diffusion_factor(np.array([[const]]), np.array([[[loading]]]), pos_dims,
                                x_block)
        want = eigh_factor(mats)
    assert got.tobytes() == want.tobytes()


@given(n=st.integers(1, 3), rows=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_shared_factor_product_is_the_broadcast_product_bit_for_bit(n, rows, seed):
    rng = np.random.default_rng(seed)
    factor, noise = rng.normal(size=(n, n)), rng.normal(size=(rows, n))
    # the spread-factor product of simulate_affine's step loop, on a fixed
    # factor and on a batch of them
    want = np.einsum("bij,bj->bi", np.broadcast_to(factor, (rows, n, n)), noise)
    assert np.einsum("...ij,...j->...i", factor, noise).tobytes() == want.tobytes()
    factors = rng.normal(size=(rows, n, n))
    want = np.einsum("bij,bj->bi", factors, noise)
    assert np.einsum("...ij,...j->...i", factors, noise).tobytes() == want.tobytes()


@st.composite
def ordered_integrated_specs(draw):
    """Admissible integrated-mode specs under the ordering conditions: d 1-2
    independent CIR factors with Feller ratio 2 kappa theta / sigma^2 of at
    least 4 (so Euler paths keep off zero), n 1-2 spread factors whose drift
    loads a nonnegative constant and the factors with nonnegative weights,
    y0 >= 0, and two tenors with loadings 0 <= u_3M <= u_6M componentwise."""
    d, n = draw(st.integers(1, 2)), draw(st.integers(1, 2))

    def vec(k, lo, hi):
        return np.array([draw(small(lo, hi)) for _ in range(k)])

    kappa, theta = vec(d, 0.3, 1.5), vec(d, 0.01, 0.06)
    diffusion_linear = np.zeros((d, d, d))
    diffusion_linear[np.arange(d), np.arange(d), np.arange(d)] = (
        kappa * theta * vec(d, 0.05, 0.5))
    u_low = vec(n, 0.0, 1.5)
    return AffineModelSpec(
        pos_dims=d, real_dims=0, drift_const=kappa * theta, drift_linear=-np.diag(kappa),
        diffusion_const=np.zeros((d, d)), diffusion_linear=diffusion_linear,
        rate_const=draw(small(0.0, 0.01)), rate_linear=vec(d, 0.3, 1.2), n_spread=n,
        u_vectors=[u_low, u_low + vec(n, 0.0, 1.0)], tenors=(T3M, T6M),
        y_mode="integrated", y_drift_const=vec(n, 0.0, 0.004),
        y_drift_linear=vec(n * d, 0.0, 0.3).reshape(n, d),
        x0=vec(d, 0.005, 0.06), y0=vec(n, 0.0, 0.01))


@settings(max_examples=25)
@given(spec=ordered_integrated_specs(), horizon=st.sampled_from([0.5, 1.0]),
       seed=st.integers(0, 2 ** 64 - 1))
def test_ordered_specs_give_spreads_above_one_ordered_by_tenor(spec, horizon, seed):
    paths = simulate_affine(spec, horizon, 1 / 50, 64, seed, [horizon + 0.5, horizon + 1.0])
    low, high = paths.spreads[T3M], paths.spreads[T6M]
    assert np.all(low >= 1.0 - 1e-12)
    assert np.all(high >= low - 1e-12)


class TestTransform:
    def test_unit_at_zero_argument(self, vasicek_spec):
        val = transform(vasicek_spec, [0.0], [0.0], 0.0, 2.0)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_characteristic_function_bounded(self, vasicek_spec):
        for omega in (0.3, 2.0, 15.0):
            val = transform(vasicek_spec, [1j * omega], [0.0], 0.0, 1.5)
            assert abs(val) <= 1.0 + 1e-12

    def test_discount_weight_equals_bond(self, cir_spec):
        T = 3.0
        val = transform(cir_spec, [0.0], [], 1.0, T)
        assert val.real == pytest.approx(affine_bond(cir_spec, [CIR_X0], T), rel=1e-12)
        assert abs(val.imag) < 1e-14

    def test_exponent_domain_check(self, integrated_spec):
        phi, psi = spread_rows(integrated_spec, 2.0)
        assert np.all(np.isfinite(phi)) and np.all(np.isfinite(psi))
        hot = AffineModelSpec(
            pos_dims=1, real_dims=0,
            drift_const=[0.0], drift_linear=[[-2.0]],
            diffusion_const=[[0.0]], diffusion_linear=[[[1.0]]],
            rate_const=0.02, rate_linear=[0.0],
            n_spread=1, u_vectors=[[4.0]], tenors=(T6M,),
            y_mode="integrated", y_drift_linear=[[1.0]],
            x0=[0.04], y0=[0.0],
        )
        with pytest.raises(RiccatiExplosion):
            spread_rows(hot, 5.0)


class TestCurves:
    def test_zero_maturity_values(self, integrated_spec):
        assert affine_bond(integrated_spec, [0.07], 0.0) == pytest.approx(1.0, abs=1e-14)
        y = [0.013]
        spot = affine_spread(integrated_spec, [0.07], y, 0.0, i=1)
        assert spot == pytest.approx(math.exp(1.1 * 0.013), rel=1e-12)

    def test_zero_exposure_spread_is_flat_one(self):
        spec = AffineModelSpec(
            pos_dims=0, real_dims=1,
            drift_const=[0.0], drift_linear=[[-0.3]],
            diffusion_const=[[0.02 ** 2]],
            rate_const=0.0, rate_linear=[1.0],
            n_spread=1, u_vectors=[[0.0]], tenors=(T6M,),
            y_mode="diffusive", y_diff_const=[[0.01 ** 2]],
            x0=[0.02], y0=[0.5],
        )
        taus = np.array([0.0, 0.5, 2.0, 7.0])
        vals = affine_spread(spec, [0.02], [0.5], taus, i=0)
        np.testing.assert_allclose(vals, 1.0, atol=1e-10)

    def test_deterministic_rate_discounts_exactly(self):
        spec = AffineModelSpec(
            pos_dims=0, real_dims=1,
            drift_const=[0.0], drift_linear=[[0.0]],
            diffusion_const=[[0.0]],
            rate_const=0.0, rate_linear=[1.0],
            x0=[0.03],
        )
        for T in (0.5, 2.0, 9.0):
            assert affine_bond(spec, [0.03], T) == pytest.approx(
                math.exp(-0.03 * T), rel=1e-12)

    def test_spread_against_simulation(self, integrated_spec):
        T = 1.0
        paths = simulate_affine(integrated_spec, T, 1 / 200, 50_000, 31, [T])
        target = (affine_spread(integrated_spec, [CIR_X0], [0.002], T, i=1)
                  * affine_bond(integrated_spec, [CIR_X0], T))
        sample = paths.spread(T6M, T) / paths.numeraire
        se = sample.std(ddof=1) / math.sqrt(len(sample))
        assert abs(sample.mean() - target) <= 3.0 * se


class TestShiftedCurves:
    @pytest.fixture()
    def market(self):
        times = np.array([0.25, 0.5, 1.0, 2.0, 3.0, 5.0])
        disc = DiscountCurve(times, np.exp(-0.025 * times))
        spread = SpreadTermStructure(T6M, times, np.exp(0.004 * times))
        return disc, {T6M: spread}

    def test_anchors_market_at_time_zero(self, vasicek_spec, market):
        disc, spreads = market
        for T in (0.5, 2.0, 5.0):
            shifted = shifted_curves(
                vasicek_spec, disc, spreads,
                x=[VAS_X0], y=[0.004], t=0.0, T=T, tenor=T6M,
            )
            assert shifted.bond == pytest.approx(disc.discount(T), rel=1e-14)
            assert shifted.spread == pytest.approx(
                spreads[T6M].spread(T), rel=1e-14)

    def test_model_generated_market_is_noop(self, vasicek_spec):
        t, T = 0.75, 2.25
        x, y = [0.027], [0.009]
        times = np.array([t, T])
        disc = DiscountCurve(times, affine_bond(vasicek_spec, vasicek_spec.x0, times))
        spread0 = affine_spread(vasicek_spec, vasicek_spec.x0, vasicek_spec.y0, times, i=0)
        spreads = {T6M: SpreadTermStructure(T6M, times, spread0)}
        shifted = shifted_curves(vasicek_spec, disc, spreads, x, y, t, T, tenor=T6M)
        assert shifted.bond == pytest.approx(
            affine_bond(vasicek_spec, x, T - t), rel=1e-12)
        assert shifted.spread == pytest.approx(
            affine_spread(vasicek_spec, x, y, T - t, i=0), rel=1e-12)

    def test_flat_market_deterministic_model(self, market):
        spec = AffineModelSpec(
            pos_dims=0, real_dims=1,
            drift_const=[0.0], drift_linear=[[0.0]],
            diffusion_const=[[0.0]],
            rate_const=0.0, rate_linear=[1.0],
            x0=[0.07],
        )
        disc, _ = market
        shifted = shifted_curves(spec, disc, {}, x=[0.07], y=[], t=1.0, T=3.0)
        # the deterministic model curve cancels, leaving the market forward
        assert shifted.bond == pytest.approx(math.exp(-0.025 * 2.0), rel=1e-12)
        assert shifted.spread is None

    def test_maturity_before_observation_rejected(self, vasicek_spec, market):
        disc, spreads = market
        with pytest.raises(ValueError, match="precede"):
            shifted_curves(vasicek_spec, disc, spreads, [0.02], [0.004], 2.0, 1.0)


class TestSimulation:
    def test_zero_noise_follows_the_flow(self):
        spec = AffineModelSpec(
            pos_dims=0, real_dims=1,
            drift_const=[VAS_KAPPA * VAS_THETA], drift_linear=[[-VAS_KAPPA]],
            diffusion_const=[[0.0]],
            rate_const=0.0, rate_linear=[1.0],
            x0=[VAS_X0],
        )
        T = 2.0
        paths = simulate_affine(spec, T, 1 / 200, 8, 5, [T, T + 1.0])
        C = (1 - math.exp(-VAS_KAPPA * T)) / VAS_KAPPA
        integral = VAS_THETA * T + (VAS_X0 - VAS_THETA) * C
        np.testing.assert_allclose(paths.numeraire, math.exp(integral), rtol=1e-8)
        x_T = VAS_THETA + (VAS_X0 - VAS_THETA) * math.exp(-VAS_KAPPA * T)
        np.testing.assert_allclose(
            paths.bond(T + 1.0), affine_bond(spec, [x_T], 1.0), rtol=1e-8)

    def test_discount_factor_mean(self, vasicek_spec):
        T = 1.5
        paths = simulate_affine(vasicek_spec, T, 1 / 250, 30_000, 17, [T])
        sample = 1.0 / paths.numeraire
        se = sample.std(ddof=1) / math.sqrt(len(sample))
        assert abs(sample.mean() - affine_bond(vasicek_spec, [VAS_X0], T)) <= 3 * se

    def test_jump_overlay_matches_transform(self):
        spec = AffineModelSpec(
            pos_dims=0, real_dims=1,
            drift_const=[0.5 * 0.03], drift_linear=[[-0.5]],
            diffusion_const=[[0.01 ** 2]],
            rate_const=0.0, rate_linear=[1.0],
            jumps=AffineJumps(
                atoms_x=[[0.01], [-0.008]],
                probabilities=[0.6, 0.4],
                intensity_const=3.0,
            ),
            x0=[0.02],
        )
        T = 1.0
        paths = simulate_affine(spec, T, 1 / 250, 30_000, 23, [T])
        sample = 1.0 / paths.numeraire
        se = sample.std(ddof=1) / math.sqrt(len(sample))
        assert abs(sample.mean() - affine_bond(spec, [0.02], T)) <= 3 * se

    def test_spread_ordering_under_cone_dynamics(self, integrated_spec):
        paths = simulate_affine(integrated_spec, 1.0, 1 / 100, 2_000, 3, [1.0, 1.5])
        low = paths.spreads[T3M]
        high = paths.spreads[T6M]
        assert np.all(low >= 1.0 - 1e-12)
        assert np.all(high >= low - 1e-12)

    def test_degenerate_grids_rejected(self, vasicek_spec):
        with pytest.raises(ValueError, match="dt exceeds"):
            simulate_affine(vasicek_spec, 0.5, 1.0, 10, 1, [0.5])
        with pytest.raises(ValueError, match="at or beyond"):
            simulate_affine(vasicek_spec, 1.0, 0.1, 10, 1, [0.5])

    @pytest.mark.parametrize("jumps", [False, True])
    def test_batches_are_logged(self, vasicek_spec, jumps, caplog):
        spec = vasicek_spec
        if jumps:
            spec = copy.deepcopy(vasicek_spec)
            spec.jumps = AffineJumps(atoms_x=[[0.01], [-0.008]], probabilities=[0.6, 0.4],
                                     intensity_const=3.0)
            spec.__post_init__()
        with caplog.at_level(logging.DEBUG, logger="multicurve.affine"):
            simulate_affine(spec, 0.5, 0.1, 5, 3, [0.5], batch_size=2)
        batches = [r.getMessage() for r in caplog.records
                   if r.name == "multicurve.affine" and "batch" in r.getMessage()]
        assert len(batches) == 3
        for message in batches:
            assert re.fullmatch(r"affine batch: paths=\d+ steps=\d+ jumps=\d+ "
                                r"refilled_paths=\d+ live_paths=\d+ "
                                r"draw_s=[\d.]+ step_s=[\d.]+", message)

    def test_seed_reproducibility(self, vasicek_spec):
        a = simulate_affine(vasicek_spec, 0.5, 1 / 50, 64, 11, [0.5])
        b = simulate_affine(vasicek_spec, 0.5, 1 / 50, 64, 11, [0.5])
        np.testing.assert_array_equal(a.numeraire, b.numeraire)
        np.testing.assert_array_equal(a.bonds, b.bonds)


class TestCapletFourier:
    @pytest.mark.parametrize("T,strike", [(0.5, 0.02), (1.0, 0.035), (2.0, 0.05)])
    def test_matches_gaussian_closed_form(self, vasicek_spec, T, strike):
        price = caplet_price_fourier(vasicek_spec, T, T6M, strike)
        assert price == pytest.approx(gaussian_caplet_closed_form(T, strike), rel=1e-10)

    def test_matches_simulation(self, vasicek_spec):
        T, strike = 1.0, 0.03
        paths = simulate_affine(vasicek_spec, T, 1 / 200, 40_000, 29, [T, T + 0.5])
        mc, se = caplet_price_mc(paths, T6M, strike)
        price = caplet_price_fourier(vasicek_spec, T, T6M, strike)
        assert abs(price - mc) <= 3.0 * se

    def test_notional_scales_linearly(self, vasicek_spec):
        base = caplet_price_fourier(vasicek_spec, 1.0, T6M, 0.03)
        scaled = caplet_price_fourier(vasicek_spec, 1.0, T6M, 0.03, notional=2.5e6)
        assert scaled == pytest.approx(2.5e6 * base, rel=1e-12)

    def test_negative_cap_factor_is_a_forward(self, vasicek_spec):
        strike = -2.5
        price = caplet_price_fourier(vasicek_spec, 1.0, T6M, strike)
        times = np.array([1.0, 1.5])
        disc = DiscountCurve(times, affine_bond(vasicek_spec, vasicek_spec.x0, times))
        spread = SpreadTermStructure(
            T6M, times[:1],
            [affine_spread(vasicek_spec, vasicek_spec.x0, vasicek_spec.y0, 1.0, i=0)],
        )
        assert price == pytest.approx(
            fra_value(disc, spread, 1.0, strike), rel=1e-10)

    def test_deterministic_spec_positive_part(self):
        spec = AffineModelSpec(
            pos_dims=0, real_dims=1,
            drift_const=[0.0], drift_linear=[[0.0]],
            diffusion_const=[[0.0]],
            rate_const=0.0, rate_linear=[1.0],
            n_spread=1, u_vectors=[[1.0]], tenors=(T6M,),
            y_mode="integrated", y_drift_const=[0.006],
            x0=[0.03], y0=[0.002],
        )
        T, delta = 1.0, 0.5
        spot = math.exp(0.002 + 0.006 * T)
        intrinsic_low = (spot * math.exp(-0.03 * T)
                         - (1 + delta * 0.01) * math.exp(-0.03 * (T + delta)))
        assert caplet_price_fourier(spec, T, T6M, 0.01) == pytest.approx(
            intrinsic_low, rel=1e-12)
        assert caplet_price_fourier(spec, T, T6M, 0.20) == 0.0

    def test_damping_outside_moment_domain(self):
        spec = AffineModelSpec(
            pos_dims=1, real_dims=0,
            drift_const=[0.0], drift_linear=[[-2.0]],
            diffusion_const=[[0.0]], diffusion_linear=[[[1.0]]],
            rate_const=0.02, rate_linear=[0.0],
            n_spread=1, u_vectors=[[1.6]], tenors=(T6M,),
            y_mode="integrated", y_drift_linear=[[1.0]],
            x0=[0.04], y0=[0.0],
        )
        # the undamped exponent 1.6 is integrable over [0, 5] but the damped
        # contour pushes it past the square-root blow-up threshold
        phi, psi = spread_rows(spec, 5.0)
        assert np.all(np.isfinite(phi)) and np.all(np.isfinite(psi))
        with pytest.raises(DampingOutOfDomain):
            caplet_price_fourier(spec, 5.0, T6M, 0.02)

    def test_quadrature_budget_enforced(self, vasicek_spec, monkeypatch):
        monkeypatch.setattr("multicurve.affine._MAX_PANELS", 2)
        with pytest.raises(QuadratureNonConvergence):
            caplet_price_fourier(vasicek_spec, 1.0, T6M, 0.03)

    def test_unknown_tenor_rejected(self, vasicek_spec):
        with pytest.raises(ValueError, match="not part of the model"):
            caplet_price_fourier(vasicek_spec, 1.0, T3M, 0.03)

    @pytest.mark.parametrize("strike", [math.nan, math.inf, -math.inf])
    def test_non_finite_strike_rejected(self, strike):
        # before any transform: NaN used to march all 64 panels, -inf priced inf
        spec = ROW_SPECS["cir_jumps"]
        with pytest.raises(ValueError, match="fixed_rate must be finite"):
            caplet_price_fourier(spec, 1.0, T6M, strike)
        with pytest.raises(ValueError, match="^cap factors must be positive and finite"):
            _caplet_contour_prices(spec, 1.0, 0, [1.01, 1.0 + 0.5 * strike])


def marching_cir_spec():
    """CIR short rate with an integrated spread factor: its contour integrand
    decays slowly, so the contour marches tail panels well past its plan."""
    return AffineModelSpec(
        pos_dims=1, real_dims=0, drift_const=[0.8 * 0.04], drift_linear=[[-0.8]],
        diffusion_const=[[0.0]], diffusion_linear=[[[0.22 ** 2]]], rate_const=0.0,
        rate_linear=[1.0], n_spread=1, u_vectors=[[0.7]], tenors=(T6M,),
        y_mode="integrated", y_drift_linear=[[0.3]], x0=[0.03], y0=[0.001])


MARCH_KAPPAS = 1.0 + 0.5 * np.array([0.0, 0.02, 0.04, 0.08])


def test_marching_contour_prices_pinned():
    # stops at panel 27 of 38 solved: 7 planned, then tail groups of 1, 2, 4, 8, 16
    prices = _caplet_contour_prices(marching_cir_spec(), 0.5, 0, MARCH_KAPPAS,
                                    tail_tol=1e-11, tol=1e-8)
    assert [float(p).hex() for p in prices] == [
        "0x1.52b2d1beb4527p-6", "0x1.6f6abc9f6c1e8p-7",
        "0x1.334758ca52756p-8", "0x1.1222fb9243b11p-11"]


def test_march_solves_at_most_max_panels(monkeypatch):
    # the cap falls between the plan (7 panels) and the stop panel (27):
    # groups of 7, 1, 2 and then 2 of the 4 tail panels, never more
    rows = []
    solve = affine_module._terminal_exponents

    def counted(spec, V, *args, **kwargs):
        rows.append(len(V))
        return solve(spec, V, *args, **kwargs)

    monkeypatch.setattr(affine_module, "_terminal_exponents", counted)
    monkeypatch.setattr(affine_module, "_MAX_PANELS", 12)
    with pytest.raises(QuadratureNonConvergence):
        _caplet_contour_prices(marching_cir_spec(), 0.5, 0, MARCH_KAPPAS,
                               tail_tol=1e-11, tol=1e-8)
    assert sum(rows) <= 5 + 64 * 12


def test_contour_logs_its_panels(vasicek_spec, caplog):
    with caplog.at_level(logging.DEBUG, logger="multicurve.affine"):
        caplet_price_fourier(vasicek_spec, 1.0, T6M, 0.03)
        _caplet_contour_prices(marching_cir_spec(), 0.5, 0, MARCH_KAPPAS,
                               tail_tol=1e-11, tol=1e-8)
    records = [r.getMessage() for r in caplog.records
               if r.name == "multicurve.affine" and r.getMessage().startswith("caplet contour")]
    assert len(records) == 2
    for message, strikes in zip(records, (1, len(MARCH_KAPPAS))):
        match = re.fullmatch(r"caplet contour: strikes=(\d+) panels=(\d+) solved_panels=(\d+)",
                             message)
        assert match and int(match[1]) == strikes
        assert int(match[2]) <= int(match[3])


HJM_GUARD = dict(
    driver=LevyTriplet(drift=[0.0, 0.0], covariance=np.diag([1e-4, 1e-4])),
    n_curve_factors=1, ois_vol=ExponentialVolatility.flat(0.01),
    spread_vols=[ExponentialVolatility.flat(0.005)], u_vectors=np.array([[1.0]]),
    tenors=[T6M], forward_curve=0.02, forward_spread_curves=[0.005],
    spread_factor_mode="integrated-drift")


def hjm_guard_model():
    return LevyHjmModel(**HJM_GUARD)


SIMULATORS = {
    "gauss2": lambda **kw: simulate_affine(ROW_SPECS["gauss2"], **kw),
    "cir_jumps": lambda **kw: simulate_affine(ROW_SPECS["cir_jumps"], **kw),
    "hjm": lambda **kw: simulate_hjm(hjm_guard_model(), **kw),
    "yperp": lambda maturities, **kw: simulate_yperp(
        KernelFamily([0.5, 1.0], mass_cap=10.0), lambda t: [0.01, 0.03], **kw),
}


# each argument with one entry replaced by a non-finite value
NON_FINITE_ARGS = {
    "horizon": lambda value: value,
    "dt": lambda value: value,
    "n_paths": lambda value: value,
    "maturities": lambda value: [1.0, value],
    "observation_times": lambda value: [value, 0.5],
}

# the NON_FINITE_ARGS each simulator reads
READS = {
    "gauss2": ("horizon", "dt", "n_paths", "maturities"),
    "cir_jumps": ("horizon", "dt", "n_paths", "maturities"),
    "hjm": ("horizon", "dt", "n_paths", "maturities", "observation_times"),
    "yperp": ("horizon", "dt", "n_paths"),
}


def no_draws(monkeypatch, what):
    def no_draw(*args, **kwargs):
        raise AssertionError(f"drew before checking {what}")

    for draw in ("normal_rows", "driver_increment_block", "JumpRows"):
        monkeypatch.setattr(f"multicurve.rng.{draw}", no_draw)


@pytest.mark.parametrize("arg, name", [
    pytest.param(arg, name, id=f"{arg}-{name}") for arg in NON_FINITE_ARGS
    for name in sorted(SIMULATORS) if arg in READS[name]])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_horizon_or_dt_rejected(name, arg, value, monkeypatch):
    # horizon and dt must also be positive; the other arguments need only be
    # finite here, and every check runs before any draw
    no_draws(monkeypatch, arg)
    kw = dict(horizon=0.5, dt=0.125, n_paths=4, seed=1, maturities=[1.0])
    kw[arg] = NON_FINITE_ARGS[arg](value)
    expected = "positive and finite" if arg in ("horizon", "dt") else "finite"
    with pytest.raises(ValueError, match=f"^{arg} must be {expected}"):
        SIMULATORS[name](**kw)


@pytest.mark.parametrize("name", sorted(SIMULATORS))
@pytest.mark.parametrize("arg", ["horizon", "dt"])
@pytest.mark.parametrize("value", [0.0, -1.0])
def test_non_positive_horizon_or_dt_rejected(name, arg, value, monkeypatch):
    # unchecked, simulate_yperp divided by a zero dt and asked numpy for
    # negative dimensions at a negative horizon
    no_draws(monkeypatch, arg)
    kw = dict(horizon=0.5, dt=0.125, n_paths=4, seed=1, maturities=[1.0])
    kw[arg] = value
    with pytest.raises(ValueError, match=f"^{arg} must be positive and finite"):
        SIMULATORS[name](**kw)


@pytest.mark.parametrize("name", sorted(SIMULATORS))
@pytest.mark.parametrize("n_paths", [0, -3])
def test_empty_run_rejected_before_any_draw(name, n_paths, monkeypatch):
    no_draws(monkeypatch, "n_paths")
    with pytest.raises(EmptyPathSet, match="^n_paths must be at least 1"):
        SIMULATORS[name](horizon=0.5, dt=0.125, n_paths=n_paths, seed=1, maturities=[1.0])


@pytest.mark.parametrize("name", sorted(set(SIMULATORS) - {"yperp"}))
@pytest.mark.parametrize("batch_size", [0, -1])
def test_batch_size_below_one_rejected_before_any_draw(name, batch_size, monkeypatch):
    # rng.map_batches checks it for both simulators
    no_draws(monkeypatch, "batch_size")
    with pytest.raises(ValueError, match="^batch_size must be at least 1"):
        SIMULATORS[name](horizon=0.5, dt=0.125, n_paths=4, seed=1, maturities=[1.0],
                         batch_size=batch_size)


# ---------------------------------------------------------------------------
# every public entry point takes a bad number with a typed error


class CallHung(Exception):
    """A call ran past its alarm."""


@contextlib.contextmanager
def alarm(seconds):
    def hung(signum, frame):
        raise CallHung(f"no result after {seconds} s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# the module errors the entry points document beside ValueError and its subclasses
DOCUMENTED_ERRORS = (ValueError, mc.RiccatiExplosion, mc.RiccatiAccuracyError,
                     mc.QuadratureNonConvergence, mc.SimulationAborted, mc.KernelInfeasible,
                     mc.KernelResidualError, mc.NoSolution, mc.MaturityNotCovered)

DISC = DiscountCurve([0.5, 1.0, 2.0], [0.99, 0.98, 0.955], allow_extrapolation=True)
SPREAD_3M = SpreadTermStructure(T3M, [0.5, 1.0, 2.0], [1.0005, 1.001, 1.002],
                                allow_extrapolation=True)
SPREAD_6M = SpreadTermStructure(T6M, [0.5, 1.0, 2.0], [1.001, 1.002, 1.004],
                                allow_extrapolation=True)
PATHS = dict(time=0.5, maturities=[0.5, 1.0, 1.5], numeraire=[1.01, 1.02],
             bonds=[[1.0, 0.99, 0.98], [1.0, 0.985, 0.97]],
             spreads={T6M: np.array([[1.001, 1.002, 1.003], [1.0015, 1.0025, 1.0035]])})
SIM_ARGS = dict(horizon=0.5, dt=0.125, n_paths=4, seed=1, maturities=[1.0])
TARGETS = dict(u=[0.5, 1.0], p=[0.01, 0.03], mass_cap=10.0, floor=0.0)
SCHEDULE = dict(schedule=[0.5, 1.0, 1.5])
G2_STATE = dict(spec=ROW_SPECS["gauss2"], x=[0.02, 0.001], y=[0.004])

# name: (call, valid keyword arguments, the numeric ones an example may spoil).
# Tenor indices, dimensions, seeds and grid sizes select or size a computation
# and are left alone.
ENTRY_POINTS = {
    "AffineModelSpec": (mc.AffineModelSpec, dict(
        pos_dims=1, real_dims=1, drift_const=[0.032, 0.0], drift_linear=[[-0.8, 0.0], [0.2, -0.5]],
        diffusion_const=[[0.0, 0.0], [0.0, 1e-4]],
        diffusion_linear=[[[0.05, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        rate_const=0.0, rate_linear=[1.0, 1.0], n_spread=1, u_vectors=[[1.0]], tenors=(T6M,),
        y_mode="diffusive", y_drift_const=[0.001], y_drift_linear=[[0.1, 0.0]],
        y_diff_const=[[1e-4]], y_diff_linear=[[[2.5e-3]], [[0.0]]], x0=[0.03, 0.0], y0=[0.004]),
        ["drift_const", "drift_linear", "diffusion_const", "diffusion_linear", "rate_const",
         "rate_linear", "u_vectors", "y_drift_const", "y_drift_linear", "y_diff_const",
         "y_diff_linear", "x0", "y0"]),
    "AffineJumps": (mc.AffineJumps, dict(
        atoms_x=[[0.01, 0.002]], probabilities=[1.0], intensity_const=0.5,
        intensity_linear=[4.0, 0.0], atoms_y=[[0.002]]),
        ["atoms_x", "probabilities", "intensity_const", "intensity_linear", "atoms_y"]),
    "affine_bond": (mc.affine_bond, dict(spec=ROW_SPECS["cir_jumps"], x=[0.03, 0.0], tau=1.0),
                    ["x", "tau"]),
    "affine_spread": (mc.affine_spread, dict(G2_STATE, tau=1.0, i=0), ["x", "y", "tau"]),
    "shifted_curves": (mc.shifted_curves, dict(
        G2_STATE, market_disc=DISC, market_spreads={T6M: SPREAD_6M}, t=0.25, T=1.0, tenor=T6M),
        ["x", "y", "t", "T"]),
    **{f"caplet_price_fourier-{name}": (mc.caplet_price_fourier, dict(
        spec=ROW_SPECS[name], T=1.0, tenor=T6M, fixed_rate=0.02, notional=1.0),
        ["T", "fixed_rate", "notional"]) for name in ("gauss2", "cir_jumps")},
    **{f"simulate-{name}": (SIMULATORS[name], dict(SIM_ARGS, batch_size=3),
                            [*READS[name], "batch_size"]) for name in ("gauss2", "cir_jumps")},
    "simulate-hjm": (SIMULATORS["hjm"], dict(SIM_ARGS, observation_times=[0.25, 0.5],
                                             batch_size=3),
                     [*READS["hjm"], "batch_size"]),
    "simulate-yperp": (SIMULATORS["yperp"], SIM_ARGS, READS["yperp"]),
    "LevyTriplet": (mc.LevyTriplet, dict(
        drift=[0.0, 0.0], covariance=[[1e-4, 0.0], [0.0, 1e-4]], jump_sizes=[[0.01, 0.002]],
        jump_intensities=[0.5]), ["drift", "covariance", "jump_sizes", "jump_intensities"]),
    "ExponentialVolatility": (mc.ExponentialVolatility, dict(scales=[0.01], decays=[0.5]),
                              ["scales", "decays"]),
    "LevyHjmModel": (mc.LevyHjmModel, dict(HJM_GUARD, y0=[0.001], kernel_mass_cap=50.0),
                     ["u_vectors", "forward_curve", "forward_spread_curves", "kernel_mass_cap",
                      "y0"]),
    **{name: (getattr(mc, name), dict(model=hjm_guard_model(), tau=1.0, **kw), ["tau"])
       for name, kw in (("ois_drift", {}), ("spread_drift", dict(i=0)),
                        ("spread_drift_adjustment", dict(i=0)))},
    "MomentTargets": (mc.MomentTargets, dict(TARGETS, p_extra=1.0),
                      ["u", "p", "mass_cap", "floor", "p_extra"]),
    "solve_jump_kernel": (lambda **kw: mc.solve_jump_kernel(mc.MomentTargets(**kw)), TARGETS,
                          ["u", "p", "mass_cap", "floor"]),
    "feasibility_check": (lambda **kw: mc.feasibility_check(mc.MomentTargets(**kw)), TARGETS,
                          ["u", "p", "mass_cap", "floor"]),
    "DiscountCurve": (DiscountCurve, dict(times=[0.5, 1.0], discounts=[0.99, 0.98]),
                      ["times", "discounts"]),
    "SpreadTermStructure": (SpreadTermStructure, dict(
        tenor=T6M, times=[0.5, 1.0], spreads=[1.001, 1.002]), ["times", "spreads"]),
    "discount": (DISC.discount, dict(T=[0.25, 3.0]), ["T"]),
    "instantaneous_forward": (DISC.instantaneous_forward, dict(T=1.5), ["T"]),
    "simple_forward": (DISC.simple_forward, dict(T=1.0, delta=0.5), ["T", "delta"]),
    "spread": (SPREAD_6M.spread, dict(T=[0.25, 3.0]), ["T"]),
    "forward_spread_rate": (SPREAD_6M.forward_spread_rate, dict(T=1.5), ["T"]),
    "fra_rate": (mc.fra_rate, dict(spread=1.001, ois_forward=0.02, delta=0.5),
                 ["spread", "ois_forward", "delta"]),
    "fra_rate_from_curves": (mc.fra_rate_from_curves, dict(
        disc=DISC, spread_curve=SPREAD_6M, T=1.0), ["T"]),
    "bootstrap_ois_curve": (lambda maturity, rate: mc.bootstrap_ois_curve(
        [mc.OisSwapQuote(1.0, 0.02, T6M), mc.OisSwapQuote(maturity, rate, T6M)]),
        dict(maturity=2.0, rate=0.021), ["maturity", "rate"]),
    "bootstrap_spread_curve": (lambda maturity, rate: mc.bootstrap_spread_curve(
        DISC, [mc.SpreadQuote(0.5, 0.025, "FRA"), mc.SpreadQuote(maturity, rate, "IRS")], T6M),
        dict(maturity=2.0, rate=0.026), ["maturity", "rate"]),
    "fra_value": (mc.fra_value, dict(
        disc=DISC, spread_curve=SPREAD_6M, T=1.0, fixed_rate=0.02, notional=1.0),
        ["T", "fixed_rate", "notional"]),
    "ois_swap_rate": (mc.ois_swap_rate, dict(SCHEDULE, disc=DISC), ["schedule"]),
    "ois_swap_value": (mc.ois_swap_value, dict(SCHEDULE, disc=DISC, fixed_rate=0.02,
                                               notional=1.0),
                       ["schedule", "fixed_rate", "notional"]),
    "irs_swap_rate": (mc.irs_swap_rate, dict(SCHEDULE, disc=DISC, spread_curve=SPREAD_6M),
                      ["schedule"]),
    "irs_value": (mc.irs_value, dict(SCHEDULE, disc=DISC, spread_curve=SPREAD_6M,
                                     fixed_rate=0.02, notional=1.0),
                  ["schedule", "fixed_rate", "notional"]),
    "basis_swap_spread": (mc.basis_swap_spread, dict(
        disc=DISC, spread_a=SPREAD_6M, schedule_a=[0.5, 1.0, 1.5], spread_b=SPREAD_3M,
        schedule_b=[0.5, 0.75, 1.0, 1.25, 1.5], schedule_fixed=[0.5, 1.0, 1.5]),
        ["schedule_a", "schedule_b", "schedule_fixed"]),
    "PathSet": (mc.PathSet, PATHS, ["time", "maturities", "numeraire", "bonds"]),
    "caplet_price_mc": (mc.caplet_price_mc, dict(
        paths=mc.PathSet(**PATHS), tenor=T6M, fixed_rate=0.02, notional=1.0),
        ["fixed_rate", "notional"]),
    "swaption_price_mc": (mc.swaption_price_mc, dict(
        SCHEDULE, paths=mc.PathSet(**PATHS), tenor=T6M, fixed_rate=0.02, notional=1.0),
        ["schedule", "fixed_rate", "notional"]),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@given(data=st.data())
def test_public_entry_points_take_bad_numbers_with_typed_errors(name, data):
    # one number of the call becomes NaN, +-inf, 0 or -1 (one entry of an
    # array); the call may return, or raise ValueError or a documented module
    # error, within a few seconds.  TypeError, ZeroDivisionError, IndexError,
    # OverflowError, LinAlgError and a hang fail.
    call, kwargs, numeric = ENTRY_POINTS[name]
    arg = data.draw(st.sampled_from(numeric), label="argument")
    bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0]), label="value")
    spoiled = np.array(kwargs[arg], dtype=float)
    spoiled.flat[data.draw(st.integers(0, spoiled.size - 1), label="entry")] = bad
    with alarm(5.0):
        try:
            call(**{**kwargs, arg: spoiled if spoiled.ndim else float(spoiled)})
        except (np.linalg.LinAlgError, IndexError):
            raise  # numpy's subclasses of ValueError fail too
        except DOCUMENTED_ERRORS:
            pass


class TestSpecValidation:
    def base_kwargs(self):
        return dict(
            pos_dims=1, real_dims=1,
            drift_const=[0.02, 0.0],
            drift_linear=[[-0.5, 0.0], [0.0, -0.2]],
            diffusion_const=[[0.0, 0.0], [0.0, 0.01]],
            diffusion_linear=[
                [[0.04, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [0.0, 0.0]],
            ],
            rate_const=0.0, rate_linear=[1.0, 0.0],
            x0=[0.03, 0.0],
        )

    def test_valid_base_spec_builds(self):
        AffineModelSpec(**self.base_kwargs())

    def test_constant_diffusion_on_positive_component(self):
        kw = self.base_kwargs()
        kw["diffusion_const"] = [[0.01, 0.0], [0.0, 0.01]]
        with pytest.raises(ValueError, match="vanish on positive components"):
            AffineModelSpec(**kw)

    def test_cross_positive_diffusion_coupling(self):
        kw = self.base_kwargs()
        kw["pos_dims"] = 2
        kw["real_dims"] = 0
        kw["x0"] = [0.03, 0.01]
        kw["diffusion_const"] = [[0.0, 0.0], [0.0, 0.0]]
        kw["diffusion_linear"] = [
            [[0.04, 0.0], [0.0, 0.02]],
            [[0.0, 0.0], [0.0, 0.03]],
        ]
        with pytest.raises(ValueError, match="couples positive components"):
            AffineModelSpec(**kw)

    def test_real_component_state_scaled_diffusion(self):
        kw = self.base_kwargs()
        kw["diffusion_linear"] = [
            [[0.04, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, 0.02]],
        ]
        with pytest.raises(ValueError, match="no state-scaled diffusion"):
            AffineModelSpec(**kw)

    def test_outward_constant_drift(self):
        kw = self.base_kwargs()
        kw["drift_const"] = [-0.01, 0.0]
        with pytest.raises(ValueError, match="point inward"):
            AffineModelSpec(**kw)

    def test_real_to_positive_drift_coupling(self):
        kw = self.base_kwargs()
        kw["drift_linear"] = [[-0.5, 0.3], [0.0, -0.2]]
        with pytest.raises(ValueError, match="may not drive positive"):
            AffineModelSpec(**kw)

    def test_jump_leaving_the_cone(self):
        kw = self.base_kwargs()
        kw["jumps"] = AffineJumps(
            atoms_x=[[-0.01, 0.0]], probabilities=[1.0], intensity_const=1.0)
        with pytest.raises(ValueError, match="keep positive components"):
            AffineModelSpec(**kw)

    def test_jump_probabilities_normalized(self):
        with pytest.raises(ValueError, match="sum to one"):
            AffineJumps(atoms_x=[[0.01], [0.02]], probabilities=[0.6, 0.6])

    def test_integrated_mode_forbids_spread_noise(self):
        kw = self.base_kwargs()
        kw.update(n_spread=1, u_vectors=[[1.0]], tenors=(T6M,),
                  y_mode="integrated", y_diff_const=[[0.01]])
        with pytest.raises(ValueError, match="no spread diffusion"):
            AffineModelSpec(**kw)

    def test_tenor_exposure_shape_checked(self):
        kw = self.base_kwargs()
        kw.update(n_spread=2, u_vectors=[[1.0]], tenors=(T6M,))
        with pytest.raises(ValueError, match="must have 2 columns"):
            AffineModelSpec(**kw)

    def test_negative_initial_state_rejected(self):
        kw = self.base_kwargs()
        kw["x0"] = [-0.01, 0.0]
        with pytest.raises(ValueError, match="x0 must respect"):
            AffineModelSpec(**kw)

    @pytest.mark.parametrize("field, value", [
        ("drift_const", [math.nan, 0.0]), ("rate_const", math.nan), ("x0", [0.03, math.nan])],
        ids=["drift_const", "rate_const", "x0"])
    def test_non_finite_coefficient_named(self, field, value):
        # each used to build a spec whose exponents and prices were NaN
        kw = self.base_kwargs()
        kw[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            AffineModelSpec(**kw)


def test_non_finite_state_named():
    # affine_bond(spec, [nan, 0], 1) used to return nan
    spec = ROW_SPECS["gauss2"]
    with pytest.raises(ValueError, match="^x must be finite"):
        affine_bond(spec, [math.nan, 0.0], 1.0)
    with pytest.raises(ValueError, match="^y must be finite"):
        affine_spread(spec, spec.x0, [math.inf], 1.0, 0)
