"""Affine multi-curve models: transform ODEs, curves, simulation, Fourier pricing.

The model state is (X, Y, Z): X is a canonical affine driver on
R^p_+ x R^q (positive components first), Y collects spread factors whose
characteristics depend on X only, and Z = -integral of the short rate
r = rate_const + <rate_linear, X> so the bank account is exp(-Z).  Discount
bonds and multiplicative tenor spreads are exponentials of affine transforms
of the state; the transform exponents solve generalized Riccati ODEs that are
assembled here from the model coefficients and integrated, a batch of
arguments at a time, by an adaptive Dormand-Prince pair that steps each row
on its own, so a row's exponents do not depend on the batch it is solved in.
A jump-free model without positive factors skips the ODE: its state is
jointly Gaussian, and its exponents are read from the Gaussian moment
generating function of the terminal law (Duffie, Filipovic and
Schachermayer, Ann. Appl. Probab. 13, 2003), one law per distinct horizon.

Two spread-factor conventions are supported.  In "integrated" mode Y is the
running integral of an affine function of X (nonnegative when the function
maps into the positive orthant, which makes spreads >= 1 and ordered for
ordered loading vectors).  In "diffusive" mode Y carries its own Brownian
noise with affine covariance; its noise is independent of the X noise, which
keeps the exponent ODE for X free of cross terms.

Everything downstream reuses these exponents: `simulate_affine` builds the
same PathSet the grid models produce, `shifted_curves` re-anchors model
curves to observed ones without touching the dynamics, and
`caplet_price_fourier` prices the standard caplet as a damped inverse
transform of the weighted payoff.
"""

from __future__ import annotations

import functools
import logging
import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import rng as _rng
from .products import EmptyPathSet, PathSet
from .rng import path_generator  # noqa: F401 - bench/trace.py wraps this name; no module calls it
from .termstructure import Tenor

log = logging.getLogger(__name__)

EXPLOSION_THRESHOLD = 1e12
_RICCATI_TOL = 1e-10
# largest 1-norm of drift_linear * dt that one Van Loan exponential covers
# (its covariance loses about eps * exp(span) to cancellation)
_VAN_LOAN_SPAN = 8.0
# the caplet contour: z = 1 + damping + i v, Gauss-Legendre panels of
# _QUAD_NODES nodes, at most _MAX_PANELS of them
_DAMPING = 0.75
_QUAD_NODES = 64
_MAX_PANELS = 64


class RiccatiExplosion(RuntimeError):
    """Transform exponent left the tracked domain (norm above 1e12)."""

    def __init__(self, message: str, blow_up_time: float):
        super().__init__(message)
        self.blow_up_time = blow_up_time


class RiccatiAccuracyError(RuntimeError):
    """A row's step size collapsed before its horizon at the requested tolerance."""


class InadmissibleSpec(ValueError):
    """Model coefficients outside the admissible set of the canonical state space."""


class DampingOutOfDomain(ValueError):
    """The damped payoff transform is not finite at the contour's damping."""


class QuadratureNonConvergence(RuntimeError):
    """Fourier quadrature tail did not fall below tolerance."""


@dataclass
class AffineJumps:
    """Compound-Poisson jumps with affine intensity and a discrete jump law.

    Intensity is intensity_const + <intensity_linear, X_t>; each event moves
    (X, Y) by one of the listed atoms, drawn with the given probabilities.
    """

    atoms_x: np.ndarray
    probabilities: np.ndarray
    intensity_const: float = 0.0
    intensity_linear: np.ndarray | None = None
    atoms_y: np.ndarray | None = None

    def __post_init__(self):
        self.atoms_x = np.atleast_2d(np.asarray(self.atoms_x, dtype=float))
        self.probabilities = np.atleast_1d(np.asarray(self.probabilities, dtype=float))
        if len(self.probabilities) != len(self.atoms_x):
            raise ValueError("one probability per jump atom required")
        if np.any(self.probabilities < 0) or abs(self.probabilities.sum() - 1.0) > 1e-12:
            raise InadmissibleSpec("jump probabilities must be nonnegative and sum to one")


@dataclass
class AffineModelSpec:
    """Coefficients and initial state of an affine multi-curve model.

    The driver X lives on R^pos_dims_+ x R^real_dims with drift
    drift_const + drift_linear @ x and diffusion matrix
    diffusion_const + sum_k x_k diffusion_linear[k].  Admissibility of the
    positive block (inward drift, boundary-degenerate diffusion) is validated
    on construction and follows the canonical state-space conditions; a
    violation raises InadmissibleSpec, a malformed argument ValueError.
    """

    pos_dims: int
    real_dims: int
    drift_const: np.ndarray
    drift_linear: np.ndarray
    diffusion_const: np.ndarray
    rate_const: float
    rate_linear: np.ndarray
    diffusion_linear: np.ndarray | None = None
    n_spread: int = 0
    u_vectors: np.ndarray | None = None
    tenors: Sequence[Tenor] = ()
    y_mode: str = "integrated"
    y_drift_const: np.ndarray | None = None
    y_drift_linear: np.ndarray | None = None
    y_diff_const: np.ndarray | None = None
    y_diff_linear: np.ndarray | None = None
    jumps: AffineJumps | None = None
    x0: np.ndarray | None = None
    y0: np.ndarray | None = None

    def __post_init__(self):
        d, p, n = self.dim, self.pos_dims, self.n_spread
        if p < 0 or self.real_dims < 0 or d == 0:
            raise ValueError("state dimensions must be nonnegative with dim >= 1")
        self.drift_const = _vec(self.drift_const, d, "drift_const")
        self.drift_linear = _mat(self.drift_linear, (d, d), "drift_linear")
        self.diffusion_const = _mat(self.diffusion_const, (d, d), "diffusion_const")
        if self.diffusion_linear is None:
            self.diffusion_linear = np.zeros((d, d, d))
        self.diffusion_linear = np.asarray(self.diffusion_linear, dtype=float)
        if self.diffusion_linear.shape != (d, d, d):
            raise ValueError(f"diffusion_linear must have shape {(d, d, d)}")
        self.rate_linear = _vec(self.rate_linear, d, "rate_linear")
        self.u_vectors = (np.zeros((0, n)) if self.u_vectors is None
                          else np.atleast_2d(np.asarray(self.u_vectors, dtype=float)))
        if self.u_vectors.shape[1] != n:
            raise ValueError(f"u_vectors must have {n} columns")
        self.tenors = list(self.tenors)
        if len(self.tenors) != len(self.u_vectors):
            raise ValueError("one tenor per spread loading vector required")
        self.y_drift_const = _vec(self.y_drift_const, n, "y_drift_const", default=0.0)
        self.y_drift_linear = _mat(self.y_drift_linear, (n, d), "y_drift_linear", default=0.0)
        self.y_diff_const = _mat(self.y_diff_const, (n, n), "y_diff_const", default=0.0)
        if self.y_diff_linear is None:
            self.y_diff_linear = np.zeros((d, n, n))
        self.y_diff_linear = np.asarray(self.y_diff_linear, dtype=float)
        if self.y_diff_linear.shape != (d, n, n):
            raise ValueError(f"y_diff_linear must have shape {(d, n, n)}")
        self.x0 = _vec(self.x0, d, "x0", default=0.0)
        self.y0 = _vec(self.y0, n, "y0", default=0.0)
        if self.y_mode not in ("integrated", "diffusive"):
            raise ValueError(f"unknown y_mode {self.y_mode!r}")
        if self.y_mode == "integrated" and (
            np.any(self.y_diff_const != 0.0) or np.any(self.y_diff_linear != 0.0)
        ):
            raise ValueError("integrated y_mode admits no spread diffusion")
        self._validate_admissibility()

    # -- structure ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.pos_dims + self.real_dims

    @property
    def n_tenors(self) -> int:
        return len(self.tenors)

    def tenor_index(self, tenor: Tenor | int) -> int:
        if isinstance(tenor, int):
            return tenor
        for i, t in enumerate(self.tenors):
            if float(t) == float(tenor):
                return i
        raise ValueError(f"tenor {tenor} is not part of the model")

    def is_deterministic(self) -> bool:
        """True when the state carries no noise at all."""
        return (
            not np.any(self.diffusion_const)
            and not np.any(self.diffusion_linear)
            and not np.any(self.y_diff_const)
            and not np.any(self.y_diff_linear)
            and self.jumps is None
        )

    def _validate_admissibility(self):
        d, p = self.dim, self.pos_dims
        _check_psd(self.diffusion_const, "diffusion_const")
        if np.any(np.abs(self.diffusion_const[:p, :]) > 0):
            raise InadmissibleSpec("constant diffusion must vanish on positive components")
        for k in range(d):
            alpha = self.diffusion_linear[k]
            if k >= p:
                if np.any(alpha != 0.0):
                    raise InadmissibleSpec("real components admit no state-scaled diffusion")
                continue
            _check_psd(alpha, f"diffusion_linear[{k}]")
            idx = np.arange(d)
            other_pos = (idx < p) & (idx != k)
            if np.any(alpha[other_pos, :] != 0.0) or np.any(alpha[:, other_pos] != 0.0):
                raise InadmissibleSpec(
                    f"diffusion_linear[{k}] couples positive components other than {k}"
                )
        if np.any(self.drift_const[:p] < 0):
            raise InadmissibleSpec("constant drift must point inward on positive components")
        off = self.drift_linear[:p, :p].copy()
        np.fill_diagonal(off, 0.0)
        if np.any(off < 0):
            raise InadmissibleSpec("linear drift must be inward-pointing on positive components")
        if np.any(self.drift_linear[:p, p:] != 0.0):
            raise InadmissibleSpec("real components may not drive positive components")
        if self.jumps is not None:
            j = self.jumps
            if j.atoms_x.shape[1] != d:
                raise ValueError("jump atoms must have one X column per state dimension")
            j.atoms_y = (np.zeros((len(j.atoms_x), self.n_spread)) if j.atoms_y is None
                         else np.atleast_2d(np.asarray(j.atoms_y, dtype=float)))
            if j.atoms_y.shape != (len(j.atoms_x), self.n_spread):
                raise ValueError("jump atoms must have one Y column per spread factor")
            j.intensity_linear = _vec(j.intensity_linear, d, "intensity_linear", default=0.0)
            if j.intensity_const < 0 or np.any(j.intensity_linear[:p] < 0):
                raise InadmissibleSpec("jump intensity must be nonnegative on the state space")
            if np.any(j.intensity_linear[p:] != 0.0):
                raise InadmissibleSpec("jump intensity may not load on real components")
            if np.any(j.atoms_x[:, :p] < 0):
                raise InadmissibleSpec("jumps must keep positive components nonnegative")
        _check_psd(self.y_diff_const, "y_diff_const")
        for k in range(d):
            if k >= p and np.any(self.y_diff_linear[k] != 0.0):
                raise InadmissibleSpec("spread diffusion may scale with positive components only")
            _check_psd(self.y_diff_linear[k], f"y_diff_linear[{k}]")
        if np.any(self.x0[:p] < 0):
            raise InadmissibleSpec("x0 must respect the positive components")


def _vec(value, length, name, default=None):
    if value is None:
        if default is None:
            raise ValueError(f"{name} is required")
        return np.full(length, float(default))
    out = np.atleast_1d(np.asarray(value, dtype=float))
    if out.shape != (length,):
        raise ValueError(f"{name} must have shape ({length},)")
    return out


def _mat(value, shape, name, default=None):
    if value is None:
        if default is None:
            raise ValueError(f"{name} is required")
        return np.full(shape, float(default))
    out = np.atleast_2d(np.asarray(value, dtype=float))
    if out.shape != shape:
        raise ValueError(f"{name} must have shape {shape}")
    return out


def _check_psd(m: np.ndarray, name: str):
    if m.size == 0:
        return
    if not np.allclose(m, m.T, atol=1e-12):
        raise InadmissibleSpec(f"{name} must be symmetric")
    if np.linalg.eigvalsh(m).min() < -1e-10:
        raise InadmissibleSpec(f"{name} must be positive semidefinite")


# ---------------------------------------------------------------------------
# generalized Riccati system
#
# The transform E[exp(<v, X_T> + u.Y_T + w Z_T)] = exp(phi + <psi, x> + u.y
# + w z) requires phi' = F(psi), psi' = R(psi) with the coefficient of y and
# z frozen at (u, w).  Both maps are quadratic in psi with u- and w-dependent
# constants, assembled below once per solve.  Rows are stacked as
# y = (phi, psi) and every product is taken elementwise or by einsum, never by
# a BLAS matrix product, whose rounding can depend on the batch size: a row's
# exponents are then bitwise the same whatever batch it is solved in.

# Dormand-Prince 5(4) pair (Hairer, Norsett and Wanner, Solving ODEs I, II.5):
# stage coefficients, 5th-order weights, and 5th- minus 4th-order weights of
# the seven stages (the last stage is the derivative at the new point)
_DP_A = (
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
)
_DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
                  22 / 525, -1 / 40])


def _solve_constants(spec: AffineModelSpec, U: np.ndarray, w: complex):
    """Terms of (F, R) for one solve, stacked over the 1 + dim outputs.

    Returns the coefficients of psi shared by all rows (linear, halved
    quadratic, and jump atoms with compensator and intensity loading), the
    per-row constants, and the per-row jump atom weights p_a exp(u.atoms_y[a])
    (None without jumps).
    """
    lin = np.concatenate([spec.drift_const[:, None], spec.drift_linear], axis=1)
    quad = 0.5 * np.concatenate(
        [spec.diffusion_const[:, :, None], spec.diffusion_linear.transpose(1, 2, 0)],
        axis=2)
    consts = np.empty((len(U), 1 + spec.dim), dtype=complex)
    consts[:, 0] = np.einsum("bi,i->b", U, spec.y_drift_const) - w * spec.rate_const
    consts[:, 0] += 0.5 * np.einsum("bi,ij,bj->b", U, spec.y_diff_const, U)
    consts[:, 1:] = np.einsum("bi,ik->bk", U, spec.y_drift_linear) - w * spec.rate_linear
    consts[:, 1:] += 0.5 * np.einsum("bi,kij,bj->bk", U, spec.y_diff_linear, U)
    jumps = weights = None
    if spec.jumps is not None:
        j = spec.jumps
        jumps = (j.atoms_x, j.probabilities.sum(),
                 np.concatenate([[j.intensity_const], j.intensity_linear]))
        weights = j.probabilities * np.exp(np.einsum("bi,ai->ba", U, j.atoms_y))
    return (lin, quad, jumps), consts, weights


def _batch_rates(coefficients, psi: np.ndarray, consts, weights):
    """(F, R) rows for a batch of psi rows, stacked as (batch, 1 + dim):
    constant + linear + quadratic parts, plus the compensated jump transform
    sum_a weights_a exp(<psi, atoms_x[a]>) - sum_a p_a."""
    lin, quad, jumps = coefficients
    out = consts
    for i in range(len(lin)):
        inner = lin[i]
        for j in range(len(lin)):
            inner = inner + psi[:, j, None] * quad[i, j]
        out = out + psi[:, i, None] * inner
    if jumps is not None:
        atoms_x, compensator, loading = jumps
        expo = psi[:, 0, None] * atoms_x[:, 0]
        for i in range(1, len(lin)):
            expo = expo + psi[:, i, None] * atoms_x[:, i]
        moved = np.einsum("ba,ba->b", np.exp(expo), weights)
        out = out + (moved - compensator)[:, None] * loading
    return out


def _terminal_exponents(spec: AffineModelSpec, V: np.ndarray, U: np.ndarray, w: complex,
                        horizon, tol: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Batched (phi, psi) at the horizon, exactly for jump-free Gaussian
    specs and by adaptive Dormand-Prince steps otherwise.

    V: (batch, d) initial psi rows; U: (batch, n) exponent loadings on Y; w:
    shared Z loading; horizon: finite, nonnegative scalar or (batch,) array.
    Rows at horizon 0 return (0, V).  A spec without positive factors and
    jumps takes its exponents from the Gaussian law of (X, Y, Z) at each
    distinct horizon (``_law_exponents``; tol has no effect there).  Every
    other spec steps each row with its own step size, error norm (against
    tol * (1 + |y|) per component; tol is 1e-10 unless a caller relaxes it)
    and explosion check until it leaves the batch at its own horizon.  Either
    way a row's result is the same in any batch.  Raises RiccatiExplosion
    when a row passes 1e12 and RiccatiAccuracyError when a row's step size
    collapses.
    """
    tol = _RICCATI_TOL if tol is None else tol
    V = np.atleast_2d(np.asarray(V, dtype=complex))
    U = np.atleast_2d(np.asarray(U, dtype=complex))
    rows = len(V)
    horizon = np.broadcast_to(np.asarray(horizon, dtype=float), (rows,))
    if not np.all(np.isfinite(horizon)):
        raise ValueError("horizon must be finite")
    if np.any(horizon < 0):
        raise ValueError("horizon must be nonnegative")
    out = np.zeros((rows, 1 + spec.dim), dtype=complex)
    out[:, 1:] = V
    if spec.pos_dims == 0 and spec.jumps is None:
        _law_exponents(spec, U, w, horizon, out)
        return out[:, 0], out[:, 1:]
    coefficients, consts, weights = _solve_constants(spec, U, w)
    idx = np.flatnonzero(horizon > 0)
    y, end, consts = out[idx], horizon[idx], consts[idx]
    weights = None if weights is None else weights[idx]

    def rates(state):
        return _batch_rates(coefficients, state[:, 1:], consts, weights)

    accepted = rejected = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        t = np.zeros(len(idx))
        k1 = rates(y)
        # first step from the rates' scale (Hairer, Norsett and Wanner, II.4)
        h = np.minimum(end, (0.01 * tol / (np.abs(k1) / (1.0 + np.abs(y))).max(axis=1)) ** 0.2)
        while len(idx):
            remaining = end - t
            h = np.minimum(h, remaining)
            last = h == remaining
            ks = np.empty((7,) + y.shape, dtype=complex)
            ks[0] = k1
            for s, coeffs in enumerate(_DP_A, start=1):
                ks[s] = rates(y + h[:, None] * np.einsum("s,sbm->bm", coeffs, ks[:s]))
            y_new = y + h[:, None] * np.einsum("s,sbm->bm", _DP_B, ks[:6])
            blown = ~(np.abs(y_new).max(axis=1) <= EXPLOSION_THRESHOLD)
            if np.any(blown):
                raise RiccatiExplosion(
                    f"transform exponent exceeded {EXPLOSION_THRESHOLD:g}",
                    blow_up_time=float((t + h)[blown][0]),
                )
            ks[6] = rates(y_new)
            err_vec = h[:, None] * np.einsum("s,sbm->bm", _DP_E, ks)
            scale = tol * (1.0 + np.maximum(np.abs(y), np.abs(y_new)))
            err = (np.abs(err_vec) / scale).max(axis=1)
            ok = err <= 1.0
            accepted += int(np.count_nonzero(ok))
            rejected += int(np.count_nonzero(~ok))
            y = np.where(ok[:, None], y_new, y)
            k1 = np.where(ok[:, None], ks[6], k1)
            t = np.where(ok, np.where(last, end, t + h), t)
            # standard controller: safety 0.9, growth at most 10 (none after
            # a rejection), shrink at most 5, also when the error is NaN
            h = h * np.fmin(np.where(ok, 10.0, 1.0), np.fmax(0.2, 0.9 * err ** -0.2))
            if np.any(~ok & (h < 16.0 * np.spacing(end))):
                raise RiccatiAccuracyError(
                    f"step size collapsed to {float(h[~ok].min()):.2e} before the horizon")
            done = ok & last
            if np.any(done):
                out[idx[done]] = y[done]
                keep = ~done
                idx, y, end, t, h, k1, consts = (
                    a[keep] for a in (idx, y, end, t, h, k1, consts))
                weights = None if weights is None else weights[keep]
    log.debug("riccati solve: rows=%d accepted_steps=%d rejected_steps=%d",
              rows, accepted, rejected)
    return out[:, 0], out[:, 1:]


def _law_exponents(spec: AffineModelSpec, U: np.ndarray, w: complex, horizon: np.ndarray,
                   out: np.ndarray) -> None:
    """Overwrite the (phi, psi) rows of out, which hold (0, V), at positive
    horizons with the exponents of the Gaussian terminal law.

    With theta = (V, U, w) and (X, Y, Z)_h = transition @ state + shift +
    factor @ xi, psi is the X block of transition^T theta and phi is
    theta.shift + 1/2 sum_k (factor^T theta)_k^2 (the non-conjugate square:
    the moment generating function at complex theta).  Products are einsums
    over rows, so a row's exponents do not depend on its batch.
    """
    d = spec.dim
    theta = np.concatenate([out[:, 1:], U, np.full((len(out), 1), w, dtype=complex)], axis=1)
    positive = horizon > 0
    horizons = np.unique(horizon[positive])
    with np.errstate(over="ignore", invalid="ignore"):
        for h in horizons:
            idx = np.flatnonzero(horizon == h)
            transition, shift, factor = _gaussian_terminal_law(spec, float(h))
            rows = theta[idx]
            noise = np.einsum("bi,ik->bk", rows, factor)
            out[idx, 0] = (np.einsum("bi,i->b", rows, shift)
                           + 0.5 * np.einsum("bk,bk->b", noise, noise))
            out[idx, 1:] = np.einsum("bi,ij->bj", rows, transition[:, :d])
    blown = positive & ~(np.abs(out).max(axis=1) <= EXPLOSION_THRESHOLD)
    if np.any(blown):
        # the law gives no crossing time: report the row's horizon
        raise RiccatiExplosion(f"transform exponent exceeded {EXPLOSION_THRESHOLD:g}",
                               blow_up_time=float(horizon[blown][0]))
    log.debug("gaussian law exponents: rows=%d horizons=%d", len(out), len(horizons))


# ---------------------------------------------------------------------------
# transforms and curve formulas


def _exponents(spec: AffineModelSpec, taus, u=0.0, tol=None):
    """Real (phi, psi) rows at times-to-maturity taus of the exponent with Y
    loading u (zero for the discount bond; one vector, or one row per tau)."""
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    U = np.broadcast_to(u, (len(taus), spec.n_spread))
    phi, psi = _terminal_exponents(spec, np.zeros((len(taus), spec.dim)), U, 1.0, taus,
                                   tol)
    return phi.real, psi.real


def affine_bond(spec: AffineModelSpec, x, tau):
    """Discount bond B(t, t + tau) as a function of the driver state x.

    Scalar tau gives a float; an array of taus gives an array.  Strictly
    positive by construction (exponential of a real affine form).
    """
    x = _vec(x, spec.dim, "x")
    tau_arr = np.atleast_1d(np.asarray(tau, dtype=float))
    phi, psi = _exponents(spec, tau_arr)
    out = np.exp(phi + psi @ x)
    return out if np.ndim(tau) else float(out[0])


def affine_spread(spec: AffineModelSpec, x, y, tau, i: int):
    """Multiplicative spread S^i(t, t + tau) at driver state x, spread state y."""
    x = _vec(x, spec.dim, "x")
    y = _vec(y, spec.n_spread, "y")
    tau_arr = np.atleast_1d(np.asarray(tau, dtype=float))
    phi_b, psi_b = _exponents(spec, tau_arr)
    phi_s, psi_s = _exponents(spec, tau_arr, spec.u_vectors[i])
    log_spot = float(spec.u_vectors[i] @ y)
    out = np.exp(log_spot + (phi_s - phi_b) + (psi_s - psi_b) @ x)
    return out if np.ndim(tau) else float(out[0])


def _model_curves(spec: AffineModelSpec, x: np.ndarray, y: np.ndarray, taus):
    """Bonds (P, m) and spreads {tenor: (P, m)} at P states (x, y) and m
    times-to-maturity, with the bond and every tenor's exponents from one
    batched solve."""
    m = len(np.atleast_1d(taus))
    U = np.repeat(np.vstack([np.zeros((1, spec.n_spread)), spec.u_vectors]), m, axis=0)
    phi, psi = _exponents(spec, np.tile(taus, spec.n_tenors + 1), U)
    phi_b, psi_b = phi[:m], psi[:m]
    bonds = np.exp(phi_b[None, :] + x @ psi_b.T)
    spreads = {}
    for i, tenor in enumerate(spec.tenors):
        phi_s, psi_s = phi[(i + 1) * m:(i + 2) * m], psi[(i + 1) * m:(i + 2) * m]
        log_spot = y @ spec.u_vectors[i]
        spreads[tenor] = np.exp(
            log_spot[:, None] + (phi_s - phi_b)[None, :] + x @ (psi_s - psi_b).T
        )
    return bonds, spreads


@dataclass
class ShiftedCurves:
    """Model curves re-anchored to observed time-0 curves."""

    bond: float
    spread: float | None = None


def shifted_curves(spec: AffineModelSpec, market_disc, market_spreads,
                   x, y, t: float, T: float, tenor: Tenor | int | None = None,
                   ) -> ShiftedCurves:
    """Deterministic-shift bond (and optionally spread) at state (x, y, t).

    The model's time-0 curves are divided out and replaced by the observed
    ones: the shifted bond multiplies the model bond by
    [B_obs(0,T)/B_obs(0,t)] / [B_model(0,T)/B_model(0,t)], and the shifted
    spread rescales the model spread by S_obs(0,T)/S_model(0,T).  At t = 0
    both collapse to the observed curves exactly.  market_spreads maps each
    model tenor to a curve object with a ``spread(T)`` method (it may be
    empty when only the bond is requested); shifted spreads are not
    guaranteed to stay above one.
    """
    if T < t:
        raise ValueError("T must not precede t")
    x = _vec(x, spec.dim, "x")
    tau = T - t
    # rows solve independently: equal times give equal exponents, so t = 0
    # cancels bitwise
    phi, psi = _exponents(spec, [t, T, tau])
    bond0_t, bond0_T = (math.exp(phi[k] + psi[k] @ spec.x0) for k in (0, 1))
    bond = (market_disc.discount(T) / market_disc.discount(t)
            * bond0_t / bond0_T * math.exp(phi[2] + psi[2] @ x))
    spread = None
    if tenor is not None:
        i = spec.tenor_index(tenor)
        y = _vec(y, spec.n_spread, "y")
        u = spec.u_vectors[i]
        phi_s, psi_s = _exponents(spec, [tau, T], u)
        model_now = math.exp(u @ y + phi_s[0] - phi[2] + (psi_s[0] - psi[2]) @ x)
        model_zero = math.exp(
            u @ spec.y0 + phi_s[1] - phi[1] + (psi_s[1] - psi[1]) @ spec.x0)
        curve = market_spreads if hasattr(market_spreads, "spread") \
            else market_spreads[spec.tenors[i]]
        spread = curve.spread(T) * model_now / model_zero
    return ShiftedCurves(bond=bond, spread=spread)


# ---------------------------------------------------------------------------
# simulation


def _linear_sde_factors(drift_linear: np.ndarray, drift_const: np.ndarray,
                        diffusion: np.ndarray, dt: float):
    """Exact law over dt of the linear SDE dS = (drift_linear @ S + drift_const) dt
    + dW with d<W> = diffusion dt.

    Returns (transition, mean_shift, noise_factor): S_{t+dt} = transition @ S_t
    + mean_shift + noise_factor @ xi for standard normal xi.  The mean comes
    from the exponential of the drift matrix augmented by its constant, the
    covariance integral from Van Loan's block exponential (Van Loan 1978,
    "Computing integrals involving the matrix exponential", IEEE TAC 23(3)).
    A dt whose drift span exceeds _VAN_LOAN_SPAN is split into 2^k equal
    substeps whose law is composed k times.
    """
    from scipy.linalg import expm

    d = len(drift_const)
    span = float(np.abs(drift_linear).sum(axis=0).max()) * dt
    halvings = math.ceil(math.log2(span / _VAN_LOAN_SPAN)) if span > _VAN_LOAN_SPAN else 0
    dt = dt / 2.0 ** halvings
    aug = np.zeros((d + 1, d + 1))
    aug[:d, :d] = drift_linear * dt
    aug[:d, d] = drift_const * dt
    e_aug = expm(aug)
    transition, mean_shift = e_aug[:d, :d], e_aug[:d, d]
    block = np.zeros((2 * d, 2 * d))
    block[:d, :d] = -drift_linear * dt
    block[:d, d:] = diffusion * dt
    block[d:, d:] = drift_linear.T * dt
    e_block = expm(block)
    cov = e_block[d:, d:].T @ e_block[:d, d:]
    for _ in range(halvings):
        mean_shift = transition @ mean_shift + mean_shift
        cov = transition @ cov @ transition.T + cov
        transition = transition @ transition
    cov = 0.5 * (cov + cov.T)
    w, vecs = np.linalg.eigh(cov)
    noise_factor = vecs * np.sqrt(np.clip(w, 0.0, None))
    return transition, mean_shift, noise_factor


def _gaussian_terminal_law(spec: AffineModelSpec, horizon: float):
    """(transition, shift, noise_factor) of the state (X, Y, Z) over the
    horizon of a jump-free model without positive factors.

    X is then Ornstein-Uhlenbeck, Y's drift is affine in X with constant
    diffusion (none in integrated mode) and Z = -integral of r is linear in
    X, so the whole state solves one linear SDE and is jointly Gaussian:
    (X, Y, Z)_T = transition @ (x, y, z) + shift + noise_factor @ xi with
    d + n + 1 standard normals.  The exact draw and the transform exponents
    both read it.
    """
    d, n = spec.dim, spec.n_spread
    size = d + n + 1
    drift = np.zeros((size, size))
    drift[:d, :d] = spec.drift_linear
    drift[d:d + n, :d] = spec.y_drift_linear
    drift[-1, :d] = -spec.rate_linear
    const = np.concatenate([spec.drift_const, spec.y_drift_const, [-spec.rate_const]])
    diffusion = np.zeros((size, size))
    diffusion[:d, :d] = spec.diffusion_const
    diffusion[d:d + n, d:d + n] = spec.y_diff_const
    return _linear_sde_factors(drift, const, diffusion, horizon)


def _diffusion_factor(const, linear, pos_dims, x_block):
    """Batched matrix square roots of const + sum_k x_k^+ linear[k]."""
    clipped = np.clip(x_block[:, :pos_dims], 0.0, None)
    mats = np.broadcast_to(const, (len(x_block), *const.shape)).copy()
    for k in range(pos_dims):
        mats += clipped[:, k, None, None] * linear[k]
    if const.shape == (1, 1):
        # LAPACK's 1x1 eigenvector is exactly 1.0, so this is eigh's result bit
        # for bit, without a batched eigh call per step
        return np.sqrt(np.clip(mats, 0.0, None))
    w, vecs = np.linalg.eigh(mats)
    return vecs * np.sqrt(np.clip(w, 0.0, None))[:, None, :]


def simulate_affine(spec: AffineModelSpec, horizon: float, dt: float,
                    n_paths: int, seed: int, maturities: Sequence[float],
                    batch_size: int = 4096) -> PathSet:
    """Simulate the state to the horizon and assemble a PathSet there.

    A jump-free model without positive factors is jointly Gaussian: its
    state (X, Y, Z) is drawn exactly at the horizon, in one step, from d + n
    + 1 normals per path (``_gaussian_terminal_law``), so ``dt`` does not
    affect it (it must still not exceed the horizon).  Every other model
    steps on the dt grid.  A Gaussian driver with jumps steps with the exact
    one-step OU law; anything with positive components steps with Euler,
    clipping negatives inside the diffusion argument only.  On the grid Z
    accrues the short rate by trapezoid and the spread factors accrue their
    affine drift the same way in both modes; diffusive factors add noise
    with the coefficient frozen at the step start, and jump events use the
    intensity frozen at the step start.  Without positive factors the spread
    diffusion factor does not depend on the state and is factored once per
    call rather than at every step.

    The call is a setup, a batch function and a merge.  ``batch(lo, hi)``
    returns the terminal (X, Y, Z) of paths [lo, hi) and writes nothing
    outside itself; ``rng.map_batches`` splits the paths, and the merge
    joins the states in path order and reads the curves off them.

    Every path's numbers depend only on (seed, path index), whatever the
    batch (addresses in ``rng``): the exact draw reads its d + n + 1 normals
    from its stream-0 row (``rng.normal_rows``); a stepped model reads one
    normal block from the path's own stream (``rng.driver_increment_block``)
    and its jumps, if any, from its stream-0 row from
    ``rng.DRIVER_JUMP_COLUMN``, as HJM driver jumps do (``rng.JumpRows``).
    One DEBUG record per batch on ``multicurve.affine`` gives its paths,
    steps (1 for an exact draw), jumps, the paths that outgrew the batch's
    atom buffer (``refilled_paths``) or drew a count of mean 10 or more
    (``live_paths``), and the seconds spent drawing the normals (``draw_s``)
    and stepping the state, with the jump draws (``step_s``).  A horizon or
    dt that is not positive and finite, or a maturity that is not finite,
    raises ValueError naming it, and fewer than one path ``EmptyPathSet``,
    both before any draw.
    """
    for name, value in (("horizon", horizon), ("dt", dt)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if dt > horizon:
        raise ValueError("dt exceeds the horizon")
    if n_paths < 1:
        raise EmptyPathSet(f"n_paths must be at least 1, got {n_paths}")
    maturities = np.asarray(sorted(float(m) for m in maturities), dtype=float)
    if not np.isfinite(maturities).all():
        raise ValueError(f"maturities must be finite, got {maturities}")
    if len(maturities) == 0 or maturities[0] < horizon - 1e-12:
        raise ValueError("maturities must lie at or beyond the horizon")

    d, n = spec.dim, spec.n_spread
    gaussian = spec.pos_dims == 0
    law = None
    if gaussian and spec.jumps is None:
        transition, shift, noise = _gaussian_terminal_law(spec, horizon)
        law = transition @ np.concatenate([spec.x0, spec.y0, [0.0]]) + shift, noise
        n_steps = 1
    else:
        n_steps = math.ceil(horizon / dt - 1e-12)
        step_sizes = np.full(n_steps, dt)
        step_sizes[-1] = horizon - dt * (n_steps - 1)
        diffusive_y = spec.y_mode == "diffusive"
        n_noise = d + (n if diffusive_y else 0)
        jumps = spec.jumps
        if jumps is not None:
            cdf = _rng.choice_cdf(jumps.probabilities)
            # one atom double per jump, sized from the intensity at x0
            width = _rng.atom_width(
                max(jumps.intensity_const + spec.x0 @ jumps.intensity_linear, 0.0) * horizon)
        if gaussian:
            ou_factors = {
                float(h): _linear_sde_factors(spec.drift_linear, spec.drift_const,
                                              spec.diffusion_const, float(h))
                for h in np.unique(step_sizes)
            }
            # without positive factors the Y diffusion does not depend on the state
            if diffusive_y:
                fixed_y_factor = _diffusion_factor(spec.y_diff_const, spec.y_diff_linear,
                                                   0, np.zeros((1, d)))[0]

    def batch(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        m = hi - lo
        draws = None
        started = time.perf_counter()
        if law is not None:
            mean, noise = law
            normals = _rng.normal_rows(seed, lo, hi, len(mean))
            draw_s = time.perf_counter() - started
            state = mean + np.einsum("bj,ij->bi", normals, noise)
            x, y, z = state[:, :d], state[:, d:d + n], state[:, -1]
        else:
            normals = _rng.driver_increment_block(seed, lo, hi, n_steps, n_noise)
            if jumps is not None:
                draws = _rng.JumpRows(seed, lo, hi, _rng.DRIVER_JUMP_COLUMN, n_steps, width)
            draw_s = time.perf_counter() - started
            x = np.tile(spec.x0, (m, 1))
            y = np.tile(spec.y0, (m, 1))
            z = np.zeros(m)
            rate = spec.rate_const + x @ spec.rate_linear
            qx = spec.y_drift_const + x @ spec.y_drift_linear.T
            for step, h in enumerate(step_sizes):
                xi = normals[:, step, :d]
                if gaussian:
                    trans, mean_shift, chol = ou_factors[float(h)]
                    x_new = x @ trans.T + mean_shift + xi @ chol.T
                else:
                    factor = _diffusion_factor(spec.diffusion_const, spec.diffusion_linear,
                                               spec.pos_dims, x)
                    x_new = (
                        x + (spec.drift_const + x @ spec.drift_linear.T) * h
                        + math.sqrt(h) * np.einsum("bij,bj->bi", factor, xi)
                    )
                if diffusive_y:
                    eta = normals[:, step, d:]
                    y_factor = (fixed_y_factor if gaussian
                                else _diffusion_factor(spec.y_diff_const, spec.y_diff_linear,
                                                       spec.pos_dims, x))
                    # bits of the broadcast batch, no copy (eta @ F.T rounds otherwise)
                    y = y + math.sqrt(h) * np.einsum("...ij,...j->...i", y_factor, eta)
                if draws is not None:
                    lam = np.clip(jumps.intensity_const + x @ jumps.intensity_linear, 0.0, None)
                    for rows, atom in draws.rounds(lam * h, cdf):
                        x_new[rows] += jumps.atoms_x[atom]
                        y[rows] += jumps.atoms_y[atom]
                x = x_new
                rate_new = spec.rate_const + x @ spec.rate_linear
                z -= 0.5 * h * (rate + rate_new)
                rate = rate_new
                qx_new = spec.y_drift_const + x @ spec.y_drift_linear.T
                y = y + 0.5 * h * (qx + qx_new)
                qx = qx_new
        step_s = time.perf_counter() - started - draw_s
        drawn, refilled, live = ((0, 0, 0) if draws is None else
                                 (draws.jumps, int(draws.refilled.sum()), int(draws.live.sum())))
        log.debug("affine batch: paths=%d steps=%d jumps=%d refilled_paths=%d live_paths=%d "
                  "draw_s=%.6f step_s=%.6f", m, n_steps, drawn, refilled, live, draw_s, step_s)
        return x, y, z

    x_out, y_out, z_out = map(np.concatenate, zip(*_rng.map_batches(batch, n_paths, batch_size)))
    bonds, spreads = _model_curves(spec, x_out, y_out, maturities - horizon)
    return PathSet(
        time=horizon,
        maturities=maturities,
        numeraire=np.exp(-z_out),
        bonds=bonds,
        spreads=spreads,
        seed=seed,
        dt=dt,
    )


# ---------------------------------------------------------------------------
# Fourier caplet


def _weighted_payoff_transform(spec, i, T, phi_b, psi_b, z, tol=None):
    """Lambda(z) = E[exp(Z_T + phi_b + <psi_b, X_T>) * exp(z * l_T)].

    l_T is the log of the capped ratio, l_T = u.Y_T - phi_b - <psi_b, X_T>;
    z may be a complex array.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    V = (1.0 - z)[:, None] * psi_b[None, :]
    U = z[:, None] * spec.u_vectors[i][None, :]
    phi, psi = _terminal_exponents(spec, V, U, 1.0, T, tol)
    return np.exp(
        (1.0 - z) * phi_b + phi + psi @ spec.x0 + (U @ spec.y0)
    )


@functools.cache
def _gauss_legendre():
    """The _QUAD_NODES-node Gauss-Legendre nodes and weights on [-1, 1], as
    read-only arrays, computed on the first call (an eigenproblem, and the
    numpy.polynomial import, which importing this module does not pay)."""
    nodes, weights = np.polynomial.legendre.leggauss(_QUAD_NODES)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _caplet_contour_prices(spec, T, i, kappas, tail_tol=1e-12, tol=None):
    """Unit-notional caplet prices for several cap factors on one contour.

    The damped transform values are strike independent, so each group of
    panels (the plan, then 1, 2, 4, ... tail panels) is one batch of Riccati
    solves for every finite ``kappa = 1 + delta K > 0`` (ValueError
    otherwise), logged in one DEBUG record.  Raises DampingOutOfDomain when
    the damped moment explodes before T and QuadratureNonConvergence when
    the tail stays above ``tail_tol`` after ``_MAX_PANELS`` panels.
    """
    kappas = np.asarray(kappas, dtype=float)
    if not np.all(np.isfinite(kappas) & (kappas > 0.0)):
        raise ValueError("contour pricing requires finite cap factors above zero")
    delta = float(spec.tenors[i])
    phi_b, psi_b = _exponents(spec, delta, tol=tol)
    phi_b, psi_b = float(phi_b[0]), psi_b[0]

    def transform(z):
        return _weighted_payoff_transform(spec, i, T, phi_b, psi_b, z, tol)

    step = 0.5 * _DAMPING
    try:
        probe = transform(
            np.array([1.0 + _DAMPING, 1.0 - step, 1.0, 1.0 + step])
        ).real
    except RiccatiExplosion as exc:
        raise DampingOutOfDomain(
            f"damped moment 1 + {_DAMPING} explodes before T (at {exc.blow_up_time:.4g})"
        ) from exc
    # curvature of log E[W e^{z l}] in z is the variance of l under the
    # tilted measure; the contour integrand decays on the scale 1/sigma
    log_probe = np.log(probe[1:])
    variance = (log_probe[2] - 2.0 * log_probe[1] + log_probe[0]) / step**2
    sigma = math.sqrt(max(float(variance), 1e-10))
    panel_width = float(np.clip(2.5 / sigma, 8.0, 4000.0))

    log_strikes = np.log(kappas)
    nodes, weights = _gauss_legendre()
    # the contour factor 1/(zs (zs+1)) has poles a distance ``_DAMPING`` off
    # the axis, so panels near v = 0 are refined geometrically before
    # marching outward on the variance scale
    edges = [0.0]
    e = 2.0 * _DAMPING
    while e < panel_width:
        edges.append(e)
        e *= 4.0
    # the width targets roughly three marching panels to push a
    # Gaussian-type tail below tail_tol, so those solve as one batch
    plan = edges + [edges[-1] + k * panel_width for k in (1, 2, 3)]
    plan = plan[:_MAX_PANELS + 1]

    # one Riccati batch per group: the plan, then 1, 2, 4, ... tail panels;
    # from the last planned panel on, the first one below tail_tol stops it
    panels = list(zip(plan[:-1], np.diff(plan)))
    n_plan = len(panels)
    panels += [(plan[-1] + k * panel_width, panel_width) for k in range(_MAX_PANELS - n_plan)]
    totals = np.zeros(len(kappas))
    lo, hi = 0, n_plan
    while lo < len(panels):
        group = panels[lo:hi]
        zs = _DAMPING + 1j * np.concatenate([a + 0.5 * w * (nodes + 1.0) for a, w in group])
        vals = transform(1.0 + zs) / (zs * (zs + 1.0))
        rows = zip(group, zs.reshape(-1, _QUAD_NODES), vals.reshape(-1, _QUAD_NODES))
        for used, ((_, width), z, val) in enumerate(rows, start=lo + 1):
            integrand = (np.exp(-np.outer(log_strikes, z)) * val).real
            totals += 0.5 * width * (integrand @ weights)
            if used >= n_plan and np.max(np.abs(integrand)) < tail_tol:
                log.debug("caplet contour: strikes=%d panels=%d solved_panels=%d",
                          len(kappas), used, lo + len(group))
                return totals / math.pi
        lo, hi = hi, 2 * hi - n_plan + 1
    raise QuadratureNonConvergence(f"integrand tail above {tail_tol:g} after {_MAX_PANELS} panels")


def caplet_price_fourier(spec: AffineModelSpec, T: float, tenor: Tenor | int,
                         fixed_rate: float, notional: float = 1.0) -> float:
    """Caplet on the Libor fixing at T via damped Fourier inversion.

    The discounted payoff is a bond-weighted call on the exponential of
    l_T = u.Y_T - phi_b - <psi_b, X_T> struck at 1 + delta K, so the price
    is recovered from the weighted transform along the contour
    z = 1 + 0.75 + i v (damping 0.75).  Gauss-Legendre panels of 64 nodes,
    their width scaled to the payoff-log variance (which a second difference
    of the log transform at real arguments estimates cheaply), are added
    until the integrand tail falls below 1e-12, at most 64 panels; the panels
    past the plan are solved in groups of 1, 2, 4, ...  A spec without any
    noise is priced by the exact positive-part formula instead.  A
    non-finite ``fixed_rate`` raises ValueError.
    """
    if not math.isfinite(fixed_rate):
        raise ValueError(f"fixed_rate must be finite, got {fixed_rate}")
    i = spec.tenor_index(tenor)
    delta = float(spec.tenors[i])
    kappa = 1.0 + delta * fixed_rate

    if kappa <= 0.0 or spec.is_deterministic():
        phi_b, psi_b = _exponents(spec, delta)
        phi_b, psi_b = float(phi_b[0]), psi_b[0]
        base = _weighted_payoff_transform(
            spec, i, T, phi_b, psi_b, np.array([0.0, 1.0])).real
        if kappa <= 0.0:
            return notional * float(base[1] - kappa * base[0])
        return notional * max(float(base[1] - kappa * base[0]), 0.0)

    totals = _caplet_contour_prices(spec, T, i, [kappa])
    return notional * float(totals[0])
