"""Affine multi-curve models: transform ODEs, curves, simulation, Fourier pricing.

The model state is (X, Y, Z): X is a canonical affine driver on
R^p_+ x R^q (positive components first), Y collects spread factors whose
characteristics depend on X only, and Z = -integral of the short rate
r = rate_const + <rate_linear, X> so the bank account is exp(-Z).  Discount
bonds and multiplicative tenor spreads are exponentials of affine transforms
of the state; the transform exponents solve generalized Riccati ODEs that are
assembled here from the model coefficients and integrated with fixed-step RK4
plus a Richardson accuracy check.

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

import cmath
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import rng as _rng
from .products import PathSet
from .rng import path_generator  # bench/trace.py wraps it under this name
from .termstructure import Tenor

EXPLOSION_THRESHOLD = 1e12
RICHARDSON_TOL = 1e-10
BASE_STEPS = 1000
MAX_STEPS = 16000


class RiccatiExplosion(RuntimeError):
    """Transform exponent left the tracked domain (norm above 1e12)."""

    def __init__(self, message: str, blow_up_time: float):
        super().__init__(message)
        self.blow_up_time = blow_up_time


class RiccatiAccuracyError(RuntimeError):
    """Richardson error estimate stayed above tolerance after refinement."""


class DampingOutOfDomain(ValueError):
    """The damped payoff transform is not finite for the requested damping."""


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
            raise ValueError("jump probabilities must be nonnegative and sum to one")


@dataclass
class AffineModelSpec:
    """Coefficients and initial state of an affine multi-curve model.

    The driver X lives on R^pos_dims_+ x R^real_dims with drift
    drift_const + drift_linear @ x and diffusion matrix
    diffusion_const + sum_k x_k diffusion_linear[k].  Admissibility of the
    positive block (inward drift, boundary-degenerate diffusion) is validated
    on construction and follows the canonical state-space conditions.
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

    def verify_exponent_domain(self, horizon: float) -> bool:
        """Check (0, u_i, 1) arguments stay finite up to the horizon.

        Raises RiccatiExplosion on failure, returns True otherwise.
        """
        zero = np.zeros(self.dim)
        _terminal_exponents(self, zero[None, :], np.zeros((1, self.n_spread)), 1.0, horizon)
        for u in self.u_vectors:
            _terminal_exponents(self, zero[None, :], u[None, :], 1.0, horizon)
        return True

    def _validate_admissibility(self):
        d, p = self.dim, self.pos_dims
        _check_psd(self.diffusion_const, "diffusion_const")
        if np.any(np.abs(self.diffusion_const[:p, :]) > 0):
            raise ValueError("constant diffusion must vanish on positive components")
        for k in range(d):
            alpha = self.diffusion_linear[k]
            if k >= p:
                if np.any(alpha != 0.0):
                    raise ValueError("real components admit no state-scaled diffusion")
                continue
            _check_psd(alpha, f"diffusion_linear[{k}]")
            idx = np.arange(d)
            other_pos = (idx < p) & (idx != k)
            if np.any(alpha[other_pos, :] != 0.0) or np.any(alpha[:, other_pos] != 0.0):
                raise ValueError(
                    f"diffusion_linear[{k}] couples positive components other than {k}"
                )
        if np.any(self.drift_const[:p] < 0):
            raise ValueError("constant drift must point inward on positive components")
        off = self.drift_linear[:p, :p].copy()
        np.fill_diagonal(off, 0.0)
        if np.any(off < 0):
            raise ValueError("linear drift must be inward-pointing on positive components")
        if np.any(self.drift_linear[:p, p:] != 0.0):
            raise ValueError("real components may not drive positive components")
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
                raise ValueError("jump intensity must be nonnegative on the state space")
            if np.any(j.intensity_linear[p:] != 0.0):
                raise ValueError("jump intensity may not load on real components")
            if np.any(j.atoms_x[:, :p] < 0):
                raise ValueError("jumps must keep positive components nonnegative")
        _check_psd(self.y_diff_const, "y_diff_const")
        for k in range(d):
            if k >= p and np.any(self.y_diff_linear[k] != 0.0):
                raise ValueError("spread diffusion may scale with positive components only")
            _check_psd(self.y_diff_linear[k], f"y_diff_linear[{k}]")
        if np.any(self.x0[:p] < 0):
            raise ValueError("x0 must respect the positive components")


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
        raise ValueError(f"{name} must be symmetric")
    if np.linalg.eigvalsh(m).min() < -1e-10:
        raise ValueError(f"{name} must be positive semidefinite")


# ---------------------------------------------------------------------------
# generalized Riccati system
#
# The transform E[exp(<v, X_T> + u.Y_T + w Z_T)] = exp(phi + <psi, x> + u.y
# + w z) requires phi' = F(psi), psi' = R(psi) with the coefficient of y and
# z frozen at (u, w).  Both maps are quadratic in psi with u- and w-dependent
# constants, assembled below once per solve.


def _solve_constants(spec: AffineModelSpec, U: np.ndarray, w: complex):
    """Per-argument constant terms of (F, R) and jump atom factors."""
    f_const = U @ spec.y_drift_const - w * spec.rate_const
    if spec.y_diff_const.size:
        f_const = f_const + 0.5 * np.einsum("bi,ij,bj->b", U, spec.y_diff_const, U)
    r_const = U @ spec.y_drift_linear - w * spec.rate_linear[None, :]
    if spec.n_spread:
        r_const = r_const + 0.5 * np.einsum(
            "bi,kij,bj->bk", U, spec.y_diff_linear, U
        )
    atom_factors = None
    if spec.jumps is not None:
        atom_factors = np.exp(U @ spec.jumps.atoms_y.T)  # (batch, n_atoms)
    return f_const, r_const, atom_factors


def _batch_rates(spec: AffineModelSpec, psi: np.ndarray, f_const, r_const, atom_factors):
    """(F, R) for a batch of psi rows; quadratic + linear + jump parts."""
    lin = psi @ spec.diffusion_const
    f_val = psi @ spec.drift_const + 0.5 * np.sum(lin * psi, axis=1) + f_const
    r_val = psi @ spec.drift_linear + r_const
    if np.any(spec.diffusion_linear):
        quad = np.einsum("bi,kij,bj->bk", psi, spec.diffusion_linear, psi)
        r_val = r_val + 0.5 * quad
    if atom_factors is not None:
        j = spec.jumps
        transformed = (np.exp(psi @ j.atoms_x.T) * atom_factors - 1.0) @ j.probabilities
        f_val = f_val + j.intensity_const * transformed
        r_val = r_val + transformed[:, None] * j.intensity_linear[None, :]
    return f_val, r_val


def _rk4_batch(spec, v, f_const, r_const, atom_factors, horizon, n_steps,
               keep_grid=False):
    """Fixed-step RK4 in scaled time; raises RiccatiExplosion on blow-up."""
    batch = len(v)
    scale = np.broadcast_to(np.asarray(horizon, dtype=float), (batch,))
    psi = v.astype(complex).copy()
    phi = np.zeros(batch, dtype=complex)
    h = 1.0 / n_steps
    grid_phi = [phi.copy()] if keep_grid else None
    grid_psi = [psi.copy()] if keep_grid else None

    def rates(p):
        f_val, r_val = _batch_rates(spec, p, f_const, r_const, atom_factors)
        return scale * f_val, scale[:, None] * r_val

    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n_steps):
            f1, r1 = rates(psi)
            f2, r2 = rates(psi + 0.5 * h * r1)
            f3, r3 = rates(psi + 0.5 * h * r2)
            f4, r4 = rates(psi + h * r3)
            phi = phi + (h / 6.0) * (f1 + 2 * f2 + 2 * f3 + f4)
            psi = psi + (h / 6.0) * (r1 + 2 * r2 + 2 * r3 + r4)
            norms = np.maximum(np.abs(phi), np.abs(psi).max(axis=1))
            bad = ~np.isfinite(norms) | (norms > EXPLOSION_THRESHOLD)
            if np.any(bad):
                t_blow = (step + 1) * h * float(scale[np.argmax(bad)])
                raise RiccatiExplosion(
                    f"transform exponent exceeded {EXPLOSION_THRESHOLD:g}",
                    blow_up_time=t_blow,
                )
            if keep_grid:
                grid_phi.append(phi.copy())
                grid_psi.append(psi.copy())
    if keep_grid:
        return np.array(grid_phi), np.array(grid_psi)
    return phi, psi


def _rk4_scalar(spec, v0, f_const, r_const, atom_factors, horizon, n_steps,
                keep_grid=False):
    """Python-scalar RK4 for one-dimensional drivers (much faster than numpy)."""
    b = float(spec.drift_const[0])
    bm = float(spec.drift_linear[0, 0])
    a = float(spec.diffusion_const[0, 0])
    alpha = float(spec.diffusion_linear[0, 0, 0])
    fc = complex(f_const)
    rc = complex(r_const)
    jumps = spec.jumps
    if jumps is not None:
        zx = [float(z) for z in jumps.atoms_x[:, 0]]
        pw = [float(p) * complex(e) for p, e in zip(jumps.probabilities, atom_factors)]
        m0 = float(jumps.intensity_const)
        m1 = float(jumps.intensity_linear[0])
    T = float(horizon)
    h = 1.0 / n_steps
    psi = complex(v0)
    phi = 0.0 + 0.0j
    grid_phi = [phi] if keep_grid else None
    grid_psi = [psi] if keep_grid else None

    def rates(p):
        f_val = b * p + 0.5 * a * p * p + fc
        r_val = bm * p + 0.5 * alpha * p * p + rc
        if jumps is not None:
            try:
                j = sum(w * cmath.exp(z * p) for z, w in zip(zx, pw)) - sum(
                    w for w in pw
                )
            except OverflowError:
                j = complex(float("inf"), 0.0)
            f_val += m0 * j
            r_val += m1 * j
        return T * f_val, T * r_val

    for step in range(n_steps):
        f1, r1 = rates(psi)
        f2, r2 = rates(psi + 0.5 * h * r1)
        f3, r3 = rates(psi + 0.5 * h * r2)
        f4, r4 = rates(psi + h * r3)
        phi = phi + (h / 6.0) * (f1 + 2 * f2 + 2 * f3 + f4)
        psi = psi + (h / 6.0) * (r1 + 2 * r2 + 2 * r3 + r4)
        norm = max(abs(phi), abs(psi))
        if not norm == norm or norm > EXPLOSION_THRESHOLD:  # NaN-safe
            raise RiccatiExplosion(
                f"transform exponent exceeded {EXPLOSION_THRESHOLD:g}",
                blow_up_time=(step + 1) * h * T,
            )
        if keep_grid:
            grid_phi.append(phi)
            grid_psi.append(psi)
    if keep_grid:
        return np.array(grid_phi), np.array(grid_psi)[:, None]
    return phi, psi


def _terminal_exponents(spec: AffineModelSpec, V: np.ndarray, U: np.ndarray,
                        w: complex, horizon, base_steps: int | None = None,
                        tol: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Batched (phi, psi) at the horizon with Richardson refinement.

    V: (batch, d) complex or real initial psi rows; U: (batch, n) exponent
    loadings on Y; w: shared Z loading; horizon: scalar or (batch,) array.
    base_steps and tol override the module accuracy defaults, which callers
    with relaxed accuracy needs (repeated calibration objectives) use.
    """
    base_steps = BASE_STEPS if base_steps is None else base_steps
    tol = RICHARDSON_TOL if tol is None else tol
    V = np.atleast_2d(np.asarray(V, dtype=complex))
    U = np.atleast_2d(np.asarray(U, dtype=complex))
    f_const, r_const, atom_factors = _solve_constants(spec, U, w)
    horizon_arr = np.broadcast_to(np.asarray(horizon, dtype=float), (len(V),))
    if np.any(horizon_arr < 0):
        raise ValueError("horizon must be nonnegative")
    if np.all(horizon_arr == 0.0):
        return np.zeros(len(V), dtype=complex), V.copy()

    def run(n_steps):
        # scalar arithmetic beats numpy overhead for a handful of 1-d solves;
        # larger batches amortize the numpy per-step cost instead
        if spec.dim == 1 and len(V) <= 8:
            phis = np.empty(len(V), dtype=complex)
            psis = np.empty((len(V), 1), dtype=complex)
            for i in range(len(V)):
                af = atom_factors[i] if atom_factors is not None else None
                phis[i], psis[i, 0] = _rk4_scalar(
                    spec, V[i, 0], f_const[i], r_const[i, 0], af,
                    horizon_arr[i], n_steps,
                )
            return phis, psis
        return _rk4_batch(spec, V, f_const, r_const, atom_factors,
                          horizon_arr, n_steps)

    n_steps = base_steps
    phi_c, psi_c = run(n_steps)
    while True:
        phi_f, psi_f = run(2 * n_steps)
        err = max(
            float(np.max(np.abs(phi_f - phi_c))),
            float(np.max(np.abs(psi_f - psi_c))),
        ) / 15.0
        if err <= tol:
            return phi_f, psi_f
        n_steps *= 2
        if 2 * n_steps > MAX_STEPS:
            raise RiccatiAccuracyError(
                f"Richardson estimate {err:.2e} above {tol:g} "
                f"at {2 * n_steps} steps"
            )
        phi_c, psi_c = phi_f, psi_f


@dataclass
class RiccatiSolution:
    """Transform exponent path t -> (phi(t), psi(t)) for one argument."""

    times: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    argument: tuple

    @property
    def phi_terminal(self) -> complex:
        return complex(self.phi[-1])

    @property
    def psi_terminal(self) -> np.ndarray:
        return self.psi[-1]


def solve_riccati(spec: AffineModelSpec, v, u, w, T: float) -> RiccatiSolution:
    """Integrate the exponent ODEs for one argument, keeping the time grid.

    phi and psi satisfy phi(0) = 0, psi(0) = v and drive the transform
    E[exp(<v, X_T> + u.Y_T + w Z_T)] = exp(phi(T) + <psi(T), x0> + u.y0).
    Fixed-step RK4 with a Richardson accuracy check at the terminal point;
    raises RiccatiExplosion when the solution norm passes 1e12.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    v = _vec_complex(v, spec.dim, "v")
    u = _vec_complex(u, spec.n_spread, "u")
    w = complex(w)
    f_const, r_const, atom_factors = _solve_constants(spec, u[None, :], w)
    # terminal pass first: raises on explosion or insufficient accuracy
    _terminal_exponents(spec, v[None, :], u[None, :], w, T)
    n_steps = 2 * BASE_STEPS
    if spec.dim == 1:
        af = atom_factors[0] if atom_factors is not None else None
        phi, psi = _rk4_scalar(spec, v[0], f_const[0], r_const[0, 0], af, T,
                               n_steps, keep_grid=True)
    else:
        phi, psi = _rk4_batch(spec, v[None, :], f_const, r_const, atom_factors,
                              T, n_steps, keep_grid=True)
        phi, psi = phi[:, 0], psi[:, 0, :]
    times = np.linspace(0.0, T, n_steps + 1)
    return RiccatiSolution(times=times, phi=phi, psi=psi, argument=(v, u, w))


def _vec_complex(value, length, name):
    out = np.atleast_1d(np.asarray(value, dtype=complex))
    if length == 0 and out.size in (0, 1) and not np.any(out):
        return np.zeros(0, dtype=complex)
    if out.shape != (length,):
        raise ValueError(f"{name} must have shape ({length},)")
    return out


# ---------------------------------------------------------------------------
# transforms and curve formulas


def affine_transform(spec: AffineModelSpec, v, u, w, T: float) -> complex:
    """E[exp(<v, X_T> + u.Y_T + w Z_T)] evaluated at the spec's initial state."""
    v = _vec_complex(v, spec.dim, "v")
    u = _vec_complex(u, spec.n_spread, "u")
    phi, psi = _terminal_exponents(spec, v[None, :], u[None, :], complex(w), T)
    return complex(np.exp(phi[0] + psi[0] @ spec.x0 + u @ spec.y0))


def _bond_exponents(spec: AffineModelSpec, taus: np.ndarray):
    """Real (phi, psi) rows of the discount exponent at times-to-maturity taus."""
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    phi, psi = _terminal_exponents(
        spec, np.zeros((len(taus), spec.dim)), np.zeros((len(taus), spec.n_spread)),
        1.0, taus,
    )
    return phi.real, psi.real


def _spread_exponents(spec: AffineModelSpec, i: int, taus: np.ndarray):
    """Real (phi, psi) rows of the joint exponent with loading u_i."""
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    U = np.broadcast_to(spec.u_vectors[i], (len(taus), spec.n_spread))
    phi, psi = _terminal_exponents(spec, np.zeros((len(taus), spec.dim)), U, 1.0, taus)
    return phi.real, psi.real


def affine_bond(spec: AffineModelSpec, x, tau):
    """Discount bond B(t, t + tau) as a function of the driver state x.

    Scalar tau gives a float; an array of taus gives an array.  Strictly
    positive by construction (exponential of a real affine form).
    """
    x = _vec(x, spec.dim, "x")
    tau_arr = np.atleast_1d(np.asarray(tau, dtype=float))
    phi, psi = _bond_exponents(spec, tau_arr)
    out = np.exp(phi + psi @ x)
    return out if np.ndim(tau) else float(out[0])


def affine_spread(spec: AffineModelSpec, x, y, tau, i: int):
    """Multiplicative spread S^i(t, t + tau) at driver state x, spread state y."""
    x = _vec(x, spec.dim, "x")
    y = _vec(y, spec.n_spread, "y")
    tau_arr = np.atleast_1d(np.asarray(tau, dtype=float))
    phi_b, psi_b = _bond_exponents(spec, tau_arr)
    phi_s, psi_s = _spread_exponents(spec, i, tau_arr)
    log_spot = float(spec.u_vectors[i] @ y)
    out = np.exp(log_spot + (phi_s - phi_b) + (psi_s - psi_b) @ x)
    return out if np.ndim(tau) else float(out[0])


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
    # one solve per distinct time so that t = 0 cancels bitwise
    times = sorted({float(t), float(T), float(tau)})
    phi_b, psi_b = _bond_exponents(spec, np.array(times))
    exps = {s: (phi_b[j], psi_b[j]) for j, s in enumerate(times)}

    def bond0(s):
        if s == 0.0:
            return 1.0
        ph, ps = exps[float(s)]
        return math.exp(ph + ps @ spec.x0)

    ph_tau, ps_tau = exps[float(tau)] if tau > 0 else (0.0, np.zeros(spec.dim))
    model_bond_t = math.exp(ph_tau + ps_tau @ x)
    bond = (market_disc.discount(T) / market_disc.discount(t)
            * bond0(t) / bond0(T) * model_bond_t)
    spread = None
    if tenor is not None:
        i = spec.tenor_index(tenor)
        y = _vec(y, spec.n_spread, "y")
        phi_s, psi_s = _spread_exponents(spec, i, np.array([tau, T]))
        ph_now, ps_now = exps[float(tau)]
        ph_zero, ps_zero = exps[float(T)]
        u = spec.u_vectors[i]
        model_now = math.exp(
            u @ y + phi_s[0] - ph_now + (psi_s[0] - ps_now) @ x
        )
        model_zero = math.exp(
            u @ spec.y0 + phi_s[1] - ph_zero + (psi_s[1] - ps_zero) @ spec.x0
        )
        curve = market_spreads if hasattr(market_spreads, "spread") \
            else market_spreads[spec.tenors[i]]
        spread = curve.spread(T) * model_now / model_zero
    return ShiftedCurves(bond=bond, spread=spread)


# ---------------------------------------------------------------------------
# simulation


def _ou_step_factors(spec: AffineModelSpec, dt: float):
    """Exact one-step law of a constant-coefficient OU driver.

    Returns (transition, mean_shift, noise_factor): X_{t+dt} = transition @ X_t
    + mean_shift + noise_factor @ xi.  Uses the augmented-matrix exponential
    for the mean and the block trick for the covariance integral.
    """
    from scipy.linalg import expm

    d = spec.dim
    bmat = spec.drift_linear
    aug = np.zeros((d + 1, d + 1))
    aug[:d, :d] = bmat * dt
    aug[:d, d] = spec.drift_const * dt
    e_aug = expm(aug)
    transition, mean_shift = e_aug[:d, :d], e_aug[:d, d]
    block = np.zeros((2 * d, 2 * d))
    block[:d, :d] = -bmat * dt
    block[:d, d:] = spec.diffusion_const * dt
    block[d:, d:] = bmat.T * dt
    e_block = expm(block)
    cov = e_block[d:, d:].T @ e_block[:d, d:]
    cov = 0.5 * (cov + cov.T)
    w, vecs = np.linalg.eigh(cov)
    noise_factor = vecs * np.sqrt(np.clip(w, 0.0, None))
    return transition, mean_shift, noise_factor


def _state_diffusion_factor(spec, x_block):
    """Batched matrix square roots of a(x) = a0 + sum_k x_k^+ alpha_k."""
    clipped = np.clip(x_block[:, : spec.pos_dims], 0.0, None)
    mats = np.broadcast_to(
        spec.diffusion_const, (len(x_block), spec.dim, spec.dim)
    ).copy()
    for k in range(spec.pos_dims):
        mats += clipped[:, k, None, None] * spec.diffusion_linear[k]
    w, vecs = np.linalg.eigh(mats)
    return vecs * np.sqrt(np.clip(w, 0.0, None))[:, None, :]


def _y_diffusion_factor(spec, x_block):
    clipped = np.clip(x_block[:, : spec.pos_dims], 0.0, None)
    mats = np.broadcast_to(
        spec.y_diff_const, (len(x_block), spec.n_spread, spec.n_spread)
    ).copy()
    for k in range(spec.pos_dims):
        mats += clipped[:, k, None, None] * spec.y_diff_linear[k]
    w, vecs = np.linalg.eigh(mats)
    return vecs * np.sqrt(np.clip(w, 0.0, None))[:, None, :]


def simulate_affine(spec: AffineModelSpec, horizon: float, dt: float,
                    n_paths: int, seed: int, maturities: Sequence[float],
                    batch_size: int = 65536) -> PathSet:
    """Simulate the state to the horizon and assemble a PathSet there.

    Pure-diffusion drivers without positive components step with the exact
    one-step OU law; anything with positive components steps with Euler,
    clipping negatives inside the diffusion argument only.  Z accrues the
    short rate by trapezoid and the spread factors accrue their affine drift
    the same way in both modes; diffusive factors add noise with the
    coefficient frozen at the step start.  Jump events use the intensity
    frozen at the step start.  Each path owns a counter-based stream keyed
    by (seed, path index): one normal block for the whole path, then
    per-step jump draws.  Without jumps the normal blocks come from
    ``rng.driver_increment_block``, which re-keys one Philox per path; with
    jumps each path of a batch holds its own generator, because its jump
    draws follow the step loop.  Without positive factors the spread
    diffusion factor does not depend on the state and is factored once per
    call rather than at every step.
    """
    if dt <= 0 or horizon <= 0:
        raise ValueError("horizon and dt must be positive")
    if dt > horizon:
        raise ValueError("dt exceeds the horizon")
    maturities = np.asarray(sorted(float(m) for m in maturities), dtype=float)
    if len(maturities) == 0 or maturities[0] < horizon - 1e-12:
        raise ValueError("maturities must lie at or beyond the horizon")
    n_steps = math.ceil(horizon / dt - 1e-12)
    step_sizes = np.full(n_steps, dt)
    step_sizes[-1] = horizon - dt * (n_steps - 1)

    d, n = spec.dim, spec.n_spread
    diffusive_y = spec.y_mode == "diffusive"
    n_noise = d + (n if diffusive_y else 0)
    exact_ou = spec.pos_dims == 0 and not np.any(spec.diffusion_linear)
    ou_factors = None
    if exact_ou:
        ou_factors = {
            float(h): _ou_step_factors(spec, float(h)) for h in np.unique(step_sizes)
        }

    # without positive factors the Y diffusion does not depend on the state
    fixed_y_factor = None
    if diffusive_y and spec.pos_dims == 0:
        fixed_y_factor = _y_diffusion_factor(spec, np.zeros((1, d)))[0]

    x_out = np.empty((n_paths, d))
    y_out = np.empty((n_paths, n))
    z_out = np.empty(n_paths)

    for lo in range(0, n_paths, batch_size):
        hi = min(lo + batch_size, n_paths)
        m = hi - lo
        if spec.jumps is None:
            normals, _ = _rng.driver_increment_block(seed, lo, hi, n_steps, n_noise)
        else:
            normals = np.empty((m, n_steps, n_noise))
            gens = []
            for i in range(m):
                gen = path_generator(seed, lo + i)
                normals[i] = gen.standard_normal((n_steps, n_noise))
                gens.append(gen)
        x = np.tile(spec.x0, (m, 1))
        y = np.tile(spec.y0, (m, 1))
        z = np.zeros(m)
        rate = spec.rate_const + x @ spec.rate_linear
        qx = spec.y_drift_const + x @ spec.y_drift_linear.T
        for step, h in enumerate(step_sizes):
            xi = normals[:, step, :d]
            if exact_ou:
                trans, mean_shift, chol = ou_factors[float(h)]
                x_new = x @ trans.T + mean_shift + xi @ chol.T
            else:
                factor = _state_diffusion_factor(spec, x)
                x_new = (
                    x + (spec.drift_const + x @ spec.drift_linear.T) * h
                    + math.sqrt(h) * np.einsum("bij,bj->bi", factor, xi)
                )
            if diffusive_y:
                eta = normals[:, step, d:]
                y_factor = (_y_diffusion_factor(spec, x) if fixed_y_factor is None
                            else np.broadcast_to(fixed_y_factor, (m, n, n)))
                y = y + math.sqrt(h) * np.einsum("bij,bj->bi", y_factor, eta)
            if spec.jumps is not None:
                jmp = spec.jumps
                lam = np.clip(
                    jmp.intensity_const + x @ jmp.intensity_linear, 0.0, None
                )
                for i in range(m):
                    count = gens[i].poisson(lam[i] * h)
                    for _ in range(count):
                        atom = gens[i].choice(len(jmp.probabilities), p=jmp.probabilities)
                        x_new[i] += jmp.atoms_x[atom]
                        y[i] += jmp.atoms_y[atom]
            x = x_new
            rate_new = spec.rate_const + x @ spec.rate_linear
            z -= 0.5 * h * (rate + rate_new)
            rate = rate_new
            qx_new = spec.y_drift_const + x @ spec.y_drift_linear.T
            y = y + 0.5 * h * (qx + qx_new)
            qx = qx_new
        x_out[lo:hi], y_out[lo:hi], z_out[lo:hi] = x, y, z

    taus = maturities - horizon
    phi_b, psi_b = _bond_exponents(spec, taus)
    bonds = np.exp(phi_b[None, :] + x_out @ psi_b.T)
    spreads = {}
    for i, tenor in enumerate(spec.tenors):
        phi_s, psi_s = _spread_exponents(spec, i, taus)
        log_spot = y_out @ spec.u_vectors[i]
        spreads[tenor] = np.exp(
            log_spot[:, None] + (phi_s - phi_b)[None, :] + x_out @ (psi_s - psi_b).T
        )
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


def _weighted_payoff_transform(spec, i, T, phi_b, psi_b, z,
                               base_steps=None, tol=None):
    """Lambda(z) = E[exp(Z_T + phi_b + <psi_b, X_T>) * exp(z * l_T)].

    l_T is the log of the capped ratio, l_T = u.Y_T - phi_b - <psi_b, X_T>;
    z may be a complex array.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    V = (1.0 - z)[:, None] * psi_b[None, :]
    U = z[:, None] * spec.u_vectors[i][None, :]
    phi, psi = _terminal_exponents(spec, V, U, 1.0, T, base_steps, tol)
    return np.exp(
        (1.0 - z) * phi_b + phi + psi @ spec.x0 + (U @ spec.y0)
    )


def _caplet_contour_prices(spec, T, i, kappas, damping=0.75, quad_nodes=64,
                           panel_width=None, tail_tol=1e-12, max_panels=64,
                           base_steps=None, tol=None):
    """Unit-notional caplet prices for several cap factors on one contour.

    The damped transform values are strike independent, so one batch of
    Riccati solves per quadrature panel prices every ``kappa =
    1 + delta K > 0`` at once.  Raises DampingOutOfDomain when the damped
    moment explodes before T and QuadratureNonConvergence when the tail
    stays above ``tail_tol`` after ``max_panels`` panels.
    """
    kappas = np.asarray(kappas, dtype=float)
    if np.any(kappas <= 0.0):
        raise ValueError("contour pricing requires cap factors above zero")
    delta = float(spec.tenors[i])
    phi_b_arr, psi_b_arr = _terminal_exponents(
        spec, np.zeros((1, spec.dim)), np.zeros((1, spec.n_spread)), 1.0,
        delta, base_steps, tol,
    )
    phi_b, psi_b = float(phi_b_arr[0].real), psi_b_arr[0].real

    def transform(z):
        return _weighted_payoff_transform(spec, i, T, phi_b, psi_b, z,
                                          base_steps, tol)

    if damping <= 0.0:
        raise DampingOutOfDomain("damping must be positive")
    step = 0.5 * min(damping, 1.0)
    try:
        probe = transform(
            np.array([1.0 + damping, 1.0 - step, 1.0, 1.0 + step])
        ).real
    except RiccatiExplosion as exc:
        raise DampingOutOfDomain(
            f"damped moment 1 + {damping} explodes before T (at {exc.blow_up_time:.4g})"
        ) from exc
    auto_width = panel_width is None
    if auto_width:
        # curvature of log E[W e^{z l}] in z is the variance of l under the
        # tilted measure; the contour integrand decays on the scale 1/sigma
        log_probe = np.log(probe[1:])
        variance = (log_probe[2] - 2.0 * log_probe[1] + log_probe[0]) / step**2
        sigma = math.sqrt(max(float(variance), 1e-10))
        panel_width = float(np.clip(2.5 / sigma, 8.0, 4000.0))

    log_strikes = np.log(kappas)
    nodes, weights = np.polynomial.legendre.leggauss(quad_nodes)
    # the contour factor 1/(zs (zs+1)) has poles a distance ``damping`` off
    # the axis, so panels near v = 0 are refined geometrically before
    # marching outward on the variance scale
    edges = [0.0]
    e = 2.0 * damping
    while e < panel_width:
        edges.append(e)
        e *= 4.0
    # the auto width targets roughly three marching panels to push a
    # Gaussian-type tail below tail_tol, so those solve as one batch
    n_march = 3 if auto_width else 1
    while len(edges) - 1 + n_march > max_panels and n_march > 1:
        n_march -= 1
    plan = list(edges)
    for k in range(n_march):
        plan.append(edges[-1] + (k + 1) * panel_width)
    plan = plan[:max_panels + 1]

    def panel_sum(width, zs, vals):
        integrand = (np.exp(-np.outer(log_strikes, zs)) * vals).real
        return 0.5 * width * (integrand @ weights), np.max(np.abs(integrand))

    halves = 0.5 * np.diff(np.asarray(plan))
    v_all = np.concatenate([
        plan[j] + halves[j] * (nodes + 1.0) for j in range(len(halves))
    ])
    zs_all = damping + 1j * v_all
    vals_all = transform(1.0 + zs_all) / (zs_all * (zs_all + 1.0))
    totals = np.zeros(len(kappas))
    tail_max = math.inf
    for j in range(len(halves)):
        sl = slice(j * quad_nodes, (j + 1) * quad_nodes)
        contrib, tail_max = panel_sum(
            plan[j + 1] - plan[j], zs_all[sl], vals_all[sl])
        totals += contrib
    converged = tail_max < tail_tol
    panels_used = len(halves)
    while not converged and panels_used < max_panels:
        a = plan[-1] + (panels_used - len(halves)) * panel_width
        v = a + 0.5 * panel_width * (nodes + 1.0)
        zs = damping + 1j * v
        vals = transform(1.0 + zs) / (zs * (zs + 1.0))
        contrib, tail_max = panel_sum(panel_width, zs, vals)
        totals += contrib
        converged = tail_max < tail_tol
        panels_used += 1
    if not converged:
        raise QuadratureNonConvergence(
            f"integrand tail above {tail_tol:g} after {max_panels} panels"
        )
    return totals / math.pi


def caplet_price_fourier(spec: AffineModelSpec, T: float, tenor: Tenor | int,
                         fixed_rate: float, notional: float = 1.0,
                         damping: float = 0.75, quad_nodes: int = 64,
                         panel_width: float | None = None,
                         tail_tol: float = 1e-12,
                         max_panels: int = 64) -> float:
    """Caplet on the Libor fixing at T via damped Fourier inversion.

    The discounted payoff is a bond-weighted call on the exponential of
    l_T = u.Y_T - phi_b - <psi_b, X_T> struck at 1 + delta K, so the price
    is recovered from the weighted transform along the damped contour
    z = 1 + damping + i v.  Gauss-Legendre panels are added until the
    integrand tail falls below ``tail_tol``.  When ``panel_width`` is left
    unset it is scaled to the payoff-log variance, which a second difference
    of the log transform at real arguments estimates cheaply.  A spec
    without any noise is priced by the exact positive-part formula instead.
    """
    i = spec.tenor_index(tenor)
    delta = float(spec.tenors[i])
    kappa = 1.0 + delta * fixed_rate

    if kappa <= 0.0 or spec.is_deterministic():
        phi_b_arr, psi_b_arr = _bond_exponents(spec, np.array([delta]))
        phi_b, psi_b = float(phi_b_arr[0]), psi_b_arr[0]
        base = _weighted_payoff_transform(
            spec, i, T, phi_b, psi_b, np.array([0.0, 1.0])).real
        if kappa <= 0.0:
            return notional * float(base[1] - kappa * base[0])
        return notional * max(float(base[1] - kappa * base[0]), 0.0)

    totals = _caplet_contour_prices(
        spec, T, i, [kappa], damping=damping, quad_nodes=quad_nodes,
        panel_width=panel_width, tail_tol=tail_tol, max_panels=max_panels,
    )
    return notional * float(totals[0])
