"""Forward-curve dynamics for a discount curve and multiplicative tenor spreads.

The model state is one instantaneous-forward curve for the discounting
(overnight) term structure and one forward spread-rate curve per tenor, all
driven by a common finite-activity Levy process.  Under the pricing measure
the curves carry no-arbitrage drifts expressed through the driver's
log-moment generating function ("exponent" below), and the spot spreads stay
consistent with an auxiliary factor Y whose local exponent matches each
spread curve's short end.

Two simulation engines share one stepping scheme (explicit Euler in the
rolling time-to-maturity parametrization, increments applied at the left
endpoint of each step):

* ``grid``: the literal scheme; curves stored on a fixed grid and shifted by
  whole cells each step, which requires the step to be a multiple of the cell
  width.  Works with state-dependent volatilities.  Memory per path is the
  whole curve.
* ``factor``: for exponential volatilities s * exp(-a * (T - t)) the noise
  term of every curve node is g(tau) times a scalar recursion per (curve,
  driver component) pair, and drift terms are deterministic lookups, so each
  path carries only a handful of scalars.  Produces the same values as
  ``grid`` up to float roundoff.

Both integrate bonds from curves by the trapezoid rule on the grid (with a
linearly interpolated partial cell at off-grid maturities) and accumulate the
bank account with left-endpoint rectangles, so the two engines agree node for
node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import rng as _rng
from .momentkernel import KernelFamily
from .products import PathSet
from .termstructure import Tenor

__all__ = [
    "GridMismatch",
    "SimulationAborted",
    "LevyTriplet",
    "ExponentialVolatility",
    "StateDependentVolatility",
    "LevyHjmModel",
    "MusielaState",
    "HjmSimulationResult",
    "ois_drift",
    "spread_drift",
    "spread_drift_adjustment",
    "simulate_hjm",
    "consistency_residual",
]

ABORT_FRACTION = 1e-3


class GridMismatch(ValueError):
    """Step size, grid cell, or observation times are not commensurate."""


class SimulationAborted(RuntimeError):
    """More than the tolerated fraction of paths hit NaN or overflow."""


# ---------------------------------------------------------------------------
# driver


@dataclass(frozen=True)
class LevyTriplet:
    """Finite-activity Levy driver: drift b, covariance c, compound-Poisson jumps.

    ``jump_sizes`` has one row per atom; ``jump_intensities`` are the atom
    arrival rates.  The exponent is

        Psi(beta) = beta.b + 0.5 beta.c.beta + sum_j lam_j (e^{beta.xi_j} - 1),

    finite for every beta since the jump measure has finitely many atoms.
    """

    drift: np.ndarray
    covariance: np.ndarray
    jump_sizes: np.ndarray = field(default_factory=lambda: np.zeros((0, 1)))
    jump_intensities: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        b = np.atleast_1d(np.asarray(self.drift, dtype=float))
        c = np.atleast_2d(np.asarray(self.covariance, dtype=float))
        xi = np.asarray(self.jump_sizes, dtype=float)
        if xi.ndim == 1:
            xi = xi[:, None]
        if xi.size == 0:
            xi = np.zeros((0, len(b)))
        lam = np.atleast_1d(np.asarray(self.jump_intensities, dtype=float))
        object.__setattr__(self, "drift", b)
        object.__setattr__(self, "covariance", c)
        object.__setattr__(self, "jump_sizes", xi)
        object.__setattr__(self, "jump_intensities", lam)
        d = len(b)
        if c.shape != (d, d):
            raise ValueError(f"covariance must be {d}x{d}, got {c.shape}")
        if not np.allclose(c, c.T, atol=1e-12):
            raise ValueError("covariance must be symmetric")
        if xi.shape[1] != d:
            raise ValueError("jump sizes must have one column per driver dimension")
        if xi.shape[0] != len(lam):
            raise ValueError("one intensity per jump atom required")
        if np.any(lam < 0):
            raise ValueError("jump intensities must be nonnegative")

    @property
    def dim(self) -> int:
        return len(self.drift)

    def exponent(self, beta) -> np.ndarray | float:
        """Log-mgf Psi(beta); beta may be a vector or a stack of vectors."""
        beta_arr = np.atleast_2d(np.asarray(beta, dtype=float))
        out = beta_arr @ self.drift + 0.5 * np.einsum(
            "ij,jk,ik->i", beta_arr, self.covariance, beta_arr
        )
        if len(self.jump_intensities) > 0:
            out = out + (np.exp(beta_arr @ self.jump_sizes.T) - 1.0) @ self.jump_intensities
        return out if np.ndim(beta) > 1 else float(out[0])

    def exponent_gradient(self, beta) -> np.ndarray:
        """Gradient of the exponent, batched over stacked beta rows."""
        beta_arr = np.atleast_2d(np.asarray(beta, dtype=float))
        grad = self.drift + beta_arr @ self.covariance
        if len(self.jump_intensities) > 0:
            weights = self.jump_intensities * np.exp(beta_arr @ self.jump_sizes.T)
            grad = grad + weights @ self.jump_sizes
        return grad if np.ndim(beta) > 1 else grad[0]

    def diffusion_factor(self) -> np.ndarray:
        """Matrix L with L L^T = covariance (Cholesky, eigen fallback when singular)."""
        if not np.any(self.covariance):
            return np.zeros_like(self.covariance)
        try:
            return np.linalg.cholesky(self.covariance)
        except np.linalg.LinAlgError:
            vals, vecs = np.linalg.eigh(self.covariance)
            return vecs * np.sqrt(np.clip(vals, 0.0, None))


# ---------------------------------------------------------------------------
# volatilities


@dataclass(frozen=True)
class ExponentialVolatility:
    """Deterministic loadings sigma_c(t, T) = scale_c * exp(-decay_c * (T - t)).

    One entry per curve-driving component of the driver.  The running
    integral int_0^tau sigma_c has the closed form scale * (1 - e^{-a tau})/a,
    degenerating to scale * tau for a = 0.
    """

    scales: np.ndarray
    decays: np.ndarray

    def __post_init__(self):
        s = np.atleast_1d(np.asarray(self.scales, dtype=float))
        a = np.atleast_1d(np.asarray(self.decays, dtype=float))
        object.__setattr__(self, "scales", s)
        object.__setattr__(self, "decays", a)
        if s.shape != a.shape:
            raise ValueError("scales and decays must have matching shapes")
        if np.any(a < 0):
            raise ValueError("decays must be nonnegative")

    @classmethod
    def flat(cls, scale: float, n_components: int = 1) -> "ExponentialVolatility":
        return cls(np.full(n_components, scale), np.zeros(n_components))

    @property
    def n_components(self) -> int:
        return len(self.scales)

    def values(self, tau) -> np.ndarray:
        """sigma(tau), shape (..., n_components)."""
        tau_arr = np.asarray(tau, dtype=float)[..., None]
        return self.scales * np.exp(-self.decays * tau_arr)

    def integrals(self, tau) -> np.ndarray:
        """int_0^tau sigma(x) dx, shape (..., n_components)."""
        tau_arr = np.asarray(tau, dtype=float)[..., None]
        safe = np.where(self.decays > 0, self.decays, 1.0)
        return np.where(
            self.decays > 0,
            self.scales * -np.expm1(-self.decays * tau_arr) / safe,
            self.scales * tau_arr,
        )


@dataclass(frozen=True)
class StateDependentVolatility:
    """Volatility loadings that read the current curve, with declared bounds.

    ``func(theta, tau)`` receives one path's curve values on the grid and the
    time-to-maturity grid, and returns loadings of shape (n_components,
    len(tau)).  ``growth_bound`` C, ``lipschitz_bound`` L and
    ``derivative_bound`` M declare |sigma| <= C * (1 + max|theta|), a
    Lipschitz modulus in theta, and a bound on the tau-derivative; the grid
    engine spot checks the growth bound every step and raises on violation.
    Only the grid engine accepts these.
    """

    func: Callable[[np.ndarray, np.ndarray], np.ndarray]
    n_components: int
    growth_bound: float
    lipschitz_bound: float
    derivative_bound: float

    def values_for_path(self, theta_row: np.ndarray, tau: np.ndarray) -> np.ndarray:
        out = np.asarray(self.func(theta_row, tau), dtype=float)
        if out.shape != (self.n_components, len(tau)):
            raise ValueError(
                f"state-dependent volatility returned shape {out.shape}, "
                f"expected {(self.n_components, len(tau))}"
            )
        cap = self.growth_bound * (1.0 + float(np.max(np.abs(theta_row))))
        if np.max(np.abs(out)) > cap + 1e-12:
            raise ValueError("state-dependent volatility violates its declared growth bound")
        return out


# ---------------------------------------------------------------------------
# model


def _as_curve_fn(obj) -> Callable[[np.ndarray], np.ndarray]:
    if callable(obj):
        return lambda x: np.asarray(obj(np.asarray(x, dtype=float)), dtype=float)
    level = float(obj)
    return lambda x: np.full_like(np.asarray(x, dtype=float), level)


@dataclass
class LevyHjmModel:
    """Joint model for the discount curve and tenor spread curves.

    driver: Levy triplet of the full (curve block, spread-factor block)
    process; the first ``n_curve_factors`` components drive the curves, the
    remaining ones feed the spread factor directly.
    ois_vol / spread_vols: loadings of the curve block per curve.
    u_vectors: row i holds the spread-factor loadings of tenor i's spot
    spread; nonnegative entries (with the factor kept in the nonnegative
    orthant) give spreads bounded below by one and ordered across tenors.
    forward_curve / forward_spread_curves: time-zero curves, either callables
    of maturity or flat levels.
    spread_factor_mode: "none" (the factor is the driver block alone),
    "integrated-drift" (an absolutely continuous correction matches the
    consistency targets through the pseudo-inverse of the u matrix), or
    "kernel" (a one-dimensional jump part whose kernel is re-solved from the
    targets; requires one spread-factor dimension).
    """

    driver: LevyTriplet
    n_curve_factors: int
    ois_vol: ExponentialVolatility | StateDependentVolatility
    spread_vols: Sequence[ExponentialVolatility | StateDependentVolatility]
    u_vectors: np.ndarray
    tenors: Sequence[Tenor]
    forward_curve: Callable | float
    forward_spread_curves: Sequence[Callable | float]
    spread_factor_mode: str = "none"
    kernel_mass_cap: float = 50.0
    kernel_objective: str = "min-total-mass"
    y0: np.ndarray | None = None

    def __post_init__(self):
        self.u_vectors = np.atleast_2d(np.asarray(self.u_vectors, dtype=float))
        self.tenors = list(self.tenors)
        d, n = self.n_curve_factors, self.n_spread_factors
        if d < 0 or n < 0:
            raise ValueError("driver dimension smaller than n_curve_factors")
        if self.u_vectors.shape != (self.n_tenors, n):
            raise ValueError(
                f"u_vectors must be ({self.n_tenors}, {n}), got {self.u_vectors.shape}"
            )
        if len(self.spread_vols) != self.n_tenors or len(self.forward_spread_curves) != self.n_tenors:
            raise ValueError("one volatility and one initial curve per tenor required")
        for vol in (self.ois_vol, *self.spread_vols):
            if vol.n_components != d:
                raise ValueError("volatility component count must equal n_curve_factors")
        if self.spread_factor_mode not in ("none", "integrated-drift", "kernel"):
            raise ValueError(f"unknown spread_factor_mode {self.spread_factor_mode!r}")
        if self.spread_factor_mode == "kernel" and n != 1:
            raise ValueError("kernel mode requires exactly one spread-factor dimension")
        if self.y0 is None:
            self.y0 = np.zeros(n)
        else:
            self.y0 = np.atleast_1d(np.asarray(self.y0, dtype=float))
            if self.y0.shape != (n,):
                raise ValueError(f"y0 must have shape ({n},)")
        self._f0 = _as_curve_fn(self.forward_curve)
        self._eta0 = [_as_curve_fn(c) for c in self.forward_spread_curves]

    @property
    def n_spread_factors(self) -> int:
        return self.driver.dim - self.n_curve_factors

    @property
    def n_tenors(self) -> int:
        return len(self.tenors)

    def initial_curves(self) -> list[Callable[[np.ndarray], np.ndarray]]:
        """Time-zero curve callables: discount forwards first, then spreads."""
        return [self._f0, *self._eta0]

    def curve_vols(self) -> list:
        return [self.ois_vol, *list(self.spread_vols)]

    def factor_exponent(self, i: int) -> float:
        """Exponent of the driver's spread-factor block at u_i (curve block zeroed)."""
        beta = np.concatenate([np.zeros(self.n_curve_factors), self.u_vectors[i]])
        return float(self.driver.exponent(beta))

    def requires_grid_engine(self) -> bool:
        return any(isinstance(v, StateDependentVolatility) for v in self.curve_vols())


def _pad_curve_block(model: LevyHjmModel, block: np.ndarray) -> np.ndarray:
    """Embed per-tau curve-block vectors (..., d) into driver dimension."""
    pad_shape = block.shape[:-1] + (model.n_spread_factors,)
    return np.concatenate([block, np.zeros(pad_shape)], axis=-1)


def ois_drift(model: LevyHjmModel, tau) -> np.ndarray | float:
    """No-arbitrage drift of the discount forward curve at time-to-maturity tau.

    Equals -sigma(tau) . grad Psi(-Sigma(tau)) with Sigma the running vol
    integral, i.e. the tau-derivative of tau -> Psi(-Sigma(tau)).
    """
    if not isinstance(model.ois_vol, ExponentialVolatility):
        raise TypeError("closed-form drift requires deterministic exponential volatility")
    tau_arr = np.atleast_1d(np.asarray(tau, dtype=float))
    sig = model.ois_vol.values(tau_arr)
    big = model.ois_vol.integrals(tau_arr)
    grad = model.driver.exponent_gradient(_pad_curve_block(model, -big))
    out = -np.sum(sig * grad[:, : model.n_curve_factors], axis=1)
    return out if np.ndim(tau) else float(out[0])


def spread_drift(model: LevyHjmModel, i: int, tau) -> np.ndarray | float:
    """Full no-arbitrage drift of spread curve i at time-to-maturity tau.

    Sum of the discount-curve drift and the spread adjustment; with the
    spread volatility equal to the discount volatility the adjustment
    vanishes and the spread curve inherits the discount-curve drift.
    """
    return spread_drift_adjustment(model, i, tau) + ois_drift(model, tau)


def spread_drift_adjustment(model: LevyHjmModel, i: int, tau) -> np.ndarray | float:
    """Drift of spread curve i in excess of the discount-curve drift.

    Equals -(sigma_i - sigma_0)(tau) . grad Psi(beta(tau)) where beta stacks
    the vol-integral difference with u_i; identically zero when curve i
    carries the same volatility as the discount curve.
    """
    for vol in (model.ois_vol, model.spread_vols[i]):
        if not isinstance(vol, ExponentialVolatility):
            raise TypeError("closed-form drift requires deterministic exponential volatility")
    tau_arr = np.atleast_1d(np.asarray(tau, dtype=float))
    big_i = model.spread_vols[i].integrals(tau_arr)
    big_0 = model.ois_vol.integrals(tau_arr)
    u_block = np.broadcast_to(model.u_vectors[i], (len(tau_arr), model.n_spread_factors))
    beta = np.concatenate([big_i - big_0, u_block], axis=1)
    grad = model.driver.exponent_gradient(beta)[:, : model.n_curve_factors]
    dsig = model.spread_vols[i].values(tau_arr) - model.ois_vol.values(tau_arr)
    out = -np.sum(dsig * grad, axis=1)
    return out if np.ndim(tau) else float(out[0])


# ---------------------------------------------------------------------------
# simulation engines


@dataclass
class MusielaState:
    """Curve block of the grid engine in rolling time-to-maturity coordinates."""

    theta: np.ndarray    # (n_paths, n_curves, n_nodes)
    cell: float          # grid spacing
    valid_nodes: int     # leading nodes still inside the shrinking horizon
    step_index: int


def _integrate_rows(rows: np.ndarray, dx: float, tau: float) -> np.ndarray:
    """Trapezoid of curve rows (..., n_nodes) from 0 to tau, linear partial cell."""
    if tau < -1e-12:
        raise ValueError("negative integration horizon")
    q, frac = divmod(tau / dx + 1e-12, 1.0)
    q = int(q)
    frac = max(frac - 1e-12, 0.0)
    out = np.trapezoid(rows[..., : q + 1], dx=dx, axis=-1) if q > 0 else np.zeros(rows.shape[:-1])
    if frac > 1e-9:
        left = rows[..., q]
        right = left + frac * (rows[..., q + 1] - left)
        out = out + 0.5 * frac * dx * (left + right)
    return out


def _cumtrapz_loadings(g: np.ndarray, dx: float) -> np.ndarray:
    """Running trapezoid integral of loadings g (d, n_nodes) -> (n_nodes, d)."""
    inner = np.cumsum(0.5 * (g[:, 1:] + g[:, :-1]) * dx, axis=1)
    return np.concatenate([np.zeros((g.shape[0], 1)), inner], axis=1).T


def _increments(model: LevyHjmModel, seed: int, lo: int, hi: int, n_steps: int,
                dt: float) -> np.ndarray:
    """Driver increments (n_paths, n_steps, dim) for a contiguous path block."""
    dim = model.driver.dim
    lam = model.driver.jump_intensities
    normals, counts = _rng.driver_increment_block(
        seed, lo, hi, n_steps, dim, lam * dt if len(lam) else None
    )
    chol = model.driver.diffusion_factor()
    dx = model.driver.drift * dt + math.sqrt(dt) * (normals @ chol.T)
    if counts is not None:
        dx = dx + counts @ model.driver.jump_sizes
    return dx


class _FactorEngine:
    """Scalar-recursion engine for exponential volatilities.

    Every curve node's noise term is sum_c g_ic(tau) * U_ic(t) with
    U_ic(t) = sum_{l < t} e^{-a_ic (t - t_l)} dX^c_l, so one scalar per
    (curve, component) pair per path replaces the whole stored curve.
    """

    def __init__(self, model: LevyHjmModel, n_paths: int, dx_grid: float, n_nodes: int,
                 alpha_rows: np.ndarray, dt: float):
        self.model = model
        self.dx = dx_grid
        self.dt = dt
        self.k = round(dt / dx_grid)
        self.n_nodes = n_nodes
        self.alpha_rows = alpha_rows  # (n_curves, extended nodes)
        vols = model.curve_vols()
        self.scales = np.stack([v.scales for v in vols])  # (n_curves, d)
        self.decays = np.stack([v.decays for v in vols])
        self.decay_steps = np.exp(-self.decays * dt)
        self.u_factors = np.zeros((n_paths, len(vols), model.n_curve_factors))
        self.step_index = 0
        self.init_curves = model.initial_curves()
        nodes = dx_grid * np.arange(n_nodes + 1)
        # g_ic on the grid, used both for bond integrals and drift cross-checks
        self.g_rows = self.scales[:, :, None] * np.exp(
            -self.decays[:, :, None] * nodes[None, None, :]
        )
        self._det_drift_short = np.zeros(len(vols))  # dt * sum of alpha at past short ends
        self._det_cache: dict[tuple, np.ndarray] = {}

    def short_ends(self) -> np.ndarray:
        t = self.step_index * self.dt
        det = np.array([float(fn(np.array([t]))[0]) for fn in self.init_curves])
        det = det + self._det_drift_short
        return det + np.einsum("pic,ic->pi", self.u_factors, self.scales)

    def apply_step(self, dx_step: np.ndarray) -> None:
        self.step_index += 1
        self._det_drift_short = self._det_drift_short + self.dt * self.alpha_rows[
            :, self.step_index * self.k
        ]
        self.u_factors = self.decay_steps[None, :, :] * (
            self.u_factors + dx_step[:, None, : self.model.n_curve_factors]
        )

    def _det_row(self, curve: int) -> np.ndarray:
        """Deterministic part of the curve on the surviving grid nodes."""
        key = (self.step_index, curve)
        hit = self._det_cache.get(key)
        if hit is not None:
            return hit
        t = self.step_index * self.dt
        j_max = self.n_nodes - self.step_index * self.k
        nodes = self.dx * np.arange(j_max + 1)
        det = self.init_curves[curve](t + nodes)
        if self.step_index > 0:
            acc = np.zeros(j_max + 1)
            row = self.alpha_rows[curve]
            for r in self.k * np.arange(1, self.step_index + 1):
                acc += row[r : r + j_max + 1]
            det = det + self.dt * acc
        self._det_cache[key] = det
        return det

    def curve_integrals(self, tau: float, curve: int) -> np.ndarray:
        """int_0^tau of curve values at the current time, per path."""
        det_part = _integrate_rows(self._det_row(curve), self.dx, tau)
        g_int = np.array(
            [_integrate_rows(self.g_rows[curve, c], self.dx, tau)
             for c in range(self.model.n_curve_factors)]
        )
        return det_part + self.u_factors[:, curve, :] @ g_int

    def finite_mask(self) -> np.ndarray:
        return np.all(np.isfinite(self.u_factors), axis=(1, 2))


class _GridEngine:
    """Literal curve-on-a-grid engine; reference scheme, any volatility type."""

    def __init__(self, model: LevyHjmModel, n_paths: int, dx_grid: float, n_nodes: int,
                 alpha_rows: np.ndarray | None, dt: float):
        self.model = model
        self.dx = dx_grid
        self.dt = dt
        self.k = round(dt / dx_grid)
        self.alpha_rows = alpha_rows
        self.nodes = dx_grid * np.arange(n_nodes + 1)
        curves = model.initial_curves()
        theta = np.stack(
            [np.broadcast_to(fn(self.nodes), (n_paths, n_nodes + 1)).copy() for fn in curves],
            axis=1,
        )
        self.state = MusielaState(theta, dx_grid, n_nodes + 1, 0)
        self.vols = model.curve_vols()
        self._static_g = None
        if not model.requires_grid_engine():
            # (n_curves, d, n_nodes + 1)
            self._static_g = np.stack([v.values(self.nodes).T for v in self.vols])

    @property
    def step_index(self) -> int:
        return self.state.step_index

    def short_ends(self) -> np.ndarray:
        return self.state.theta[:, :, 0].copy()

    def apply_step(self, dx_step: np.ndarray) -> None:
        st = self.state
        k, new_valid = self.k, st.valid_nodes - self.k
        dx_curve = dx_step[:, : self.model.n_curve_factors]
        if self._static_g is not None:
            shifted = st.theta[:, :, k : k + new_valid]
            drift = self.dt * self.alpha_rows[:, k : k + new_valid]
            noise = np.einsum("pc,icj->pij", dx_curve, self._static_g[:, :, k : k + new_valid])
            st.theta[:, :, :new_valid] = shifted + drift[None, :, :] + noise
        else:
            self._apply_step_state_dependent(dx_curve, new_valid)
        st.theta[:, :, new_valid:] = np.nan
        st.valid_nodes = new_valid
        st.step_index += 1

    def _path_loadings(self, p: int, curve: int, tau: np.ndarray) -> np.ndarray:
        vol = self.vols[curve]
        if isinstance(vol, ExponentialVolatility):
            return vol.values(tau).T
        return vol.values_for_path(self.state.theta[p, curve, : len(tau)], tau)

    def _apply_step_state_dependent(self, dx_curve: np.ndarray, new_valid: int) -> None:
        """Per-path stepping when any volatility reads the current curve.

        Vol integrals are running trapezoids of the frozen step-start
        loadings, so the drift is the same discrete functional of sigma that
        the deterministic precomputation uses.
        """
        st = self.state
        k = self.k
        n_paths = st.theta.shape[0]
        tau = self.nodes[: st.valid_nodes]
        model = self.model
        new_theta = np.empty((n_paths, len(self.vols), new_valid))
        for p in range(n_paths):
            sig0 = self._path_loadings(p, 0, tau)
            big0 = _cumtrapz_loadings(sig0, self.dx)  # (valid, d)
            grad0 = model.driver.exponent_gradient(_pad_curve_block(model, -big0))
            alpha0 = -np.sum(sig0.T * grad0[:, : model.n_curve_factors], axis=1)
            for i, vol in enumerate(self.vols):
                if i == 0:
                    g, alpha = sig0, alpha0
                else:
                    g = self._path_loadings(p, i, tau)
                    big_i = _cumtrapz_loadings(g, self.dx)
                    u_block = np.broadcast_to(
                        model.u_vectors[i - 1], (st.valid_nodes, model.n_spread_factors)
                    )
                    beta = np.concatenate([big_i - big0, u_block], axis=1)
                    grad = model.driver.exponent_gradient(beta)[:, : model.n_curve_factors]
                    alpha = -np.sum((g - sig0).T * grad, axis=1) + alpha0
                new_theta[p, i] = (
                    st.theta[p, i, k : k + new_valid]
                    + self.dt * alpha[k : k + new_valid]
                    + g[:, k : k + new_valid].T @ dx_curve[p]
                )
        st.theta[:, :, :new_valid] = new_theta

    def curve_integrals(self, tau: float, curve: int) -> np.ndarray:
        st = self.state
        return _integrate_rows(st.theta[:, curve, : st.valid_nodes], self.dx, tau)

    def finite_mask(self) -> np.ndarray:
        st = self.state
        return np.all(np.isfinite(st.theta[:, :, : st.valid_nodes]), axis=(1, 2))


# ---------------------------------------------------------------------------
# simulation driver loop


@dataclass
class HjmSimulationResult:
    """Snapshots by observation time plus run diagnostics.

    diagnostics keys: consistency_series (max abs short-end mismatch per
    step), consistency_max, aborted (paths dropped for NaN/overflow), seed,
    dt, method, n_paths.
    """

    snapshots: dict[float, PathSet]
    diagnostics: dict

    def pathset(self, time: float) -> PathSet:
        for t, ps in self.snapshots.items():
            if abs(t - time) <= 1e-12:
                return ps
        raise KeyError(f"no snapshot at time {time}")


def _precompute_alpha_rows(model: LevyHjmModel, nodes: np.ndarray) -> np.ndarray:
    rows = [np.atleast_1d(ois_drift(model, nodes))]
    for i in range(model.n_tenors):
        rows.append(np.atleast_1d(spread_drift(model, i, nodes)))
    return np.stack(rows)


def simulate_hjm(model: LevyHjmModel, horizon: float, dt: float, n_paths: int, seed: int,
                 maturities: Sequence[float], observation_times: Sequence[float] | None = None,
                 method: str = "auto", dx_grid: float | None = None,
                 batch_size: int = 4096, zero_drift: bool = False) -> HjmSimulationResult:
    """Simulate the joint curve dynamics and snapshot bonds and spreads.

    ``observation_times`` default to the horizon alone; each must be a whole
    number of steps, the largest equal to the horizon.  ``dx_grid`` (default
    dt) is the curve grid cell; dt must be a whole multiple of it.  ``method``
    is "auto" (factor when all volatilities are exponential, else grid),
    "factor", or "grid".  Snapshots hold bonds and spreads at the requested
    maturities (those not before the observation time) under the bank-account
    numeraire.  Paths that hit NaN or overflow are dropped from every
    snapshot; more than 0.1% of them aborts the run.

    ``zero_drift`` suppresses the no-arbitrage curve drifts (negative-control
    diagnostic: discounted prices should then fail their martingale checks).
    """
    if observation_times is None:
        observation_times = [horizon]
    observation_times = sorted(float(t) for t in observation_times)
    if not observation_times or abs(observation_times[-1] - horizon) > 1e-12:
        raise ValueError("the last observation time must equal the horizon")
    maturities = np.sort(np.asarray(maturities, dtype=float))
    if len(maturities) == 0 or maturities[-1] < horizon - 1e-12:
        raise ValueError("need at least one maturity at or beyond the horizon")

    dx = dt if dx_grid is None else float(dx_grid)
    k = round(dt / dx)
    if k < 1 or abs(k * dx - dt) > 1e-12:
        raise GridMismatch(f"dt={dt} is not a whole multiple of the grid cell {dx}")
    n_steps = round(horizon / dt)
    if n_steps < 1 or abs(n_steps * dt - horizon) > 1e-12:
        raise GridMismatch(f"horizon={horizon} is not a whole number of steps of {dt}")
    obs_steps: dict[int, float] = {}
    for t_obs in observation_times:
        l_obs = round(t_obs / dt)
        if abs(l_obs * dt - t_obs) > 1e-12:
            raise GridMismatch(f"observation time {t_obs} is not on the step grid")
        obs_steps[l_obs] = t_obs

    if method == "auto":
        method = "grid" if model.requires_grid_engine() else "factor"
    if method == "factor" and model.requires_grid_engine():
        raise ValueError("the factor engine requires exponential volatilities")
    if method not in ("factor", "grid"):
        raise ValueError(f"unknown method {method!r}")

    # grid long enough for the longest maturity plus a partial-cell neighbor;
    # drift lookups shift by up to n_steps * k extra cells
    n_nodes = int(np.ceil(maturities[-1] / dx - 1e-9)) + 2
    alpha_rows = None
    if not model.requires_grid_engine():
        ext_nodes = dx * np.arange(n_nodes + 1 + n_steps * k)
        alpha_rows = _precompute_alpha_rows(model, ext_nodes)
        if zero_drift:
            alpha_rows = np.zeros_like(alpha_rows)
    elif zero_drift:
        raise ValueError("zero_drift is only supported with precomputed drifts")

    kernel_family = None
    if model.spread_factor_mode == "kernel":
        kernel_family = KernelFamily(
            model.u_vectors[:, 0],
            mass_cap=model.kernel_mass_cap,
            objective=model.kernel_objective,
        )
    psi_hat = np.array([model.factor_exponent(i) for i in range(model.n_tenors)])
    pinv_u = (
        np.linalg.pinv(model.u_vectors)
        if model.spread_factor_mode == "integrated-drift"
        else None
    )

    consistency = np.zeros(n_steps)
    aborted = 0
    snap_parts: dict[float, list] = {t: [] for t in observation_times}

    for lo in range(0, n_paths, batch_size):
        hi = min(lo + batch_size, n_paths)
        nb = hi - lo
        dx_block = _increments(model, seed, lo, hi, n_steps, dt)
        if method == "factor":
            engine = _FactorEngine(model, nb, dx, n_nodes, alpha_rows, dt)
        else:
            engine = _GridEngine(model, nb, dx, n_nodes, alpha_rows, dt)
        log_bank = np.zeros(nb)
        y = np.broadcast_to(model.y0, (nb, model.n_spread_factors)).copy()
        held_psi = None  # factor exponent at each u_i selected over the previous step
        jump_gens = None
        if model.spread_factor_mode == "kernel":
            # _kernel_step draws for every path at each step: one live generator per path
            jump_gens = [_rng.path_generator(seed, p, _rng.YPERP_STREAM) for p in range(lo, hi)]
        local_snaps: dict[float, tuple] = {}

        for l in range(n_steps + 1):
            ends = engine.short_ends()  # (nb, n_curves)
            if l in obs_steps:
                local_snaps[obs_steps[l]] = _snapshot(
                    engine, model, obs_steps[l], maturities, log_bank, y
                )
            if held_psi is not None:
                with np.errstate(invalid="ignore"):
                    gap = np.abs(held_psi - ends[:, 1:])
                resid = float(np.nanmax(gap)) if np.any(np.isfinite(gap)) else np.nan
                if np.isfinite(resid):
                    consistency[l - 1] = max(consistency[l - 1], resid)
            if l == n_steps:
                break

            log_bank = log_bank + dt * ends[:, 0]
            targets = ends[:, 1:] - psi_hat  # per-path exponent targets for the factor
            if model.spread_factor_mode == "integrated-drift":
                q = targets @ pinv_u.T
                y += q * dt
                held_psi = q @ model.u_vectors.T + psi_hat
            elif model.spread_factor_mode == "kernel":
                held_psi = np.empty_like(targets)
                _kernel_step(kernel_family, model, targets, y, jump_gens, dt, held_psi, psi_hat)
            else:
                held_psi = np.broadcast_to(psi_hat, targets.shape)

            engine.apply_step(dx_block[:, l, :])
            y = y + dx_block[:, l, model.n_curve_factors :]

        good = engine.finite_mask() & np.isfinite(log_bank) & np.all(np.isfinite(y), axis=1)
        aborted += int(np.count_nonzero(~good))
        for t_obs, (keep, numeraire, bonds, spreads) in local_snaps.items():
            snap_parts[t_obs].append(
                (keep, numeraire[good], bonds[good],
                 {ten: arr[good] for ten, arr in spreads.items()})
            )

    if aborted > ABORT_FRACTION * n_paths:
        raise SimulationAborted(
            f"{aborted} of {n_paths} paths hit NaN or overflow "
            f"(tolerance {ABORT_FRACTION:.1%})"
        )

    snapshots = {}
    for t_obs, parts in snap_parts.items():
        keep = parts[0][0]
        snapshots[t_obs] = PathSet(
            time=t_obs,
            maturities=keep,
            numeraire=np.concatenate([p[1] for p in parts]),
            bonds=np.vstack([p[2] for p in parts]),
            spreads={ten: np.vstack([p[3][ten] for p in parts]) for ten in model.tenors},
            seed=seed,
            dt=dt,
        )
    diagnostics = {
        "consistency_series": consistency,
        "consistency_max": float(np.max(consistency)) if n_steps else 0.0,
        "aborted": aborted,
        "seed": seed,
        "dt": dt,
        "method": method,
        "n_paths": n_paths,
    }
    return HjmSimulationResult(snapshots, diagnostics)


def _kernel_step(family: KernelFamily, model: LevyHjmModel, targets: np.ndarray,
                 y: np.ndarray, jump_gens: list, dt: float,
                 held_psi: np.ndarray, psi_hat: np.ndarray) -> None:
    """One kernel-mode step: solve per path, draw jumps, record held exponents.

    The jump count is Poisson with the intensity frozen at the step start;
    jump sizes draw from the kernel re-solved after each jump so the support
    floor tracks the post-jump factor level.
    """
    for p in range(targets.shape[0]):
        kernel, psi = family.solve_with_exponent(float(y[p, 0]), targets[p])
        lam = kernel.total_intensity
        held_psi[p] = psi + psi_hat
        n_jumps = int(jump_gens[p].poisson(lam * dt)) if lam > 0 else 0
        for _ in range(n_jumps):
            j = int(jump_gens[p].choice(len(kernel.atoms), p=kernel.weights / lam))
            y[p, 0] += float(kernel.atoms[j])
            kernel, _ = family.solve_with_exponent(float(y[p, 0]), targets[p])
            lam = kernel.total_intensity
            if lam <= 0:
                break


def _snapshot(engine, model: LevyHjmModel, t_obs: float, maturities: np.ndarray,
              log_bank: np.ndarray, y: np.ndarray) -> tuple:
    keep = maturities[maturities >= t_obs - 1e-12]
    n_paths = log_bank.shape[0]
    bonds = np.empty((n_paths, len(keep)))
    spreads = {ten: np.empty((n_paths, len(keep))) for ten in model.tenors}
    for j, mat in enumerate(keep):
        tau = max(mat - t_obs, 0.0)
        bonds[:, j] = np.exp(-engine.curve_integrals(tau, 0))
        for i, ten in enumerate(model.tenors):
            spreads[ten][:, j] = np.exp(
                y @ model.u_vectors[i] + engine.curve_integrals(tau, i + 1)
            )
    return keep, np.exp(log_bank), bonds, spreads


def consistency_residual(result: HjmSimulationResult) -> float:
    """Largest per-step mismatch between the factor exponent selected over a
    step and the spread curves' short ends at the step's right endpoint."""
    return float(result.diagnostics["consistency_max"])
