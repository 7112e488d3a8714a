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

* ``grid``: the literal scheme; curves stored on a grid whose cell is the
  step and shifted by one cell each step.  Works with state-dependent
  volatilities, stepping every path of a batch at once.  Memory per path is
  the whole curve.
* ``factor``: for exponential volatilities s * exp(-a * (T - t)) the noise
  term of every curve node is g(tau) times a scalar recursion per (curve,
  driver component) pair, and drift terms are deterministic lookups, so each
  path carries one scalar per (curve, component) pair, stored path-last as
  an (n_curves, d, n_paths) block.  The deterministic part of the short ends
  (initial curve plus the running dt * drift sum) is one table per call.
  Produces the same values as ``grid`` up to float roundoff.

Both integrate bonds from curves by the trapezoid rule on the grid (with a
linearly interpolated partial cell at off-grid maturities) and accumulate the
bank account with left-endpoint rectangles, so the two engines agree node for
node.

The HJM drift condition has one home, ``_drifts``, read at closed-form vol
integrals and, by the state-dependent grid step, at running trapezoids.

``simulate_hjm`` is a setup, one batch function of a path range and a
merge in path order; ``rng.map_batches`` splits the paths.  The batch
function's one step loop drives both engines.  A batch's driver increments
are one step-major block (n_steps, dim, n_paths), and the loop state keeps
the path axis last: short ends (n_curves, n_paths), spread factor (n,
n_paths), log bank account (n_paths,).  Every per-step operation therefore
runs over contiguous rows of paths; the grid engine and the kernel-mode
jump step take transposed views at their boundary.  Sums keep the order of
a path-major loop, so the values do not depend on the layout.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import rng as _rng
from .momentkernel import OBJECTIVES, KernelFamily, kernel_jump_step
from .products import EmptyPathSet, PathSet
from .termstructure import Tenor

__all__ = [
    "GridMismatch",
    "SimulationAborted",
    "LevyTriplet",
    "ExponentialVolatility",
    "StateDependentVolatility",
    "LevyHjmModel",
    "HjmSimulationResult",
    "ois_drift",
    "spread_drift",
    "spread_drift_adjustment",
    "simulate_hjm",
    "consistency_residual",
]

ABORT_FRACTION = 1e-3

log = logging.getLogger(__name__)


class GridMismatch(ValueError):
    """The horizon or an observation time is not a whole number of steps."""


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
        if not np.all(np.isfinite(lam) & (lam >= 0)):
            raise ValueError("jump intensities must be finite and nonnegative")

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
    """Volatility loadings that read the current curve, with a growth bound.

    ``func(theta, tau)`` receives one path's curve values on the grid and the
    time-to-maturity grid, and returns loadings of shape (n_components,
    len(tau)).  ``growth_bound`` C declares |sigma| <= C * (1 + max|theta|);
    the grid engine checks it on every path at every step and raises on
    violation.  Only the grid engine accepts these volatilities.
    """

    func: Callable[[np.ndarray, np.ndarray], np.ndarray]
    n_components: int
    growth_bound: float

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
        if self.kernel_objective not in OBJECTIVES:
            raise ValueError(f"unknown kernel_objective {self.kernel_objective!r}")
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


def _drifts(model: LevyHjmModel, sig, big, tenors=()) -> tuple[np.ndarray, list]:
    """The HJM drift condition, on loadings sig[c] and running integrals
    big[c] of curve c (0 the discount curve, i + 1 tenor i), each shaped
    (..., n_tau, d) with any leading batch axes.

    Returns alpha_0 = -sigma_0 . grad Psi(-Sigma_0), the discount-curve drift,
    and for each tenor i in ``tenors`` the adjustment
    -(sigma_i - sigma_0) . grad Psi(Sigma_i - Sigma_0, u_i) that spread curve
    i's drift adds to it.  Only the curve block of grad Psi enters.
    """
    d, gradient = model.n_curve_factors, model.driver.exponent_gradient
    zeros = np.zeros(big[0].shape[:-1] + (model.n_spread_factors,))
    grad0 = gradient(np.concatenate([-big[0], zeros], axis=-1))
    alpha0 = -np.sum(sig[0] * grad0[..., :d], axis=-1)
    adjustments = []
    for i in tenors:
        u_block = np.broadcast_to(model.u_vectors[i], zeros.shape)
        grad = gradient(np.concatenate([big[i + 1] - big[0], u_block], axis=-1))[..., :d]
        adjustments.append(-np.sum((sig[i + 1] - sig[0]) * grad, axis=-1))
    return alpha0, adjustments


def _closed_form_drifts(model: LevyHjmModel, tau, tenors=()) -> tuple:
    """``_drifts`` on the closed-form loadings and integrals at tau, floats
    for a scalar tau; the discount curve and the curves of ``tenors`` must be
    exponential."""
    vols = model.curve_vols()
    tenors = [range(model.n_tenors)[i] for i in tenors]
    curves = [0, *(i + 1 for i in tenors)]
    if not all(isinstance(vols[c], ExponentialVolatility) for c in curves):
        raise TypeError("closed-form drift requires deterministic exponential volatility")
    tau_arr = np.atleast_1d(np.asarray(tau, dtype=float))
    alpha0, adjustments = _drifts(model, {c: vols[c].values(tau_arr) for c in curves},
                                  {c: vols[c].integrals(tau_arr) for c in curves}, tenors)
    if np.ndim(tau):
        return alpha0, adjustments
    return float(alpha0[0]), [float(adj[0]) for adj in adjustments]


def ois_drift(model: LevyHjmModel, tau) -> np.ndarray | float:
    """No-arbitrage drift of the discount forward curve at time-to-maturity tau.

    Equals -sigma(tau) . grad Psi(-Sigma(tau)) with Sigma the running vol
    integral, i.e. the tau-derivative of tau -> Psi(-Sigma(tau)).
    """
    return _closed_form_drifts(model, tau)[0]


def spread_drift(model: LevyHjmModel, i: int, tau) -> np.ndarray | float:
    """Full no-arbitrage drift of spread curve i at time-to-maturity tau.

    Sum of the discount-curve drift and the spread adjustment; with the
    spread volatility equal to the discount volatility the adjustment
    vanishes and the spread curve inherits the discount-curve drift.
    """
    alpha0, (adjustment,) = _closed_form_drifts(model, tau, [i])
    return adjustment + alpha0


def spread_drift_adjustment(model: LevyHjmModel, i: int, tau) -> np.ndarray | float:
    """Drift of spread curve i in excess of the discount-curve drift.

    Equals -(sigma_i - sigma_0)(tau) . grad Psi(beta(tau)) where beta stacks
    the vol-integral difference with u_i; identically zero when curve i
    carries the same volatility as the discount curve.
    """
    return _closed_form_drifts(model, tau, [i])[1][0]


# ---------------------------------------------------------------------------
# simulation engines


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


def _increments(model: LevyHjmModel, seed: int, lo: int, hi: int, n_steps: int,
                dt: float) -> tuple[np.ndarray, _rng.JumpRows | None]:
    """Driver increments (n_steps, dim, n_paths), step-major, for a contiguous
    path block, and the ``rng.JumpRows`` of its jumps (None without jumps).

    The diffusion factor times the path-major normals (read through a
    transposed view, freed once used) times sqrt(dt), plus drift * dt; then
    each step's jumps: a Poisson count of mean Lambda * dt, Lambda the total
    intensity, and per jump atom j with probability lambda_j / Lambda.
    """
    normals = _rng.driver_increment_block(seed, lo, hi, n_steps, model.driver.dim)
    dx = np.matmul(model.driver.diffusion_factor(), normals.transpose(1, 2, 0))
    del normals
    dx *= math.sqrt(dt)
    dx += (model.driver.drift * dt)[:, None]
    lam = model.driver.jump_intensities
    total = float(lam.sum())
    if total == 0.0:
        return dx, None
    cdf, sizes = _rng.choice_cdf(lam / total), model.driver.jump_sizes.T
    # one atom double per jump, sized from the mean count per path
    draws = _rng.JumpRows(seed, lo, hi, _rng.DRIVER_JUMP_COLUMN, n_steps,
                          _rng.atom_width(total * n_steps * dt))
    means = np.full(hi - lo, total * dt)
    for step in dx:
        for rows, atom in draws.rounds(means, cdf):
            step[:, rows] += sizes[:, atom]
    return dx, draws


class _FactorEngine:
    """Scalar-recursion engine for exponential volatilities.

    Every curve node's noise term is sum_c g_ic(tau) * U_ic(t) with
    U_ic(t) = sum_{l < t} e^{-a_ic (t - t_l)} dX^c_l, so one scalar per
    (curve, component) pair per path replaces the whole stored curve.  The
    scalars are stored path-last, (n_curves, d, n_paths), so each step
    updates contiguous rows; the deterministic part of the short ends comes
    from the per-call table ``short_det`` (``_short_end_table``).
    """

    def __init__(self, model: LevyHjmModel, n_paths: int, n_nodes: int,
                 alpha_rows: np.ndarray, dt: float, short_det: np.ndarray):
        self.model = model
        self.dt = dt
        self.n_nodes = n_nodes
        self.alpha_rows = alpha_rows  # (n_curves, extended nodes)
        self.short_det = short_det    # (n_steps + 1, n_curves)
        vols = model.curve_vols()
        self.scales = np.stack([v.scales for v in vols])  # (n_curves, d)
        self.decays = np.stack([v.decays for v in vols])
        self.decay_steps = np.exp(-self.decays * dt)[:, :, None]
        self.u_factors = np.zeros((len(vols), model.n_curve_factors, n_paths))
        self.step_index = 0
        self.init_curves = model.initial_curves()
        nodes = dt * np.arange(n_nodes + 1)
        # g_ic on the grid, used both for bond integrals and drift cross-checks
        self.g_rows = self.scales[:, :, None] * np.exp(
            -self.decays[:, :, None] * nodes[None, None, :]
        )
        self._det_cache: dict[tuple, np.ndarray] = {}

    def short_ends(self) -> np.ndarray:
        """Short ends (n_curves, n_paths); the components summed left to right."""
        ends = np.zeros(self.u_factors.shape[::2])
        for c in range(self.model.n_curve_factors):
            ends += self.u_factors[:, c] * self.scales[:, c, None]
        ends += self.short_det[self.step_index][:, None]
        return ends

    def apply_step(self, dx_step: np.ndarray) -> None:
        self.step_index += 1
        self.u_factors += dx_step[: self.model.n_curve_factors]
        self.u_factors *= self.decay_steps

    def _det_row(self, curve: int) -> np.ndarray:
        """Deterministic part of the curve on the surviving grid nodes."""
        key = (self.step_index, curve)
        hit = self._det_cache.get(key)
        if hit is not None:
            return hit
        t = self.step_index * self.dt
        j_max = self.n_nodes - self.step_index
        nodes = self.dt * np.arange(j_max + 1)
        det = self.init_curves[curve](t + nodes)
        if self.step_index > 0:
            acc = np.zeros(j_max + 1)
            row = self.alpha_rows[curve]
            for r in range(1, self.step_index + 1):
                acc += row[r : r + j_max + 1]
            det = det + self.dt * acc
        self._det_cache[key] = det
        return det

    def curve_integrals(self, tau: float, curve: int) -> np.ndarray:
        """int_0^tau of curve values at the current time, per path."""
        det_part = _integrate_rows(self._det_row(curve), self.dt, tau)
        g_int = np.array(
            [_integrate_rows(self.g_rows[curve, c], self.dt, tau)
             for c in range(self.model.n_curve_factors)]
        )
        return det_part + g_int @ self.u_factors[curve]

    def finite_mask(self) -> np.ndarray:
        return np.all(np.isfinite(self.u_factors), axis=(0, 1))


class _GridEngine:
    """Literal curve-on-a-grid engine; reference scheme, any volatility type.

    The curves are stored in rolling time-to-maturity coordinates as
    ``theta`` (n_paths, n_curves, n_nodes); only the leading ``valid_nodes``
    stay inside the shrinking horizon.
    """

    def __init__(self, model: LevyHjmModel, n_paths: int, n_nodes: int,
                 alpha_rows: np.ndarray | None, dt: float):
        self.model = model
        self.dt = dt
        self.alpha_rows = alpha_rows
        self.nodes = dt * np.arange(n_nodes + 1)
        curves = model.initial_curves()
        self.theta = np.stack(
            [np.broadcast_to(fn(self.nodes), (n_paths, n_nodes + 1)).copy() for fn in curves],
            axis=1,
        )
        self.valid_nodes = n_nodes + 1
        self.vols = model.curve_vols()
        self._static_g = None
        if not model.requires_grid_engine():
            # (n_curves, d, n_nodes + 1)
            self._static_g = np.stack([v.values(self.nodes).T for v in self.vols])

    def short_ends(self) -> np.ndarray:
        return self.theta[:, :, 0].T.copy()

    def apply_step(self, dx_step: np.ndarray) -> None:
        new_valid = self.valid_nodes - 1
        dx_curve = np.ascontiguousarray(dx_step[: self.model.n_curve_factors].T)
        if self._static_g is not None:
            shifted = self.theta[:, :, 1 : 1 + new_valid]
            drift = self.dt * self.alpha_rows[:, 1 : 1 + new_valid]
            noise = np.einsum("pc,icj->pij", dx_curve, self._static_g[:, :, 1 : 1 + new_valid])
            self.theta[:, :, :new_valid] = shifted + drift[None, :, :] + noise
        else:
            self._apply_step_state_dependent(dx_curve, new_valid)
        self.theta[:, :, new_valid:] = np.nan
        self.valid_nodes = new_valid

    def _apply_step_state_dependent(self, dx_curve: np.ndarray, new_valid: int) -> None:
        """Step every path at once when any volatility reads the current curve.

        Each path's step-start loadings come from one call per curve, path
        after path; their running trapezoids stand in for the closed-form
        vol integrals, so the drift (``_drifts``) is within O(dt^2) of the
        precomputed one when the loadings are deterministic.
        """
        tau, dt = self.nodes[: self.valid_nodes], self.dt
        fixed = {c: vol.values(tau) for c, vol in enumerate(self.vols)
                 if isinstance(vol, ExponentialVolatility)}
        # (n_paths, n_curves, valid, d)
        sig = np.stack([[fixed[c] if c in fixed else vol.values_for_path(theta[c], tau).T
                         for c, vol in enumerate(self.vols)]
                        for theta in self.theta[:, :, : len(tau)]])
        big = np.zeros(sig.shape)
        np.cumsum(0.5 * (sig[..., 1:, :] + sig[..., :-1, :]) * dt, axis=-2, out=big[..., 1:, :])
        alpha0, adjustments = _drifts(self.model, sig.swapaxes(0, 1), big.swapaxes(0, 1),
                                      range(self.model.n_tenors))
        alpha = np.stack([alpha0, *(adj + alpha0 for adj in adjustments)], axis=1)
        cells = slice(1, 1 + new_valid)
        self.theta[:, :, :new_valid] = (
            self.theta[:, :, cells] + dt * alpha[:, :, cells]
            + (sig[:, :, cells] @ dx_curve[:, None, :, None])[..., 0])

    def curve_integrals(self, tau: float, curve: int) -> np.ndarray:
        return _integrate_rows(self.theta[:, curve, : self.valid_nodes], self.dt, tau)

    def finite_mask(self) -> np.ndarray:
        return np.all(np.isfinite(self.theta[:, :, : self.valid_nodes]), axis=(1, 2))


# ---------------------------------------------------------------------------
# simulation driver loop


@dataclass
class HjmSimulationResult:
    """Snapshots by observation time plus run diagnostics.

    diagnostics keys: consistency_series (max abs short-end mismatch per
    step, over the paths that stay finite), consistency_max, aborted (paths
    dropped for NaN/overflow), seed, dt, method, n_paths.
    """

    snapshots: dict[float, PathSet]
    diagnostics: dict

    def pathset(self, time: float) -> PathSet:
        for t, ps in self.snapshots.items():
            if abs(t - time) <= 1e-12:
                return ps
        raise KeyError(f"no snapshot at time {time}")


def _precompute_alpha_rows(model: LevyHjmModel, nodes: np.ndarray) -> np.ndarray:
    alpha0, adjustments = _closed_form_drifts(model, nodes, range(model.n_tenors))
    return np.stack([alpha0, *(adj + alpha0 for adj in adjustments)])


def _short_end_table(model: LevyHjmModel, alpha_rows: np.ndarray, dt: float,
                     n_steps: int) -> np.ndarray:
    """Deterministic short ends (n_steps + 1, n_curves) of the factor engine.

    Row l is each initial curve at t_l plus dt * alpha at the short end of
    every step r = 1..l, summed step after step.
    """
    drift = np.zeros((len(alpha_rows), n_steps + 1))
    drift[:, 1:] = dt * alpha_rows[:, 1 : n_steps + 1]
    np.cumsum(drift, axis=1, out=drift)
    times = dt * np.arange(n_steps + 1)
    curves = np.stack([fn(times) for fn in model.initial_curves()])
    return (curves + drift).T.copy()


def simulate_hjm(model: LevyHjmModel, horizon: float, dt: float, n_paths: int, seed: int,
                 maturities: Sequence[float], observation_times: Sequence[float] | None = None,
                 method: str = "auto", batch_size: int = 4096,
                 zero_drift: bool = False) -> HjmSimulationResult:
    """Simulate the joint curve dynamics and snapshot bonds and spreads.

    ``observation_times`` default to the horizon alone; each must be a whole
    number of steps, the largest equal to the horizon.  The curve grid cell
    is the step dt, so each step shifts the curves by one cell.  ``method``
    is "auto" (factor when all volatilities are exponential, else grid),
    "factor", or "grid".  Snapshots hold bonds and spreads at the requested
    maturities (those not before the observation time) under the bank-account
    numeraire.  Paths that hit NaN or overflow are dropped from every
    snapshot; more than 0.1% of them aborts the run.

    ``zero_drift`` suppresses the no-arbitrage curve drifts (negative-control
    diagnostic: discounted prices should then fail their martingale checks).

    The call is a setup, a batch function and a merge.  ``batch(lo, hi)``
    returns the snapshot parts of the good paths in [lo, hi), its per-step
    consistency maxima and its dropped paths, and writes nothing outside
    itself but the kernel family's cache and counters; ``rng.map_batches``
    splits the paths, and the merge joins the parts in path order.

    Path i's numbers depend only on (seed, i), whatever ``batch_size``
    (addresses in ``rng``): its driver normals come from its own stream 0
    (``rng.driver_increment_block``), its driver jumps from its stream-0
    row and its kernel-mode jumps from its stream-1 row (``rng.JumpRows``).
    One DEBUG record per batch on ``multicurve.hjm`` gives its paths,
    steps, driver and kernel jumps, the paths that widened an atom buffer
    (``refilled_paths``) or drew a count of mean 10 or more
    (``live_paths``), the kernel lookups and LP solves, the aborted paths
    and the seconds per stage.  A horizon or dt that is not positive and
    finite, or a maturity or observation time that is not finite, raises
    ValueError naming it, and fewer than one path ``EmptyPathSet``, all
    before any draw.
    """
    for name, value in (("horizon", horizon), ("dt", dt)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if n_paths < 1:
        raise EmptyPathSet(f"n_paths must be at least 1, got {n_paths}")
    if observation_times is None:
        observation_times = [horizon]
    observation_times = sorted(float(t) for t in observation_times)
    if not all(map(math.isfinite, observation_times)):
        raise ValueError(f"observation_times must be finite, got {observation_times}")
    if not observation_times or abs(observation_times[-1] - horizon) > 1e-12:
        raise ValueError("the last observation time must equal the horizon")
    maturities = np.sort(np.asarray(maturities, dtype=float))
    if not np.isfinite(maturities).all():
        raise ValueError(f"maturities must be finite, got {maturities}")
    if len(maturities) == 0 or maturities[-1] < horizon - 1e-12:
        raise ValueError("need at least one maturity at or beyond the horizon")

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
    # drift lookups shift by up to n_steps extra cells
    n_nodes = int(np.ceil(maturities[-1] / dt - 1e-9)) + 2
    alpha_rows = None
    if not model.requires_grid_engine():
        ext_nodes = dt * np.arange(n_nodes + 1 + n_steps)
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
    if method == "factor":
        short_det = _short_end_table(model, alpha_rows, dt, n_steps)
    psi_hat = np.array([model.factor_exponent(i) for i in range(model.n_tenors)])
    psi_col = psi_hat[:, None]
    pinv_u = (
        np.linalg.pinv(model.u_vectors)
        if model.spread_factor_mode == "integrated-drift"
        else None
    )

    def batch(lo: int, hi: int) -> tuple[dict, np.ndarray, int]:
        nb = hi - lo
        started = time.perf_counter()
        dx_block, driver_draws = _increments(model, seed, lo, hi, n_steps, dt)
        draws = None
        if kernel_family is not None:
            # one atom double per jump; a jump every other step fits up front
            draws = _rng.JumpRows(seed, lo, hi, 0, n_steps, n_steps // 2 + 8, _rng.YPERP_STREAM)
            lookups_before, solves_before = kernel_family.lookups, kernel_family.lp_solves
        draw_s = time.perf_counter() - started
        if method == "factor":
            engine = _FactorEngine(model, nb, n_nodes, alpha_rows, dt, short_det)
        else:
            engine = _GridEngine(model, nb, n_nodes, alpha_rows, dt)
        log_bank = np.zeros(nb)
        y = np.repeat(model.y0[:, None], nb, axis=1)  # (n, nb)
        held_psi = None  # factor exponent at each u_i selected over the previous step
        consistency = np.zeros(n_steps)
        kernel_jumps = 0
        snapshot_s = 0.0
        snaps: dict[float, tuple] = {}

        started = time.perf_counter()
        for l in range(n_steps + 1):
            ends = engine.short_ends()  # (n_curves, nb)
            if l in obs_steps:
                snap_started = time.perf_counter()
                t_obs = obs_steps[l]
                snaps[t_obs] = _snapshot(engine, model, t_obs, maturities, log_bank, y)
                snapshot_s += time.perf_counter() - snap_started
            if held_psi is not None and model.n_tenors:
                gap = np.abs(held_psi - ends[1:])
                resid = gap.max()
                if not np.isfinite(resid):
                    resid = np.max(gap, where=np.isfinite(gap), initial=0.0)
                consistency[l - 1] = resid
            if l == n_steps:
                break

            log_bank += dt * ends[0]
            targets = ends[1:] - psi_col  # per-path exponent targets for the factor
            if model.spread_factor_mode == "integrated-drift":
                q = pinv_u @ targets
                y += q * dt
                held_psi = model.u_vectors @ q + psi_col
            elif model.spread_factor_mode == "kernel":
                held_psi, jumps = _kernel_step(kernel_family, draws, targets.T, y.T, dt, psi_hat)
                held_psi = held_psi.T
                kernel_jumps += int(jumps.sum())
            else:
                held_psi = psi_col

            engine.apply_step(dx_block[l])
            y += dx_block[l, model.n_curve_factors :]
        step_s = time.perf_counter() - started - snapshot_s
        del dx_block

        good = engine.finite_mask() & np.isfinite(log_bank) & np.all(np.isfinite(y), axis=0)
        dropped = int(np.count_nonzero(~good))
        drawn = [d for d in (driver_draws, draws) if d is not None]
        refilled = int(np.any([d.refilled for d in drawn], axis=0).sum())
        live = int(np.any([d.live for d in drawn], axis=0).sum())
        lookups, solves = ((0, 0) if draws is None else (
            kernel_family.lookups - lookups_before, kernel_family.lp_solves - solves_before))
        log.debug("hjm batch: paths=%d steps=%d driver_jumps=%d kernel_jumps=%d "
                  "refilled_paths=%d live_paths=%d kernel_lookups=%d lp_solves=%d aborted=%d "
                  "draw_s=%.6f step_s=%.6f snapshot_s=%.6f", nb, n_steps,
                  0 if driver_draws is None else driver_draws.jumps, kernel_jumps, refilled,
                  live, lookups, solves, dropped, draw_s, step_s, snapshot_s)
        parts = {t_obs: (keep, numeraire[good], bonds[good],
                         {ten: arr[good] for ten, arr in spreads.items()})
                 for t_obs, (keep, numeraire, bonds, spreads) in snaps.items()}
        return parts, consistency, dropped

    snap_parts, consistency, dropped = zip(*_rng.map_batches(batch, n_paths, batch_size))
    aborted = sum(dropped)
    if aborted > ABORT_FRACTION * n_paths:
        raise SimulationAborted(
            f"{aborted} of {n_paths} paths hit NaN or overflow "
            f"(tolerance {ABORT_FRACTION:.1%})"
        )

    snapshots = {}
    for t_obs in snap_parts[0]:
        parts = [batch_parts[t_obs] for batch_parts in snap_parts]
        snapshots[t_obs] = PathSet(
            time=t_obs,
            maturities=parts[0][0],
            numeraire=np.concatenate([p[1] for p in parts]),
            bonds=np.vstack([p[2] for p in parts]),
            spreads={ten: np.vstack([p[3][ten] for p in parts]) for ten in model.tenors},
            seed=seed,
            dt=dt,
        )
    consistency = np.max(consistency, axis=0)
    diagnostics = {
        "consistency_series": consistency,
        "consistency_max": float(consistency.max()),
        "aborted": aborted,
        "seed": seed,
        "dt": dt,
        "method": method,
        "n_paths": n_paths,
    }
    return HjmSimulationResult(snapshots, diagnostics)


def _kernel_step(family: KernelFamily, draws: _rng.JumpRows, targets: np.ndarray,
                 y: np.ndarray, dt: float, psi_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One kernel-mode step of a batch (``momentkernel.kernel_jump_step``).

    Takes path-major views, ``targets`` (n, m) and the factor ``y`` (n, 1),
    which it moves in place; returns the exponents held over the step, the
    kernel's plus ``psi_hat``, and each path's jump count.
    """
    psi, jumps = kernel_jump_step(family, draws, y[:, 0], targets, dt)
    return psi + psi_hat, jumps


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
                model.u_vectors[i] @ y + engine.curve_integrals(tau, i + 1)
            )
    return keep, np.exp(log_bank), bonds, spreads


def consistency_residual(result: HjmSimulationResult) -> float:
    """Largest per-step mismatch between the factor exponent selected over a
    step and the spread curves' short ends at the step's right endpoint."""
    return float(result.diagnostics["consistency_max"])
