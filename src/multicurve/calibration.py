"""Black-76 utilities and caplet implied-volatility calibration.

Caplets quote through the Black formula on the forward Libor rate, so the
module provides the pricing/inversion pair plus a least-squares fit of free
affine-model parameters to an implied-vol surface.  The residuals reprice
every quote with the damped-contour transform and convert to implied vol; a
bounded trust-region reflective solver (scipy's ``least_squares`` with
``method="trf"``) drives their sum of squares down under optional
per-parameter bounds.  Trial points where the spec is inadmissible, the
transform explodes, or the price leaves the invertible range score a
penalty rather than aborting the search, and any other error propagates.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import least_squares
from scipy.stats import norm

from .affine import (
    AffineModelSpec,
    DampingOutOfDomain,
    InadmissibleSpec,
    QuadratureNonConvergence,
    RiccatiAccuracyError,
    RiccatiExplosion,
    _caplet_contour_prices,
    _terminal_exponents,
)
from .termstructure import Tenor, fra_rate_from_curves

# relaxed Riccati tolerance (absolute and relative, against 1e-10 by
# default) for repeated objective evaluations; the induced price error sits
# far below the 1e-4 vol-residual scale of the fit
_PRICER_TOL = 1e-8
# Black inversion: bracket width on the vol, and Newton/bisection steps
_BLACK_TOL = 1e-10
_BLACK_MAX_ITER = 100
_PENALTY = 1e8
# restart starts scatter by this share of each |initial| parameter
_RESTART_WIDTH = 0.2

log = logging.getLogger(__name__)


class BlackDomainError(ValueError):
    """Black-76 needs a positive forward and strike."""


class PriceOutOfBounds(ValueError):
    """Price outside the no-arbitrage band, implied vol undefined."""


class ObjectiveNaN(RuntimeError):
    """A trial point produced a non-finite or undefined objective."""


class MaxIterations(RuntimeError):
    """No optimizer start converged within the iteration budget."""


# ---------------------------------------------------------------------------
# Black-76


def black_caplet(forward: float, strike: float, expiry: float, vol: float,
                 annuity: float) -> float:
    """Black-76 caplet price on the forward Libor rate.

    ``annuity`` carries the accrual factor and discounting (delta times the
    discount bond to the payment date); ``vol`` is the lognormal volatility
    of the forward rate.
    """
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


def black_implied_vol(price: float, forward: float, strike: float,
                      expiry: float, annuity: float) -> float:
    """Invert the Black-76 caplet formula for the lognormal volatility.

    Newton iteration on the vol with a bisection fallback whenever a step
    leaves the current bracket or the vega degenerates; converges to 1e-10
    on the vol within 100 steps.  Prices at or below intrinsic value, or at
    or above the forward bound annuity * F, have no finite implied vol and
    raise PriceOutOfBounds.
    """
    if forward <= 0.0 or strike <= 0.0:
        raise BlackDomainError("Black-76 requires positive forward and strike")
    intrinsic = annuity * max(forward - strike, 0.0)
    upper_bound = annuity * forward
    if price <= intrinsic or price >= upper_bound:
        raise PriceOutOfBounds(
            f"price {price:.6g} outside ({intrinsic:.6g}, {upper_bound:.6g})"
        )
    lo, hi = 1e-12, 1.0
    while black_caplet(forward, strike, expiry, hi, annuity) < price:
        hi *= 2.0
        if hi > 1e4:
            raise PriceOutOfBounds("implied vol above 1e4")
    sqrt_t = math.sqrt(expiry)
    vol = max(min(math.sqrt(2.0 * math.pi / expiry) * price / upper_bound, hi), lo)
    for _ in range(_BLACK_MAX_ITER):
        val = black_caplet(forward, strike, expiry, vol, annuity) - price
        if val > 0.0:
            hi = vol
        else:
            lo = vol
        if abs(hi - lo) < _BLACK_TOL:
            return 0.5 * (lo + hi)
        d1 = (math.log(forward / strike) + 0.5 * vol ** 2 * expiry) / (vol * sqrt_t)
        vega = annuity * forward * norm.pdf(d1) * sqrt_t
        if vega > 1e-14:
            candidate = vol - val / vega
            if lo < candidate < hi:
                if abs(candidate - vol) < _BLACK_TOL:
                    return candidate
                vol = candidate
                continue
        vol = 0.5 * (lo + hi)
    return vol


# ---------------------------------------------------------------------------
# quote surface


@dataclass(frozen=True)
class VolQuote:
    """One caplet quote: expiry, underlying Libor tenor, strike, value."""

    expiry: float
    tenor: Tenor
    strike: float
    value: float


@dataclass
class VolQuoteSurface:
    """Caplet quotes, either as implied vols or as premiums.

    convention is "vol" (values are lognormal implied vols) or "premium"
    (values are prices, converted on entry to the calibration).
    """

    quotes: list[VolQuote] = field(default_factory=list)
    convention: str = "vol"

    def __post_init__(self):
        if self.convention not in ("vol", "premium"):
            raise ValueError(f"unknown quote convention {self.convention!r}")
        seen = set()
        for q in self.quotes:
            if q.value <= 0.0:
                raise ValueError("quote values must be positive")
            key = (float(q.expiry), float(q.tenor), float(q.strike))
            if key in seen:
                raise ValueError(f"duplicate quote at {key}")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.quotes)


@dataclass
class CalibrationResult:
    """Best parameter vector found, with fit diagnostics.

    residuals are per-quote implied-vol differences (model minus market) in
    quote order, objective is their sum of squares, and trace records the
    objective value at each accepted improvement (nonincreasing).
    """

    parameters: np.ndarray
    objective: float
    residuals: np.ndarray
    trace: np.ndarray
    n_evaluations: int
    converged: bool


# ---------------------------------------------------------------------------
# calibration


def _model_forward_setup(spec: AffineModelSpec, expiry: float, i: int):
    """(forward, annuity) implied by the spec's own time-0 curves."""
    delta = float(spec.tenors[i])
    # bonds to expiry and payment, then the spread-weighted bond to expiry
    U = np.zeros((3, spec.n_spread))
    U[2] = spec.u_vectors[i]
    phi, psi = _terminal_exponents(spec, np.zeros((3, spec.dim)), U, 1.0,
                                   np.array([expiry, expiry + delta, expiry]), _PRICER_TOL)
    logs = phi.real + psi.real @ spec.x0
    payment_bond = math.exp(logs[1])
    spread_bond = math.exp(logs[2] + spec.u_vectors[i] @ spec.y0)
    forward = (spread_bond / payment_bond - 1.0) / delta
    return forward, delta * payment_bond


def _quote_environment(surface, market_disc, market_spreads):
    """Per-quote (forward, annuity) pairs, fixed when market curves exist."""
    if market_disc is None:
        return None
    env = []
    for q in surface.quotes:
        curve = market_spreads[q.tenor] if market_spreads else None
        if curve is None:
            raise ValueError(f"no market spread curve for tenor {q.tenor}")
        forward = fra_rate_from_curves(market_disc, curve, q.expiry)
        annuity = float(q.tenor) * market_disc.discount(q.expiry + float(q.tenor))
        env.append((forward, annuity))
    return env


def _evaluate_fit(build_spec, params, surface, env, target_vols):
    """Objective and residual vector at one parameter point.

    Raises ObjectiveNaN when the trial spec is inadmissible, a transform
    explodes, or a model price cannot be inverted to a vol; any other error,
    a bug in ``build_spec`` among them, propagates.
    """
    try:
        spec = build_spec(params)
        groups: dict[tuple[float, int], list[int]] = {}
        for j, q in enumerate(surface.quotes):
            i = spec.tenor_index(q.tenor)
            groups.setdefault((float(q.expiry), i), []).append(j)
        residuals = np.empty(len(surface.quotes))
        for (expiry, i), idx in groups.items():
            delta = float(spec.tenors[i])
            kappas = [1.0 + delta * surface.quotes[j].strike for j in idx]
            prices = _caplet_contour_prices(
                spec, expiry, i, kappas, tail_tol=1e-11, tol=_PRICER_TOL,
            )
            model_env = None if env is not None else _model_forward_setup(
                spec, expiry, i)
            for price, j in zip(prices, idx):
                forward, annuity = env[j] if env is not None else model_env
                vol = black_implied_vol(
                    price, forward, surface.quotes[j].strike, expiry, annuity)
                residuals[j] = vol - target_vols[j]
    except (InadmissibleSpec, BlackDomainError, RiccatiExplosion, RiccatiAccuracyError,
            DampingOutOfDomain, QuadratureNonConvergence, PriceOutOfBounds,
            OverflowError, FloatingPointError) as exc:
        raise ObjectiveNaN(str(exc)) from exc
    objective = float(residuals @ residuals)
    if not math.isfinite(objective):
        raise ObjectiveNaN("non-finite objective")
    return objective, residuals




def calibrate(build_spec: Callable[[np.ndarray], AffineModelSpec],
              initial: Sequence[float], surface: VolQuoteSurface,
              market_disc=None, market_spreads=None, *,
              bounds: Sequence[tuple] | None = None, restarts: int = 3,
              seed: int = 0, max_iterations: int = 4000) -> CalibrationResult:
    """Fit free model parameters to a caplet implied-vol surface.

    build_spec maps a parameter vector to a full model spec; initial is the
    starting vector.  When market curves are supplied the Black forward and
    annuity per quote come from them, otherwise from each trial spec's own
    time-0 curves.  A trust-region reflective least-squares solve of the vol
    residuals, under per-parameter (lower, upper) bounds with either side
    optional, runs once from the initial point and ``restarts`` more times
    from starts scattered deterministically by ``seed``, every start
    clipped into the bounds; the best fit is kept.  Trial points that raise
    ObjectiveNaN score a constant residual vector that grows with the
    parameter norm.
    Raises MaxIterations when no start converges within ``max_iterations``
    residual evaluations (scipy's ``max_nfev``, which leaves out the
    finite-difference Jacobian's evaluations).
    """
    initial = np.asarray(initial, dtype=float)
    if bounds is not None and len(bounds) != len(initial):
        raise ValueError("one (lower, upper) bound pair per parameter required")
    if len(surface) < len(initial):
        raise ValueError("at least as many quotes as free parameters required")
    env = _quote_environment(surface, market_disc, market_spreads)
    if surface.convention == "premium":
        if env is None:
            raise ValueError("premium quotes require market curves to convert")
        target_vols = np.array([
            black_implied_vol(q.value, f, q.strike, q.expiry, a)
            for q, (f, a) in zip(surface.quotes, env)
        ])
    else:
        target_vols = np.array([q.value for q in surface.quotes])

    if len(initial) == 0:
        objective, residuals = _evaluate_fit(
            build_spec, initial, surface, env, target_vols)
        return CalibrationResult(
            parameters=initial, objective=objective, residuals=residuals,
            trace=np.array([objective]), n_evaluations=1, converged=True,
        )

    pairs = bounds if bounds is not None else [(None, None)] * len(initial)
    lower = np.array([-np.inf if lo is None else lo for lo, _ in pairs], dtype=float)
    upper = np.array([np.inf if hi is None else hi for _, hi in pairs], dtype=float)
    n_quotes = len(surface)
    state = {"best": math.inf, "trace": [], "n_eval": 0}

    def residual_fn(x):
        state["n_eval"] += 1
        try:
            value, residuals = _evaluate_fit(build_spec, x, surface, env, target_vols)
        except ObjectiveNaN:
            # constant across quotes but sloped in x, so a solve started at
            # an inadmissible point still sees a nonzero Jacobian
            level = math.sqrt(_PENALTY / n_quotes) * (1.0 + float(np.linalg.norm(x)))
            residuals = np.full(n_quotes, level)
            value = float(residuals @ residuals)
        if value < state["best"]:
            state["best"] = value
            state["trace"].append(value)
        return residuals

    rng = np.random.default_rng(seed)
    starts = [initial] + [
        initial + _RESTART_WIDTH * np.abs(initial) * rng.standard_normal(len(initial))
        for _ in range(restarts)
    ]
    fits = []
    for index, start in enumerate(starts):
        fit = least_squares(residual_fn, np.clip(start, lower, upper),
                            bounds=(lower, upper), method="trf", max_nfev=max_iterations)
        log.debug("calibration start: index=%d nfev=%d status=%d cost=%.6g",
                  index, fit.nfev, fit.status, fit.cost)
        fits.append(fit)
    if not any(fit.success for fit in fits):
        raise MaxIterations(
            f"no least-squares start converged within {max_iterations} evaluations"
        )
    best = min(fits, key=lambda fit: fit.cost)
    objective, residuals = _evaluate_fit(
        build_spec, best.x, surface, env, target_vols)
    return CalibrationResult(
        parameters=best.x, objective=objective, residuals=residuals,
        trace=np.asarray(state["trace"]), n_evaluations=state["n_eval"],
        converged=True,
    )
