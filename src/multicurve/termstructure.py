"""Discount and spread term structures with pillar-based bootstrapping.

Conventions used throughout the package:

* All dates are year fractions from the valuation date (ACT/365-fixed); tenors
  are exact rationals (``Tenor`` wraps ``fractions.Fraction``).
* OIS discount factors interpolate log-linearly between pillars, anchored at
  B(0,0) = 1, which makes the instantaneous forward curve piecewise constant
  (right-continuous at pillars).
* Multiplicative spreads S(0,T) = (1 + delta*L(0,T)) / (1 + delta*L_D(0,T))
  interpolate linearly in log S, so the forward spread rate
  eta(T) = d/dT log S(0,T) is piecewise constant as well.  The curve is flat
  (in log) left of its first pillar.
* Extrapolation beyond the last pillar is disabled by default and, when
  enabled, continues the last piecewise-constant forward (flat forward).

Spreads below 1 (negative Libor-OIS basis) are stored as-is; the bootstrapper
emits a ``NegativeSpreadWarning`` so the caller can decide whether that is a
data problem.
"""

from __future__ import annotations

import logging
import math
import time
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Tenor",
    "DiscountCurve",
    "SpreadTermStructure",
    "OisSwapQuote",
    "SpreadQuote",
    "MarketQuoteSet",
    "ExtrapolationDisabled",
    "NoSolution",
    "NonIncreasingMaturities",
    "NegativeSpreadWarning",
    "fra_rate",
    "fra_rate_from_curves",
    "bootstrap_ois_curve",
    "bootstrap_spread_curve",
]

BOOTSTRAP_RESIDUAL_TOL = 1e-14
BOOTSTRAP_MAX_ITER = 200

log = logging.getLogger(__name__)


class ExtrapolationDisabled(ValueError):
    """Query beyond the last pillar with extrapolation turned off."""


class NoSolution(RuntimeError):
    """A bootstrap pillar has no admissible discount/spread solving the quote."""


class NonIncreasingMaturities(ValueError):
    """Bootstrap input quotes must have strictly increasing pillar dates."""


class NegativeSpreadWarning(UserWarning):
    """A bootstrapped multiplicative spread came out below 1."""


@dataclass(frozen=True, order=True)
class Tenor:
    """Accrual period as an exact rational year fraction.

    ``Tenor(1, 4)`` is three months under ACT/365-fixed bookkeeping.  Exactness
    matters for schedule generation: maturities are validated to be integer
    multiples of the tenor without floating-point drift.
    """

    value: Fraction

    def __init__(self, numerator, denominator: int | None = None):
        if denominator is None:
            frac = Fraction(numerator)
        else:
            frac = Fraction(numerator, denominator)
        if frac <= 0:
            raise ValueError("tenor must be positive")
        object.__setattr__(self, "value", frac)

    def __float__(self) -> float:
        return float(self.value)

    def __str__(self) -> str:
        return str(self.value)

    @staticmethod
    def parse(text: str) -> "Tenor":
        """Parse '0.25', '1/4', '3M', '6m', '1Y', '2W', or '90D'.

        Anything else, a non-string or a zero denominator included, raises
        ``ValueError``.
        """
        if not isinstance(text, str):
            raise ValueError(f"tenor must be a string such as '6M', got {text!r}")
        text = text.strip()
        suffix = text[-1:].upper()
        try:
            if suffix in ("M", "Y", "W", "D") and text[:-1].strip():
                qty = Fraction(text[:-1].strip())
                per = {"Y": Fraction(1), "M": Fraction(1, 12), "W": Fraction(7, 365),
                       "D": Fraction(1, 365)}
                return Tenor(qty * per[suffix])
            return Tenor(Fraction(text))
        except ZeroDivisionError:
            raise ValueError(f"tenor {text!r} has a zero denominator") from None


def _check_times(times: np.ndarray, what: str) -> None:
    if times.ndim != 1 or len(times) == 0:
        raise ValueError(f"{what} needs at least one pillar")
    if times[0] <= 0:
        raise ValueError(f"{what} pillars must be strictly positive")
    if np.any(np.diff(times) <= 0):
        raise NonIncreasingMaturities(f"{what} pillars must be strictly increasing")


class DiscountCurve:
    """OIS discount curve B(0, .) with log-linear interpolation between pillars."""

    interpolation = "log-linear-discount"

    def __init__(self, times: Sequence[float], discounts: Sequence[float], allow_extrapolation: bool = False):
        times = np.asarray(times, dtype=float)
        discounts = np.asarray(discounts, dtype=float)
        _check_times(times, "discount curve")
        if len(discounts) != len(times):
            raise ValueError("times and discounts must have equal length")
        if np.any(discounts <= 0):
            raise ValueError("discount factors must be positive")
        self.times = np.concatenate(([0.0], times))
        self.log_discounts = np.concatenate(([0.0], np.log(discounts)))
        self.allow_extrapolation = allow_extrapolation
        # piecewise-constant forwards, one per interval [t_i, t_{i+1})
        self._segment_forwards = -np.diff(self.log_discounts) / np.diff(self.times)

    @property
    def pillar_times(self) -> np.ndarray:
        return self.times[1:]

    @property
    def pillar_discounts(self) -> np.ndarray:
        return np.exp(self.log_discounts[1:])

    def _check_domain(self, T: np.ndarray) -> None:
        if np.any(T < 0):
            raise ValueError("maturity must be nonnegative")
        if not self.allow_extrapolation and np.any(T > self.times[-1] * (1 + 1e-14) + 1e-14):
            raise ExtrapolationDisabled(
                f"maturity beyond last pillar {self.times[-1]}; construct with allow_extrapolation=True"
            )

    def discount(self, T):
        """B(0,T); log-linear between pillars, flat forward beyond if extrapolating."""
        T_arr = np.asarray(T, dtype=float)
        self._check_domain(T_arr)
        logdf = np.interp(T_arr, self.times, self.log_discounts)
        over = T_arr > self.times[-1]
        if np.any(over):
            tail = self.log_discounts[-1] - self._segment_forwards[-1] * (T_arr - self.times[-1])
            logdf = np.where(over, tail, logdf)
        out = np.exp(logdf)
        return out if np.ndim(T) else float(out)

    def instantaneous_forward(self, T):
        """f(0,T) = -d/dT log B(0,T); piecewise constant, right-continuous at pillars."""
        T_arr = np.asarray(T, dtype=float)
        self._check_domain(T_arr)
        idx = np.searchsorted(self.times, T_arr, side="right") - 1
        idx = np.clip(idx, 0, len(self._segment_forwards) - 1)
        out = self._segment_forwards[idx]
        return out if np.ndim(T) else float(out)

    def simple_forward(self, T, delta) -> float:
        """Simply compounded OIS forward L_D(0; T, T+delta)."""
        d = float(delta)
        if d <= 0:
            raise ValueError("tenor must be positive")
        return (self.discount(T) / self.discount(T + d) - 1.0) / d


class SpreadTermStructure:
    """Multiplicative spread curve S(0, .) for one tenor, linear in log S."""

    interpolation = "linear-log-spread"

    def __init__(self, tenor: Tenor, times: Sequence[float], spreads: Sequence[float],
                 allow_extrapolation: bool = False):
        times = np.asarray(times, dtype=float)
        spreads = np.asarray(spreads, dtype=float)
        _check_times(times, "spread curve")
        if len(spreads) != len(times):
            raise ValueError("times and spreads must have equal length")
        if np.any(spreads <= 0):
            raise ValueError("spreads must be positive")
        self.tenor = tenor if isinstance(tenor, Tenor) else Tenor(tenor)
        self.times = times
        self.log_spreads = np.log(spreads)
        self.allow_extrapolation = allow_extrapolation
        if len(times) > 1:
            self._segment_slopes = np.diff(self.log_spreads) / np.diff(times)
        else:
            self._segment_slopes = np.zeros(0)

    @property
    def pillar_times(self) -> np.ndarray:
        return self.times

    @property
    def pillar_spreads(self) -> np.ndarray:
        return np.exp(self.log_spreads)

    def _check_domain(self, T: np.ndarray) -> None:
        if np.any(T < 0):
            raise ValueError("maturity must be nonnegative")
        if not self.allow_extrapolation and np.any(T > self.times[-1] * (1 + 1e-14) + 1e-14):
            raise ExtrapolationDisabled(
                f"maturity beyond last pillar {self.times[-1]}; construct with allow_extrapolation=True"
            )

    def spread(self, T):
        """S(0,T); flat in log left of the first pillar and (if enabled) beyond the last."""
        T_arr = np.asarray(T, dtype=float)
        self._check_domain(T_arr)
        logs = np.interp(T_arr, self.times, self.log_spreads)
        out = np.exp(logs)
        return out if np.ndim(T) else float(out)

    def forward_spread_rate(self, T):
        """eta(T) = d/dT log S(0,T); piecewise constant, right-continuous, 0 where flat."""
        T_arr = np.atleast_1d(np.asarray(T, dtype=float))
        self._check_domain(T_arr)
        out = np.zeros_like(T_arr)
        if len(self._segment_slopes) > 0:
            idx = np.searchsorted(self.times, T_arr, side="right") - 1
            inside = (idx >= 0) & (idx < len(self._segment_slopes))
            out[inside] = self._segment_slopes[np.clip(idx, 0, len(self._segment_slopes) - 1)][inside]
            # at the last pillar carry the final segment value; beyond it the curve is flat
            out[np.isclose(T_arr, self.times[-1], rtol=0, atol=1e-14)] = self._segment_slopes[-1]
        return out if np.ndim(T) else float(out[0])


def fra_rate(spread: float, ois_forward: float, delta) -> float:
    """FRA (forward Libor) rate from a spread and the matching OIS forward.

    L = (S * (1 + delta * L_D) - 1) / delta, the inverse of the spread
    definition S = (1 + delta L) / (1 + delta L_D).
    """
    d = float(delta)
    return (spread * (1.0 + d * ois_forward) - 1.0) / d


def fra_rate_from_curves(disc: DiscountCurve, spread_curve: SpreadTermStructure, T) -> float:
    d = float(spread_curve.tenor)
    return fra_rate(spread_curve.spread(T), disc.simple_forward(T, d), d)


@dataclass(frozen=True)
class OisSwapQuote:
    maturity: float
    rate: float
    pay_tenor: Tenor


@dataclass(frozen=True)
class SpreadQuote:
    """FRA or IRS quote for one Libor tenor.

    FRA: ``maturity`` is the fixing date T of the period [T, T+delta] and
    ``rate`` the forward Libor.  IRS: ``maturity`` is the final payment date of
    a spot-starting swap with both legs paying every delta, ``rate`` the par
    fixed rate.
    """

    maturity: float
    rate: float
    kind: str  # "FRA" | "IRS"

    def __post_init__(self):
        if self.kind not in ("FRA", "IRS"):
            raise ValueError(f"unknown spread quote kind {self.kind!r}")


@dataclass
class MarketQuoteSet:
    """Bootstrap inputs: OIS swaps plus FRA/IRS quotes per Libor tenor."""

    ois_swaps: list[OisSwapQuote] = field(default_factory=list)
    spread_quotes: dict[Tenor, list[SpreadQuote]] = field(default_factory=dict)

    def validate(self) -> None:
        if not self.ois_swaps:
            raise ValueError("no OIS quotes; cannot build a discount curve")
        mats = [q.maturity for q in sorted(self.ois_swaps, key=lambda q: q.maturity)]
        if any(b <= a for a, b in zip(mats, mats[1:])):
            raise NonIncreasingMaturities("duplicate OIS maturities")


def _schedule(maturity: float, delta: float) -> np.ndarray:
    n = int(round(maturity / delta))
    if n < 1 or abs(n * delta - maturity) > 1e-9:
        raise ValueError(f"maturity {maturity} is not an integer number of {delta} periods")
    return delta * np.arange(0, n + 1)


def _ois_par_rate(times: np.ndarray, logdfs: np.ndarray, schedule: np.ndarray, delta: float) -> float:
    logs = np.interp(schedule, times, logdfs)
    dfs = np.exp(logs)
    annuity = delta * math.fsum(dfs[1:])
    return (dfs[0] - dfs[-1]) / annuity


def bootstrap_ois_curve(quotes: Iterable[OisSwapQuote]) -> DiscountCurve:
    """Sequential OIS bootstrap; each quote pins the discount at its maturity.

    Payment dates between already-solved pillars use the curve's own log-linear
    interpolation against the unknown pillar, so the returned curve reprices
    every input to within ``BOOTSTRAP_RESIDUAL_TOL``.
    """
    from scipy.optimize import brentq
    started = time.perf_counter()
    quotes = sorted(quotes, key=lambda q: q.maturity)
    mats = [q.maturity for q in quotes]
    if any(b <= a for a, b in zip(mats, mats[1:])):
        raise NonIncreasingMaturities("OIS quote maturities must be strictly increasing")

    times = [0.0]
    logdfs = [0.0]
    for q in quotes:
        delta = float(q.pay_tenor)
        sched = _schedule(q.maturity, delta)
        t_arr = np.asarray(times + [q.maturity])
        prev_logdf = logdfs[-1]

        def residual(log_b: float) -> float:
            l_arr = np.asarray(logdfs + [log_b])
            return _ois_par_rate(t_arr, l_arr, sched, delta) - q.rate

        # par rate is strictly decreasing in the pillar discount; bracket in log space
        lo, hi = prev_logdf - 2.0, prev_logdf + 1.0
        f_lo, f_hi = residual(lo), residual(hi)
        expand = 0
        while f_lo * f_hi > 0 and expand < 8:
            lo -= 2.0
            hi += 1.0
            f_lo, f_hi = residual(lo), residual(hi)
            expand += 1
        if f_lo * f_hi > 0:
            raise NoSolution(f"no admissible discount reprices OIS quote at T={q.maturity}")
        log_b = brentq(residual, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=BOOTSTRAP_MAX_ITER)
        if abs(residual(log_b)) > BOOTSTRAP_RESIDUAL_TOL:
            raise NoSolution(f"OIS bootstrap residual above tolerance at T={q.maturity}")
        times.append(q.maturity)
        logdfs.append(float(log_b))

    log.debug("ois bootstrap: pillars=%d seconds=%.6f", len(quotes),
              time.perf_counter() - started)
    return DiscountCurve(times[1:], np.exp(logdfs[1:]))


def _irs_par_rate(disc: DiscountCurve, spr_times: np.ndarray, spr_logs: np.ndarray,
                  schedule: np.ndarray, delta: float) -> float:
    resets = schedule[:-1]
    pays = schedule[1:]
    spreads = np.exp(np.interp(resets, spr_times, spr_logs))
    b_resets = disc.discount(np.asarray(resets))
    b_pays = disc.discount(np.asarray(pays))
    floating = math.fsum(b_resets * spreads - b_pays)
    annuity = delta * math.fsum(b_pays)
    return floating / annuity


def bootstrap_spread_curve(disc: DiscountCurve, quotes: Iterable[SpreadQuote], tenor: Tenor,
                           ) -> SpreadTermStructure:
    """Build S(0, .) for one tenor from FRA and/or IRS quotes.

    FRA quotes convert directly: S(0,T) = (1 + delta L) / (1 + delta L_D(0;T,T+delta)).
    An IRS quote with final payment T_n pins the pillar at its last reset
    T_n - delta and is solved to reprice exactly, interpolating (log-linearly,
    flat left of the first pillar) across earlier resets.
    """
    from scipy.optimize import brentq
    started = time.perf_counter()
    tenor = tenor if isinstance(tenor, Tenor) else Tenor(tenor)
    delta = float(tenor)
    entries = []
    for q in quotes:
        pillar = q.maturity if q.kind == "FRA" else q.maturity - delta
        if pillar <= 0:
            raise ValueError(f"{q.kind} quote at maturity {q.maturity} has no positive pillar date")
        entries.append((pillar, q))
    entries.sort(key=lambda e: e[0])
    pillars = [e[0] for e in entries]
    if any(b <= a for a, b in zip(pillars, pillars[1:])):
        raise NonIncreasingMaturities("spread quote pillar dates must be strictly increasing")

    times: list[float] = []
    logs: list[float] = []
    for pillar, q in entries:
        if q.kind == "FRA":
            ld = disc.simple_forward(q.maturity, delta)
            s = (1.0 + delta * q.rate) / (1.0 + delta * ld)
            if s <= 0:
                raise NoSolution(f"FRA quote at T={q.maturity} implies non-positive spread")
            times.append(pillar)
            logs.append(math.log(s))
            continue

        sched = _schedule(q.maturity, delta)
        # flat-left anchor: prepend a synthetic node at 0 carrying the unknown/known level
        def residual(log_s: float) -> float:
            t_arr = np.asarray(times + [pillar])
            l_arr = np.asarray(logs + [log_s])
            return _irs_par_rate(disc, t_arr, l_arr, sched, delta) - q.rate

        lo, hi = -1.0, 1.0
        f_lo, f_hi = residual(lo), residual(hi)
        expand = 0
        while f_lo * f_hi > 0 and expand < 8:
            lo -= 1.0
            hi += 1.0
            f_lo, f_hi = residual(lo), residual(hi)
            expand += 1
        if f_lo * f_hi > 0:
            raise NoSolution(f"no admissible spread reprices IRS quote at T={q.maturity}")
        log_s = brentq(residual, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=BOOTSTRAP_MAX_ITER)
        if abs(residual(log_s)) > BOOTSTRAP_RESIDUAL_TOL:
            raise NoSolution(f"spread bootstrap residual above tolerance at T={q.maturity}")
        times.append(pillar)
        logs.append(float(log_s))

    spreads = np.exp(logs)
    if np.any(spreads < 1.0):
        warnings.warn("bootstrapped spread(s) below 1 (negative Libor-OIS basis)", NegativeSpreadWarning)
    log.debug("spread bootstrap: tenor=%s pillars=%d seconds=%.6f", tenor, len(times),
              time.perf_counter() - started)
    return SpreadTermStructure(tenor, times, spreads)
