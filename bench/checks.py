"""Output checks, one per op kind; each returns an error string or None.

The checks read only what the CLI wrote (exit status, stdout, stderr and
the files under ``--out``) and compare it with values the input generator
fixed beforehand.  A failed check is counted, never retried or re-seeded.
"""

from __future__ import annotations

import json
import math

# martingale z-scores beyond this bound fail; with a few hundred z-scores per
# run a correct simulator crosses it about once in ten thousand runs
Z_BOUND = 5.0
ROUNDOFF = 1e-12
CALIBRATION_VOL_TOL = 1e-4
KERNEL_RESIDUAL_TOL = 1e-8


def _report(op, name: str) -> dict:
    return json.loads((op.out / name).read_text(encoding="utf-8"))


def _simulate(op, stdout, stderr):
    report = _report(op, "simulation_report.json")
    if report.get("aborted_paths", 0) != 0:
        return f"{report['aborted_paths']} aborted paths"
    worst = 0.0
    for row in report["martingale"]:
        for key, value in row.items():
            if key.endswith("error"):
                se = row[key[: -len("error")] + "se"]
                worst = max(worst, abs(value) / se if se > 0 else math.inf)
    if not worst <= Z_BOUND:
        return f"martingale z-score {worst:.2f} above {Z_BOUND}"
    return None


def _bootstrap(op, stdout, stderr):
    report = _report(op, "bootstrap_report.json")
    worst = max(report["max_ois_residual"], report["max_spread_residual"])
    if not worst <= ROUNDOFF:
        return f"repricing residual {worst:.3e} above {ROUNDOFF}"
    return None


def _linear_price(op, stdout, stderr):
    price = _report(op, "price_report.json")["price"]
    expected, scale = op.expect["price"], op.expect["scale"]
    if not abs(price - expected) <= 1e-10 * scale:
        return f"price {price!r} differs from {expected!r}"
    return None


def _black(forward, strike, expiry, vol, annuity):
    sd = vol * math.sqrt(expiry)
    d1 = (math.log(forward / strike) + 0.5 * sd * sd) / sd
    cdf = lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0))  # noqa: E731
    return annuity * (forward * cdf(d1) - strike * cdf(d1 - sd))


def _implied_vol(price, forward, strike, expiry, annuity):
    """Black-76 vol by bisection, or None when the price admits none."""
    lo, hi = 1e-6, 10.0
    if not _black(forward, strike, expiry, lo, annuity) < price < _black(
            forward, strike, expiry, hi, annuity):
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _black(forward, strike, expiry, mid, annuity) < price:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _caplet(op, stdout, stderr):
    price = _report(op, "price_report.json")["price"]
    e = op.expect
    if _implied_vol(price, e["forward"], e["strike"], e["expiry"], e["annuity"]) is None:
        return f"caplet price {price!r} inverts to no Black vol"
    return None


def _swaption(op, stdout, stderr):
    report = _report(op, "price_report.json")
    price, se = report["price"], report["std_error"]
    if not (se > 0 and price >= op.expect["lower_bound"] - Z_BOUND * se):
        return f"swaption {price!r} (se {se!r}) below its bound {op.expect['lower_bound']!r}"
    return None


def _calibrate(op, stdout, stderr):
    result = _report(op, "calibration_result.json")
    worst = max(abs(r) for r in result["residuals"])
    if not result["converged"] or not worst <= CALIBRATION_VOL_TOL:
        return f"converged={result['converged']} max vol residual {worst:.3e}"
    return None


def _kernel(op, stdout, stderr):
    worst = json.loads(stdout)["max_residual"]
    if not worst <= KERNEL_RESIDUAL_TOL:
        return f"kernel residual {worst:.3e} above {KERNEL_RESIDUAL_TOL}"
    return None


def _kernel_infeasible(op, stdout, stderr):
    if json.loads(stderr)["error"]["kind"] != "KernelInfeasible":
        return "infeasible targets did not raise KernelInfeasible"
    report = _report(op, "feasibility_report.json")
    ray = report.get("dual_ray")
    # a Farkas ray z has z.G <= 0 on every atom column and z.p > 0
    if report["feasible"] or not ray or not sum(
            z * q for z, q in zip(ray, op.expect["p"])) > 0:
        return f"no separating dual ray: {report}"
    return None


CHECKS = {
    "simulate": _simulate,
    "bootstrap": _bootstrap,
    "linear_price": _linear_price,
    "caplet": _caplet,
    "swaption": _swaption,
    "calibrate": _calibrate,
    "kernel": _kernel,
    "kernel_infeasible": _kernel_infeasible,
}


def check(op, exit_code, stdout: str, stderr: str):
    """None when the op's outputs are right, else a one-line reason."""
    if exit_code != op.expect_exit:
        return f"exit {exit_code}, expected {op.expect_exit}: {stderr.strip()[:200]}"
    try:
        return CHECKS[op.check](op, stdout, stderr)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
