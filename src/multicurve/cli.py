"""Command-line front end: bootstrap, price, simulate, calibrate,
construct-kernel, and verify.

Configuration comes from ``--config``, either JSON or plain ``key = value``
lines (values parsed as JSON when possible), whose values are read by the
rules of the input files (``RunConfig.option``).  Paths inside a config resolve
relative to the config file.  ``--seed`` overrides the config seed; any
command that draws random numbers refuses to run without one.  Artifacts go
under ``--out``.  Exit status: 0 on success, 1 for domain failures (solver
or pricing errors, failed verify checks), 2 for configuration problems; in
both failure cases a machine-readable error object is printed to stderr.

Verbosity is controlled by the MULTICURVE_LOG environment variable (DEBUG,
INFO, WARNING, ..., case-insensitive; any other value exits 2).  Outputs
carry no timestamps, and every stochastic report embeds its (seed, n_paths,
dt) provenance, so a rerun with the same config and seed reproduces every
artifact byte for byte.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .affine import (
    AffineModelSpec,
    _model_curves,
    affine_bond,
    affine_spread,
    caplet_price_fourier,
    shifted_curves,
    simulate_affine,
)
from .calibration import calibrate
from .hjm import (
    ExponentialVolatility,
    LevyHjmModel,
    LevyTriplet,
    consistency_residual,
    simulate_hjm,
)
from .marketio import (
    REQUIRED,
    Fields,
    SchemaError,
    affine_spec_from_dict,
    affine_spec_to_dict,
    calibration_result_to_dict,
    curve_plot_rows,
    forward_spread_rate_rows,
    load_curve_json,
    load_model_json,
    load_product_json,
    load_quotes_csv,
    load_targets_json,
    load_vol_surface_csv,
    pricing_report,
    save_curve_json,
    save_kernel_json,
    save_plot_csv,
    save_quotes_csv,
    save_report_json,
    simulation_provenance,
    write_csv,
)
from .momentkernel import (
    OBJECTIVES,
    KernelInfeasible,
    MomentTargets,
    feasibility_check,
    solve_jump_kernel,
)
from .products import (
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
from .termstructure import (
    DiscountCurve,
    MarketQuoteSet,
    OisSwapQuote,
    SpreadQuote,
    SpreadTermStructure,
    Tenor,
    bootstrap_ois_curve,
    bootstrap_spread_curve,
    fra_rate_from_curves,
)

log = logging.getLogger(__name__)

# every library failure derives from ValueError (bad inputs, admissibility,
# price bounds), RuntimeError (solver explosions, aborted runs, infeasible
# kernels), or KeyError (missing maturities/tenors)
_DOMAIN_ERRORS = (ValueError, RuntimeError, ArithmeticError, KeyError)


class ConfigError(Exception):
    """Bad or missing configuration; maps to exit status 2."""


@dataclass
class RunConfig:
    """One resolved CLI invocation: command, option map, output dir, seed."""

    command: str
    options: dict
    base_dir: Path
    out_dir: Path
    seed: int | None = None

    def option(self, key: str, kind: str, default=REQUIRED, minimum: int | None = None):
        """Config value ``key`` read as ``kind`` by the file reading rules
        (``marketio.Fields``), and at least ``minimum`` when one is given; a
        bad value raises ConfigError naming the key."""
        fields = Fields(self.options, f"{self.command} config", ConfigError)
        value = fields(key, kind, default)
        if minimum is not None and value < minimum:
            raise ConfigError(f"{fields.where}: field {key!r} must be at least {minimum}, "
                              f"got {value}")
        return value

    def path(self, key: str) -> Path:
        """Resolve a config path relative to the config file and check it exists."""
        return self.resolve_path(self.option(key, "string"), key)

    def resolve_path(self, raw: str, key: str) -> Path:
        """Resolve the raw path string ``raw`` found under config key ``key``."""
        p = (self.base_dir / raw).resolve() if not os.path.isabs(raw) else Path(raw)
        if not p.exists():
            raise ConfigError(f"{key}: file not found: {p}")
        return p

    def require_seed(self) -> int:
        if self.seed is None:
            raise ConfigError(
                f"{self.command} draws random numbers; pass --seed or set seed in the config")
        return self.seed


def _parse_config_text(text: str) -> dict:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError("JSON config must be an object")
        return payload
    options: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"config line {lineno}: expected key = value")
        key, _, raw = body.partition("=")
        raw = raw.strip()
        try:
            options[key.strip()] = json.loads(raw)
        except json.JSONDecodeError:
            options[key.strip()] = raw
    return options


def _tenor_slug(tenor: Tenor) -> str:
    return str(tenor).replace("/", "_")


def _load_spread_curves(run: RunConfig, key: str = "spread_curves"
                        ) -> dict[Tenor, SpreadTermStructure]:
    curves: dict[Tenor, SpreadTermStructure] = {}
    for raw in run.option(key, "string list", []):
        curve = load_curve_json(run.resolve_path(raw, key))
        if not isinstance(curve, SpreadTermStructure):
            raise ConfigError(f"{raw}: expected a spread curve")
        curves[curve.tenor] = curve
    return curves


def _find_spread(curves: dict[Tenor, SpreadTermStructure], tenor: Tenor
                 ) -> SpreadTermStructure:
    for key, curve in curves.items():
        if abs(float(key) - float(tenor)) <= 1e-12:
            return curve
    raise ConfigError(f"no spread curve supplied for tenor {tenor} (config key 'spread_curves')")


# ---------------------------------------------------------------------------
# bootstrap


def _reprice_quotes(quotes: MarketQuoteSet, disc: DiscountCurve,
                    spreads: dict[Tenor, SpreadTermStructure]) -> dict:
    """Residuals of every input quote against the bootstrapped curves."""
    ois_res = 0.0
    for q in quotes.ois_swaps:
        delta = float(q.pay_tenor)
        n = round(q.maturity / delta)
        schedule = delta * np.arange(0, n + 1)
        ois_res = max(ois_res, abs(ois_swap_rate(disc, schedule) - q.rate))
    spread_res = 0.0
    for tenor, qs in quotes.spread_quotes.items():
        curve = spreads[tenor]
        delta = float(tenor)
        for q in qs:
            if q.kind == "FRA":
                model = fra_rate_from_curves(disc, curve, q.maturity)
            else:
                n = round(q.maturity / delta)
                model = irs_swap_rate(disc, curve, delta * np.arange(0, n + 1))
            spread_res = max(spread_res, abs(model - q.rate))
    return {"max_ois_residual": ois_res, "max_spread_residual": spread_res}


def cmd_bootstrap(run: RunConfig) -> int:
    quotes = load_quotes_csv(run.path("quotes"))
    quotes.validate()
    disc = bootstrap_ois_curve(quotes.ois_swaps)
    spreads = {tenor: bootstrap_spread_curve(disc, quotes.spread_quotes[tenor], tenor)
               for tenor in sorted(quotes.spread_quotes, key=float)}
    # the plots sample every curve, and eta differences the times: check first
    grid = run.option("plot_times", "vector", None)
    last = min(float(curve.pillar_times[-1]) for curve in (disc, *spreads.values()))
    if grid is not None and (np.any(grid < 0) or np.any(grid > last)
                             or (spreads and len(np.unique(grid)) < max(len(grid), 2))):
        raise ConfigError(f"{run.command} config: field 'plot_times' must lie in [0, {last}] and, "
                          f"with spread quotes, hold two or more distinct times; got {grid.tolist()}")
    save_curve_json(disc, run.out_dir / "discount_curve.json")
    for tenor, curve in spreads.items():
        save_curve_json(curve, run.out_dir / f"spread_curve_{_tenor_slug(tenor)}.json")
        log.info("bootstrapped %s spread curve with %d pillars",
                 tenor, len(curve.pillar_times))
    report = {
        "kind": "bootstrap_report",
        "n_ois_quotes": len(quotes.ois_swaps),
        "tenors": [str(t) for t in sorted(spreads, key=float)],
        **_reprice_quotes(quotes, disc, spreads),
    }
    save_report_json(report, run.out_dir / "bootstrap_report.json")
    if grid is not None:
        save_plot_csv(run.out_dir / "curves_plot.csv",
                      curve_plot_rows(disc, spreads, grid))
        for tenor, curve in spreads.items():
            save_plot_csv(run.out_dir / f"eta_{_tenor_slug(tenor)}.csv",
                          forward_spread_rate_rows(curve, grid), header=("T", "eta"))
    return 0


# ---------------------------------------------------------------------------
# price


def _price_linear(product: ProductSpec, disc: DiscountCurve,
                  spreads: dict[Tenor, SpreadTermStructure]) -> dict:
    sched = list(product.schedule)
    if product.kind == "FRA":
        curve = _find_spread(spreads, product.tenor)
        price = fra_value(disc, curve, sched[0], product.fixed_rate, product.notional)
        par = fra_rate_from_curves(disc, curve, sched[0])
    elif product.kind == "OIS_SWAP":
        price = ois_swap_value(disc, sched, product.fixed_rate, product.notional)
        par = ois_swap_rate(disc, sched)
    elif product.kind == "IRS":
        curve = _find_spread(spreads, product.tenor)
        price = irs_value(disc, curve, sched, product.fixed_rate, product.notional)
        par = irs_swap_rate(disc, curve, sched)
    else:  # BASIS_SWAP: the quoted object is the fair spread itself
        curve_a = _find_spread(spreads, product.tenor)
        curve_b = _find_spread(spreads, product.tenor_b)
        par = basis_swap_spread(disc, curve_a, sched, curve_b,
                                list(product.schedule_b), list(product.schedule_fixed))
        price = par
    return pricing_report(price, breakdown={"par_rate": par})


def cmd_price(run: RunConfig) -> int:
    product = load_product_json(run.path("product"))
    if product.kind in ("FRA", "OIS_SWAP", "IRS", "BASIS_SWAP"):
        disc = load_curve_json(run.path("discount_curve"))
        if not isinstance(disc, DiscountCurve):
            raise ConfigError("discount_curve does not hold a discount curve")
        report = _price_linear(product, disc, _load_spread_curves(run))
    elif product.kind == "CAPLET":
        model = load_model_json(run.path("model"))
        if not isinstance(model, AffineModelSpec):
            raise ConfigError("caplet pricing requires an affine model spec")
        price = caplet_price_fourier(model, product.schedule[0], product.tenor,
                                     product.fixed_rate, product.notional)
        report = pricing_report(price)
    else:  # SWAPTION via Monte Carlo on the affine model
        model = load_model_json(run.path("model"))
        if not isinstance(model, AffineModelSpec):
            raise ConfigError("swaption pricing requires an affine model spec")
        seed = run.require_seed()
        n_paths = run.option("n_paths", "integer", minimum=1)
        dt = run.option("dt", "positive number")
        expiry = product.schedule[0]
        paths = simulate_affine(model, expiry, dt, n_paths, seed,
                                maturities=list(product.schedule))
        price, se = swaption_price_mc(paths, product.tenor, list(product.schedule),
                                      product.fixed_rate, product.notional)
        report = pricing_report(price, std_error=se,
                                provenance=simulation_provenance(seed, n_paths, dt))
    save_report_json(report, run.out_dir / "price_report.json")
    print(json.dumps({"price": report["price"]}))
    return 0


# ---------------------------------------------------------------------------
# simulate


def _initial_model_curves(model, maturities) -> tuple:
    """Time-0 bond and spread functions implied by the simulated model."""
    if isinstance(model, AffineModelSpec):
        mats = [float(m) for m in maturities]
        bonds, spreads = _model_curves(model, model.x0[None, :], model.y0[None, :], mats)
        bond_at = dict(zip(mats, bonds[0]))
        spread_at = [dict(zip(mats, spreads[tenor][0])) for tenor in model.tenors]
        bond0 = lambda T: bond_at[float(T)]  # noqa: E731
        spread0 = lambda i, T: spread_at[i][float(T)]  # noqa: E731
        tenors = list(model.tenors)
    else:
        f0 = float(model.forward_curve)
        etas = [float(c) for c in model.forward_spread_curves]
        bond0 = lambda T: math.exp(-f0 * T)  # noqa: E731
        spread0 = lambda i, T: math.exp(etas[i] * T)  # noqa: E731
        tenors = list(model.tenors)
    return bond0, spread0, tenors


def _martingale_rows(pathsets, bond0, spread0, tenors) -> list[dict]:
    rows = []
    for ps in pathsets:
        inv_numeraire = 1.0 / ps.numeraire
        for T in ps.maturities:
            disc_bond = ps.bond(T) * inv_numeraire
            entry = {
                "time": float(ps.time),
                "maturity": float(T),
                "discounted_bond_mean": float(np.mean(disc_bond)),
                "bond_target": float(bond0(T)),
                "bond_se": float(np.std(disc_bond, ddof=1) / math.sqrt(len(disc_bond))),
            }
            entry["bond_error"] = entry["discounted_bond_mean"] - entry["bond_target"]
            for i, tenor in enumerate(tenors):
                disc_sb = ps.spread(tenor, T) * ps.bond(T) * inv_numeraire
                key = _tenor_slug(tenor)
                entry[f"spread_{key}_mean"] = float(np.mean(disc_sb))
                entry[f"spread_{key}_target"] = float(spread0(i, T) * bond0(T))
                entry[f"spread_{key}_se"] = float(
                    np.std(disc_sb, ddof=1) / math.sqrt(len(disc_sb)))
                entry[f"spread_{key}_error"] = (
                    entry[f"spread_{key}_mean"] - entry[f"spread_{key}_target"])
            rows.append(entry)
    return rows


def _dump_paths_csv(path, pathsets, tenors, n_dump: int) -> None:
    rows = []
    for ps in pathsets:
        keep = min(n_dump, len(ps.numeraire))
        for p in range(keep):
            rows.append((float(ps.time), p, "numeraire", float(ps.numeraire[p])))
        for T in ps.maturities:
            bonds = ps.bond(T)
            for p in range(keep):
                rows.append((float(ps.time), p, f"bond_{T:g}", float(bonds[p])))
            for tenor in tenors:
                series = ps.spread(tenor, T)
                name = f"spread_{_tenor_slug(tenor)}_{T:g}"
                for p in range(keep):
                    rows.append((float(ps.time), p, name, float(series[p])))
    write_csv(path, ("time", "path", "field", "value"), rows)


def cmd_simulate(run: RunConfig) -> int:
    n_dump = run.option("dump_paths", "integer", 100, minimum=0)
    model = load_model_json(run.path("model"))
    seed = run.require_seed()
    n_paths = run.option("n_paths", "integer", minimum=1)
    dt = run.option("dt", "positive number")
    horizon = run.option("horizon", "positive number")
    maturities = run.option("maturities", "vector").tolist()
    report: dict = {
        "kind": "simulation_report",
        "provenance": simulation_provenance(seed, n_paths, dt),
        "horizon": horizon,
    }
    if isinstance(model, AffineModelSpec):
        ps = simulate_affine(model, horizon, dt, n_paths, seed, maturities)
        pathsets = [ps]
        report["model"] = "affine"
    else:
        obs = run.option("observation_times", "vector", np.array([horizon])).tolist()
        result = simulate_hjm(model, horizon, dt, n_paths, seed, maturities,
                              observation_times=obs)
        pathsets = [result.pathset(t) for t in obs]
        report["model"] = "hjm"
        report["consistency_residual"] = consistency_residual(result)
        report["aborted_paths"] = result.diagnostics["aborted"]
    bond0, spread0, tenors = _initial_model_curves(model, maturities)
    report["martingale"] = _martingale_rows(pathsets, bond0, spread0, tenors)
    save_report_json(report, run.out_dir / "simulation_report.json")
    if n_dump > 0:
        _dump_paths_csv(run.out_dir / "paths.csv", pathsets, tenors, n_dump)
    return 0


# ---------------------------------------------------------------------------
# calibrate


def _set_by_pointer(doc, pointer: str, value: float) -> None:
    """Assign into a nested dict/list along a slash-separated pointer."""
    parts = pointer.strip("/").split("/")
    node = doc
    for part in parts[:-1]:
        node = node[int(part)] if isinstance(node, list) else node[part]
    last = parts[-1]
    if isinstance(node, list):
        node[int(last)] = value
    else:
        if last not in node:
            raise KeyError(last)
        node[last] = value


def cmd_calibrate(run: RunConfig) -> int:
    model = load_model_json(run.path("model"))
    if not isinstance(model, AffineModelSpec):
        raise ConfigError("calibration requires an affine model spec")
    base_doc = affine_spec_to_dict(model)
    surface = load_vol_surface_csv(run.path("surface"))
    disc = load_curve_json(run.path("discount_curve"))
    curves = _load_spread_curves(run)
    spreads = {q.tenor: _find_spread(curves, q.tenor) for q in surface.quotes}
    seed = run.require_seed()
    restarts = run.option("restarts", "integer", 3, minimum=0)
    max_iterations = run.option("max_iterations", "integer", 4000, minimum=1)
    params = run.option("parameters", "object list")
    if not params:
        raise ConfigError("parameters must list at least one free coefficient")
    fields = [p("field", "string") for p in params]
    initials = [p("initial", "number") for p in params]
    bounds = [(p("lower", "number", None, True), p("upper", "number", None, True))
              for p in params]
    for pointer in fields:
        try:
            _set_by_pointer(copy.deepcopy(base_doc), pointer, 0.0)
        except (KeyError, IndexError, TypeError, ValueError):
            raise ConfigError(f"parameter field {pointer!r} not found in the model") from None

    def build_spec(values):
        doc = copy.deepcopy(base_doc)
        for pointer, value in zip(fields, values):
            _set_by_pointer(doc, pointer, float(value))
        return affine_spec_from_dict(doc)

    result = calibrate(
        build_spec, initials, surface, disc, spreads,
        bounds=bounds,
        restarts=restarts, seed=seed, max_iterations=max_iterations,
    )
    doc = calibration_result_to_dict(result, parameter_names=fields)
    doc["provenance"] = {"seed": seed, "n_quotes": len(surface)}
    save_report_json(doc, run.out_dir / "calibration_result.json")
    save_report_json(affine_spec_to_dict(build_spec(result.parameters)),
                     run.out_dir / "calibrated_model.json")
    print(json.dumps({"objective": result.objective,
                      "converged": result.converged}))
    return 0


# ---------------------------------------------------------------------------
# construct-kernel


def cmd_construct_kernel(run: RunConfig) -> int:
    grid_size = run.option("grid_size", "integer", 400, minimum=1)
    objective = run.option("objective", "string", "min-total-mass")
    if objective not in OBJECTIVES:
        raise ConfigError(f"config key 'objective' must be one of {list(OBJECTIVES)}, "
                          f"got {objective!r}")
    targets = load_targets_json(run.path("targets"))
    feas = feasibility_check(targets, grid_size=grid_size)
    feas_doc = {"kind": "feasibility_report", "feasible": feas.feasible}
    if feas.dual_ray is not None:
        feas_doc["dual_ray"] = [float(z) for z in feas.dual_ray]
    save_report_json(feas_doc, run.out_dir / "feasibility_report.json")
    if not feas.feasible:
        raise KernelInfeasible(
            "targets certified infeasible; see feasibility_report.json for the dual ray")
    kernel = solve_jump_kernel(targets, objective=objective, grid_size=grid_size)
    save_kernel_json(kernel, run.out_dir / "kernel.json")
    print(json.dumps({"atoms": len(kernel.atoms),
                      "max_residual": float(np.max(np.abs(kernel.residuals)))}))
    return 0


# ---------------------------------------------------------------------------
# verify


def _toy_quote_set() -> MarketQuoteSet:
    t6m = Tenor.parse("6M")
    disc = DiscountCurve([1.0, 2.0, 3.0, 5.0], np.exp(-0.02 * np.array([1.0, 2.0, 3.0, 5.0])))
    spread = SpreadTermStructure(t6m, [0.5, 2.0, 5.0],
                                 np.exp(0.004 * np.array([0.5, 2.0, 5.0])))
    ois = []
    for T in (1.0, 2.0, 3.0, 5.0):
        schedule = np.arange(0.0, T + 0.5, 1.0)
        ois.append(OisSwapQuote(T, ois_swap_rate(disc, schedule), Tenor.parse("1Y")))
    fras = [SpreadQuote(T, fra_rate_from_curves(disc, spread, T), "FRA")
            for T in (0.5, 1.0, 2.0)]
    irs_sched = np.arange(0.0, 4.001, 0.5)
    irs = [SpreadQuote(4.0, irs_swap_rate(disc, spread, irs_sched), "IRS")]
    return MarketQuoteSet(ois_swaps=ois, spread_quotes={t6m: fras + irs})


def _verify_bootstrap(out_dir: Path) -> dict:
    quotes = _toy_quote_set()
    save_quotes_csv(quotes, out_dir / "quotes.csv")
    reloaded = load_quotes_csv(out_dir / "quotes.csv")
    disc = bootstrap_ois_curve(reloaded.ois_swaps)
    t6m = next(iter(reloaded.spread_quotes))
    spread = bootstrap_spread_curve(disc, reloaded.spread_quotes[t6m], t6m)
    save_curve_json(disc, out_dir / "discount_curve.json")
    save_curve_json(spread, out_dir / "spread_curve_1_2.json")
    res = _reprice_quotes(reloaded, disc, {t6m: spread})
    metric = max(res["max_ois_residual"], res["max_spread_residual"])
    return {"name": "bootstrap_round_trip", "metric": metric,
            "threshold": 1e-12, "passed": metric <= 1e-12}


def _verify_riccati() -> dict:
    # scalar Gaussian and square-root short-rate models against their
    # closed-form bond prices
    kappa, theta, sigma, x0 = 0.5, 0.03, 0.01, 0.02
    vas = AffineModelSpec(pos_dims=0, real_dims=1, drift_const=[kappa * theta],
                          drift_linear=[[-kappa]], diffusion_const=[[sigma ** 2]],
                          rate_const=0.0, rate_linear=[1.0], x0=[x0])
    kc, tc, sc, xc = 0.8, 0.04, 0.25, 0.03
    cir = AffineModelSpec(pos_dims=1, real_dims=0, drift_const=[kc * tc],
                          drift_linear=[[-kc]], diffusion_const=[[0.0]],
                          diffusion_linear=[[[sc ** 2]]],
                          rate_const=0.0, rate_linear=[1.0], x0=[xc])
    worst = 0.0
    for T in (0.25, 1.0, 5.0, 10.0):
        c = (1.0 - math.exp(-kappa * T)) / kappa
        a = ((theta - sigma ** 2 / (2 * kappa ** 2)) * (c - T)
             - sigma ** 2 * c ** 2 / (4 * kappa))
        worst = max(worst, abs(affine_bond(vas, [x0], T) - math.exp(a - c * x0)))
        h = math.sqrt(kc ** 2 + 2 * sc ** 2)
        den = 2 * h + (kc + h) * math.expm1(h * T)
        b_cir = 2 * math.expm1(h * T) / den
        a_cir = (2 * kc * tc / sc ** 2) * math.log(2 * h * math.exp((kc + h) * T / 2) / den)
        worst = max(worst, abs(affine_bond(cir, [xc], T) - math.exp(a_cir - b_cir * xc)))
    return {"name": "riccati_closed_form", "metric": worst,
            "threshold": 1e-8, "passed": worst <= 1e-8}


def _verify_par_identities() -> dict:
    disc = DiscountCurve([0.5, 1.0, 2.0, 3.0], [0.99, 0.975, 0.95, 0.92])
    t6m = Tenor.parse("6M")
    spread = SpreadTermStructure(t6m, [0.5, 3.0], [1.003, 1.012])
    sched = np.arange(0.0, 2.001, 0.5)
    worst = abs(fra_value(disc, spread, 1.0, fra_rate_from_curves(disc, spread, 1.0)))
    worst = max(worst, abs(irs_value(disc, spread, sched,
                                     irs_swap_rate(disc, spread, sched))))
    worst = max(worst, abs(ois_swap_value(disc, np.arange(0.0, 3.001, 1.0),
                                          ois_swap_rate(disc, np.arange(0.0, 3.001, 1.0)))))
    unit = SpreadTermStructure(t6m, [0.5, 3.0], [1.0, 1.0])
    basis = basis_swap_spread(disc, unit, sched, unit, sched, sched)
    passed = worst <= 1e-12 and basis == 0.0
    return {"name": "par_identities", "metric": max(worst, abs(basis)),
            "threshold": 1e-12, "passed": passed}


def _verify_shift_extension() -> dict:
    t6m = Tenor.parse("6M")
    spec = AffineModelSpec(
        pos_dims=0, real_dims=1, drift_const=[0.015], drift_linear=[[-0.5]],
        diffusion_const=[[1e-4]], rate_const=0.0, rate_linear=[1.0],
        n_spread=1, u_vectors=[[1.0]], tenors=(t6m,), y_mode="diffusive",
        y_drift_const=[0.003], y_diff_const=[[4e-6]], x0=[0.02], y0=[0.004])
    times = np.array([0.5, 1.0, 2.0, 4.0])
    market_disc = DiscountCurve(times, np.exp(-0.025 * times))
    market_spread = SpreadTermStructure(t6m, times, np.exp(0.005 * times))
    anchor = 0.0
    for T in times:
        sc = shifted_curves(spec, market_disc, {t6m: market_spread},
                            spec.x0, spec.y0, 0.0, float(T), tenor=t6m)
        anchor = max(anchor, abs(sc.bond - market_disc.discount(T)),
                     abs(sc.spread - market_spread.spread(T)))
    own_disc = DiscountCurve(times, affine_bond(spec, spec.x0, times))
    own_spread = SpreadTermStructure(t6m, times,
                                     affine_spread(spec, spec.x0, spec.y0, times, i=0))
    # t and T sit on the market pillars so curve interpolation is exact and
    # the shift must collapse to the bare model bond
    diff = 0.0
    for T in (2.0, 4.0):
        sc = shifted_curves(spec, own_disc, {t6m: own_spread},
                            [0.027], [0.006], 1.0, T, tenor=t6m)
        model_bond = float(affine_bond(spec, [0.027], T - 1.0))
        diff = max(diff, abs(sc.bond / model_bond - 1.0))
    metric = max(anchor, diff)
    return {"name": "shift_extension", "metric": metric,
            "threshold": 1e-12, "passed": metric <= 1e-12}


def _verify_fourier_vs_mc() -> dict:
    t6m = Tenor.parse("6M")
    spec = AffineModelSpec(
        pos_dims=0, real_dims=1, drift_const=[0.5 * 0.03], drift_linear=[[-0.5]],
        diffusion_const=[[0.012 ** 2]], rate_const=0.0, rate_linear=[1.0],
        n_spread=1, u_vectors=[[1.0]], tenors=(t6m,), y_mode="diffusive",
        y_drift_const=[0.001], y_drift_linear=[[0.15]], y_diff_const=[[0.02 ** 2]],
        x0=[0.02], y0=[0.004])
    strike, expiry = 0.035, 1.0
    exact = caplet_price_fourier(spec, expiry, t6m, strike)
    paths = simulate_affine(spec, expiry, 1.0 / 100.0, 20_000, 20260515,
                            maturities=[expiry, expiry + 0.5])
    mc, se = caplet_price_mc(paths, t6m, strike)
    metric = abs(mc - exact) / se
    return {"name": "fourier_vs_mc", "metric": metric,
            "threshold": 3.0, "passed": metric <= 3.0}


def _verify_martingale() -> dict:
    t6m = Tenor.parse("6M")
    model = LevyHjmModel(
        driver=LevyTriplet(drift=[0.0, 0.0], covariance=np.diag([1.0, 1e-4])),
        n_curve_factors=1,
        ois_vol=ExponentialVolatility.flat(0.01),
        spread_vols=[ExponentialVolatility.flat(0.05)],
        u_vectors=[[1.0]], tenors=[t6m],
        forward_curve=0.02, forward_spread_curves=[0.005],
        spread_factor_mode="integrated-drift")
    res = simulate_hjm(model, horizon=0.5, dt=1.0 / 50.0, n_paths=5000, seed=7,
                       maturities=[1.0, 2.0])
    ps = res.pathset(0.5)
    worst = 0.0
    for T in (1.0, 2.0):
        disc_bond = ps.bond(T) / ps.numeraire
        err = abs(np.mean(disc_bond) - math.exp(-0.02 * T))
        worst = max(worst, err / (np.std(disc_bond, ddof=1) / math.sqrt(len(disc_bond))))
        disc_sb = ps.spread(t6m, T) * ps.bond(T) / ps.numeraire
        err = abs(np.mean(disc_sb) - math.exp(0.005 * T) * math.exp(-0.02 * T))
        worst = max(worst, err / (np.std(disc_sb, ddof=1) / math.sqrt(len(disc_sb))))
    return {"name": "martingale_suite", "metric": worst,
            "threshold": 3.0, "passed": worst <= 3.0,
            "consistency_residual": consistency_residual(res)}


def _verify_kernel(out_dir: Path) -> dict:
    u = np.array([0.5, 1.0, 1.5])
    atoms_true = np.array([0.3, 0.9, 2.0])
    weights_true = np.array([0.5, 0.2, 0.05])
    p = np.array([float(np.sum(weights_true * (np.exp(ui * atoms_true) - 1.0)))
                  for ui in u])
    targets = MomentTargets(u=u, p=p, mass_cap=100.0)
    kernel = solve_jump_kernel(targets)
    save_kernel_json(kernel, out_dir / "kernel.json")
    metric = float(np.max(np.abs(kernel.residuals)))
    bad = MomentTargets(u=np.array([1.0]), p=np.array([-0.5]), mass_cap=10.0, floor=0.0)
    certified = not feasibility_check(bad).feasible
    return {"name": "kernel_moment_problem", "metric": metric,
            "threshold": 1e-8, "passed": metric <= 1e-8 and certified,
            "infeasible_case_certified": certified}


def _verify_ordering() -> dict:
    tenors = [Tenor.parse("3M"), Tenor.parse("6M"), Tenor.parse("1Y")]
    model = LevyHjmModel(
        driver=LevyTriplet(drift=[0.0, 0.0], covariance=np.diag([1.0, 0.0])),
        n_curve_factors=1,
        ois_vol=ExponentialVolatility.flat(0.01),
        spread_vols=[ExponentialVolatility.flat(0.0) for _ in tenors],
        u_vectors=[[0.5], [1.0], [2.0]], tenors=tenors,
        forward_curve=0.02, forward_spread_curves=[0.002, 0.005, 0.02],
        spread_factor_mode="kernel")
    res = simulate_hjm(model, horizon=1.0, dt=1.0 / 26.0, n_paths=2000, seed=14,
                       maturities=[1.0, 2.0, 3.0])
    violations = 0
    ps = res.pathset(1.0)
    s = [ps.spreads[t] for t in tenors]
    violations += int(np.sum(s[0] < 1.0))
    violations += int(np.sum(s[1] < s[0]))
    violations += int(np.sum(s[2] < s[1]))
    return {"name": "spread_ordering_floor", "metric": violations,
            "threshold": 0, "passed": violations == 0}


def _verify_determinism() -> dict:
    t6m = Tenor.parse("6M")
    spec = AffineModelSpec(
        pos_dims=1, real_dims=0, drift_const=[0.8 * 0.04], drift_linear=[[-0.8]],
        diffusion_const=[[0.0]], diffusion_linear=[[[0.25 ** 2]]],
        rate_const=0.0, rate_linear=[1.0],
        n_spread=1, u_vectors=[[0.7]], tenors=(t6m,), y_mode="integrated",
        y_drift_linear=[[0.3]], x0=[0.03], y0=[0.001])
    a = simulate_affine(spec, 1.0, 1.0 / 50.0, 500, 99, maturities=[1.0, 2.0])
    b = simulate_affine(spec, 1.0, 1.0 / 50.0, 500, 99, maturities=[1.0, 2.0])
    same = (np.array_equal(a.numeraire, b.numeraire)
            and np.array_equal(a.bonds, b.bonds)
            and all(np.array_equal(a.spreads[t], b.spreads[t]) for t in a.spreads))
    return {"name": "simulation_determinism", "metric": 0.0 if same else 1.0,
            "threshold": 0.0, "passed": same}


def cmd_verify(run: RunConfig) -> int:
    checks = [
        _verify_riccati(),
        _verify_bootstrap(run.out_dir),
        _verify_par_identities(),
        _verify_shift_extension(),
        _verify_fourier_vs_mc(),
        _verify_martingale(),
        _verify_kernel(run.out_dir),
        _verify_ordering(),
        _verify_determinism(),
    ]
    for c in checks:
        c["passed"] = bool(c["passed"])
        c["metric"] = float(c["metric"])
    width = max(len(c["name"]) for c in checks)
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"{status}  {c['name']:<{width}}  metric={c['metric']:.3e}  "
              f"threshold={c['threshold']:g}")
    n_failed = sum(not c["passed"] for c in checks)
    report = {"kind": "verify_report", "checks": checks,
              "n_checks": len(checks), "n_failed": n_failed}
    save_report_json(report, run.out_dir / "verify_report.json")
    print(f"{len(checks) - n_failed}/{len(checks)} checks passed")
    return 0 if n_failed == 0 else 1


# ---------------------------------------------------------------------------
# entry point


_HANDLERS = {
    "bootstrap": cmd_bootstrap,
    "price": cmd_price,
    "simulate": cmd_simulate,
    "calibrate": cmd_calibrate,
    "construct-kernel": cmd_construct_kernel,
    "verify": cmd_verify,
}


_LOG_LEVELS = ("CRITICAL", "ERROR", "WARNING", "INFO", "DEBUG", "NOTSET")


def _emit_error(kind: str, message: str) -> None:
    print(json.dumps({"error": {"kind": kind, "message": message}}), file=sys.stderr)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built by the first ``main`` call and shared by
    every later call in the process (parsing does not change it)."""
    parser = argparse.ArgumentParser(
        prog="multicurve",
        description="Multi-curve term-structure toolkit: curve bootstrap, "
                    "pricing, simulation, calibration, kernel construction.")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "bootstrap": "build discount and spread curves from a quote CSV",
        "price": "price one product from curves or a model spec",
        "simulate": "simulate a model and report martingale diagnostics",
        "calibrate": "fit free model coefficients to a caplet vol surface",
        "construct-kernel": "solve a jump kernel from exponential-moment targets",
        "verify": "run the deterministic invariant battery",
    }
    for name, text in helps.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=name != "verify",
                       help="JSON or key=value configuration file")
        p.add_argument("--seed", type=int, default=None,
                       help="random seed (mandatory for stochastic commands)")
        p.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    level = os.environ.get("MULTICURVE_LOG", "WARNING").upper()
    # a registered level name maps to its number, any other string to a string
    if not isinstance(logging.getLevelName(level), int):
        _emit_error("config", f"MULTICURVE_LOG must be one of {', '.join(_LOG_LEVELS)}, "
                              f"got {os.environ['MULTICURVE_LOG']!r}")
        return 2
    # this call's level and stderr, on the package logger, for this call only
    package_log = logging.getLogger("multicurve")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s %(levelname)s %(message)s"))
    saved_level = package_log.level
    package_log.setLevel(level)
    package_log.addHandler(handler)
    try:
        return _run(argv)
    finally:
        package_log.removeHandler(handler)
        package_log.setLevel(saved_level)


def _run(argv) -> int:
    args = _build_parser().parse_args(argv)
    try:
        options, base_dir = {}, Path.cwd()
        if args.config is not None:
            config_path = Path(args.config)
            if not config_path.exists():
                raise ConfigError(f"config file not found: {config_path}")
            options = _parse_config_text(config_path.read_text(encoding="utf-8"))
            base_dir = config_path.resolve().parent
        run = RunConfig(command=args.command, options=options,
                        base_dir=base_dir, out_dir=Path(args.out))
        run.seed = args.seed if args.seed is not None else run.option("seed", "integer", None)
        if run.seed is not None and not 0 <= run.seed < 2 ** 64:
            raise ConfigError(f"seed must lie in [0, 2**64), got {run.seed}")
        run.out_dir.mkdir(parents=True, exist_ok=True)
        return _HANDLERS[args.command](run)
    except ConfigError as exc:
        _emit_error("config", str(exc))
        return 2
    except SchemaError as exc:
        _emit_error("schema", str(exc))
        return 2
    except FileNotFoundError as exc:
        _emit_error("config", str(exc))
        return 2
    except _DOMAIN_ERRORS as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
