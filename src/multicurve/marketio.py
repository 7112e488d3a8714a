"""Flat-file formats for quotes, curves, model specs, and result artifacts.

CSV carries tabular market data and plot output; JSON carries structured
artifacts (curves, model specifications, kernels, pricing and calibration
reports).  Every JSON document embeds a ``schema_version`` field.  Writers
are deterministic: sorted keys, repr-shortest floats, LF newlines, and
insertion-ordered rows, so re-running a seeded command reproduces output
files byte for byte.

Quote CSV schema: header ``instrument,tenor,maturity,quote`` with instrument
in {OIS, FRA, IRS, BASIS}.  BASIS rows are accepted by the parser but not
consumed by either bootstrapper; they are dropped with a warning.  Vol
surface CSV schema: ``expiry,tenor,strike,vol``.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from pathlib import Path
from typing import Sequence

import numpy as np

from .affine import AffineJumps, AffineModelSpec, InadmissibleSpec
from .calibration import CalibrationResult, VolQuote, VolQuoteSurface
from .hjm import ExponentialVolatility, LevyHjmModel, LevyTriplet
from .momentkernel import JumpKernel, MomentTargets
from .products import ProductSpec
from .termstructure import (
    DiscountCurve,
    MarketQuoteSet,
    OisSwapQuote,
    SpreadQuote,
    SpreadTermStructure,
    Tenor,
)

SCHEMA_VERSION = 1

_QUOTE_HEADER = ["instrument", "tenor", "maturity", "quote"]
_VOL_HEADER = ["expiry", "tenor", "strike", "vol"]


class SchemaError(ValueError):
    """A file does not match the expected schema or version."""


class InadmissibleSchema(SchemaError, InadmissibleSpec):
    """A model file whose coefficients are inadmissible: a schema error to the
    CLI, an inadmissible trial point to calibration."""


# ---------------------------------------------------------------------------
# low-level helpers


def _dump_json(payload: dict, path) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def _read_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc


def _load_json(path, expected_kind: str | None = None) -> dict:
    payload = _read_json(path)
    if not isinstance(payload, dict):
        raise SchemaError(f"{path}: expected a JSON object at top level")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"{path}: schema_version {version!r} not supported (expected {SCHEMA_VERSION})"
        )
    if expected_kind is not None and payload.get("kind") != expected_kind:
        raise SchemaError(
            f"{path}: kind {payload.get('kind')!r}, expected {expected_kind!r}"
        )
    return payload


def _floats(values) -> list[float]:
    return [float(v) for v in np.asarray(values, dtype=float).ravel()]


def _nested(values) -> list:
    arr = np.asarray(values, dtype=float)
    return arr.tolist()


def _get(payload: dict, key: str, where: str, kind: type | None = None):
    """``payload[key]``, optionally checked to be of JSON type ``kind``.

    A container that is not an object, a missing field, and a value of the
    wrong type all raise SchemaError.
    """
    if not isinstance(payload, dict):
        raise SchemaError(
            f"{where}: expected an object holding {key!r}, got {type(payload).__name__}")
    if key not in payload:
        raise SchemaError(f"{where}: missing field {key!r}")
    value = payload[key]
    if kind is not None and not isinstance(value, kind):
        raise SchemaError(f"{where}: field {key!r} must be a {kind.__name__}, "
                          f"got {type(value).__name__}")
    return value


def _number(value, key: str, where: str, integer: bool = False):
    """Field ``key``'s value as a float, or an int when ``integer``; any other
    JSON type (a string, a list, a bool) raises SchemaError."""
    kinds = int if integer else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise SchemaError(f"{where}: field {key!r} must be "
                          f"{'an integer' if integer else 'a number'}, "
                          f"got {type(value).__name__}")
    return int(value) if integer else float(value)


def write_csv(path, header: Sequence[str], rows) -> None:
    """Write rows (iterable of tuples) under a fixed header, LF line endings.

    Floats are rendered with repr so identical values always produce
    identical bytes.
    """
    def cell(v):
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return str(v)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([cell(v) for v in row])
    Path(path).write_text(buf.getvalue(), encoding="utf-8", newline="\n")


def _read_csv(path, header: Sequence[str]) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != list(header):
            raise SchemaError(
                f"{path}: header {reader.fieldnames}, expected {list(header)}"
            )
        return [row for row in reader if any((v or "").strip() for v in row.values())]


def _row_float(row: dict, key: str, path, line: int) -> float:
    try:
        return float(row[key])
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path} row {line}: bad {key} {row[key]!r}") from exc


# ---------------------------------------------------------------------------
# quote CSV


def save_quotes_csv(quotes: MarketQuoteSet, path) -> None:
    """One row per quote: OIS rows first, then FRA/IRS grouped by tenor."""
    rows = [("OIS", str(q.pay_tenor), q.maturity, q.rate)
            for q in sorted(quotes.ois_swaps, key=lambda q: q.maturity)]
    for tenor in sorted(quotes.spread_quotes, key=float):
        for q in sorted(quotes.spread_quotes[tenor], key=lambda q: q.maturity):
            rows.append((q.kind, str(tenor), q.maturity, q.rate))
    write_csv(path, _QUOTE_HEADER, rows)


def load_quotes_csv(path) -> MarketQuoteSet:
    """Parse the quote CSV; BASIS rows are dropped with a warning."""
    quotes = MarketQuoteSet()
    n_basis = 0
    for line, row in enumerate(_read_csv(path, _QUOTE_HEADER), start=2):
        instrument = row["instrument"].strip().upper()
        maturity = _row_float(row, "maturity", path, line)
        rate = _row_float(row, "quote", path, line)
        try:
            tenor = Tenor.parse(row["tenor"])
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"{path} row {line}: bad tenor {row['tenor']!r}") from exc
        if instrument == "OIS":
            quotes.ois_swaps.append(OisSwapQuote(maturity, rate, tenor))
        elif instrument in ("FRA", "IRS"):
            quotes.spread_quotes.setdefault(tenor, []).append(
                SpreadQuote(maturity, rate, instrument))
        elif instrument == "BASIS":
            n_basis += 1
        else:
            raise SchemaError(f"{path} row {line}: unknown instrument {instrument!r}")
    if n_basis:
        warnings.warn(
            f"{path}: dropped {n_basis} BASIS row(s); basis quotes are not "
            "consumed by the bootstrap", UserWarning, stacklevel=2)
    return quotes


# ---------------------------------------------------------------------------
# curve JSON


def discount_curve_to_dict(curve: DiscountCurve) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "discount_curve",
        "interpolation": curve.interpolation,
        "times": _floats(curve.pillar_times),
        "discounts": _floats(curve.pillar_discounts),
    }


def spread_curve_to_dict(curve: SpreadTermStructure) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "spread_curve",
        "interpolation": curve.interpolation,
        "tenor": str(curve.tenor),
        "times": _floats(curve.pillar_times),
        "spreads": _floats(curve.pillar_spreads),
    }


def save_curve_json(curve, path) -> None:
    if isinstance(curve, DiscountCurve):
        _dump_json(discount_curve_to_dict(curve), path)
    elif isinstance(curve, SpreadTermStructure):
        _dump_json(spread_curve_to_dict(curve), path)
    else:
        raise SchemaError(f"no JSON form for curve type {type(curve).__name__}")


def load_curve_json(path):
    """Read a curve JSON; returns DiscountCurve or SpreadTermStructure."""
    payload = _load_json(path)
    kind = payload.get("kind")
    if kind == "discount_curve":
        expected = DiscountCurve.interpolation
        curve = DiscountCurve(_get(payload, "times", str(path)),
                              _get(payload, "discounts", str(path)))
    elif kind == "spread_curve":
        expected = SpreadTermStructure.interpolation
        curve = SpreadTermStructure(Tenor.parse(_get(payload, "tenor", str(path))),
                                    _get(payload, "times", str(path)),
                                    _get(payload, "spreads", str(path)))
    else:
        raise SchemaError(f"{path}: unknown curve kind {kind!r}")
    tag = payload.get("interpolation")
    if tag != expected:
        raise SchemaError(f"{path}: interpolation {tag!r} not supported "
                          f"(this build uses {expected!r})")
    return curve


# ---------------------------------------------------------------------------
# affine model spec JSON


def affine_spec_to_dict(spec: AffineModelSpec) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "affine_model",
        "state": {
            "pos_dims": spec.pos_dims,
            "real_dims": spec.real_dims,
            "x0": _floats(spec.x0),
        },
        "drift": {"const": _floats(spec.drift_const),
                  "linear": _nested(spec.drift_linear)},
        "diffusion": {"const": _nested(spec.diffusion_const),
                      "linear": _nested(spec.diffusion_linear)},
        "rate": {"const": float(spec.rate_const),
                 "linear": _floats(spec.rate_linear)},
        "spreads": {
            "mode": spec.y_mode,
            "tenors": [str(t) for t in spec.tenors],
        },
    }
    if spec.n_spread:
        doc["spreads"].update({
            "u_vectors": _nested(spec.u_vectors),
            "y0": _floats(spec.y0),
            "drift_const": _floats(spec.y_drift_const),
            "drift_linear": _nested(spec.y_drift_linear),
            "diff_const": _nested(spec.y_diff_const),
            "diff_linear": _nested(spec.y_diff_linear),
        })
    if spec.jumps is not None:
        jumps = {
            "atoms_x": _nested(spec.jumps.atoms_x),
            "probabilities": _floats(spec.jumps.probabilities),
            "intensity_const": float(spec.jumps.intensity_const),
            "intensity_linear": _floats(spec.jumps.intensity_linear),
        }
        if spec.jumps.atoms_y is not None:
            jumps["atoms_y"] = _nested(spec.jumps.atoms_y)
        doc["jumps"] = jumps
    return doc


def affine_spec_from_dict(payload: dict, where: str = "affine spec") -> AffineModelSpec:
    state = _get(payload, "state", where)
    drift = _get(payload, "drift", where)
    diffusion = _get(payload, "diffusion", where)
    rate = _get(payload, "rate", where)
    spreads = _get(payload, "spreads", where)
    try:
        jumps = None
        if "jumps" in payload:
            j = payload["jumps"]
            jumps = AffineJumps(
                atoms_x=_get(j, "atoms_x", where),
                probabilities=_get(j, "probabilities", where),
                intensity_const=_number(j.get("intensity_const", 0.0), "intensity_const", where),
                intensity_linear=j.get("intensity_linear"),
                atoms_y=j.get("atoms_y"),
            )
        tenors = [Tenor.parse(t) for t in _get(spreads, "tenors", where, list)]
        return AffineModelSpec(
            pos_dims=_number(_get(state, "pos_dims", where), "pos_dims", where, integer=True),
            real_dims=_number(_get(state, "real_dims", where), "real_dims", where, integer=True),
            drift_const=_get(drift, "const", where),
            drift_linear=_get(drift, "linear", where),
            diffusion_const=_get(diffusion, "const", where),
            diffusion_linear=diffusion.get("linear"),
            rate_const=_number(_get(rate, "const", where), "const", where),
            rate_linear=_get(rate, "linear", where),
            n_spread=len(tenors),
            u_vectors=_get(spreads, "u_vectors", where) if tenors else None,
            tenors=tenors,
            y_mode=_get(spreads, "mode", where),
            y_drift_const=spreads.get("drift_const"),
            y_drift_linear=spreads.get("drift_linear"),
            y_diff_const=spreads.get("diff_const"),
            y_diff_linear=spreads.get("diff_linear"),
            jumps=jumps,
            x0=state.get("x0"),
            y0=spreads.get("y0"),
        )
    except SchemaError:
        raise
    except InadmissibleSpec as exc:
        raise InadmissibleSchema(f"{where}: {exc}") from exc
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# HJM model spec JSON


def _vol_to_dict(vol) -> dict:
    if not isinstance(vol, ExponentialVolatility):
        raise SchemaError(
            f"volatility type {type(vol).__name__} has no file form; only the "
            "exponential family serializes")
    return {"family": "exponential",
            "scales": _floats(vol.scales), "decays": _floats(vol.decays)}


def _vol_from_dict(payload: dict, where: str) -> ExponentialVolatility:
    family = _get(payload, "family", where)
    if family != "exponential":
        raise SchemaError(f"{where}: unknown volatility family {family!r}")
    return ExponentialVolatility(_get(payload, "scales", where),
                                 _get(payload, "decays", where))


def _initial_curve_to_dict(curve, what: str):
    if isinstance(curve, (int, float)):
        return float(curve)
    raise SchemaError(
        f"{what} must be a flat level for the file form; callables do not serialize")


def hjm_model_to_dict(model: LevyHjmModel) -> dict:
    driver = {
        "drift": _floats(model.driver.drift),
        "covariance": _nested(model.driver.covariance),
    }
    if len(model.driver.jump_intensities):
        driver["jump_sizes"] = _nested(model.driver.jump_sizes)
        driver["jump_intensities"] = _floats(model.driver.jump_intensities)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "hjm_model",
        "driver": driver,
        "n_curve_factors": model.n_curve_factors,
        "vols": {
            "ois": _vol_to_dict(model.ois_vol),
            "spreads": [_vol_to_dict(v) for v in model.spread_vols],
        },
        "u_vectors": _nested(model.u_vectors),
        "tenors": [str(t) for t in model.tenors],
        "initial_curves": {
            "forward": _initial_curve_to_dict(model.forward_curve, "forward curve"),
            "spreads": [_initial_curve_to_dict(c, "spread rate curve")
                        for c in model.forward_spread_curves],
        },
        "spread_factor": {
            "mode": model.spread_factor_mode,
            "mass_cap": float(model.kernel_mass_cap),
            "objective": model.kernel_objective,
            "y0": None if model.y0 is None else _floats(model.y0),
        },
    }


def hjm_model_from_dict(payload: dict, where: str = "hjm spec") -> LevyHjmModel:
    driver = _get(payload, "driver", where)
    vols = _get(payload, "vols", where)
    curves = _get(payload, "initial_curves", where)
    factor = (_get(payload, "spread_factor", where, dict)
              if "spread_factor" in payload else {})
    try:
        triplet = LevyTriplet(
            drift=_get(driver, "drift", where),
            covariance=_get(driver, "covariance", where),
            jump_sizes=np.asarray(driver.get("jump_sizes", np.zeros((0, 1)))),
            jump_intensities=np.asarray(driver.get("jump_intensities", np.zeros(0))),
        )
        return LevyHjmModel(
            driver=triplet,
            n_curve_factors=_number(_get(payload, "n_curve_factors", where), "n_curve_factors",
                                    where, integer=True),
            ois_vol=_vol_from_dict(_get(vols, "ois", where), where),
            spread_vols=[_vol_from_dict(v, where)
                         for v in _get(vols, "spreads", where, list)],
            u_vectors=_get(payload, "u_vectors", where),
            tenors=[Tenor.parse(t) for t in _get(payload, "tenors", where, list)],
            forward_curve=_number(_get(curves, "forward", where), "forward", where),
            forward_spread_curves=[_number(c, f"spreads[{k}]", where) for k, c in
                                   enumerate(_get(curves, "spreads", where, list))],
            spread_factor_mode=factor.get("mode", "none"),
            kernel_mass_cap=_number(factor.get("mass_cap", 50.0), "mass_cap", where),
            kernel_objective=factor.get("objective", "min-total-mass"),
            y0=factor.get("y0"),
        )
    except SchemaError:
        raise
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def save_model_json(model, path) -> None:
    if isinstance(model, AffineModelSpec):
        _dump_json(affine_spec_to_dict(model), path)
    elif isinstance(model, LevyHjmModel):
        _dump_json(hjm_model_to_dict(model), path)
    else:
        raise SchemaError(f"no JSON form for model type {type(model).__name__}")


def load_model_json(path):
    """Read a model spec JSON; returns AffineModelSpec or LevyHjmModel."""
    payload = _load_json(path)
    kind = payload.get("kind")
    if kind == "affine_model":
        return affine_spec_from_dict(payload, str(path))
    if kind == "hjm_model":
        return hjm_model_from_dict(payload, str(path))
    raise SchemaError(f"{path}: unknown model kind {kind!r}")


# ---------------------------------------------------------------------------
# product spec JSON


def product_spec_to_dict(spec: ProductSpec) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "product",
        "product": spec.kind,
        "schedule": _floats(spec.schedule),
        "fixed_rate": float(spec.fixed_rate),
        "notional": float(spec.notional),
        "tenor": str(spec.tenor),
    }
    if spec.tenor_b is not None:
        doc["tenor_b"] = str(spec.tenor_b)
    if spec.schedule_b:
        doc["schedule_b"] = _floats(spec.schedule_b)
    if spec.schedule_fixed:
        doc["schedule_fixed"] = _floats(spec.schedule_fixed)
    return doc


def product_spec_from_dict(payload: dict, where: str = "product spec") -> ProductSpec:
    try:
        return ProductSpec(
            kind=_get(payload, "product", where),
            schedule=tuple(_get(payload, "schedule", where)),
            fixed_rate=_number(_get(payload, "fixed_rate", where), "fixed_rate", where),
            notional=_number(_get(payload, "notional", where), "notional", where),
            tenor=Tenor.parse(_get(payload, "tenor", where)),
            tenor_b=Tenor.parse(payload["tenor_b"]) if "tenor_b" in payload else None,
            schedule_b=tuple(payload.get("schedule_b", ())),
            schedule_fixed=tuple(payload.get("schedule_fixed", ())),
        )
    except SchemaError:
        raise
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def save_product_json(spec: ProductSpec, path) -> None:
    _dump_json(product_spec_to_dict(spec), path)


def load_product_json(path) -> ProductSpec:
    return product_spec_from_dict(_load_json(path, expected_kind="product"), str(path))


# ---------------------------------------------------------------------------
# kernel JSON


def kernel_to_dict(kernel: JumpKernel) -> dict:
    targets = {
        "u": _floats(kernel.targets.u),
        "p": _floats(kernel.targets.p),
        "mass_cap": float(kernel.targets.mass_cap),
        "floor": float(kernel.targets.floor),
    }
    if kernel.targets.p_extra is not None:
        targets["p_extra"] = float(kernel.targets.p_extra)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "jump_kernel",
        "atoms": [{"xi": float(x), "w": float(w)}
                  for x, w in zip(kernel.atoms, kernel.weights)],
        "targets": targets,
        "residuals": _floats(kernel.residuals),
        "objective": kernel.objective,
        "extra_mass": float(kernel.extra_mass),
    }


def moment_targets_from_dict(payload: dict, where: str = "moment targets") -> MomentTargets:
    """Targets from an object of ``u``, ``p``, ``mass_cap`` and optional
    ``floor`` and ``p_extra``; any malformed or invalid field raises SchemaError."""
    u, p = _get(payload, "u", where), _get(payload, "p", where)
    p_extra = payload.get("p_extra")
    try:
        return MomentTargets(
            u=np.asarray(u, dtype=float),
            p=np.asarray(p, dtype=float),
            mass_cap=_number(_get(payload, "mass_cap", where), "mass_cap", where),
            floor=_number(payload.get("floor", 0.0), "floor", where),
            p_extra=None if p_extra is None else _number(p_extra, "p_extra", where),
        )
    except SchemaError:
        raise
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def load_targets_json(path) -> MomentTargets:
    """Read a kernel targets file: one ``moment_targets_from_dict`` object,
    without the ``schema_version`` of the other JSON documents."""
    return moment_targets_from_dict(_read_json(path), str(path))


def kernel_from_dict(payload: dict, where: str = "kernel") -> JumpKernel:
    atoms = _get(payload, "atoms", where)
    targets = moment_targets_from_dict(_get(payload, "targets", where), where)
    return JumpKernel(
        atoms=np.array([_get(a, "xi", where) for a in atoms], dtype=float),
        weights=np.array([_get(a, "w", where) for a in atoms], dtype=float),
        targets=targets,
        residuals=np.asarray(_get(payload, "residuals", where), dtype=float),
        objective=_get(payload, "objective", where),
        extra_mass=_number(_get(payload, "extra_mass", where), "extra_mass", where),
    )


def save_kernel_json(kernel: JumpKernel, path) -> None:
    _dump_json(kernel_to_dict(kernel), path)


def load_kernel_json(path) -> JumpKernel:
    return kernel_from_dict(_load_json(path, expected_kind="jump_kernel"), str(path))


# ---------------------------------------------------------------------------
# vol surface CSV


def save_vol_surface_csv(surface: VolQuoteSurface, path) -> None:
    if surface.convention != "vol":
        raise SchemaError("the surface CSV stores implied vols; convert premium "
                          "quotes before saving")
    rows = [(q.expiry, str(q.tenor), q.strike, q.value) for q in surface.quotes]
    write_csv(path, _VOL_HEADER, rows)


def load_vol_surface_csv(path) -> VolQuoteSurface:
    quotes = []
    for line, row in enumerate(_read_csv(path, _VOL_HEADER), start=2):
        try:
            tenor = Tenor.parse(row["tenor"])
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"{path} row {line}: bad tenor {row['tenor']!r}") from exc
        quotes.append(VolQuote(
            expiry=_row_float(row, "expiry", path, line),
            tenor=tenor,
            strike=_row_float(row, "strike", path, line),
            value=_row_float(row, "vol", path, line),
        ))
    try:
        return VolQuoteSurface(quotes)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# pricing and calibration reports


def pricing_report(price: float, std_error: float | None = None,
                   breakdown: dict | None = None,
                   provenance: dict | None = None) -> dict:
    """Assemble the pricing report document; std_error and breakdown optional."""
    doc = {"schema_version": SCHEMA_VERSION, "kind": "pricing_report",
           "price": float(price)}
    if std_error is not None:
        doc["std_error"] = float(std_error)
    if breakdown is not None:
        doc["breakdown"] = {k: float(v) for k, v in breakdown.items()}
    if provenance is not None:
        doc["provenance"] = provenance
    return doc


def simulation_provenance(seed: int, n_paths: int, dt: float) -> dict:
    """Provenance block every stochastic report must embed."""
    return {"seed": int(seed), "n_paths": int(n_paths), "dt": float(dt)}


def calibration_result_to_dict(result: CalibrationResult,
                               parameter_names: Sequence[str] | None = None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "calibration_result",
        "parameters": _floats(result.parameters),
        "objective": float(result.objective),
        "residuals": _floats(result.residuals),
        "trace": _floats(result.trace),
        "n_evaluations": int(result.n_evaluations),
        "converged": bool(result.converged),
    }
    if parameter_names is not None:
        if len(parameter_names) != len(result.parameters):
            raise SchemaError("one name per fitted parameter required")
        doc["parameter_names"] = list(parameter_names)
    return doc


def calibration_result_from_dict(payload: dict,
                                 where: str = "calibration result") -> CalibrationResult:
    return CalibrationResult(
        parameters=np.asarray(_get(payload, "parameters", where), dtype=float),
        objective=_number(_get(payload, "objective", where), "objective", where),
        residuals=np.asarray(_get(payload, "residuals", where), dtype=float),
        trace=np.asarray(_get(payload, "trace", where), dtype=float),
        n_evaluations=_number(_get(payload, "n_evaluations", where), "n_evaluations", where,
                              integer=True),
        converged=bool(_get(payload, "converged", where)),
    )


def save_report_json(report: dict, path) -> None:
    if "schema_version" not in report:
        report = {"schema_version": SCHEMA_VERSION, **report}
    _dump_json(report, path)


def load_report_json(path) -> dict:
    return _load_json(path)


# ---------------------------------------------------------------------------
# plot data


def curve_plot_rows(disc: DiscountCurve | None,
                    spreads: dict[Tenor, SpreadTermStructure] | None,
                    times) -> list[tuple]:
    """Tidy (x, series, value) rows sampling the given curves.

    Discount rows come first (series "discount"), then one series per spread
    tenor in increasing tenor order (series "spread_<tenor>").  An empty
    curve set yields no rows.
    """
    grid = np.asarray(times, dtype=float)
    rows: list[tuple] = []
    if disc is not None:
        for t, v in zip(grid, np.atleast_1d(disc.discount(grid))):
            rows.append((float(t), "discount", float(v)))
    for tenor in sorted(spreads or {}, key=float):
        curve = spreads[tenor]
        for t, v in zip(grid, np.atleast_1d(curve.spread(grid))):
            rows.append((float(t), f"spread_{tenor}", float(v)))
    return rows


def forward_spread_rate_rows(curve: SpreadTermStructure, times) -> list[tuple]:
    """Rows (T, eta) of the instantaneous forward spread rate.

    eta(T) is the maturity derivative of log S(0, T), evaluated by central
    finite differences of the stored interpolant on the sampling grid.
    """
    grid = np.asarray(times, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise ValueError("need at least two sample times for a derivative")
    log_s = np.log(np.atleast_1d(curve.spread(grid)))
    eta = np.gradient(log_s, grid)
    return [(float(t), float(e)) for t, e in zip(grid, eta)]


def save_plot_csv(path, rows, header: Sequence[str] = ("x", "series", "value")) -> None:
    write_csv(path, header, rows)
