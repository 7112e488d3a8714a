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

Reading rules (``Fields``, shared with the CLI config): a number is finite
and never a bool; vectors, matrices and the 3-d diffusion tensors are
rectangular lists of numbers of a fixed rank; tenors are strings such as
``"6M"``.  Null is allowed only where a writer writes it (the HJM
``spread_factor.y0``).  Unknown keys are ignored, and every CSV row has one
cell per header column.  A malformed field, or a value a constructor
rejects, raises SchemaError naming the file and the field.
"""

from __future__ import annotations

import csv
import io
import json
import math
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

# CSV columns and the kind of their cells
_QUOTE_COLUMNS = {"instrument": "string", "tenor": "tenor",
                  "maturity": "number", "quote": "number"}
_VOL_COLUMNS = {"expiry": "number", "tenor": "tenor", "strike": "number", "vol": "number"}


class SchemaError(ValueError):
    """A file does not match the expected schema or version."""


class InadmissibleSchema(SchemaError, InadmissibleSpec):
    """A model file whose coefficients are inadmissible: a schema error to the
    CLI, an inadmissible trial point to calibration."""


# ---------------------------------------------------------------------------
# the typed field reader

REQUIRED = object()  # the default of a field that must be present
_BAD = object()  # what _read returns for a value of another kind
_EMPTY = np.zeros(0)
_RANKS = {"vector": 1, "matrix": 2, "tensor": 3}
_TYPES = {"integer": int, "boolean": bool, "string": str, "object": dict}
_LARGEST = 1.7976931348623157e308  # the largest finite float


def _nest(value, rank: int) -> bool:
    """True when ``value`` is lists nested ``rank`` deep around finite numbers;
    exact type tests keep bools out, and nan fails every comparison."""
    if rank == 0:
        return (type(value) is float or type(value) is int) and abs(value) <= _LARGEST
    if type(value) is not list:
        return False
    if rank > 1:
        return all(_nest(v, rank - 1) for v in value)
    if not set(map(type, value)) <= {int, float}:
        return False
    try:  # one C-level pass; only non-finite entries make the exact sum non-finite
        return math.isfinite(math.fsum(value))
    except OverflowError:  # a huge integer, or finite entries summing past float range
        return all(abs(v) <= _LARGEST for v in value)
    except ValueError:  # inf - inf
        return False


def _read(value, kind: str):
    """``value`` read as ``kind``, or _BAD when it is of another kind."""
    if kind in _RANKS:
        if not _nest(value, _RANKS[kind]):
            return _BAD
        try:
            arr = np.array(value, dtype=float)
        except ValueError:  # ragged
            return _BAD
        return arr if arr.ndim == _RANKS[kind] else _BAD  # [] is no matrix
    if kind in _TYPES:
        return value if type(value) is _TYPES[kind] else _BAD
    if kind.endswith(" list"):
        items = [_read(v, kind[:-5]) for v in value] if type(value) is list else [_BAD]
        return _BAD if any(v is _BAD for v in items) else items
    if kind == "tenor":
        try:
            return Tenor.parse(value)
        except ValueError:
            return _BAD
    if not _nest(value, 0) or (kind == "positive number" and value <= 0):
        return _BAD
    return float(value)


class Fields:
    """Typed reads of one JSON object's fields, by the module's reading rules.

    ``fields(key, kind)`` reads field ``key`` as a ``number``, ``positive
    number``, ``integer``, ``boolean``, ``string``, ``tenor``, ``vector``,
    ``matrix`` or ``tensor`` (float arrays), ``object`` (a nested Fields), or
    a list of one of them (``tenor list``).  An absent field, or a null one
    when ``nullable``, reads as ``default``, and is an error without one.
    Failures raise ``error`` naming ``where`` and the key."""

    __slots__ = ("payload", "where", "error")

    def __init__(self, payload, where: str, error: type = SchemaError):
        if type(payload) is not dict:
            text = json.dumps(payload, default=repr)[:40]
            raise error(f"{where}: expected a JSON object, got {text}")
        self.payload, self.where, self.error = payload, where, error

    def __call__(self, key: str, kind: str, default=REQUIRED, nullable: bool = False):
        value = self.payload.get(key, REQUIRED)
        if value is REQUIRED or (value is None and nullable):
            if default is REQUIRED:
                raise self.error(f"{self.where}: missing field {key!r}")
            return default
        out = _read(value, kind)
        if out is _BAD:
            text = json.dumps(value, default=repr)[:40]
            raise self.error(f"{self.where}: bad {kind} {text} in field {key!r}")
        if kind == "object":
            return Fields(out, f"{self.where}: {key}", self.error)
        if kind == "object list":
            return [Fields(v, f"{self.where}: {key}[{i}]", self.error) for i, v in enumerate(out)]
        return out


def _build(where: str, make, *args, **kwargs):
    """``make(*args, **kwargs)`` on values read from a file: the one place where
    a constructor's ValueError becomes a SchemaError (InadmissibleSchema)."""
    try:
        return make(*args, **kwargs)
    except InadmissibleSpec as exc:
        raise InadmissibleSchema(f"{where}: {exc}") from exc
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


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
    payload = Fields(_read_json(path), str(path)).payload
    version, kind = payload.get("schema_version"), payload.get("kind")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaError(f"{path}: schema_version {version!r} not supported "
                          f"(expected {SCHEMA_VERSION})")
    if expected_kind is not None and kind != expected_kind:
        raise SchemaError(f"{path}: kind {kind!r}, expected {expected_kind!r}")
    return payload


def _floats(values) -> list:
    return np.asarray(values, dtype=float).tolist()


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


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _read_csv(path, columns: dict) -> list[tuple]:
    """(where, cells...) per non-blank row, each cell read as its column's kind."""
    rows = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != list(columns):
            raise SchemaError(f"{path}: header {reader.fieldnames}, expected {list(columns)}")
        for row in reader:
            where = f"{path} row {reader.line_num}"
            if None in row or None in row.values():  # cells beyond or short of the header
                raise SchemaError(f"{where}: expected {len(columns)} cells")
            if any(v.strip() for v in row.values()):
                cells = Fields({k: _cell(v) if columns[k] == "number" else v
                                for k, v in row.items()}, where)
                rows.append((where, *(cells(k, kind) for k, kind in columns.items())))
    return rows


# ---------------------------------------------------------------------------
# quote CSV


def save_quotes_csv(quotes: MarketQuoteSet, path) -> None:
    """One row per quote: OIS rows first, then FRA/IRS grouped by tenor."""
    rows = [("OIS", str(q.pay_tenor), q.maturity, q.rate)
            for q in sorted(quotes.ois_swaps, key=lambda q: q.maturity)]
    for tenor in sorted(quotes.spread_quotes, key=float):
        for q in sorted(quotes.spread_quotes[tenor], key=lambda q: q.maturity):
            rows.append((q.kind, str(tenor), q.maturity, q.rate))
    write_csv(path, _QUOTE_COLUMNS, rows)


def load_quotes_csv(path) -> MarketQuoteSet:
    """Parse the quote CSV; BASIS rows are dropped with a warning."""
    quotes = MarketQuoteSet()
    n_basis = 0
    for where, instrument, tenor, maturity, rate in _read_csv(path, _QUOTE_COLUMNS):
        instrument = instrument.strip().upper()
        if instrument == "OIS":
            quotes.ois_swaps.append(OisSwapQuote(maturity, rate, tenor))
        elif instrument in ("FRA", "IRS"):
            quotes.spread_quotes.setdefault(tenor, []).append(
                SpreadQuote(maturity, rate, instrument))
        elif instrument == "BASIS":
            n_basis += 1
        else:
            raise SchemaError(f"{where}: unknown instrument {instrument!r}")
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
    doc = Fields(_load_json(path), str(path))
    kind = doc("kind", "string")
    if kind == "discount_curve":
        curve = _build(doc.where, DiscountCurve, doc("times", "vector"),
                       doc("discounts", "vector"))
    elif kind == "spread_curve":
        curve = _build(doc.where, SpreadTermStructure, doc("tenor", "tenor"),
                       doc("times", "vector"), doc("spreads", "vector"))
    else:
        raise SchemaError(f"{path}: unknown curve kind {kind!r}")
    tag = doc("interpolation", "string")
    if tag != curve.interpolation:
        raise SchemaError(f"{path}: interpolation {tag!r} not supported "
                          f"(this build uses {curve.interpolation!r})")
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
                  "linear": _floats(spec.drift_linear)},
        "diffusion": {"const": _floats(spec.diffusion_const),
                      "linear": _floats(spec.diffusion_linear)},
        "rate": {"const": float(spec.rate_const),
                 "linear": _floats(spec.rate_linear)},
        "spreads": {
            "mode": spec.y_mode,
            "tenors": [str(t) for t in spec.tenors],
        },
    }
    if spec.n_spread:
        doc["spreads"].update({
            "u_vectors": _floats(spec.u_vectors),
            "y0": _floats(spec.y0),
            "drift_const": _floats(spec.y_drift_const),
            "drift_linear": _floats(spec.y_drift_linear),
            "diff_const": _floats(spec.y_diff_const),
            "diff_linear": _floats(spec.y_diff_linear),
        })
    if spec.jumps is not None:
        jumps = {
            "atoms_x": _floats(spec.jumps.atoms_x),
            "probabilities": _floats(spec.jumps.probabilities),
            "intensity_const": float(spec.jumps.intensity_const),
            "intensity_linear": _floats(spec.jumps.intensity_linear),
        }
        if spec.jumps.atoms_y is not None:
            jumps["atoms_y"] = _floats(spec.jumps.atoms_y)
        doc["jumps"] = jumps
    return doc


def affine_spec_from_dict(payload: dict, where: str = "affine spec") -> AffineModelSpec:
    doc = Fields(payload, where)
    state, drift, rate = doc("state", "object"), doc("drift", "object"), doc("rate", "object")
    diffusion, spreads = doc("diffusion", "object"), doc("spreads", "object")
    tenors, jumps = spreads("tenors", "tenor list"), doc("jumps", "object", None)
    if jumps is not None:
        jumps = _build(where, AffineJumps, jumps("atoms_x", "matrix"),
                       jumps("probabilities", "vector"), jumps("intensity_const", "number", 0.0),
                       jumps("intensity_linear", "vector", None), jumps("atoms_y", "matrix", None))
    return _build(
        where, AffineModelSpec,
        pos_dims=state("pos_dims", "integer"), real_dims=state("real_dims", "integer"),
        drift_const=drift("const", "vector"), drift_linear=drift("linear", "matrix"),
        diffusion_const=diffusion("const", "matrix"),
        diffusion_linear=diffusion("linear", "tensor", None),
        rate_const=rate("const", "number"), rate_linear=rate("linear", "vector"),
        n_spread=len(tenors), u_vectors=spreads("u_vectors", "matrix") if tenors else None,
        tenors=tenors, y_mode=spreads("mode", "string"),
        y_drift_const=spreads("drift_const", "vector", None),
        y_drift_linear=spreads("drift_linear", "matrix", None),
        y_diff_const=spreads("diff_const", "matrix", None),
        y_diff_linear=spreads("diff_linear", "tensor", None),
        jumps=jumps, x0=state("x0", "vector", None), y0=spreads("y0", "vector", None))


# ---------------------------------------------------------------------------
# HJM model spec JSON


def _vol_to_dict(vol) -> dict:
    if not isinstance(vol, ExponentialVolatility):
        raise SchemaError(
            f"volatility type {type(vol).__name__} has no file form; only the "
            "exponential family serializes")
    return {"family": "exponential",
            "scales": _floats(vol.scales), "decays": _floats(vol.decays)}


def _vol_from_dict(vol: Fields) -> ExponentialVolatility:
    family = vol("family", "string")
    if family != "exponential":
        raise SchemaError(f"{vol.where}: unknown volatility family {family!r}")
    return _build(vol.where, ExponentialVolatility, vol("scales", "vector"),
                  vol("decays", "vector"))


def _initial_curve_to_dict(curve, what: str):
    if isinstance(curve, (int, float)):
        return float(curve)
    raise SchemaError(
        f"{what} must be a flat level for the file form; callables do not serialize")


def hjm_model_to_dict(model: LevyHjmModel) -> dict:
    driver = {
        "drift": _floats(model.driver.drift),
        "covariance": _floats(model.driver.covariance),
    }
    if len(model.driver.jump_intensities):
        driver["jump_sizes"] = _floats(model.driver.jump_sizes)
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
        "u_vectors": _floats(model.u_vectors),
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
    doc = Fields(payload, where)
    driver, vols = doc("driver", "object"), doc("vols", "object")
    curves = doc("initial_curves", "object")
    factor = doc("spread_factor", "object", Fields({}, where))
    triplet = _build(where, LevyTriplet, driver("drift", "vector"), driver("covariance", "matrix"),
                     driver("jump_sizes", "matrix", _EMPTY),
                     driver("jump_intensities", "vector", _EMPTY))
    d, tenors = doc("n_curve_factors", "integer"), doc("tenors", "tenor list")
    # without tenors the writer's (0, n) block reads back as an empty list
    u_vectors = doc("u_vectors", "matrix") if tenors else np.zeros((0, max(triplet.dim - d, 0)))
    return _build(
        where, LevyHjmModel, driver=triplet, n_curve_factors=d,
        ois_vol=_vol_from_dict(vols("ois", "object")),
        spread_vols=[_vol_from_dict(v) for v in vols("spreads", "object list")],
        u_vectors=u_vectors, tenors=tenors,
        forward_curve=curves("forward", "number"),
        forward_spread_curves=curves("spreads", "vector").tolist(),
        spread_factor_mode=factor("mode", "string", "none"),
        kernel_mass_cap=factor("mass_cap", "number", 50.0),
        kernel_objective=factor("objective", "string", "min-total-mass"),
        y0=factor("y0", "vector", None, nullable=True))


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
    doc = Fields(payload, where)
    return _build(
        where, ProductSpec, kind=doc("product", "string"),
        schedule=tuple(doc("schedule", "vector").tolist()),
        fixed_rate=doc("fixed_rate", "number"), notional=doc("notional", "number"),
        tenor=doc("tenor", "tenor"), tenor_b=doc("tenor_b", "tenor", None),
        schedule_b=tuple(doc("schedule_b", "vector", _EMPTY).tolist()),
        schedule_fixed=tuple(doc("schedule_fixed", "vector", _EMPTY).tolist()))


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
    """Targets from an object of ``u``, ``p``, ``mass_cap``, ``floor`` and ``p_extra``."""
    doc = Fields(payload, where)
    return _build(where, MomentTargets, doc("u", "vector"), doc("p", "vector"),
                  doc("mass_cap", "number"), doc("floor", "number", 0.0),
                  doc("p_extra", "number", None))


def load_targets_json(path) -> MomentTargets:
    """Read a kernel targets file: one ``moment_targets_from_dict`` object,
    without the ``schema_version`` of the other JSON documents."""
    return moment_targets_from_dict(_read_json(path), str(path))


def kernel_from_dict(payload: dict, where: str = "kernel") -> JumpKernel:
    doc = Fields(payload, where)
    atoms, targets = doc("atoms", "object list"), doc("targets", "object")
    return JumpKernel(
        atoms=np.array([a("xi", "number") for a in atoms], dtype=float),
        weights=np.array([a("w", "number") for a in atoms], dtype=float),
        targets=moment_targets_from_dict(targets.payload, targets.where),
        residuals=doc("residuals", "vector"), objective=doc("objective", "string"),
        extra_mass=doc("extra_mass", "number"))


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
    write_csv(path, _VOL_COLUMNS, rows)


def load_vol_surface_csv(path) -> VolQuoteSurface:
    quotes = [VolQuote(*cells) for _, *cells in _read_csv(path, _VOL_COLUMNS)]
    return _build(str(path), VolQuoteSurface, quotes)


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
    doc = Fields(payload, where)
    return CalibrationResult(
        parameters=doc("parameters", "vector"), objective=doc("objective", "number"),
        residuals=doc("residuals", "vector"), trace=doc("trace", "vector"),
        n_evaluations=doc("n_evaluations", "integer"), converged=doc("converged", "boolean"))


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
