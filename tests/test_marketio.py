import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from multicurve.affine import AffineJumps, AffineModelSpec, InadmissibleSpec, affine_bond
from multicurve.calibration import VolQuote, VolQuoteSurface
from multicurve.hjm import ExponentialVolatility, LevyHjmModel, LevyTriplet, StateDependentVolatility
from multicurve.marketio import (
    SchemaError,
    affine_spec_from_dict,
    affine_spec_to_dict,
    calibration_result_from_dict,
    calibration_result_to_dict,
    curve_plot_rows,
    forward_spread_rate_rows,
    hjm_model_from_dict,
    hjm_model_to_dict,
    kernel_to_dict,
    load_curve_json,
    load_kernel_json,
    load_model_json,
    load_product_json,
    load_quotes_csv,
    load_report_json,
    load_targets_json,
    load_vol_surface_csv,
    pricing_report,
    save_curve_json,
    save_kernel_json,
    save_model_json,
    save_plot_csv,
    save_product_json,
    save_quotes_csv,
    save_report_json,
    save_vol_surface_csv,
    simulation_provenance,
)
from multicurve.calibration import CalibrationResult
from multicurve.momentkernel import OBJECTIVES, JumpKernel, MomentTargets
from multicurve.products import ProductSpec
from multicurve.termstructure import (
    DiscountCurve,
    MarketQuoteSet,
    OisSwapQuote,
    SpreadQuote,
    SpreadTermStructure,
    Tenor,
)

T3M = Tenor.parse("3M")
T6M = Tenor.parse("6M")
T1Y = Tenor.parse("1Y")


@pytest.fixture
def quote_set():
    return MarketQuoteSet(
        ois_swaps=[OisSwapQuote(1.0, 0.02, T1Y), OisSwapQuote(2.0, 0.022, T1Y)],
        spread_quotes={
            T6M: [SpreadQuote(0.5, 0.025, "FRA"), SpreadQuote(2.0, 0.026, "IRS")],
            T3M: [SpreadQuote(0.25, 0.023, "FRA")],
        },
    )


class TestQuoteCsv:
    def test_round_trip(self, tmp_path, quote_set):
        path = tmp_path / "quotes.csv"
        save_quotes_csv(quote_set, path)
        loaded = load_quotes_csv(path)
        assert loaded.ois_swaps == quote_set.ois_swaps
        assert loaded.spread_quotes == quote_set.spread_quotes

    def test_write_is_deterministic(self, tmp_path, quote_set):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_quotes_csv(quote_set, a)
        save_quotes_csv(quote_set, b)
        assert a.read_bytes() == b.read_bytes()

    def test_basis_rows_dropped_with_warning(self, tmp_path):
        path = tmp_path / "quotes.csv"
        path.write_text(
            "instrument,tenor,maturity,quote\n"
            "OIS,1,1.0,0.02\n"
            "BASIS,1/2,2.0,0.001\n"
            "FRA,1/2,0.5,0.025\n"
        )
        with pytest.warns(UserWarning, match="BASIS"):
            quotes = load_quotes_csv(path)
        assert len(quotes.ois_swaps) == 1
        assert len(quotes.spread_quotes[T6M]) == 1

    def test_unknown_instrument_rejected(self, tmp_path):
        path = tmp_path / "quotes.csv"
        path.write_text("instrument,tenor,maturity,quote\nFUTURE,1,1.0,0.02\n")
        with pytest.raises(SchemaError, match="unknown instrument"):
            load_quotes_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "quotes.csv"
        path.write_text("instr,tenor,maturity,quote\nOIS,1,1.0,0.02\n")
        with pytest.raises(SchemaError, match="header"):
            load_quotes_csv(path)

    def test_bad_number_reports_row(self, tmp_path):
        path = tmp_path / "quotes.csv"
        path.write_text("instrument,tenor,maturity,quote\nOIS,1,1.0,x\n")
        with pytest.raises(SchemaError, match="row 2"):
            load_quotes_csv(path)

    def test_bad_tenor_reports_row(self, tmp_path):
        path = tmp_path / "quotes.csv"
        path.write_text("instrument,tenor,maturity,quote\nOIS,5Z,1.0,0.02\n")
        with pytest.raises(SchemaError, match="bad tenor"):
            load_quotes_csv(path)


class TestCurveJson:
    def test_discount_round_trip(self, tmp_path):
        times = [0.5, 1.0, 3.0]
        curve = DiscountCurve(times, [0.99, 0.975, 0.92])
        path = tmp_path / "disc.json"
        save_curve_json(curve, path)
        loaded = load_curve_json(path)
        assert isinstance(loaded, DiscountCurve)
        np.testing.assert_array_equal(loaded.pillar_times, curve.pillar_times)
        grid = np.linspace(0.1, 3.0, 7)
        np.testing.assert_allclose(loaded.discount(grid), curve.discount(grid),
                                   rtol=1e-15)

    def test_spread_round_trip(self, tmp_path):
        curve = SpreadTermStructure(T6M, [0.5, 2.0], [1.002, 1.009])
        path = tmp_path / "spread.json"
        save_curve_json(curve, path)
        loaded = load_curve_json(path)
        assert isinstance(loaded, SpreadTermStructure)
        assert float(loaded.tenor) == float(T6M)
        np.testing.assert_allclose(loaded.spread([0.5, 1.3, 2.0]),
                                   curve.spread([0.5, 1.3, 2.0]), rtol=1e-15)

    def test_json_is_deterministic(self, tmp_path):
        curve = DiscountCurve([1.0, 2.0], [0.98, 0.955])
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_curve_json(curve, a)
        save_curve_json(curve, b)
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"schema_version": 1, "kind": "yield_curve"}))
        with pytest.raises(SchemaError, match="unknown curve kind"):
            load_curve_json(path)

    def test_interpolation_tag_checked(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "schema_version": 1, "kind": "discount_curve",
            "interpolation": "cubic-spline",
            "times": [1.0], "discounts": [0.98],
        }))
        with pytest.raises(SchemaError, match="cubic-spline"):
            load_curve_json(path)

    def test_schema_version_checked(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"schema_version": 99, "kind": "discount_curve"}))
        with pytest.raises(SchemaError, match="schema_version"):
            load_curve_json(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_curve_json(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[1, 2]")
        with pytest.raises(SchemaError, match="JSON object"):
            load_curve_json(path)


class TestAffineSpecJson:
    def make_spec(self):
        return AffineModelSpec(
            pos_dims=1, real_dims=1,
            drift_const=[0.032, 0.015],
            drift_linear=[[-0.8, 0.0], [0.0, -0.5]],
            diffusion_const=[[0.0, 0.0], [0.0, 1e-4]],
            diffusion_linear=[[[0.0625, 0.0], [0.0, 0.0]],
                              [[0.0, 0.0], [0.0, 0.0]]],
            rate_const=0.001, rate_linear=[1.0, 0.3],
            n_spread=2, u_vectors=[[0.4, 0.1], [1.1, 0.2]],
            tenors=(T3M, T6M),
            y_mode="integrated",
            y_drift_linear=[[0.12, 0.0], [0.2, 0.05]],
            jumps=AffineJumps(
                atoms_x=[[0.01, 0.0], [0.004, -0.002]],
                probabilities=[0.7, 0.3],
                intensity_const=1.5,
                intensity_linear=[2.0, 0.0],
                atoms_y=[[0.003, 0.001], [0.0, 0.0]],
            ),
            x0=[0.03, 0.01], y0=[0.002, 0.004],
        )

    def test_round_trip_preserves_arrays(self, tmp_path):
        spec = self.make_spec()
        path = tmp_path / "model.json"
        save_model_json(spec, path)
        loaded = load_model_json(path)
        assert isinstance(loaded, AffineModelSpec)
        for name in ("drift_const", "drift_linear", "diffusion_const",
                     "diffusion_linear", "rate_linear", "u_vectors",
                     "y_drift_const", "y_drift_linear", "y_diff_const",
                     "y_diff_linear", "x0", "y0"):
            np.testing.assert_array_equal(getattr(loaded, name),
                                          getattr(spec, name), err_msg=name)
        assert loaded.rate_const == spec.rate_const
        assert loaded.y_mode == spec.y_mode
        assert [float(t) for t in loaded.tenors] == [float(t) for t in spec.tenors]
        np.testing.assert_array_equal(loaded.jumps.atoms_x, spec.jumps.atoms_x)
        np.testing.assert_array_equal(loaded.jumps.atoms_y, spec.jumps.atoms_y)
        np.testing.assert_array_equal(loaded.jumps.probabilities,
                                      spec.jumps.probabilities)
        assert loaded.jumps.intensity_const == spec.jumps.intensity_const

    def test_round_trip_prices_identically(self, tmp_path):
        spec = self.make_spec()
        path = tmp_path / "model.json"
        save_model_json(spec, path)
        loaded = load_model_json(path)
        maturities = np.array([0.5, 2.0, 5.0])
        np.testing.assert_array_equal(affine_bond(loaded, loaded.x0, maturities),
                                      affine_bond(spec, spec.x0, maturities))

    def test_no_jumps_block_omitted(self):
        spec = AffineModelSpec(
            pos_dims=0, real_dims=1, drift_const=[0.015],
            drift_linear=[[-0.5]], diffusion_const=[[1e-4]],
            rate_const=0.0, rate_linear=[1.0], x0=[0.02],
        )
        doc = affine_spec_to_dict(spec)
        assert "jumps" not in doc
        loaded = affine_spec_from_dict(doc)
        assert loaded.jumps is None

    def test_invalid_coefficients_reported(self):
        doc = affine_spec_to_dict(self.make_spec())
        doc["drift"]["const"] = [0.1]
        with pytest.raises(SchemaError, match="drift_const") as err:
            affine_spec_from_dict(doc)
        assert not isinstance(err.value, InadmissibleSpec)

    def test_inadmissible_coefficients_keep_their_type(self):
        # a schema error to the CLI, an inadmissible trial point to calibration
        doc = affine_spec_to_dict(self.make_spec())
        doc["diffusion"]["const"] = [[-1e-4 if v else v for v in row]
                                     for row in doc["diffusion"]["const"]]
        with pytest.raises(SchemaError, match="positive semidefinite") as err:
            affine_spec_from_dict(doc)
        assert isinstance(err.value, InadmissibleSpec)

    def test_missing_field_reported(self):
        doc = affine_spec_to_dict(self.make_spec())
        del doc["rate"]
        with pytest.raises(SchemaError, match="rate"):
            affine_spec_from_dict(doc)


class TestHjmModelJson:
    def make_model(self):
        return LevyHjmModel(
            driver=LevyTriplet(
                drift=[0.0, 0.0, 0.0],
                covariance=np.diag([1.0, 1e-4, 0.04]),
                jump_sizes=[[0.0, 0.0, 0.01]],
                jump_intensities=[2.0],
            ),
            n_curve_factors=2,
            ois_vol=ExponentialVolatility([0.01, 0.002], [0.1, 0.0]),
            spread_vols=[ExponentialVolatility([0.008, 0.0], [0.2, 0.0])],
            u_vectors=[[1.0]],
            tenors=[T6M],
            forward_curve=0.02,
            forward_spread_curves=[0.005],
            spread_factor_mode="integrated-drift",
            y0=[0.001],
        )

    def test_round_trip(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "hjm.json"
        save_model_json(model, path)
        loaded = load_model_json(path)
        assert isinstance(loaded, LevyHjmModel)
        np.testing.assert_array_equal(loaded.driver.covariance,
                                      model.driver.covariance)
        np.testing.assert_array_equal(loaded.driver.jump_sizes,
                                      model.driver.jump_sizes)
        np.testing.assert_array_equal(loaded.u_vectors, model.u_vectors)
        np.testing.assert_array_equal(loaded.ois_vol.scales, model.ois_vol.scales)
        np.testing.assert_array_equal(loaded.spread_vols[0].decays,
                                      model.spread_vols[0].decays)
        assert loaded.n_curve_factors == model.n_curve_factors
        assert loaded.forward_curve == 0.02
        assert loaded.spread_factor_mode == "integrated-drift"
        np.testing.assert_array_equal(loaded.y0, model.y0)

    def test_state_dependent_vol_has_no_file_form(self):
        model = self.make_model()
        model.ois_vol = StateDependentVolatility(
            func=lambda theta, tau: 0.01 + 0.0 * tau[None, :],
            n_components=1, growth_bound=1.0)
        with pytest.raises(SchemaError, match="no file form"):
            hjm_model_to_dict(model)

    def test_callable_curve_has_no_file_form(self):
        model = self.make_model()
        model.forward_curve = lambda T: 0.02 + 0.0 * T
        with pytest.raises(SchemaError, match="flat level"):
            hjm_model_to_dict(model)

    def test_unknown_vol_family_rejected(self):
        doc = hjm_model_to_dict(self.make_model())
        doc["vols"]["ois"]["family"] = "bessel"
        with pytest.raises(SchemaError, match="bessel"):
            hjm_model_from_dict(doc)

    def test_unknown_model_kind_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"schema_version": 1, "kind": "lmm"}))
        with pytest.raises(SchemaError, match="unknown model kind"):
            load_model_json(path)


class TestProductJson:
    def test_fra_round_trip(self, tmp_path):
        spec = ProductSpec("FRA", (1.0,), 0.024, 1e6, T6M)
        path = tmp_path / "fra.json"
        save_product_json(spec, path)
        assert load_product_json(path) == spec

    def test_basis_swap_round_trip(self, tmp_path):
        spec = ProductSpec(
            "BASIS_SWAP", (0.0, 0.25, 0.5, 0.75, 1.0), 0.001, 1.0, T3M,
            tenor_b=T6M, schedule_b=(0.0, 0.5, 1.0),
            schedule_fixed=(0.0, 0.5, 1.0))
        path = tmp_path / "basis.json"
        save_product_json(spec, path)
        assert load_product_json(path) == spec

    def test_bad_product_kind_reported(self, tmp_path):
        spec = ProductSpec("FRA", (1.0,), 0.024, 1e6, T6M)
        path = tmp_path / "p.json"
        save_product_json(spec, path)
        payload = json.loads(path.read_text())
        payload["product"] = "CMS"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="CMS"):
            load_product_json(path)

    def test_missing_field_names_the_file_once(self, tmp_path):
        path = tmp_path / "p.json"
        save_product_json(ProductSpec("FRA", (1.0,), 0.024, 1e6, T6M), path)
        payload = json.loads(path.read_text())
        del payload["fixed_rate"]
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="missing field 'fixed_rate'") as err:
            load_product_json(path)
        assert str(err.value).count("p.json") == 1


class TestKernelJson:
    def make_kernel(self):
        targets = MomentTargets(u=np.array([0.5, 1.0, 2.0]),
                                p=np.array([0.01, 0.025, 0.08]),
                                mass_cap=50.0, floor=0.01, p_extra=12.0)
        return JumpKernel(
            atoms=np.array([-0.008, 0.004, 0.02]),
            weights=np.array([0.6, 1.1, 0.3]),
            targets=targets,
            residuals=np.array([1e-12, -2e-12, 5e-13, 0.0]),
            objective="min-total-mass",
            extra_mass=11.7,
        )

    def test_round_trip(self, tmp_path):
        kernel = self.make_kernel()
        path = tmp_path / "kernel.json"
        save_kernel_json(kernel, path)
        loaded = load_kernel_json(path)
        np.testing.assert_array_equal(loaded.atoms, kernel.atoms)
        np.testing.assert_array_equal(loaded.weights, kernel.weights)
        np.testing.assert_array_equal(loaded.residuals, kernel.residuals)
        np.testing.assert_array_equal(loaded.targets.u, kernel.targets.u)
        assert loaded.targets.p_extra == kernel.targets.p_extra
        assert loaded.targets.floor == kernel.targets.floor
        assert loaded.objective == kernel.objective
        assert loaded.extra_mass == kernel.extra_mass
        u = np.array([0.3, 0.8])
        np.testing.assert_allclose(loaded.exponent(u), kernel.exponent(u),
                                   rtol=1e-15)


class TestVolSurfaceCsv:
    def test_round_trip(self, tmp_path):
        surface = VolQuoteSurface([
            VolQuote(0.5, T6M, 0.02, 0.45),
            VolQuote(0.5, T6M, 0.03, 0.41),
            VolQuote(1.0, T3M, 0.025, 0.38),
        ])
        path = tmp_path / "vols.csv"
        save_vol_surface_csv(surface, path)
        loaded = load_vol_surface_csv(path)
        assert len(loaded) == 3
        for got, want in zip(loaded.quotes, surface.quotes):
            assert got.expiry == want.expiry
            assert float(got.tenor) == float(want.tenor)
            assert got.strike == want.strike
            assert got.value == want.value

    def test_premium_surface_not_saved(self, tmp_path):
        surface = VolQuoteSurface([VolQuote(0.5, T6M, 0.02, 0.001)],
                                  convention="premium")
        with pytest.raises(SchemaError, match="implied vols"):
            save_vol_surface_csv(surface, tmp_path / "vols.csv")

    def test_duplicate_rows_rejected(self, tmp_path):
        path = tmp_path / "vols.csv"
        path.write_text("expiry,tenor,strike,vol\n"
                        "0.5,1/2,0.02,0.4\n0.5,1/2,0.02,0.5\n")
        with pytest.raises(SchemaError, match="duplicate"):
            load_vol_surface_csv(path)


class TestReports:
    def test_pricing_report_fields(self):
        doc = pricing_report(12.5, std_error=0.03,
                             breakdown={"float_leg": 13.0, "fixed_leg": -0.5},
                             provenance=simulation_provenance(42, 100_000, 1 / 365))
        assert doc["kind"] == "pricing_report"
        assert doc["price"] == 12.5
        assert doc["breakdown"]["float_leg"] == 13.0
        assert doc["provenance"]["seed"] == 42
        assert doc["provenance"]["n_paths"] == 100_000

    def test_optional_fields_omitted(self):
        doc = pricing_report(1.0)
        assert "std_error" not in doc and "breakdown" not in doc

    def test_report_json_round_trip(self, tmp_path):
        doc = pricing_report(0.0123, provenance=simulation_provenance(7, 1000, 0.01))
        path = tmp_path / "report.json"
        save_report_json(doc, path)
        assert load_report_json(path) == doc

    def test_calibration_result_round_trip(self):
        result = CalibrationResult(
            parameters=np.array([0.012, 0.02]),
            objective=1.5e-9,
            residuals=np.array([1e-5, -2e-5, 3e-5]),
            trace=np.array([0.5, 0.01, 1.5e-9]),
            n_evaluations=88,
            converged=True,
        )
        doc = calibration_result_to_dict(result, parameter_names=["sig_x", "sig_y"])
        assert doc["parameter_names"] == ["sig_x", "sig_y"]
        loaded = calibration_result_from_dict(doc)
        np.testing.assert_array_equal(loaded.parameters, result.parameters)
        np.testing.assert_array_equal(loaded.residuals, result.residuals)
        np.testing.assert_array_equal(loaded.trace, result.trace)
        assert loaded.objective == result.objective
        assert loaded.n_evaluations == 88
        assert loaded.converged

    def test_parameter_names_length_checked(self):
        result = CalibrationResult(np.array([0.1]), 0.0, np.zeros(1),
                                   np.zeros(1), 1, True)
        with pytest.raises(SchemaError, match="one name per fitted parameter"):
            calibration_result_to_dict(result, parameter_names=["a", "b"])


class TestPlotData:
    def test_curve_rows_cover_all_series(self):
        disc = DiscountCurve([1.0, 3.0], [0.98, 0.93])
        spreads = {
            T6M: SpreadTermStructure(T6M, [1.0, 3.0], [1.004, 1.012]),
            T3M: SpreadTermStructure(T3M, [1.0, 3.0], [1.002, 1.006]),
        }
        rows = curve_plot_rows(disc, spreads, np.linspace(0.5, 3.0, 6))
        assert len(rows) == 18
        series = [r[1] for r in rows]
        assert series[:6] == ["discount"] * 6
        # spread series ordered by increasing tenor
        assert series[6] == "spread_1/4" and series[12] == "spread_1/2"

    def test_empty_curve_set_gives_header_only(self, tmp_path):
        rows = curve_plot_rows(None, None, [1.0, 2.0])
        assert rows == []
        path = tmp_path / "plot.csv"
        save_plot_csv(path, rows)
        assert path.read_text() == "x,series,value\n"

    def test_forward_spread_rate_recovers_slope(self, tmp_path):
        # single-segment curve: log S is exactly linear, eta is the slope
        curve = SpreadTermStructure(T6M, [0.5, 2.5], [np.exp(0.004 * 0.5),
                                                      np.exp(0.004 * 2.5)])
        rows = forward_spread_rate_rows(curve, np.linspace(0.5, 2.5, 9))
        eta = np.array([r[1] for r in rows])
        np.testing.assert_allclose(eta, 0.004, rtol=1e-12)
        save_plot_csv(tmp_path / "eta.csv", rows, header=("T", "eta"))
        first = (tmp_path / "eta.csv").read_text().splitlines()[0]
        assert first == "T,eta"

    def test_derivative_needs_two_points(self):
        curve = SpreadTermStructure(T6M, [0.5, 2.5], [1.002, 1.01])
        with pytest.raises(ValueError, match="two sample times"):
            forward_spread_rate_rows(curve, [1.0])


# ---------------------------------------------------------------------------
# writer/reader round trips on random valid objects

TENORS = [T3M, T6M, T1Y]


def floats(draw, shape, lo=-1.0, hi=1.0):
    size = int(np.prod(shape))
    return np.array(draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size))).reshape(shape)


def psd(draw, n):
    root = floats(draw, (n, n))
    m = root @ root.T
    return 0.5 * (m + m.T)


@st.composite
def affine_specs(draw):
    """Admissible affine specs: 1-3 factors, the first ``p`` positive, 0-2
    spread tenors, with or without jumps."""
    d = draw(st.integers(1, 3))
    p, n = draw(st.integers(0, d)), draw(st.integers(0, 2))
    positive = np.arange(d) < p
    drift_linear = floats(draw, (d, d))
    drift_linear[:p, :p] = np.where(np.eye(p, dtype=bool), drift_linear[:p, :p],
                                    np.abs(drift_linear[:p, :p]))
    drift_linear[:p, p:] = 0.0
    diffusion_const = np.zeros((d, d))
    diffusion_const[p:, p:] = psd(draw, d - p)
    diffusion_linear = np.zeros((d, d, d))
    for k in range(p):
        diffusion_linear[k, k, k] = draw(st.floats(0.0, 1.0))
    diffusive = n > 0 and draw(st.booleans())
    y_diff_linear = np.zeros((d, n, n))
    if diffusive:
        for k in range(p):
            y_diff_linear[k] = psd(draw, n)
    jumps = None
    if draw(st.booleans()):
        m = draw(st.integers(1, 3))
        atoms_x = floats(draw, (m, d))
        atoms_x[:, positive] = np.abs(atoms_x[:, positive])
        weights = floats(draw, (m,), 0.1, 1.0)
        jumps = AffineJumps(atoms_x=atoms_x, probabilities=weights / weights.sum(),
                            intensity_const=draw(st.floats(0.0, 5.0)),
                            intensity_linear=np.where(positive, floats(draw, (d,), 0.0, 5.0), 0.0),
                            atoms_y=floats(draw, (m, n)) if n else None)
    x0 = floats(draw, (d,))
    return AffineModelSpec(
        pos_dims=p, real_dims=d - p,
        drift_const=np.where(positive, np.abs(floats(draw, (d,))), floats(draw, (d,))),
        drift_linear=drift_linear, diffusion_const=diffusion_const,
        diffusion_linear=diffusion_linear, rate_const=draw(st.floats(-0.1, 0.1)),
        rate_linear=floats(draw, (d,)), n_spread=n,
        u_vectors=floats(draw, (n, n)) if n else None, tenors=draw(st.permutations(TENORS))[:n],
        y_mode="diffusive" if diffusive else "integrated",
        y_drift_const=floats(draw, (n,)), y_drift_linear=floats(draw, (n, d)),
        y_diff_const=psd(draw, n) if diffusive else None,
        y_diff_linear=y_diff_linear, jumps=jumps,
        x0=np.where(positive, np.abs(x0), x0), y0=floats(draw, (n,)))


@st.composite
def hjm_models(draw):
    """HJM models with 1-2 curve factors, 1-2 spread factors (one in kernel
    mode), 0-2 tenors, with or without driver jumps and a spread-factor y0."""
    mode = draw(st.sampled_from(["none", "integrated-drift", "kernel"]))
    d, n = draw(st.integers(1, 2)), 1 if mode == "kernel" else draw(st.integers(1, 2))
    k, m = draw(st.integers(0, 2)), draw(st.integers(0, 2))

    def vol():
        return ExponentialVolatility(floats(draw, (d,)), floats(draw, (d,), 0.0, 2.0))

    return LevyHjmModel(
        driver=LevyTriplet(drift=floats(draw, (d + n,)), covariance=psd(draw, d + n),
                           jump_sizes=floats(draw, (m, d + n)),
                           jump_intensities=floats(draw, (m,), 0.0, 5.0)),
        n_curve_factors=d, ois_vol=vol(), spread_vols=[vol() for _ in range(k)],
        u_vectors=floats(draw, (k, n)), tenors=draw(st.permutations(TENORS))[:k],
        forward_curve=draw(st.floats(-0.05, 0.1)),
        forward_spread_curves=list(floats(draw, (k,), 0.0, 0.05)),
        spread_factor_mode=mode, kernel_mass_cap=draw(st.floats(1.0, 100.0)),
        kernel_objective=draw(st.sampled_from(OBJECTIVES)),
        y0=floats(draw, (n,), 0.0, 1.0) if draw(st.booleans()) else None)


@st.composite
def product_specs(draw):
    kind = draw(st.sampled_from(["FRA", "OIS_SWAP", "IRS", "BASIS_SWAP", "CAPLET", "SWAPTION"]))
    schedule = st.lists(st.floats(0.0, 30.0), min_size=1, max_size=5).map(tuple)
    basis = kind == "BASIS_SWAP"
    return ProductSpec(kind, draw(schedule), draw(st.floats(-0.1, 0.1)),
                       draw(st.floats(1.0, 1e8)), draw(st.sampled_from(TENORS)),
                       tenor_b=draw(st.sampled_from(TENORS)) if basis else None,
                       schedule_b=draw(schedule) if basis else (),
                       schedule_fixed=draw(schedule) if basis else ())


@st.composite
def kernels(draw):
    m, a = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    targets = MomentTargets(u=np.cumsum(floats(draw, (m,), 0.01, 1.0)), p=floats(draw, (m,)),
                            mass_cap=draw(st.floats(0.1, 100.0)), floor=draw(st.floats(0.0, 1.0)),
                            p_extra=draw(st.none() | st.floats(0.0, 100.0)))
    return JumpKernel(atoms=floats(draw, (a,)), weights=floats(draw, (a,), 0.0, 2.0),
                      targets=targets, residuals=floats(draw, (m + 1,)),
                      objective=draw(st.sampled_from(OBJECTIVES)),
                      extra_mass=draw(st.floats(0.0, 100.0)))


def assert_same_fields(got, want, names):
    for name in names:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)


class TestWrittenFilesLoadBack:
    """Whatever a writer emits, the reader loads back equal."""

    @given(affine_specs())
    def test_affine_spec(self, tmp_path_factory, spec):
        path = tmp_path_factory.mktemp("rt") / "affine.json"
        save_model_json(spec, path)
        loaded = load_model_json(path)
        assert_same_fields(loaded, spec, [
            "pos_dims", "real_dims", "drift_const", "drift_linear", "diffusion_const",
            "diffusion_linear", "rate_const", "rate_linear", "n_spread", "u_vectors", "tenors",
            "y_mode", "y_drift_const", "y_drift_linear", "y_diff_const", "y_diff_linear",
            "x0", "y0"])
        assert (loaded.jumps is None) == (spec.jumps is None)
        if spec.jumps is not None:
            assert_same_fields(loaded.jumps, spec.jumps, [
                "atoms_x", "probabilities", "intensity_const", "intensity_linear", "atoms_y"])

    @given(hjm_models())
    @example(model=LevyHjmModel(
        driver=LevyTriplet(drift=[0.0], covariance=[[1.0]]), n_curve_factors=1,
        ois_vol=ExponentialVolatility.flat(0.01), spread_vols=[], u_vectors=np.zeros((0, 0)),
        tenors=[], forward_curve=0.02, forward_spread_curves=[]))
    def test_hjm_model(self, tmp_path_factory, model):
        path = tmp_path_factory.mktemp("rt") / "hjm.json"
        save_model_json(model, path)
        loaded = load_model_json(path)
        assert_same_fields(loaded.driver, model.driver,
                           ["drift", "covariance", "jump_sizes", "jump_intensities"])
        for got, want in zip([loaded.ois_vol, *loaded.spread_vols],
                             [model.ois_vol, *model.spread_vols], strict=True):
            assert_same_fields(got, want, ["scales", "decays"])
        assert_same_fields(loaded, model, [
            "n_curve_factors", "u_vectors", "tenors", "forward_curve", "forward_spread_curves",
            "spread_factor_mode", "kernel_mass_cap", "kernel_objective", "y0"])

    @given(product_specs())
    def test_product(self, tmp_path_factory, spec):
        path = tmp_path_factory.mktemp("rt") / "product.json"
        save_product_json(spec, path)
        assert load_product_json(path) == spec

    @given(kernels())
    def test_kernel_and_its_targets(self, tmp_path_factory, kernel):
        root = tmp_path_factory.mktemp("rt")
        save_kernel_json(kernel, root / "kernel.json")
        loaded = load_kernel_json(root / "kernel.json")
        assert_same_fields(loaded, kernel, ["atoms", "weights", "residuals", "objective",
                                            "extra_mass"])
        (root / "targets.json").write_text(json.dumps(kernel_to_dict(kernel)["targets"]))
        for targets in (loaded.targets, load_targets_json(root / "targets.json")):
            assert_same_fields(targets, kernel.targets, ["u", "p", "mass_cap", "floor", "p_extra"])
