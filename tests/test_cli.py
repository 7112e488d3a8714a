"""End-to-end tests of the command-line interface.

Every subcommand is driven through ``main(argv)`` so that exit codes, the
stdout summary JSON, the stderr error objects, and the artifacts written
under ``--out`` are all exercised exactly as a shell user would see them.
"""

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import multicurve
from multicurve.affine import AffineModelSpec, affine_bond, affine_spread, caplet_price_fourier
from multicurve.calibration import (
    CalibrationResult,
    black_implied_vol,
    VolQuote,
    VolQuoteSurface,
)
from multicurve.cli import ConfigError, RunConfig, _load_spread_curves, main
from multicurve.hjm import ExponentialVolatility, LevyHjmModel, LevyTriplet
from multicurve.marketio import (
    SchemaError,
    affine_spec_to_dict,
    calibration_result_from_dict,
    calibration_result_to_dict,
    hjm_model_to_dict,
    kernel_to_dict,
    load_curve_json,
    load_kernel_json,
    load_report_json,
    save_curve_json,
    save_model_json,
    save_product_json,
    save_quotes_csv,
    save_vol_surface_csv,
)
from multicurve.momentkernel import JumpKernel, MomentTargets
from multicurve.products import ProductSpec, fra_value, irs_swap_rate, ois_swap_rate
from multicurve.termstructure import (
    DiscountCurve,
    MarketQuoteSet,
    OisSwapQuote,
    SpreadQuote,
    SpreadTermStructure,
    Tenor,
    fra_rate_from_curves,
)

T6M = Tenor.parse("6M")


def run_cli(*args):
    return main([str(a) for a in args])


def write_json_config(path, mapping):
    path.write_text(json.dumps(mapping), encoding="utf-8")
    return path


def simulate_model_doc(tmp_path, doc):
    """Exit code of ``simulate`` on a model file holding ``doc``."""
    (tmp_path / "bad_model.json").write_text(json.dumps(doc), encoding="utf-8")
    cfg = write_json_config(tmp_path / "sim_bad_model.json", {
        "model": "bad_model.json", "n_paths": 20, "dt": 0.05, "horizon": 0.5,
        "maturities": [1.0]})
    return run_cli("simulate", "--config", cfg, "--seed", 1, "--out", tmp_path / "out")


def toy_affine_model():
    """One-factor Vasicek short rate plus a diffusive log-spread factor."""
    return AffineModelSpec(
        pos_dims=0, real_dims=1, drift_const=[0.5 * 0.03], drift_linear=[[-0.5]],
        diffusion_const=[[0.012 ** 2]], rate_const=0.0, rate_linear=[1.0],
        n_spread=1, u_vectors=[[1.0]], tenors=(T6M,), y_mode="diffusive",
        y_drift_const=[0.001], y_drift_linear=[[0.15]], y_diff_const=[[0.02 ** 2]],
        x0=[0.02], y0=[0.004])


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """Shared input directory: curves, model specs, products, and quotes."""
    root = tmp_path_factory.mktemp("cli_inputs")

    times = np.array([0.5, 1.0, 1.5, 2.0, 3.0, 5.0])
    disc = DiscountCurve(times, np.exp(-0.02 * times))
    spread = SpreadTermStructure(T6M, times, np.exp(0.004 * times))
    save_curve_json(disc, root / "disc.json")
    save_curve_json(spread, root / "spread.json")

    model = toy_affine_model()
    save_model_json(model, root / "affine.json")
    # deterministic spread leg keeps the consistency residual at roundoff
    hjm = LevyHjmModel(
        driver=LevyTriplet(drift=[0.0, 0.0], covariance=np.diag([1.0, 1e-4])),
        n_curve_factors=1,
        ois_vol=ExponentialVolatility.flat(0.01),
        spread_vols=[ExponentialVolatility.flat(0.0)],
        u_vectors=[[1.0]], tenors=[T6M],
        forward_curve=0.02, forward_spread_curves=[0.005],
        spread_factor_mode="integrated-drift")
    save_model_json(hjm, root / "hjm.json")

    save_product_json(ProductSpec("FRA", (1.0,), 0.024, 1_000_000.0, T6M),
                      root / "fra.json")
    save_product_json(ProductSpec("CAPLET", (1.0,), 0.035, 1.0, T6M),
                      root / "caplet.json")
    save_product_json(ProductSpec("SWAPTION", (1.0, 1.5, 2.0), 0.03, 1.0, T6M),
                      root / "swaption.json")
    save_product_json(
        ProductSpec("BASIS_SWAP", (0.0, 0.5, 1.0), 0.0, 1.0, T6M, tenor_b=T6M,
                    schedule_b=(0.0, 0.5, 1.0), schedule_fixed=(0.0, 0.5, 1.0)),
        root / "basis.json")

    # par-exact quotes computed from the reference curves above
    ois = [OisSwapQuote(T, ois_swap_rate(disc, np.arange(0.0, round(T) + 1.0)),
                        Tenor.parse("1Y"))
           for T in (1.0, 2.0, 3.0, 5.0)]
    fras = [SpreadQuote(T, fra_rate_from_curves(disc, spread, T), "FRA")
            for T in (0.5, 1.0, 2.0)]
    irs = [SpreadQuote(4.0, irs_swap_rate(disc, spread, 0.5 * np.arange(0, 9)), "IRS")]
    save_quotes_csv(MarketQuoteSet(ois_swaps=ois, spread_quotes={T6M: fras + irs}),
                    root / "quotes.csv")

    return root


@pytest.fixture(scope="module")
def bootstrap_config(cli_files):
    """Key = value config format, including a comment line."""
    cfg = cli_files / "bootstrap.cfg"
    cfg.write_text(
        "# toy quote sheet\n"
        "quotes = quotes.csv\n"
        "plot_times = [0.5, 1.0, 2.0, 3.0]\n",
        encoding="utf-8")
    return cfg


class TestBootstrap:
    def test_writes_curves_and_zero_residual_report(self, cli_files, bootstrap_config, tmp_path):
        out = tmp_path / "out"
        assert run_cli("bootstrap", "--config", bootstrap_config, "--out", out) == 0
        assert (out / "discount_curve.json").exists()
        assert (out / "spread_curve_1_2.json").exists()
        report = load_report_json(out / "bootstrap_report.json")
        assert report["kind"] == "bootstrap_report"
        assert report["n_ois_quotes"] == 4
        assert report["tenors"] == ["1/2"]
        assert report["max_ois_residual"] <= 1e-12
        assert report["max_spread_residual"] <= 1e-12

    def test_bootstrapped_curves_reproduce_the_generators(self, cli_files, bootstrap_config, tmp_path):
        out = tmp_path / "out"
        run_cli("bootstrap", "--config", bootstrap_config, "--out", out)
        disc = load_curve_json(out / "discount_curve.json")
        spread = load_curve_json(out / "spread_curve_1_2.json")
        disc_grid = np.array([0.5, 1.0, 1.7, 2.5, 4.0, 5.0])
        np.testing.assert_allclose(disc.discount(disc_grid), np.exp(-0.02 * disc_grid),
                                   rtol=1e-10)
        spread_grid = np.array([0.5, 1.0, 1.7, 2.5, 3.5])
        np.testing.assert_allclose(spread.spread(spread_grid), np.exp(0.004 * spread_grid),
                                   rtol=1e-10)

    def test_plot_artifacts(self, cli_files, bootstrap_config, tmp_path):
        out = tmp_path / "out"
        run_cli("bootstrap", "--config", bootstrap_config, "--out", out)
        plot_lines = (out / "curves_plot.csv").read_text().splitlines()
        assert plot_lines[0] == "x,series,value"
        assert len(plot_lines) == 1 + 2 * 4  # discount and one spread series on 4 times
        eta_lines = (out / "eta_1_2.csv").read_text().splitlines()
        assert eta_lines[0] == "T,eta"
        etas = [float(line.split(",")[1]) for line in eta_lines[1:]]
        assert etas == pytest.approx([0.004] * 4, rel=1e-9)

    def test_rerun_is_byte_identical(self, cli_files, bootstrap_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli("bootstrap", "--config", bootstrap_config, "--out", out_a)
        run_cli("bootstrap", "--config", bootstrap_config, "--out", out_b)
        for name in ("discount_curve.json", "spread_curve_1_2.json",
                     "bootstrap_report.json", "curves_plot.csv", "eta_1_2.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_progress_is_logged_under_the_cli_logger(self, bootstrap_config, tmp_path, caplog):
        with caplog.at_level(logging.INFO, logger="multicurve.cli"):
            assert run_cli("bootstrap", "--config", bootstrap_config, "--out", tmp_path) == 0
        records = [r for r in caplog.records if r.getMessage().startswith("bootstrapped")]
        assert [(r.name, r.levelno) for r in records] == [("multicurve.cli", logging.INFO)]

    def test_log_level_comes_from_the_environment(self, bootstrap_config, tmp_path):
        src = str(Path(multicurve.__file__).resolve().parents[1])
        env = {**os.environ, "MULTICURVE_LOG": "info",
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-m", "multicurve", "bootstrap", "--config", str(bootstrap_config),
             "--out", str(tmp_path)], env=env, capture_output=True, text=True, check=True)
        assert "multicurve.cli INFO bootstrapped 1/2 spread curve" in done.stderr


class TestPrice:
    def test_fra_matches_direct_valuation(self, cli_files, tmp_path, capsys):
        cfg = write_json_config(cli_files / "price_fra.json", {
            "product": "fra.json", "discount_curve": "disc.json",
            "spread_curves": ["spread.json"]})
        out = tmp_path / "out"
        assert run_cli("price", "--config", cfg, "--out", out) == 0
        disc = load_curve_json(cli_files / "disc.json")
        spread = load_curve_json(cli_files / "spread.json")
        expected = fra_value(disc, spread, 1.0, 0.024, 1_000_000.0)
        report = load_report_json(out / "price_report.json")
        assert report["price"] == expected
        assert report["breakdown"]["par_rate"] == fra_rate_from_curves(disc, spread, 1.0)
        assert json.loads(capsys.readouterr().out)["price"] == expected

    def test_caplet_matches_transform_pricer(self, cli_files, tmp_path):
        cfg = write_json_config(cli_files / "price_caplet.json", {
            "product": "caplet.json", "model": "affine.json"})
        out = tmp_path / "out"
        assert run_cli("price", "--config", cfg, "--out", out) == 0
        report = load_report_json(out / "price_report.json")
        assert report["price"] == caplet_price_fourier(toy_affine_model(), 1.0, T6M, 0.035)
        assert "std_error" not in report

    def test_swaption_refuses_to_run_unseeded(self, cli_files, tmp_path, capsys):
        cfg = write_json_config(cli_files / "price_swpt.json", {
            "product": "swaption.json", "model": "affine.json",
            "n_paths": 4000, "dt": 0.02})
        assert run_cli("price", "--config", cfg, "--out", tmp_path / "out") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "config"
        assert "seed" in err["error"]["message"]

    def test_swaption_embeds_provenance(self, cli_files, tmp_path):
        cfg = write_json_config(cli_files / "price_swpt.json", {
            "product": "swaption.json", "model": "affine.json",
            "n_paths": 4000, "dt": 0.02})
        out = tmp_path / "out"
        assert run_cli("price", "--config", cfg, "--seed", 11, "--out", out) == 0
        report = load_report_json(out / "price_report.json")
        assert report["provenance"] == {"seed": 11, "n_paths": 4000, "dt": 0.02}
        assert report["std_error"] > 0.0
        assert report["price"] > 0.0

    def test_basis_swap_on_one_curve_is_exactly_flat(self, cli_files, tmp_path):
        cfg = write_json_config(cli_files / "price_basis.json", {
            "product": "basis.json", "discount_curve": "disc.json",
            "spread_curves": ["spread.json"]})
        out = tmp_path / "out"
        assert run_cli("price", "--config", cfg, "--out", out) == 0
        assert load_report_json(out / "price_report.json")["price"] == 0.0

    def test_missing_spread_curve_is_a_config_error(self, cli_files, tmp_path, capsys):
        cfg = write_json_config(cli_files / "price_nocurve.json", {
            "product": "fra.json", "discount_curve": "disc.json"})
        assert run_cli("price", "--config", cfg, "--out", tmp_path / "out") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "config"
        assert "no spread curve" in err["error"]["message"]


class TestSimulate:
    def test_affine_martingale_report_and_path_dump(self, cli_files, tmp_path):
        cfg = write_json_config(cli_files / "sim_affine.json", {
            "model": "affine.json", "n_paths": 5000, "dt": 0.02,
            "horizon": 1.0, "maturities": [1.0, 2.0], "dump_paths": 3})
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", cfg, "--seed", 3, "--out", out) == 0
        report = load_report_json(out / "simulation_report.json")
        assert report["model"] == "affine"
        assert report["provenance"] == {"seed": 3, "n_paths": 5000, "dt": 0.02}
        assert len(report["martingale"]) == 2
        for row in report["martingale"]:
            assert abs(row["bond_error"]) <= 3.0 * row["bond_se"]
            assert abs(row["spread_1_2_error"]) <= 3.0 * row["spread_1_2_se"]
        lines = (out / "paths.csv").read_text().splitlines()
        assert lines[0] == "time,path,field,value"
        rows = [line.split(",") for line in lines[1:]]
        assert {r[1] for r in rows} == {"0", "1", "2"}
        assert {r[2] for r in rows} == {"numeraire", "bond_1", "bond_2",
                                        "spread_1_2_1", "spread_1_2_2"}

    def test_dump_paths_zero_skips_the_csv(self, cli_files, tmp_path):
        cfg = write_json_config(cli_files / "sim_nodump.json", {
            "model": "affine.json", "n_paths": 200, "dt": 0.05,
            "horizon": 0.5, "maturities": [1.0], "dump_paths": 0})
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", cfg, "--seed", 1, "--out", out) == 0
        assert not (out / "paths.csv").exists()

    def test_forward_model_reports_consistency(self, cli_files, tmp_path):
        cfg = write_json_config(cli_files / "sim_hjm.json", {
            "model": "hjm.json", "n_paths": 600, "dt": 0.025, "horizon": 0.5,
            "maturities": [1.0, 2.0], "observation_times": [0.25, 0.5],
            "dump_paths": 0})
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", cfg, "--seed", 9, "--out", out) == 0
        report = load_report_json(out / "simulation_report.json")
        assert report["model"] == "hjm"
        assert report["consistency_residual"] <= 1e-7
        assert report["aborted_paths"] == 0
        assert len(report["martingale"]) == 4  # two observation dates, two maturities

    def test_simulation_needs_a_seed(self, cli_files, tmp_path, capsys):
        cfg = write_json_config(cli_files / "sim_noseed.json", {
            "model": "affine.json", "n_paths": 200, "dt": 0.05,
            "horizon": 0.5, "maturities": [1.0]})
        assert run_cli("simulate", "--config", cfg, "--out", tmp_path / "out") == 2
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "config"

    @pytest.mark.parametrize("where", ["flag", "config"])
    @pytest.mark.parametrize("seed", [-3, 2 ** 64])
    def test_seed_outside_the_key_range_is_a_config_error(self, cli_files, tmp_path,
                                                          capsys, seed, where):
        options = {"model": "affine.json", "n_paths": 20, "dt": 0.05,
                   "horizon": 0.5, "maturities": [1.0]}
        if where == "config":
            options["seed"] = seed
        cfg = write_json_config(cli_files / "sim_badseed.json", options)
        flag = ["--seed", seed] if where == "flag" else []
        assert run_cli("simulate", "--config", cfg, *flag, "--out", tmp_path / "out") == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "config"
        assert "seed must lie in [0, 2**64)" in err["message"]


@pytest.fixture(scope="module")
def calibration_inputs(cli_files):
    """Vol surface generated by the toy model, plus the model-implied curves."""
    model = toy_affine_model()
    times = np.array([0.5, 1.0, 1.5, 2.0])
    disc = DiscountCurve(times, affine_bond(model, model.x0, times))
    spread = SpreadTermStructure(T6M, times,
                                 affine_spread(model, model.x0, model.y0, times, 0))
    save_curve_json(disc, cli_files / "calib_disc.json")
    save_curve_json(spread, cli_files / "calib_spread.json")
    quotes = []
    for expiry in (0.5, 1.0):
        fwd = (spread.spread(expiry) * disc.discount(expiry)
               / disc.discount(expiry + 0.5) - 1.0) / 0.5
        annuity = 0.5 * disc.discount(expiry + 0.5)
        for strike in (0.03, 0.04):
            price = caplet_price_fourier(model, expiry, T6M, strike)
            quotes.append(VolQuote(expiry, T6M, strike,
                                   black_implied_vol(price, fwd, strike, expiry, annuity)))
    save_vol_surface_csv(VolQuoteSurface(quotes), cli_files / "calib_vols.csv")
    return cli_files


class TestCalibrate:
    def test_recovers_spread_diffusion_coefficient(self, calibration_inputs, tmp_path, capsys):
        cfg = write_json_config(calibration_inputs / "calib.json", {
            "model": "affine.json", "surface": "calib_vols.csv",
            "discount_curve": "calib_disc.json",
            "spread_curves": ["calib_spread.json"],
            "parameters": [{"field": "spreads/diff_const/0/0",
                            "initial": 3.0e-4, "lower": 1.0e-8}],
            "restarts": 0})
        out = tmp_path / "out"
        assert run_cli("calibrate", "--config", cfg, "--seed", 5, "--out", out) == 0
        result = load_report_json(out / "calibration_result.json")
        assert result["parameter_names"] == ["spreads/diff_const/0/0"]
        assert result["parameters"][0] == pytest.approx(0.02 ** 2, rel=1e-3)
        assert max(abs(r) for r in result["residuals"]) <= 1e-6
        assert result["converged"] is True
        assert result["provenance"] == {"seed": 5, "n_quotes": 4}
        refit = load_report_json(out / "calibrated_model.json")
        assert refit["spreads"]["diff_const"][0][0] == result["parameters"][0]
        summary = json.loads(capsys.readouterr().out)
        assert summary["converged"] is True
        assert summary["objective"] <= 1e-12

    def test_unknown_parameter_pointer_is_rejected(self, calibration_inputs, tmp_path, capsys):
        cfg = write_json_config(calibration_inputs / "calib_bad.json", {
            "model": "affine.json", "surface": "calib_vols.csv",
            "discount_curve": "calib_disc.json",
            "spread_curves": ["calib_spread.json"],
            "parameters": [{"field": "spreads/no_such_block/0", "initial": 0.1}]})
        assert run_cli("calibrate", "--config", cfg, "--seed", 5,
                       "--out", tmp_path / "out") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "config"
        assert "not found" in err["error"]["message"]

    @pytest.mark.parametrize("key, value", [
        ("restarts", "abc"), ("restarts", -1), ("restarts", 1.5), ("restarts", True),
        ("max_iterations", 0), ("max_iterations", "many")])
    def test_bad_iteration_option_is_a_config_error(self, calibration_inputs, tmp_path,
                                                    capsys, key, value):
        cfg = write_json_config(calibration_inputs / "calib_bad_int.json", {
            "model": "affine.json", "surface": "calib_vols.csv",
            "discount_curve": "calib_disc.json",
            "spread_curves": ["calib_spread.json"],
            "parameters": [{"field": "spreads/diff_const/0/0",
                            "initial": 3.0e-4, "lower": 1.0e-8}],
            "restarts": 0, key: value})
        assert run_cli("calibrate", "--config", cfg, "--seed", 5,
                       "--out", tmp_path / "out") == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "config"
        assert key in err["message"]

    def test_empty_parameter_list_is_rejected(self, calibration_inputs, tmp_path):
        cfg = write_json_config(calibration_inputs / "calib_empty.json", {
            "model": "affine.json", "surface": "calib_vols.csv",
            "discount_curve": "calib_disc.json",
            "spread_curves": ["calib_spread.json"], "parameters": []})
        assert run_cli("calibrate", "--config", cfg, "--seed", 5,
                       "--out", tmp_path / "out") == 2


class TestConstructKernel:
    @pytest.fixture()
    def feasible_targets(self, tmp_path):
        atoms = np.array([0.3, 0.9, 2.0])
        weights = np.array([0.5, 0.2, 0.05])
        u = np.array([0.5, 1.0, 1.5])
        p = [float(np.sum(weights * (np.exp(ui * atoms) - 1.0))) for ui in u]
        target_file = tmp_path / "targets.json"
        target_file.write_text(json.dumps({"u": list(u), "p": p, "mass_cap": 100.0}))
        return target_file

    def test_feasible_targets_yield_a_kernel(self, feasible_targets, tmp_path, capsys):
        cfg = write_json_config(tmp_path / "kern.json", {"targets": "targets.json"})
        out = tmp_path / "out"
        assert run_cli("construct-kernel", "--config", cfg, "--out", out) == 0
        kernel = load_kernel_json(out / "kernel.json")
        assert np.max(np.abs(kernel.residuals)) <= 1e-8
        assert load_report_json(out / "feasibility_report.json")["feasible"] is True
        summary = json.loads(capsys.readouterr().out)
        assert summary["atoms"] == len(kernel.atoms)
        assert summary["max_residual"] <= 1e-8

    def test_infeasible_targets_exit_with_a_certificate(self, tmp_path, capsys):
        (tmp_path / "bad.json").write_text(
            json.dumps({"u": [1.0], "p": [-0.5], "mass_cap": 10.0}))
        cfg = write_json_config(tmp_path / "kern.json", {"targets": "bad.json"})
        out = tmp_path / "out"
        assert run_cli("construct-kernel", "--config", cfg, "--out", out) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "KernelInfeasible"
        feas = load_report_json(out / "feasibility_report.json")
        assert feas["feasible"] is False
        assert len(feas["dual_ray"]) == 1
        assert not (out / "kernel.json").exists()

    def test_targets_missing_a_field_is_a_config_error(self, tmp_path):
        (tmp_path / "partial.json").write_text(json.dumps({"u": [1.0], "mass_cap": 5.0}))
        cfg = write_json_config(tmp_path / "kern.json", {"targets": "partial.json"})
        assert run_cli("construct-kernel", "--config", cfg, "--out", tmp_path / "out") == 2

    @pytest.mark.parametrize("text", [
        json.dumps({"u": [0.5], "p": [0.3], "mass_cap": [50.0]}),
        json.dumps([{"u": [0.5], "p": [0.3], "mass_cap": 50.0}]),
        json.dumps({"u": "abc", "p": [0.3], "mass_cap": 50.0}),
        json.dumps({"u": None, "p": [0.3], "mass_cap": 50.0}),
        json.dumps({"u": [0.5], "p": [0.3], "mass_cap": 50.0, "floor": "x"}),
        json.dumps({"u": [0.5], "p": [0.3], "mass_cap": 50.0, "p_extra": "x"}),
        json.dumps({"u": [1.0, 0.5], "p": [0.3, 0.4], "mass_cap": 50.0}),
        json.dumps({"u": [0.5], "p": [0.3], "mass_cap": -1.0}),
        "{ not json"])
    def test_malformed_targets_are_a_schema_error(self, tmp_path, capsys, text):
        (tmp_path / "targets.json").write_text(text, encoding="utf-8")
        cfg = write_json_config(tmp_path / "kern.json", {"targets": "targets.json"})
        out = tmp_path / "out"
        assert run_cli("construct-kernel", "--config", cfg, "--out", out) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "schema"
        assert "targets.json" in err["message"]
        assert not any(out.iterdir())

    @pytest.mark.parametrize("objective", ["max-fun", ["min-total-mass"], None])
    def test_unknown_objective_is_a_config_error_before_any_work(
            self, feasible_targets, tmp_path, capsys, monkeypatch, objective):
        def no_lp(*args, **kwargs):
            raise AssertionError("an LP ran before the objective was checked")

        monkeypatch.setattr("multicurve.cli.feasibility_check", no_lp)
        monkeypatch.setattr("multicurve.cli.solve_jump_kernel", no_lp)
        cfg = write_json_config(tmp_path / "kern.json",
                                {"targets": "targets.json", "objective": objective})
        out = tmp_path / "out"
        assert run_cli("construct-kernel", "--config", cfg, "--out", out) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "config"
        assert "objective" in err["message"]
        assert not any(out.iterdir())

    def test_model_with_unknown_kernel_objective_is_a_schema_error(
            self, cli_files, tmp_path, capsys):
        doc = json.loads((cli_files / "hjm.json").read_text(encoding="utf-8"))
        doc["spread_factor"]["objective"] = "max-fun"
        assert simulate_model_doc(tmp_path, doc) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "schema"
        assert "kernel_objective" in err["message"]


class TestVerify:
    def test_battery_passes_and_reports_every_check(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("verify", "--out", out) == 0
        stdout = capsys.readouterr().out
        assert "9/9 checks passed" in stdout
        assert "FAIL" not in stdout
        report = load_report_json(out / "verify_report.json")
        assert report["n_checks"] == 9
        assert report["n_failed"] == 0
        names = [c["name"] for c in report["checks"]]
        assert len(set(names)) == 9
        assert all(c["passed"] for c in report["checks"])


class TestErrorHandling:
    def test_missing_config_file(self, tmp_path, capsys):
        assert run_cli("price", "--config", tmp_path / "nope.json",
                       "--out", tmp_path / "out") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "config"
        assert "not found" in err["error"]["message"]

    def test_malformed_json_config(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{ not json", encoding="utf-8")
        assert run_cli("price", "--config", cfg, "--out", tmp_path / "out") == 2
        assert "not valid JSON" in json.loads(capsys.readouterr().err)["error"]["message"]

    def test_key_value_line_without_equals(self, tmp_path, capsys):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("quotes quotes.csv\n", encoding="utf-8")
        assert run_cli("bootstrap", "--config", cfg, "--out", tmp_path / "out") == 2
        assert "key = value" in json.loads(capsys.readouterr().err)["error"]["message"]

    def test_missing_input_file(self, tmp_path, capsys):
        cfg = write_json_config(tmp_path / "cfg.json", {"quotes": "absent.csv"})
        assert run_cli("bootstrap", "--config", cfg, "--out", tmp_path / "out") == 2
        assert "file not found" in json.loads(capsys.readouterr().err)["error"]["message"]

    def test_wrong_document_kind_is_a_schema_error(self, cli_files, tmp_path, capsys):
        cfg = write_json_config(cli_files / "cfg_schema.json", {
            "product": "disc.json", "discount_curve": "disc.json",
            "spread_curves": ["spread.json"]})
        assert run_cli("price", "--config", cfg, "--out", tmp_path / "out") == 2
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "schema"

    @pytest.mark.parametrize("change", [
        {"jumps": {"atoms_x": [[0.01], [-0.01]], "probabilities": [0.5, 0.4]}},
        {"jumps": {"atoms_x": [[0.01], [-0.01]], "probabilities": [1.0]}},
        {"tenors": ["abc"]}, {"tenors": [6]}, {"tenors": ["1/0"]},
        {"jumps": 5}, {"tenors": 6}])
    def test_malformed_affine_model_is_a_schema_error(self, cli_files, tmp_path, capsys,
                                                      change):
        doc = json.loads((cli_files / "affine.json").read_text(encoding="utf-8"))
        if "tenors" in change:
            doc["spreads"]["tenors"] = change["tenors"]
        else:
            doc["jumps"] = change["jumps"]
        assert simulate_model_doc(tmp_path, doc) == 2
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "schema"

    @pytest.mark.parametrize("block, value", [
        ("driver", 5), ("spread_factor", 3), ("covariance", [[1.0]]),
        ("tenors", 6), ("vols", {"ois": 4, "spreads": []})])
    def test_malformed_hjm_model_is_a_schema_error(self, cli_files, tmp_path, capsys,
                                                   block, value):
        doc = json.loads((cli_files / "hjm.json").read_text(encoding="utf-8"))
        if block == "covariance":
            doc["driver"]["covariance"] = value
        else:
            doc[block] = value
        assert simulate_model_doc(tmp_path, doc) == 2
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "schema"

    @pytest.mark.parametrize("model, field", [
        ("affine.json", ("spreads", "u_vectors")),
        ("hjm.json", ("vols", "ois", "family"))])
    def test_nested_schema_error_names_the_file_once(self, cli_files, tmp_path, capsys,
                                                     model, field):
        doc = json.loads((cli_files / model).read_text(encoding="utf-8"))
        node = doc
        for key in field[:-1]:
            node = node[key]
        del node[field[-1]]
        assert simulate_model_doc(tmp_path, doc) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "schema"
        assert err["message"].count("bad_model.json") == 1
        assert f"missing field {field[-1]!r}" in err["message"]

    @pytest.mark.parametrize("model, field, value", [
        ("affine.json", ("rate", "const"), [0.01]),
        ("affine.json", ("rate", "const"), "0.01"),
        ("affine.json", ("state", "pos_dims"), [0]),
        ("affine.json", ("state", "real_dims"), 1.5),
        ("affine.json", ("state", "real_dims"), True),
        ("affine.json", ("jumps", "intensity_const"), [3.0]),
        ("hjm.json", ("initial_curves", "forward"), [0.02]),
        ("hjm.json", ("initial_curves", "spreads"), [[0.005]]),
        ("hjm.json", ("n_curve_factors",), True),
        ("hjm.json", ("spread_factor", "mass_cap"), [50.0])])
    def test_scalar_field_of_wrong_type_is_a_schema_error(self, cli_files, tmp_path, capsys,
                                                          model, field, value):
        doc = json.loads((cli_files / model).read_text(encoding="utf-8"))
        if field[0] == "jumps":
            doc["jumps"] = {"atoms_x": [[0.01], [-0.01]], "probabilities": [0.5, 0.5]}
        node = doc
        for key in field[:-1]:
            node = node[key]
        node[field[-1]] = value
        assert simulate_model_doc(tmp_path, doc) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "schema"
        assert field[-1] in err["message"]

    @pytest.mark.parametrize("value", [[0.024], "0.024", None])
    def test_product_scalar_of_wrong_type_is_a_schema_error(self, cli_files, tmp_path,
                                                            capsys, value):
        doc = json.loads((cli_files / "fra.json").read_text(encoding="utf-8"))
        doc["fixed_rate"] = value
        (cli_files / "fra_bad_rate.json").write_text(json.dumps(doc), encoding="utf-8")
        cfg = write_json_config(cli_files / "price_fra_bad.json", {
            "product": "fra_bad_rate.json", "discount_curve": "disc.json",
            "spread_curves": ["spread.json"]})
        assert run_cli("price", "--config", cfg, "--out", tmp_path / "out") == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "schema"
        assert "'fixed_rate'" in err["message"]

    @pytest.mark.parametrize("command, key, value", [
        ("simulate", "dump_paths", "abc"), ("simulate", "dump_paths", 1.5),
        ("simulate", "dump_paths", True), ("simulate", "dump_paths", -1),
        ("construct-kernel", "grid_size", "abc"), ("construct-kernel", "grid_size", 1.5),
        ("construct-kernel", "grid_size", True), ("construct-kernel", "grid_size", 0)])
    def test_bad_integer_option_is_a_config_error(self, cli_files, tmp_path, capsys,
                                                  command, key, value):
        if command == "simulate":
            options = {"model": "affine.json", "n_paths": 20, "dt": 0.05,
                       "horizon": 0.5, "maturities": [1.0], "seed": 1}
        else:
            (cli_files / "targets_int.json").write_text(
                json.dumps({"u": [0.5], "p": [0.3], "mass_cap": 50.0}), encoding="utf-8")
            options = {"targets": "targets_int.json"}
        cfg = write_json_config(cli_files / "cfg_bad_int.json", {**options, key: value})
        out = tmp_path / "out"
        assert run_cli(command, "--config", cfg, "--out", out) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "config"
        assert key in err["message"]
        assert not out.exists() or not any(out.iterdir())

    def test_loading_spread_curves_leaves_options_unchanged(self, cli_files, tmp_path):
        def run_with(paths):
            return RunConfig(command="price", options={"spread_curves": paths},
                             base_dir=cli_files, out_dir=tmp_path)

        run = run_with(["spread.json"])
        assert set(_load_spread_curves(run)) == {T6M}
        assert run.options == {"spread_curves": ["spread.json"]}
        for paths, message in ((["spread.json", "disc.json"], "expected a spread curve"),
                               (["absent.json"], "spread_curves: file not found")):
            run = run_with(paths)
            with pytest.raises(ConfigError, match=message):
                _load_spread_curves(run)
            assert run.options == {"spread_curves": paths}

    def test_log_environment_variable_is_honoured(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MULTICURVE_LOG", "DEBUG")
        (tmp_path / "targets.json").write_text(
            json.dumps({"u": [0.5], "p": [0.3], "mass_cap": 50.0}))
        cfg = write_json_config(tmp_path / "kern.json", {"targets": "targets.json"})
        assert run_cli("construct-kernel", "--config", cfg, "--out", tmp_path / "out") == 0


# run in a fresh interpreter: the exit code of main(argv) (None when argv is
# empty) and the scipy modules loaded by then, as the last stdout line
COLD_RUN = """\
import json, sys
from multicurve.cli import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else None
print(json.dumps([code, sorted(m for m in sys.modules
                               if m == "scipy" or m.startswith("scipy."))]))
"""


def cold_run(*args):
    """(exit code, set of loaded scipy modules) of ``main(args)`` in a new process."""
    src = str(Path(multicurve.__file__).resolve().parents[1])
    env = {**os.environ, "MULTICURVE_LOG": "WARNING",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", COLD_RUN, *map(str, args)], env=env,
                          capture_output=True, text=True, check=True)
    code, loaded = json.loads(done.stdout.splitlines()[-1])
    return code, set(loaded)


class TestColdStart:
    """scipy subpackages are imported by the first call that needs them.

    In-process tests cannot see a broken deferred import once another test
    module has imported scipy, so these run the CLI in fresh interpreters.
    """

    def test_import_loads_no_scipy(self):
        assert cold_run() == (None, set())

    def test_price_and_factor_simulation_load_no_scipy(self, cli_files, tmp_path):
        price = write_json_config(cli_files / "cold_price.json", {
            "product": "fra.json", "discount_curve": "disc.json",
            "spread_curves": ["spread.json"]})
        simulate = write_json_config(cli_files / "cold_sim_hjm.json", {
            "model": "hjm.json", "n_paths": 200, "dt": 0.05, "horizon": 0.5,
            "maturities": [1.0], "dump_paths": 0})
        assert cold_run("price", "--config", price, "--out", tmp_path / "a") == (0, set())
        assert cold_run("simulate", "--config", simulate, "--seed", 9,
                        "--out", tmp_path / "b") == (0, set())

    def test_bootstrap_imports_brentq(self, bootstrap_config, tmp_path):
        code, loaded = cold_run("bootstrap", "--config", bootstrap_config, "--out", tmp_path)
        assert code == 0
        assert "scipy.optimize" in loaded

    def test_construct_kernel_imports_linprog(self, tmp_path):
        (tmp_path / "targets.json").write_text(
            json.dumps({"u": [0.5], "p": [0.3], "mass_cap": 50.0}))
        cfg = write_json_config(tmp_path / "kern.json", {"targets": "targets.json"})
        code, loaded = cold_run("construct-kernel", "--config", cfg, "--out", tmp_path / "out")
        assert code == 0
        assert "scipy.optimize" in loaded

    def test_calibrate_imports_least_squares_and_ndtr(self, calibration_inputs, tmp_path):
        cfg = write_json_config(calibration_inputs / "cold_calib.json", {
            "model": "affine.json", "surface": "calib_vols.csv",
            "discount_curve": "calib_disc.json",
            "spread_curves": ["calib_spread.json"],
            "parameters": [{"field": "spreads/diff_const/0/0",
                            "initial": 3.0e-4, "lower": 1.0e-8}],
            "restarts": 0})
        code, loaded = cold_run("calibrate", "--config", cfg, "--seed", 5, "--out", tmp_path)
        assert code == 0
        assert {"scipy.optimize", "scipy.special"} <= loaded

    def test_exact_gaussian_swaption_imports_ndtri(self, cli_files, tmp_path):
        cfg = write_json_config(cli_files / "cold_swpt.json", {
            "product": "swaption.json", "model": "affine.json",
            "n_paths": 400, "dt": 0.02})
        code, loaded = cold_run("price", "--config", cfg, "--seed", 11, "--out", tmp_path)
        assert code == 0
        assert "scipy.special" in loaded


# ---------------------------------------------------------------------------
# file fuzz: every single-field type change or key deletion of a valid input

DELETE = object()
# per JSON type of a leaf or block, its replacements of other JSON types
SWAPS = {"number": ("x", [1.0], True, None), "string": (5, ["x"], True, None),
         "bool": (1, "x", None), "null": (5, "x"), "list": (5, {}), "object": ([],)}
SUBJECT = "fuzz_subject"  # the file a case mutates; configs name it by this stem


def json_type(value):
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "list", dict: "object", type(None): "null"}[type(value)]


def json_mutations(doc):
    """Every (path, replacement) one change away from ``doc``: each leaf and
    block below the top swapped for each other JSON type, and each key
    deleted (replacement DELETE)."""
    def walk(node, path):
        if path:
            yield from ((path, new) for new in SWAPS[json_type(node)])
        items = node.items() if isinstance(node, dict) else (
            enumerate(node) if isinstance(node, list) else ())
        for key, value in items:
            if isinstance(node, dict):
                yield path + (key,), DELETE
            yield from walk(value, path + (key,))
    return list(walk(doc, ()))


def mutated(doc, path, new):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if new is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = new
    return doc


def csv_mutations(text):
    """(label, text) for each data cell of a CSV swapped for a non-number,
    a non-finite number or an empty cell, and each row given a cell too
    many or too few."""
    lines = text.splitlines()
    for r in range(1, len(lines)):
        cells = lines[r].split(",")
        for c in range(len(cells)):
            for new in ("x", "", "nan", "-inf", "[1]"):
                row = ",".join(cells[:c] + [new] + cells[c + 1:])
                yield f"row {r} cell {c} -> {new!r}", lines[:r] + [row] + lines[r + 1:]
        for row in (lines[r] + ",0.1", ",".join(cells[:-1])):
            yield f"row {r} -> {row!r}", lines[:r] + [row] + lines[r + 1:]


def fuzz_failure(code, err, label, type_change, nullable, names):
    """Why one fuzzed run breaks the reading rules, or None when it keeps them."""
    if code not in (0, 2):
        return f"{label}: exit {code} {err}"
    if code == 2 and (err["kind"] not in ("schema", "config")
                      or not any(name in err["message"] for name in names)):
        return f"{label}: {err} does not name {names}"
    if code == 0 and type_change and not nullable:
        return f"{label}: type change accepted"
    return None


def fuzz_models():
    """The valid model documents: an affine model with jumps and a spread
    factor, and an HJM model with driver jumps and a spread factor."""
    affine = affine_spec_to_dict(toy_affine_model())
    affine["jumps"] = {"atoms_x": [[0.004], [-0.004]], "probabilities": [0.5, 0.5],
                       "intensity_const": 1.5, "intensity_linear": [0.0],
                       "atoms_y": [[0.001], [0.0]]}
    hjm = LevyHjmModel(
        driver=LevyTriplet(drift=[0.0, 0.0], covariance=np.diag([1.0, 1e-4]),
                           jump_sizes=[[0.3, 0.0], [-0.3, 0.0]], jump_intensities=[2.0, 2.0]),
        n_curve_factors=1, ois_vol=ExponentialVolatility([0.01], [0.2]),
        spread_vols=[ExponentialVolatility([0.004], [0.2])], u_vectors=[[1.0]], tenors=[T6M],
        forward_curve=0.02, forward_spread_curves=[0.005],
        spread_factor_mode="integrated-drift")
    hjm_doc = hjm_model_to_dict(hjm)
    hjm_doc["spread_factor"]["y0"] = None
    return {"affine_model": affine, "hjm_model": hjm_doc}


@pytest.fixture(scope="module")
def fuzz_inputs(calibration_inputs):
    """(valid document, command, config, nullable paths) per fuzzed input;
    the config names the mutated file by the SUBJECT stem."""
    root = calibration_inputs
    times = np.array([0.5, 1.0, 2.0])
    save_curve_json(DiscountCurve(times, np.exp(-0.02 * times)), root / "fuzz_disc.json")
    save_curve_json(SpreadTermStructure(T6M, times, np.exp(0.004 * times)),
                    root / "fuzz_spread.json")
    curves = {"discount_curve": "fuzz_disc.json", "spread_curves": ["fuzz_spread.json"]}
    targets = {"u": [0.5, 1.0, 1.5], "p": [0.2, 0.45, 0.8], "mass_cap": 100.0, "floor": 0.0}
    (root / "fuzz_targets.json").write_text(json.dumps(targets), encoding="utf-8")
    simulate = {"n_paths": 20, "dt": 0.1, "horizon": 0.5, "maturities": [1.0], "dump_paths": 2}
    models = fuzz_models()
    for name, doc in models.items():
        (root / f"fuzz_{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    calibrate = {"model": "affine.json", "surface": "calib_vols.csv",
                 "discount_curve": "calib_disc.json", "spread_curves": ["calib_spread.json"],
                 # started at the truth, so the runs that exit 0 stay short
                 "parameters": [{"field": "spreads/diff_const/0/0", "initial": 0.02 ** 2,
                                 "lower": 1.0e-8, "upper": 1.0}],
                 "restarts": 0, "max_iterations": 200}
    docs = {
        "affine_model": (models["affine_model"], "simulate", {"model": SUBJECT, **simulate}),
        "hjm_model": (models["hjm_model"], "simulate", {"model": SUBJECT, **simulate}),
        "fra_product": ("fra.json", "price", {"product": SUBJECT, **curves}),
        "basis_product": ("basis.json", "price", {"product": SUBJECT, **curves}),
        "discount_curve": ("fuzz_disc.json", "price",
                           {"product": "fra.json", **curves, "discount_curve": SUBJECT}),
        "spread_curve": ("fuzz_spread.json", "price",
                         {"product": "fra.json", **curves, "spread_curves": [SUBJECT]}),
        "targets": (targets, "construct-kernel", {"targets": SUBJECT, "grid_size": 50}),
        "bootstrap_config": ({"quotes": "quotes.csv", "plot_times": [0.5, 1.0]},
                             "bootstrap", None),
        "price_config": ({"product": "swaption.json", "model": "fuzz_affine_model.json",
                          "n_paths": 50, "dt": 0.25}, "price", None),
        "simulate_config": ({"model": "fuzz_hjm_model.json", **simulate, "seed": 3,
                             "observation_times": [0.5]}, "simulate", None),
        "calibrate_config": (calibrate, "calibrate", None),
        "kernel_config": ({"targets": "fuzz_targets.json", "grid_size": 50,
                           "objective": "min-total-mass"}, "construct-kernel", None),
    }
    nullable = {"hjm_model": {("spread_factor", "y0")},
                "calibrate_config": {("parameters", 0, "lower"), ("parameters", 0, "upper")}}
    cases = {}
    for name, (doc, command, config) in docs.items():
        if isinstance(doc, str):
            doc = json.loads((root / doc).read_text(encoding="utf-8"))
        cases[name] = (doc, command, config, nullable.get(name, set()))
    return root, cases


FUZZ_CASES = ["affine_model", "hjm_model", "fra_product", "basis_product", "discount_curve",
              "spread_curve", "targets", "bootstrap_config", "price_config", "simulate_config",
              "calibrate_config", "kernel_config"]


@pytest.mark.parametrize("case", FUZZ_CASES)
def test_every_single_field_mutation_exits_0_or_2(fuzz_inputs, tmp_path, capsys, case):
    """Each mutation ends in exit 0 or 2, never a traceback or exit 1; an exit
    2 is a "schema" error naming the file, or a "config" error naming the key;
    a type change exits 0 only on a listed nullable field set to null."""
    root, cases = fuzz_inputs
    doc, command, config, nullable = cases[case]
    is_config = config is None
    failures = []
    for path, new in json_mutations(doc):
        if is_config:
            cfg = write_json_config(root / f"{SUBJECT}.json", mutated(doc, path, new))
            names = [str(path[0])]
        else:
            (root / f"{SUBJECT}.json").write_text(json.dumps(mutated(doc, path, new)),
                                                  encoding="utf-8")
            cfg = write_json_config(root / "fuzz_config.json", json.loads(
                json.dumps(config).replace(f'"{SUBJECT}"', f'"{SUBJECT}.json"')))
            names = [f"{SUBJECT}.json"]
        # a --seed flag would hide the config's own seed
        seed = [] if "seed" in doc else ["--seed", 4]
        code = run_cli(command, "--config", cfg, *seed, "--out", tmp_path / "out")
        stderr = capsys.readouterr().err
        err = json.loads(stderr.splitlines()[-1])["error"] if stderr.strip() else None
        failures.append(fuzz_failure(code, err, f"{path} -> {new!r}", new is not DELETE,
                                     new is None and path in nullable, names))
    failures = [f for f in failures if f]
    assert not failures, "\n".join(failures[:20])


@pytest.mark.parametrize("name, command, key", [
    ("quotes.csv", "bootstrap", "quotes"), ("calib_vols.csv", "calibrate", "surface")])
def test_every_csv_cell_mutation_is_a_schema_error(fuzz_inputs, tmp_path, capsys,
                                                  name, command, key):
    root, cases = fuzz_inputs
    config = (cases["bootstrap_config"] if command == "bootstrap"
              else cases["calibrate_config"])[0]
    cfg = write_json_config(root / "fuzz_config.json", {**config, key: f"{SUBJECT}.csv"})
    failures = []
    for label, lines in csv_mutations((root / name).read_text(encoding="utf-8")):
        (root / f"{SUBJECT}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run_cli(command, "--config", cfg, "--seed", 4, "--out", tmp_path / "out")
        stderr = capsys.readouterr().err
        err = json.loads(stderr.splitlines()[-1])["error"] if stderr.strip() else None
        if code != 2 or err["kind"] != "schema" or f"{SUBJECT}.csv" not in err["message"]:
            failures.append(f"{label}: exit {code} {err}")
    assert not failures, "\n".join(failures[:20])


def test_every_kernel_and_calibration_result_mutation_is_a_schema_error(tmp_path):
    """The kernel and calibration-result readers, called directly: a type
    change or a deleted required key raises SchemaError naming the file."""
    targets = MomentTargets(u=np.array([0.5, 1.0]), p=np.array([0.1, 0.3]), mass_cap=50.0,
                            floor=0.01, p_extra=12.0)
    kernel = JumpKernel(atoms=np.array([-0.008, 0.02]), weights=np.array([0.6, 1.1]),
                        targets=targets, residuals=np.zeros(3), objective="min-total-mass",
                        extra_mass=11.7)
    # the result reader is handed a report's fields; its envelope is not its own
    result = calibration_result_to_dict(
        CalibrationResult(np.array([0.1]), 1e-9, np.zeros(2), np.ones(2), 8, True))
    del result["schema_version"], result["kind"]
    optional = {("targets", "floor"), ("targets", "p_extra")}
    failures = []
    for doc, load, optional_keys in (
            (kernel_to_dict(kernel), load_kernel_json, optional),
            (result, lambda p: calibration_result_from_dict(
                json.loads(p.read_text(encoding="utf-8")), str(p)), set())):
        for path, new in json_mutations(doc):
            subject = tmp_path / f"{SUBJECT}.json"
            subject.write_text(json.dumps(mutated(doc, path, new)), encoding="utf-8")
            try:
                load(subject)
            except SchemaError as exc:
                if f"{SUBJECT}.json" not in str(exc):
                    failures.append(f"{path} -> {new!r}: {exc}")
                continue
            if new is not DELETE or path not in optional_keys:
                failures.append(f"{path} -> {new!r}: accepted")
    assert not failures, "\n".join(failures[:20])


# one property's drawn examples in a fresh interpreter that loads the suite's
# conftest, as pytest does, then the modules named on the command line
EXAMPLES_RUN = """\
import importlib, json, sys
sys.path.insert(0, sys.argv[1])
import conftest  # noqa: F401
for name in sys.argv[2:]:
    importlib.import_module(name)
from hypothesis import given, strategies as st
drawn = []
@given(st.floats(0.0, 100.0), st.integers(0, 1000))
def prop(x, k):
    drawn.append((x, k))
prop()
print(json.dumps(drawn))
"""


def test_properties_draw_the_same_examples_in_any_test_selection():
    """A property module that imports only part of the package draws the same
    examples as one run after ``multicurve.cli`` is loaded."""
    src = str(Path(multicurve.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def drawn(*modules):
        done = subprocess.run(
            [sys.executable, "-c", EXAMPLES_RUN, str(Path(__file__).parent), *modules],
            env=env, capture_output=True, text=True, check=True)
        return json.loads(done.stdout.splitlines()[-1])

    alone = drawn("multicurve.momentkernel")
    assert alone == drawn("multicurve.momentkernel", "multicurve.cli")
