"""Seeded input generator for the benchmark workloads.

``build_round(workload, seed, variant, root)`` writes every input file one
round of a workload needs under ``root`` and returns the round's operations:
CLI argument lists plus what each operation's output check needs.  Model
parameters are drawn from narrow admissible ranges with ``random.Random``
keyed by (workload, seed, variant), so one seed always yields byte-identical
files and the work per round stays comparable across seeds.  Path counts and
step sizes are fixed per workload, never drawn; the simulation seed is not in
the files but passed per call (``Op.command``).

Each round's mix is fixed, so the median and the tail op always fall at the
same place in the sorted latencies.  The mixes put those places inside one
op kind's latencies, never on the boundary between two kinds, whatever the
number of rounds a run completes: there the reported latency would jump
between kinds from run to run.

Most inputs are plain JSON and CSV written here without the library.  Two
need model values the benchmark cannot know otherwise, and are computed with
the library before any timing starts: the model-implied forward and annuity
that the caplet and swaption checks use, and the caplet vol surfaces the
calibrations fit (priced from seed-drawn true parameters so a perfect fit
exists).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("affine_mc", "transform_calibrate", "hjm_curves")

SCHEMA = {"schema_version": 1}
# the simulators' default batch sizes, used for the computed working sets
AFFINE_BATCH = 65536
HJM_BATCH = 4096


@dataclass
class Op:
    """One CLI call of a round and what its output check needs."""

    kind: str
    argv: list
    out: Path
    check: str
    expect: dict = field(default_factory=dict)
    expect_exit: int = 0
    seeded: bool = False
    path_steps: int = 0
    normals_block_bytes: int = 0

    def command(self, seed: int) -> list:
        """The CLI argv; seeded ops draw their paths from ``seed``."""
        return self.argv + ["--seed", str(seed)] if self.seeded else list(self.argv)


@dataclass
class Sizes:
    """Fixed per-op sizes; ``tiny`` shrinks every one for the smoke test."""

    tiny: bool = False

    def paths(self, n: int) -> int:
        return min(n, 500) if self.tiny else n

    def steps(self, per_year: int) -> int:
        return min(per_year, 26) if self.tiny else per_year


def _write_json(path: Path, doc: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _write_csv(path: Path, header, rows) -> Path:
    lines = [",".join(header)] + [",".join(repr(v) if isinstance(v, float) else str(v)
                                           for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class _Round:
    """Writes one round's files and collects its operations.

    Configs name their input files relative to themselves, as the CLI
    resolves them, so a round's files do not depend on where they are.
    """

    def __init__(self, workload: str, seed: int, variant: int, root: Path, tiny: bool):
        self.rng = random.Random(f"{workload}:{seed}:{variant}")
        self.root = root
        self.inputs = root / "inputs"
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.sizes = Sizes(tiny)
        self.ops: list[Op] = []

    def u(self, lo: float, hi: float) -> float:
        return self.rng.uniform(lo, hi)

    def near(self, center: float) -> float:
        """``center`` moved by at most 5%: model parameters vary by seed
        while the solver work they cause stays about the same."""
        return center * (1.0 + self.rng.uniform(-0.05, 0.05))

    def add(self, kind: str, command: str, config: dict, check: str, *,
            seeded: bool = False, **fields) -> Op:
        k = len(self.ops)
        cfg = _write_json(self.inputs / f"op{k:02d}_{command}.json", config)
        out = self.root / f"out{k:02d}"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        op = Op(kind=kind, argv=argv, out=out, check=check, seeded=seeded, **fields)
        self.ops.append(op)
        return op


# ---------------------------------------------------------------------------
# model documents (the marketio file forms)


def affine_doc(*, pos: int, real: int, drift_const, drift_linear, diff_const, x0, y0,
               y_drift_linear, diff_linear=None, u_vectors=((1.0,),), mode="diffusive",
               y_drift_const=(0.0,), y_diff_const=((0.0,),)) -> dict:
    """Affine model with one 6M spread factor; the short rate is the first factor."""
    d, n = pos + real, len(u_vectors[0])
    return {
        **SCHEMA, "kind": "affine_model",
        "state": {"pos_dims": pos, "real_dims": real, "x0": list(x0)},
        "drift": {"const": list(drift_const), "linear": [list(r) for r in drift_linear]},
        "diffusion": {"const": [list(r) for r in diff_const],
                      "linear": diff_linear or [[[0.0] * d for _ in range(d)] for _ in range(d)]},
        "rate": {"const": 0.0, "linear": [1.0] + [0.0] * (d - 1)},
        "spreads": {
            "mode": mode, "tenors": ["1/2"],
            "u_vectors": [list(r) for r in u_vectors], "y0": list(y0),
            "drift_const": list(y_drift_const),
            "drift_linear": [list(r) for r in y_drift_linear],
            "diff_const": [list(r) for r in y_diff_const],
            "diff_linear": [[[0.0] * n for _ in range(n)] for _ in range(d)],
        },
    }


def gaussian_model(r: _Round, jumps: bool = False) -> dict:
    """One-factor Vasicek short rate with a diffusive log-spread factor."""
    kappa, theta, sigma = r.near(0.5), r.near(0.03), r.near(0.012)
    doc = affine_doc(
        pos=0, real=1, drift_const=[kappa * theta], drift_linear=[[-kappa]],
        diff_const=[[sigma ** 2]], x0=[r.near(0.02)], y0=[r.near(0.004)],
        y_drift_const=[r.near(0.001)], y_drift_linear=[[r.near(0.15)]],
        y_diff_const=[[r.near(0.02) ** 2]])
    if jumps:
        # short-rate jumps only: a one-factor model whose jumps also move Y
        # gets spread curves that depend on the Riccati batch size (see the
        # known-defect probe in test_smoke.py)
        doc["jumps"] = {
            "atoms_x": [[r.near(0.0045)], [-r.near(0.0045)]],
            "probabilities": [0.5, 0.5],
            "intensity_const": r.near(1.5), "intensity_linear": [0.0]}
    return doc


def gaussian2_model(r: _Round) -> dict:
    """Two-factor Gaussian short rate with a diffusive log-spread factor."""
    k1, k2 = r.near(0.4), r.near(1.25)
    s1, s2, rho = r.near(0.01), r.near(0.008), r.near(-0.35)
    cov = [[s1 * s1, rho * s1 * s2], [rho * s1 * s2, s2 * s2]]
    return affine_doc(
        pos=0, real=2, drift_const=[k1 * r.near(0.03), 0.0],
        drift_linear=[[-k1, 0.0], [0.0, -k2]], diff_const=cov,
        x0=[r.near(0.02), r.u(-0.002, 0.002)], y0=[r.near(0.004)],
        y_drift_const=[r.near(0.001)], y_drift_linear=[[r.near(0.15), 0.0]],
        y_diff_const=[[r.near(0.02) ** 2]])


def cir_model(r: _Round, diffusive: bool) -> dict:
    """CIR short rate; the spread factor is integrated or diffusive."""
    kappa, theta, sigma = r.near(0.8), r.near(0.04), r.near(0.22)
    common = dict(pos=1, real=0, drift_const=[kappa * theta], drift_linear=[[-kappa]],
                  diff_const=[[0.0]], diff_linear=[[[sigma ** 2]]],
                  x0=[r.near(0.03)])
    if diffusive:
        return affine_doc(**common, y0=[r.near(0.004)],
                          y_drift_const=[r.near(0.001)],
                          y_drift_linear=[[r.near(0.1)]],
                          y_diff_const=[[r.near(0.02) ** 2]])
    return affine_doc(**common, mode="integrated", u_vectors=((r.near(0.7),),),
                      y0=[r.near(0.001)], y_drift_linear=[[r.near(0.3)]])


def hjm_doc(r: _Round, *, tenors, u_vectors, spread_levels, spread_vol: bool,
            mode: str, jumps: bool = False) -> dict:
    """HJM model with one curve factor; ``u_vectors`` rows fix the spread factors.

    The integrated drift can match every tenor's short end only when the u
    matrix has full row rank, so the integrated-drift models give each tenor
    its own spread factor.
    """
    n = len(u_vectors[0])
    cov = [[0.0] * (n + 1) for _ in range(n + 1)]
    cov[0][0] = 1.0
    for k in range(1, n + 1):
        cov[k][k] = 1e-4 if spread_vol else 0.0
    driver = {"drift": [0.0] * (n + 1), "covariance": cov}
    if jumps:
        driver["jump_sizes"] = [[r.near(0.4)] + [0.0] * n, [-r.near(0.4)] + [0.0] * n]
        driver["jump_intensities"] = [r.near(2), r.near(2)]

    def vol(scale):
        return {"family": "exponential", "scales": [scale], "decays": [r.near(0.2)]}

    return {
        **SCHEMA, "kind": "hjm_model", "driver": driver, "n_curve_factors": 1,
        "vols": {"ois": vol(r.near(0.01)),
                 "spreads": [vol(r.near(0.0045) if spread_vol else 0.0) for _ in tenors]},
        "u_vectors": [list(u) for u in u_vectors], "tenors": list(tenors),
        "initial_curves": {"forward": r.near(0.025), "spreads": spread_levels},
        # kernel mode: the least-integrability-mass kernel jumps often and
        # little; the least-total-mass one jumps rarely and far, which leaves
        # too few jumps per run for the martingale check's standard errors
        "spread_factor": {"mode": mode, "mass_cap": 50.0,
                          "objective": "min-g-extra-mass", "y0": None},
    }


# ---------------------------------------------------------------------------
# model-implied values the checks and calibrations need (library calls)


def _model_curves(doc: dict, times):
    """(discounts, spreads of the first tenor) implied by an affine model doc."""
    from multicurve.affine import affine_bond, affine_spread
    from multicurve.marketio import affine_spec_from_dict

    spec = affine_spec_from_dict(doc)
    bonds = [float(b) for b in affine_bond(spec, spec.x0, times)]
    spreads = [float(s) for s in affine_spread(spec, spec.x0, spec.y0, times, 0)]
    return bonds, spreads


def _caplet_env(doc: dict, expiry: float, delta: float):
    """Model forward Libor and annuity of the caplet over [expiry, expiry + delta]."""
    (b_t, b_pay), (s_t, _) = _model_curves(doc, [expiry, expiry + delta])
    return (s_t * b_t / b_pay - 1.0) / delta, delta * b_pay


# ---------------------------------------------------------------------------
# workloads


def _affine_mc(r: _Round) -> None:
    s = r.sizes
    gauss, cir, jumpy = gaussian_model(r), cir_model(r, diffusive=False), gaussian_model(r, True)
    files = {name: _write_json(r.inputs / f"{name}.json", doc)
             for name, doc in (("gauss", gauss), ("cir", cir), ("jumps", jumpy))}
    mats = [1.0, 1.5, 2.0]

    def simulate(kind, model, n_paths, per_year, n_noise):
        n_paths, steps = s.paths(n_paths), s.steps(per_year)
        r.add(kind, "simulate",
              {"model": files[model].name, "n_paths": n_paths, "dt": 1.0 / steps,
               "horizon": 1.0, "maturities": mats, "dump_paths": 20},
              "simulate", seeded=True, path_steps=n_paths * steps,
              normals_block_bytes=min(n_paths, AFFINE_BATCH) * steps * n_noise * 8)

    def swaption(kind, model, doc, n_paths, per_year, n_noise, moneyness):
        n_paths, steps = s.paths(n_paths), s.steps(per_year)
        sched = [1.0, 1.5, 2.0, 2.5, 3.0]
        bonds, spreads = _model_curves(doc, sched)
        # strikes near the model's forward swap rate keep the option near the money
        floating = sum(bonds[i] * spreads[i] - bonds[i + 1] for i in range(4))
        annuity = 0.5 * sum(bonds[1:])
        strike = floating / annuity + moneyness + r.u(-0.0005, 0.0005)
        kappa = 1.0 + 0.5 * strike
        forward_value = sum(bonds[i] * spreads[i] - kappa * bonds[i + 1] for i in range(4))
        product = _write_json(r.inputs / f"{kind}.{len(r.ops)}.product.json", {
            **SCHEMA, "kind": "product", "product": "SWAPTION", "schedule": sched,
            "fixed_rate": strike, "notional": 1.0, "tenor": "1/2"})
        r.add(kind, "price",
              {"product": product.name, "model": files[model].name,
               "n_paths": n_paths, "dt": 1.0 / steps},
              "swaption", seeded=True, path_steps=n_paths * steps,
              normals_block_bytes=min(n_paths, AFFINE_BATCH) * steps * n_noise * 8,
              expect={"lower_bound": max(forward_value, 0.0)})

    # the book: three swaptions above the simulator's 65,536-path batch, so
    # a second batch runs, between a faster CIR and a slower jump simulation:
    # the median and the tail op fall in the middle of the swaptions at any
    # round count
    simulate("simulate.cir_euler", "cir", 4_000, 250, 1)
    for moneyness in (-0.002, 0.0, 0.002):
        swaption("swaption.gauss_ou", "gauss", gauss, 66_000, 25, 2, moneyness)
    simulate("simulate.gauss_jumps", "jumps", 20_000, 50, 2)


def _kernel_levels(r: _Round, u_vectors) -> list:
    atoms = (r.near(0.075), r.near(0.025))
    weights = (r.near(0.045), r.near(0.045))
    return [sum(w * (math.exp(u * a) - 1.0) for a, w in zip(atoms, weights)) for u in u_vectors]


def _hjm_mc(r: _Round) -> None:
    s = r.sizes
    kernel_u = [0.5, 1.0, 2.0]
    two = ("1/4", "1/2")
    levels2 = [r.near(0.003), r.near(0.0065)]
    u2 = [[1.0, 0.0], [1.0, 1.0]]
    models = {
        "integrated": hjm_doc(r, tenors=two, u_vectors=u2, spread_levels=levels2,
                              spread_vol=True, mode="integrated-drift"),
        "jumps": hjm_doc(r, tenors=two, u_vectors=u2, spread_levels=levels2,
                         spread_vol=True, mode="integrated-drift", jumps=True),
        # zero spread vols keep the kernel targets static, so LP lookups hit
        # the cache; the levels are the exponent of a two-atom jump kernel,
        # so a nonnegative kernel matching them exists
        "kernel": hjm_doc(r, tenors=("1/4", "1/2", "1"), u_vectors=[[u] for u in kernel_u],
                          spread_levels=_kernel_levels(r, kernel_u),
                          spread_vol=False, mode="kernel"),
    }
    # the factor engine is the slowest op, three per round, so the tail op
    # (ten or more beyond it) falls among its runs
    plan = (("simulate.hjm_factor", "integrated", 6_000, 250),
            ("simulate.hjm_factor", "integrated", 6_000, 250),
            ("simulate.hjm_factor", "integrated", 6_000, 250),
            ("simulate.hjm_jumps", "jumps", 3_000, 250),
            ("simulate.hjm_kernel", "kernel", 600, 26))
    for kind, name, n_paths, per_year in plan:
        model = _write_json(r.inputs / f"{name}.json", models[name])
        n_normals = len(models[name]["driver"]["drift"])
        n_paths, steps = s.paths(n_paths), s.steps(per_year)
        r.add(kind, "simulate",
              {"model": model.name, "n_paths": n_paths, "dt": 1.0 / steps, "horizon": 1.0,
               "maturities": [1.0, 2.0, 3.0], "observation_times": [0.5, 1.0] if steps % 2 == 0
               else [1.0], "dump_paths": 20},
              "simulate", seeded=True, path_steps=n_paths * steps,
              normals_block_bytes=min(n_paths, HJM_BATCH) * steps * n_normals * 8)


def _vol_surface(r: _Round, doc: dict, fields: list, name: str, expiry, moneyness):
    """Market curves plus a caplet vol surface priced from ``doc`` itself.

    The vols come from the calibration's own pricer at the true parameters
    (``calibrate`` with no free coefficients returns model-minus-quoted vol
    residuals), so a perfect fit exists.
    """
    from multicurve.calibration import VolQuote, VolQuoteSurface, calibrate
    from multicurve.marketio import affine_spec_from_dict
    from multicurve.termstructure import DiscountCurve, SpreadTermStructure, Tenor

    times = [0.25 * k for k in range(1, 4 * int(expiry + 1) + 1)]
    bonds, spreads = _model_curves(doc, times)
    disc = _write_json(r.inputs / f"{name}.disc.json", {
        **SCHEMA, "kind": "discount_curve", "interpolation": "log-linear-discount",
        "times": times, "discounts": bonds})
    spread = _write_json(r.inputs / f"{name}.spread.json", {
        **SCHEMA, "kind": "spread_curve", "interpolation": "linear-log-spread",
        "tenor": "1/2", "times": times, "spreads": spreads})
    disc_curve, spread_curve = DiscountCurve(times, bonds), SpreadTermStructure(
        Tenor.parse("1/2"), times, spreads)
    fwd = (spread_curve.spread(expiry) * disc_curve.discount(expiry)
           / disc_curve.discount(expiry + 0.5) - 1.0) / 0.5
    quotes = [VolQuote(expiry, Tenor.parse("1/2"), round(fwd * m, 6), 0.2) for m in moneyness]
    spec = affine_spec_from_dict(doc)
    fit = calibrate(lambda _: spec, [], VolQuoteSurface(quotes), disc_curve,
                    {Tenor.parse("1/2"): spread_curve})
    rows = [(q.expiry, "1/2", q.strike, 0.2 + float(res))
            for q, res in zip(quotes, fit.residuals)]
    surface = _write_csv(r.inputs / f"{name}.vols.csv", ("expiry", "tenor", "strike", "vol"), rows)
    return {"surface": surface.name, "discount_curve": disc.name,
            "spread_curves": [spread.name], "parameters": fields}


def _transform_calibrate(r: _Round) -> None:
    # one CIR caplet, two batched two-factor caplets and one calibration
    # (whose objective prices one-factor Gaussian caplets): the median and
    # the tail op fall in the middle of the two-factor caplets at any round
    # count, as they have one faster and one slower op on either side
    expiry = 0.5
    gauss2 = gaussian2_model(r)
    caplets = [("caplet.cir_diffusive", cir_model(r, diffusive=True), 1.05)]
    caplets += [("caplet.gauss2", gauss2, m) for m in (0.95, 1.15)]
    envs = {}
    for kind, doc, moneyness in caplets:
        k = len(r.ops)
        model = _write_json(r.inputs / f"{kind}.{k}.json", doc)
        if kind not in envs:
            envs[kind] = _caplet_env(doc, expiry, 0.5)
        forward, annuity = envs[kind]
        strike = round(forward * moneyness * r.near(1.0), 6)
        product = _write_json(r.inputs / f"{kind}.{k}.product.json", {
            **SCHEMA, "kind": "product", "product": "CAPLET", "schedule": [expiry],
            "fixed_rate": strike, "notional": 1.0, "tenor": "1/2"})
        r.add(kind, "price", {"product": product.name, "model": model.name}, "caplet",
              expect={"forward": forward, "annuity": annuity, "strike": strike,
                      "expiry": expiry})

    # one free coefficient on a one-expiry, three-strike surface, started a
    # fixed share away from the truth so the evaluation count varies little
    # across seeds; a second coefficient is left out because each two-
    # coefficient fit took 40-45 s on two cores (over 110 evaluations)
    truth = gaussian_model(r)
    y_var = truth["spreads"]["diff_const"][0][0]
    fields = [{"field": "spreads/diff_const/0/0", "initial": y_var * 1.15, "lower": 1e-8}]
    model = _write_json(r.inputs / "calibrate.model.json", truth)
    cfg = _vol_surface(r, truth, fields, "calibrate", expiry, (0.9, 1.05, 1.2))
    cfg.update(model=model.name, restarts=0, xatol=5e-5, fatol=1e-10)
    r.add("calibrate.spread_vol", "calibrate", cfg, "calibrate", seeded=True)


def _curves(r: _Round):
    """Reference curves on a quarterly pillar grid out to ten years."""
    times = [0.25 * k for k in range(1, 41)]
    a, b, c = r.u(0.015, 0.025), r.u(0.005, 0.015), r.u(0.3, 0.6)
    disc = [math.exp(-(a * t + b * (t - (1.0 - math.exp(-c * t)) / c))) for t in times]
    s3, s6 = r.u(0.001, 0.003), r.u(0.003, 0.006)
    spreads = {"1/4": [math.exp(s3 * t) for t in times],
               "1/2": [math.exp(s6 * t) for t in times]}
    return times, disc, spreads


def _curves_kernels(r: _Round) -> None:
    times, disc, spreads = _curves(r)
    grid = {t: k for k, t in enumerate(times)}

    def P(t):
        return 1.0 if t == 0.0 else disc[grid[t]]

    def S(tenor, t):
        return 1.0 if t == 0.0 else spreads[tenor][grid[t]]

    # quote sheets priced off the reference curves; the bootstrap must
    # reprice whatever it is given
    for tenors in (("1/2",), ("1/4", "1/2")):
        rows = []
        for T in (1.0, 2.0, 3.0, 5.0, 7.0, 10.0):
            sched = [float(k) for k in range(int(T) + 1)]
            rows.append(("OIS", "1", T, (P(0.0) - P(T)) / sum(P(t) for t in sched[1:])))
        for tenor in tenors:
            d = 0.25 if tenor == "1/4" else 0.5
            for T in (0.5, 1.0, 1.5):
                ld = (P(T) / P(T + d) - 1.0) / d
                rows.append(("FRA", tenor, T, (S(tenor, T) * (1.0 + d * ld) - 1.0) / d))
            for T in (3.0, 5.0, 10.0):
                sched = [d * k for k in range(round(T / d) + 1)]
                floating = sum(P(t0) * S(tenor, t0) - P(t1) for t0, t1 in zip(sched, sched[1:]))
                rows.append(("IRS", tenor, T, floating / (d * sum(P(t) for t in sched[1:]))))
        quotes = _write_csv(r.inputs / f"quotes_{len(tenors)}.csv",
                            ("instrument", "tenor", "maturity", "quote"), rows)
        r.add(f"bootstrap.{len(tenors)}_tenor", "bootstrap",
              {"quotes": quotes.name, "plot_times": [0.5, 1.0, 2.0, 5.0]}, "bootstrap")

    disc_file = _write_json(r.inputs / "disc.json", {
        **SCHEMA, "kind": "discount_curve", "interpolation": "log-linear-discount",
        "times": times, "discounts": disc})
    spread_files = [_write_json(r.inputs / f"spread_{k}.json", {
        **SCHEMA, "kind": "spread_curve", "interpolation": "linear-log-spread", "tenor": tenor,
        "times": times, "spreads": spreads[tenor]}).name for k, tenor in enumerate(spreads)]
    curves = {"discount_curve": disc_file.name, "spread_curves": spread_files}

    # expected values by the products' own formulas on pillar dates, so no
    # interpolation is involved
    def leg(tenor, sched):
        return sum(P(t0) * S(tenor, t0) - P(t1) for t0, t1 in zip(sched, sched[1:]))

    # four trades per product kind: the linear prices are the fastest op
    # and more than half of all ops, so the median falls among them
    notional = 1_000_000.0
    for trade in range(4):
        start = 0.25 * r.rng.randint(1, 4)
        q = [start + 0.25 * k for k in range(9)]
        h = [start + 0.5 * k for k in range(5)]
        y = [start + 1.0 * k for k in range(3)]
        K = r.u(0.01, 0.04)
        products = [
            ("FRA", {"schedule": [start], "tenor": "1/2"},
             notional * (P(start) * S("1/2", start) - P(start + 0.5) * (1.0 + 0.5 * K))),
            ("OIS_SWAP", {"schedule": y, "tenor": "1"},
             notional * (P(y[0]) - P(y[-1]) - K * sum(P(t) for t in y[1:]))),
            ("IRS", {"schedule": q, "tenor": "1/4"},
             notional * (leg("1/4", q) - K * 0.25 * sum(P(t) for t in q[1:]))),
            ("BASIS_SWAP", {"schedule": h, "tenor": "1/2", "tenor_b": "1/4", "schedule_b": q,
                            "schedule_fixed": y},
             (leg("1/2", h) - leg("1/4", q)) / sum(P(t) for t in y[1:])),
        ]
        for kind, fields, expected in products:
            product = _write_json(r.inputs / f"{kind}_{trade}.json", {
                **SCHEMA, "kind": "product", "product": kind, "fixed_rate": K,
                "notional": notional, **fields})
            r.add(f"price.{kind.lower()}", "price", {"product": product.name, **curves},
                  "linear_price", expect={"price": expected, "scale": notional})

    # one feasible kernel on a fine grid: a cold LP of tens of milliseconds
    u = [0.5 + r.u(-0.05, 0.05), 1.0 + r.u(-0.05, 0.05), 1.5 + r.u(-0.05, 0.05)]
    atoms = [r.u(0.2, 0.4), r.u(0.8, 1.0), r.u(1.8, 2.2)]
    weights = [r.u(0.4, 0.6), r.u(0.15, 0.25), r.u(0.04, 0.06)]
    p = [sum(w * (math.exp(ui * a) - 1.0) for a, w in zip(atoms, weights)) for ui in u]
    targets = _write_json(r.inputs / "targets.json", {"u": u, "p": p, "mass_cap": 100.0})
    r.add("kernel.feasible", "construct-kernel",
          {"targets": targets.name, "grid_size": 2000}, "kernel")
    # a negative exponent target admits no nonnegative kernel with floor 0
    p_bad = [-r.u(0.2, 0.6)]
    bad = _write_json(r.inputs / "targets_bad.json", {"u": [1.0], "p": p_bad, "mass_cap": 10.0})
    r.add("kernel.infeasible", "construct-kernel", {"targets": bad.name}, "kernel_infeasible",
          expect_exit=1, expect={"p": p_bad})


def _hjm_curves(r: _Round) -> None:
    # the millisecond requests are most of the ops, so the median falls
    # among the linear prices; the HJM simulations are fewer but slower,
    # so the tail op falls among the factor-engine runs
    _curves_kernels(r)
    _hjm_mc(r)


_BUILDERS = {
    "affine_mc": _affine_mc,
    "transform_calibrate": _transform_calibrate,
    "hjm_curves": _hjm_curves,
}


def build_round(workload: str, seed: int, variant: int, root: Path,
                tiny: bool = False) -> list[Op]:
    """Write input variant ``variant`` of ``workload`` under ``root``; return its ops."""
    r = _Round(workload, seed, variant, Path(root), tiny)
    _BUILDERS[workload](r)
    return r.ops
