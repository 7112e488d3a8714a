"""Boundary wrappers that trace the calls into each multicurve module.

``install(tracer)`` replaces module attributes with timing wrappers and
returns a function that restores the originals.  Nothing under ``src/``
changes: the wrappers live here and are installed only in a traced run.

A frame is pushed at every boundary.  Coarse boundaries (one CLI op, one
simulation, one Riccati solve, ...) also record a span: name, start, end,
parent span and op id.  Per-path boundaries (generator construction, variate
draws, kernel-cache lookups) run hundreds of thousands of times per op, so
they keep only their counts and times, which still count as child time of
the enclosing span.  Self time is a frame's duration minus its children's.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    """In-memory spans plus per-boundary call counts, self times and work counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []  # [name, start, child_s, span_id]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)  # work counted at boundaries
        self.op_id = -1

    def call(self, name: str, record: bool, fn, args, kwargs):
        parent = self.stack[-1][3] if self.stack else -1
        span_id = parent
        if record:
            span_id = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.op_id])
        frame = [name, perf_counter(), 0.0, span_id]
        self.stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            duration = end - frame[1]
            self.calls[name] += 1
            self.self_s[name] += duration - frame[2]
            if self.stack:
                self.stack[-1][2] += duration
            if record:
                self.spans[span_id][1:3] = frame[1], end

    def inside(self, name: str) -> bool:
        return bool(self.stack) and self.stack[-1][0] == name

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op}) + "\n")


class _TracedGenerator:
    """Per-path generator whose variate draws count as ``rng.draw`` frames."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def _draw(self, method: str, args, kwargs):
        out = self._tracer.call("rng.draw", False, getattr(self._gen, method), args, kwargs)
        if method == "standard_normal":
            self._tracer.counts["rng.normals_drawn"] += int(getattr(out, "size", 1))
        return out

    def standard_normal(self, *args, **kwargs):
        return self._draw("standard_normal", args, kwargs)

    def poisson(self, *args, **kwargs):
        return self._draw("poisson", args, kwargs)

    def choice(self, *args, **kwargs):
        return self._draw("choice", args, kwargs)

    def __getattr__(self, attr):
        return getattr(self._gen, attr)


def install(tracer: Tracer):
    """Wrap every layer boundary the CLI reaches; return an undo function."""
    from multicurve import (affine, calibration, cli, hjm, momentkernel, rng)

    originals: list[tuple] = []

    def wrap(owner, attr: str, name: str, record: bool = True, after=None):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            result = tracer.call(name, record, original, args, kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        originals.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def count(key, value):
        tracer.counts[key] += value

    # rng: generator construction and variate draws, wherever they happen
    def traced_generator(*args, **kwargs):
        gen = tracer.call("rng.path_generator", False, original_generator, args, kwargs)
        return _TracedGenerator(gen, tracer)

    original_generator = rng.path_generator
    for owner in (rng, affine):
        originals.append((owner, "path_generator", getattr(owner, "path_generator")))
        setattr(owner, "path_generator", traced_generator)
    wrap(rng, "driver_increment_block", "rng.driver_increment_block")

    # affine: simulation, Riccati solves (calibration imports its own name)
    def affine_work(result, spec, horizon, dt, n_paths, *args, **kwargs):
        count("affine.path_steps", n_paths * math.ceil(horizon / dt - 1e-12))

    wrap(cli, "simulate_affine", "affine.simulate_affine", after=affine_work)

    def riccati_rows(result, spec, V, *args, **kwargs):
        count("affine.riccati_rows", len(V))

    def caplets(result, spec, T, i, kappas, *args, **kwargs):
        count("affine.fourier_caplets", len(kappas))

    for owner in (affine, calibration):
        wrap(owner, "_terminal_exponents", "affine.riccati", after=riccati_rows)
        wrap(owner, "_caplet_contour_prices", "affine.contour", after=caplets)

    # calibration
    wrap(cli, "calibrate", "calibration.calibrate")
    wrap(calibration, "black_implied_vol", "calibration.black")

    # hjm
    def hjm_work(result, model, horizon, dt, n_paths, *args, **kwargs):
        count("hjm.path_steps", n_paths * round(horizon / dt))
        count("hjm.aborted_paths", int(result.diagnostics["aborted"]))

    wrap(cli, "simulate_hjm", "hjm.simulate_hjm", after=hjm_work)
    wrap(hjm, "_kernel_step", "hjm.kernel_step")

    # momentkernel: cache lookups, cold LP solves, scipy linprog calls
    wrap(momentkernel.KernelFamily, "solve_with_exponent", "momentkernel.lookup", record=False)

    def solve_kernel(*args, **kwargs):
        if tracer.inside("momentkernel.lookup"):
            count("momentkernel.lookup_misses", 1)
        return tracer.call("momentkernel.lp", True, original_solve, args, kwargs)

    original_solve = momentkernel.solve_jump_kernel
    for owner in (momentkernel, cli):
        originals.append((owner, "solve_jump_kernel", original_solve))
        setattr(owner, "solve_jump_kernel", solve_kernel)
    wrap(cli, "feasibility_check", "momentkernel.lp")
    wrap(momentkernel, "linprog", "momentkernel.linprog", record=False)

    # products, as the CLI calls them
    for attr in ("caplet_price_mc", "swaption_price_mc"):
        wrap(cli, attr, "products.mc")
    for attr in ("fra_value", "ois_swap_value", "ois_swap_rate", "irs_value",
                 "irs_swap_rate", "basis_swap_spread"):
        wrap(cli, attr, "products.linear")

    # termstructure bootstraps
    def pillars(result, *args, **kwargs):
        count("termstructure.pillars", len(result.pillar_times))

    for attr in ("bootstrap_ois_curve", "bootstrap_spread_curve"):
        wrap(cli, attr, "termstructure.bootstrap", after=pillars)

    # marketio file reads and writes
    for attr in ("load_curve_json", "load_model_json", "load_product_json",
                 "load_quotes_csv", "load_vol_surface_csv"):
        wrap(cli, attr, "marketio.read")
    for attr in ("save_curve_json", "save_kernel_json", "save_plot_csv",
                 "save_quotes_csv", "save_report_json", "write_csv"):
        wrap(cli, attr, "marketio.write")

    def undo():
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)

    return undo


def layer_metrics(tracer: Tracer, objective_evals: int, bytes_written: int) -> dict:
    """Per-layer metrics of one traced run, as ``{name: (value, unit)}``."""
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    lookups = calls["momentkernel.lookup"]
    hits = lookups - counts["momentkernel.lookup_misses"]
    return {
        "rng.generators": (calls["rng.path_generator"], "count"),
        "rng.generator_s": (self_s["rng.path_generator"], "s"),
        "rng.block_s": (self_s["rng.driver_increment_block"] + self_s["rng.draw"], "s"),
        "rng.normals_drawn": (counts["rng.normals_drawn"], "count"),
        "affine.simulate_self_s": (self_s["affine.simulate_affine"], "s"),
        "affine.path_steps": (counts["affine.path_steps"], "count"),
        "affine.riccati_calls": (calls["affine.riccati"], "count"),
        "affine.riccati_rows": (counts["affine.riccati_rows"], "count"),
        "affine.riccati_s": (self_s["affine.riccati"], "s"),
        "affine.contour_s": (self_s["affine.contour"], "s"),
        "affine.fourier_caplets": (counts["affine.fourier_caplets"], "count"),
        "calibration.objective_evals": (objective_evals, "count"),
        "calibration.black_inversions": (calls["calibration.black"], "count"),
        "calibration.black_s": (self_s["calibration.black"], "s"),
        "calibration.self_s": (self_s["calibration.calibrate"], "s"),
        "hjm.simulate_self_s": (self_s["hjm.simulate_hjm"], "s"),
        "hjm.kernel_step_s": (self_s["hjm.kernel_step"], "s"),
        "hjm.path_steps": (counts["hjm.path_steps"], "count"),
        "hjm.aborted_paths": (counts["hjm.aborted_paths"], "count"),
        "momentkernel.lookups": (lookups, "count"),
        "momentkernel.lp_solves": (calls["momentkernel.lp"], "count"),
        "momentkernel.hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "momentkernel.lookup_s": (self_s["momentkernel.lookup"], "s"),
        "momentkernel.lp_s": (self_s["momentkernel.lp"] + self_s["momentkernel.linprog"], "s"),
        "momentkernel.linprog_calls": (calls["momentkernel.linprog"], "count"),
        "products.mc_estimates": (calls["products.mc"], "count"),
        "products.mc_s": (self_s["products.mc"], "s"),
        "products.linear_prices": (calls["products.linear"], "count"),
        "products.linear_s": (self_s["products.linear"], "s"),
        "termstructure.bootstraps": (calls["termstructure.bootstrap"], "count"),
        "termstructure.pillars": (counts["termstructure.pillars"], "count"),
        "termstructure.bootstrap_s": (self_s["termstructure.bootstrap"], "s"),
        "marketio.reads": (calls["marketio.read"], "count"),
        "marketio.read_s": (self_s["marketio.read"], "s"),
        "marketio.writes": (calls["marketio.write"], "count"),
        "marketio.write_s": (self_s["marketio.write"], "s"),
        "marketio.bytes_written": (bytes_written, "bytes"),
        "cli.ops": (calls["cli.op"], "count"),
        "cli.self_s": (self_s["cli.op"], "s"),
    }
