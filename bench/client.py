"""One workload in one process: a closed-loop client of ``multicurve.cli``.

Run by ``run.py``, one process per workload.  A single client calls
``multicurve.cli.main(argv)`` in-process, each call only after the previous
one returned and its outputs were checked.  Before timing starts, the
generator writes ``POOL`` input variants from (seed, variant).  Whole rounds
of the workload's fixed op sequence then run, as many as end nearest to
``--seconds``; round r reads variant r mod ``POOL`` and draws its paths from
seeds derived from (seed, r), so no two rounds simulate the same paths.

With ``--trace 1`` the client runs round 0 once untraced and once with the
boundary wrappers of ``trace.py`` installed, and reports per-layer metrics
plus the traced-minus-untraced wall time as the tracing overhead.

The last line of stdout is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import checks
import inputs
import trace

POOL = 2


def round_seed(seed: int, r: int) -> int:
    """Base path seed of round ``r``; op k of the round uses base + k."""
    return 1 + (seed * 1_000_003 + r * 1_000) % 2_000_000_000


def run_op(op, argv, main, tracer=None) -> tuple[float, str | None]:
    """Latency of one CLI call and the reason its check failed (or None)."""
    out, err = io.StringIO(), io.StringIO()
    shutil.rmtree(op.out, ignore_errors=True)
    if tracer is not None:
        tracer.op_id += 1
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                code = main(argv)
            else:
                code = tracer.call("cli.op", True, main, (argv,), {})
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - a crashing op is a failed op, not a crashed run
            code, err = None, io.StringIO(f"{type(exc).__name__}: {exc}")
    latency = perf_counter() - start
    return latency, checks.check(op, code, out.getvalue(), err.getvalue())


def run_round(ops, seed: int, main, tracer=None) -> list[dict]:
    records = []
    for k, op in enumerate(ops):
        latency, failure = run_op(op, op.command(seed + k), main, tracer)
        records.append({"kind": op.kind, "latency": latency, "failure": failure,
                        "path_steps": op.path_steps})
    return records


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten ops beyond it.

    Never below the median: with fewer than 21 ops the upper median is
    reported.  Returns (latency, percentile used).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - 11, n // 2)
    return ordered[k], 100.0 * (k + 1) / n


def output_bytes(ops) -> int:
    return sum(f.stat().st_size for op in ops for f in op.out.rglob("*") if f.is_file())


def end_to_end(rounds: list[list[dict]]) -> dict:
    records = [r for rnd in rounds for r in rnd]
    latencies = [r["latency"] for r in records]
    tail_s, tail_pct = tail(latencies)
    mc = [r for r in records if r["path_steps"]]
    calibrations = [r["latency"] for r in records
                    if r["kind"].startswith("calibrate") and r["failure"] is None]
    failed = sum(r["failure"] is not None for r in records)
    metrics = {
        "wall_s": (statistics.median(sum(r["latency"] for r in rnd) for rnd in rounds), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail_s, "s"),
        "fail_ratio": (failed / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if mc:
        metrics["path_steps_per_s"] = (
            sum(r["path_steps"] for r in mc) / sum(r["latency"] for r in mc), "1/s")
    if calibrations:
        metrics["calibrate_p50_s"] = (statistics.median(calibrations), "s")
    kinds = {}
    for r in records:
        kinds.setdefault(r["kind"], []).append(r["latency"])
    return {"metrics": metrics, "attempted": len(records), "failed": failed,
            "rounds": len(rounds), "tail_percentile": tail_pct,
            "op_median_s": {kind: statistics.median(v) for kind, v in kinds.items()},
            "failures": [f"{r['kind']}: {r['failure']}" for r in records if r["failure"]][:10]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True, help="scratch directory")
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)

    import numpy
    import scipy
    from multicurve import cli

    work = args.work
    shutil.rmtree(work, ignore_errors=True)

    def build(r: int, tag: str, tiny: bool = args.tiny):
        return inputs.build_round(args.workload, args.seed, r, work / f"{tag}{r}", tiny)

    # first calls pay one-off costs (lazy imports, solver set-up) that later
    # CLI calls in this process would not; the first tiny op of each
    # subcommand absorbs them untimed (calibration reuses the caplet pricer)
    warmup = {}
    for op in build(0, "warmup", tiny=True):
        warmup.setdefault(op.argv[0], op)
    warmup.pop("calibrate", None)
    run_round(list(warmup.values()), round_seed(args.seed, -1), cli.main)
    pool = [build(v, "variant") for v in range(1 if args.trace else POOL)]

    result = {"workload": args.workload, "seed": args.seed,
              "python": sys.version.split()[0], "numpy": numpy.__version__,
              "scipy": scipy.__version__}
    if args.trace:
        ops, seed = pool[0], round_seed(args.seed, 0)
        untraced = run_round(ops, seed, cli.main)
        tracer = trace.Tracer()
        undo = trace.install(tracer)
        try:
            traced = run_round(ops, seed, cli.main, tracer)
        finally:
            undo()
        evals = sum(json.loads((op.out / "calibration_result.json").read_text())["n_evaluations"]
                    for op in ops if op.check == "calibrate")
        layers = trace.layer_metrics(tracer, evals, output_bytes(ops))
        wall = {name: sum(r["latency"] for r in records)
                for name, records in (("untraced", untraced), ("traced", traced))}
        layers["trace.overhead_s"] = (wall["traced"] - wall["untraced"], "s")
        layers["trace.overhead_ratio"] = (layers["trace.overhead_s"][0] / wall["untraced"], "ratio")
        tracer.write_spans(work.parent / f"spans_{args.workload}_{args.seed}.jsonl")
        summary = end_to_end([untraced, traced])
        summary["metrics"] = layers
        summary["spans"] = len(tracer.spans)
    else:
        # whole rounds, as many as end nearest to --seconds
        rounds = []
        start = perf_counter()
        while not rounds or (perf_counter() - start) * (1 + 0.5 / len(rounds)) < args.seconds:
            r = len(rounds)
            rounds.append(run_round(pool[r % POOL], round_seed(args.seed, r), cli.main))
        summary = end_to_end(rounds)
        summary["working_set_bytes"] = max(op.normals_block_bytes for op in pool[0])
    result.update(summary)
    shutil.rmtree(work, ignore_errors=True)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
