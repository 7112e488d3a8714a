"""Benchmark of the multicurve CLI: one command, every metric, checked outputs.

    python3 bench/run.py --workload affine_mc --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  Each
workload runs in its own child process (``client.py``), one after another,
with BLAS threads capped at the number of usable cores.  Before it, set-up
time is measured as the median of several fresh interpreters importing
``multicurve.cli``.  Every metric is printed as ``workload metric value unit``
and the last stdout line is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  The exit status is 1 when any output check fails
and 2 when the benchmark cannot run at all.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from inputs import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 160


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["MULTICURVE_LOG"] = "WARNING"
    return env


def setup_seconds(env: dict) -> float:
    """Median wall time of a fresh interpreter importing ``multicurve.cli``."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import multicurve.cli"], env=env, check=True,
                       timeout=60)
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def _command_output(cmd: list) -> str:
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 and proc.stdout.strip() else "unknown"


def metadata(env: dict) -> dict:
    return {
        "git_sha": _command_output(["git", "rev-parse", "HEAD"])
        if (ROOT / ".git").exists() else "unknown",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(env["OMP_NUM_THREADS"]),
        "l3_bytes": _command_output(["getconf", "LEVEL3_CACHE_SIZE"]),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def run_workload(workload: str, args, env: dict) -> dict:
    setup = None if args.trace else setup_seconds(env)
    cmd = [sys.executable, str(BENCH / "client.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(WORK / f"{workload}_{args.seed}")]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{workload} client failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if setup is not None:
        result["metrics"]["setup_s"] = {"value": setup, "unit": "s"}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (used by test_smoke.py)")
    args = parser.parse_args(argv)
    if not (SRC / "multicurve" / "cli.py").is_file():
        print(f"error: no multicurve sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    env = child_env()
    WORK.mkdir(exist_ok=True)
    meta = metadata(env)
    print("# meta " + json.dumps(meta, sort_keys=True))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        try:
            results[workload] = run_workload(workload, args, env)
        except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        r = results[workload]
        print(f"# {workload} rounds={r['rounds']} ops={r['attempted']} failed={r['failed']} "
              f"tail_percentile={r['tail_percentile']:.1f} python={r['python']} "
              f"numpy={r['numpy']} scipy={r['scipy']}"
              + (f" working_set_bytes={r['working_set_bytes']}" if "working_set_bytes" in r else "")
              + (f" spans={r['spans']}" if "spans" in r else ""))
        print(f"# {workload} op median latency: " + " ".join(
            f"{kind}={t:.4g}s" for kind, t in r["op_median_s"].items()))
        for name, m in r["metrics"].items():
            print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
        for failure in r["failures"]:
            print(f"FAIL {workload} {failure}")

    # the JSON line carries exactly the metrics BENCHMARK.json declares:
    # end-to-end ones untraced, per-layer ones traced
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    metrics = {}
    for workload, r in results.items():
        prefix = "" if len(results) == 1 else f"{workload}."
        missing = [name for name in declared if name not in r["metrics"]]
        if missing:
            print(f"error: {workload} did not report {missing}", file=sys.stderr)
            return 2
        metrics.update({prefix + name: r["metrics"][name] for name in declared})
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
