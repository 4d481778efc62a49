"""Benchmark of the jmscatter command line on two seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload nonlinear --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55

The seed generates the workload's YAML configs under perfbench/_work/.
One pass is one fresh `onepass.py` process that imports the package from
src/ and calls `jmscatter.cli.main` for each command in turn: a closed
loop with one client, BLAS pinned to one thread, CLI default --threads 1.
Passes repeat while another fits in --seconds (at least two) and every
output is checked. With --trace 0 the result holds the end-to-end metrics
of BENCHMARK.json (see `end_to_end`); with --trace 1 it holds the
per-layer metrics: half the time untraced and half traced (their wall
time difference is the tracing overhead), then the BLAS probe, a traced
pass of the cubic paper energies with BLAS pinned and one at the
machine's default thread count. `--workload all` prints every end-to-end
metric of every workload as a table.

The end-to-end times and rates are scaled to a reference host speed by
fixed kernels timed between passes (hostspeed.py); per-layer metrics are
raw.

The line before the last records the environment (with every kernel
time), absent layer functions, failed checks and every pass, unscaled;
the last line of stdout is the result as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checker
import hostspeed
import workloads
from onepass import blas_threads
from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
PASS_SCRIPT = HERE / "onepass.py"
# A run must end within 180 s, however slow the program under test is.
RUN_LIMIT_S = 170.0
MIN_PASSES = 2
RESOLVENTS = ("solver.greens_matrix", "solver.greens_spectral")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class Passes:
    """Fresh-process passes over one plan, with every output checked."""

    def __init__(self, plan_path: Path, deadline: float):
        self.plan_path = plan_path
        self.plan = json.loads(plan_path.read_text(encoding="utf-8"))
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self._digests: dict = {}
        self.host_samples = [hostspeed.sample()]

    def run(self, label: str, env: dict, trace: bool = False, identical: bool = True) -> dict:
        """One pass; outputs must match the first pass's byte for byte when `identical`."""
        outdir = self.plan_path.parent / label
        result_path = self.plan_path.parent / f"{label}.json"
        argv = [sys.executable, str(PASS_SCRIPT), str(self.plan_path), str(outdir), str(result_path)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"no time left for pass {label}")
        try:
            proc = subprocess.run(argv + (["--trace"] if trace else []), env=env, cwd=ROOT,
                                  capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"pass {label} still running at the {RUN_LIMIT_S:.0f} s limit") from exc
        if proc.returncode != 0:
            raise BenchError(f"pass {label} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        self.host_samples.append(hostspeed.sample())
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["energies"] = result["orders"] = 0
        for cmd, ran in zip(self.plan, result["commands"]):
            output = outdir / f"{cmd['name']}.out"
            outcome = checker.check_command(cmd, ran["exit_code"], output)
            if ran["error"]:
                outcome.fail("command", ran["error"])
            if identical and output.is_file():
                digest = hashlib.sha256(output.read_bytes()).hexdigest()
                if self._digests.setdefault(cmd["name"], digest) != digest:
                    outcome.fail("command", "output differs from the first pass")
            self.attempted += outcome.attempted
            self.failed += outcome.failed
            self.problems += [f"{label} {cmd['name']} {key}: {p}" for key, p in outcome.failures.items()]
            result["energies"] += outcome.energies
            result["orders"] += outcome.orders
        return result

    def repeat(self, prefix: str, budget_s: float, min_passes: int, env: dict, trace: bool = False) -> list:
        """Passes while one more fits in `budget_s`, and at least `min_passes`."""
        start = time.monotonic()
        results: list = []
        while True:
            results.append(self.run(f"{prefix}-{len(results)}", env, trace))
            elapsed = time.monotonic() - start
            if len(results) >= min_passes and elapsed * (len(results) + 1) / len(results) > budget_s:
                return results


def pinned_env() -> dict:
    return {**os.environ, **{var: "1" for var in THREAD_VARS}}


def pass_end_to_end(p: dict) -> dict:
    """End-to-end figures of one untraced pass."""
    return {
        "wall_s": p["wall_s"], "setup_s": p["setup_s"], "peak_rss_mb": p["peak_rss_mb"],
        "work_s": p["wall_s"] - p["setup_s"], "energies": p["energies"], "orders": p["orders"],
    }


def end_to_end(rows: list, scale: float) -> dict:
    """Set-up time and memory as medians over passes; wall time and rates from the run's totals.

    Contention from other tenants of the host slows whole passes at a
    time, so per-pass figures are two-moded and their median jumps
    between the modes; the mean pass time and total work over total work
    time vary smoothly with the share of slow passes. Times are multiplied
    by `scale`, the run's host-speed factor.
    """
    work_s = scale * sum(row["work_s"] for row in rows)
    return {
        "wall_s": scale * statistics.fmean(row["wall_s"] for row in rows),
        "setup_s": scale * statistics.median(row["setup_s"] for row in rows),
        "energies_per_s": sum(row["energies"] for row in rows) / work_s,
        "orders_per_s": sum(row["orders"] for row in rows) / work_s,
        "peak_rss_mb": statistics.median(row["peak_rss_mb"] for row in rows),
    }


def pass_layers(p: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    out = {}
    for module, func in LAYERS:
        layer = p["layers"].get(f"{module}.{func}", {})
        out[f"{module}.{func}.calls"] = layer.get("calls", 0)
        out[f"{module}.{func}.self_s"] = layer.get("self_s", 0.0)
    for size in ("tuples", "bytes"):
        out[f"linearize.d_tensor.{size}"] = p["sizes"].get(f"linearize.d_tensor.{size}", 0)
    solves = p["solves"]
    out["solver.orders"] = solves["orders"]
    for status in checker.STATUSES:
        out[f"solver.status.{status}"] = solves["status"].get(status, 0)
    out["solver.singular_retries"] = sum(
        p["layers"].get(name, {}).get("errors", {}).get("SingularMatrixError", 0) for name in RESOLVENTS
    )
    out["solver.nudged"] = solves["nudged"]
    out["solver.wasted_orders_ratio"] = solves["wasted_orders"] / solves["orders"] if solves["orders"] else 0.0
    return out


def medians(rows: list) -> dict:
    """Each metric's median over passes."""
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}


def per_layer(traced: list, untraced: list, probes: dict) -> dict:
    """Per-layer metrics, the tracing overhead and the BLAS probe's r_matrix call times."""
    out = medians([pass_layers(p) for p in traced])
    out["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                               - statistics.median(p["wall_s"] for p in untraced))
    for label, probe in probes.items():
        r_matrix = probe["layers"].get("solver.r_matrix", {})
        out[f"{label}.solver.r_matrix.call_p50_ms"] = r_matrix.get("call_p50_ms", 0.0)
        out[f"{label}.solver.r_matrix.call_p90_ms"] = r_matrix.get("call_p90_ms", 0.0)
    return out


def environment(pinned: list, passes: "Passes", outer_thread_vars: dict) -> dict:
    """Versions, BLAS build and thread counts, recorded with every result."""
    import numpy
    import scipy

    try:
        blas = dict(numpy.__config__.CONFIG["Build Dependencies"]["blas"])
    except (AttributeError, KeyError, TypeError):
        blas = {}
    return {
        "python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "nproc": os.cpu_count(), "blas_threads_default": blas_threads(),
        "blas_threads_pinned": sorted({p["blas_threads"] for p in pinned}, key=str),
        "host_samples_ms": [{k: round(1e3 * t, 3) for k, t in s.items()} for s in passes.host_samples],
        "host_scale": hostspeed.scale(passes.host_samples),
        "outer_thread_vars": outer_thread_vars,
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool, outer_thread_vars: dict) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = WORK / workload
    shutil.rmtree(workdir, ignore_errors=True)
    passes = Passes(workloads.generate(workload, seed, workdir), deadline)
    env = pinned_env()
    if not trace:
        untraced = passes.repeat("pass", seconds, MIN_PASSES, env)
        scale = hostspeed.scale(passes.host_samples)
        metrics, traced, probes = end_to_end([pass_end_to_end(p) for p in untraced], scale), [], {}
    else:
        untraced = passes.repeat("pass", seconds / 2, 1, env)
        traced = passes.repeat("traced", seconds / 2, 1, env, trace=True)
        probe = Passes(workloads.generate_probe(workdir / "probe"), deadline)
        probes = {
            "blas_pinned": probe.run("blas_pinned", env, trace=True, identical=False),
            "blas_default": probe.run("blas_default", dict(os.environ), trace=True, identical=False),
        }
        passes.attempted += probe.attempted
        passes.failed += probe.failed
        passes.problems += probe.problems
        metrics = per_layer(traced, untraced, probes)
    absent = sorted({name for p in untraced + traced + list(probes.values()) for name in p["absent"]})
    return {
        "workload": workload, "seed": seed, "metrics": metrics,
        "attempted": passes.attempted, "failed": passes.failed, "problems": passes.problems,
        "absent": absent,
        "environment": environment(untraced + traced, passes, outer_thread_vars),
        "passes": [pass_end_to_end(p) for p in untraced],
    }


def result_line(run: dict, declared: list) -> dict:
    """The result object: declared metrics with units; a metric not measured reads 0."""
    metrics = {m["name"]: {"value": float(run["metrics"].get(m["name"], 0.0)), "unit": m["unit"]} for m in declared}
    return {"correct": run["failed"] == 0, "attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "jmscatter" / "cli.py").is_file():
        print(f"no jmscatter sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # The parent records the machine's default BLAS thread count, so it runs
    # without the thread variables; pinned passes get them back explicitly.
    outer_thread_vars = {var: os.environ.pop(var) for var in THREAD_VARS if var in os.environ}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            run = run_workload(name, args.seed, args.seconds, bool(args.trace), outer_thread_vars)
            results[name] = result_line(run, declared)
            print(json.dumps({k: v for k, v in run.items() if k != "metrics"}))
            for problem in run["problems"][:20]:
                print(f"check failed: {problem}", file=sys.stderr)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(f"{'workload':<15}{'metric':<18}{'value':>14}  unit")
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name:<15}{metric:<18}{m['value']:>14.6g}  {m['unit']}")
        print(f"{name:<15}{'failed_fraction':<18}{res['failed'] / res['attempted']:>14.6g}  "
              f"({res['failed']} of {res['attempted']} items)")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
