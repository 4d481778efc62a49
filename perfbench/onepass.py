"""One benchmark pass in a fresh process.

    python3 perfbench/onepass.py PLAN OUTDIR RESULT [--trace]

Imports `jmscatter.cli` from `src/`, then calls `jmscatter.cli.main` for
each command of the plan in turn, writing outputs into OUTDIR, and
writes its timings to RESULT as JSON. The clock starts before the
package import, because every CLI user pays it. A command's set-up ends
at its first call into the solver layer (`jmscatter.cli.scan` or
`jmscatter.cli.solve_energy`). With --trace, layer spans are recorded
and summarised, and written next to RESULT.
"""

from time import perf_counter

T_START = perf_counter()

import ctypes  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer  # noqa: E402

# The solver-layer entry points the CLI calls, by their names in jmscatter.cli.
SOLVER_ENTRIES = ("scan", "solve_energy")


class Boundary:
    """Stamps a command's first call into the solver layer.

    With `count`, it also counts what the solver returned to the CLI; the
    untraced passes skip that, so their timing holds no benchmark work.
    """

    def __init__(self, cli, count: bool):
        self.first = None
        self.counts = {"energies": 0, "orders": 0, "wasted_orders": 0, "nudged": 0, "status": {}}
        self.entries: list = []
        self._count = count
        self._patches = []
        for name in SOLVER_ENTRIES:
            func = getattr(cli, name, None)
            if callable(func):
                setattr(cli, name, self._wrap(name, func))
                self._patches.append((cli, name, func))
                self.entries.append(f"cli.{name}")

    def _wrap(self, name, func):
        def entry(*args, **kwargs):
            if self.first is None:
                self.first = perf_counter()
            out = func(*args, **kwargs)
            if self._count and args:
                for requested, res in zip(args[0], out) if name == "scan" else [(args[0], out)]:
                    self._add(requested, res)
            return out

        return entry

    def _add(self, requested, res) -> None:
        counts = self.counts
        orders = getattr(res, "iterations", 0) + 1
        status = getattr(res, "status", "unknown")
        counts["energies"] += 1
        counts["orders"] += orders
        counts["status"][status] = counts["status"].get(status, 0) + 1
        if status == "max-iterations":
            counts["wasted_orders"] += orders
        if getattr(res, "energy", requested) != requested:
            counts["nudged"] += 1

    def restore(self) -> None:
        for owner, name, func in self._patches:
            setattr(owner, name, func)


def blas_threads():
    """Run-time thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def peak_rss_mb() -> float:
    """Peak resident set of this process since it started the pass script.

    VmHWM counts only this executable's memory; getrusage's ru_maxrss
    also counts the benchmark parent's peak, which a spawned child
    inherits on Linux.
    """
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv) -> int:
    plan_path, outdir, result_path = (Path(a) for a in argv[1:4])
    trace = "--trace" in argv[4:]
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import jmscatter.cli as cli

    t_import = perf_counter()
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    boundary = Boundary(cli, count=trace)
    plan = json.loads(plan_path.read_text(encoding="utf-8"))
    outdir.mkdir(parents=True, exist_ok=True)
    commands = []
    for run, cmd in enumerate(plan):
        argv_cmd = [cmd["verb"], "--config", cmd["config"],
                    "--output", str(outdir / f"{cmd['name']}.out"), *cmd["extra"]]
        if tracer is not None:
            tracer.run = run
        boundary.first = None
        error = None
        t_enter = perf_counter()
        try:
            code = cli.main(argv_cmd)
        except Exception as exc:  # a crash is a failed command, not a failed benchmark
            code, error = None, f"{type(exc).__name__}: {exc}"
        commands.append({
            "name": cmd["name"], "exit_code": code, "error": error,
            "setup_s": (boundary.first - t_enter) if boundary.first is not None else 0.0,
        })
    t_end = perf_counter()
    boundary.restore()
    if tracer is not None:
        tracer.restore()

    result = {
        "wall_s": t_end - T_START,
        "import_s": t_import - T_START,
        "setup_s": (t_import - T_START) + sum(c["setup_s"] for c in commands),
        "peak_rss_mb": peak_rss_mb(),
        "blas_threads": blas_threads(),
        "commands": commands,
        "solves": boundary.counts,
        "absent": sorted({f"cli.{name}" for name in SOLVER_ENTRIES} - set(boundary.entries)
                         | set(tracer.absent if tracer is not None else [])),
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["sizes"] = tracer.sizes
        result_path.with_suffix(".spans.json").write_text(json.dumps(tracer.spans), encoding="utf-8")
    result_path.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
