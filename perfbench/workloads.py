"""Seeded inputs for the benchmark workloads.

A workload is a list of CLI commands. `generate` writes their YAML
configs into a work directory and returns the plan: for each command its
verb, config, output file, extra flags and what the checker expects of
the output. The paper's own energies and grids are always present; the
seed only adds energies, grids and reconstruction points around them, so
the program sees nothing but the generated configs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import yaml

# Two workloads, one on each side of the R assembly. The host's speed
# drifts over minutes, so each run is long (BENCHMARK.json run_seconds),
# and the time limit on all runs allows runs that long for two workloads.
WORKLOADS = ("nonlinear", "linear")

GAUSS_WELL = {"kind": "power-exponential", "strength": 7.5, "power": 2.0, "decay": 1.0}
TRAPEZOID = {
    "kind": "piecewise-linear",
    "breakpoints": [0.0, 1.2, 3.0, 7.0],
    "values": [0.0, 2.4, 2.4, 0.0],
}

# Acceptance constants of the paper's tables (tests/test_acceptance.py):
# |1 - S| at convergence.
GAUSS_L0_CONVERGED = {2.40: 1.814162, 2.45: 1.838208, 2.50: 1.856844, 2.55: 1.894445, 2.60: 1.912217}
TRAPEZOID_CUBIC_CONVERGED = {
    1.0: 1.145541, 2.0: 1.944628, 3.0: 0.267753, 4.0: 1.999996,
    5.0: 1.410498, 6.0: 0.695971, 7.0: 0.048302,
}
TRAPEZOID_QUINTIC_CONVERGED = {1.0: 1.120633, 2.0: 1.951591, 5.0: 1.606543, 6.0: 0.909557, 7.0: 0.175036}
# E = 4 is judged at order 25 and E = 3 by its certified period-2 cycle,
# each with the acceptance test's own tolerance.
QUINTIC_E4_AT_25 = {4.0: [25, 1.945614, 2e-3]}
QUINTIC_E3_CYCLE = {3.0: [[1.730, 0.075], 5e-3]}

# Resonance positions of the linear scans (fig1: s-wave, fig2: p-wave).
S_WAVE_RESONANCE = [2.517, 0.01]
P_WAVE_RESONANCE = [4.11, 0.1]
# Guard level of the regular-solution reconstruction (tests/test_reference.py).
MAX_DEV_SIN = 2e-2

MAX_ITERATIONS = 50


def _config(potential, ell, coupling, energy_grid, *, n=1, basis_size=20, order=100) -> dict:
    return {
        "nonlinearity_n": n, "coupling_g": coupling, "ell": ell, "potential": potential,
        "lambda": 1.0, "basis_size_N": basis_size, "quadrature_order": order,
        "energy_grid": energy_grid, "max_iterations": MAX_ITERATIONS,
    }


def _energies(rng: random.Random, count: int, low: float, high: float) -> list:
    return [round(rng.uniform(low, high), 4) for _ in range(count)]


def _uniform_grid(rng: random.Random, points: int, start: float, width: float) -> dict:
    # A seeded offset moves every grid point; the point count stays fixed.
    step = width / (points - 1)
    first = round(start + rng.uniform(0.0, step), 6)
    return {"start": first, "stop": first + (points - 0.5) * step, "step": step}


def _command(verb, name, config, expect, extra=()) -> dict:
    return {"verb": verb, "name": name, "config": config, "extra": list(extra), "expect": expect}


def cubic_grid(rng: random.Random, paper_only: bool = False) -> list:
    """s-wave Gaussian well at g=0.001 and p-wave trapezoid at g=0.02, N=20, Q=100.

    Each energy runs up to 50 orders on small matrices: per-order cost (R
    assembly, resolvent, cycle logic, Python overhead) dominates.
    """
    s_extra = [] if paper_only else _energies(rng, 600, 1.0, 7.0)
    p_extra = [] if paper_only else _energies(rng, 200, 1.0, 7.0)
    return [
        _command("scan", "cubic-s", _config(GAUSS_WELL, 0, 0.001, {"list": list(GAUSS_L0_CONVERGED) + s_extra}),
                 {"converged": GAUSS_L0_CONVERGED}),
        _command("scan", "cubic-p", _config(TRAPEZOID, 1, 0.02, {"list": list(TRAPEZOID_CUBIC_CONVERGED) + p_extra}),
                 {"converged": TRAPEZOID_CUBIC_CONVERGED}),
    ]


def quintic_table(rng: random.Random) -> list:
    """n=2, ell=1, Q=30 trapezoid at g=0.02, below the exactness bound on purpose.

    The D tensor over 8855 canonical 4-tuples dominates set-up and each R
    assembly is large. `table` runs the table4 energies, with the E=3
    period-2 cycle; `scan` runs each of them moved by a seeded shift of at
    most 0.01, so the seed changes the inputs but not the amount of work
    (a uniform draw on [1, 7] costs 5 to 51 orders at 25 ms each).
    """
    paper = sorted({**TRAPEZOID_QUINTIC_CONVERGED, **QUINTIC_E4_AT_25, **QUINTIC_E3_CYCLE})
    shifted = [round(e + rng.uniform(-0.01, 0.01), 4) for e in paper]
    quintic = {"n": 2, "order": 30}
    override = ["--override-quadrature-bound"]
    return [
        _command("table", "quintic-table", _config(TRAPEZOID, 1, 0.02, {"list": paper}, **quintic),
                 {"converged": TRAPEZOID_QUINTIC_CONVERGED, "order": QUINTIC_E4_AT_25,
                  "cycle": QUINTIC_E3_CYCLE}, override),
        _command("scan", "quintic-scan", _config(TRAPEZOID, 1, 0.02, {"list": shifted}, **quintic), {}, override),
    ]


def linear_grid(rng: random.Random) -> list:
    """g=0 s- and p-wave Gaussian well: the paper's fig1/fig2 grids plus seeded fine grids.

    Takes the spectral resolvent path: reference recursions and CSV
    formatting, with no R assembly and no D tensor.
    """
    paper_grid = {"start": 0.5, "stop": 6.0, "step": 0.002}
    return [
        _command("scan", "linear-s-paper", _config(GAUSS_WELL, 0, 0.0, paper_grid), {"resonance": S_WAVE_RESONANCE}),
        _command("scan", "linear-p-paper", _config(GAUSS_WELL, 1, 0.0, paper_grid), {"resonance": P_WAVE_RESONANCE}),
        _command("scan", "linear-s-seeded", _config(GAUSS_WELL, 0, 0.0, _uniform_grid(rng, 5501, 0.5, 5.5)),
                 {"resonance": S_WAVE_RESONANCE}),
        _command("scan", "linear-p-seeded", _config(GAUSS_WELL, 1, 0.0, _uniform_grid(rng, 5501, 0.5, 5.5)),
                 {"resonance": P_WAVE_RESONANCE}),
    ]


def basis_checks(rng: random.Random) -> list:
    """basis-check in both bases at N=3000, at a seeded ell and energy each.

    The only commands that run chi_reconstruct.
    """
    commands = []
    for k in range(12):
        ell = rng.randrange(4)
        energy = round(rng.uniform(0.5, 3.0), 4)
        config = {
            "ell": ell, "lambda": 1.0, "basis_size_N": 3000, "basis_check": "both",
            "energy_grid": {"list": [energy]},
            "r_grid": {"start": 0.05, "stop": 25.0, "count": 500},
        }
        commands.append(_command("basis-check", f"basis-{k:02d}", config, {"max_dev_sin": MAX_DEV_SIN}))
    return commands


def stability_scan() -> list:
    """stability-scan over the default (lambda, N) grid on the s-wave cubic config.

    The only command that runs f_weight_quadrature, and that rebuilds the
    rule, Hamiltonian and D tensor at every sweep point.
    """
    table1 = _config(GAUSS_WELL, 0, 0.001, {"list": list(GAUSS_L0_CONVERGED)})
    return [_command("stability-scan", "stability", table1, {"plateau": [1.0, 20]})]


def nonlinear(rng: random.Random) -> list:
    """Every command that assembles R: cubic scans, the quintic table and the stability sweep.

    Cubic and quintic are the two ends of the R cost (small tensor and many
    orders against a large tensor and few orders); the layer split tells
    them apart.
    """
    return cubic_grid(rng) + quintic_table(rng) + stability_scan()


def linear(rng: random.Random) -> list:
    """Every command that bypasses R and the D tensor: linear grids and basis checks."""
    return linear_grid(rng) + basis_checks(rng)


_GENERATORS = {"nonlinear": nonlinear, "linear": linear}


def write_plan(commands: list, workdir: Path) -> Path:
    """Write each command's YAML config and the plan file into `workdir`."""
    workdir.mkdir(parents=True, exist_ok=True)
    plan = []
    for cmd in commands:
        config_path = workdir / f"{cmd['name']}.yaml"
        config_path.write_text(yaml.safe_dump(cmd["config"], sort_keys=False), encoding="utf-8")
        plan.append({
            "verb": cmd["verb"], "name": cmd["name"], "config": str(config_path),
            "extra": cmd["extra"], "max_iterations": cmd["config"].get("max_iterations", MAX_ITERATIONS),
            "expect": cmd["expect"],
        })
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=1), encoding="utf-8")
    return plan_path


def generate(workload: str, seed: int, workdir: Path) -> Path:
    """Write the workload's configs for `seed`; returns the plan path."""
    return write_plan(_GENERATORS[workload](random.Random(f"{workload}:{seed}")), workdir)


def generate_probe(workdir: Path) -> Path:
    """The cubic scans at the paper energies only, for the BLAS probe."""
    return write_plan(cubic_grid(random.Random(0), paper_only=True), workdir)
