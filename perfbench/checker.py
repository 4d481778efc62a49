"""Checks of the CLI outputs, from the outputs alone.

No golden files: a later commit that fixes the energy nudge, the period-3
CSV columns or the reconstruction filter must still pass. An item is a
command (its exit code and the checks on its output as a whole), an
energy row of a scan, an energy column of a table, a stability-sweep
row or a reconstruction block; an item fails when any check on it fails.
"""

from __future__ import annotations

import csv
import math
import re
from pathlib import Path

import yaml

STATUSES = ("converged", "bifurcated", "max-iterations")
# Rows at the paper's energies match the acceptance constants within this.
PAPER_TOL = 1e-3
# |S| from re_S and im_S printed to 6 decimals: each carries up to 5e-7.
UNIMODULAR_TOL = 1.5e-6
# Reported energies may be nudged by a relative 1e-6 and are printed to 6 decimals.
ENERGY_TOL = 1e-5


class Outcome:
    """Items checked in one command's output and the problems found."""

    def __init__(self):
        self.attempted = 0
        self.failures: dict = {}
        self.energies = 0
        self.orders = 0

    def item(self, key: str, problems=()) -> None:
        self.attempted += 1
        for problem in problems:
            self.fail(key, problem)

    def fail(self, key: str, problem: str) -> None:
        self.failures.setdefault(key, problem)

    @property
    def failed(self) -> int:
        return len(self.failures)


def _keyed(mapping: dict) -> dict:
    return {float(k): v for k, v in mapping.items()}


def _near(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= tol


def _paper_problems(energy: float, status: str, final: float, cycle: list, expect: dict) -> list:
    problems = []
    target = _keyed(expect.get("converged", {})).get(energy)
    if target is not None and not (status == "converged" and _near(final, target, PAPER_TOL)):
        problems.append(f"E={energy}: {status} |1-S|={final}, paper {target}")
    spec = _keyed(expect.get("cycle", {})).get(energy)
    if spec is not None:
        values, cycle_tol = spec
        if status != "bifurcated" or len(cycle) < len(values) or not all(
            _near(got, want, cycle_tol) for got, want in zip(cycle, values)
        ):
            problems.append(f"E={energy}: {status} cycle {cycle}, paper {values}")
    return problems


def check_scan(text: str, cmd: dict, energies, out: Outcome) -> None:
    rows = list(csv.DictReader(text.splitlines()))
    cap = cmd["max_iterations"]
    if len(rows) != len(energies):
        out.fail("command", f"{len(rows)} rows for {len(energies)} energies")
    found_e, found_s = [], []
    for i, (row, requested) in enumerate(zip(rows, energies)):
        problems = []
        try:
            energy = float(row["E"])
            iterations = int(row["iterations"])
            s = complex(float(row["re_S"]), float(row["im_S"]))
            final = float(row["abs_one_minus_S"])
            cycle = [float(v) for k, v in row.items() if k and k.startswith("bif_value") and v]
        except (KeyError, TypeError, ValueError) as exc:
            out.item(f"row {i}", [f"unreadable row: {exc}"])
            continue
        status = row["status"]
        if abs(energy - requested) > ENERGY_TOL * max(1.0, requested):
            problems.append(f"E={energy} for requested {requested}")
        if not abs(abs(s) - 1.0) <= UNIMODULAR_TOL:
            problems.append(f"E={energy}: |S| = {abs(s)!r}")
        if status not in STATUSES:
            problems.append(f"E={energy}: status {status!r}")
        if not 0 <= iterations <= cap:
            problems.append(f"E={energy}: {iterations} iterations, cap {cap}")
        if status == "bifurcated" and len(cycle) < 2:
            problems.append(f"E={energy}: bifurcated without cycle values")
        problems += _paper_problems(requested, status, final, cycle, cmd["expect"])
        out.item(f"row {i}", problems)
        out.energies += 1
        out.orders += max(iterations, 0) + 1
        found_e.append(energy)
        found_s.append(s)
    if "resonance" in cmd["expect"]:
        target, res_tol = cmd["expect"]["resonance"]
        peak = resonance(found_e, found_s)
        if not _near(peak, target, res_tol):
            out.fail("command", f"resonance at {peak}, expected {target} +- {res_tol}")


def resonance(energies, s_values) -> float:
    """Energy of the peak of |d delta / dE| at interior grid points, delta = arg(S) / 2."""
    import numpy as np  # imported late: the benchmark parent loads BLAS only after unpinning

    if len(energies) < 3:
        return math.nan
    e = np.asarray(energies, dtype=float)
    delta = 0.5 * np.unwrap(np.angle(np.asarray(s_values, dtype=complex)))
    slope = np.abs(np.gradient(delta, e))
    return float(e[1 + int(np.argmax(slope[1:-1]))])


_FOOTNOTE = re.compile(r"^# E=([^:]+): ([\w-]+)(.*)$")


def check_table(text: str, cmd: dict, energies, out: Outcome) -> None:
    lines = text.splitlines()
    header = lines[0].split("\t") if lines else []
    columns = [float(h[2:]) for h in header[1:] if h.startswith("E=")]
    if len(columns) != len(energies) or any(abs(c - e) > ENERGY_TOL * max(1.0, e) for c, e in zip(columns, energies)):
        out.fail("command", f"table columns {columns} for energies {list(energies)}")
    history = {c: [] for c in range(len(columns))}
    notes = {}
    for line in lines[1:]:
        match = _FOOTNOTE.match(line)
        if match:
            notes[float(match.group(1))] = (match.group(2), match.group(3))
            continue
        if line.startswith("#"):
            continue
        cells = line.split("\t")[1:]
        for c, cell in enumerate(cells[: len(columns)]):
            if cell:
                history[c].append(float(cell))
    cap = cmd["max_iterations"]
    for c, energy in enumerate(columns):
        values = history[c]
        status, rest = notes.get(energy, ("converged", ""))
        cycle = [float(v) for v in re.findall(r"[-+]?\d+\.\d+", rest.split("cycle values", 1)[1])] \
            if "cycle values" in rest else []
        problems = []
        if not values:
            problems.append(f"E={energy}: empty column")
        if status not in STATUSES:
            problems.append(f"E={energy}: status {status!r}")
        if len(values) > cap + 1:
            problems.append(f"E={energy}: {len(values) - 1} iterations, cap {cap}")
        if status == "bifurcated" and len(cycle) < 2:
            problems.append(f"E={energy}: bifurcated without cycle values")
        final = values[-1] if values else math.nan
        problems += _paper_problems(energy, status, final, cycle, cmd["expect"])
        spec = _keyed(cmd["expect"].get("order", {})).get(energy)
        if spec is not None and values:
            order, target, order_tol = spec
            got = values[min(order, len(values) - 1)]
            if not _near(got, target, order_tol):
                problems.append(f"E={energy}: |1-S| at order {order} = {got}, paper {target}")
        out.item(f"column {c}", problems)
        out.energies += 1
        out.orders += len(values)


def check_basis(text: str, cmd: dict, out: Outcome) -> None:
    blocks = text.split("# basis = ")[1:]
    if not blocks:
        out.fail("command", "no reconstruction block")
    limit = cmd["expect"]["max_dev_sin"]
    for b, block in enumerate(blocks):
        match = re.search(r"^# max_dev_sin = (\S+)$", block, re.MULTILINE)
        dev = float(match.group(1)) if match else math.nan
        rows = [line for line in block.splitlines()[2:] if line and not line.startswith("#")]
        problems = []
        if not dev <= limit:
            problems.append(f"block {b}: max_dev_sin {dev} over {limit}")
        if not rows:
            problems.append(f"block {b}: no r rows")
        out.item(f"block {b}", problems)


def check_stability(text: str, cmd: dict, out: Outcome) -> None:
    rows = list(csv.DictReader(text.splitlines()))
    lam, n_basis = cmd["expect"]["plateau"]
    flagged = False
    for i, row in enumerate(rows):
        try:
            dist = float(row["abs_one_minus_S"])
            plateau = int(row["plateau"])
            here = (float(row["lam"]), int(row["N"])) == (float(lam), int(n_basis))
        except (KeyError, TypeError, ValueError) as exc:
            out.item(f"row {i}", [f"unreadable row: {exc}"])
            continue
        problems = []
        if not 0.0 <= dist <= 2.0 + UNIMODULAR_TOL:
            problems.append(f"row {i}: |1-S| = {dist}")
        if plateau not in (0, 1):
            problems.append(f"row {i}: plateau flag {plateau}")
        flagged |= here and plateau == 1
        out.item(f"row {i}", problems)
        out.energies += 1
        # The sweep CSV carries no iteration count: each sweep point counts as one order.
        out.orders += 1
    if not flagged:
        out.fail("command", f"(lambda, N) = ({lam}, {n_basis}) not flagged on the plateau")


def check_command(cmd: dict, exit_code, output: Path) -> Outcome:
    """Check one command's exit code and output file against its plan entry."""
    out = Outcome()
    out.item("command", [] if exit_code == 0 else [f"exit code {exit_code}"])
    if exit_code != 0 or not output.is_file():
        out.fail("command", "no output")
        return out
    text = output.read_text(encoding="utf-8")
    verb = cmd["verb"]
    try:
        if verb == "scan":
            check_scan(text, cmd, requested_energies(cmd), out)
        elif verb == "table":
            check_table(text, cmd, requested_energies(cmd), out)
        elif verb == "basis-check":
            check_basis(text, cmd, out)
        else:
            check_stability(text, cmd, out)
    except (IndexError, KeyError, ValueError) as exc:
        out.fail("command", f"unreadable output: {exc!r}")
    return out


def requested_energies(cmd: dict) -> list:
    """The energies a scan or table command was asked for, from its config."""
    grid = yaml.safe_load(Path(cmd["config"]).read_text(encoding="utf-8"))["energy_grid"]
    if "list" in grid:
        return [float(e) for e in grid["list"]]
    count = int(math.floor((grid["stop"] - grid["start"]) / grid["step"] + 1e-9)) + 1
    return [grid["start"] + i * grid["step"] for i in range(count)]
