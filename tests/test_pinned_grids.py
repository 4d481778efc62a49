"""The 501-energy cubic and quintic grids, pinned energy by energy.

`pinned_grids.json` holds, per energy of table3 and of table4 (run below
its quadrature exactness bound, as the config asks) at E = 1.00..6.00
step 0.01, the status, cycle period, iteration count and final S (as
[re, im]). The first three must match exactly and S within 1e-12, so a
change of route that ends any iteration differently fails here.

Re-record (only for an intended change of the numbers) with
`PYTHONPATH=src python tests/test_pinned_grids.py`.
"""

import json
from dataclasses import replace
from importlib.resources import files
from pathlib import Path

import pytest

from jmscatter.cli import _problem_rule, _solve, load_config

PINNED = Path(__file__).parent / "pinned_grids.json"
CONFIGS = ("table3", "table4")
ENERGIES = [k / 100 for k in range(100, 601)]
S_ATOL = 1e-12


def solve_grid(config: str) -> list:
    cfg = load_config(str(files("jmscatter") / "configs" / f"{config}.yaml"))
    return _solve(replace(cfg, energies=tuple(ENERGIES)), _problem_rule(cfg), override=True)[2]


@pytest.mark.parametrize("config", CONFIGS)
def test_grid_matches_pinned(config):
    rows = json.loads(PINNED.read_text(encoding="utf-8"))[config]
    results = solve_grid(config)
    assert len(rows) == len(results) == len(ENERGIES)
    for energy, row, res in zip(ENERGIES, rows, results):
        assert (res.energy, res.status, res.period, res.iterations) == (
            energy, row["status"], row["period"], row["iterations"]
        )
        assert abs(res.s_matrix - complex(*row["s"])) <= S_ATOL


if __name__ == "__main__":
    pinned = {
        config: [
            {"status": res.status, "period": res.period, "iterations": res.iterations,
             "s": [res.s_matrix.real, res.s_matrix.imag]}
            for res in solve_grid(config)
        ]
        for config in CONFIGS
    }
    PINNED.write_text(json.dumps(pinned, indent=1) + "\n", encoding="utf-8")
