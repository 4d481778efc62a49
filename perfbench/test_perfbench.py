"""Self-tests of the benchmark: generator, output checker, layer wrappers, metric names."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import checker  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _generated(workload, seed, workdir):
    plan_path = workloads.generate(workload, seed, workdir)
    files = {p.name: p.read_text(encoding="utf-8") for p in sorted(workdir.iterdir())}
    files[plan_path.name] = files[plan_path.name].replace(str(workdir), "<dir>")
    return files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(tmp_path, workload):
    first = _generated(workload, 7, tmp_path / "a")
    assert first == _generated(workload, 7, tmp_path / "b")
    assert first != _generated(workload, 8, tmp_path / "c")


def test_generator_keeps_the_paper_inputs(tmp_path):
    plan = json.loads(workloads.generate("nonlinear", 3, tmp_path).read_text(encoding="utf-8"))
    commands = {cmd["name"]: cmd for cmd in plan}
    table, shifted = commands["quintic-table"], commands["quintic-scan"]
    assert checker.requested_energies(table) == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    assert all(abs(e - k) <= 0.01 for e, k in zip(checker.requested_energies(shifted), range(1, 8)))
    assert table["expect"]["cycle"] == {"3.0": [[1.730, 0.075], 5e-3]}
    assert commands["stability"]["verb"] == "stability-scan" and commands["stability"]["extra"] == []
    linear = json.loads(workloads.generate("linear", 3, tmp_path / "b").read_text(encoding="utf-8"))
    assert {cmd["verb"] for cmd in linear} == {"scan", "basis-check"}


HEADER = "E,status,iterations,abs_one_minus_S,re_S,im_S,bif_value_a,bif_value_b\n"
ROWS = [
    "1.000000,converged,5,1.120633,0.372091,0.928196,,\n",
    "3.000000,bifurcated,50,1.700000,-0.445000,0.895531,1.730000,0.075000\n",
]


def _scan_output(tmp_path, rows):
    config = tmp_path / "c.yaml"
    config.write_text("energy_grid:\n  list: [1.0, 3.0]\n", encoding="utf-8")
    output = tmp_path / "scan.out"
    output.write_text(HEADER + "".join(rows), encoding="utf-8")
    cmd = {"verb": "scan", "config": str(config), "max_iterations": 50,
           "expect": {"converged": {"1.0": 1.120633}, "cycle": {"3.0": [[1.730, 0.075], 5e-3]}}}
    return checker.check_command(cmd, 0, output)


def test_checker_passes_a_sound_output(tmp_path):
    outcome = _scan_output(tmp_path, ROWS)
    assert (outcome.attempted, outcome.failed) == (3, 0)
    assert (outcome.energies, outcome.orders) == (2, 57)


@pytest.mark.parametrize("doctored", [
    ROWS[0].replace("converged", "diverged"),      # a flipped status
    ROWS[0].replace("0.928196", "0.938196"),       # |S| != 1
    ROWS[1].replace("0.075000", ""),               # a missing cycle value
    ROWS[1].replace("bifurcated", "converged"),    # the paper's cycle lost
])
def test_checker_fails_a_doctored_output(tmp_path, doctored):
    rows = [doctored if doctored.startswith(row[:8]) else row for row in ROWS]
    assert _scan_output(tmp_path, rows).failed == 1


def test_checker_fails_a_failed_command(tmp_path):
    assert checker.check_command({"verb": "scan"}, 3, tmp_path / "missing.out").failed == 1


def test_wrappers_restore_the_originals_and_report_absent_names():
    import jmscatter.cli
    import jmscatter.quadrature

    original = jmscatter.quadrature.build_rule
    tracer = spans.Tracer(layers=spans.LAYERS + (("solver", "no_such_function"), ("no_such_module", "f")))
    tracer.install()
    try:
        assert jmscatter.cli.build_rule is not original
        assert jmscatter.cli.build_rule is jmscatter.quadrature.build_rule
        jmscatter.cli.build_rule(8, 0)
    finally:
        tracer.restore()
    assert jmscatter.cli.build_rule is original and jmscatter.quadrature.build_rule is original
    assert tracer.absent == ["solver.no_such_function", "no_such_module.f"]
    summary = tracer.summary()
    assert summary["quadrature.build_rule"]["calls"] == 1
    assert summary["quadrature.build_rule"]["self_s"] > 0


def test_benchmark_json_names_the_metrics_the_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS
    one = {"wall_s": 2.0, "setup_s": 1.0, "energies": 4, "orders": 8, "peak_rss_mb": 50.0,
           "layers": {}, "sizes": {}, "solves": {"orders": 0, "status": {}, "nudged": 0, "wasted_orders": 0}}
    probes = {"blas_pinned": one, "blas_default": one}
    assert set(run.end_to_end([run.pass_end_to_end(one)], 1.0)) == {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert set(run.per_layer([one], [one], probes)) == per_layer
    predictions = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["predictions"]
    cited = {prefix for row in predictions for prefix in row["prefix"]}
    assert all(name in cited or name.rsplit(".", 1)[0] in cited for name in per_layer)
