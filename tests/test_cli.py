"""Configuration loading, command output formats, and exit codes."""

import math
import pickle
import re
import time
from dataclasses import FrozenInstanceError, fields, replace
from importlib.resources import files

import numpy as np
import pytest
import yaml

from jmscatter import cli, hamiltonian, solver
from jmscatter.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    ConfigError,
    _solve,
    load_config,
    main,
    stability_rows,
)
from jmscatter.hamiltonian import PiecewiseLinearPotential
from jmscatter.linearize import quadrature_bound
from jmscatter.quadrature import build_rule

CONFIG_DIR = files("jmscatter") / "configs"
SOLVING_VERBS = ("scan", "table", "stability-scan")


def write_config(tmp_path, mapping, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(mapping), encoding="utf-8")
    return str(path)


def minimal(**extra):
    base = {
        "basis_size_N": 8,
        "lambda": 1.0,
        "quadrature_order": 20,
        "energy_grid": {"list": [1.0, 1.2]},
        "potential": {
            "kind": "power-exponential", "strength": 7.5, "power": 2.0, "decay": 1.0,
        },
    }
    base.update(extra)
    return base


class TestLoadConfig:
    def test_bundled_configs_all_parse(self):
        names = sorted(p.name for p in CONFIG_DIR.iterdir() if p.name.endswith(".yaml"))
        assert len(names) == 8
        for name in names:
            cfg = load_config(str(CONFIG_DIR / name))
            assert cfg.basis_size_n >= 2

    def test_c_and_pure_python_loaders_agree(self, tmp_path, monkeypatch):
        # load_config parses with libyaml's CSafeLoader where PyYAML has it;
        # the pure-Python SafeLoader must read every config to the same RunConfig
        energies = np.round(np.random.default_rng(5).uniform(0.5, 7.0, 600), 6).tolist()
        paths = [str(p) for p in sorted(CONFIG_DIR.iterdir(), key=lambda p: p.name) if p.name.endswith(".yaml")]
        paths.append(write_config(tmp_path, minimal(energy_grid={"list": energies})))
        loaded = [load_config(path) for path in paths]
        assert loaded[-1].energies == tuple(energies)
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        assert [load_config(path) for path in paths] == loaded

    @pytest.mark.parametrize("loader", ["CSafeLoader", "SafeLoader"])
    def test_malformed_yaml_is_a_config_error(self, tmp_path, monkeypatch, loader):
        if loader == "SafeLoader":
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        path = tmp_path / "broken.yaml"
        path.write_text("basis_size_N: 8\nenergy_grid: {list: [1.0, 1.2\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="cannot parse config"):
            load_config(str(path))

    def test_trapezoid_run_fields(self):
        cfg = load_config(str(CONFIG_DIR / "table3.yaml"))
        assert cfg.ell == 1
        assert cfg.nonlinearity_n == 1
        assert cfg.coupling_g == pytest.approx(0.02)
        assert cfg.energies == tuple(float(e) for e in range(1, 8))
        assert isinstance(cfg.potential, PiecewiseLinearPotential)

    def test_run_config_is_generated_from_the_top_keys(self):
        # RunConfig's fields are _TOP_KEYS' field column, in order, and the record
        # stays a frozen, picklable dataclass of this module
        cfg = load_config(str(CONFIG_DIR / "table3.yaml"))
        assert [f.name for f in fields(cfg)] == [field for field, _, _ in cli._TOP_KEYS.values()]
        with pytest.raises(FrozenInstanceError):
            cfg.lam = 0.8
        moved = replace(cfg, lam=0.8)
        assert moved.lam == 0.8 and moved != cfg and replace(moved, lam=cfg.lam) == cfg
        assert cli.RunConfig.__module__ == "jmscatter.cli"
        assert pickle.loads(pickle.dumps(cfg)) == cfg

    def test_unknown_top_key(self, tmp_path):
        path = write_config(tmp_path, minimal(turbo=True))
        with pytest.raises(ConfigError, match="turbo"):
            load_config(path)

    def test_unknown_potential_key(self, tmp_path):
        cfg = minimal()
        cfg["potential"]["range"] = 2.0
        with pytest.raises(ConfigError, match="range"):
            load_config(write_config(tmp_path, cfg))

    def test_tabulated_validation(self, tmp_path):
        for r, v in (([0.0, 1.0], [1.0]), ([1.0, 2.0], [0.0, 1.0])):
            cfg = minimal(potential={"kind": "tabulated", "r": r, "v": v})
            with pytest.raises(ConfigError):
                load_config(write_config(tmp_path, cfg))

    def test_unknown_potential_kind(self, tmp_path):
        cfg = minimal()
        cfg["potential"] = {"kind": "coulomb", "strength": 1.0}
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, cfg))

    @pytest.mark.parametrize("missing", ["basis_size_N", "lambda", "energy_grid", "values"])
    def test_missing_required_key(self, tmp_path, missing):
        cfg = minimal()
        if missing == "values":  # a piecewise-linear potential needs both of its lists
            cfg["potential"] = {"kind": "piecewise-linear", "breakpoints": [0.0, 7.0]}
        else:
            del cfg[missing]
        with pytest.raises(ConfigError, match=missing):
            load_config(write_config(tmp_path, cfg))

    def test_step_grid_expansion(self, tmp_path):
        cfg = minimal(energy_grid={"start": 1.0, "stop": 2.0, "step": 0.25})
        loaded = load_config(write_config(tmp_path, cfg))
        assert loaded.energies == pytest.approx((1.0, 1.25, 1.5, 1.75, 2.0))

    def test_step_grid_unaligned_stop(self, tmp_path):
        cfg = minimal(energy_grid={"start": 1.0, "stop": 1.9, "step": 0.25})
        loaded = load_config(write_config(tmp_path, cfg))
        assert loaded.energies == pytest.approx((1.0, 1.25, 1.5, 1.75))

    @pytest.mark.parametrize(
        "grid",
        [
            {"list": [0.0, 1.0]},
            {"list": [-1.0]},
            {"start": 0.0, "stop": 1.0, "step": 0.5},
            {"start": 2.0, "stop": 1.0, "step": 0.5},
            {"start": 1.0, "stop": 2.0, "step": -0.5},
            {"list": ["a"]},
            {"list": [1.0, float("nan")]},
            {"start": 1.0, "stop": float("inf"), "step": 0.5},
            # one point over the bound: refused before the tuple is built
            {"start": 1.0, "stop": 2.0, "step": 1e-6},
        ],
    )
    def test_bad_energy_grids(self, tmp_path, grid):
        with pytest.raises(ConfigError, match="energy_grid"):
            load_config(write_config(tmp_path, minimal(energy_grid=grid)))

    @pytest.mark.parametrize(
        "grid",
        [
            {"start": 0.0, "stop": 25.0, "count": 1},
            {"start": 5.0, "stop": 5.0, "count": 10},
            {"start": -1.0, "stop": 5.0, "count": 10},
            {"start": 0.0, "stop": 25.0, "count": 10, "spacing": "log"},
            {"start": 0.0, "stop": 25.0, "count": 10.0},
            {"start": 0.0, "stop": float("nan"), "count": 10},
            {"start": 0.0, "stop": 25.0, "count": 1_000_001},
        ],
    )
    def test_bad_r_grids(self, tmp_path, grid):
        with pytest.raises(ConfigError, match="r_grid"):
            load_config(write_config(tmp_path, minimal(r_grid=grid)))

    def test_quadrature_order_default_meets_bound(self, tmp_path):
        cfg = minimal(nonlinearity_n=2)
        del cfg["quadrature_order"]
        loaded = load_config(write_config(tmp_path, cfg))
        assert loaded.quadrature_order == quadrature_bound(2, 8)

    @pytest.mark.parametrize(
        "bad,message",
        [
            ({"nonlinearity_n": 0}, "'nonlinearity_n' in config must be an integer >= 1"),
            ({"ell": -1}, "'ell' in config must be an integer >= 0"),
            ({"basis_size_N": 1}, "'basis_size_N' in config must be an integer >= 2"),
            ({"lambda": 0.0}, "'lambda' in config must be a positive finite number"),
            ({"quadrature_order": 4}, "'quadrature_order' in config must be an integer >= basis_size_N"),
            ({"basis_size_N": 30, "quadrature_order": 29}, "'quadrature_order' in config must be an integer >= basis_size_N"),
            ({"max_iterations": 0}, "'max_iterations' in config must be an integer >= 1"),
            ({"tolerance": 0.0}, "'tolerance' in config must be a positive finite number"),
            ({"basis_check": "chebyshev"}, "'basis_check' in config must be one of oscillator, laguerre, both"),
            ({"nonlinearity_n": 1.5}, "'nonlinearity_n' in config must be an integer >= 1"),
            ({"nonlinearity_n": True}, "'nonlinearity_n' in config must be an integer >= 1"),
            ({"quadrature_order": 20.0}, "'quadrature_order' in config must be an integer$"),
            ({"basis_size_N": "8"}, "'basis_size_N' in config must be an integer >= 2"),
            ({"lambda": float("nan")}, "'lambda' in config must be a positive finite number"),
            ({"coupling_g": float("inf")}, "'coupling_g' in config must be a finite number"),
            ({"tolerance": float("nan")}, "'tolerance' in config must be a positive finite number"),
            ({"bifurcation_tolerance": float("-inf")}, "'bifurcation_tolerance' in config must be a positive finite number"),
        ],
    )
    def test_bad_scalars(self, tmp_path, bad, message):
        # each refusal names its key and the bound it broke
        with pytest.raises(ConfigError, match=f"^key {message}"):
            load_config(write_config(tmp_path, minimal(**bad)))

    @pytest.mark.parametrize(
        "key,potential",
        [
            ("strength", {
                "kind": "power-exponential", "strength": float("nan"), "power": 2.0, "decay": 1.0,
            }),
            ("breakpoints", {
                "kind": "piecewise-linear", "breakpoints": [0.0, float("inf")], "values": [1.0, 0.0],
            }),
            ("v", {"kind": "tabulated", "r": [0.0, 1.0], "v": [float("nan"), 0.0]}),
        ],
    )
    def test_non_finite_potential_values(self, tmp_path, key, potential):
        with pytest.raises(ConfigError, match=f"'{key}' in potential must be"):
            load_config(write_config(tmp_path, minimal(potential=potential)))


class TestMain:
    def test_missing_config_file(self, capsys):
        code = main(["scan", "--config", "/nonexistent/run.yaml"])
        assert code == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_bound_violation_points_at_flag(self, tmp_path, capsys):
        out = tmp_path / "t4.csv"
        code = main([
            "scan", "--config", str(CONFIG_DIR / "table4.yaml"), "--output", str(out),
        ])
        assert code == EXIT_CONFIG
        assert "--override-quadrature-bound" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["scan", "table", "stability-scan"])
    def test_missing_potential_is_a_config_error(self, tmp_path, capsys, verb):
        mapping = minimal()
        del mapping["potential"]
        # the default --n-grid (10, 20, 30) exceeds minimal()'s quadrature_order 20
        argv = [verb, "--config", write_config(tmp_path, mapping)] + (["--n-grid", "8"] if verb == "stability-scan" else [])
        assert main(argv) == EXIT_CONFIG
        assert "requires a 'potential'" in capsys.readouterr().err

    @pytest.mark.parametrize("verb,flag", [
        ("basis-check", "--override-quadrature-bound"),
        ("scan", "--threads=2"),
    ])
    def test_unread_flags_are_rejected(self, tmp_path, verb, flag):
        path = write_config(tmp_path, minimal())
        with pytest.raises(SystemExit) as exc:
            main([verb, "--config", path, flag])
        assert exc.value.code == EXIT_CONFIG

    @pytest.mark.parametrize("flag,value", [
        ("--lambda-grid", "1.0,nan"),
        ("--lambda-grid", "inf"),
        ("--drift-threshold", "nan"),
        ("--drift-threshold", "-inf"),
    ])
    def test_non_finite_stability_flags(self, tmp_path, capsys, flag, value):
        path = write_config(tmp_path, minimal())
        assert main(["stability-scan", "--config", path, f"{flag}={value}"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error" in err and flag in err

    @pytest.mark.parametrize("flag,value", [
        ("--n-grid", "-5"),
        ("--n-grid", "0"),
        ("--n-grid", "1"),
        ("--n-grid", "8,21"),
        ("--n-grid", "200"),
        ("--lambda-grid", "0"),
        ("--lambda-grid", "1.0,-0.5"),
        ("--n-grid", ""),
        ("--lambda-grid", ""),
        ("--drift-threshold", "-1"),
        ("--drift-threshold", "0"),
    ])
    def test_out_of_range_stability_flags(self, tmp_path, capsys, flag, value):
        # minimal() has quadrature_order 20, the largest basis size --n-grid may ask for
        path = write_config(tmp_path, minimal())
        argv = ["stability-scan", "--config", path, "--lambda-grid", "1.0", "--n-grid", "8"]
        assert main([*argv, f"{flag}={value}"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error" in err and flag in err

    @pytest.mark.parametrize("override", [[], ["--override-quadrature-bound"]])
    def test_default_n_grid_is_bounded_before_any_solve(self, tmp_path, capsys, monkeypatch, override):
        # the default --n-grid (10, 20, 30) meets the quadrature_order bound like a given grid
        calls, original = [], cli.scan
        monkeypatch.setattr(cli, "scan", lambda *a, **k: calls.append(a) or original(*a, **k))
        path = write_config(tmp_path, minimal())
        assert main(["stability-scan", "--config", path, *override]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "configuration error: bad --n-grid list '10,20,30': values must be finite, above 1 and at most 20\n"
        assert calls == []

    def test_stability_flag_range_ends_are_accepted(self, tmp_path):
        path = write_config(tmp_path, minimal())
        argv = ["stability-scan", "--config", path, "--output", str(tmp_path / "stab.csv")]
        assert main([*argv, "--lambda-grid", "0.5,1.0", "--n-grid", "2,20", "--drift-threshold", "1e-300"]) == EXIT_OK

    @pytest.mark.parametrize("argv", [
        ["scan", "--config", str(CONFIG_DIR / "table4.yaml")],
        ["stability-scan", "--config", str(CONFIG_DIR / "table1.yaml"), "--drift-threshold=nan"],
    ])
    def test_refused_run_keeps_existing_output(self, tmp_path, argv):
        out = tmp_path / "out.csv"
        out.write_bytes(b"earlier result\n")
        assert main([*argv, "--output", str(out)]) == EXIT_CONFIG
        assert out.read_bytes() == b"earlier result\n"

    @pytest.mark.parametrize("verb", ["scan", "table", "stability-scan"])
    def test_solves_enter_through_the_cli_solver_names(self, tmp_path, monkeypatch, verb):
        # perfbench/onepass.py ends a command's set-up at its first call of cli.scan:
        # a verb that solved around it would time its solves as set-up
        inside, outside, original = [0], [], cli.scan

        def counted(*args, **kwargs):
            inside[0] += 1
            try:
                return original(*args, **kwargs)
            finally:
                inside[0] -= 1

        monkeypatch.setattr(cli, "scan", counted)
        reference = solver.oscillator_reference
        monkeypatch.setattr(solver, "oscillator_reference", lambda *a: outside.append(not inside[0]) or reference(*a))
        argv = [verb, "--config", write_config(tmp_path, minimal(coupling_g=0.001)), "--output", str(tmp_path / "out")]
        if verb == "stability-scan":
            argv += ["--lambda-grid", "0.8,1.0", "--n-grid", "8"]
        assert main(argv) == EXIT_OK
        # every solve's reference coefficients are formed inside a cli.scan call
        assert outside and not any(outside)

    @pytest.mark.parametrize("verb", SOLVING_VERBS)
    def test_every_solve_gets_the_config_solver_options(self, tmp_path, monkeypatch, verb):
        options = {"coupling_g": 0.002, "tolerance": 1e-6, "bifurcation_tolerance": 1e-2, "max_iterations": 7}
        calls, original = [], cli.scan
        monkeypatch.setattr(cli, "scan", lambda *a, **k: calls.append(k) or original(*a, **k))
        argv = [verb, "--config", write_config(tmp_path, minimal(**options)), "--output", str(tmp_path / "out")]
        if verb == "stability-scan":
            argv += ["--lambda-grid", "0.8,1.0", "--n-grid", "6,8"]
        assert main(argv) == EXIT_OK
        assert len(calls) == (4 if verb == "stability-scan" else 1)
        want = {"coupling": 0.002, "tolerance": 1e-6, "bifurcation_tolerance": 1e-2, "max_iterations": 7}
        assert all(kwargs == want for kwargs in calls)

    @pytest.mark.parametrize("sizes,message", [
        ({"quadrature_order": 1_000_000}, "quadrature_order must be at most 2000 for this command, got 1000000"),
        # with no quadrature_order given, the exactness bound, 1999999 at N = 10^6
        ({"basis_size_N": 1_000_000}, "quadrature_order must be at most 2000 for this command, got 1999999"),
        ({"basis_size_N": 1_000_001}, "'basis_size_N' in config must be at most 1000000"),
    ])
    def test_oversized_sizes_are_refused_before_anything_is_built(self, tmp_path, capsys, monkeypatch, sizes, message):
        monkeypatch.setattr(cli, "build_rule", lambda *a: pytest.fail("a rule was built"))
        mapping = minimal(**sizes)
        if "basis_size_N" in sizes:
            del mapping["quadrature_order"]
        path = write_config(tmp_path, mapping)
        # basis-check builds no quadrature rule, so only the basis size bounds it
        for verb in SOLVING_VERBS + (("basis-check",) if sizes.get("basis_size_N", 0) > 1_000_000 else ()):
            start = time.perf_counter()
            assert main([verb, "--config", path]) == EXIT_CONFIG
            assert time.perf_counter() - start < 1.0
            assert message in capsys.readouterr().err, verb

    def test_energy_list_longer_than_the_grid_bound_is_refused(self, tmp_path, capsys, monkeypatch):
        # a real 10^6-energy YAML list takes seconds to parse, so the bound is lowered
        monkeypatch.setattr(cli, "_MAX_GRID_POINTS", 8)
        energies = [1.0 + k / 8 for k in range(9)]
        accepted = write_config(tmp_path, minimal(energy_grid={"list": energies[:8]}))
        assert load_config(accepted).energies == tuple(energies[:8])
        start = time.perf_counter()
        assert main(["scan", "--config", write_config(tmp_path, minimal(energy_grid={"list": energies}))]) == EXIT_CONFIG
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == "configuration error: energy_grid.list must have at most 8 energies\n"

    def test_unwritable_output_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "out.csv"
        assert main(["scan", "--config", write_config(tmp_path, minimal()), "--output", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"configuration error: cannot write output {out}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("grid", ["1.4,1.0,0.6,1.2,0.8", "1.0,1.0"])
    def test_lambda_grid_must_increase(self, tmp_path, capsys, grid):
        path = write_config(tmp_path, minimal())
        lambdas = tuple(map(float, grid.split(",")))
        with pytest.raises(ConfigError, match="strictly increasing"):
            stability_rows(load_config(path), lambdas=lambdas, n_values=(6,))
        assert main(["stability-scan", "--config", path, "--lambda-grid", grid, "--n-grid", "6"]) == EXIT_CONFIG
        assert "strictly increasing" in capsys.readouterr().err

    @pytest.mark.parametrize("config,u", [("table1", "4.8e+06"), ("table3", "2e+06")])
    def test_gamma_overflow_is_numerical(self, capsys, config, u):
        # lambda = 1e-3 puts u = 2E/lambda^2 far beyond float64's e^u (ell = 1)
        # and Ei(u) series terms (ell = 0)
        argv = ["stability-scan", "--config", str(CONFIG_DIR / f"{config}.yaml")]
        assert main([*argv, "--lambda-grid", "1e-3,1.0", "--n-grid", "2,20"]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err == f"numerical failure: Re Gamma(-ell, -u) overflows float64 at u = 2E/lambda^2 = {u}\n"

    def test_linear_algebra_failure_is_numerical(self, tmp_path, capsys, monkeypatch):
        # np.linalg.LinAlgError subclasses ValueError; it must not pass for a config error
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        path = write_config(tmp_path, minimal())
        assert main(["table", "--config", path]) == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("coupling", [0.0, 0.02])
    def test_energy_on_a_level_is_reported_as_given(self, tmp_path, coupling):
        # a grid energy equal to a level of H in floating point is solved there, not moved
        cfg = load_config(write_config(tmp_path, minimal(coupling_g=coupling)))
        h, _, _ = _solve(cfg, build_rule(cfg.quadrature_order, cfg.ell), override=True)
        level = float(h.eigenvalues[np.argmin(np.abs(h.eigenvalues - 2.0))])
        path = write_config(tmp_path, minimal(coupling_g=coupling, energy_grid={"list": [level]}))
        assert load_config(path).energies == (level,)
        out = tmp_path / "scan.csv"
        assert main(["scan", "--config", path, "--output", str(out)]) == EXIT_OK
        row = out.read_text(encoding="utf-8").splitlines()[1].split(",")
        assert row[0] == f"{level:.6f}" and row[1] in ("converged", "bifurcated")

    def test_scan_output_and_determinism(self, tmp_path):
        path = write_config(tmp_path, minimal(
            energy_grid={"start": 1.0, "stop": 1.4, "step": 0.1},
        ))
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["scan", "--config", path, "--output", str(out_a)]) == EXIT_OK
        assert main(["scan", "--config", path, "--output", str(out_b)]) == EXIT_OK
        text = out_a.read_text(encoding="utf-8")
        assert text == out_b.read_text(encoding="utf-8")
        lines = text.strip().split("\n")
        assert lines[0] == "E,status,iterations,abs_one_minus_S,re_S,im_S,bif_value_a,bif_value_b"
        assert len(lines) == 6
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 8
            assert fields[1] == "converged"
            # linear run: no cycle, so the bifurcation columns stay empty
            assert fields[6] == "" and fields[7] == ""

    def test_scan_rows_of_scripted_results(self, tmp_path, monkeypatch):
        # the solver is replaced by fixed results, so each row's text is pinned from its result alone
        w = complex(0.5, math.sqrt(3.0) / 2.0)
        results = [
            solver.ScatteringResult(1.25, "converged", (complex(-1.0, -0.0),)),  # g = 0
            solver.ScatteringResult(2.0 * (1.0 + 1e-6), "converged", (1j,)),
            solver.ScatteringResult(3.0, "bifurcated", (0.6 + 0.8j, 1j, -1 + 0j, 1j, -1 + 0j), 2),
            solver.ScatteringResult(4.0, "bifurcated", (1j, -1 + 0j, w, 1j, -1 + 0j, w), 3),
        ]
        monkeypatch.setattr(cli, "scan", lambda *args, **kwargs: results)
        out = tmp_path / "scan.csv"
        assert main(["scan", "--config", write_config(tmp_path, minimal()), "--output", str(out)]) == EXIT_OK
        # a period-3 row has columns for two cycle values only and drops its third, 1.000000 (ROADMAP item 4)
        assert out.read_text(encoding="utf-8").splitlines()[1:] == [
            "1.250000,converged,0,2.000000,-1.000000,-0.000000,,",
            "2.000002,converged,0,1.414214,0.000000,1.000000,,",
            "3.000000,bifurcated,4,2.000000,-1.000000,0.000000,2.000000,1.414214",
            "4.000000,bifurcated,5,1.000000,0.500000,0.866025,2.000000,1.414214",
        ]

    def test_tabulated_scan_matches_piecewise_linear(self, tmp_path):
        # a tabulated potential is the piecewise-linear interpolation of its samples
        points = {"r": [0.0, 1.2, 3.0, 7.0], "v": [0.0, 2.4, 2.4, 0.0]}
        outputs = []
        for potential in (
            {"kind": "tabulated", **points},
            {"kind": "piecewise-linear", "breakpoints": points["r"], "values": points["v"]},
        ):
            path = write_config(tmp_path, minimal(
                ell=1, coupling_g=0.02, potential=potential,
                energy_grid={"list": [1.0, 3.0, 5.0]},
            ))
            out = tmp_path / f"{potential['kind']}.csv"
            assert main(["scan", "--config", path, "--output", str(out)]) == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_stability_scan_projects_the_potential_once_per_point(self, tmp_path, monkeypatch):
        calls = []
        original = hamiltonian.potential_matrix

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(hamiltonian, "potential_matrix", counted)
        cfg = load_config(write_config(tmp_path, minimal()))
        rows = stability_rows(cfg, lambdas=(0.8, 1.0, 1.2), n_values=(6, 8))
        assert len(rows) == 6
        assert len(calls) == 6

    def test_stability_scan_builds_one_d_tensor_per_basis_size(self, tmp_path, monkeypatch):
        # the D tensor does not depend on lambda: one build per N serves every lambda
        sizes, original = [], cli.d_tensor

        def counted(n, ell, n_basis, *rest, **kwargs):
            sizes.append(n_basis)
            return original(n, ell, n_basis, *rest, **kwargs)

        cfg = load_config(write_config(tmp_path, minimal(coupling_g=0.001, nonlinearity_n=1)))
        want = stability_rows(cfg, lambdas=(0.8, 1.0, 1.2), n_values=(6, 8))
        monkeypatch.setattr(cli, "d_tensor", counted)
        assert stability_rows(cfg, lambdas=(0.8, 1.0, 1.2), n_values=(6, 8)) == want
        assert sizes == [6, 8]
        # each row is the solve of its own (lambda, N) point with a fresh D tensor
        for row in want:
            sub = replace(cfg, lam=row["lam"], basis_size_n=row["N"], energies=cfg.energies[:1])
            _, _, [res] = _solve(sub, build_rule(cfg.quadrature_order, cfg.ell), False)
            assert res.abs_one_minus_s == row["abs_one_minus_S"]

    def test_table_footnote(self, tmp_path):
        path = write_config(tmp_path, minimal(energy_grid={"list": [1.0]}))
        out = tmp_path / "table.txt"
        assert main(["table", "--config", path, "--output", str(out)]) == EXIT_OK
        text = out.read_text(encoding="utf-8")
        assert text.splitlines()[0] == "m\tE=1"
        assert "# blank: no further iterations" in text

    def test_basis_check_block(self, tmp_path):
        path = write_config(tmp_path, {
            "basis_size_N": 60,
            "lambda": 1.0,
            "ell": 1,
            "energy_grid": {"list": [1.0]},
            "basis_check": "both",
            "r_grid": {"start": 0.5, "stop": 20.0, "count": 16},
        })
        out = tmp_path / "basis.csv"
        assert main(["basis-check", "--config", path, "--output", str(out)]) == EXIT_OK
        text = out.read_text(encoding="utf-8")
        for basis in ("oscillator", "laguerre"):
            assert f"# basis = {basis}, ell = 1" in text
        data = [ln for ln in text.splitlines() if ln and not ln.startswith(("#", "r,"))]
        assert len(data) == 32
        for line in data:
            values = [float(x) for x in line.split(",")]
            assert len(values) == 5
            assert np.isfinite(values).all()
        devs = [float(ln.split("=")[1]) for ln in text.splitlines() if "max_dev" in ln]
        assert len(devs) == 4
        assert all(np.isfinite(devs))

    def test_both_bases_are_the_two_single_basis_outputs(self, tmp_path):
        # one Bessel pass serves both blocks; each block is byte for byte its one-basis run
        texts = {}
        for basis in ("both", "oscillator", "laguerre"):
            path = write_config(tmp_path, {
                "basis_size_N": 200, "lambda": 1.0, "ell": 2, "energy_grid": {"list": [1.7]},
                "basis_check": basis, "r_grid": {"start": 0.0, "stop": 20.0, "count": 90},
            }, name=f"{basis}.yaml")
            out = tmp_path / f"{basis}.csv"
            assert main(["basis-check", "--config", path, "--output", str(out)]) == EXIT_OK
            texts[basis] = out.read_bytes()
        assert texts["both"] == texts["oscillator"] + texts["laguerre"]

    def test_basis_check_refuses_an_r_grid_without_a_finite_outer_target(self, tmp_path, capsys, monkeypatch):
        # at r <= 1e-110 the ell = 3 irregular target overflows, so no cosine deviation can be taken
        calls = []
        monkeypatch.setattr(cli, "reference_coefficients", lambda *a, **k: calls.append(a))
        path = write_config(tmp_path, {
            "basis_size_N": 20, "lambda": 1.0, "ell": 3, "energy_grid": {"list": [1.0]},
            "r_grid": {"start": 1e-120, "stop": 1e-110, "count": 5},
        })
        assert main(["basis-check", "--config", path]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "configuration error: r_grid has no radius in its outer half where the irregular target is finite\n"
        )
        assert calls == []

    def test_stability_scan_single_point(self, tmp_path):
        path = write_config(tmp_path, minimal())
        out = tmp_path / "stab.csv"
        code = main([
            "stability-scan", "--config", path, "--output", str(out),
            "--lambda-grid", "1.0", "--n-grid", "8",
        ])
        assert code == EXIT_OK
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "lam,N,abs_one_minus_S,nearest_eig,pot_edge,f_edge,plateau"
        assert len(lines) == 2
        fields = lines[1].split(",")
        # a lone scale has nothing to drift against: trivially in-plateau
        assert fields[-1] == "1"


# Every verb, its help text and its flags, in the order `--help` lists them.
VERBS = {
    "scan": ("per-energy scattering results as CSV", ["--help", "--config", "--output", "--override-quadrature-bound"]),
    "table": ("per-order |1-S| progression as text", ["--help", "--config", "--output", "--override-quadrature-bound"]),
    "basis-check": ("reference reconstruction against Bessel targets", ["--help", "--config", "--output"]),
    "stability-scan": ("basis-parameter sweep with plateau flags", [
        "--help", "--config", "--output", "--override-quadrature-bound", "--lambda-grid", "--n-grid", "--drift-threshold",
    ]),
}


class TestVerbTable:
    @pytest.fixture(autouse=True)
    def wide_terminal(self, monkeypatch):
        # argparse wraps help at the terminal width it reads from COLUMNS
        monkeypatch.setenv("COLUMNS", "200")

    @staticmethod
    def help_text(capsys, *verb):
        with pytest.raises(SystemExit) as exc:
            main([*verb, "--help"])
        assert exc.value.code == EXIT_OK
        return capsys.readouterr().out

    def test_top_level_help_lists_every_verb_in_order(self, capsys):
        listed = [line.split(None, 1) for line in self.help_text(capsys).splitlines() if line.startswith("    ")]
        assert listed == [[verb, helptext] for verb, (helptext, _) in VERBS.items()]

    @pytest.mark.parametrize("verb", VERBS)
    def test_each_verb_shows_exactly_its_flags(self, capsys, verb):
        text = self.help_text(capsys, verb)
        assert re.findall(r"^  (?:-h, )?(--[\w-]+)", text, re.MULTILINE) == VERBS[verb][1]
        # each with a description, on the flag's line or on the next one when the flag is too long to share it
        described = re.findall(r"^  (?:-h, )?(--[\w-]+)(?: [A-Z_]+)?(?: {2,}|\n {3,})\S", text, re.MULTILINE)
        assert described == VERBS[verb][1]
        if verb == "basis-check":
            assert "--override-quadrature-bound" not in text
