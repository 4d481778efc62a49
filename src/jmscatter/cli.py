"""Command-line front end: YAML-configured runs writing deterministic CSV/text.

Verbs:
  scan            one CSV row per grid energy with the iteration outcome
  table           per-order |1 - S| progression, energies as columns
  basis-check     reference-solution reconstruction against Bessel targets
  stability-scan  basis-parameter sweep with plateau flags

Exit codes: 0 success, 2 configuration problems (including strict-key
violations, quadrature-bound refusals and an unwritable output path), 3
numerical failure at run time. Output is written only when the command
succeeds, and is byte-identical across repeated runs of one command.
"""

from __future__ import annotations

import argparse
import io
import math
import sys
from dataclasses import make_dataclass, replace

import numpy as np
import yaml

from . import hamiltonian as ham
from .linearize import DTensor, d_tensor, quadrature_bound
from .quadrature import QuadratureRule, build_rule
from .reference import chi_reconstruct, free_targets, reference_coefficients
from .solver import ScatteringResult, scan

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# Largest energy or r grid a config may ask for, refused before it is built.
_MAX_GRID_POINTS = 1_000_000


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


_REQUIRED = object()


def _is_number(v) -> bool:
    """An int (not a bool) or a finite float: YAML's .nan and .inf are refused."""
    if isinstance(v, float):
        return math.isfinite(v)
    return isinstance(v, int) and not isinstance(v, bool)


# Value kinds: (what a value must be, its test, its conversion).
_INTEGER = ("an integer", lambda v: _is_number(v) and isinstance(v, int), int)
_NUMBER = ("a finite number", _is_number, float)
_POSITIVE = ("a positive finite number", lambda v: _is_number(v) and v > 0, float)
_NUMBERS = (
    "a non-empty list of finite numbers",
    lambda v: isinstance(v, list) and len(v) > 0 and all(map(_is_number, v)),
    lambda v: tuple(map(float, v)),
)
_ANY = ("anything", lambda v: True, lambda v: v)


def _at_least(low: int) -> tuple:
    """Value kind of an integer >= low."""
    return (f"an integer >= {low}", lambda v: _is_number(v) and isinstance(v, int) and v >= low, int)


def _mapping(parse) -> tuple:
    """Value kind of a nested mapping, converted by its own parser."""
    return ("a mapping", lambda v: isinstance(v, dict), parse)


def _read(mapping: dict, where: str, spec: dict) -> dict:
    """Values of `mapping` by `spec`, key -> (kind, default), defaults filled in.

    Unknown keys, a missing key whose default is _REQUIRED and a value
    that fails its kind's test are refused; a default is taken as it is.
    """
    unknown = set(mapping) - set(spec)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")
    out = {}
    for key, ((what, test, convert), default) in spec.items():
        if key not in mapping:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key '{key}' in {where}")
            out[key] = default
        elif not test(mapping[key]):
            raise ConfigError(f"key '{key}' in {where} must be {what}")
        else:
            out[key] = convert(mapping[key])
    return out


# Potential kinds: class, its keys in argument order, their value kind.
_POTENTIALS = {
    "power-exponential": (ham.PowerExponentialPotential, ("strength", "power", "decay"), _NUMBER),
    "piecewise-linear": (ham.PiecewiseLinearPotential, ("breakpoints", "values"), _NUMBERS),
    "tabulated": (ham.PiecewiseLinearPotential, ("r", "v"), _NUMBERS),
}


def _parse_potential(raw: dict) -> ham.Potential:
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in _POTENTIALS:
        raise ConfigError(f"potential.kind must be one of {', '.join(_POTENTIALS)}")
    cls, keys, value_kind = _POTENTIALS[kind]
    spec = {"kind": (_ANY, None), **dict.fromkeys(keys, (value_kind, _REQUIRED))}
    values = _read(raw, "potential", spec)
    try:
        return cls(*(values[key] for key in keys))
    except ValueError as exc:
        raise ConfigError(f"invalid potential: {exc}") from exc


def _parse_energy_grid(raw: dict) -> tuple:
    if "list" in raw:
        energies = _read(raw, "energy_grid", {"list": (_NUMBERS, _REQUIRED)})["list"]
    else:
        spec = dict.fromkeys(("start", "stop", "step"), (_NUMBER, _REQUIRED))
        start, stop, step = _read(raw, "energy_grid", spec).values()
        if step <= 0 or stop < start:
            raise ConfigError("energy_grid needs step > 0 and stop >= start")
        count = np.floor((stop - start) / step + 1e-9) + 1
        if count > _MAX_GRID_POINTS:
            raise ConfigError(f"energy_grid must have at most {_MAX_GRID_POINTS} points")
        energies = tuple(start + i * step for i in range(int(count)))
    if any(e <= 0 for e in energies):
        raise ConfigError("energy_grid energies must all be positive")
    return energies


def _parse_r_grid(raw: dict) -> tuple:
    spec = {"start": (_NUMBER, _REQUIRED), "stop": (_NUMBER, _REQUIRED), "count": (_INTEGER, _REQUIRED)}
    start, stop, count = _read(raw, "r_grid", spec).values()
    if not 2 <= count <= _MAX_GRID_POINTS:
        raise ConfigError(f"r_grid.count must be an integer from 2 to {_MAX_GRID_POINTS}")
    if start < 0 or stop <= start:
        raise ConfigError("r_grid needs 0 <= start < stop")
    return (start, stop, count)


# basis_check values: the bases each one reconstructs, in output order.
_BASES = {"oscillator": ("oscillator",), "laguerre": ("laguerre",), "both": ("oscillator", "laguerre")}
# Top-level keys: the RunConfig field, the value kind with its bound, and the
# default; quadrature_order defaults to the exactness bound.
_TOP_KEYS = {
    "nonlinearity_n": ("nonlinearity_n", _at_least(1), 1),
    "coupling_g": ("coupling_g", _NUMBER, 0.0),
    "ell": ("ell", _at_least(0), 0),
    "potential": ("potential", _mapping(_parse_potential), None),
    "lambda": ("lam", _POSITIVE, _REQUIRED),
    "basis_size_N": ("basis_size_n", _at_least(2), _REQUIRED),
    "quadrature_order": ("quadrature_order", _INTEGER, None),
    "energy_grid": ("energies", _mapping(_parse_energy_grid), _REQUIRED),
    "tolerance": ("tolerance", _POSITIVE, 1e-8),
    "bifurcation_tolerance": ("bifurcation_tolerance", _POSITIVE, 1e-3),
    "max_iterations": ("max_iterations", _at_least(1), 50),
    "basis_check": ("basis_check", (f"one of {', '.join(_BASES)}", _BASES.__contains__, str), "oscillator"),
    "r_grid": ("r_grid", _mapping(_parse_r_grid), (0.05, 25.0, 500)),
}
RunConfig = make_dataclass(
    "RunConfig", [field for field, _, _ in _TOP_KEYS.values()], frozen=True,
    namespace={"__module__": __name__, "__doc__": "Validated run parameters, one field per entry of _TOP_KEYS."},
)


def load_config(path: str) -> RunConfig:
    """Read and strictly validate a YAML run configuration (libyaml's safe loader where PyYAML has it)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    values = _read(raw, "config", {key: entry[1:] for key, entry in _TOP_KEYS.items()})
    fields = {field: values[key] for key, (field, _, _) in _TOP_KEYS.items()}
    if fields["quadrature_order"] is None:
        fields["quadrature_order"] = quadrature_bound(fields["nonlinearity_n"], fields["basis_size_n"])
    elif fields["quadrature_order"] < fields["basis_size_n"]:
        raise ConfigError("key 'quadrature_order' in config must be an integer >= basis_size_N")
    return RunConfig(**fields)


def _problem_rule(cfg: RunConfig) -> QuadratureRule:
    """The config's quadrature rule, refused before it is built if there is no potential."""
    if cfg.potential is None:
        raise ConfigError("this command requires a 'potential' entry in the config")
    return build_rule(cfg.quadrature_order, cfg.ell)


def _build_problem(
    cfg: RunConfig, rule: QuadratureRule, override: bool, dten: DTensor | None = None
) -> tuple[ham.LinearHamiltonian, DTensor | None]:
    """The config's Hamiltonian and D tensor; a `dten` built for its rule and basis is reused (it is scale-free)."""
    h = ham.assemble_linear(
        cfg.potential, n_basis=cfg.basis_size_n, ell=cfg.ell, lam=cfg.lam, rule=rule
    )
    if cfg.coupling_g != 0.0 and dten is None:
        try:
            dten = d_tensor(cfg.nonlinearity_n, cfg.ell, cfg.basis_size_n, rule, override=override)
        except ValueError as exc:
            raise ConfigError(
                f"{exc} (CLI flag: --override-quadrature-bound)"
            ) from exc
    return h, dten


def _scan_results(cfg: RunConfig, override: bool) -> list[ScatteringResult]:
    h, dten = _build_problem(cfg, _problem_rule(cfg), override)
    return scan(
        list(cfg.energies), h, dten, coupling=cfg.coupling_g, tolerance=cfg.tolerance,
        bifurcation_tolerance=cfg.bifurcation_tolerance,
        max_iterations=cfg.max_iterations,
    )


def cmd_scan(cfg: RunConfig, args, out) -> None:
    """CSV: one row per energy with status and final scattering matrix."""
    results = _scan_results(cfg, args.override_quadrature_bound)
    out.write("E,status,iterations,abs_one_minus_S,re_S,im_S,bif_value_a,bif_value_b\n")
    for res in results:
        bif_a = bif_b = ""
        if res.bifurcation is not None:
            bif_a = f"{res.bifurcation[0]:.6f}"
            bif_b = f"{res.bifurcation[1]:.6f}"
        out.write(
            f"{res.energy:.6f},{res.status},{res.iterations},"
            f"{res.abs_one_minus_s:.6f},{res.s_matrix.real:.6f},{res.s_matrix.imag:.6f},"
            f"{bif_a},{bif_b}\n"
        )


def cmd_table(cfg: RunConfig, args, out) -> None:
    """Text table of |1 - S_m| per perturbation order m, energies as columns."""
    results = _scan_results(cfg, args.override_quadrature_bound)
    header = ["m"] + [f"E={e:g}" for e in cfg.energies]
    out.write("\t".join(header) + "\n")
    depth = max(len(res.history) for res in results)
    for m in range(depth):
        row = [str(m)]
        for res in results:
            row.append(f"{abs(1.0 - res.history[m]):.6f}" if m < len(res.history) else "")
        out.write("\t".join(row) + "\n")
    out.write("# blank: no further iterations at this energy "
              "(converged or cycle-certified earlier)\n")
    for res in results:
        if res.status != "converged":
            out.write(f"# E={res.energy:g}: {res.status}")
            if res.bifurcation is not None:
                vals = ", ".join(f"{v:.6f}" for v in res.bifurcation)
                out.write(f", period {res.period}, cycle values {vals}")
            out.write("\n")


def cmd_basis_check(cfg: RunConfig, args, out) -> None:
    """Reconstruction CSV at the first grid energy, plus deviation summaries.

    The Bessel targets depend on the energy, ell and r only, so one pass
    serves both bases.
    """
    energy = cfg.energies[0]
    r = np.linspace(*cfg.r_grid)
    reg, irr = free_targets(energy, cfg.ell, r)
    start, stop, _ = cfg.r_grid
    outer = np.isfinite(irr) & (r >= 0.5 * (start + stop))
    if not outer.any():
        raise ConfigError("r_grid has no radius in its outer half where the irregular target is finite")
    for basis in _BASES[cfg.basis_check]:
        s, c = reference_coefficients(energy, cfg.lam, cfg.ell, cfg.basis_size_n, basis=basis)
        chi_sin, chi_cos = chi_reconstruct([s, c], cfg.ell, cfg.lam, r, basis=basis)
        out.write(f"# basis = {basis}, ell = {cfg.ell}, E = {energy:g}, "
                  f"lambda = {cfg.lam:g}, N = {cfg.basis_size_n}\n")
        out.write("r,chi_sin,chi_reg_target,chi_cos,chi_irr_target\n")
        columns = (r.tolist(), chi_sin.tolist(), reg.tolist(), chi_cos.tolist(), irr.tolist())
        out.write("".join(f"{a:.6f},{b:.6f},{c:.6f},{d:.6f},{e:.6f}\n" for a, b, c, d, e in zip(*columns)))
        dev_sin = float(np.abs(chi_sin - reg).max())
        dev_cos = float(np.abs(chi_cos[outer] - irr[outer]).max())
        out.write(f"# max_dev_sin = {dev_sin:.6e}\n")
        out.write(f"# max_dev_cos_outer_half = {dev_cos:.6e}\n")


def stability_rows(
    cfg: RunConfig, lambdas, n_values, drift_threshold: float = 1e-3, override: bool = False
) -> list[dict]:
    """Sweep (lambda, N), report basis-edge diagnostics, flag the plateau.

    Reported per point: |1 - S| at the first grid energy, the interior
    eigenvalue nearest that energy, and the basis-edge diagonals of the
    potential matrix and of the nonlinear weight matrix F. The edge
    diagonals are the observational diagnostics (they must have decayed
    for the basis to cover the interaction); the plateau flag automates
    the scale-stability check. Raw matrix entries change with lambda by
    construction (different basis), so the flag tracks what does not: a
    point is in-plateau when, against each lambda neighbor at the same N,
    some interior eigenvalue near the probe energy (the five nearest are
    compared) is reproduced within the relative threshold. Localized
    spectral features sit still on an adequate basis; discretized
    continuum levels scale with lambda and never match. The lambdas must
    be strictly increasing, so that list neighbors are value neighbors.
    """
    if any(b <= a for a, b in zip(lambdas, lambdas[1:])):
        raise ConfigError(f"lambda grid must be strictly increasing, got {', '.join(map(str, lambdas))}")
    energy = cfg.energies[0]
    rule = _problem_rule(cfg)
    rows = []
    for n_basis in n_values:
        features, dten = [], None
        # F depends on the basis size only, not on its scale.
        f_edge = ham.f_weight_quadrature(cfg.nonlinearity_n, cfg.ell, int(n_basis))[-1, -1]
        for lam in lambdas:
            sub = replace(cfg, lam=float(lam), basis_size_n=int(n_basis))
            h, dten = _build_problem(sub, rule, override, dten)
            [res] = scan(
                [energy], h, dten, coupling=sub.coupling_g, tolerance=sub.tolerance,
                bifurcation_tolerance=sub.bifurcation_tolerance,
                max_iterations=sub.max_iterations,
            )
            near = h.eigenvalues[np.argsort(np.abs(h.eigenvalues - energy))[:5]]
            features.append(np.sort(near))
            rows.append({
                "lam": float(lam), "N": int(n_basis),
                "abs_one_minus_S": res.abs_one_minus_s,
                "nearest_eig": float(near[0]),
                "pot_edge": abs(h.potential_matrix[-1, -1]), "f_edge": f_edge,
            })
        for i, row in enumerate(rows[-len(lambdas):]):
            # Scaled by the point's own features: the drift to a neighbour is not symmetric.
            a = features[i][:, None]
            drifts = [(np.abs(a - features[j]) / np.maximum(np.abs(a), 1.0)).min()
                      for j in (i - 1, i + 1) if 0 <= j < len(lambdas)]
            row["plateau"] = int(all(d < drift_threshold for d in drifts))
    return rows


def cmd_stability_scan(cfg: RunConfig, args, out) -> None:
    """CSV of the (lambda, N) sweep from `stability_rows`, its flags checked first."""
    if not (math.isfinite(args.drift_threshold) and args.drift_threshold > 0):
        raise ConfigError("--drift-threshold must be a positive finite number")
    lambdas = _csv(args.lambda_grid, float, "--lambda-grid", 0, math.inf)
    n_values = _csv(args.n_grid, int, "--n-grid", 1, cfg.quadrature_order)
    rows = stability_rows(cfg, lambdas, n_values, args.drift_threshold, args.override_quadrature_bound)
    out.write("lam,N,abs_one_minus_S,nearest_eig,pot_edge,f_edge,plateau\n")
    for row in rows:
        out.write(
            f"{row['lam']:.6f},{row['N']},{row['abs_one_minus_S']:.6f},"
            f"{row['nearest_eig']:.6f},{row['pot_edge']:.6e},{row['f_edge']:.6e},"
            f"{row['plateau']}\n"
        )


def _csv(text: str, kind, flag: str, low, high) -> tuple:
    """The comma-separated `kind` values of `flag`, each finite with low < value <= high."""
    try:
        values = tuple(kind(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad {flag} list {text!r}") from exc
    if not all(_is_number(v) and low < v <= high for v in values):
        raise ConfigError(f"bad {flag} list {text!r}: values must be finite, above {low:g} and at most {high:g}")
    return values


def _write_output(path: str, text: str) -> None:
    """Write a finished run's output to `path`, '-' meaning stdout."""
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc}") from exc


# CLI verbs: help text and command, each command called as command(cfg, args, out).
_VERBS = {
    "scan": ("per-energy scattering results as CSV", cmd_scan),
    "table": ("per-order |1-S| progression as text", cmd_table),
    "basis-check": ("reference reconstruction against Bessel targets", cmd_basis_check),
    "stability-scan": ("basis-parameter sweep with plateau flags", cmd_stability_scan),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="jmscatter",
        description="Elastic scattering of the planar nonlinear Schrodinger equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (helptext, _) in _VERBS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--output", default="-", help="output path, '-' for stdout")
        if name != "basis-check":
            p.add_argument("--override-quadrature-bound", action="store_true",
                           help="proceed below the tensor exactness bound")
        if name == "stability-scan":
            p.add_argument("--lambda-grid", default="0.6,0.8,1.0,1.2,1.4", help="comma-separated basis scales")
            p.add_argument("--n-grid", default="10,20,30", help="comma-separated basis sizes")
            p.add_argument("--drift-threshold", type=float, default=1e-3,
                           help="relative eigenvalue drift below which a point is in-plateau")

    args = parser.parse_args(argv)
    sink = io.StringIO()
    try:
        _VERBS[args.command][1](load_config(args.config), args, sink)
        _write_output(args.output, sink.getvalue())
    # LinAlgError subclasses ValueError, so the numerical clause comes first;
    # the solver's SingularMatrixError is an ArithmeticError.
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
