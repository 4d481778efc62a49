"""Command-line front end: YAML-configured runs writing deterministic CSV/text.

Verbs:
  scan            one CSV row per grid energy with the iteration outcome
  table           per-order |1 - S| progression, energies as columns
  basis-check     reference-solution reconstruction against Bessel targets
  stability-scan  basis-parameter sweep with plateau flags

Exit codes: 0 success, 2 configuration problems (including strict-key
violations and quadrature-bound refusals), 3 numerical failure at run
time. Output is byte-identical across repeated runs of one command.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace

import numpy as np
import yaml

from . import hamiltonian as ham
from .linearize import DTensor, d_tensor, quadrature_bound
from .quadrature import QuadratureRule, build_rule
from .reference import (
    chi_reconstruct,
    energy_point,
    irregular_target,
    reference_coefficients,
    regular_target,
)
from .solver import ScatteringResult, SingularMatrixError, scan, solve_energy

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_DEFAULT_LAMBDA_GRID = (0.6, 0.8, 1.0, 1.2, 1.4)
_DEFAULT_N_GRID = (10, 20, 30)


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters; one YAML mapping, unknown keys rejected."""

    nonlinearity_n: int
    coupling_g: float
    ell: int
    potential: ham.Potential | None
    lam: float
    basis_size_n: int
    quadrature_order: int
    energies: tuple
    tolerance: float
    bifurcation_tolerance: float
    max_iterations: int
    basis_check: str
    r_grid: tuple


def _reject_unknown(mapping: dict, allowed: set, where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _number(mapping: dict, key: str, where: str, default=None, required=False):
    if key not in mapping:
        if required:
            raise ConfigError(f"missing required key '{key}' in {where}")
        return default
    v = mapping[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"key '{key}' in {where} must be a number")
    return v


def _float_list(v, where: str) -> tuple:
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{where} must be a non-empty list of numbers")
    out = []
    for item in v:
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigError(f"{where} must contain numbers only")
        out.append(float(item))
    return tuple(out)


def _parse_potential(raw) -> ham.Potential:
    if not isinstance(raw, dict):
        raise ConfigError("potential must be a mapping with a 'kind' key")
    kind = raw.get("kind")
    try:
        if kind == "power-exponential":
            _reject_unknown(raw, {"kind", "strength", "power", "decay"}, "potential")
            return ham.PowerExponentialPotential(
                strength=float(_number(raw, "strength", "potential", required=True)),
                power=float(_number(raw, "power", "potential", required=True)),
                decay=float(_number(raw, "decay", "potential", required=True)),
            )
        if kind == "piecewise-linear":
            _reject_unknown(raw, {"kind", "breakpoints", "values"}, "potential")
            return ham.PiecewiseLinearPotential(
                breakpoints=_float_list(raw.get("breakpoints"), "potential.breakpoints"),
                values=_float_list(raw.get("values"), "potential.values"),
            )
        if kind == "tabulated":
            _reject_unknown(raw, {"kind", "r", "v"}, "potential")
            return ham.PiecewiseLinearPotential(
                breakpoints=_float_list(raw.get("r"), "potential.r"),
                values=_float_list(raw.get("v"), "potential.v"),
            )
    except ValueError as exc:
        raise ConfigError(f"invalid potential: {exc}") from exc
    raise ConfigError(
        "potential.kind must be one of power-exponential, piecewise-linear, tabulated"
    )


def _parse_energy_grid(raw) -> tuple:
    if not isinstance(raw, dict):
        raise ConfigError("energy_grid must be a mapping")
    if "list" in raw:
        _reject_unknown(raw, {"list"}, "energy_grid")
        energies = _float_list(raw["list"], "energy_grid.list")
    else:
        _reject_unknown(raw, {"start", "stop", "step"}, "energy_grid")
        start = float(_number(raw, "start", "energy_grid", required=True))
        stop = float(_number(raw, "stop", "energy_grid", required=True))
        step = float(_number(raw, "step", "energy_grid", required=True))
        if step <= 0 or stop < start:
            raise ConfigError("energy_grid needs step > 0 and stop >= start")
        count = int(np.floor((stop - start) / step + 1e-9)) + 1
        energies = tuple(start + i * step for i in range(count))
    if any(e <= 0 for e in energies):
        raise ConfigError("all grid energies must be positive")
    return energies


def _parse_r_grid(raw) -> tuple:
    if not isinstance(raw, dict):
        raise ConfigError("r_grid must be a mapping")
    _reject_unknown(raw, {"start", "stop", "count"}, "r_grid")
    start = float(_number(raw, "start", "r_grid", required=True))
    stop = float(_number(raw, "stop", "r_grid", required=True))
    count = _number(raw, "count", "r_grid", required=True)
    if not isinstance(count, int) or count < 2:
        raise ConfigError("r_grid.count must be an integer >= 2")
    if start < 0 or stop <= start:
        raise ConfigError("r_grid needs 0 <= start < stop")
    return (start, stop, count)


_TOP_KEYS = {
    "nonlinearity_n", "coupling_g", "ell", "potential", "lambda", "basis_size_N",
    "quadrature_order", "energy_grid", "tolerance", "bifurcation_tolerance",
    "max_iterations", "basis_check", "r_grid",
}


def load_config(path: str) -> RunConfig:
    """Read and strictly validate a YAML run configuration."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    _reject_unknown(raw, _TOP_KEYS, "config")

    n = _number(raw, "nonlinearity_n", "config", default=1)
    if not isinstance(n, int) or n < 1:
        raise ConfigError("nonlinearity_n must be an integer >= 1")
    ell = _number(raw, "ell", "config", default=0)
    if not isinstance(ell, int) or ell < 0:
        raise ConfigError("ell must be a nonnegative integer")
    n_basis = _number(raw, "basis_size_N", "config", required=True)
    if not isinstance(n_basis, int) or n_basis < 2:
        raise ConfigError("basis_size_N must be an integer >= 2")
    lam = float(_number(raw, "lambda", "config", required=True))
    if lam <= 0:
        raise ConfigError("lambda must be positive")
    order = _number(raw, "quadrature_order", "config", default=quadrature_bound(n, n_basis))
    if not isinstance(order, int) or order < n_basis:
        raise ConfigError("quadrature_order must be an integer >= basis_size_N")
    coupling = float(_number(raw, "coupling_g", "config", default=0.0))
    tol = float(_number(raw, "tolerance", "config", default=1e-8))
    tol_bif = float(_number(raw, "bifurcation_tolerance", "config", default=1e-3))
    max_it = _number(raw, "max_iterations", "config", default=50)
    if not isinstance(max_it, int) or max_it < 1:
        raise ConfigError("max_iterations must be an integer >= 1")
    if tol <= 0 or tol_bif <= 0:
        raise ConfigError("tolerances must be positive")
    basis_check = raw.get("basis_check", "oscillator")
    if basis_check not in ("oscillator", "laguerre", "both"):
        raise ConfigError("basis_check must be oscillator, laguerre, or both")
    if "energy_grid" not in raw:
        raise ConfigError("missing required key 'energy_grid' in config")
    energies = _parse_energy_grid(raw["energy_grid"])
    potential = _parse_potential(raw["potential"]) if "potential" in raw else None
    r_grid = _parse_r_grid(raw["r_grid"]) if "r_grid" in raw else (0.05, 25.0, 500)
    return RunConfig(
        nonlinearity_n=n, coupling_g=coupling, ell=ell, potential=potential,
        lam=lam, basis_size_n=n_basis, quadrature_order=order, energies=energies,
        tolerance=tol, bifurcation_tolerance=tol_bif, max_iterations=max_it,
        basis_check=basis_check, r_grid=r_grid,
    )


def _problem_rule(cfg: RunConfig) -> QuadratureRule:
    """The config's quadrature rule, refused before it is built if there is no potential."""
    if cfg.potential is None:
        raise ConfigError("this command requires a 'potential' entry in the config")
    return build_rule(cfg.quadrature_order, cfg.ell)


def _build_problem(
    cfg: RunConfig, rule: QuadratureRule, override: bool
) -> tuple[ham.LinearHamiltonian, DTensor | None]:
    h = ham.assemble_linear(
        cfg.potential, n_basis=cfg.basis_size_n, ell=cfg.ell, lam=cfg.lam, rule=rule
    )
    dten = None
    if cfg.coupling_g != 0.0:
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


def cmd_scan(cfg: RunConfig, out, override: bool = False) -> None:
    """CSV: one row per energy with status and final scattering matrix."""
    results = _scan_results(cfg, override)
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


def cmd_table(cfg: RunConfig, out, override: bool = False) -> None:
    """Text table of |1 - S_m| per perturbation order m, energies as columns."""
    results = _scan_results(cfg, override)
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


def _basis_block(cfg: RunConfig, basis: str, out) -> None:
    point = energy_point(cfg.energies[0], cfg.lam)
    start, stop, count = cfg.r_grid
    r = np.linspace(start, stop, count)
    ref = reference_coefficients(point, cfg.ell, cfg.basis_size_n, basis=basis)
    chi_sin = chi_reconstruct(ref.s, cfg.ell, cfg.lam, r, basis=basis)
    chi_cos = chi_reconstruct(ref.c, cfg.ell, cfg.lam, r, basis=basis)
    reg = regular_target(point, cfg.ell, r)
    irr = irregular_target(point, cfg.ell, r)
    out.write(f"# basis = {basis}, ell = {cfg.ell}, E = {point.energy:g}, "
              f"lambda = {cfg.lam:g}, N = {cfg.basis_size_n}\n")
    out.write("r,chi_sin,chi_reg_target,chi_cos,chi_irr_target\n")
    for i in range(r.size):
        out.write(
            f"{r[i]:.6f},{chi_sin[i]:.6f},{reg[i]:.6f},{chi_cos[i]:.6f},{irr[i]:.6f}\n"
        )
    finite = np.isfinite(irr)
    outer = finite & (r >= 0.5 * (start + stop))
    dev_sin = float(np.abs(chi_sin - reg).max())
    dev_cos = float(np.abs(chi_cos[outer] - irr[outer]).max())
    out.write(f"# max_dev_sin = {dev_sin:.6e}\n")
    out.write(f"# max_dev_cos_outer_half = {dev_cos:.6e}\n")


def cmd_basis_check(cfg: RunConfig, out) -> None:
    """Reconstruction CSV at the first grid energy, plus deviation summaries."""
    bases = ("oscillator", "laguerre") if cfg.basis_check == "both" else (cfg.basis_check,)
    for basis in bases:
        _basis_block(cfg, basis, out)


def stability_rows(
    cfg: RunConfig,
    lambdas=_DEFAULT_LAMBDA_GRID,
    n_values=_DEFAULT_N_GRID,
    drift_threshold: float = 1e-3,
    override: bool = False,
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
    continuum levels scale with lambda and never match.
    """
    energy = cfg.energies[0]
    rule = _problem_rule(cfg)
    rows = []
    for n_basis in n_values:
        features = []
        # F depends on the basis size only, not on its scale.
        f_edge = ham.f_weight_quadrature(cfg.nonlinearity_n, cfg.ell, int(n_basis))[-1, -1]
        for lam in lambdas:
            sub = replace(cfg, lam=float(lam), basis_size_n=int(n_basis))
            h, dten = _build_problem(sub, rule, override)
            res = solve_energy(
                energy, h, dten, coupling=sub.coupling_g, tolerance=sub.tolerance,
                bifurcation_tolerance=sub.bifurcation_tolerance,
                max_iterations=sub.max_iterations,
            )
            spectrum = np.sort(h.eigenvalues)
            near = spectrum[np.argsort(np.abs(spectrum - energy))[:5]]
            features.append(np.sort(near))
            rows.append({
                "lam": float(lam), "N": int(n_basis),
                "abs_one_minus_S": res.abs_one_minus_s,
                "nearest_eig": float(near[0]),
                "pot_edge": abs(h.potential_matrix[-1, -1]), "f_edge": f_edge,
            })
        for i in range(len(lambdas)):
            drifts = [0.0]
            for j in (i - 1, i + 1):
                if 0 <= j < len(lambdas):
                    a, b = features[i], features[j]
                    rel = np.abs(a[:, None] - b[None, :]) / np.maximum(
                        np.abs(a[:, None]), 1.0
                    )
                    drifts.append(float(rel.min()))
            rows[len(rows) - len(lambdas) + i]["plateau"] = int(
                max(drifts) < drift_threshold
            )
    return rows


def select_parameters(rows: list[dict], prefer: tuple = (1.0, 20)) -> tuple:
    """Pick (lambda, N) from a stability sweep.

    The preferred point (the method's default scale and size) wins when
    it sits on the plateau; otherwise the flagged point with the largest
    N and then the scale closest to 1 is taken. No plateau at all is an
    error: the sweep grids must be widened.
    """
    flagged = [row for row in rows if row["plateau"]]
    if not flagged:
        raise ValueError("no stability plateau found; widen the (lambda, N) grids")
    for row in flagged:
        if (row["lam"], row["N"]) == (float(prefer[0]), int(prefer[1])):
            return (row["lam"], row["N"])
    best = max(flagged, key=lambda row: (row["N"], -abs(row["lam"] - 1.0)))
    return (best["lam"], best["N"])


def cmd_stability_scan(
    cfg: RunConfig, out, lambdas, n_values, drift_threshold: float, override: bool = False
) -> None:
    """CSV of the (lambda, N) sweep from `stability_rows`."""
    rows = stability_rows(cfg, lambdas, n_values, drift_threshold, override)
    out.write("lam,N,abs_one_minus_S,nearest_eig,pot_edge,f_edge,plateau\n")
    for row in rows:
        out.write(
            f"{row['lam']:.6f},{row['N']},{row['abs_one_minus_S']:.6f},"
            f"{row['nearest_eig']:.6f},{row['pot_edge']:.6e},{row['f_edge']:.6e},"
            f"{row['plateau']}\n"
        )


def _float_csv(text: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad numeric list {text!r}") from exc


def _int_csv(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad integer list {text!r}") from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="jmscatter",
        description="Elastic scattering of the planar nonlinear Schrodinger equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("scan", "per-energy scattering results as CSV"),
        ("table", "per-order |1-S| progression as text"),
        ("basis-check", "reference reconstruction against Bessel targets"),
        ("stability-scan", "basis-parameter sweep with plateau flags"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--output", default="-", help="output path, '-' for stdout")
        if name != "basis-check":
            p.add_argument("--override-quadrature-bound", action="store_true",
                           help="proceed below the tensor exactness bound")
        if name == "stability-scan":
            p.add_argument("--lambda-grid", default=None,
                           help="comma-separated basis scales")
            p.add_argument("--n-grid", default=None, help="comma-separated basis sizes")
            p.add_argument("--drift-threshold", type=float, default=1e-3)

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        sink = sys.stdout if args.output == "-" else open(args.output, "w", encoding="utf-8")
        try:
            if args.command == "scan":
                cmd_scan(cfg, sink, override=args.override_quadrature_bound)
            elif args.command == "table":
                cmd_table(cfg, sink, override=args.override_quadrature_bound)
            elif args.command == "basis-check":
                cmd_basis_check(cfg, sink)
            else:
                lambdas = _float_csv(args.lambda_grid) if args.lambda_grid else _DEFAULT_LAMBDA_GRID
                ns = _int_csv(args.n_grid) if args.n_grid else _DEFAULT_N_GRID
                cmd_stability_scan(cfg, sink, lambdas, ns, args.drift_threshold,
                                   override=args.override_quadrature_bound)
        finally:
            if sink is not sys.stdout:
                sink.close()
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SingularMatrixError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
