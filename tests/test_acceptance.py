"""Acceptance gate: end-to-end reproduction targets at fixed tolerances.

Each test covers one shipping criterion; the terminal summary prints one
line per criterion. Targets are published table values or derived
constants frozen elsewhere in the suite.
"""

import math
from dataclasses import replace
from importlib.resources import files

import numpy as np
import pytest

from jmscatter.cli import _build_problem, _scan_results, load_config, stability_rows
from jmscatter.hamiltonian import (
    PowerExponentialPotential,
    assemble_linear,
    f_weight_quadrature,
)
from jmscatter.linearize import d_tensor, quadrature_bound
from jmscatter.quadrature import build_rule
from jmscatter.reference import (
    chi_reconstruct,
    free_targets,
    reference_coefficients,
)
from jmscatter.solver import greens_spectral, r_matrix, scan
from oracles import (
    c_tensor_matrix_poly,
    c_tensor_quadrature,
    f_weight_analytic,
    greens_diagonal_minor,
    greens_inverse,
    greens_offdiag_minor,
    integrate_weighted,
    locate_resonance,
)

CONFIG_DIR = files("jmscatter") / "configs"
# The six-decimal paper constants are met to within their rounding: the
# worst deviation is 4.8e-7. The E = 3 cycle's constants have three decimals.
PAPER_ABS = 1e-6

TRAPEZOID_CUBIC_CONVERGED = (
    1.145541, 1.944628, 0.267753, 1.999996, 1.410498, 0.695971, 0.048302,
)
TRAPEZOID_QUINTIC_CONVERGED = {
    1.0: 1.120633, 2.0: 1.951591, 5.0: 1.606543, 6.0: 0.909557, 7.0: 0.175036,
}
GAUSS_L0_M0 = (1.812830, 1.837006, 1.854225, 1.893239, 1.911352)
GAUSS_L0_CONVERGED = (1.814162, 1.838208, 1.856844, 1.894445, 1.912217)
GAUSS_L1_M0 = (0.197112, 0.330442, 0.882281, 1.995810, 0.727485, 0.111258)
GAUSS_L1_CONVERGED = (0.193032, 0.324751, 0.868347, 1.962627, 0.778133, 0.123286)


def run_config(name, override=False):
    cfg = load_config(str(CONFIG_DIR / name))
    return cfg, _scan_results(cfg, override)


def test_criterion_1_trapezoid_cubic_table():
    cfg, results = run_config("table3.yaml")
    assert cfg.energies == tuple(float(e) for e in range(1, 8))
    for res, target in zip(results, TRAPEZOID_CUBIC_CONVERGED):
        assert res.status == "converged"
        assert res.abs_one_minus_s == pytest.approx(target, abs=PAPER_ABS)


def test_criterion_2_trapezoid_quintic_low_order_table():
    cfg, results = run_config("table4.yaml", override=True)
    by_energy = dict(zip(cfg.energies, results))

    for energy, target in TRAPEZOID_QUINTIC_CONVERGED.items():
        res = by_energy[energy]
        assert res.status == "converged", f"E={energy}"
        assert res.abs_one_minus_s == pytest.approx(target, abs=PAPER_ABS)

    # E = 4 is slow: judged at order 25 rather than at convergence
    res4 = by_energy[4.0]
    at_25 = abs(1.0 - res4.history[min(25, len(res4.history) - 1)])
    assert at_25 == pytest.approx(1.945614, abs=PAPER_ABS)

    # E = 3 never converges: a certified period-2 cycle is the answer
    res3 = by_energy[3.0]
    assert res3.status == "bifurcated"
    assert res3.period == 2
    assert res3.bifurcation[0] == pytest.approx(1.730, abs=1e-3)
    assert res3.bifurcation[1] == pytest.approx(0.075, abs=1e-3)


def test_criterion_3_stability_scan_then_gauss_tables():
    cfg1 = load_config(str(CONFIG_DIR / "table1.yaml"))
    rows = stability_rows(cfg1, lambdas=(0.8, 1.0, 1.2), n_values=(10, 20, 30))
    # the method's default scale and size sit on the stability plateau
    lam, n_basis = 1.0, 20
    assert [row["plateau"] for row in rows if (row["lam"], row["N"]) == (lam, n_basis)] == [1]
    assert cfg1.lam == lam and cfg1.basis_size_n == n_basis

    for name, m0_row, conv_row in (
        ("table1.yaml", GAUSS_L0_M0, GAUSS_L0_CONVERGED),
        ("table2.yaml", GAUSS_L1_M0, GAUSS_L1_CONVERGED),
    ):
        cfg, results = run_config(name)
        assert (cfg.lam, cfg.basis_size_n) == (lam, n_basis)
        for res, m0, conv in zip(results, m0_row, conv_row):
            assert res.status == "converged"
            assert abs(1.0 - res.history[0]) == pytest.approx(m0, abs=PAPER_ABS)
            assert res.abs_one_minus_s == pytest.approx(conv, abs=PAPER_ABS)
            at_9 = abs(1.0 - res.history[min(9, len(res.history) - 1)])
            assert at_9 == pytest.approx(res.abs_one_minus_s, abs=1e-3)


def linear_s(ham):
    """S at each of a sequence of energies from one g = 0 `scan`, for `locate_resonance`."""
    return lambda energies: [res.s_matrix for res in scan(energies, ham)]


def test_criterion_4_resonance_positions():
    # fig1's s-wave peak is 4.9e-4 wide and fig2's p-wave one about 0.2. Each is located
    # below the 0.002 grid step at N = 20, 40 and 80, with the configs' 5 nodes per basis function.
    for name, target, near, agree in (("fig1.yaml", 2.5171, 1e-4, 5e-5), ("fig2.yaml", 4.11, 0.02, 0.015)):
        cfg = load_config(str(CONFIG_DIR / name))
        assert cfg.quadrature_order == 5 * cfg.basis_size_n == 100
        found = []
        for n_basis in (20, 40, 80):
            sub = replace(cfg, basis_size_n=n_basis, quadrature_order=5 * n_basis)
            ham, _ = _build_problem(sub, build_rule(sub.quadrature_order, sub.ell), False)
            found.append(locate_resonance(linear_s(ham), cfg.energies)[0])
        assert found[0] == pytest.approx(target, abs=near), name
        assert max(found) - min(found) < agree, f"{name}: {found}"


def test_criterion_5_reference_reconstruction():
    r = np.linspace(0.0, 25.0, 500)
    outer = r >= 12.5
    # The Laguerre-basis cosine-like solution is regular at the origin; it
    # meets sqrt(kr) Y_ell only outside a regularization layer that decays
    # like e^{-lam r/2} and does not shrink with N (0.4 at r = 12.5 for
    # ell = 3), so its asymptotic target is judged on a far window.
    r_far = np.linspace(40.0, 80.0, 500)
    sin_failures, cos_failures = [], []
    for basis in ("oscillator", "laguerre"):
        for ell, energy in ((0, 1.5), (1, 1.0), (2, 1.5), (3, 2.5)):
            s, c = reference_coefficients(energy, 1.0, ell, 1000, basis=basis)
            chi_sin = chi_reconstruct(s, ell, 1.0, r, basis=basis)
            dev_sin = float(np.abs(chi_sin - free_targets(energy, ell, r)[0]).max())
            if dev_sin >= 1e-6:
                sin_failures.append(f"{basis} ell={ell} E={energy}: {dev_sin:.3e}")
            r_cos = r[outer] if basis == "oscillator" else r_far
            chi_cos = chi_reconstruct(c, ell, 1.0, r_cos, basis=basis)
            target = free_targets(energy, ell, r_cos)[1]
            dev_cos = float(np.abs(chi_cos - target).max())
            if dev_cos >= 1e-3:
                cos_failures.append(f"{basis} ell={ell} E={energy}: {dev_cos:.3e}")
    assert not sin_failures and not cos_failures, (
        "truncated-basis reconstruction misses the asymptotic tolerances; "
        f"sin over 1e-6: {sin_failures or 'none'}; "
        f"cos over 1e-3 (oscillator r >= 12.5, laguerre r in [40, 80]): "
        f"{cos_failures or 'none'}"
    )


def test_criterion_6_property_suite(rule100_l0):
    # quadrature: exact through degree 2Q-1, visibly wrong at 2Q
    rule8 = build_rule(8, 0)
    for m in range(16):
        got = integrate_weighted(rule8, rule8.nodes**m)
        assert got == pytest.approx(math.factorial(m), rel=1e-13)
    sharp = integrate_weighted(rule8, rule8.nodes**16)
    assert abs(sharp - math.factorial(16)) / math.factorial(16) > 1e-10

    # product-expansion tensor: independent routes agree, all-index symmetry
    # (minimal exact order: larger rules reach nodes where the high-degree
    # polynomial values overwhelm the weighted cancellation)
    rule_min = build_rule(quadrature_bound(1, 8), 0)
    ct_q = c_tensor_quadrature(1, 0, 8, rule_min)
    ct_m = c_tensor_matrix_poly(1, 0, 8)
    scale = np.abs(ct_q.coeff).max()
    assert np.abs(ct_q.coeff - ct_m.coeff).max() < 1e-10 * scale
    for a, b in ((0, 5), (3, 4), (7, 7)):
        row = ct_q.lookup((a, b))
        for q in range(min(8, row.size)):
            assert abs(row[q] - ct_q.lookup(tuple(sorted((a, q))))[b]) < 1e-12 * scale

    # nonlinear weight integrals: closed form against exact quadrature
    for n, ell in ((1, 0), (1, 1), (2, 0)):
        fa = f_weight_analytic(n, ell, 20, 20)
        fq = f_weight_quadrature(n, ell, 20)
        assert np.abs(fa - fq).max() < 1e-10 * np.abs(fq).max()

    # effective interaction: exactly symmetric
    dten = d_tensor(1, 0, 8, build_rule(40, 0))
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=8) + 1j * rng.normal(size=8)
    rm, _ = r_matrix(dten, coeffs, 1.0)
    assert np.array_equal(rm, rm.T)

    # resolvent: three routes agree entry by entry (the spectral route
    # gives the edge column only)
    rng = np.random.default_rng(6)
    h = rng.normal(size=(6, 6))
    h = 0.5 * (h + h.T)
    evals, evecs = np.linalg.eigh(h)
    direct = greens_inverse(h, 0.31)
    assert np.abs(direct[:, -1] - greens_spectral(evals, evecs, [0.31])[0][0]).max() < 1e-9
    for i in range(6):
        assert greens_diagonal_minor(h, i, 0.31) == pytest.approx(
            direct[i, i], rel=1e-9, abs=1e-12
        )
    assert greens_offdiag_minor(h, 0, 5, 0.31) == pytest.approx(
        direct[0, 5], rel=1e-9, abs=1e-12
    )

    # scattering matrix: unimodular at every order, free limit is S = 1
    potential = PowerExponentialPotential(strength=7.5, power=2.0, decay=1.0)
    ham = assemble_linear(potential, n_basis=20, ell=0, lam=1.0, rule=rule100_l0)
    dten20 = d_tensor(1, 0, 20, rule100_l0)
    [res] = scan([2.50], ham, dten20, coupling=0.001)
    for s in res.history:
        assert abs(abs(s) - 1.0) < 1e-8

    free = assemble_linear(
        PowerExponentialPotential(strength=0.0, power=2.0, decay=1.0),
        n_basis=20, ell=0, lam=1.0, rule=rule100_l0,
    )
    for res_free in scan((0.5, 2.0), free):
        assert abs(res_free.s_matrix - 1.0) < 1e-8

    # coupling continuity: g -> 0 rejoins the linear scattering matrix
    s_lin = scan([2.45], ham)[0].s_matrix
    s_tiny = scan([2.45], ham, dten20, coupling=1e-6)[0].s_matrix
    assert abs(s_tiny - s_lin) < 1e-4
