"""Resolvent routes, effective interaction, and the scattering iteration."""

import itertools
import math
import re
import sys
from importlib.resources import files

import numpy as np
import pytest

from jmscatter.hamiltonian import (
    PiecewiseLinearPotential,
    PowerExponentialPotential,
    assemble_linear,
    f_weight_quadrature,
)
from jmscatter.cli import _build_problem, load_config
from jmscatter.linearize import d_tensor, quadrature_bound
from jmscatter import solver, specfun
from jmscatter.quadrature import build_rule
from jmscatter.reference import energy_point, reference_coefficients
from jmscatter.solver import (
    ScatteringResult,
    SingularMatrixError,
    greens_matrix,
    greens_spectral,
    r_matrix,
    resonance_energy,
    scan,
    solve_energy,
)
from oracles import (
    c_tensor_quadrature,
    greens_diagonal_minor,
    greens_inverse,
    greens_offdiag_minor,
)


def random_symmetric(size, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(size, size))
    return 0.5 * (m + m.T)


@pytest.fixture(scope="module")
def gauss_setup(rule100_l0):
    potential = PowerExponentialPotential(strength=7.5, power=2.0, decay=1.0)
    ham = assemble_linear(potential, n_basis=20, ell=0, lam=1.0, rule=rule100_l0)
    dten = d_tensor(1, 0, 20, rule100_l0)
    return ham, dten


@pytest.fixture(scope="module")
def trapezoid_setup():
    rule = build_rule(30, 1)
    potential = PiecewiseLinearPotential(
        breakpoints=(0.0, 1.2, 3.0, 7.0), values=(0.0, 2.4, 2.4, 0.0)
    )
    ham = assemble_linear(potential, n_basis=20, ell=1, lam=1.0, rule=rule)
    dten = d_tensor(2, 1, 20, rule, override=True)
    return ham, dten


@pytest.fixture(scope="module", params=[0, 1])
def septic_setup(request):
    # n = 3 at N = 20: an expanded D tensor would stack C(25, 6) = 177,100
    # canonical 6-tuples of 20 x 20 doubles (about 567 MB)
    ell = request.param
    rule = build_rule(quadrature_bound(3, 20), ell)
    potential = PiecewiseLinearPotential(
        breakpoints=(0.0, 1.2, 3.0, 7.0), values=(0.0, 2.4, 2.4, 0.0)
    )
    ham = assemble_linear(potential, n_basis=20, ell=ell, lam=1.0, rule=rule)
    return ham, d_tensor(3, ell, 20, rule)


class TestGreens:
    def test_scalar_case(self):
        out = greens_matrix(np.array([[2.0]]), 1.0)
        assert out.shape == (1,)
        assert out[0] == pytest.approx(1.0, rel=1e-14)

    def test_inverse_residual(self):
        # the edge column solves (H - E) g = e_{N-1}
        h = random_symmetric(6, seed=11)
        g = greens_matrix(h, 0.37)
        residual = (h - 0.37 * np.eye(6)) @ g - np.eye(6)[:, -1]
        assert np.abs(residual).max() < 1e-9

    def test_direct_matches_spectral(self):
        h = random_symmetric(6, seed=12)
        evals, evecs = np.linalg.eigh(h)
        for energy in (-1.3, 0.2, 0.9, 2.7):
            direct = greens_inverse(h, energy)[:, -1]
            assert np.abs(greens_matrix(h, energy) - direct).max() < 1e-10
            assert np.abs(greens_spectral(evals, evecs, energy) - direct).max() < 1e-10

    def test_minor_ratio_routes_match_direct(self):
        # two determinant-based constructions of individual entries,
        # sharing nothing with the inversion route
        h = random_symmetric(6, seed=13)
        for energy in (-2.0, -0.5, 0.31, 1.11, 3.4):
            direct = greens_inverse(h, energy)
            for i in range(6):
                assert greens_diagonal_minor(h, i, energy) == pytest.approx(
                    direct[i, i], rel=1e-9, abs=1e-12
                )
            for i in range(6):
                for j in range(i + 1, 6):
                    assert greens_offdiag_minor(h, i, j, energy) == pytest.approx(
                        direct[i, j], rel=1e-9, abs=1e-12
                    )

    def test_deleted_spectrum_interlaces(self):
        h = random_symmetric(8, seed=14)
        full = np.linalg.eigvalsh(h)
        minor = np.linalg.eigvalsh(np.delete(np.delete(h, 3, axis=0), 3, axis=1))
        for k in range(7):
            assert full[k] <= minor[k] + 1e-12
            assert minor[k] <= full[k + 1] + 1e-12

    def test_degenerate_spectrum_falls_back(self):
        h = 2.0 * np.eye(3)
        assert greens_diagonal_minor(h, 1, 1.0) == pytest.approx(1.0, rel=1e-12)
        assert greens_offdiag_minor(h, 0, 2, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_singular_energy_refused(self):
        h = random_symmetric(5, seed=15)
        evals, evecs = np.linalg.eigh(h)
        with pytest.raises(SingularMatrixError):
            greens_matrix(h, float(evals[2]))
        with pytest.raises(SingularMatrixError):
            greens_spectral(evals, evecs, float(evals[2]))
        # refused exactly where the 2-norm condition number of H - E
        # exceeds 1e12: offsets from a level giving about 1e11 and 1e13
        widest = np.abs(evals - evals[2]).max()
        for target, refused in ((1e11, False), (1e13, True)):
            energy = float(evals[2] + widest / target)
            cond = np.linalg.cond(h - energy * np.eye(5))
            assert cond == pytest.approx(target, rel=0.1)
            assert (cond > 1e12) == refused
            if refused:
                with pytest.raises(SingularMatrixError):
                    greens_spectral(evals, evecs, energy)
                with pytest.raises(SingularMatrixError):
                    greens_matrix(h, energy)
            else:
                assert np.isfinite(greens_spectral(evals, evecs, energy)).all()
                assert np.isfinite(greens_matrix(h, energy)).all()


@pytest.fixture(scope="module")
def contraction():
    # the rule order is well above the polynomial exactness bound because
    # the node-space route also samples a non-polynomial e^{-n xi} factor
    n, ell, n_basis = 1, 1, 6
    assert quadrature_bound(n, n_basis) <= 40
    rule = build_rule(40, ell)
    dten = d_tensor(n, ell, n_basis, rule)
    rng = np.random.default_rng(21)
    coeffs = rng.normal(size=n_basis) + 1j * rng.normal(size=n_basis)
    return dten, rule, coeffs


class TestRMatrix:

    # Q = 300 and 400 have dead nodes (zero weight under the square root);
    # (3, 0, 20, 61) sits below the exactness bound
    @pytest.mark.parametrize(
        "n,ell,n_basis,order", [(1, 1, 6, 40), (2, 1, 20, 300), (3, 0, 20, 61), (1, 3, 30, 400)]
    )
    def test_output_symmetric_real(self, n, ell, n_basis, order):
        rule = build_rule(order, ell)
        dten = d_tensor(n, ell, n_basis, rule, override=order < quadrature_bound(n, n_basis))
        rng = np.random.default_rng(order)
        coeffs = rng.normal(size=n_basis) + 1j * rng.normal(size=n_basis)
        rm = r_matrix(dten, coeffs, 1.3)
        assert rm.dtype == np.float64
        assert np.all(np.isfinite(rm))
        assert np.array_equal(rm, rm.T)

    def test_dual_route_against_product_expansion(self, contraction):
        # reroute the contraction through the product-expansion tensor and
        # the weighted polynomial integrals; no array is shared with the
        # node-space route
        dten, rule, coeffs = contraction
        n, ell, n_basis = dten.n, dten.ell, dten.n_basis
        lam = 1.3
        ct = c_tensor_quadrature(n, ell, n_basis, rule)
        q_dim = ct.coeff.shape[1]
        fblock = f_weight_quadrature(n, ell, q_dim)
        g = np.zeros((n_basis, q_dim), dtype=complex)
        for i in range(n_basis):
            for k in range(n_basis):
                g[i] += coeffs[k] * ct.lookup(tuple(sorted((k, i))))
        hc = np.zeros((n_basis, q_dim), dtype=complex)
        for j in range(n_basis):
            for k in range(n_basis):
                hc[j] += np.conj(coeffs[k]) * ct.lookup(tuple(sorted((k, j))))
        pref = (2.0 * lam**2 / math.factorial(ell)) ** n
        raw = pref * g @ fblock @ hc.T
        expected = (0.5 * (raw + raw.conj().T)).real
        rm = r_matrix(dten, coeffs, lam)
        scale = np.abs(expected).max()
        assert np.abs(rm - expected).max() < 1e-8 * scale

    def test_short_coefficients_rejected(self, contraction):
        dten, _, _ = contraction
        with pytest.raises(ValueError):
            r_matrix(dten, np.ones(3), 1.0)


class TestSolveEnergy:
    def test_free_particle_unit_s(self, rule100_l0):
        potential = PowerExponentialPotential(strength=0.0, power=2.0, decay=1.0)
        ham = assemble_linear(potential, n_basis=20, ell=0, lam=1.0, rule=rule100_l0)
        for res in scan((0.5, 1.7, 3.0), ham):
            assert abs(res.s_matrix - 1.0) < 1e-8

    def test_linear_path_status(self, gauss_setup):
        ham, _ = gauss_setup
        res = solve_energy(2.5, ham)
        assert res.status == "converged"
        assert res.iterations == 0
        assert len(res.history) == 1

    def test_coupling_without_d_tensor_refused(self, gauss_setup):
        ham, _ = gauss_setup
        with pytest.raises(ValueError, match="D tensor"):
            solve_energy(2.5, ham, coupling=0.5)
        with pytest.raises(ValueError, match="D tensor"):
            scan((2.5,), ham, coupling=0.5)

    def test_scan_fast_path_matches_direct(self, gauss_setup):
        ham, _ = gauss_setup
        energies = (0.9, 2.2, 3.6)
        fast = scan(energies, ham)
        for e, res in zip(energies, fast):
            assert res == solve_energy(e, ham)

    def test_unimodular_along_whole_history(self, gauss_setup):
        ham, dten = gauss_setup
        res = solve_energy(2.50, ham, dten, coupling=0.001)
        assert res.status == "converged"
        for s in res.history:
            assert abs(abs(s) - 1.0) < 1e-8
        assert res.unimodularity_defect < 1e-8

    def test_small_coupling_continuity(self, gauss_setup):
        ham, dten = gauss_setup
        s0 = solve_energy(2.45, ham).s_matrix
        s1 = solve_energy(2.45, ham, dten, coupling=1e-6).s_matrix
        assert abs(s1 - s0) < 1e-4

    def test_eigenvalue_energy_is_nudged(self, gauss_setup):
        # on the localized level the resolvent is singular; the solve must
        # sidestep instead of raising, whatever the iteration then does
        ham, dten = gauss_setup
        trapped = float(ham.eigenvalues[np.argmin(np.abs(ham.eigenvalues - 2.5))])
        res = solve_energy(trapped, ham, dten, coupling=0.001)
        assert res.status in ("converged", "bifurcated")
        assert res.energy == pytest.approx(trapped, rel=1e-5)
        assert res.energy != trapped
        assert abs(abs(res.s_matrix) - 1.0) < 1e-8

    def test_linear_eigenvalue_energy_is_nudged(self, gauss_setup):
        ham, _ = gauss_setup
        trapped = float(ham.eigenvalues[np.argmin(np.abs(ham.eigenvalues - 2.5))])
        (res,) = scan((trapped,), ham)
        assert res.energy != trapped
        assert res.energy == pytest.approx(trapped, rel=1e-5)
        assert abs(abs(res.s_matrix) - 1.0) < 1e-8

    def test_singular_after_nudge_raises(self, gauss_setup, monkeypatch):
        ham, dten = gauss_setup
        attempts = []

        def refuse(eigenvalues, eigenvectors, energy):
            attempts.append(energy)
            raise SingularMatrixError(f"refused at E={energy!r}")

        monkeypatch.setattr(solver, "greens_spectral", refuse)
        with pytest.raises(SingularMatrixError):
            solve_energy(2.5, ham, dten, coupling=0.001)
        assert len(attempts) == 2
        assert attempts[0] == 2.5 and attempts[1] != 2.5

    def test_period_two_cycle_detected(self, trapezoid_setup):
        ham, dten = trapezoid_setup
        res = solve_energy(3.0, ham, dten, coupling=0.02, max_iterations=50)
        assert res.status == "bifurcated"
        assert res.period == 2
        assert res.bifurcation is not None
        assert res.bifurcation[0] == pytest.approx(1.730, abs=1e-2)
        assert res.bifurcation[1] == pytest.approx(0.075, abs=1e-2)

    @pytest.mark.parametrize("energy", [2.70, 3.26])
    def test_merging_values_revoke_the_cycle(self, trapezoid_setup, energy):
        # a fixed point approached with alternating sign passes the period-2
        # streak, but its two values merge: no cycle, and given enough
        # orders it converges to the value the false cycle reported
        ham, dten = trapezoid_setup
        res = solve_energy(energy, ham, dten, coupling=0.02, max_iterations=50)
        assert res.status == "max-iterations"
        longer = solve_energy(energy, ham, dten, coupling=0.02, max_iterations=200)
        assert longer.status == "converged"
        assert longer.iterations < 200

    @pytest.mark.parametrize(
        "energy,values", [(2.77, ("1.902051", "1.615889")), (3.0, ("1.729838", "0.074315"))]
    )
    def test_genuine_cycles_keep_their_values(self, trapezoid_setup, energy, values):
        ham, dten = trapezoid_setup
        res = solve_energy(energy, ham, dten, coupling=0.02, max_iterations=50)
        assert res.status == "bifurcated" and res.period == 2
        assert tuple(f"{v:.6f}" for v in res.bifurcation) == values

    def test_certified_cycle_values_stay_apart(self, trapezoid_setup):
        # the quintic grid across its period-doubling window, E = 2.60..3.34
        ham, dten = trapezoid_setup
        results = scan([2.6 + 0.02 * i for i in range(38)], ham, dten, coupling=0.02)
        cycles = [res for res in results if res.status == "bifurcated"]
        assert len(cycles) > 20
        for res in cycles:
            assert res.bifurcation[0] - res.bifurcation[-1] >= 1e-3

    @staticmethod
    def script_s(monkeypatch, s_of_order):
        # phase_shift returns S_m = s_of_order(m); R, the resolvent and the
        # coefficients of every order are still computed for real
        orders = itertools.count()
        monkeypatch.setattr(solver, "phase_shift", lambda *args: s_of_order(next(orders)))

    def test_period_three_cycle_detected(self, gauss_setup, monkeypatch):
        cycle = [complex(np.exp(2j * phi)) for phi in (0.3, 1.1, 2.0)]
        self.script_s(monkeypatch, lambda m: cycle[m % 3])
        ham, dten = gauss_setup
        res = solve_energy(2.5, ham, dten, coupling=0.001)
        assert res.status == "bifurcated" and res.period == 3
        # certified after 4 periodic orders (m = 3..6), settled at m = 7
        assert res.iterations == 7
        assert res.bifurcation == tuple(sorted((abs(1.0 - s) for s in cycle), reverse=True))

    @pytest.mark.parametrize("cap,status", [(50, "max-iterations"), (100, "converged")])
    def test_alternating_approach_is_revoked(self, gauss_setup, monkeypatch, cap, status):
        # steps shrink by -0.8 per order: period 2 is certified at m = 22 and
        # revoked at m = 25, once |S_m - S_{m-1}| falls below 1e-3
        self.script_s(monkeypatch, lambda m: complex(np.exp(2j * (1.0 + 0.05 * (-0.8) ** m))))
        ham, dten = gauss_setup
        res = solve_energy(2.5, ham, dten, coupling=0.001, max_iterations=cap)
        assert res.status == status and res.period is None and res.bifurcation is None

    @pytest.mark.parametrize("energy", [1.0, 2.0, 3.0])
    def test_septic_unimodular_every_order(self, septic_setup, energy):
        ham, dten = septic_setup
        res = solve_energy(energy, ham, dten, coupling=0.02)
        assert res.iterations >= 1
        for s in res.history:
            assert abs(abs(s) - 1.0) < 1e-12

    def test_septic_small_coupling_continuity(self, septic_setup):
        ham, dten = septic_setup
        s0 = solve_energy(1.0, ham).s_matrix
        s1 = solve_energy(1.0, ham, dten, coupling=1e-6).s_matrix
        assert abs(s1 - s0) < 1e-4
        # elsewhere the first-order response dS/dg is larger, but the
        # departure from the linear S still shrinks in proportion to g
        for energy in (2.0, 3.0):
            s0 = solve_energy(energy, ham).s_matrix
            big = abs(solve_energy(energy, ham, dten, coupling=1e-6).s_matrix - s0)
            small = abs(solve_energy(energy, ham, dten, coupling=1e-7).s_matrix - s0)
            assert big == pytest.approx(10.0 * small, rel=1e-2)

    def test_one_interior_solve_per_order(self, gauss_setup, trapezoid_setup, monkeypatch):
        calls = []
        original = solver.interior_coefficients

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(solver, "interior_coefficients", counted)
        for (ham, dten), energy, coupling, cap, status in (
            (gauss_setup, 2.5, 0.001, 50, "converged"),
            (trapezoid_setup, 3.0, 0.02, 50, "bifurcated"),
            (gauss_setup, 2.5, 0.001, 2, "max-iterations"),
        ):
            calls.clear()
            res = solve_energy(energy, ham, dten, coupling=coupling, max_iterations=cap)
            assert res.status == status
            assert len(calls) == res.iterations

    def test_scan_builds_no_j_matrix_per_energy(self, gauss_setup, monkeypatch):
        # every energy reads the J-matrix the Hamiltonian already holds
        calls = []
        original = specfun.jacobi_coefficients

        def counted(*args):
            calls.append(args)
            return original(*args)

        for name, module in list(sys.modules.items()):
            if name == "jmscatter" or name.startswith("jmscatter."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
        ham, _ = gauss_setup
        assert len(scan(np.linspace(0.5, 6.0, 50), ham)) == 50
        assert calls == []
        reference_coefficients(energy_point(1.0, 1.0), 0, 20)
        assert len(calls) == 1

    def test_iteration_cap_requires_work(self, gauss_setup):
        ham, dten = gauss_setup
        with pytest.raises(ValueError):
            solve_energy(2.5, ham, dten, coupling=0.001, max_iterations=0)


def _config_problem(name):
    cfg = load_config(str(files("jmscatter") / "configs" / f"{name}.yaml"))
    ham, dten = _build_problem(cfg, build_rule(cfg.quadrature_order, cfg.ell), override=True)
    options = dict(
        coupling=cfg.coupling_g, tolerance=cfg.tolerance,
        bifurcation_tolerance=cfg.bifurcation_tolerance, max_iterations=cfg.max_iterations,
    )
    return cfg, ham, dten, options


class TestGridIsItsOneEnergySolves:
    """scan solves order 0 of a whole block of energies at once; each result
    must still equal that energy's own solve exactly: energy, status,
    period and every S_m."""

    @pytest.mark.parametrize("name", ["fig1", "table3"])
    def test_config_grid(self, name):
        # fig1: 2751 linear energies over three blocks; table3: cubic coupling
        cfg, ham, dten, options = _config_problem(name)
        results = scan(list(cfg.energies), ham, dten, **options)
        assert len(results) == len(cfg.energies)
        for energy, res in zip(cfg.energies, results):
            assert res == solve_energy(energy, ham, dten, **options)
            assert res.energy == energy

    @pytest.mark.parametrize("coupling", [0.0, 0.001])
    def test_only_the_trapped_energy_is_nudged(self, gauss_setup, coupling):
        ham, dten = gauss_setup
        trapped = float(ham.eigenvalues[np.argmin(np.abs(ham.eigenvalues - 2.5))])
        energies = [2.3, 2.45, trapped, 2.55, 2.7]
        results = scan(energies, ham, dten, coupling=coupling)
        for energy, res in zip(energies, results):
            assert res == solve_energy(energy, ham, dten, coupling=coupling)
            assert (res.energy != energy) == (energy == trapped)


class TestInputsRefusedByValue:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_bad_energy_refused_by_value(self, gauss_setup, bad):
        ham, dten = gauss_setup
        message = re.escape(f"scattering energy must be finite and positive, got {bad!r}")
        with pytest.raises(ValueError, match=message):
            scan([1.0, bad, 2.0], ham)
        with pytest.raises(ValueError, match=message):
            solve_energy(bad, ham, dten, coupling=0.001)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_bad_scale_refused_by_value(self, rule100_l0, bad):
        potential = PowerExponentialPotential(strength=7.5, power=2.0, decay=1.0)
        with pytest.raises(ValueError, match=f"basis scale lam must be finite and positive, got {bad!r}"):
            assemble_linear(potential, n_basis=20, ell=0, lam=bad, rule=rule100_l0)


class TestResonanceEnergy:
    @staticmethod
    def synthetic_results(energies, center, width, background=0.3):
        out = []
        for e in energies:
            delta = background * e + np.arctan2(0.5 * width, center - e)
            s = complex(np.exp(2j * delta))
            out.append(ScatteringResult(energy=e, status="converged", history=(s,)))
        return out

    def test_recovers_narrow_peak(self):
        energies = np.arange(2.0, 3.0, 0.002)
        results = self.synthetic_results(energies, center=2.5, width=0.01)
        found = resonance_energy(energies, results)
        assert found == pytest.approx(2.5, abs=0.004)

    def test_background_crossing_does_not_win(self):
        # a slow background drags |1 - S| to its ceiling away from the
        # peak; the phase-derivative criterion must stay on the peak
        energies = np.arange(1.0, 4.0, 0.005)
        results = self.synthetic_results(energies, center=3.2, width=0.02, background=0.8)
        s = np.array([r.s_matrix for r in results])
        assert abs(energies[np.argmax(np.abs(1 - s))] - 3.2) > 0.3
        assert resonance_energy(energies, results) == pytest.approx(3.2, abs=0.01)

    def test_validation(self):
        energies = [1.0, 2.0, 3.0]
        results = self.synthetic_results(energies, center=2.0, width=0.1)
        with pytest.raises(ValueError):
            resonance_energy(energies[:2], results)
        with pytest.raises(ValueError):
            resonance_energy(energies[:2], results[:2])
