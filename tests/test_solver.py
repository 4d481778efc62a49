"""Resolvent routes, effective interaction, and the scattering iteration."""

import itertools
import math
import re
import sys
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from jmscatter.reference import oscillator_reference, reference_coefficients
from jmscatter.solver import (
    ScatteringResult,
    SingularMatrixError,
    greens_matrix,
    greens_spectral,
    phase_shift,
    r_matrix,
    scan,
)
from oracles import (
    c_tensor_quadrature,
    edge_coefficients_scalar,
    greens_diagonal_minor,
    greens_inverse,
    greens_offdiag_minor,
    locate_resonance,
    phase_shift_scalar,
    r_matrix_pairs,
)


def random_symmetric(size, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(size, size))
    return 0.5 * (m + m.T)


def shifted(h, energies):
    """The (B, N, N) stack h - E, one energy per matrix, which `greens_matrix` takes."""
    return h - np.asarray(energies, dtype=float)[:, None, None] * np.eye(h.shape[-1])


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
        out, conditioned = greens_matrix(shifted(np.array([[[2.0]]]), [1.0]), [1.0], np.array([2.0]), [0.0])
        assert out.shape == (1, 1) and conditioned.tolist() == [True]
        assert out[0, 0] == pytest.approx(1.0, rel=1e-14)

    def test_inverse_residual(self):
        # the edge column solves (H - E) g = e_{N-1}
        h = random_symmetric(6, seed=11)
        (g,), _ = greens_matrix(shifted(h[None], [0.37]), [0.37], levels=np.linalg.eigvalsh(h), spread=[0.0])
        residual = (h - 0.37 * np.eye(6)) @ g - np.eye(6)[:, -1]
        assert np.abs(residual).max() < 1e-9

    def test_direct_matches_spectral(self):
        h = random_symmetric(6, seed=12)
        evals, evecs = np.linalg.eigh(h)
        for energy in (-1.3, 0.2, 0.9, 2.7):
            direct = greens_inverse(h, energy)[:, -1]
            column = greens_matrix(shifted(h[None], [energy]), [energy], np.linalg.eigvalsh(h), [0.0])[0][0]
            assert np.abs(column - direct).max() < 1e-10
            assert np.abs(greens_spectral(evals, evecs, [energy])[0][0] - direct).max() < 1e-10

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
        # a refusal is a False in the mask, and the refused column stays zero
        levels = np.linalg.eigvalsh(h)
        for columns, conditioned in (greens_matrix(shifted(h[None], [evals[2]]), [evals[2]], levels, spread=[0.0]),
                                     greens_spectral(evals, evecs, [evals[2]])):
            assert conditioned.tolist() == [False]
            assert not columns.any()
        # refused exactly where the 2-norm condition number of H - E
        # exceeds 1e12: offsets from a level giving about 1e11 and 1e13
        widest = np.abs(evals - evals[2]).max()
        for target, refused in ((1e11, False), (1e13, True)):
            energy = float(evals[2] + widest / target)
            cond = np.linalg.cond(h - energy * np.eye(5))
            assert cond == pytest.approx(target, rel=0.1)
            assert (cond > 1e12) == refused
            for columns, conditioned in (greens_spectral(evals, evecs, [energy]),
                                         greens_matrix(shifted(h[None], [energy]), [energy], levels, spread=[0.0])):
                assert conditioned.tolist() == [not refused]
                assert np.isfinite(columns).all()

    def test_right_hand_sides_carry_the_stack_shape(self, monkeypatch):
        # numpy 1.x reads a right-hand side with one dimension fewer than the
        # (K, N, N) stack as K vectors, numpy 2 as one (N, 1) matrix: only a
        # (K, N, 1) one is read alike by both
        h = np.stack([random_symmetric(5, seed=seed) for seed in (16, 17, 18)])
        level = float(np.linalg.eigvalsh(h[1])[2])
        solve, shapes = np.linalg.solve, []

        def recording_solve(a, b):
            shapes.append((a.shape, b.shape))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        for energies in ([0.3, 0.4, 0.5], [0.3, level, 0.5]):
            columns, conditioned = greens_matrix(shifted(h, energies), energies, np.linalg.eigvalsh(h), [0.0] * 3)
            for row, energy, ok in zip(range(3), energies, conditioned.tolist()):
                if ok:
                    assert np.abs(columns[row] - greens_inverse(h[row], energy)[:, -1]).max() < 1e-10
        assert shapes == [((3, 5, 5), (3, 5, 1)), ((2, 5, 5), (2, 5, 1))]


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

    # Q = 300 and 400 have nodes whose Gauss weight underflows to zero;
    # (3, 0, 20, 61) sits below the exactness bound; (2, 1, 80, 240) takes
    # the per-row syrk above the paper's basis size
    @pytest.mark.parametrize(
        "n,ell,n_basis,order",
        [(1, 1, 6, 40), (2, 1, 20, 300), (3, 0, 20, 61), (1, 3, 30, 400), (2, 1, 80, 240)],
    )
    def test_output_symmetric_real(self, n, ell, n_basis, order):
        rule = build_rule(order, ell)
        dten = d_tensor(n, ell, n_basis, rule, override=order < quadrature_bound(n, n_basis))
        rng = np.random.default_rng(order)
        coeffs = rng.normal(size=n_basis) + 1j * rng.normal(size=n_basis)
        rm, top = r_matrix(dten, coeffs, 1.3)
        assert rm.dtype == np.float64
        assert np.all(np.isfinite(rm))
        assert np.array_equal(rm, rm.T)
        # top is the largest node weight W = pref |psi|^(2n), psi carrying
        # the envelope; R = Lambda W Lambda^T with orthonormal stencil rows
        # gives ||R||_2 <= max W, up to the rounding of the Q-term sums
        psi = coeffs @ dten.values
        weight = (2.0 * 1.3**2 / math.factorial(ell)) ** n * np.abs(psi) ** (2 * n)
        assert top == pytest.approx(weight.max(), rel=1e-12)
        assert np.linalg.eigvalsh(rm).max() <= top * (1 + 4 * order * np.finfo(float).eps)
        # a stack of coefficient rows: one R per row, each exactly
        # symmetric and equal to its one-row call
        rows = np.stack([coeffs, coeffs.conj(), 2.0 * coeffs[::-1]])
        stack, tops = r_matrix(dten, rows, 1.3)
        assert stack.shape == (3, n_basis, n_basis) and tops.shape == (3,)
        assert np.array_equal(stack, stack.swapaxes(-1, -2))
        assert np.array_equal(stack[0], rm) and tops[0] == top
        for row, one, one_top in zip(rows, stack, tops):
            alone, alone_top = r_matrix(dten, row, 1.3)
            assert np.array_equal(one, alone) and one_top == alone_top
            assert np.linalg.eigvalsh(one).max() <= one_top * (1 + 4 * order * np.finfo(float).eps)

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
        rm, _ = r_matrix(dten, coeffs, lam)
        scale = np.abs(expected).max()
        assert np.abs(rm - expected).max() < 1e-8 * scale

    def test_short_coefficients_rejected(self, contraction):
        dten, _, _ = contraction
        with pytest.raises(ValueError):
            r_matrix(dten, np.ones(3), 1.0)

    # the pair-table route rounds each of its Q-term sums differently: a
    # bound of 4 Q eps max|R| per entry, fixed from the dtype, and N times
    # that for the eigenvalues (||E||_2 <= N max|E_ij|)
    @pytest.mark.parametrize(
        "n,ell,n_basis,order", [(1, 0, 20, 100), (1, 1, 6, 40), (2, 1, 20, 30), (2, 1, 20, 300), (3, 0, 20, 61)]
    )
    def test_matches_pair_table_and_is_positive_semidefinite(self, n, ell, n_basis, order):
        rule = build_rule(order, ell)
        dten = d_tensor(n, ell, n_basis, rule, override=order < quadrature_bound(n, n_basis))
        rng = np.random.default_rng(7 * order + n)
        rows = rng.normal(size=(5, n_basis + 1)) + 1j * rng.normal(size=(5, n_basis + 1))
        entry_bound = 4 * order * np.finfo(float).eps
        stack, _ = r_matrix(dten, rows, 1.1)
        for row, got in zip(rows, stack):
            want = r_matrix_pairs(dten, row, 1.1)
            scale = np.abs(want).max()
            assert scale > 0.0
            assert np.abs(got - want).max() <= entry_bound * scale
            assert np.linalg.eigvalsh(got).min() >= -n_basis * entry_bound * scale


class TestEdgeMatching:
    """The stacked edge matching equals the scalar formulas of one energy
    bit for bit, and order 0's edge columns their per-energy products."""

    @pytest.fixture(scope="class", params=["table1", "table3", "table4"])
    def edges(self, request):
        # ell 0 and 1, cubic and quintic
        cfg, ham, _, _ = _config_problem(request.param)
        n = ham.n_basis
        energies = np.linspace(0.5, 6.0, 1024)
        ref_s, ref_c = oscillator_reference(energies, ham.lam, ham.ell, ham.coeffs)
        h_plus, h_minus = (ref_c[n - 1 :] + 1j * ref_s[n - 1 :]).T, (ref_c[n - 1 :] - 1j * ref_s[n - 1 :]).T
        g, conditioned = greens_spectral(ham.eigenvalues, ham.eigenvectors, energies)
        assert conditioned.all()
        return ham, energies, h_plus, h_minus, g, ham.coeffs[1][n - 1]

    def test_phase_shift_equals_the_scalar_formula(self, edges):
        _, _, h_plus, h_minus, g, b_edge = edges
        rng = np.random.default_rng(5)
        # order 0's corners, then corners of every magnitude a later order can give
        for corners in (g[:, -1], rng.normal(size=len(g)) * 10.0 ** rng.uniform(-6, 3, size=len(g))):
            got = phase_shift(h_plus, corners, b_edge)
            want = np.array([phase_shift_scalar(hp, hm, c, b_edge) for hp, hm, c in zip(h_plus, h_minus, corners)])
            assert got.tobytes() == want.tobytes()

    def test_edge_coefficients_equal_the_scalar_formula(self, edges):
        _, _, h_plus, h_minus, g, b_edge = edges
        s = np.exp(1j * np.random.default_rng(6).uniform(0.0, 2 * np.pi, size=len(g)))
        got = solver.interior_coefficients(s, h_plus, g, b_edge)[:, -2:]
        want = np.array([edge_coefficients_scalar(*row) for row in zip(s, h_plus, h_minus)])
        assert got.tobytes() == want.tobytes()

    def test_spectral_columns_are_per_energy_products(self, edges):
        ham, energies, _, _, g, _ = edges
        vectors = ham.eigenvectors
        want = np.array([vectors @ (vectors[-1] / (ham.eigenvalues - energy)) for energy in energies])
        assert g.tobytes() == want.tobytes()


class TestSolveEnergy:
    def test_free_particle_unit_s(self, rule100_l0):
        potential = PowerExponentialPotential(strength=0.0, power=2.0, decay=1.0)
        ham = assemble_linear(potential, n_basis=20, ell=0, lam=1.0, rule=rule100_l0)
        for res in scan((0.5, 1.7, 3.0), ham):
            assert abs(res.s_matrix - 1.0) < 1e-8

    def test_linear_path_status(self, gauss_setup):
        ham, _ = gauss_setup
        [res] = scan([2.5], ham)
        assert res.status == "converged"
        assert res.iterations == 0
        assert len(res.history) == 1

    def test_coupling_without_d_tensor_refused(self, gauss_setup):
        ham, _ = gauss_setup
        with pytest.raises(ValueError, match="D tensor"):
            scan([2.5], ham, coupling=0.5)

    def test_scan_fast_path_matches_direct(self, gauss_setup):
        ham, _ = gauss_setup
        energies = (0.9, 2.2, 3.6)
        fast = scan(energies, ham)
        for e, res in zip(energies, fast):
            assert [res] == scan([e], ham)

    def test_unimodular_along_whole_history(self, gauss_setup):
        ham, dten = gauss_setup
        [res] = scan([2.50], ham, dten, coupling=0.001)
        assert res.status == "converged"
        for s in res.history:
            assert abs(abs(s) - 1.0) < 1e-8
        assert res.unimodularity_defect < 1e-8

    def test_small_coupling_continuity(self, gauss_setup):
        ham, dten = gauss_setup
        s0 = scan([2.45], ham)[0].s_matrix
        s1 = scan([2.45], ham, dten, coupling=1e-6)[0].s_matrix
        assert abs(s1 - s0) < 1e-4

    def test_eigenvalue_energy_is_nudged(self, gauss_setup):
        # on the localized level the resolvent is singular; the solve must
        # sidestep instead of raising, whatever the iteration then does
        ham, dten = gauss_setup
        trapped = float(ham.eigenvalues[np.argmin(np.abs(ham.eigenvalues - 2.5))])
        [res] = scan([trapped], ham, dten, coupling=0.001)
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

        def refuse(h_eff, energies, levels, spread):
            attempts.extend(energies.tolist())
            return np.zeros(h_eff.shape[:-1]), np.zeros(len(energies), dtype=bool)

        monkeypatch.setattr(solver, "greens_matrix", refuse)
        with pytest.raises(SingularMatrixError):
            scan([2.5], ham, dten, coupling=0.001)
        assert len(attempts) == 2
        assert attempts[0] == 2.5 and attempts[1] != 2.5

    def test_period_two_cycle_detected(self, trapezoid_setup):
        ham, dten = trapezoid_setup
        [res] = scan([3.0], ham, dten, coupling=0.02, max_iterations=50)
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
        [res] = scan([energy], ham, dten, coupling=0.02, max_iterations=50)
        assert res.status == "max-iterations"
        [longer] = scan([energy], ham, dten, coupling=0.02, max_iterations=200)
        assert longer.status == "converged"
        assert longer.iterations < 200

    @pytest.mark.parametrize(
        "energy,values", [(2.77, ("1.902050", "1.615889")), (3.0, ("1.729838", "0.074315"))]
    )
    def test_genuine_cycles_keep_their_values(self, trapezoid_setup, energy, values):
        ham, dten = trapezoid_setup
        [res] = scan([energy], ham, dten, coupling=0.02, max_iterations=50)
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
        monkeypatch.setattr(solver, "phase_shift", lambda edge, *args: np.full(len(edge), s_of_order(next(orders))))

    def test_period_three_cycle_detected(self, gauss_setup, monkeypatch):
        cycle = [complex(np.exp(2j * phi)) for phi in (0.3, 1.1, 2.0)]
        self.script_s(monkeypatch, lambda m: cycle[m % 3])
        ham, dten = gauss_setup
        [res] = scan([2.5], ham, dten, coupling=0.001)
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
        [res] = scan([2.5], ham, dten, coupling=0.001, max_iterations=cap)
        assert res.status == status and res.period is None and res.bifurcation is None

    @pytest.mark.parametrize("energy", [1.0, 2.0, 3.0])
    def test_septic_unimodular_every_order(self, septic_setup, energy):
        ham, dten = septic_setup
        [res] = scan([energy], ham, dten, coupling=0.02)
        assert res.iterations >= 1
        for s in res.history:
            assert abs(abs(s) - 1.0) < 1e-12

    def test_septic_small_coupling_continuity(self, septic_setup):
        ham, dten = septic_setup
        s0 = scan([1.0], ham)[0].s_matrix
        s1 = scan([1.0], ham, dten, coupling=1e-6)[0].s_matrix
        assert abs(s1 - s0) < 1e-4
        # elsewhere the first-order response dS/dg is larger, but the
        # departure from the linear S still shrinks in proportion to g
        for energy in (2.0, 3.0):
            s0 = scan([energy], ham)[0].s_matrix
            big = abs(scan([energy], ham, dten, coupling=1e-6)[0].s_matrix - s0)
            small = abs(scan([energy], ham, dten, coupling=1e-7)[0].s_matrix - s0)
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
            [res] = scan([energy], ham, dten, coupling=coupling, max_iterations=cap)
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
        reference_coefficients(1.0, 1.0, 0, 20)
        assert len(calls) == 1

    def test_iteration_cap_requires_work(self, gauss_setup):
        ham, dten = gauss_setup
        with pytest.raises(ValueError):
            scan([2.5], ham, dten, coupling=0.001, max_iterations=0)


def _config_problem(name):
    cfg = load_config(str(files("jmscatter") / "configs" / f"{name}.yaml"))
    ham, dten = _build_problem(cfg, build_rule(cfg.quadrature_order, cfg.ell), override=True)
    options = dict(
        coupling=cfg.coupling_g, tolerance=cfg.tolerance,
        bifurcation_tolerance=cfg.bifurcation_tolerance, max_iterations=cfg.max_iterations,
    )
    return cfg, ham, dten, options


class TestQuadratureConvergence:
    """With H held at the config's rule, S converges in the D tensor's
    rule order: the basis values at the Gauss nodes come from the
    enveloped recursion, accurate where the Gauss weight is tiny."""

    @pytest.mark.parametrize("name,atol", [("table3", 1e-12), ("table4", 1e-7)])
    def test_s_settles_in_the_rule_order(self, name, atol):
        cfg, ham, _, options = _config_problem(name)
        s = [
            scan([1.0], ham, d_tensor(cfg.nonlinearity_n, cfg.ell, cfg.basis_size_n, build_rule(order, cfg.ell)),
                 **options)[0].s_matrix
            for order in (120, 320)
        ]
        assert abs(s[0] - s[1]) <= atol


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
            assert [res] == scan([energy], ham, dten, **options)
            assert res.energy == energy

    def test_stacked_orders_match_one_energy_solves(self):
        # table4 across its period-doubling window: 150 energies in three
        # stacks at first, each leaving the stack at its own order
        cfg, ham, dten, options = _config_problem("table4")
        energies = [2.0 + k / 100 for k in range(150)]
        assert len(energies) > 2 * solver._STACK
        results = scan(energies, ham, dten, **options)
        assert len({res.iterations for res in results}) > 10
        for energy, res in zip(energies, results):
            assert [res] == scan([energy], ham, dten, **options)

    @pytest.mark.parametrize("coupling", [0.0, 0.001])
    def test_only_the_trapped_energy_is_nudged(self, gauss_setup, coupling):
        ham, dten = gauss_setup
        trapped = float(ham.eigenvalues[np.argmin(np.abs(ham.eigenvalues - 2.5))])
        energies = [2.3, 2.45, trapped, 2.55, 2.7]
        results = scan(energies, ham, dten, coupling=coupling)
        for energy, res in zip(energies, results):
            assert [res] == scan([energy], ham, dten, coupling=coupling)
            assert (res.energy != energy) == (energy == trapped)


class TestOrderMap:
    """Each order m >= 1 is one pure step g <- _order_map(g, S) on the real
    edge column, where the carried S is phase_shift of the previous g's
    corner entry; S_m is phase_shift of the new corner entry."""

    @pytest.mark.parametrize("name,energy", [("table3", 1.0), ("table4", 3.0)])
    def test_iterates_reproduce_the_history(self, name, energy):
        # table4 E=3 is the period-2 cycle, run below the exactness bound
        cfg, ham, dten, options = _config_problem(name)
        [res] = scan([energy], ham, dten, **options)
        assert res.iterations >= 5
        n = ham.n_basis
        ref_s, ref_c = oscillator_reference(energy, ham.lam, ham.ell, ham.coeffs)
        h_plus = ref_c[n - 1 :] + 1j * ref_s[n - 1 :]
        b_edge = ham.coeffs[1][n - 1]
        (g,), _ = greens_spectral(ham.eigenvalues, ham.eigenvectors, [energy])
        (s,) = phase_shift(h_plus[None], g[None, n - 1], b_edge)
        assert s == res.history[0]
        for expected in res.history[1:]:
            args = (g[None], np.array([s]), np.array([energy]), h_plus[None], b_edge, ham, dten, cfg.coupling_g)
            (g,), _ = solver._order_map(*args)
            assert g.dtype == np.float64 and g.shape == (n,)
            assert solver._order_map(*args)[0][0].tobytes() == g.tobytes()
            (s,) = phase_shift(h_plus[None], g[None, n - 1], b_edge)
            assert s == expected

    def test_refused_row_leaves_the_others_alone(self, monkeypatch):
        # the middle row's energy is an eigenvalue of its own H + c R: it is
        # refused with no LinAlgError escaping, its column stays zero, and
        # the other rows equal their one-row calls bit for bit
        cfg, ham, dten, _ = _config_problem("table3")
        n, c = ham.n_basis, cfg.coupling_g
        energies = np.array([1.0, 2.0, 3.0])
        ref_s, ref_c = oscillator_reference(energies, ham.lam, ham.ell, ham.coeffs)
        h_plus = (ref_c[n - 1 :] + 1j * ref_s[n - 1 :]).T
        b_edge = ham.coeffs[1][n - 1]
        g, _ = greens_spectral(ham.eigenvalues, ham.eigenvectors, energies)
        s = phase_shift(h_plus, g[:, -1], b_edge)
        a = solver.interior_coefficients(s, h_plus, g, b_edge)
        r, _ = r_matrix(dten, a[1], ham.lam)
        levels = np.linalg.eigvalsh(ham.matrix + c * r)
        energies[1] = levels[np.argmin(np.abs(levels - 2.0))]
        eigvalsh, stacks = np.linalg.eigvalsh, []

        def recording_eigvalsh(a):
            stacks.append(a.copy())
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        columns, conditioned = solver._order_map(g, s, energies, h_plus, b_edge, ham, dten, c)
        assert conditioned.tolist() == [True, False, True]
        # the refused row was not certified: the eigenvalue test refused it
        singular = ham.matrix + c * r - energies[1] * np.eye(n)
        assert len(stacks) == 1 and any(np.abs(m - singular).max() < 1e-12 for m in stacks[0])
        assert not columns[1].any()
        for j in (0, 2):
            one = slice(j, j + 1)
            alone, ok = solver._order_map(g[one], s[one], energies[one], h_plus[one], b_edge, ham, dten, c)
            assert ok.tolist() == [True]
            assert alone[0].tobytes() == columns[j].tobytes()


class TestConditionCertificate:
    """greens_matrix vouches for a row's condition from the eigenvalues of H
    and a bound c max W of c ||R||_2; only the rows it cannot vouch for run
    eigvalsh, and a vouched row is always one that eigvalsh would accept.
    Any upper bound of ||R||_2 must keep that: the cases take R either as
    the node sum Lambda W Lambda^T of `r_matrix` with its max W, or as a
    low-rank X X^T with its Frobenius norm."""

    @staticmethod
    def case(size, seed, rank, coupling, gram=False):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(size, size))
        h = 0.5 * (m + m.T)
        if gram:
            # Lambda: the first N rows of a random orthogonal (Q, Q) matrix, Q = N + rank
            nodes = size + rank
            stencil = np.linalg.qr(rng.normal(size=(nodes, nodes)))[0][:size]
            weight = rng.exponential(size=nodes)
            r, bound = (stencil * weight) @ stencil.T, weight.max()
        else:
            x = rng.normal(size=(size, rank))
            r = x @ x.T
            bound = np.sqrt(np.einsum("ij,ij->", r, r))
        return np.linalg.eigh(h)[0], h + coupling * r, coupling * bound

    @staticmethod
    def eigenvalue_test(h_eff, energy):
        return bool(solver._conditioned(np.linalg.eigvalsh(h_eff - energy * np.eye(len(h_eff)))))

    @given(
        size=st.integers(min_value=4, max_value=20),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        rank=st.integers(min_value=1, max_value=20),
        log_coupling=st.floats(min_value=-14.0, max_value=0.0),
        coupling_sign=st.sampled_from([-1.0, 1.0]),
        level=st.integers(min_value=0, max_value=19),
        log_distance=st.floats(min_value=-15.0, max_value=0.0),
        side=st.sampled_from([-1.0, 1.0]),
        gram=st.booleans(),
        shifted_level=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_certified_rows_pass_the_eigenvalue_test(
        self, size, seed, rank, log_coupling, coupling_sign, level, log_distance, side, gram, shifted_level
    ):
        levels, h_eff, spread = self.case(size, seed, rank, coupling_sign * 10.0**log_coupling, gram)
        # energies near a level of H + c R probe the bound where it binds
        near = (np.linalg.eigvalsh(h_eff) if shifted_level else levels)[level % size]
        energy = near + side * 10.0**log_distance * max(abs(near), np.ptp(levels))
        if solver._certified(levels, [energy], [spread])[0]:
            assert self.eigenvalue_test(h_eff, energy)

    def test_certificate_decides_on_both_sides(self):
        # energies from 1e-15 to 1 (relative) off a level, couplings of
        # either sign: some rows are certified, some are not, and every
        # certified one passes the eigenvalue test
        decided = []
        for seed, coupling, gram in itertools.product(range(4), (-1e-6, 1e-15, 1e-9, 1e-3), (False, True)):
            levels, h_eff, spread = self.case(12, seed, 5, coupling, gram)
            for k, exponent in itertools.product((0, 5, 11), range(-15, 1)):
                energy = levels[k] + 10.0**exponent * max(abs(levels[k]), np.ptp(levels))
                certified = bool(solver._certified(levels, [energy], [spread])[0])
                assert not certified or self.eigenvalue_test(h_eff, energy)
                decided.append(certified)
        assert 0.2 < np.mean(decided) < 0.8

    @pytest.mark.parametrize("coupling", [-0.3, 0.3])
    def test_level_moved_onto_the_energy_is_not_certified(self, coupling):
        # R = v v^T along the eigenvector of one level moves that level, and
        # only it, by c exactly: at E = e_k + c the matrix is singular
        h = random_symmetric(8, seed=31)
        levels, vectors = np.linalg.eigh(h)
        r = np.outer(vectors[:, 3], vectors[:, 3])
        energy = levels[3] + coupling
        assert not self.eigenvalue_test(h + coupling * r, energy)
        spread = coupling * np.sqrt(np.einsum("ij,ij->", r, r))
        assert solver._certified(levels, [energy], [spread]).tolist() == [False]

    def test_nan_and_inf_never_certified(self):
        levels = np.array([-1.0, 0.5, 2.0])
        bad = (np.nan, np.inf, -np.inf)
        for energy, spread in [*((e, 0.0) for e in bad), *((1.0, x) for x in bad), (np.nan, np.inf)]:
            assert solver._certified(levels, [energy], [spread]).tolist() == [False]
        assert solver._certified(np.array([-1.0, np.nan, 2.0]), [1.0], [0.0]).tolist() == [False]
        assert solver._certified(levels, [1.0], [0.0]).tolist() == [True]

    def test_few_rows_reach_eigvalsh_on_the_paper_energies(self, monkeypatch):
        # table1's paper energies: every order row went through eigvalsh
        # before the certificate; now under 10% of them do
        cfg, ham, dten, options = _config_problem("table1")
        eigvalsh, matrix_rows, greens, order_rows = np.linalg.eigvalsh, [], solver.greens_matrix, []

        def counting_eigvalsh(a):
            matrix_rows.append(a.shape[0])
            return eigvalsh(a)

        def counting_greens(h_eff, *rest):
            order_rows.append(h_eff.shape[0])
            return greens(h_eff, *rest)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        monkeypatch.setattr(solver, "greens_matrix", counting_greens)
        scan(list(cfg.energies), ham, dten, **options)
        assert sum(order_rows) >= 20
        assert sum(matrix_rows) < 0.1 * sum(order_rows)


class TestInputsRefusedByValue:
    @pytest.mark.parametrize(
        "option,bad,message",
        [
            ("tolerance", float("nan"), "tolerance must be finite and positive, got nan"),
            ("tolerance", -1.0, "tolerance must be finite and positive, got -1.0"),
            ("bifurcation_tolerance", float("nan"), "bifurcation_tolerance must be finite and positive, got nan"),
            ("coupling", float("nan"), "coupling must be finite, got nan"),
        ],
    )
    def test_bad_option_refused_by_value(self, gauss_setup, option, bad, message):
        # unrefused, a NaN or negative tolerance ran every order to
        # "max-iterations", a NaN bifurcation tolerance passed silently and
        # a NaN coupling failed inside LAPACK, naming no value
        ham, dten = gauss_setup
        options = {"coupling": 0.001, option: bad}
        with pytest.raises(ValueError, match=re.escape(message)):
            scan([2.5], ham, dten, **options)
        with pytest.raises(ValueError, match=re.escape(message)):
            scan([1.0, 2.5], ham, dten, **options)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_bad_energy_refused_by_value(self, gauss_setup, bad):
        ham, dten = gauss_setup
        message = re.escape(f"scattering energy must be finite and positive, got {bad!r}")
        with pytest.raises(ValueError, match=message):
            scan([1.0, bad, 2.0], ham)
        with pytest.raises(ValueError, match=message):
            scan([bad], ham, dten, coupling=0.001)

    @pytest.mark.parametrize("n_basis,ell", [(20, 1), (10, 0), (30, 0)])
    def test_d_tensor_of_another_basis_refused(self, gauss_setup, rule100_l0, rule100_l1, n_basis, ell):
        # unrefused, the ell=1 tensor runs to a plausible "converged" S and the
        # other sizes fail inside numpy or r_matrix, naming neither basis
        ham, _ = gauss_setup
        dten = d_tensor(1, ell, n_basis, rule100_l1 if ell else rule100_l0)
        message = re.escape(f"(n_basis, ell) = ({n_basis}, {ell})") + ".*" + re.escape("(20, 0)")
        with pytest.raises(ValueError, match=message):
            scan([2.5], ham, dten, coupling=0.001)
        with pytest.raises(ValueError, match=message):
            scan([1.0, 2.5], ham, dten, coupling=0.001)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_bad_scale_refused_by_value(self, rule100_l0, bad):
        potential = PowerExponentialPotential(strength=7.5, power=2.0, decay=1.0)
        with pytest.raises(ValueError, match=f"basis scale lam must be finite and positive, got {bad!r}"):
            assemble_linear(potential, n_basis=20, ell=0, lam=bad, rule=rule100_l0)


class TestResonanceLocator:
    @staticmethod
    def synthetic_s(center, width, background=0.3):
        """S = exp(2i delta) of a resonance of full width `width` at `center` on a phase background linear in E."""
        def s_at(energies):
            e = np.asarray(energies, dtype=float)
            return np.exp(2j * (background * e + np.arctan2(0.5 * width, center - e)))
        return s_at

    def test_recovers_a_peak_narrower_than_the_grid_step(self):
        # like fig1's: 1e-3 wide, between grid points 2e-3 apart
        energies = np.arange(2.0, 3.0, 0.002)
        found, height = locate_resonance(self.synthetic_s(center=2.5013, width=0.001), energies)
        assert found == pytest.approx(2.5013, abs=1e-6)
        # the central difference over +-h reads 2 / width short by (2 h / width)^2 / 3, 1.3e-4 here
        assert height == pytest.approx(2.0 / 0.001 + 0.3, rel=3e-4)

    def test_background_crossing_does_not_win(self):
        # a slow background drags |1 - S| to its ceiling away from the
        # peak; the phase-derivative criterion must stay on the peak
        energies = np.arange(1.0, 4.0, 0.005)
        s_at = self.synthetic_s(center=3.2, width=0.02, background=0.8)
        assert abs(energies[np.argmax(np.abs(1 - s_at(energies)))] - 3.2) > 0.3
        assert locate_resonance(s_at, energies)[0] == pytest.approx(3.2, abs=1e-6)
