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
from jmscatter.cli import _solve, load_config
from jmscatter.linearize import d_tensor, quadrature_bound
from jmscatter import solver, specfun
from jmscatter.quadrature import build_rule
from jmscatter.reference import oscillator_reference, reference_coefficients
from jmscatter.solver import (
    ScatteringResult,
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
    iteration_verdict,
    locate_resonance,
    node_weights,
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
        out = greens_matrix(shifted(np.array([[[2.0]]]), [1.0]))
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(1.0, rel=1e-14)

    def test_inverse_residual(self):
        # the edge column solves (H - E) g = e_{N-1}
        h = random_symmetric(6, seed=11)
        (g,) = greens_matrix(shifted(h[None], [0.37]))
        residual = (h - 0.37 * np.eye(6)) @ g - np.eye(6)[:, -1]
        assert np.abs(residual).max() < 1e-9

    def test_direct_matches_spectral(self):
        h = random_symmetric(6, seed=12)
        evals, evecs = np.linalg.eigh(h)
        for energy in (-1.3, 0.2, 0.9, 2.7):
            direct = greens_inverse(h, energy)[:, -1]
            column = greens_matrix(shifted(h[None], [energy]))[0]
            assert np.abs(column - direct).max() < 1e-10
            assert np.abs(greens_spectral(evals, evecs, [energy])[0] - direct).max() < 1e-10

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

    def test_energy_on_a_level_divides_by_a_tiny_gap(self):
        # E equal to a level of H in floating point: that gap is exactly zero
        # and is taken as eps * spacing(E), so the column is finite and runs
        # along the level's eigenvector
        h = random_symmetric(5, seed=15)
        evals, evecs = np.linalg.eigh(h)
        energy = float(evals[2])
        (column,) = greens_spectral(evals, evecs, [energy])
        assert np.isfinite(column).all()
        gap = np.finfo(float).eps * np.spacing(energy)
        assert np.abs(column - evecs[:, 2] * (evecs[-1, 2] / gap)).max() <= 1e-15 * np.abs(column).max()

    def test_right_hand_sides_carry_the_stack_shape(self, monkeypatch):
        # numpy 1.x reads a right-hand side with one dimension fewer than the
        # (K, N, N) stack as K vectors, numpy 2 as one (N, 1) matrix: only a
        # (K, N, 1) one is read alike by both; a row whose energy is a level of
        # its matrix is solved in the same stack, its column about 7.5e14
        h = np.stack([random_symmetric(5, seed=seed) for seed in (16, 17, 18)])
        level = float(np.linalg.eigvalsh(h[1])[2])
        solve, shapes = np.linalg.solve, []

        def recording_solve(a, b):
            shapes.append((a.shape, b.shape))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        for energies in ([0.3, 0.4, 0.5], [0.3, level, 0.5]):
            columns = greens_matrix(shifted(h, energies))
            for row, energy in zip(range(3), energies):
                want = greens_inverse(h[row], energy)[:, -1]
                assert np.abs(columns[row] - want).max() < 1e-10 * max(1.0, np.abs(want).max())
        assert shapes == [((3, 5, 5), (3, 5, 1))] * 2


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

    # Q = 300 and 400 sit far above the bound, so D is built on its own rule
    # of 58 and 59 nodes; (3, 0, 20, 61) and (2, 0, 40, 100) sit below it
    # and project on the basis rule, which at Q = 100 has nodes whose Gauss
    # weight underflows to zero; (2, 1, 80, 240) takes the per-row syrk
    # above the paper's basis size
    @pytest.mark.parametrize(
        "n,ell,n_basis,order",
        [(1, 1, 6, 40), (2, 1, 20, 300), (3, 0, 20, 61), (1, 3, 30, 400), (2, 1, 80, 240), (2, 0, 40, 100)],
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
        # R = Lambda W Lambda^T with node weights W = pref |psi|^(2n) >= 0,
        # psi carrying the envelope, gives ||R||_2 <= max W ||Lambda||_2^2,
        # up to the rounding of the Q-term sums over the Q nodes D was built
        # on; the own rule's stencil rows are orthonormal only to quadrature
        # accuracy (||Lambda||_2^2 = 1.001 at N = 20), the basis rule's to rounding
        nodes = dten.stencil.shape[1]
        bound = np.linalg.norm(dten.stencil, 2) ** 2 * (1 + 4 * nodes * np.finfo(float).eps)
        assert np.linalg.eigvalsh(rm).max() <= node_weights(dten, coeffs, 1.3).max() * bound
        # a stack of coefficient rows: one R per row, each exactly
        # symmetric and equal to its one-row call
        rows = np.stack([coeffs, coeffs.conj(), 2.0 * coeffs[::-1]])
        stack = r_matrix(dten, rows, 1.3)
        assert stack.shape == (3, n_basis, n_basis)
        assert np.array_equal(stack, stack.swapaxes(-1, -2))
        assert np.array_equal(stack[0], rm)
        for row, one, top in zip(rows, stack, node_weights(dten, rows, 1.3).max(axis=-1)):
            assert np.array_equal(one, r_matrix(dten, row, 1.3))
            assert np.linalg.eigvalsh(one).max() <= top * bound

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

    # the pair-table route rounds each of its Q-term sums differently: a
    # bound of 4 Q eps max|R| per entry, Q the node count D was built on
    # (its own rule's at or above the bound), fixed from the dtype, and N
    # times that for the eigenvalues (||E||_2 <= N max|E_ij|)
    @pytest.mark.parametrize(
        "n,ell,n_basis,order", [(1, 0, 20, 100), (1, 1, 6, 40), (2, 1, 20, 30), (2, 1, 20, 300), (3, 0, 20, 61)]
    )
    def test_matches_pair_table_and_is_positive_semidefinite(self, n, ell, n_basis, order):
        rule = build_rule(order, ell)
        dten = d_tensor(n, ell, n_basis, rule, override=order < quadrature_bound(n, n_basis))
        rng = np.random.default_rng(7 * order + n)
        rows = rng.normal(size=(5, n_basis + 1)) + 1j * rng.normal(size=(5, n_basis + 1))
        entry_bound = 4 * dten.stencil.shape[1] * np.finfo(float).eps
        stack = r_matrix(dten, rows, 1.1)
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
        g = greens_spectral(ham.eigenvalues, ham.eigenvectors, energies)
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
        rng = np.random.default_rng(6)
        # order 0's columns, then corners of every magnitude a later order can give
        for columns in (g, g * 10.0 ** rng.uniform(-6, 3, size=(len(g), 1))):
            got = solver.interior_coefficients(h_plus, columns, b_edge)[:, -2:]
            want = np.array([edge_coefficients_scalar(hp, hm, c, b_edge)
                             for hp, hm, c in zip(h_plus, h_minus, columns[:, -1])])
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

    def test_cap_far_beyond_the_orders_run(self, gauss_setup):
        # a row keeps only the orders it ran, so a cap no array could hold costs nothing when every energy converges
        ham, dten = gauss_setup
        energies = [2.3, 2.45, 2.55, 2.7]
        capped = scan(energies, ham, dten, coupling=0.001)
        assert {res.status for res in capped} == {"converged"}
        assert scan(energies, ham, dten, coupling=0.001, max_iterations=10**15) == capped


def script_rows(monkeypatch, energies, sequences):
    """Make `scan` see S_m = sequences[i][m] for energies[i] at every order m.

    `_order_map` keeps every row's g, noting which energies its stack
    holds; `phase_shift` then serves each of them its
    next scripted S. Order 0 is one call over the whole block, in grid
    order, so the grid must fit one block.
    """
    row = {energy: i for i, energy in enumerate(energies)}
    served, stack = [0] * len(energies), [list(range(len(energies)))]

    def order_map(g, stack_energies, *rest):
        stack[0] = [row[e] for e in stack_energies.tolist()]
        return g

    def scripted(edge, *rest):
        out = []
        for i in stack[0]:
            out.append(sequences[i][served[i]])
            served[i] += 1
        return np.array(out, dtype=complex)

    monkeypatch.setattr(solver, "_order_map", order_map)
    monkeypatch.setattr(solver, "phase_shift", scripted)


def planted_sequence(rng, kind, orders, tolerance, unit):
    """S_0 .. S_orders of one kind, around a random point of the unit circle; `unit` is the bifurcation tolerance."""
    base = complex(np.exp(2j * np.pi * rng.random()))
    alphabet = base + unit * np.array([0.0, 0.6, 1.3, 2.5j, -0.7 + 0.7j])
    m = np.arange(orders + 1)
    prefix = list(rng.choice(alphabet, rng.integers(0, 6)))
    if kind == "converge":
        # a fixed point approached along a geometric path, from one side or with alternating sign
        tail = base + 5 * unit * rng.uniform(-0.95, 0.95) ** m
    elif kind == "cycle":
        # a 2- or 3-cycle of alphabet values whose common offset shrinks (the cycle settles) or grows
        p = rng.choice([2, 3])
        tail = rng.choice(alphabet, p, replace=False)[m % p] + 10 * tolerance * rng.uniform(0.0, 1.2) ** m
    elif kind == "merge":
        # alternating steps shrinking by -0.8 per order: period 2 is certified, then its values merge
        tail = base + rng.uniform(1.0, 20.0) * unit * (-0.8) ** m
    elif kind == "rotation":
        # S_m is near S_{m-2} and S_{m-3} but not S_{m-1}: period 2, not 3
        tail = base + 0.7 * unit * np.exp(0.8j * np.pi * m)
    elif kind == "cycle-at-cap":
        # an exact p-cycle after far-apart values, certified p + 3 orders after it starts, exactly at the cap
        p = rng.choice([2, 3])
        start = max(orders - p - 3, 0)
        prefix = [base + 7 * unit * (k + 1) for k in range(start)]
        tail = (base + unit * np.array([-3.0, -3.0 + 4.0j, -8.0]))[m % p]
    else:
        # a walk on the alphabet
        tail = rng.choice(alphabet, orders + 1)
    return [complex(x) for x in (prefix + list(tail))[: orders + 1]]


class TestTerminationRules:
    """`scan` applies the termination rules to every live row of a block at
    once; on scripted S sequences each row must end where
    `oracles.iteration_verdict`, the rules one order at a time, ends it."""

    KINDS = ("converge", "cycle", "merge", "rotation", "cycle-at-cap", "walk")

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.sampled_from([1, 3, solver._STACK + 5]),
        cap=st.integers(1, 40),
        tolerance=st.sampled_from([1e-8, 1e-5, 2e-3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_end_as_the_oracle_ends_them(self, gauss_setup, rows, cap, tolerance, seed):
        # a stack of more than _STACK rows holds every kind; one or three rows take random kinds
        rng = np.random.default_rng(seed)
        if rows > solver._STACK:
            kinds = [self.KINDS[i % len(self.KINDS)] for i in range(rows)]
        else:
            kinds = rng.choice(self.KINDS, rows)
        sequences = [planted_sequence(rng, kind, cap, tolerance, 1e-3) for kind in kinds]
        energies = np.linspace(0.6, 5.4, rows).tolist()
        ham, dten = gauss_setup
        with pytest.MonkeyPatch.context() as monkeypatch:
            script_rows(monkeypatch, energies, sequences)
            results = scan(energies, ham, dten, coupling=0.001, tolerance=tolerance, bifurcation_tolerance=1e-3,
                           max_iterations=cap)
        for res, history in zip(results, sequences):
            status, period, last = iteration_verdict(history, cap, tolerance, 1e-3)
            assert (res.status, res.period, len(res.history)) == (status, period, last + 1)
            assert res.history == tuple(history[: last + 1])

    @pytest.mark.parametrize("p,cap,want", [
        (2, 5, ("max-iterations", None, 5)), (2, 6, ("bifurcated", 2, 6)),
        (3, 6, ("max-iterations", None, 6)), (3, 7, ("bifurcated", 3, 7)),
    ])
    def test_cycle_certified_at_the_cap(self, gauss_setup, monkeypatch, p, cap, want):
        # a cycle from order 0 looks periodic from order p and is certified 4 orders later, at m = p + 3;
        # certified at the cap it ends as max-iterations, one order later it has settled
        values = [complex(np.exp(1j * phi)) for phi in (0.3, 1.1, 2.0)]
        history = [values[m % p] for m in range(cap + 1)]
        script_rows(monkeypatch, [2.5], [history])
        [res] = scan([2.5], *gauss_setup, coupling=0.001, max_iterations=cap)
        assert (res.status, res.period, res.iterations) == want == iteration_verdict(history, cap, 1e-8, 1e-3)


def _config_problem(name):
    cfg = load_config(str(files("jmscatter") / "configs" / f"{name}.yaml"))
    ham, dten, _ = _solve(cfg, build_rule(cfg.quadrature_order, cfg.ell), override=True)
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

    def test_nonlinear_grid_across_block_boundaries(self, monkeypatch):
        # 40 table4 energies in blocks of 16 and stacks of 4, with a level of H in the second block
        monkeypatch.setattr(solver, "_BLOCK", 16)
        monkeypatch.setattr(solver, "_STACK", 4)
        cfg, ham, dten, options = _config_problem("table4")
        energies = np.linspace(2.6, 3.4, 40).tolist()
        energies[22] = float(ham.eigenvalues[np.argmin(np.abs(ham.eigenvalues - 3.0))])
        results = scan(energies, ham, dten, **options)
        assert len({res.status for res in results}) > 1
        for energy, res in zip(energies, results):
            assert [res] == scan([energy], ham, dten, **options)
            assert res.energy == energy


class TestLinearResults:
    """A g = 0 energy's result is read off its order-0 S, with no iteration."""

    def test_each_result_is_its_order_0_solve(self, gauss_setup):
        # two blocks, with a level of H in the second
        ham, _ = gauss_setup
        n = ham.n_basis
        energies = np.linspace(0.5, 5.5, solver._BLOCK + 80)
        energies[solver._BLOCK + 40] = ham.eigenvalues[np.argmin(np.abs(ham.eigenvalues - 2.5))]
        results = scan(energies, ham)
        assert [res.energy for res in results] == energies.tolist()
        ref_s, ref_c = oscillator_reference(energies, ham.lam, ham.ell, ham.coeffs)
        g = greens_spectral(ham.eigenvalues, ham.eigenvectors, energies)
        want = phase_shift((ref_c[n - 1 :] + 1j * ref_s[n - 1 :]).T, g[:, -1], ham.coeffs[1][n - 1])
        assert [(res.status, res.period, len(res.history)) for res in results] == [("converged", None, 1)] * len(energies)
        assert np.array([res.history[0] for res in results]).tobytes() == want.tobytes()

    @pytest.mark.parametrize("coupling", [0.0, 0.001])
    def test_history_entries_are_python_complex(self, gauss_setup, coupling):
        ham, dten = gauss_setup
        results = scan([0.9, 2.2, 2.5, 3.6], ham, dten, coupling=coupling)
        assert (max(len(res.history) for res in results) > 1) == (coupling != 0.0)
        assert {type(s) for res in results for s in res.history} == {complex}


class TestOrderMap:
    """Each order m >= 1 is one pure step g <- _order_map(g) on the real
    edge column; S_m is phase_shift of the new corner entry."""

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
        (g,) = greens_spectral(ham.eigenvalues, ham.eigenvectors, [energy])
        (s,) = phase_shift(h_plus[None], g[None, n - 1], b_edge)
        assert s == res.history[0]
        for expected in res.history[1:]:
            args = (g[None], np.array([energy]), h_plus[None], b_edge, ham, dten, cfg.coupling_g)
            (g,) = solver._order_map(*args)
            assert g.dtype == np.float64 and g.shape == (n,)
            assert solver._order_map(*args)[0].tobytes() == g.tobytes()
            (s,) = phase_shift(h_plus[None], g[None, n - 1], b_edge)
            assert s == expected

    def test_row_on_a_level_of_its_own_matrix_leaves_the_others_alone(self):
        # the middle row's energy is an eigenvalue of its own H + c R: the
        # stacked LU solves it with the others, with no LinAlgError, and
        # every row equals its one-row call bit for bit
        cfg, ham, dten, _ = _config_problem("table3")
        n, c = ham.n_basis, cfg.coupling_g
        energies = np.array([1.0, 2.0, 3.0])
        ref_s, ref_c = oscillator_reference(energies, ham.lam, ham.ell, ham.coeffs)
        h_plus = (ref_c[n - 1 :] + 1j * ref_s[n - 1 :]).T
        b_edge = ham.coeffs[1][n - 1]
        g = greens_spectral(ham.eigenvalues, ham.eigenvectors, energies)
        h_eff = ham.matrix + c * r_matrix(dten, solver.interior_coefficients(h_plus, g, b_edge)[1], ham.lam)
        levels = np.linalg.eigvalsh(h_eff)
        energies[1] = levels[np.argmin(np.abs(levels - 2.0))]
        columns = solver._order_map(g, energies, h_plus, b_edge, ham, dten, c)
        assert np.isfinite(columns).all() and np.abs(columns[1]).max() > 1e8
        # the near-singular row's column still solves its system, to the rounding of its size
        residual = (h_eff - energies[1] * np.eye(n)) @ columns[1] - np.eye(n)[-1]
        assert np.abs(residual).max() < 1e-8 * np.abs(columns[1]).max()
        for j in range(3):
            one = slice(j, j + 1)
            alone = solver._order_map(g[one], energies[one], h_plus[one], b_edge, ham, dten, c)
            assert alone[0].tobytes() == columns[j].tobytes()


class TestLevels:
    """An energy on or next to a level of H is a removable singularity of S:
    G_corner grows without bound and S tends to T conj(r) / r, so the energy
    is solved as given, linear or cubic, with S on its neighbours' trend."""

    DELTAS = (-1e-12, -1e-15, 0.0, 1e-15, 1e-12)
    AT = (("table1", 2.517304727957556), ("table3", 2.011081376232509))

    @staticmethod
    def level_problem(name, level, coupled):
        cfg, ham, dten, options = _config_problem(name)
        e = float(ham.eigenvalues[np.argmin(np.abs(ham.eigenvalues - level))])
        assert e == pytest.approx(level, rel=1e-12)
        if not coupled:
            options["coupling"] = 0.0
        return e, ham, dten, options

    LEVELS = pytest.mark.parametrize(
        "name,level,coupled",
        [(name, level, coupled) for name, level in AT for coupled in (False, True)],
    )

    @pytest.mark.parametrize("name,level", AT)
    def test_linear_s_on_the_level_is_the_limit(self, name, level):
        # G_corner -> +-inf takes S = T conj(D) / D to T conj(r) / r, r = h_N / h_{N-1}
        e, ham, _, _ = self.level_problem(name, level, coupled=False)
        [res] = scan([e], ham)
        n = ham.n_basis
        ref_s, ref_c = oscillator_reference(e, ham.lam, ham.ell, ham.coeffs)
        h = ref_c[n - 1 :] + 1j * ref_s[n - 1 :]
        r = h[1] / h[0]
        assert abs(res.s_matrix - np.conj(h[0]) / h[0] * np.conj(r) / r) < 1e-14

    @LEVELS
    def test_s_follows_its_trend_through_the_level(self, name, level, coupled):
        e, ham, dten, options = self.level_problem(name, level, coupled)
        # E = e (1 + delta); at delta = 0 one gap of H - E is exactly zero
        energies = [e * (1.0 + delta) for delta in self.DELTAS]
        assert energies[2] == e
        results = scan(energies, ham, dten, **options)
        low, high = results[0], results[-1]
        assert (low.iterations > 0) == coupled
        for energy, res in zip(energies, results):
            assert res.energy == energy
            assert (res.status, res.period, res.iterations) == (low.status, low.period, low.iterations)
            trend = low.s_matrix + (high.s_matrix - low.s_matrix) * (energy - energies[0]) / (energies[-1] - energies[0])
            assert abs(res.s_matrix - trend) < 1e-12
            assert res.unimodularity_defect < 1e-15

    @LEVELS
    def test_grid_across_blocks_equals_its_one_energy_solves(self, monkeypatch, name, level, coupled):
        # blocks of 6 and stacks of 4, with the level's energies in the second block
        monkeypatch.setattr(solver, "_BLOCK", 6)
        monkeypatch.setattr(solver, "_STACK", 4)
        e, ham, dten, options = self.level_problem(name, level, coupled)
        energies = [*np.linspace(e - 0.05, e + 0.05, 7).tolist(), *(e * (1.0 + delta) for delta in self.DELTAS)]
        results = scan(energies, ham, dten, **options)
        for energy, res in zip(energies, results):
            assert [res] == scan([energy], ham, dten, **options)
            assert res.energy == energy


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
