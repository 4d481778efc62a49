"""Regular/irregular reference solutions and their Bessel targets."""

import numpy as np
import pytest

from jmscatter.hamiltonian import free_matrix_coeffs
from jmscatter.reference import (
    chi_reconstruct,
    energy_point,
    irregular_target,
    oscillator_reference,
    reference_coefficients,
    regular_target,
)
from oracles import laguerre_associated_normalized, oscillator_seeds_scalar, sine_like_closed_form

FIG_PAIRS = ((0, 1.5), (1, 1.0), (2, 1.5), (3, 2.5))


class TestEnergyPoint:
    def test_derived_fields(self):
        pt = energy_point(2.0, 1.6)
        assert pt.kappa == pytest.approx(2.0, rel=1e-15)
        assert pt.mu == pytest.approx(2.0 / 1.6, rel=1e-15)

    def test_requires_positive_energy(self):
        with pytest.raises(ValueError):
            energy_point(0.0, 1.0)
        with pytest.raises(ValueError):
            energy_point(1.0, -1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_energy_or_scale_refused_by_value(self, bad):
        with pytest.raises(ValueError, match=f"scattering energy must be finite and positive, got {bad!r}"):
            energy_point(bad, 1.0)
        with pytest.raises(ValueError, match=f"basis scale lam must be finite and positive, got {bad!r}"):
            energy_point(1.0, bad)


class TestOscillatorCoefficients:
    def test_frozen_inhomogeneity(self):
        pt = energy_point(0.5, 1.0)
        ref = reference_coefficients(pt, 0, 4)
        a, b = free_matrix_coeffs(4, 0, 1.0)
        tau = (a[0] - 0.5) * ref.c[0] + b[0] * ref.c[1]
        assert tau == pytest.approx(-0.3710926652016506, rel=1e-12)

    def test_frozen_seed(self):
        pt = energy_point(0.5, 1.0)
        ref = reference_coefficients(pt, 0, 2)
        assert ref.c[0] == pytest.approx(0.5174329710627004, rel=1e-12)

    @pytest.mark.parametrize("ell", [0, 1, 2])
    @pytest.mark.parametrize("energy", [0.5, 2.0])
    def test_sine_seed_is_homogeneous(self, ell, energy):
        pt = energy_point(energy, 1.0)
        ref = reference_coefficients(pt, ell, 2)
        a, b = free_matrix_coeffs(2, ell, 1.0)
        residual = (a[0] - energy) * ref.s[0] + b[0] * ref.s[1]
        assert abs(residual) < 1e-13

    @pytest.mark.parametrize("ell", [0, 1, 2])
    @pytest.mark.parametrize("energy", [0.5, 2.0])
    def test_cosine_rows_annihilated_above_seed(self, ell, energy):
        pt = energy_point(energy, 1.0)
        ref = reference_coefficients(pt, ell, 50)
        a, b = free_matrix_coeffs(50, ell, 1.0)
        c = ref.c
        for k in range(1, 49):
            residual = (
                a[k] * c[k] + b[k - 1] * c[k - 1] + b[k] * c[k + 1] - energy * c[k]
            )
            assert abs(residual) < 1e-11

    @pytest.mark.parametrize("ell", [0, 1, 2])
    @pytest.mark.parametrize("energy", [0.5, 2.0])
    def test_closed_form_route_matches_recursion(self, ell, energy):
        # two independent constructions of the cosine-like coefficients:
        # upward recursion vs particular-plus-homogeneous closed form
        pt = energy_point(energy, 1.0)
        ref = reference_coefficients(pt, ell, 40)
        a, b = free_matrix_coeffs(40, ell, 1.0)
        tau = (a[0] - energy) * ref.c[0] + b[0] * ref.c[1]
        z = pt.mu**2
        for k in range(40):
            closed = ref.c[0] * ref.s[k] / ref.s[0] + (tau / b[0]) * (
                laguerre_associated_normalized(k - 1, ell, z)
            )
            assert closed == pytest.approx(ref.c[k], rel=1e-11, abs=1e-13)

    @pytest.mark.parametrize("ell", [0, 1, 2, 3])
    @pytest.mark.parametrize("lam", [0.6, 1.0, 1.6])
    @pytest.mark.parametrize("kmax,degrees", [
        (20, range(21)),
        # every 250th degree up to the basis edge the solver reads
        (3000, [*range(0, 3001, 250), 1, 2, 2999]),
    ])
    def test_sine_recursion_matches_closed_form(self, ell, lam, kmax, degrees):
        # the free recursion from s_0 against alpha (-1)^k L~_k^ell(mu^2)
        for energy in (0.2, 1.5, 6.0):
            pt = energy_point(energy, lam)
            s = reference_coefficients(pt, ell, kmax).s
            closed = sine_like_closed_form(pt, ell, degrees)
            assert np.abs(s[list(degrees)] - closed).max() <= 1e-11 * np.abs(closed).max()

    @pytest.mark.parametrize("basis", ["oscillator", "laguerre"])
    @pytest.mark.parametrize("ell,kmax", [(-1, 5), (0, -1)])
    def test_negative_ell_or_kmax_rejected(self, basis, ell, kmax):
        with pytest.raises(ValueError, match="nonnegative"):
            reference_coefficients(energy_point(1.0, 1.0), ell, kmax, basis=basis)

    def test_unknown_basis_rejected(self):
        with pytest.raises(ValueError):
            reference_coefficients(energy_point(1.0, 1.0), 0, 5, basis="fourier")


@pytest.mark.parametrize("basis", ["oscillator", "laguerre"])
@pytest.mark.parametrize("ell", [0, 2])
@pytest.mark.parametrize("kmax", [0, 1, 2])
def test_short_ranges_are_prefixes(basis, ell, kmax):
    # the seeds alone (kmax 0, 1) and one recursion step (kmax 2) are the head of a long run, bit for bit
    pt = energy_point(1.3, 1.0)
    short = reference_coefficients(pt, ell, kmax, basis=basis)
    full = reference_coefficients(pt, ell, 10, basis=basis)
    assert short.s.shape == short.c.shape == (kmax + 1,)
    assert np.array_equal(short.s, full.s[: kmax + 1])
    assert np.array_equal(short.c, full.c[: kmax + 1])


@pytest.mark.parametrize("ell", [0, 1, 2, 3])
@pytest.mark.parametrize("lam", [0.5, 1.0, 1.6])
@pytest.mark.parametrize("kmax", [1, 2, 20])
def test_oscillator_energy_array_is_its_one_energy_calls(ell, lam, kmax):
    # one recursion on the energy vector, every column bit for bit its scalar run
    energies = np.random.default_rng(ell + 10 * kmax).uniform(0.01, 8.0, 40)
    coeffs = free_matrix_coeffs(kmax, ell, lam)
    ref = oscillator_reference(energies, lam, ell, coeffs)
    assert ref.s.shape == ref.c.shape == (kmax + 1, energies.size)
    for j, energy in enumerate(energies.tolist()):
        one = oscillator_reference(energy, lam, ell, coeffs)
        assert np.array_equal(ref.s[:, j], one.s)
        assert np.array_equal(ref.c[:, j], one.c)


@pytest.mark.parametrize("ell", [0, 1, 2, 3])
@pytest.mark.parametrize("lam", [0.5, 1.0, 1.6])
def test_oscillator_seeds_are_their_scalar_math(ell, lam):
    # the array seeds keep math's exp/log and Python's ** per energy, to the last bit
    energies = np.random.default_rng(ell).uniform(0.01, 8.0, 200)
    a, b = coeffs = free_matrix_coeffs(1, ell, lam)
    ref = oscillator_reference(energies, lam, ell, coeffs)
    for j, energy in enumerate(energies.tolist()):
        alpha, c0, tau = oscillator_seeds_scalar(energy, lam, ell)
        assert (ref.s[0, j], ref.c[0, j]) == (alpha, c0)
        assert (ref.s[1, j], ref.c[1, j]) == ((energy - a[0]) * alpha / b[0], ((energy - a[0]) * c0 + tau) / b[0])


class TestOscillatorReconstruction:
    @pytest.mark.parametrize("ell,energy", FIG_PAIRS)
    def test_sine_tracks_regular_bessel(self, ell, energy):
        pt = energy_point(energy, 1.0)
        ref = reference_coefficients(pt, ell, 1000)
        r = np.linspace(0.0, 25.0, 400)
        chi = chi_reconstruct(ref.s, ell, 1.0, r)
        assert np.abs(chi - regular_target(pt, ell, r)).max() < 1e-8

    @pytest.mark.parametrize("ell,energy", FIG_PAIRS)
    def test_cosine_tracks_irregular_bessel_asymptotically(self, ell, energy):
        pt = energy_point(energy, 1.0)
        ref = reference_coefficients(pt, ell, 1000)
        r = np.linspace(0.05, 25.0, 400)
        chi = chi_reconstruct(ref.c, ell, 1.0, r)
        target = irregular_target(pt, ell, r)
        outer = r >= 12.5
        assert np.abs(chi[outer] - target[outer]).max() < 1e-8

    def test_irregular_sign_convention(self):
        # the cosine-like solution approaches +sqrt(kr) Y_ell, not its negative
        pt = energy_point(1.5, 1.0)
        ref = reference_coefficients(pt, 0, 800)
        r = np.linspace(10.0, 25.0, 200)
        chi = chi_reconstruct(ref.c, 0, 1.0, r)
        target = irregular_target(pt, 0, r)
        assert np.abs(chi - target).max() < 1e-8
        assert np.abs(chi + target).max() > 1.0

    def test_amplitude_envelope(self):
        # free solutions carry the universal sqrt(2/pi) envelope
        pt = energy_point(1.5, 1.0)
        ref = reference_coefficients(pt, 0, 1000)
        r = np.linspace(10.0, 25.0, 2000)
        chi = chi_reconstruct(ref.s, 0, 1.0, r)
        assert np.abs(chi).max() == pytest.approx(np.sqrt(2.0 / np.pi), abs=0.02)

    @pytest.mark.parametrize("basis", ["oscillator", "laguerre"])
    def test_stacked_rows_equal_one_row_calls(self, basis):
        # one pass over the basis functions serves both rows, bit for bit
        pt = energy_point(1.5, 1.0)
        ref = reference_coefficients(pt, 1, 300, basis=basis)
        r = np.linspace(0.0, 20.0, 150)
        both = chi_reconstruct(np.array([ref.s, ref.c]), 1, 1.0, r, basis=basis)
        assert both.shape == (2, r.size)
        assert np.array_equal(both[0], chi_reconstruct(ref.s, 1, 1.0, r, basis=basis))
        assert np.array_equal(both[1], chi_reconstruct(ref.c, 1, 1.0, r, basis=basis))

    def test_origin_values(self):
        pt = energy_point(1.0, 1.0)
        assert regular_target(pt, 2, np.array([0.0]))[0] == 0.0
        assert not np.isfinite(irregular_target(pt, 2, np.array([0.0]))[0])


class TestLaguerreBasis:
    def test_matches_oscillator_curves(self):
        pt = energy_point(1.0, 1.0)
        r = np.linspace(0.05, 25.0, 300)
        osc = reference_coefficients(pt, 1, 1000, basis="oscillator")
        lag = reference_coefficients(pt, 1, 1000, basis="laguerre")
        sin_o = chi_reconstruct(osc.s, 1, 1.0, r, basis="oscillator")
        sin_l = chi_reconstruct(lag.s, 1, 1.0, r, basis="laguerre")
        assert np.abs(sin_o - sin_l).max() < 1e-8
        cos_o = chi_reconstruct(osc.c, 1, 1.0, r, basis="oscillator")
        cos_l = chi_reconstruct(lag.c, 1, 1.0, r, basis="laguerre")
        # the Laguerre cosine-like curve still carries its regularization
        # layer (about 5e-3 here at r = 12.5), which bounds this comparison
        outer = r >= 12.5
        assert np.abs(cos_o[outer] - cos_l[outer]).max() < 3e-2

    @pytest.mark.parametrize("ell,energy", FIG_PAIRS)
    def test_sine_tracks_regular_bessel(self, ell, energy):
        pt = energy_point(energy, 1.0)
        ref = reference_coefficients(pt, ell, 1000, basis="laguerre")
        r = np.linspace(0.0, 25.0, 300)
        chi = chi_reconstruct(ref.s, ell, 1.0, r, basis="laguerre")
        assert np.abs(chi - regular_target(pt, ell, r)).max() < 1e-8

    def test_high_wave_cosine_far_window(self):
        # the regularization layer delays the irregular asymptote for larger
        # ell; far from the origin the reconstruction locks on, up to what
        # is left of that layer at r = 40 (about 8e-6 for ell = 3)
        pt = energy_point(2.5, 1.0)
        ref = reference_coefficients(pt, 3, 4000, basis="laguerre")
        r = np.linspace(40.0, 80.0, 300)
        chi = chi_reconstruct(ref.c, 3, 1.0, r, basis="laguerre")
        target = irregular_target(pt, 3, r)
        assert np.abs(chi - target).max() < 1e-4
