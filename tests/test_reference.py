"""Regular/irregular reference solutions and their Bessel targets."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from jmscatter.hamiltonian import free_matrix_coeffs
from jmscatter.reference import (
    chi_reconstruct,
    free_targets,
    laguerre_basis_reference,
    oscillator_reference,
    reference_coefficients,
)
from jmscatter.specfun import jacobi_coefficients
from oracles import (
    chi_reconstruct_streamed,
    laguerre_associated_normalized,
    oscillator_seeds_scalar,
    sine_like_closed_form,
    upward_scalar,
)

FIG_PAIRS = ((0, 1.5), (1, 1.0), (2, 1.5), (3, 2.5))


class TestOscillatorCoefficients:
    def test_frozen_inhomogeneity(self):
        _, c = reference_coefficients(0.5, 1.0, 0, 4)
        a, b = free_matrix_coeffs(4, 0, 1.0)
        tau = (a[0] - 0.5) * c[0] + b[0] * c[1]
        assert tau == pytest.approx(-0.3710926652016506, rel=1e-12)

    def test_frozen_seed(self):
        _, c = reference_coefficients(0.5, 1.0, 0, 2)
        assert c[0] == pytest.approx(0.5174329710627004, rel=1e-12)

    @pytest.mark.parametrize("ell", [0, 1, 2])
    @pytest.mark.parametrize("energy", [0.5, 2.0])
    def test_sine_seed_is_homogeneous(self, ell, energy):
        s, _ = reference_coefficients(energy, 1.0, ell, 2)
        a, b = free_matrix_coeffs(2, ell, 1.0)
        residual = (a[0] - energy) * s[0] + b[0] * s[1]
        assert abs(residual) < 1e-13

    @pytest.mark.parametrize("ell", [0, 1, 2])
    @pytest.mark.parametrize("energy", [0.5, 2.0])
    def test_cosine_rows_annihilated_above_seed(self, ell, energy):
        _, c = reference_coefficients(energy, 1.0, ell, 50)
        a, b = free_matrix_coeffs(50, ell, 1.0)
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
        s, c = reference_coefficients(energy, 1.0, ell, 40)
        a, b = free_matrix_coeffs(40, ell, 1.0)
        tau = (a[0] - energy) * c[0] + b[0] * c[1]
        z = 2.0 * energy  # mu^2 at lam = 1
        for k in range(40):
            closed = c[0] * s[k] / s[0] + (tau / b[0]) * (
                laguerre_associated_normalized(k - 1, ell, z)
            )
            assert closed == pytest.approx(c[k], rel=1e-11, abs=1e-13)

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
            s, _ = reference_coefficients(energy, lam, ell, kmax)
            closed = sine_like_closed_form(energy, lam, ell, degrees)
            assert np.abs(s[list(degrees)] - closed).max() <= 1e-11 * np.abs(closed).max()

    @pytest.mark.parametrize("basis", ["oscillator", "laguerre"])
    @pytest.mark.parametrize("ell,kmax", [(-1, 5), (0, -1)])
    def test_negative_ell_or_kmax_rejected(self, basis, ell, kmax):
        with pytest.raises(ValueError, match="nonnegative"):
            reference_coefficients(1.0, 1.0, ell, kmax, basis=basis)

    def test_unknown_basis_rejected(self):
        with pytest.raises(ValueError):
            reference_coefficients(1.0, 1.0, 0, 5, basis="fourier")


# Each reference entry point, called with one energy and one basis scale.
WITH_SCALE = {
    "laguerre_basis_reference": lambda energy, lam: laguerre_basis_reference(energy, lam, 0, 5),
    "oscillator": lambda energy, lam: reference_coefficients(energy, lam, 0, 5),
    "laguerre": lambda energy, lam: reference_coefficients(energy, lam, 0, 5, basis="laguerre"),
}
WITH_ENERGY = {
    **WITH_SCALE,
    "free_targets": lambda energy, lam: free_targets(energy, 0, np.array([1.0])),
    "oscillator_reference": lambda energy, lam: oscillator_reference(energy, lam, 0, free_matrix_coeffs(5, 0, lam)),
    "oscillator_reference stacked": lambda energy, lam: oscillator_reference(
        np.array([1.0, energy]), lam, 0, free_matrix_coeffs(5, 0, lam)
    ),
}
BAD_VALUES = [0.0, -1.0, float("nan"), float("inf")]


@pytest.mark.parametrize("call", WITH_ENERGY.values(), ids=WITH_ENERGY.keys())
@pytest.mark.parametrize("bad", BAD_VALUES)
def test_energy_not_finite_and_positive_refused_by_value(call, bad):
    with pytest.raises(ValueError, match=re.escape(f"scattering energy must be finite and positive, got {bad!r}")):
        call(bad, 1.0)


@pytest.mark.parametrize("call", WITH_SCALE.values(), ids=WITH_SCALE.keys())
@pytest.mark.parametrize("bad", BAD_VALUES)
def test_scale_not_finite_and_positive_refused_by_value(call, bad):
    with pytest.raises(ValueError, match=re.escape(f"basis scale lam must be finite and positive, got {bad!r}")):
        call(1.0, bad)


@pytest.mark.parametrize("basis", ["oscillator", "laguerre"])
@pytest.mark.parametrize("ell", [0, 2])
@pytest.mark.parametrize("kmax", [0, 1, 2])
def test_short_ranges_are_prefixes(basis, ell, kmax):
    # the seeds alone (kmax 0, 1) and one recursion step (kmax 2) are the head of a long run, bit for bit
    s, c = reference_coefficients(1.3, 1.0, ell, kmax, basis=basis)
    full_s, full_c = reference_coefficients(1.3, 1.0, ell, 10, basis=basis)
    assert s.shape == c.shape == (kmax + 1,)
    assert np.array_equal(s, full_s[: kmax + 1])
    assert np.array_equal(c, full_c[: kmax + 1])


@pytest.mark.parametrize("ell", [0, 1, 2, 3])
@pytest.mark.parametrize("lam", [0.5, 1.0, 1.6])
@pytest.mark.parametrize("kmax", [1, 2, 20])
def test_oscillator_energy_array_is_its_one_energy_calls(ell, lam, kmax):
    # one recursion on the energy vector, every column bit for bit its scalar run
    energies = np.random.default_rng(ell + 10 * kmax).uniform(0.01, 8.0, 40)
    coeffs = free_matrix_coeffs(kmax, ell, lam)
    s, c = oscillator_reference(energies, lam, ell, coeffs)
    assert s.shape == c.shape == (kmax + 1, energies.size)
    for j, energy in enumerate(energies.tolist()):
        one_s, one_c = oscillator_reference(energy, lam, ell, coeffs)
        assert np.array_equal(s[:, j], one_s)
        assert np.array_equal(c[:, j], one_c)


@pytest.mark.parametrize("basis", ["oscillator", "laguerre"])
@pytest.mark.parametrize("ell", [0, 1, 3])
def test_s_and_c_are_their_own_recursions(basis, ell):
    # s and c advance in one loop; each has the bits of the plain loop from its own two seeds
    kmax, lam = 3000, 1.0
    for energy in (0.7, 2.3):
        s, c = reference_coefficients(energy, lam, ell, kmax, basis=basis)
        if basis == "oscillator":
            a, off = free_matrix_coeffs(kmax, ell, lam)
            mult = energy - a
        else:
            mu2 = (math.sqrt(2.0 * energy) / lam) ** 2
            diag, off = jacobi_coefficients(kmax, 2 * ell)
            mult = diag * ((mu2 - 0.25) / (mu2 + 0.25))
        for x in (s, c):
            assert np.array_equal(x, upward_scalar(float(x[0]), float(x[1]), mult.tolist(), off.tolist(), kmax))


@pytest.mark.parametrize("ell", [0, 1, 2, 3])
@pytest.mark.parametrize("lam", [0.5, 1.0, 1.6])
def test_oscillator_seeds_are_their_scalar_math(ell, lam):
    # the array seeds keep math's exp/log and Python's ** per energy, to the last bit
    energies = np.random.default_rng(ell).uniform(0.01, 8.0, 200)
    a, b = coeffs = free_matrix_coeffs(1, ell, lam)
    s, c = oscillator_reference(energies, lam, ell, coeffs)
    for j, energy in enumerate(energies.tolist()):
        alpha, c0, tau = oscillator_seeds_scalar(energy, lam, ell)
        assert (s[0, j], c[0, j]) == (alpha, c0)
        assert (s[1, j], c[1, j]) == ((energy - a[0]) * alpha / b[0], ((energy - a[0]) * c0 + tau) / b[0])


class TestOscillatorReconstruction:
    @pytest.mark.parametrize("ell,energy", FIG_PAIRS)
    def test_sine_tracks_regular_bessel(self, ell, energy):
        s, _ = reference_coefficients(energy, 1.0, ell, 1000)
        r = np.linspace(0.0, 25.0, 400)
        chi = chi_reconstruct(s, ell, 1.0, r)
        assert np.abs(chi - free_targets(energy, ell, r)[0]).max() < 1e-8

    @pytest.mark.parametrize("ell,energy", FIG_PAIRS)
    def test_cosine_tracks_irregular_bessel_asymptotically(self, ell, energy):
        _, c = reference_coefficients(energy, 1.0, ell, 1000)
        r = np.linspace(0.05, 25.0, 400)
        chi = chi_reconstruct(c, ell, 1.0, r)
        target = free_targets(energy, ell, r)[1]
        outer = r >= 12.5
        assert np.abs(chi[outer] - target[outer]).max() < 1e-8

    def test_irregular_sign_convention(self):
        # the cosine-like solution approaches +sqrt(kr) Y_ell, not its negative
        _, c = reference_coefficients(1.5, 1.0, 0, 800)
        r = np.linspace(10.0, 25.0, 200)
        chi = chi_reconstruct(c, 0, 1.0, r)
        target = free_targets(1.5, 0, r)[1]
        assert np.abs(chi - target).max() < 1e-8
        assert np.abs(chi + target).max() > 1.0

    def test_amplitude_envelope(self):
        # free solutions carry the universal sqrt(2/pi) envelope
        s, _ = reference_coefficients(1.5, 1.0, 0, 1000)
        r = np.linspace(10.0, 25.0, 2000)
        chi = chi_reconstruct(s, 0, 1.0, r)
        assert np.abs(chi).max() == pytest.approx(np.sqrt(2.0 / np.pi), abs=0.02)

    @pytest.mark.parametrize("basis", ["oscillator", "laguerre"])
    def test_stacked_rows_equal_one_row_calls(self, basis):
        # one pass over the basis functions serves both rows, bit for bit
        s, c = reference_coefficients(1.5, 1.0, 1, 300, basis=basis)
        r = np.linspace(0.0, 20.0, 150)
        both = chi_reconstruct(np.array([s, c]), 1, 1.0, r, basis=basis)
        assert both.shape == (2, r.size)
        assert np.array_equal(both[0], chi_reconstruct(s, 1, 1.0, r, basis=basis))
        assert np.array_equal(both[1], chi_reconstruct(c, 1, 1.0, r, basis=basis))

    def test_origin_values(self):
        regular, irregular = free_targets(1.0, 2, np.array([0.0]))
        assert regular[0] == 0.0
        assert not np.isfinite(irregular[0])


class TestLaguerreBasis:
    def test_matches_oscillator_curves(self):
        r = np.linspace(0.05, 25.0, 300)
        osc_s, osc_c = reference_coefficients(1.0, 1.0, 1, 1000, basis="oscillator")
        lag_s, lag_c = reference_coefficients(1.0, 1.0, 1, 1000, basis="laguerre")
        sin_o = chi_reconstruct(osc_s, 1, 1.0, r, basis="oscillator")
        sin_l = chi_reconstruct(lag_s, 1, 1.0, r, basis="laguerre")
        assert np.abs(sin_o - sin_l).max() < 1e-8
        cos_o = chi_reconstruct(osc_c, 1, 1.0, r, basis="oscillator")
        cos_l = chi_reconstruct(lag_c, 1, 1.0, r, basis="laguerre")
        # the Laguerre cosine-like curve still carries its regularization
        # layer (about 5e-3 here at r = 12.5), which bounds this comparison
        outer = r >= 12.5
        assert np.abs(cos_o[outer] - cos_l[outer]).max() < 3e-2

    @pytest.mark.parametrize("ell,energy", FIG_PAIRS)
    def test_sine_tracks_regular_bessel(self, ell, energy):
        s, _ = reference_coefficients(energy, 1.0, ell, 1000, basis="laguerre")
        r = np.linspace(0.0, 25.0, 300)
        chi = chi_reconstruct(s, ell, 1.0, r, basis="laguerre")
        assert np.abs(chi - free_targets(energy, ell, r)[0]).max() < 1e-8

    def test_high_wave_cosine_far_window(self):
        # the regularization layer delays the irregular asymptote for larger
        # ell; far from the origin the reconstruction locks on, up to what
        # is left of that layer at r = 40 (about 8e-6 for ell = 3)
        _, c = reference_coefficients(2.5, 1.0, 3, 4000, basis="laguerre")
        r = np.linspace(40.0, 80.0, 300)
        chi = chi_reconstruct(c, 3, 1.0, r, basis="laguerre")
        target = free_targets(2.5, 3, r)[1]
        assert np.abs(chi - target).max() < 1e-4


def same_bits(a, b) -> bool:
    """Equal shapes and equal bits in every entry: signed zeros and NaNs included."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestBlockedSum:
    """The sum taken in blocks has the bits of the one-term-at-a-time sum."""

    R = np.linspace(0.0, 25.0, 301)

    @pytest.mark.parametrize("basis", ["oscillator", "laguerre"])
    @pytest.mark.parametrize("ell", range(4))
    @pytest.mark.parametrize("size", [1, 2, 63, 64, 65, 129])
    def test_block_edges_equal_the_streamed_sum(self, basis, ell, size):
        s, c = reference_coefficients(1.3, 1.0, ell, size - 1, basis=basis)
        for coefficients in (s, c, np.array([s, c])):
            want = chi_reconstruct_streamed(coefficients, ell, 1.0, self.R, basis=basis)
            assert same_bits(chi_reconstruct(coefficients, ell, 1.0, self.R, basis=basis), want)

    @pytest.mark.parametrize("basis", ["oscillator", "laguerre"])
    @pytest.mark.parametrize("ell", range(4))
    def test_benchmark_size_equals_the_streamed_sum(self, basis, ell):
        r = np.linspace(0.05, 25.0, 500)
        s, c = reference_coefficients(1.7, 1.0, ell, 3000, basis=basis)
        for coefficients in (c, np.array([s, c])):
            want = chi_reconstruct_streamed(coefficients, ell, 1.0, r, basis=basis)
            assert same_bits(chi_reconstruct(coefficients, ell, 1.0, r, basis=basis), want)

    @pytest.mark.parametrize("basis", ["oscillator", "laguerre"])
    def test_sum_of_signed_zeros_keeps_its_sign(self, basis):
        # at r = 0 every phi_k is +0, so negative coefficients sum to -0 there
        for size in (1, 70):
            coefficients = -np.linspace(1.0, 2.0, size)
            out = chi_reconstruct(coefficients, 1, 1.0, self.R[:3], basis=basis)
            assert np.signbit(out[0]) and out[0] == 0.0
            assert same_bits(out, chi_reconstruct_streamed(coefficients, 1, 1.0, self.R[:3], basis=basis))

    @pytest.mark.parametrize("basis", ["oscillator", "laguerre"])
    def test_entries_do_not_depend_on_the_other_radii(self, basis):
        r = np.linspace(0.05, 25.0, 500)
        s, c = reference_coefficients(2.2, 1.0, 1, 3000, basis=basis)
        coefficients = np.array([s, c])
        full = chi_reconstruct(coefficients, 1, 1.0, r, basis=basis)
        for sub in (slice(None, None, 7), slice(3, 4), slice(101, 357)):
            assert same_bits(chi_reconstruct(coefficients, 1, 1.0, r[sub], basis=basis), full[:, sub])

    def test_result_shape_follows_rows_and_radii(self):
        s, c = reference_coefficients(1.3, 1.0, 0, 80)
        assert chi_reconstruct(s, 0, 1.0, np.array([])).shape == (0,)
        assert chi_reconstruct(np.array([s, c]), 0, 1.0, np.array([2.0])).shape == (2, 1)
        grid = np.linspace(0.1, 5.0, 12).reshape(3, 4)
        assert same_bits(chi_reconstruct(c, 0, 1.0, grid), chi_reconstruct(c, 0, 1.0, grid.ravel()).reshape(3, 4))

    @pytest.mark.parametrize("basis", ["oscillator", "laguerre"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -1.0])
    def test_radius_not_finite_and_nonnegative_refused_by_value(self, basis, bad):
        with pytest.raises(ValueError, match=f"finite and nonnegative, got {bad!r}"):
            chi_reconstruct(np.ones(5), 0, 1.0, [0.5, bad, 1.0], basis=basis)

    @pytest.mark.parametrize("basis", ["oscillator", "laguerre"])
    def test_peak_allocation_at_benchmark_size(self, basis):
        # the block buffers, not N-sized tables: the two reconstructions of one basis-check block
        r = np.linspace(0.05, 25.0, 500)
        s, c = reference_coefficients(1.7, 1.0, 2, 3000, basis=basis)
        coefficients = np.array([s, c])
        tracemalloc.start()
        try:
            chi_reconstruct(coefficients, 2, 1.0, r, basis=basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6
