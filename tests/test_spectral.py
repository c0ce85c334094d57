import itertools
import math

import numpy as np
import pytest

from nandwalk import (
    band_mass,
    initial_packet,
    packet_spectrum,
    parseval_total,
    tail_mass,
)
from conftest import build_runway


def gauss_legendre_band_mass(L, lo, hi):
    """Independent oracle for band_mass: 16-point Gauss-Legendre on every
    lobe of |A|^2 = sin^2(L phi / 2) / (L sin^2(phi / 2)), split at the
    multiples of 2 pi / L so that no node lands on phi = 0."""
    x, w = np.polynomial.legendre.leggauss(16)
    lobe = 2.0 * np.pi / L
    k = np.arange(math.ceil(lo / lobe), math.floor(hi / lobe) + 1) * lobe
    cuts = np.concatenate(([lo], k[(lo < k) & (k < hi)], [hi]))
    half = (cuts[1:, None] - cuts[:-1, None]) / 2.0
    phi = (cuts[1:, None] + cuts[:-1, None]) / 2.0 + half * x
    f = np.sin(L * phi / 2.0) ** 2 / (L * np.sin(phi / 2.0) ** 2)
    return float(np.sum(half * w * f)) / (2.0 * np.pi)


NON_INTEGER_LENGTHS = [2.5, 16.0, True, math.nan, math.inf, np.float64(16.0)]


def raw_sums(L, phi):
    """Direct geometric sums: the oracle for the closed forms."""
    r = np.arange(L)
    a = np.sum(np.exp(1j * r * phi)) / math.sqrt(L)
    b = np.sum((-1.0) ** r * np.exp(-1j * r * phi)) / math.sqrt(L)
    return a, b


class TestPacketSpectrum:
    def test_value_at_zero(self):
        for L in (5, 16, 301):
            A, _ = packet_spectrum(L, 0.0)
            assert A == pytest.approx(math.sqrt(L), rel=1e-12)

    def test_alternating_value_at_pi(self):
        for L in (4, 5, 64):
            _, B = packet_spectrum(L, math.pi)
            assert B == pytest.approx(math.sqrt(L), rel=1e-12)
            _, B = packet_spectrum(L, -math.pi)
            assert B == pytest.approx(math.sqrt(L), rel=1e-12)

    def test_closed_forms_match_raw_sums(self, rng):
        for L in (7, 16, 33):
            for phi in rng.uniform(-math.pi, math.pi, 40):
                A, B = packet_spectrum(L, float(phi))
                a, b = raw_sums(L, float(phi))
                assert A == pytest.approx(a, abs=1e-10)
                assert B == pytest.approx(b, abs=1e-10)

    def test_scalar_gives_complex(self):
        A, B = packet_spectrum(16, 0.3)
        assert isinstance(A, complex) and isinstance(B, complex)

    @pytest.mark.parametrize("L", [4, 16, 64, 512])
    def test_alternating_reads_reflected_momenta(self, L):
        # predict_p_right takes c(-theta) = A(-theta - pi/2) as B(theta - pi/2)
        G = 64 * 3 * L
        theta = (np.arange(G) + 0.5) * (math.pi / G)
        _, B = packet_spectrum(L, theta - math.pi / 2.0)
        A, _ = packet_spectrum(L, -theta - math.pi / 2.0)
        assert np.max(np.abs(B - A)) < 1e-13

    @pytest.mark.parametrize("L", NON_INTEGER_LENGTHS + [0, -4], ids=repr)
    def test_rejects_bad_length(self, L):
        with pytest.raises(ValueError):
            packet_spectrum(L, 0.1)

    def test_alternating_bound_inside_window(self):
        # |B|^2 < 1 / (L cos^2(eps/2)) pointwise for |phi| < eps
        for L in (16, 64, 256):
            for eps in (0.1, 0.3):
                phis = np.linspace(-eps, eps, 1001)
                _, B = packet_spectrum(L, phis)
                bound = 1.0 / (L * math.cos(eps / 2.0) ** 2)
                assert np.max(np.abs(B) ** 2) < bound


class TestBandMass:
    def test_rejects_nonpositive_length(self):
        for L in (0, -16):
            with pytest.raises(ValueError):
                band_mass(L, -1.0, 1.0)

    @pytest.mark.parametrize("L", NON_INTEGER_LENGTHS, ids=repr)
    def test_rejects_non_integer_length(self, L):
        with pytest.raises(ValueError):
            band_mass(L, -1.0, 1.0)

    @pytest.mark.parametrize("lo, hi", [(math.nan, 1.0), (-1.0, math.nan), (-math.inf, 1.0),
                                        (-1.0, math.inf), (-math.inf, math.inf)])
    def test_rejects_non_finite_bounds(self, lo, hi):
        with pytest.raises(ValueError):
            band_mass(16, lo, hi)

    def test_rejects_reversed_range(self):
        with pytest.raises(ValueError):
            band_mass(16, 1.0, -1.0)

    def test_zero_width_range_is_zero(self):
        # exactly 0.0, also at the removable singularity phi = 0 of |A|^2
        for x in (0.0, 0.3):
            assert band_mass(16, x, x) == 0.0

    def test_parseval(self):
        for L in itertools.chain(range(1, 40), range(40, 4097, 97), (4095, 4096)):
            assert abs(parseval_total(L) - 1.0) <= 1e-14, L

    @pytest.mark.parametrize("L", [1, 3, 16, 512, 1024, 4096])
    def test_matches_lobewise_quadrature(self, L, rng):
        ranges = [(-math.pi, math.pi), (0.0, math.pi), (-0.1, 0.1), (0.1, math.pi)]
        ranges += [tuple(np.sort(rng.uniform(-math.pi, math.pi, 2))) for _ in range(20)]
        for lo, hi in ranges:
            oracle = gauss_legendre_band_mass(L, lo, hi)
            assert abs(band_mass(L, lo, hi) - oracle) <= 1e-13, (L, lo, hi)

    def test_additivity(self):
        L, eps = 64, 0.37
        total = band_mass(L, -math.pi, -eps) + band_mass(L, -eps, eps) + band_mass(L, eps, math.pi)
        assert total == pytest.approx(parseval_total(L), abs=1e-11)

    def test_matches_exact_cosine_series(self):
        # the Fejer series band_mass is built on, summed with integer weights
        # (L - d) at the packet lengths the benchmark uses; the independent
        # oracle is gauss_legendre_band_mass
        for L, eps in itertools.product((32, 512, 1024), (0.1, 0.2, 1.0)):
            d = np.arange(1, L)
            exact = (math.pi - eps) / math.pi - (2.0 / (math.pi * L)) * np.sum(
                (L - d) * np.sin(d * eps) / d
            )
            tail = band_mass(L, eps, math.pi) + band_mass(L, -math.pi, -eps)
            assert tail == pytest.approx(exact, abs=1e-11), (L, eps)

    def test_band_total_equals_state_norm(self):
        # the spectrum carries exactly the packet's probability
        for L in (16, 64):
            H = build_runway(3 * L)
            psi0 = initial_packet(L, 3 * L, H.index_map)
            direct = float(np.sum(np.abs(psi0) ** 2))
            assert abs(parseval_total(L) - direct) < 1e-10


class TestTailMass:
    def test_example_bound(self):
        assert tail_mass(64, 0.25) < math.pi / 16.0

    @pytest.mark.parametrize("L", [16, 64, 256])
    @pytest.mark.parametrize("eps", [0.1, 0.3])
    def test_analytic_bound(self, L, eps):
        assert tail_mass(L, eps) < math.pi / (L * eps)

    def test_halves_when_length_doubles(self):
        eps = 0.25
        Ls = np.array([32, 64, 128, 256])
        tails = np.array([tail_mass(int(L), eps) for L in Ls])
        slope = np.polyfit(np.log(Ls), np.log(tails), 1)[0]
        assert -1.2 <= slope <= -0.8

    def test_wide_window_leaves_nothing(self):
        assert tail_mass(64, 3.0) < 5e-3

    @pytest.mark.parametrize("L", NON_INTEGER_LENGTHS, ids=repr)
    def test_rejects_non_integer_length(self, L):
        with pytest.raises(ValueError):
            tail_mass(L, 0.1)

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            tail_mass(64, 0.0)
        with pytest.raises(ValueError):
            tail_mass(64, 4.0)
