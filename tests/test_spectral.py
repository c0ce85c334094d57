import math

import numpy as np
import pytest

from nandwalk import (
    RunConfig,
    build_full,
    build_runway,
    band_mass,
    dense_eig,
    dispersion_smallness,
    error_budget,
    initial_packet,
    packet_spectrum,
    parse_input,
    parseval_total,
    tail_mass,
    window_weight,
)


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

    def test_parseval(self):
        for L in (16, 64, 256):
            assert abs(parseval_total(L) - 1.0) < 1e-10

    def test_additivity(self):
        L, eps = 64, 0.37
        total = band_mass(L, -math.pi, -eps) + band_mass(L, -eps, eps) + band_mass(L, eps, math.pi)
        assert total == pytest.approx(parseval_total(L), abs=1e-11)

    def test_matches_exact_cosine_series(self):
        # independent oracle: integrate the Fejer-type expansion term by term
        L, eps = 32, 0.2
        d = np.arange(1, L)
        exact = (math.pi - eps) / math.pi - (2.0 / (math.pi * L)) * np.sum(
            (L - d) * np.sin(d * eps) / d
        )
        tail = band_mass(L, eps, math.pi) + band_mass(L, -math.pi, -eps)
        assert tail == pytest.approx(exact, abs=1e-11)

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

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            tail_mass(64, 0.0)
        with pytest.raises(ValueError):
            tail_mass(64, 4.0)


class TestWindowWeight:
    def test_whole_band_on_free_runway(self):
        # no tree: every eigenstate is a propagating wave, weight = 1
        L, M = 32, 96
        H = build_runway(M)
        psi0 = initial_packet(L, M, H.index_map)
        w = window_weight(dense_eig(H), psi0, math.pi)
        assert w >= 1.0 - 1e-9

    def test_narrow_window_weight_frozen(self):
        # N = 16, gamma = 16, eps = 1/(16 sqrt N): the dense-eig oracle
        # gives ~0.244, well short of 1 because L*eps is only gamma/16
        tree = parse_input("1" * 16)
        cfg = RunConfig.for_tree(16, gamma=16.0)
        H = build_full(tree, cfg.M)
        psi0 = initial_packet(cfg.L, cfg.M, H.index_map)
        w = window_weight(dense_eig(H), psi0, 1.0 / 64.0)
        assert w == pytest.approx(0.2435, abs=0.02)

    def test_monotone_in_gamma(self):
        tree = parse_input("0110")
        eps = 1.0 / (16.0 * 2.0)
        weights = []
        for gamma in (8.0, 16.0, 32.0):
            cfg = RunConfig.for_tree(4, gamma=gamma)
            H = build_full(tree, cfg.M)
            psi0 = initial_packet(cfg.L, cfg.M, H.index_map)
            weights.append(window_weight(dense_eig(H), psi0, eps))
        assert weights[1] > weights[0] - 0.02
        assert weights[2] > weights[1] - 0.02

    def test_rejects_bad_eps(self):
        H = build_runway(8)
        psi0 = initial_packet(4, 8, H.index_map)
        with pytest.raises(ValueError):
            window_weight(dense_eig(H), psi0, 0.0)


class TestErrorBudget:
    def test_standard_substitution(self):
        # eps = 1/(16 sqrt N), D = 8 sqrt N, L = gamma sqrt N
        for n_leaves in (4, 16, 256, 4096):
            root = math.sqrt(n_leaves)
            budget = error_budget(16.0 * root, 1.0 / (16.0 * root), 8.0 * root)
            assert budget == pytest.approx(1.0, rel=1e-12)  # 4 / sqrt(gamma) at gamma 16

    def test_dominant_term_scaling(self):
        # the window-tail term is 4/sqrt(gamma) exactly under the substitution
        for gamma in (4.0, 16.0, 64.0, 256.0):
            root = 4.0
            L = gamma * root
            eps = 1.0 / (16.0 * root)
            assert 1.0 / math.sqrt(L * eps) == pytest.approx(4.0 / math.sqrt(gamma), rel=1e-12)
            assert error_budget(L, eps, 8.0 * root) == pytest.approx(4.0 / math.sqrt(gamma), rel=1e-12)

    def test_independent_of_tree_size(self):
        vals = set()
        for n_leaves in (4, 64, 1024):
            root = math.sqrt(n_leaves)
            vals.add(round(error_budget(32.0 * root, 1.0 / (16.0 * root), 8.0 * root), 12))
        assert len(vals) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            error_budget(0.0, 0.1, 1.0)


class TestDispersionSmallness:
    def test_standard_configurations_are_small(self):
        # L eps^3 = gamma / (4096 N) under the standard substitution
        for n_leaves in (4, 16, 1024):
            root = math.sqrt(n_leaves)
            for gamma in (1.0, 16.0, 256.0):
                val = dispersion_smallness(gamma * root, 1.0 / (16.0 * root))
                assert val == pytest.approx(gamma / (4096.0 * n_leaves), rel=1e-12)
                assert val < 0.1
