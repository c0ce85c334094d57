import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from scipy.special import jv

import nandwalk.dynamics as dynamics
from nandwalk import (
    HamiltonianGraph,
    RunConfig,
    build_full,
    build_runway,
    cli_main,
    dense_eig,
    eval_nand,
    evolve_cheb,
    evolve_exact,
    initial_packet,
    parse_input,
    prob_right,
    run_algorithm,
)
from nandwalk.dynamics import CHEB_TOL, SPECTRAL_RADIUS_BOUND, _chebyshev_coefficients
from conftest import random_tree


class TestInitialPacket:
    @pytest.mark.parametrize("n_leaves", [4, 16])
    @pytest.mark.parametrize("L", [8, 32, 128])
    def test_moments_exact(self, n_leaves, L):
        # <H> = 0 and <H^2> = 5/L to machine precision on the full graph
        bits = [0, 1] * (n_leaves // 2)
        H = build_full(parse_input("".join(map(str, bits))), M=3 * L)
        psi = initial_packet(L, 3 * L, H.index_map)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-14
        hpsi = H.matrix @ psi
        assert abs(np.vdot(psi, hpsi).real) < 1e-12
        assert abs(np.vdot(hpsi, hpsi).real - 5.0 / L) < 1e-12

    def test_support(self):
        H = build_full(parse_input("01"), M=12)
        psi = initial_packet(4, 12, H.index_map)
        imap = H.index_map
        on = np.nonzero(psi)[0]
        assert set(on) == set(imap.runway_indices(np.arange(-3, 1)))
        assert np.allclose(np.abs(psi[on]), 0.5)

    def test_sublattice_phases_exact(self):
        # real on even runway sites, imaginary on odd ones, with exact zeros
        L, M = 32, 96
        H = build_full(parse_input("0110"), M=M)
        psi = initial_packet(L, M, H.index_map)
        rs = np.arange(-L + 1, 1)
        on = psi[H.index_map.runway_indices(rs)]
        assert np.all(on[rs % 2 == 0].imag == 0.0)
        assert np.all(on[rs % 2 == 1].real == 0.0)
        assert np.all(np.abs(on) == 1.0 / math.sqrt(L))

    def test_rejects_packet_longer_than_runway(self):
        H = build_full(parse_input("01"), M=4)
        with pytest.raises(ValueError):
            initial_packet(5, 4, H.index_map)


class TestExactPropagator:
    def test_identity_at_zero_time(self, rng):
        t = random_tree(rng, 4)
        H = build_full(t, M=6)
        eig = dense_eig(H)
        psi = initial_packet(4, 6, H.index_map)
        assert np.allclose(evolve_exact(eig, psi, 0.0), psi, atol=1e-12)

    def test_norm_preserved(self, rng):
        t = random_tree(rng, 8)
        H = build_full(t, M=10)
        eig = dense_eig(H)
        psi = initial_packet(8, 10, H.index_map)
        for t_run in (0.5, 3.0, 40.0):
            out = evolve_exact(eig, psi, t_run)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-10

    def test_eigenvector_picks_up_phase_only(self, rng):
        t = random_tree(rng, 4)
        H = build_full(t, M=5)
        w, V = dense_eig(H)
        k = 3
        out = evolve_exact((w, V), V[:, k].astype(complex), 2.2)
        assert np.allclose(out, np.exp(-1j * w[k] * 2.2) * V[:, k], atol=1e-12)


class TestChebyshevPropagator:
    def test_identity_at_zero_time(self, rng):
        t = random_tree(rng, 4)
        H = build_full(t, M=6)
        psi = initial_packet(4, 6, H.index_map)
        assert np.array_equal(evolve_cheb(H, psi, 0.0), psi)
        # at x = 0 the coefficients are [1, 0, ...], so the recurrence itself
        # returns a random complex state bit for bit
        assert _chebyshev_coefficients(0.0).tolist() == [1.0] + [0.0] * 9
        psi = rng.normal(size=H.dim) + 1j * rng.normal(size=H.dim)
        out = evolve_cheb(H, psi, 0.0)
        assert np.array_equal(out.view(np.uint64), psi.view(np.uint64))

    def test_agrees_with_exact(self, rng):
        for n_leaves, L, t_run in [(4, 8, 1.7), (16, 32, 32.0), (16, 32, 200.0)]:
            t = random_tree(rng, n_leaves)
            H = build_full(t, M=3 * L)
            psi = initial_packet(L, 3 * L, H.index_map)
            a = evolve_cheb(H, psi, t_run)
            b = evolve_exact(dense_eig(H), psi, t_run)
            assert np.linalg.norm(a - b) <= 1e-8
            assert abs(np.linalg.norm(a) - 1.0) <= 1e-10

    def test_composition(self, rng):
        t = random_tree(rng, 8)
        H = build_full(t, M=12)
        psi = initial_packet(8, 12, H.index_map)
        one = evolve_cheb(H, evolve_cheb(H, psi, 5.5), 7.25)
        two = evolve_cheb(H, psi, 12.75)
        assert np.linalg.norm(one - two) < 1e-8

    def test_negative_time_inverts(self, rng):
        t = random_tree(rng, 4)
        H = build_full(t, M=8)
        psi = initial_packet(6, 8, H.index_map)
        back = evolve_cheb(H, evolve_cheb(H, psi, 9.0), -9.0)
        assert np.linalg.norm(back - psi) < 1e-9

    def test_unstructured_state_agrees_with_exact(self, rng):
        # a random complex state needs both real recurrences
        t = random_tree(rng, 16)
        H = build_full(t, M=48)
        eig = dense_eig(H)
        psi = rng.normal(size=H.dim) + 1j * rng.normal(size=H.dim)
        psi /= np.linalg.norm(psi)
        for t_run in (3.3, 40.0, -17.5):
            a = evolve_cheb(H, psi, t_run)
            b = evolve_exact(eig, psi, t_run)
            assert np.linalg.norm(a - b) <= 1e-8

    @pytest.mark.parametrize("span", [2, 3])
    def test_rejects_graph_with_a_cycle(self, span):
        # span 2 closes a triangle (not bipartite), span 3 a square
        # (bipartite, but not a forest): the 2 sqrt 2 bound does not hold
        H = build_runway(6)
        m = H.matrix.tolil()
        m[0, span] = m[span, 0] = -1.0
        looped = HamiltonianGraph(matrix=m.tocsr(), index_map=H.index_map)
        psi = initial_packet(4, 6, H.index_map)
        for t in (1.0, 0.0):
            with pytest.raises(ValueError):
                evolve_cheb(looped, psi, t)

    def test_coefficients_match_wider_search(self):
        # reference: the first k > |x| with |J_k(x)| < CHEB_TOL / 100, found
        # in a tail window twice as wide, plus 9 orders; every coefficient is
        # compared bitwise up to 2000 terms, a strided sample beyond
        xs = np.r_[np.linspace(-40.0, 40.0, 161), -2896.3, 362.0, 1e3, 1e4, 1e5]
        for x in xs:
            a = _chebyshev_coefficients(x)
            tail = np.arange(int(abs(x)) + 1, int(abs(x) + 24.0 * abs(x) ** (1 / 3)) + 100)
            cut = tail[np.abs(jv(tail, x)) < CHEB_TOL / 100.0][0]
            assert a.size == cut + 9
            ks = np.unique(np.r_[0:a.size:max(1, a.size // 2000), a.size - 9:a.size])
            ref = (2.0 - (ks == 0)) * np.where(ks % 4 < 2, 1.0, -1.0) * jv(ks, x)
            assert a[ks].tobytes() == ref.tobytes()

    def test_decide_large_term_count(self):
        # N = 16384, gamma = 16: t = L/2 = 1024
        assert _chebyshev_coefficients(SPECTRAL_RADIUS_BOUND * 1024.0).size == 3042

    def test_missing_cutoff_is_a_numerical_failure(self, monkeypatch, capsys):
        monkeypatch.setattr(dynamics, "jv", lambda ks, x: np.ones(np.shape(ks)))
        H = build_full(parse_input("01"), M=12)
        with pytest.raises(RuntimeError):
            evolve_cheb(H, initial_packet(4, 12, H.index_map), 1.0)
        assert cli_main(["run", "--input", "01", "--gamma", "4"]) == 1
        assert "cut-off" in capsys.readouterr().err


class TestProbRight:
    def test_initial_packet_all_left(self):
        H = build_full(parse_input("01"), M=8)
        psi = initial_packet(6, 8, H.index_map)
        assert prob_right(psi, H.index_map) == 0.0

    def test_point_mass_on_right(self):
        H = build_full(parse_input("01"), M=8)
        psi = np.zeros(H.dim, dtype=complex)
        psi[H.index_map.runway_indices(np.array([5]))[0]] = 1.0
        assert prob_right(psi, H.index_map) == pytest.approx(1.0)


class TestRunConfig:
    def test_for_tree_derivation(self):
        cfg = RunConfig.for_tree(16, gamma=16.0)
        assert cfg.L == 64 and cfg.M == 192 and cfg.t_run == 32.0

    def test_forces_even_floor(self):
        cfg = RunConfig.for_tree(2, gamma=3.0)  # round(3 sqrt 2) = 4
        assert cfg.L >= 4 and cfg.L % 2 == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(gamma=0.5, L=8, M=24, t_run=4.0)
        with pytest.raises(ValueError):
            RunConfig(gamma=2.0, L=7, M=24, t_run=3.5)
        with pytest.raises(ValueError):
            RunConfig(gamma=2.0, L=8, M=16, t_run=4.0)

    @pytest.mark.parametrize("gamma", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_gamma(self, gamma):
        with pytest.raises(ValueError):
            RunConfig.for_tree(16, gamma=gamma)
        with pytest.raises(ValueError):
            RunConfig(gamma=gamma, L=8, M=24, t_run=4.0)


class TestRunAlgorithm:
    def test_transmitting_instance(self):
        t = parse_input("0011")
        v = run_algorithm(t, RunConfig.for_tree(4, gamma=16.0))
        assert eval_nand(t) == 1
        assert v.analytic_T0_sq == 1.0
        assert v.decision == 1
        assert v.p_right >= 0.75

    def test_reflecting_instance(self):
        t = parse_input("0110")
        v = run_algorithm(t, RunConfig.for_tree(4, gamma=16.0))
        assert eval_nand(t) == 0
        assert v.analytic_T0_sq == 0.0
        assert v.decision == 0
        assert v.p_right <= 0.25

    def test_verdict_json(self):
        v = run_algorithm(parse_input("0110"), RunConfig.for_tree(4, gamma=4.0))
        obj = json.loads(json.dumps(asdict(v), sort_keys=True))
        assert obj["decision"] == v.decision
        assert obj["config"]["bits"] == "0110"

    def test_error_shrinks_with_gamma(self):
        for bits in ("0011", "0110"):
            t = parse_input(bits)
            errs = []
            for gamma in (8.0, 16.0, 32.0):
                v = run_algorithm(t, RunConfig.for_tree(4, gamma=gamma))
                errs.append(abs(v.p_right - v.analytic_T0_sq))
            assert errs[0] > errs[1] > errs[2]

    def test_wall_insensitivity(self):
        t = parse_input("0011")
        p3 = run_algorithm(t, RunConfig.for_tree(4, gamma=16.0, m_factor=3)).p_right
        p6 = run_algorithm(t, RunConfig.for_tree(4, gamma=16.0, m_factor=6)).p_right
        assert abs(p3 - p6) < 1e-6

    def test_reflection_stays_on_left(self):
        # reflecting instance: weight on r <= 0 plus the tree dominates
        t = parse_input("0110")
        cfg = RunConfig.for_tree(4, gamma=16.0)
        H = build_full(t, cfg.M)
        psi = evolve_exact(dense_eig(H), initial_packet(cfg.L, cfg.M, H.index_map), cfg.t_run)
        imap = H.index_map
        left = np.sum(np.abs(psi[imap.runway_indices(np.arange(-cfg.M, 1))]) ** 2)
        tree_mass = np.sum(np.abs(psi[imap.tree_indices()]) ** 2)
        extra_mass = np.sum(np.abs(psi[imap.extra_indices()]) ** 2)
        assert left + tree_mass + extra_mass >= 0.75

    def test_chebyshev_backend_matches(self):
        t = parse_input("0011")
        cfg = RunConfig.for_tree(4, gamma=8.0)
        H = build_full(t, cfg.M)
        psi0 = initial_packet(cfg.L, cfg.M, H.index_map)
        exact = prob_right(evolve_exact(dense_eig(H), psi0, cfg.t_run), H.index_map)
        cheb = run_algorithm(t, cfg)
        assert abs(exact - cheb.p_right) < 1e-9
        assert cheb.decision == int(exact >= 0.5)
