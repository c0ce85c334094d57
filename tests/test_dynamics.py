import json
import math
from dataclasses import asdict

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import jv

import nandwalk.dynamics as dynamics
import nandwalk.lattice as lattice
from nandwalk import (
    HamiltonianGraph,
    RunConfig,
    build_driver,
    build_full,
    build_oracle,
    cli_main,
    dense_eig,
    eval_nand,
    evolve_cheb,
    evolve_exact,
    hard_instance,
    initial_packet,
    parse_input,
    prob_right,
    run_algorithm,
)
from nandwalk.dynamics import (
    CHEB_TOL,
    SPECTRAL_RADIUS_BOUND,
    _chebyshev_coefficients,
    _csr_matvec_add,
)
from conftest import build_runway, random_tree


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

    def test_rejects_empty_packet(self):
        H = build_full(parse_input("01"), M=4)
        with pytest.raises(ValueError, match="packet length L must be an integer >= 1"):
            initial_packet(0, 4, H.index_map)

    @pytest.mark.parametrize("L", [8.0, np.float64(8.0), True], ids=repr)
    def test_rejects_non_integer_length(self, L):
        # L = 8.0 used to raise IndexError, and L = True made a one-site packet
        H = build_full(parse_input("01"), M=24)
        with pytest.raises(ValueError, match="packet length L must be an integer"):
            initial_packet(L, 24, H.index_map)

    @pytest.mark.parametrize("M", [12.0, np.float64(12.0), True], ids=repr)
    def test_rejects_non_integer_runway(self, M):
        # M = 12.0 equals the map's M, and used to be accepted
        imap = build_full(parse_input("01"), M=12).index_map
        with pytest.raises(ValueError, match="M must be an integer"):
            initial_packet(4, M, imap)

    @pytest.mark.parametrize("L, M, map_M", [(8, 24, 4), (4, 12, 24)])
    def test_rejects_runway_other_than_the_maps(self, L, M, map_M):
        # the first used to surface as a KeyError, the second went unnoticed
        H = build_full(parse_input("01"), M=map_M)
        with pytest.raises(ValueError, match="M="):
            initial_packet(L, M, H.index_map)


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

    def test_rejects_state_of_wrong_length(self):
        H = build_runway(6)
        with pytest.raises(ValueError, match="dimension"):
            evolve_cheb(H, np.zeros(H.dim + 1, dtype=complex), 1.0)

    def test_rejects_state_of_wrong_shape(self):
        # a 0-d state used to raise IndexError, and a (dim, 1) column was
        # broadcast to a (dim, dim) array before any check
        H = build_runway(6)
        for psi in (np.complex128(1.0), np.zeros((H.dim, 1), dtype=complex)):
            with pytest.raises(ValueError, match="dimension"):
                evolve_cheb(H, psi, 1.0)

    def test_rejects_asymmetric_matrix(self):
        # (0, 3) without (3, 0): the undirected graph is the 4-cycle
        # 0-1-2-3-0, yet its 6 stored entries count as 3 edges, as for a
        # tree on those 4 nodes, so the forest count alone accepted it
        imap = build_runway(2).index_map
        rows, cols = [0, 1, 1, 2, 2, 0], [1, 0, 2, 1, 3, 3]
        m = sp.csr_matrix((-np.ones(6), (rows, cols)), shape=(imap.dim, imap.dim))
        graph = HamiltonianGraph(matrix=m, index_map=imap)
        with pytest.raises(ValueError, match="transpose"):
            evolve_cheb(graph, initial_packet(2, 2, imap), 3.0)
        # one stored entry of the runway halved: the norm drifted to 0.978
        H = build_runway(1)
        m = H.matrix.copy()
        m.data[0] = -0.5
        with pytest.raises(ValueError, match="transpose"):
            evolve_cheb(HamiltonianGraph(matrix=m, index_map=H.index_map),
                        initial_packet(1, 1, H.index_map), 3.0)

    def test_rejects_matrix_off_the_layout(self):
        # a runway of M = 6 on the record of M = 5 used to raise IndexError
        H = build_runway(6)
        graph = HamiltonianGraph(matrix=H.matrix, index_map=build_runway(5).index_map)
        with pytest.raises(ValueError, match="layout"):
            evolve_cheb(graph, np.zeros(H.dim, dtype=complex), 1.0)

    def test_weight_checked_on_the_layout_pattern(self):
        # a matrix on the layout record's own pattern skips the structural
        # check, but never the check of its entries
        H = build_full(parse_input("0110"), M=12)
        imap = H.index_map
        heavy = sp.csr_matrix((2 * H.matrix.data, imap.indices, imap.indptr), copy=False)
        assert heavy.indptr is imap.indptr and np.shares_memory(heavy.indices, imap.indices)
        with pytest.raises(ValueError, match="unit edge weight"):
            evolve_cheb(HamiltonianGraph(matrix=heavy, index_map=imap),
                        initial_packet(4, 12, imap), 1.0)

    def test_rejects_asymmetric_values_on_the_layout_pattern(self):
        # one entry halved, in place and in a matrix on the record's own
        # buffers: both skip the structural check, and both used to
        # propagate, to norm 0.9989 at t = 12
        H = build_full(parse_input("0110"), M=12)
        imap = H.index_map
        data = H.matrix.data.copy()
        data[0] = -0.5
        rebuilt = sp.csr_matrix((data, imap.indices, imap.indptr), copy=False)
        H.matrix.data[0] = -0.5
        for m in (H.matrix, rebuilt):
            assert m.indptr is imap.indptr and np.shares_memory(m.indices, imap.indices)
            with pytest.raises(ValueError, match="transpose"):
                evolve_cheb(HamiltonianGraph(matrix=m, index_map=imap),
                            initial_packet(4, 12, imap), 12.0)

    def test_nan_entry_fails_as_a_weight(self):
        # |data| <= 1 is checked before symmetry, on the record's pattern
        # and on a copy of it, so NaN is reported as a weight
        H = build_full(parse_input("0110"), M=12)
        copied = H.matrix.copy()
        for m in (H.matrix, copied):
            m.data[3] = np.nan
            with pytest.raises(ValueError, match="unit edge weight"):
                evolve_cheb(HamiltonianGraph(matrix=m, index_map=H.index_map),
                            initial_packet(4, 12, H.index_map), 1.0)

    def test_structure_checked_once_per_layout(self, monkeypatch):
        import scipy.sparse.csgraph as csgraph

        runway = build_runway(6)
        components, calls = csgraph.connected_components, []
        monkeypatch.setattr(csgraph, "connected_components",
                            lambda *args, **kwargs: calls.append(1) or components(*args, **kwargs))
        lattice._layout.cache_clear()
        cfg = RunConfig.for_tree(16, gamma=4.0)
        for bits in ("0110100110010110", "1111000011110000") * 2:
            run_algorithm(parse_input(bits), cfg)
        assert len(calls) == 1
        # a pattern of its own is checked in full on every call
        for _ in range(2):
            evolve_cheb(runway, initial_packet(4, 6, runway.index_map), 1.0)
        assert len(calls) == 3

    def test_rejects_degree_four_or_heavy_edge(self):
        # both graphs are two-coloured forests, so only the degree and
        # weight premise of the 2 sqrt 2 bound fails
        H = build_runway(4)
        star = np.zeros((H.dim, H.dim))
        star[0, [1, 3, 5, 7]] = star[[1, 3, 5, 7], 0] = -1.0  # site -4 to -3, -1, 1, 3
        heavy = 2.0 * H.matrix
        psi = initial_packet(2, 4, H.index_map)
        for m in (sp.csr_matrix(star), heavy):
            graph = HamiltonianGraph(matrix=m, index_map=H.index_map)
            with pytest.raises(ValueError, match="degree"):
                evolve_cheb(graph, psi, 1.0)

    @pytest.mark.parametrize("drop, add, match", [
        ((), (), None),
        # level-1 node 10 to leaf 14 closes 10 - root - 11 - 14 on -1 edges
        ((), ((10, 14),), "forest"),
        # cut runway site -4 off site -3 and hang it on the root (degree 4)
        (((0, 1),), ((0, 9),), "degree"),
    ], ids=["padded", "cycle", "degree4"])
    def test_forest_check_reads_the_stored_pattern(self, drop, add, match):
        # with all bits 0 every pendant slot is an explicit 0, which the
        # check counts as an edge: one tree with every slot attached
        H = build_full(parse_input("0000"), M=4)
        imap = H.index_map
        assert (imap.tree_off, imap.extras_off - imap.n_leaves) == (9, 12)  # root, leaf 0
        coo = H.matrix.tocoo()
        entries = dict(zip(zip(coo.row.tolist(), coo.col.tolist()), coo.data.tolist()))
        for u, v in drop:
            del entries[u, v], entries[v, u]
        for u, v in add:
            entries[u, v] = entries[v, u] = -1.0
        rows, cols = zip(*entries)
        m = sp.csr_matrix((list(entries.values()), (rows, cols)), shape=H.matrix.shape)
        assert np.count_nonzero(m.data == 0) == 8  # the four padded slots, both ways
        graph = HamiltonianGraph(matrix=m, index_map=imap)
        psi = initial_packet(4, 4, imap)
        if match is None:
            evolve_cheb(graph, psi, 1.0)
        else:
            with pytest.raises(ValueError, match=match):
                evolve_cheb(graph, psi, 1.0)

    def test_stored_zeros_change_no_bit(self, rng):
        # the explicit zeros of build_full add 0.0 terms, which leave every
        # sum bitwise unchanged: same state as on the nonzero entries alone
        trees = [(random_tree(rng, 2 ** d), 4.0) for d in range(1, 11)]
        trees.append((hard_instance(14, 5), 1.0))
        for t, gamma in trees:
            cfg = RunConfig.for_tree(t.n_leaves, gamma=gamma)
            H = build_full(t, cfg.M)
            m = H.matrix.copy()
            m.eliminate_zeros()
            assert H.matrix.nnz - m.nnz == 2 * t.bits.count(0)
            psi0 = initial_packet(cfg.L, cfg.M, H.index_map)
            padded = evolve_cheb(H, psi0, cfg.t_run)
            bare = evolve_cheb(HamiltonianGraph(matrix=m, index_map=H.index_map), psi0, cfg.t_run)
            assert padded.tobytes() == bare.tobytes(), t.n_leaves

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
            ref = (2.0 - (ks == 0)) * jv(ks, x)
            assert a[ks].tobytes() == ref.tobytes()

    def test_decide_large_term_count(self):
        # N = 16384, gamma = 16: t = L/2 = 1024
        assert _chebyshev_coefficients(SPECTRAL_RADIUS_BOUND * 1024.0).size == 3042

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_time(self, t):
        # nan used to fail in int() of the Bessel window, inf with an
        # OverflowError that the CLI would report as a numerical failure
        H = build_full(parse_input("01"), M=12)
        with pytest.raises(ValueError, match="t must be finite"):
            evolve_cheb(H, initial_packet(4, 12, H.index_map), t)

    def test_missing_cutoff_is_a_numerical_failure(self, monkeypatch, capsys):
        _chebyshev_coefficients.cache_clear()  # else a cached t skips jv
        monkeypatch.setattr(dynamics, "jv", lambda ks, x: np.ones(np.shape(ks)))
        H = build_full(parse_input("01"), M=12)
        with pytest.raises(ArithmeticError):
            evolve_cheb(H, initial_packet(4, 12, H.index_map), 1.0)
        assert cli_main(["run", "--input", "01", "--gamma", "4"]) == 1
        assert "cut-off" in capsys.readouterr().err

    def test_two_recurrences_agree_with_exact(self, rng):
        t = random_tree(rng, 8)
        H = build_full(t, M=30)
        psi = rng.normal(size=H.dim) + 1j * rng.normal(size=H.dim)
        psi /= np.linalg.norm(psi)
        a = evolve_cheb(H, psi, 21.0)
        b = evolve_exact(dense_eig(H), psi, 21.0)
        assert np.linalg.norm(a - b) <= 1e-10

    def test_cached_coefficients_read_only_and_bitwise(self):
        x = SPECTRAL_RADIUS_BOUND * 37.5
        cached = _chebyshev_coefficients(x)
        assert _chebyshev_coefficients(x) is cached
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0] = 0.0
        _chebyshev_coefficients.cache_clear()
        fresh = _chebyshev_coefficients(x)
        assert fresh is not cached
        assert fresh.tobytes() == cached.tobytes()

    def test_forest_checked_with_cached_coefficients(self):
        H = build_runway(6)
        psi = initial_packet(4, 6, H.index_map)
        evolve_cheb(H, psi, 2.5)
        m = H.matrix.tolil()
        m[0, 3] = m[3, 0] = -1.0
        looped = HamiltonianGraph(matrix=m.tocsr(), index_map=H.index_map)
        with pytest.raises(ValueError, match="forest"):
            evolve_cheb(looped, psi, 2.5)

    def test_one_product_and_one_axpy_per_term(self, monkeypatch):
        # the packet runs one recurrence: s_1 and every later term cost one
        # kernel call and one daxpy each, and s_0 = v costs neither
        calls = {"kernel": 0, "daxpy": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(dynamics, "csr_matvec", counted("kernel", dynamics.csr_matvec))
        monkeypatch.setattr(dynamics, "daxpy", counted("daxpy", dynamics.daxpy))
        cfg = RunConfig.for_tree(16, gamma=4.0)
        verdict = run_algorithm(parse_input("0110100110010110"), cfg)
        terms = _chebyshev_coefficients(SPECTRAL_RADIUS_BOUND * cfg.t_run).size
        assert verdict.stats["cheb_terms"] == terms
        assert calls == {"kernel": terms - 1, "daxpy": terms - 1}


class TestMatvecKernel:
    @pytest.mark.parametrize("build", [
        lambda: build_runway(7),
        lambda: build_driver(3, 7),
        lambda: build_oracle(parse_input("01101101"), 7),
        lambda: build_full(parse_input("01101101"), 7),
    ], ids=["runway", "driver", "oracle", "full"])
    def test_matches_scipy_product(self, build, rng):
        Hs = build().matrix * (2.0 / SPECTRAL_RADIUS_BOUND)
        x, y0 = rng.normal(size=Hs.shape[0]), rng.normal(size=Hs.shape[0])
        y, z = y0.copy(), np.zeros(Hs.shape[0])
        kernel = _csr_matvec_add(Hs.indptr, Hs.indices, Hs.data, x, y, z)
        kernel(x, z)
        assert z.tobytes() == (Hs @ x).tobytes()
        kernel(x, y)
        assert np.allclose(y, y0 + Hs @ x, rtol=0.0, atol=1e-15)

    def test_rejects_other_dtypes_and_layouts(self):
        m = build_runway(5).matrix
        v = np.zeros(m.shape[0])
        with pytest.raises(ValueError, match="int32"):
            _csr_matvec_add(m.indptr.astype(np.int64), m.indices.astype(np.int64), m.data, v)
        with pytest.raises(ValueError, match="float64"):
            _csr_matvec_add(m.indptr, m.indices, m.data.astype(np.float32), v)
        with pytest.raises(ValueError, match="float64"):
            _csr_matvec_add(m.indptr, m.indices, m.data, np.zeros(2 * m.shape[0])[::2])
        with pytest.raises(ValueError, match="length"):
            _csr_matvec_add(m.indptr, m.indices, m.data, np.zeros(m.shape[0] + 1))


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

    def test_rejects_state_of_wrong_shape(self):
        # np.zeros(3) used to read as probability 0.0
        imap = build_full(parse_input("01"), M=8).index_map
        for psi in (np.zeros(3), np.zeros((imap.dim, 1)), np.float64(0.0)):
            with pytest.raises(ValueError, match="dimension"):
                prob_right(psi, imap)


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

    @pytest.mark.parametrize("L", [8.0, True, np.float64(8.0)], ids=repr)
    def test_rejects_non_integer_length(self, L):
        # L = 8.0 used to be accepted, and run_algorithm then died with an IndexError
        with pytest.raises(ValueError):
            RunConfig(gamma=16.0, L=L, M=24, t_run=4.0)

    @pytest.mark.parametrize("M", [24.5, 24.0, np.float64(24.0)], ids=repr)
    def test_rejects_non_integer_runway(self, M):
        with pytest.raises(ValueError):
            RunConfig(gamma=16.0, L=8, M=M, t_run=4.0)

    @pytest.mark.parametrize("t_run", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_time(self, t_run):
        # nan used to fail deep in the Chebyshev window, inf with an
        # OverflowError, and predict_p_right returned p_t = nan
        with pytest.raises(ValueError, match="t_run"):
            RunConfig(gamma=16.0, L=8, M=24, t_run=t_run)

    def test_numpy_integers_accepted(self):
        cfg = RunConfig(gamma=16.0, L=np.int64(8), M=np.int32(24), t_run=4.0)
        assert cfg.L == 8 and cfg.M == 24

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
        assert set(obj["stats"]) == {"cheb_terms", "nnz", "norm_drift"}

    def test_stats_report_terms_and_drift(self):
        tree, cfg = parse_input("0110"), RunConfig.for_tree(4, gamma=8.0)
        v = run_algorithm(tree, cfg)
        H = build_full(tree, cfg.M)
        psi = evolve_cheb(H, initial_packet(cfg.L, cfg.M, H.index_map), cfg.t_run)
        assert v.stats == {
            "cheb_terms": _chebyshev_coefficients(SPECTRAL_RADIUS_BOUND * cfg.t_run).size,
            "nnz": H.matrix.nnz,
            "norm_drift": abs(float(np.linalg.norm(psi)) - 1.0),
        }
        # the stored entries of a layout, whatever the tree: 2 (2M + 3N - 1)
        assert v.stats["nnz"] == run_algorithm(parse_input("1111"), cfg).stats["nnz"]
        assert v.stats["nnz"] == 2 * (2 * cfg.M + 3 * 4 - 1)
        assert v.stats["norm_drift"] <= 1e-12

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
