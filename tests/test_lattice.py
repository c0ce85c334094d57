import math

import numpy as np
import pytest

from nandwalk import (
    HamiltonianGraph,
    NodeIndexMap,
    build_driver,
    build_full,
    build_oracle,
    dense_eig,
    parse_input,
)
from nandwalk.lattice import DENSE_EIG_CAP
from conftest import build_runway, random_tree


def upper_edges(H) -> set:
    """Undirected edges, the nonzero entries, as (u, v) pairs with u < v."""
    coo = H.matrix.tocoo()
    return {(int(u), int(v)) for u, v, d in zip(coo.row, coo.col, coo.data) if u < v and d}


def nonzero_copy(H):
    """H's matrix without its explicit zeros, leaving H's shared pattern intact."""
    m = H.matrix.copy()
    m.eliminate_zeros()
    return m


class TestIndexMap:
    def test_blocks_tile_every_layout(self):
        # down to depth 0, whose root is its only leaf
        for imap in (NodeIndexMap(3, 5), NodeIndexMap(0, 4)):
            runway = imap.runway_indices(np.arange(-imap.M, imap.M + 1))
            blocks = np.concatenate([runway, imap.tree_indices(), imap.extra_indices()])
            assert np.array_equal(blocks, np.arange(imap.dim))

    def test_canonical_order(self):
        imap = NodeIndexMap(1, 2)
        assert imap.dim == 5 + 3 + 2
        assert list(imap.runway_indices([-2, 2])) == [0, 4]
        assert list(imap.tree_indices()) == [5, 6, 7]
        assert list(imap.extra_indices()) == [8, 9]
        assert NodeIndexMap(2, 3).tree_indices().size == 7
        assert NodeIndexMap(2, 3).extra_indices().size == 4

    def test_rejects_runway_site_out_of_range(self):
        imap = NodeIndexMap(2, 3)
        for r in (4, -4):
            with pytest.raises(ValueError):
                imap.runway_indices([0, r])
        root = NodeIndexMap(0, 3)
        assert root.dim == 7 + 2
        assert root.tree_indices().size == root.extra_indices().size == 1

    def test_rejects_empty_runway(self):
        with pytest.raises(ValueError):
            NodeIndexMap(2, 0)
        with pytest.raises(ValueError):
            build_runway(0)

    @pytest.mark.parametrize("call, name", [
        (lambda: NodeIndexMap(2.0, 3), "depth"),
        (lambda: NodeIndexMap(-1, 3), "depth"),
        (lambda: NodeIndexMap(True, 3), "depth"),
        (lambda: NodeIndexMap(2, 3.0), "M"),
        (lambda: build_full(parse_input("0110"), 24.0), "M"),
        (lambda: build_driver(2.0, 6), "depth"),
        (lambda: build_driver(2, np.float64(6.0)), "M"),
        (lambda: build_runway(4.0), "M"),
        (lambda: build_oracle(parse_input("01"), True), "M"),
    ])
    def test_rejects_non_integer_lengths(self, call, name):
        # NodeIndexMap(2.0, 3).dim used to be 18.0, NodeIndexMap(-1, 3).dim
        # 7.5, and build_full(tree, 24.0) raised TypeError
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            call()

    def test_runway_slices(self):
        imap = NodeIndexMap(1, 3)
        rs = imap.runway_indices(np.array([-3, 0, 3]))
        assert list(rs) == [0, 3, 6]
        assert imap.right_runway_slice() == slice(4, 7)


class TestLayoutRecord:
    def test_one_record_per_layout(self):
        a = build_full(parse_input("0110"), 5).index_map
        assert a is build_driver(2, 5).index_map is build_oracle(parse_input("1001"), 5).index_map
        assert a is not build_full(parse_input("0110"), 6).index_map

    def test_mirror_is_the_transposed_position(self):
        # mirror[q] is where (v, u) is stored, for the entry (u, v) at q
        imap = build_full(parse_input("0110"), 5).index_map
        rows = np.repeat(np.arange(imap.dim), np.diff(imap.indptr))
        assert imap.mirror.dtype == np.int32
        assert np.array_equal(rows[imap.mirror], imap.indices)
        assert np.array_equal(imap.indices[imap.mirror], rows)

    def test_arrays_read_only(self):
        imap = build_full(parse_input("0110"), 5).index_map
        for a in (imap.classes, imap.indptr, imap.indices, imap.mirror, imap.pendant_slots):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0

    @pytest.mark.parametrize("call", [
        lambda: build_full(parse_input("0110"), 24.0),
        lambda: build_driver(2, np.float64(6.0)),
    ])
    def test_float_length_rejected_after_integer_key_cached(self, call):
        # an untyped cache would serve 24.0 the record of 24
        build_full(parse_input("0110"), 24), build_driver(2, 6)
        with pytest.raises(ValueError, match="^M must be an integer"):
            call()


class TestSublattice:
    def test_classes(self):
        imap = NodeIndexMap(2, 3)
        cls = imap.classes
        assert cls[0] == 1  # runway site -3
        assert cls[3] == 0  # runway site 0
        assert cls[7] == 1  # the root
        assert cls[13] == 1  # leaf 3
        assert cls[17] == 0  # extra 3

    def test_every_edge_joins_opposite_classes(self, rng):
        for n_leaves in (2, 8, 32):
            t = random_tree(rng, n_leaves)
            for H in (build_full(t, M=5), build_driver(t.depth, 5),
                      build_oracle(t, 5), build_runway(5)):
                cls = H.index_map.classes
                assert cls.shape == (H.dim,)
                coo = H.matrix.tocoo()
                assert np.all(cls[coo.row] != cls[coo.col])


class TestBuildOracle:
    def test_no_connections(self):
        H = build_oracle(parse_input("00"), 1)
        assert H.matrix.nnz == 0
        assert H.dim == 3 + 3 + 2  # the full layout

    def test_both_connections(self):
        H = build_oracle(parse_input("11"), 1)
        assert H.matrix.nnz == 4  # two undirected edges
        d = H.matrix.toarray()
        assert np.array_equal(d, d.T)
        assert set(np.unique(d)) <= {-1.0, 0.0}

    def test_mixed(self):
        H = build_oracle(parse_input("0110"), 1)
        assert H.matrix.nnz == 4
        # leaf i at extras_off - N + i = 6 + i, extra i at 10 + i
        assert upper_edges(H) == {(7, 11), (8, 12)}


class TestBuildDriver:
    def test_depth1_m1(self):
        H = build_driver(1, 1)
        assert H.dim == 8  # the full layout: extras carry no driver edge
        assert H.matrix.nnz == 10  # 5 undirected edges
        # runway sites -1, 0, 1 at 0, 1, 2; root 3; leaves 4, 5
        assert upper_edges(H) == {(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)}

    def test_depth2_m2_dim(self):
        assert build_driver(2, 2).dim == 5 + 7 + 4

    def test_degrees(self):
        H = build_driver(3, 6)
        deg = np.diff(H.matrix.indptr)
        assert deg.max() == 3.0
        # runway endpoints have degree 1
        assert deg[0] == 1.0
        assert deg[12] == 1.0


class TestBuildFull:
    def test_dimension_formula(self):
        H = build_full(parse_input("0110"), M=8)
        assert H.dim == 17 + 7 + 4

    def test_symmetric_exactly(self):
        H = build_full(parse_input("1011"), M=6)
        assert (H.matrix != H.matrix.T).nnz == 0

    def test_additive_decomposition(self, rng):
        # on the nonzero entries: build_full also stores the 0-bit slots
        for n_leaves in (2, 4, 8):
            t = random_tree(rng, n_leaves)
            full = build_full(t, M=5)
            driver, oracle = build_driver(t.depth, 5), build_oracle(t, 5)
            assert upper_edges(full) == upper_edges(driver) | upper_edges(oracle)
            assert (full.matrix != driver.matrix + oracle.matrix).nnz == 0

    def test_one_pass_equals_driver_plus_oracle_bytewise(self, rng):
        # once its explicit zeros are dropped
        for depth in (1, 2, 5, 9, 14):
            t = random_tree(rng, 2 ** depth)
            M = 3 * max(4, round(16 * 2 ** (depth / 2)))
            one_pass = nonzero_copy(build_full(t, M))
            summed = build_driver(depth, M).matrix + build_oracle(t, M).matrix
            for name in ("indptr", "indices", "data"):
                a, b = getattr(one_pass, name), getattr(summed, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (depth, name)

    def test_pattern_depends_only_on_layout(self, rng):
        for depth, M in ((1, 3), (4, 12), (10, 96)):
            a, b = (build_full(random_tree(rng, 2 ** depth), M).matrix for _ in range(2))
            ones = build_full(parse_input("1" * 2 ** depth), M).matrix
            for m in (a, b):
                for name in ("indptr", "indices"):
                    assert getattr(m, name).tobytes() == getattr(ones, name).tobytes()
                assert m.nnz == ones.nnz == 2 * (2 * M + 2 ** (depth + 1) - 1 + 2 ** depth)
            # one shared read-only pattern: an in-place eliminate_zeros
            # fails loudly instead of corrupting the other trees' matrices
            assert np.shares_memory(a.indices, b.indices)
            assert not a.indptr.flags.writeable and not a.indices.flags.writeable
            with pytest.raises(ValueError):
                a.eliminate_zeros()
            assert a.indices.tobytes() == ones.indices.tobytes()
        assert build_full(parse_input("01"), 4).matrix.nnz != build_full(parse_input("01"), 5).matrix.nnz

    def test_explicit_zeros_sit_at_zero_bit_slots(self, rng):
        for n_leaves in (2, 8, 64):
            t = random_tree(rng, n_leaves)
            H = build_full(t, M=7)
            imap = H.index_map
            coo = H.matrix.tocoo()
            zero = coo.data == 0
            assert np.all(coo.data[~zero] == -1.0)
            assert not np.signbit(coo.data[zero]).any()
            gaps = np.flatnonzero(np.asarray(t.bits) == 0)
            leaves, extras = imap.extras_off - imap.n_leaves + gaps, imap.extras_off + gaps
            assert set(zip(coo.row[zero].tolist(), coo.col[zero].tolist())) == (
                set(zip(leaves.tolist(), extras.tolist())) | set(zip(extras.tolist(), leaves.tolist())))

    def test_degree_census(self, rng):
        # graph degrees on the nonzero entries; every stored row of a leaf
        # holds 2 entries and of an extra 1
        t = random_tree(rng, 8)
        H = build_full(t, M=4)
        deg = np.diff(nonzero_copy(H).indptr)
        stored = np.diff(H.matrix.indptr)
        imap = H.index_map
        assert np.all(stored[imap.extras_off - imap.n_leaves:imap.extras_off] == 2)
        assert np.all(stored[imap.extras_off:] == 1)
        for i, b in enumerate(t.bits):
            assert deg[imap.extras_off + i] == float(b)
            assert deg[imap.extras_off - imap.n_leaves + i] == 1.0 + b
        assert list(deg[imap.runway_indices([-4, 4, 0])]) == [1.0, 1.0, 3.0]
        assert deg.max() <= 3.0

    def test_spectral_radius_bound(self, rng):
        # Gershgorin with degree <= 3, confirmed by dense eigenvalues
        for n_leaves in (4, 16):
            t = random_tree(rng, n_leaves)
            H = build_full(t, M=10)
            assert H.dim <= 200
            w, _ = dense_eig(H)
            assert np.max(np.abs(w)) <= 3.0

    def test_spectrum_symmetric_about_zero(self, rng):
        # the graph is bipartite, so eigenvalues pair up as (w, -w)
        t = random_tree(rng, 16)
        H = build_full(t, M=100)
        assert H.dim <= 500
        w, _ = dense_eig(H)
        assert np.max(np.abs(w + w[::-1])) < 1e-9


class TestApplyH:
    def test_interior_runway_hop(self):
        H = build_full(parse_input("01"), M=5)
        imap = H.index_map
        v = np.zeros(H.dim)
        v[imap.runway_indices(2)] = 1.0
        w = H.matrix @ v
        expect = np.zeros(H.dim)
        expect[imap.runway_indices([1, 3])] = -1.0
        assert np.array_equal(w, expect)

    def test_origin_couples_to_root(self):
        H = build_full(parse_input("01"), M=5)
        imap = H.index_map
        v = np.zeros(H.dim)
        v[imap.runway_indices(0)] = 1.0
        w = H.matrix @ v
        # runway sites -1 and 1, and the root
        assert list(np.nonzero(w)[0]) == [4, 6, imap.tree_off]
        assert set(w[w != 0]) == {-1.0}

    def test_zero_vector(self):
        H = build_full(parse_input("01"), M=3)
        assert not np.any(H.matrix @ np.zeros(H.dim))

    def test_dimension_mismatch(self):
        H = build_full(parse_input("01"), M=3)
        with pytest.raises(ValueError):
            H.matrix @ np.zeros(H.dim + 1)


class TestDenseEig:
    def test_three_site_path_spectrum(self):
        # analytic path spectrum -2 cos(k pi / (sites + 1)), plus a 0 each
        # for the isolated root and extra of the depth-0 layout
        H = build_runway(1)
        w, V = dense_eig(H)
        expect = sorted([-2.0 * math.cos(k * math.pi / 4.0) for k in (1, 2, 3)] + [0.0, 0.0])
        assert np.allclose(w, expect, atol=1e-12)
        assert np.allclose(w, [-math.sqrt(2), 0.0, 0.0, 0.0, math.sqrt(2)], atol=1e-12)

    def test_path_spectrum_general(self):
        H = build_runway(7)
        w, _ = dense_eig(H)
        sites = 2 * 7 + 1
        assert H.dim == sites + 2
        path = [-2.0 * math.cos(k * math.pi / (sites + 1)) for k in range(1, sites + 1)]
        assert np.allclose(w, np.sort(path + [0.0, 0.0]), atol=1e-12)

    def test_residuals_and_orthonormality(self, rng):
        t = random_tree(rng, 8)
        H = build_full(t, M=12)
        w, V = dense_eig(H)
        hnorm = np.max(np.abs(w))
        resid = H.matrix.toarray() @ V - V * w
        assert np.linalg.norm(resid, axis=0).max() <= 1e-10 * hnorm
        gram = V.T @ V
        assert np.max(np.abs(gram - np.eye(H.dim))) < 1e-10

    def test_stored_zeros_leave_the_spectrum_unchanged(self, rng):
        for n_leaves in (2, 16):
            H = build_full(random_tree(rng, n_leaves), M=9)
            w, V = dense_eig(H)
            w0, V0 = dense_eig(HamiltonianGraph(matrix=nonzero_copy(H), index_map=H.index_map))
            assert w.tobytes() == w0.tobytes() and V.tobytes() == V0.tobytes()

    def test_trace_is_zero(self, rng):
        t = random_tree(rng, 4)
        w, _ = dense_eig(build_full(t, M=6))
        assert abs(w.sum()) < 1e-10

    def test_cap(self):
        # dim 4,001 is refused before the matrix is densified
        H = build_runway(1999)
        assert H.dim == DENSE_EIG_CAP + 1
        with pytest.raises(ValueError, match="cap"):
            dense_eig(H)

