import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from nandwalk import (
    DegenerateRecursionError,
    ProjectiveValue,
    RunConfig,
    SymbolicY,
    TreeInput,
    build_full,
    cli_main,
    combine_y,
    dense_eig,
    energy_grid,
    eval_nand,
    hard_instance,
    initial_packet,
    leaf_y,
    parse_input,
    predict_p_right,
    run_algorithm,
    scan_bounds,
    transmission,
    y_at_zero,
    y_bottom,
)
import nandwalk.scattering as scattering
from conftest import random_tree


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def subtree_type_counts(bits):
    """Distinct unordered subtrees per level, leaves first, counted by a
    canonical string: a leaf is its bit, a node its children's strings in
    sorted order."""
    level = [str(b) for b in bits]
    counts = [len(set(level))]
    while len(level) > 1:
        level = ["(" + "".join(sorted(level[i:i + 2])) + ")" for i in range(0, len(level), 2)]
        counts.append(len(set(level)))
    return counts


def chunk_size(tree):
    """Energies per y_bottom chunk: the element budget over the widest level."""
    return max(1, scattering._Y_BOTTOM_BUDGET // max(subtree_type_counts(tree.bits)))


def chunked_grid(tree, seed):
    """Energies spanning three full chunks of tree's fold plus a remainder."""
    chunk = chunk_size(tree)
    grid = np.random.default_rng(seed).uniform(-1.9, 1.9, 3 * chunk + 17)
    assert grid.size // chunk >= 3 and grid.size % chunk != 0
    return grid


class TestLeafY:
    def test_connected_leaf_at_zero(self):
        y = leaf_y(1, 0.0)
        assert float(y.num) == 0.0 and float(y.den) == 1.0

    def test_bare_leaf_at_zero_is_pole(self):
        y = leaf_y(0, 0.0)
        assert float(y.num) == -1.0 and float(y.den) == 0.0
        assert y.is_pole()

    def test_connected_leaf_value(self):
        y = leaf_y(1, 0.5)
        assert float(y.ratio) == pytest.approx(0.5 / 0.75, rel=1e-15)

    def test_bit_array_broadcasts(self):
        bits = np.array([1, 0, 1])[:, None]
        E = np.array([0.0, 0.25, -0.5])
        y = leaf_y(bits, E)
        assert y.num.shape == y.den.shape == (3, 3)
        for i, b in enumerate((1, 0, 1)):
            one = leaf_y(b, E)
            assert np.array_equal(y.num[i], one.num)
            assert np.array_equal(y.den[i], one.den)


class TestCombineY:
    def test_two_zeros_make_pole(self):
        z = ProjectiveValue(0.0, 1.0)
        out = combine_y(z, z, 0.0)
        assert float(out.num) == -1.0 and float(out.den) == 0.0

    def test_zero_and_pole_make_zero(self):
        z = ProjectiveValue(0.0, 1.0)
        p = ProjectiveValue(-1.0, 0.0)
        out = combine_y(z, p, 0.0)
        assert float(out.num) == 0.0 and float(out.den) == -1.0

    def test_two_bare_leaves_numeric(self):
        # direct arithmetic oracle: Y = -1/(E + (-1/E) + (-1/E)) at E = 0.1
        E = 0.1
        oracle = -1.0 / (E - 2.0 / E)
        out = combine_y(leaf_y(0, E), leaf_y(0, E), E)
        assert float(out.ratio) == pytest.approx(oracle, rel=1e-14)
        assert oracle == pytest.approx(0.05025125628140704, rel=1e-12)

    def test_renormalized(self, rng):
        for _ in range(50):
            y1 = leaf_y(int(rng.integers(2)), 0.3)
            y2 = leaf_y(int(rng.integers(2)), 0.3)
            out = combine_y(y1, y2, 0.3)
            assert max(abs(float(out.num)), abs(float(out.den))) == pytest.approx(1.0)

    def test_degenerate_raises(self):
        # opposite-sign poles cancel exactly; never produced by leaf values
        with pytest.raises(DegenerateRecursionError):
            combine_y(ProjectiveValue(1.0, 0.0), ProjectiveValue(-1.0, 0.0), 0.0)

    def test_symmetric_bitwise(self):
        # 10^5 random pairs, a fifth of them poles (den = 0) and a fifth
        # zeros (num = 0) on either side, over 30 decades of magnitude
        rng = np.random.default_rng(71)
        n = 100_000

        def draw():
            num = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-15, 15, n)
            den = rng.standard_normal(n)
            kind = rng.integers(0, 5, n)
            return np.where(kind == 1, 0.0, num), np.where(kind == 0, 0.0, den)

        p1, q1 = draw()
        p2, q2 = draw()
        q2[(q1 == 0.0) & (q2 == 0.0)] = 1.0  # two poles make (0, 0)
        E = np.where(rng.random(n) < 0.1, 0.0, rng.uniform(-1.9, 1.9, n))
        inputs = [p1, q1, p2, q2, E]
        saved = [a.copy() for a in inputs]
        y1, y2 = ProjectiveValue(p1, q1), ProjectiveValue(p2, q2)
        ab, ba = combine_y(y1, y2, E), combine_y(y2, y1, E)
        assert same_bits(ab.num, ba.num) and same_bits(ab.den, ba.den)
        assert np.any(ab.den == 0.0) and np.any(ab.num == 0.0)
        assert all(same_bits(a, b) for a, b in zip(inputs, saved))
        # the check has teeth: (E q1 q2 + p1 q2) + p2 q1 is not symmetric
        left = E * (q1 * q2) + p1 * q2 + p2 * q1
        right = E * (q2 * q1) + p2 * q1 + p1 * q2
        assert not same_bits(left, right)
        # scalar and 0-d inputs give float-convertible results, the same bits
        for i in range(0, n, 9973):
            for cast in (float, np.asarray):
                one = combine_y(ProjectiveValue(cast(p1[i]), cast(q1[i])),
                                ProjectiveValue(cast(p2[i]), cast(q2[i])), cast(E[i]))
                assert same_bits(float(one.num), ab.num[i])
                assert same_bits(float(one.den), ab.den[i])


class TestYBottom:
    def test_matches_scalar_fold(self, rng):
        # the vectorized fold must agree with explicit leaf_y/combine_y
        for n_leaves in (2, 4, 8):
            t = random_tree(rng, n_leaves)
            for E in (1e-4, 0.05, 0.4, -0.3):
                ys = [leaf_y(b, E) for b in t.bits]
                while len(ys) > 1:
                    ys = [combine_y(ys[2 * i], ys[2 * i + 1], E) for i in range(len(ys) // 2)]
                direct = y_bottom(t, E)
                assert type(direct.num) is float and type(direct.den) is float
                assert float(direct.ratio) == pytest.approx(float(ys[0].ratio), rel=1e-12)

    @pytest.mark.parametrize("n_leaves", [4, 16, 64, 256, 1024])
    def test_matches_tree_green_function(self, n_leaves):
        # independent oracle sharing no code with scattering:
        # y(E) = -[(E - H_tree)^-1]_root,root on the walk graph's tree and
        # extras block, whose first row is the root
        rng = np.random.default_rng(n_leaves)
        tree = random_tree(rng, n_leaves)
        H = build_full(tree, 1)
        block = H.matrix[H.index_map.tree_off:, H.index_map.tree_off:].tocsc()
        unit = np.zeros(block.shape[0])
        unit[0] = 1.0
        for E in rng.uniform(-2.0, 2.0, 5):
            green = spsolve(E * sp.identity(block.shape[0], format="csc") - block, unit)
            assert float(y_bottom(tree, E).ratio) == pytest.approx(-green[0], rel=1e-11)

    def test_antisymmetry(self, rng):
        # y(-E) = -y(E) as ratios, 100 random (instance, energy) pairs
        for _ in range(100):
            n_leaves = int(2 ** rng.integers(1, 7))
            t = random_tree(rng, n_leaves)
            E = float(rng.uniform(1e-6, 1.5))
            yp = y_bottom(t, E)
            ym = y_bottom(t, -E)
            lhs = float(ym.num) * float(yp.den)
            rhs = -float(yp.num) * float(ym.den)
            scale = max(abs(lhs), abs(rhs), 1e-300)
            assert abs(lhs - rhs) / scale < 1e-12

    def test_reflecting_instance_has_large_y(self):
        t = parse_input("0110")
        assert eval_nand(t) == 0
        y = y_bottom(t, 1e-4)
        assert float(y.magnitude) > 1.0 / (4.0 * 2.0 * 1e-4)  # > 1250

    def test_chunked_fold_matches_scalar_folds_bitwise(self, monkeypatch):
        # three full chunks plus a remainder; the fold is elementwise in E.
        # A small budget keeps the per-energy scalar folds affordable.
        monkeypatch.setattr(scattering, "_Y_BOTTOM_BUDGET", 768)
        rng = np.random.default_rng(17)
        t = random_tree(rng, 8)
        grid = chunked_grid(t, 18)
        yg = y_bottom(t, grid)
        assert yg.num.shape == yg.den.shape == grid.shape
        for i, E in enumerate(grid):
            ys = [leaf_y(b, float(E)) for b in t.bits]
            while len(ys) > 1:
                ys = [combine_y(ys[2 * k], ys[2 * k + 1], float(E)) for k in range(len(ys) // 2)]
            assert yg.num[i] == float(ys[0].num) and yg.den[i] == float(ys[0].den)
        one = y_bottom(t, float(grid[-1]))
        assert type(one.num) is float and type(one.den) is float
        assert (one.num, one.den) == (yg.num[-1], yg.den[-1])

    def test_grid_evaluation_matches_scalars(self):
        t = parse_input("0110")
        grid = np.array([1e-4, 1e-2, 0.05])
        yg = y_bottom(t, grid)
        for i, E in enumerate(grid):
            ys = y_bottom(t, float(E))
            assert yg.ratio[i] == pytest.approx(float(ys.ratio), rel=1e-12)

    def test_deep_tree_stays_normalized(self, rng):
        # depth 20: a million leaves, no overflow, no (0, 0)
        t = random_tree(rng, 2**20)
        for E in (1e-6, 0.3):
            y = y_bottom(t, E)
            assert np.isfinite(y.num) and np.isfinite(y.den)
            assert max(abs(float(y.num)), abs(float(y.den))) == pytest.approx(1.0)


def plain_fold(bits, E):
    """Every one of the 2N - 1 nodes, level by level, with leaf_y and combine_y."""
    E = np.atleast_1d(np.asarray(E, dtype=float))
    y = leaf_y(np.asarray(bits)[:, None], E)
    while y.num.shape[0] > 1:
        y = combine_y(ProjectiveValue(y.num[0::2], y.den[0::2]),
                      ProjectiveValue(y.num[1::2], y.den[1::2]), E)
    return y.num[0], y.den[0]


def assert_fold_bitwise(tree):
    """y_bottom over a grid of three chunks plus a remainder, and at one
    energy of it, is bitwise the plain fold."""
    grid = chunked_grid(tree, 23)
    y = y_bottom(tree, grid)
    num, den = plain_fold(tree.bits, grid)
    assert same_bits(y.num, num) and same_bits(y.den, den)
    one = y_bottom(tree, float(grid[5]))
    assert type(one.num) is float and type(one.den) is float
    assert same_bits(one.num, num[5]) and same_bits(one.den, den[5])


def fold_calls(monkeypatch, tree, E):
    """(rows, energies) of every combine_y call in one y_bottom."""
    calls = []

    def counting(y1, y2, E):
        calls.append(y1.num.shape)
        return combine_y(y1, y2, E)

    monkeypatch.setattr(scattering, "combine_y", counting)
    y_bottom(tree, E)
    return calls


class TestSubtreeDedup:
    """y_bottom folds once per distinct unordered subtree, bitwise as the plain fold."""

    @pytest.fixture(autouse=True)
    def small_budget(self, monkeypatch):
        # every grid spans three chunks plus a remainder, so constant trees
        # (one type per level) get 3 * budget + 17 energies; a small budget
        # keeps their plain folds affordable.  TestChunks keeps the
        # module's own budget.
        monkeypatch.setattr(scattering, "_Y_BOTTOM_BUDGET", 4096)

    @pytest.mark.parametrize("depth", range(1, 11))
    def test_random_trees(self, depth):
        rng = np.random.default_rng(100 + depth)
        for _ in range(3):
            assert_fold_bitwise(random_tree(rng, 2**depth))

    @pytest.mark.parametrize("root", [0, 1])
    @pytest.mark.parametrize("depth", [1, 2, 5, 10])
    def test_hard_instances(self, depth, root):
        # adversarial draws swap children at random
        assert_fold_bitwise(hard_instance(depth, 31 * depth + root, root))

    @pytest.mark.parametrize("bit", [0, 1])
    def test_constant_trees(self, bit):
        for depth in range(1, 11):
            assert_fold_bitwise(TreeInput.from_bits([bit] * 2**depth))

    def test_rows_per_height_bounded(self, monkeypatch):
        rng = np.random.default_rng(29)
        trees = [random_tree(rng, 1024), hard_instance(10, 3, 0), hard_instance(10, 4, 1),
                 TreeInput.from_bits([0, 1] * 512),
                 TreeInput.from_bits((rng.random(1024) < 0.618).astype(int).tolist())]
        for tree in trees:
            rows = [r for r, _ in fold_calls(monkeypatch, tree, 0.3)]
            N = tree.n_leaves
            counts = subtree_type_counts(tree.bits)
            assert rows == counts[1:] and len(rows) == 10
            for h, n in enumerate(rows, start=1):
                K = counts[h - 1]
                assert 1 <= n <= min(N // 2**h, K * (K + 1) // 2)
            assert rows[-1] == 1
            assert sum(rows) + 2 <= 159

    @pytest.mark.parametrize("root", [0, 1])
    @pytest.mark.parametrize("depth", [2, 5, 10, 14])
    def test_hard_instances_two_rows_per_level(self, monkeypatch, depth, root):
        # a value-0 node has children (1, 1), a value-1 node (0, 1) in
        # either order: two unordered types per level
        calls = fold_calls(monkeypatch, hard_instance(depth, 5 * depth + root, root), 0.3)
        assert len(calls) == depth and max(r for r, _ in calls) <= 2

    def test_degenerate_still_raises(self):
        with pytest.raises(DegenerateRecursionError):
            y_bottom(parse_input("0011"), [0.5, 0.0])

    def test_rejects_two_dimensional_energies(self):
        # the chunked fold slices the first axis, which must be energies
        with pytest.raises(ValueError, match="1-d"):
            y_bottom(parse_input("1111"), np.linspace(0.001, 0.5, 300).reshape(300, 1))


class TestChunks:
    """The module's element budget sets the energies per chunk."""

    @pytest.mark.parametrize("tree", [random_tree(np.random.default_rng(31), 1024),
                                      hard_instance(14, 1, 1)], ids=["random_1024", "hard_14"])
    def test_chunks_follow_budget(self, monkeypatch, tree):
        # each chunk but the last takes budget // widest energies; on
        # adversarial trees one chunk covers a 16,384-point grid
        G = 16_384
        calls = fold_calls(monkeypatch, tree, np.linspace(-1.9, 1.9, G))
        step = chunk_size(tree)
        depth = tree.n_leaves.bit_length() - 1
        assert [g for _, g in calls] == [
            min(step, G - lo) for lo in range(0, G, step) for _ in range(depth)]
        if max(subtree_type_counts(tree.bits)) <= 2:
            assert step >= G

    @pytest.mark.parametrize("p_one", [0.5, 0.618])
    def test_budget_chunks_bitwise(self, p_one):
        # N = 1024: chunks of about a thousand energies
        rng = np.random.default_rng(37)
        assert_fold_bitwise(TreeInput.from_bits((rng.random(1024) < p_one).astype(int).tolist()))


class TestYAtZero:
    def test_pairs(self):
        assert y_at_zero(parse_input("11")) is SymbolicY.POLE
        assert y_at_zero(parse_input("00")) is SymbolicY.ZERO

    def test_all_sixteen(self):
        for bits in itertools.product((0, 1), repeat=4):
            t = TreeInput.from_bits(bits)
            want = SymbolicY.ZERO if eval_nand(t) == 1 else SymbolicY.POLE
            assert y_at_zero(t) is want

    def test_sign_classification_matches_near_zero(self, rng):
        # |y| at E = 1e-9 sits on the same side of 1 as the symbolic tag
        for n_leaves in (16, 64, 256):
            for _ in range(64):
                t = random_tree(rng, n_leaves)
                mag = float(y_bottom(t, 1e-9).magnitude)
                if y_at_zero(t) is SymbolicY.ZERO:
                    assert mag < 1.0
                else:
                    assert mag > 1.0


class TestTransmission:
    def test_band_center_transparent(self):
        T, R = transmission(0.0, ProjectiveValue(0.0, 1.0))
        assert complex(T) == pytest.approx(1.0)
        assert complex(R) == pytest.approx(0.0)

    def test_band_center_pole_reflects(self):
        T, R = transmission(0.0, ProjectiveValue(-1.0, 0.0))
        assert complex(T) == pytest.approx(0.0)
        assert complex(R) == pytest.approx(-1.0)

    def test_frozen_value_at_half(self):
        # independent oracle: plain complex arithmetic on y as a float
        E = 0.5
        y_float = E / (1.0 - E * E)
        s = math.sqrt(1.0 - E * E / 4.0)
        oracle = 2j * s / (2j * s + y_float)
        # closed form: 135/151 + (12 sqrt(15)/151) i
        assert oracle == pytest.approx(135.0 / 151.0 + 12.0 * math.sqrt(15.0) / 151.0 * 1j, rel=1e-14)
        T, R = transmission(E, leaf_y(1, E))
        assert complex(T) == pytest.approx(oracle, rel=1e-13)
        assert abs(1.0 + R - T) < 1e-12

    def test_one_plus_r_equals_t_everywhere(self, rng):
        for _ in range(200):
            t = random_tree(rng, int(2 ** rng.integers(1, 6)))
            E = float(rng.uniform(-1.9, 1.9)) or 1e-3
            T, R = transmission(E, y_bottom(t, E))
            assert abs(1.0 + R - T) < 1e-12

    def test_rejects_band_edge(self):
        with pytest.raises(ValueError):
            transmission(2.0, ProjectiveValue(0.0, 1.0))


class TestPredictPRight:
    @pytest.mark.parametrize("gamma", [4.0, 16.0])
    @pytest.mark.parametrize("n_leaves", [4, 16, 64, 256])
    def test_matches_simulation_within_computed_bound(self, n_leaves, gamma):
        # the continuum integral misses only the bound-state weight w, so
        # |sqrt(p_sim) - sqrt(p_pred)| <= sqrt(w)
        tree = random_tree(np.random.default_rng(n_leaves), n_leaves)
        config = RunConfig.for_tree(n_leaves, gamma)
        p_pred, p_inf, w = predict_p_right(tree, config)
        assert 0.0 <= p_pred <= 1.0 and 0.0 <= p_inf <= 1.0 and 0.0 < w < 1.0
        p_sim = run_algorithm(tree, config).p_right
        assert abs(p_sim - p_pred) <= 2.0 * math.sqrt(p_pred * w) + w

    def test_band_weight_matches_dense_eig(self):
        # 1 - w is the packet weight on the finite graph's eigenstates with |E| < 2
        tree = random_tree(np.random.default_rng(16), 16)
        config = RunConfig.for_tree(16, 16.0)
        H = build_full(tree, config.M)
        energies, V = dense_eig(H)
        overlaps = V.T @ initial_packet(config.L, config.M, H.index_map)
        band = float(np.sum(np.abs(overlaps[np.abs(energies) < 2.0]) ** 2))
        assert 1.0 - predict_p_right(tree, config)[2] == pytest.approx(band, abs=1e-6)

    def test_bound_weight_falls_with_gamma(self):
        tree = parse_input("0110")
        ws = [predict_p_right(tree, RunConfig.for_tree(4, g))[2] for g in (8.0, 16.0, 32.0)]
        assert ws[0] > ws[1] > ws[2]

    @pytest.mark.parametrize("gamma", [4.0, 16.0])
    @pytest.mark.parametrize("n_leaves", [4, 16, 64])
    def test_doubling_grid_moves_prediction_little(self, monkeypatch, n_leaves, gamma):
        tree = random_tree(np.random.default_rng(n_leaves), n_leaves)
        config = RunConfig.for_tree(n_leaves, gamma)
        coarse = predict_p_right(tree, config)[0]
        monkeypatch.setattr(scattering, "_GRID_PER_SITE", 2 * scattering._GRID_PER_SITE)
        assert abs(predict_p_right(tree, config)[0] - coarse) < 1e-3

    @pytest.mark.parametrize("root", [0, 1])
    def test_hard_trees_frozen(self, root):
        # run_algorithm gives 0.20785 (root 0) and 0.76188 (root 1) here
        tree = hard_instance(4, 0, root)
        p_pred = predict_p_right(tree, RunConfig.for_tree(16, 16.0))[0]
        assert p_pred == pytest.approx((0.20727, 0.75718)[root], abs=1e-5)
        assert int(p_pred >= 0.5) == root

    def test_approaches_long_time_limit(self):
        tree = hard_instance(4, 0, 1)
        L = RunConfig.for_tree(16, 16.0).L
        runs = [predict_p_right(tree, RunConfig(gamma=16.0, L=L, M=6 * L, t_run=t))
                for t in (L / 2.0, L, 2.0 * L)]
        gaps = [abs(p_t - p_inf) for p_t, p_inf, _ in runs]
        assert gaps[0] > gaps[1] > gaps[2]


def reference_rows(tree, grid, instance_id):
    """scan_bounds rows computed one energy at a time with scalar y_bottom,
    transmission and abs(), and the four bound formulas."""
    N = tree.n_leaves
    root_n = math.sqrt(N)
    nand = eval_nand(tree)
    rows = []
    for E in grid:
        E = float(E)
        y = y_bottom(tree, E)
        T = complex(transmission(E, y)[0])
        abs_y = abs(y.num) / abs(y.den)
        if nand == 0:
            bound_y, bound_T = 1.0 / (4.0 * root_n * E), 8.0 * root_n * E
            passed = abs_y > bound_y and abs(T) < bound_T
        else:
            bound_y, bound_T = 4.0 * root_n * E, 3.0 * root_n * E
            passed = abs_y < bound_y and abs(T - 1.0) < bound_T
        rows.append({"N": N, "instance_id": instance_id, "E": E, "nand": nand,
                     "abs_y": abs_y, "abs_T": abs(T), "bound_y": bound_y,
                     "bound_T": bound_T, "pass": passed})
    return rows


class TestScanBounds:
    def test_transmitting_four_leaves_at_001(self):
        report = scan_bounds(parse_input("0011"), [0.01])
        row = report.rows[0]
        assert row["nand"] == 1 and row["pass"]
        assert row["bound_T"] == pytest.approx(3.0 * 2.0 * 0.01)
        T, _ = transmission(0.01, y_bottom(parse_input("0011"), 0.01))
        assert abs(complex(T) - 1.0) < 0.06

    def test_reflecting_four_leaves_at_001(self):
        report = scan_bounds(parse_input("0110"), [0.01])
        row = report.rows[0]
        assert row["nand"] == 0 and row["pass"]
        assert row["bound_T"] == pytest.approx(8.0 * 2.0 * 0.01)
        assert row["abs_T"] < 0.16

    @pytest.mark.parametrize("root", [0, 1])
    def test_rows_match_per_energy_reference_bitwise(self, root):
        # exact float equality and Python types: the table is emitted as is
        rng = np.random.default_rng(41 + root)
        for depth in range(2, 11):
            tree = hard_instance(depth, 7 * depth + root, root)
            emax = 1.0 / (16.0 * math.sqrt(tree.n_leaves))
            grid = np.concatenate([energy_grid(tree.n_leaves, points=24),
                                   rng.uniform(0.0, emax, 24)])
            rows = scan_bounds(tree, grid, instance_id=depth).rows
            want = reference_rows(tree, grid, depth)
            assert [r["nand"] for r in rows] == [root] * grid.size
            assert rows == want
            for row in rows:
                assert [type(row[c]) for c in scattering.CSV_COLUMNS] == [
                    int, int, float, int, float, float, float, float, bool]

    def test_two_leaf_pairs(self):
        assert scan_bounds(parse_input("00"), [0.01]).all_pass
        assert scan_bounds(parse_input("11"), [0.01]).all_pass

    def test_random_instances_at_256(self, rng):
        grid = energy_grid(256, points=64, emin=1e-6)
        for k in range(64):
            t = random_tree(rng, 256)
            assert scan_bounds(t, grid, instance_id=k).all_pass

    def test_rejects_out_of_window_grid(self):
        t = parse_input("0110")
        for grid in ([0.2], [0.0], [math.nan], [0.01, math.nan]):
            with pytest.raises(ValueError):
                scan_bounds(t, grid)

    def test_rejects_two_dimensional_grid(self):
        # a scalar is not a grid either
        for grid in (np.linspace(0.001, 0.03, 6).reshape(6, 1), 0.01):
            with pytest.raises(ValueError, match="1-d"):
                scan_bounds(parse_input("1111"), grid)

    def test_csv_round_trip(self, capsys):
        # the CSV table is written by the CLI's one emitter
        assert cli_main(["scatter", "--input", "0110", "--points", "5"]) == 0
        lines = [ln for ln in capsys.readouterr().out.strip().split("\n")
                 if not ln.startswith("#")]
        assert lines[0] == "N,instance_id,E,nand,abs_y,abs_T,bound_y,bound_T,pass"
        assert len(lines) == 6
        assert all(line.endswith(",true") for line in lines[1:])


class TestEnergyGrid:
    def test_inside_window(self):
        g = energy_grid(1024, points=64)
        assert g.size == 64
        assert g[0] >= 1e-8
        assert g[-1] < 1.0 / (16.0 * 32.0)

    def test_rejects_bad_emin(self):
        with pytest.raises(ValueError):
            energy_grid(4, emin=1.0)
