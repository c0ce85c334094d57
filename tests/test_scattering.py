import itertools
import math

import numpy as np
import pytest

from nandwalk import (
    DegenerateRecursionError,
    ProjectiveValue,
    SymbolicY,
    TreeInput,
    cli_main,
    combine_y,
    energy_grid,
    eval_nand,
    hard_instance,
    leaf_y,
    parse_input,
    scan_bounds,
    scattering_point,
    transmission,
    y_at_zero,
    y_bottom,
)
import nandwalk.scattering as scattering
from nandwalk.scattering import Y_BOTTOM_CHUNK
from conftest import random_tree


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

    def test_chunked_fold_matches_scalar_folds_bitwise(self):
        # three full chunks plus a remainder; the fold is elementwise in E
        rng = np.random.default_rng(17)
        t = random_tree(rng, 8)
        grid = rng.uniform(-1.9, 1.9, 3 * Y_BOTTOM_CHUNK + 17)
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


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestSubtreeDedup:
    """y_bottom folds once per distinct ordered subtree, bitwise as the plain fold."""

    GRID = np.random.default_rng(23).uniform(-1.9, 1.9, 3 * Y_BOTTOM_CHUNK + 17)

    def assert_bitwise(self, tree):
        y = y_bottom(tree, self.GRID)
        num, den = plain_fold(tree.bits, self.GRID)
        assert same_bits(y.num, num) and same_bits(y.den, den)
        E = float(self.GRID[5])
        one = y_bottom(tree, E)
        assert type(one.num) is float and type(one.den) is float
        assert same_bits(one.num, num[5]) and same_bits(one.den, den[5])

    @pytest.mark.parametrize("depth", range(1, 11))
    def test_random_trees(self, depth):
        rng = np.random.default_rng(100 + depth)
        for _ in range(3):
            self.assert_bitwise(random_tree(rng, 2**depth))

    @pytest.mark.parametrize("root", [0, 1])
    @pytest.mark.parametrize("depth", [1, 2, 5, 10])
    def test_hard_instances(self, depth, root):
        # adversarial draws swap children at random
        self.assert_bitwise(hard_instance(depth, 31 * depth + root, root))

    @pytest.mark.parametrize("bit", [0, 1])
    def test_constant_trees(self, bit):
        for depth in range(1, 11):
            self.assert_bitwise(TreeInput.from_bits([bit] * 2**depth))

    def test_rows_per_height_bounded(self, monkeypatch):
        rows = []

        def counting(y1, y2, E):
            rows.append(y1.num.shape[0])
            return combine_y(y1, y2, E)

        monkeypatch.setattr(scattering, "combine_y", counting)
        rng = np.random.default_rng(29)
        trees = [random_tree(rng, 1024), hard_instance(10, 3, 0), hard_instance(10, 4, 1),
                 TreeInput.from_bits([0, 1] * 512)]
        for tree in trees:
            rows.clear()
            y_bottom(tree, 0.3)
            N = tree.n_leaves
            assert len(rows) == 10
            for h, n in enumerate(rows, start=1):
                assert 1 <= n <= min(N // 2**h, 2 ** 2**h)
            assert rows[-1] == 1
            assert sum(rows) + 2 <= 277

    def test_degenerate_still_raises(self):
        with pytest.raises(DegenerateRecursionError):
            y_bottom(parse_input("0011"), [0.5, 0.0])

    def test_rejects_two_dimensional_energies(self):
        # the chunked fold slices the first axis, which must be energies
        with pytest.raises(ValueError, match="1-d"):
            y_bottom(parse_input("1111"), np.linspace(0.001, 0.5, 300).reshape(300, 1))


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

    def test_scattering_point_invariants(self):
        sp = scattering_point(parse_input("11"), 0.5)
        assert sp.E == pytest.approx(-2.0 * math.cos(sp.theta), abs=1e-14)
        assert abs(1.0 + sp.R - sp.T) < 1e-12
        assert 0.0 < sp.theta < math.pi


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
        assert abs(complex(scattering_point(parse_input("0011"), 0.01).T) - 1.0) < 0.06

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
        with pytest.raises(ValueError, match="1-d"):
            scan_bounds(parse_input("1111"), np.linspace(0.001, 0.03, 6).reshape(6, 1))

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
