#!/usr/bin/env python3
"""The edge-ratio recursion and what it does to an incoming wave.

Every tree edge carries Y(E) = (amplitude above)/(amplitude below) in an
energy eigenstate.  Folding Y down the tree gives y(E) on the root edge,
which sets the transmission amplitude T(E).  At band center the fold is
literally a NAND gate, so |T(0)|^2 equals the tree's logical value; the
numeric fold at E = 0 exactly, where two pole children give 0, agrees.
"""

import numpy as np

from nandwalk import (
    SymbolicY,
    energy_grid,
    eval_nand,
    parse_input,
    scan_bounds,
    transmission,
    y_at_zero,
    y_bottom,
)

print("=" * 66)
print("Band-center recursion = NAND gate")
print("=" * 66)
for bits in ("11", "00", "01", "0110", "0011"):
    tree = parse_input(bits)
    tag = y_at_zero(tree)
    t0 = 1 if tag is SymbolicY.ZERO else 0
    y0 = y_bottom(tree, 0.0)  # the numeric fold at E = 0 exactly
    fold = "pole" if y0.den == 0.0 else f"{float(y0.ratio):g}"
    print(f"  {bits:>6s}: value={eval_nand(tree)}  y(0+) {tag.value:>4s}  y(0) {fold:>4s}"
          f"  => |T(0)|^2 = {t0}")

print()
print("=" * 66)
print("y(E) and T(E) away from band center")
print("=" * 66)
for bits in ("0011", "0110"):
    tree = parse_input(bits)
    kind = "transmit" if eval_nand(tree) == 1 else "reflect"
    print(f"\ninstance {bits} ({kind}):")
    print(f"{'E':>10} {'y(E)':>14} {'|T|':>8} {'|T-1|':>8}")
    for E in (1e-4, 1e-3, 1e-2, 0.03):
        y = y_bottom(tree, E)
        T = complex(transmission(E, y)[0])
        print(f"{E:>10.0e} {float(y.ratio):>14.5g} {abs(T):>8.5f} {abs(T - 1):>8.5f}")

print()
print("=" * 66)
print("Antisymmetry: y(-E) = -y(E)")
print("=" * 66)
tree = parse_input("10110100")
for E in (0.02, 0.4):
    yp = float(y_bottom(tree, E).ratio)
    ym = float(y_bottom(tree, -E).ratio)
    print(f"  E={E}: y(E)={yp:+.6f}  y(-E)={ym:+.6f}")

print()
print("=" * 66)
print("Reflect/transmit bounds over the validity window")
print("=" * 66)
print("value 0:  |y| > 1/(4 sqrt(N) E)   and  |T|   < 8 sqrt(N) E")
print("value 1:  |y| < 4 sqrt(N) E       and  |T-1| < 3 sqrt(N) E")
print()
rng = np.random.default_rng(0)
for n_leaves in (16, 256):
    grid = energy_grid(n_leaves, points=48)
    bad = 0
    for k in range(16):
        tree = parse_input("".join(map(str, rng.integers(0, 2, n_leaves))))
        rep = scan_bounds(tree, grid, instance_id=k)
        bad += len(rep.violations)
    print(f"  N={n_leaves:>4}: 16 instances x {grid.size} energies -> {bad} violations")
print("\n(the scan is also available as `nandwalk scatter --input BITS`)")
