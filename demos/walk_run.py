#!/usr/bin/env python3
"""One full decision run, step by step.

Build the graph (runway + tree + pendant oracle nodes), launch a length-L
packet from the left, evolve for t = L/2, and read off the probability on
the right half of the runway.  The packet crosses when the tree value is 1
and bounces when it is 0.
"""

import numpy as np

from nandwalk import (
    RunConfig,
    build_full,
    dense_eig,
    eval_nand,
    evolve_exact,
    initial_packet,
    parse_input,
    prob_right,
    run_algorithm,
)

for bits in ("0011", "0110"):
    tree = parse_input(bits)
    value = eval_nand(tree)
    cfg = RunConfig.for_tree(tree.n_leaves, gamma=16.0)
    print("=" * 66)
    print(f"instance {bits}: classical value {value} "
          f"({'transmit' if value else 'reflect'} expected)")
    print("=" * 66)

    H = build_full(tree, cfg.M)
    print(f"graph: {H.dim} nodes = runway {2*cfg.M+1} + tree {2*tree.n_leaves-1} "
          f"+ extras {tree.n_leaves}")
    print(f"packet: L={cfg.L}, sites -{cfg.L-1}..0, evolve for t={cfg.t_run}")

    psi0 = initial_packet(cfg.L, cfg.M, H.index_map)
    hpsi = H.matrix @ psi0
    print(f"packet moments: <H> = {np.vdot(psi0, hpsi).real:+.2e}, "
          f"<H^2> = {np.vdot(hpsi, hpsi).real:.6f} (= 5/L = {5.0/cfg.L:.6f})")

    psi_t = evolve_exact(dense_eig(H), psi0, cfg.t_run)
    imap = H.index_map
    p_right = prob_right(psi_t, imap)
    p_left = float(np.sum(np.abs(psi_t[imap.runway_indices(np.arange(-cfg.M, 1))]) ** 2))
    p_tree = float(np.sum(np.abs(psi_t[imap.tree_indices()]) ** 2)
                   + np.sum(np.abs(psi_t[imap.extra_indices()]) ** 2))
    print(f"probability after evolution: right {p_right:.4f} | left {p_left:.4f} "
          f"| in tree {p_tree:.4f}")

    verdict = run_algorithm(tree, cfg)
    ok = "correct" if verdict.decision == value else "WRONG"
    print(f"decision (threshold 1/2): {verdict.decision}  [{ok}]")
    print(f"verdict json: {verdict.to_json()}")
    print()

print("a coarse profile of where the packet sits (transmitting instance):")
tree = parse_input("0011")
cfg = RunConfig.for_tree(4, gamma=16.0)
H = build_full(tree, cfg.M)
psi_t = evolve_exact(dense_eig(H), initial_packet(cfg.L, cfg.M, H.index_map), cfg.t_run)
rs = np.arange(-cfg.M, cfg.M + 1)
prob = np.abs(psi_t[H.index_map.runway_indices(rs)]) ** 2
bins = np.array_split(np.arange(rs.size), 16)
scale = max(np.sum(prob[b]) for b in bins)
for b in bins:
    mass = float(np.sum(prob[b]))
    bar = "#" * int(round(40 * mass / scale))
    print(f"  r in [{rs[b[0]]:>4d},{rs[b[-1]]:>4d}]  {mass:6.3f}  {bar}")
