#!/usr/bin/env python3
"""How the measured probability converges as the packet gets longer.

L = gamma sqrt(N) controls how tightly the packet energy concentrates at
band center.  As gamma grows, p_right approaches |T(0)|^2 in {0, 1}; the
empirical error on these graphs decays roughly like 1/gamma, faster than
the conservative 1/sqrt(gamma) guarantee.  Each measured value sits next
to the scattering integral's prediction at the run time t = L/2 and its
t -> infinity limit, which the run does not wait for.
"""

import math

import numpy as np

from nandwalk import (
    RunConfig,
    eval_nand,
    parse_input,
    predict_p_right,
    run_algorithm,
)

gammas = (4.0, 8.0, 16.0, 32.0, 64.0)

for bits in ("1" * 16, "0110011001100110"):
    tree = parse_input(bits)
    t0_sq = float(eval_nand(tree))
    print("=" * 66)
    print(f"instance {bits}  (value {int(t0_sq)})")
    print("=" * 66)
    print(f"{'gamma':>6} {'L':>5} {'p_right':>9} {'|err|':>9} {'p_pred':>9} "
          f"{'bound':>9} {'p_inf':>9}")
    errs = []
    for gamma in gammas:
        cfg = RunConfig.for_tree(16, gamma=gamma)
        p_sim = run_algorithm(tree, cfg).p_right
        p_pred, p_inf, w = predict_p_right(tree, cfg)
        bound = 2.0 * math.sqrt(p_pred * w) + w
        status = "within bound" if abs(p_sim - p_pred) <= bound else "OUTSIDE bound"
        errs.append(abs(p_sim - t0_sq))
        print(f"{gamma:>6.0f} {cfg.L:>5} {p_sim:>9.5f} {errs[-1]:>9.5f} {p_pred:>9.5f} "
              f"{bound:>9.2e} {p_inf:>9.5f}  [{status}]")
    slope = np.polyfit(np.log(gammas), np.log(errs), 1)[0]
    print(f"fitted decay: |err| ~ gamma^{slope:.2f}")
    print()

print("p_pred is the scattering integral at t = L/2 and |p_right - p_pred|")
print("<= 2 sqrt(p_pred w) + w, with w the bound-state weight.  p_inf is")
print("where p_right settles if the run waits: at t = L/2 the packet's back")
print("edge has only just reached the tree, so p_right is still below p_inf")
print("for both root values.")
