#!/usr/bin/env python3
"""Classical NAND-tree evaluation: exact fold vs randomized short-circuit.

The randomized rule evaluates a random child first and skips the sibling
whenever the first child comes back 0.  On adversarial instances the
expected number of leaves read grows like N^0.753, far below N.
"""

import numpy as np

from nandwalk import (
    eval_nand,
    hard_instance,
    hard_query_law,
    hard_query_samples,
    parse_input,
    randomized_eval,
)

print("=" * 66)
print("Exact evaluation")
print("=" * 66)
for bits in ("11", "00", "0110", "10110100"):
    print(f"  {bits:>10s}  ->  {eval_nand(parse_input(bits))}")

print()
print("=" * 66)
print("Randomized evaluation is zero-error but reads fewer leaves")
print("=" * 66)
tree = parse_input("1011010010110100")
print(f"instance {tree.to_text()} (N={tree.n_leaves}), exact value {eval_nand(tree)}")
for seed in range(6):
    trace = randomized_eval(tree, seed)
    print(f"  seed {seed}: value={trace.value}  leaves read={trace.queries}/{tree.n_leaves}")

print()
print("=" * 66)
print("Query scaling on adversarial instances")
print("=" * 66)
print("Instances drawn from the worst-case distribution: a 0-node forces")
print("both children to 1, a 1-node hides its single 0 on a random side.")
print()
print("Samples are i.i.d. draws from the exact query-count law (a recursion")
print("on pmfs); its mean and standard deviation are shown next to them.")
print()
print(f"{'depth':>6} {'N':>6} {'sample mean':>12} {'exact mean':>11} {'exact std':>10} "
      f"{'N^0.753':>10}")
depths = (4, 6, 8, 10, 12, 14)
means = []
for n in depths:
    qs = hard_query_samples(n, trials=20000, seed=7)
    law = hard_query_law(n)
    q = np.arange(law.size)
    mean = q @ law
    std = np.sqrt((q - mean) ** 2 @ law)
    means.append(qs.mean())
    print(f"{n:>6} {2**n:>6} {qs.mean():>12.2f} {mean:>11.2f} {std:>10.2f} "
          f"{(2**n)**0.753:>10.1f}")

slope = np.polyfit(np.log([2.0**n for n in depths[-3:]]),
                   np.log(means[-3:]), 1)[0]
print(f"\nfitted exponent over the last three depths: {slope:.4f}")
print("(the worst-case theory value is log2((1+sqrt(33))/4) = 0.7537)")

print()
print("one concrete adversarial instance at depth 4:")
t = hard_instance(4, seed=1)
print(f"  {t.to_text()}  ->  value {eval_nand(t)}")
