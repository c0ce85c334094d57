"""The four benchmark workloads.

Each workload turns the benchmark seed into inputs, warms the pipeline up
on a small input, runs one operation per input, and checks every output
against a reference computed outside the timed region.  The program only
ever sees the generated inputs (trees, seeds for its own samplers, CLI
arguments).

    decide_large     run_algorithm at N=16384, gamma=16: Chebyshev
                     propagation in the paper's asymptotic regime
    sweep_small      `nandwalk sweep` at N=16, gamma 4/16/64 in-process:
                     many small runs, each on the dense-eigh path today
    classical_hard   the classical randomized baseline at depth 12
    predict_scatter  the scattering integral p_inf at N=1024 on a
                     16,384-point phi grid, plus bound scans and
                     packet-spectrum quadratures
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from reference import (
    adversarial_bits,
    packet_weight,
    sweep_instance_bits,
    transmission_sq,
    walk_p_right,
)

# Share of 1-leaves that makes the NAND value of a random tree a fair-ish
# coin at every depth: the fixed point p = 1 - p^2.
GOLDEN_P = (math.sqrt(5.0) - 1.0) / 2.0

DECIDE_N = 16384
DECIDE_GAMMA = 16.0
# p_right of run_algorithm at N=16384, gamma=16, M=3L, tol=1e-12 on an
# adversarial instance.  Every adversarial tree of a given root value is
# the same tree up to swapping children, so the walk graph, and p_right,
# do not depend on the draw.  selftest.py recomputes both values with the
# benchmark's own graph builder and propagator.
DECIDE_P_RIGHT = {0: 0.2414744858999447, 1: 0.703581796852015}
P_RIGHT_TOL = 1e-8

SWEEP_N = 16
SWEEP_GAMMAS = (4.0, 16.0, 64.0)

HARD_DEPTH = 12
HARD_TRIALS = 4096
HARD_Z = 5.0

SCATTER_N = 1024
SCATTER_GRID = 16384
SCATTER_LS = (512, 1024)  # gamma 16 and 32 at N=1024
SCATTER_EPS = 0.1
SCATTER_POOL = 2  # distinct trees per run; each needs one reference fold
P_INF_TOL = 1e-6
PARSEVAL_TOL = 1e-10


@dataclass
class Workload:
    name: str
    setup: Callable  # (nw, seed, workdir) -> state
    make_input: Callable  # (state, k) -> input of operation k
    op: Callable  # (nw, state, input) -> output
    check: Callable  # (nw, state, input, output) -> None, or a failure reason


def _rng(seed, *stream):
    return np.random.default_rng([seed, *stream])


def _tree(nw, bits):
    return nw.TreeInput.from_bits(np.asarray(bits).tolist())


# -- decide_large ---------------------------------------------------------


def _decide_setup(nw, seed, workdir):
    nw.run_algorithm(_tree(nw, [1, 0, 1, 1] * 4), nw.RunConfig.for_tree(16, gamma=DECIDE_GAMMA))
    return {"seed": seed, "config": nw.RunConfig.for_tree(DECIDE_N, gamma=DECIDE_GAMMA)}


def _decide_input(state, k):
    root = k % 2
    depth = DECIDE_N.bit_length() - 1
    return root, adversarial_bits(depth, _rng(state["seed"], 1, k), root)


def _decide_op(nw, state, inp):
    return nw.run_algorithm(_tree(nw, inp[1]), state["config"])


def _decide_check(nw, state, inp, verdict):
    root, bits = inp
    nand = nw.eval_nand(_tree(nw, bits))
    if nand != root:
        return f"eval_nand={nand} on an adversarial tree of root value {root}"
    if verdict.decision != nand:
        return f"decision {verdict.decision} != eval_nand {nand} (p_right={verdict.p_right})"
    if abs(verdict.p_right - DECIDE_P_RIGHT[root]) > P_RIGHT_TOL:
        return f"p_right {verdict.p_right!r} != reference {DECIDE_P_RIGHT[root]!r}"
    return None


# -- sweep_small ----------------------------------------------------------


def _sweep_argv(sweep_seed, n, out):
    return (["sweep", "--n", str(n), "--gamma", *(f"{g:g}" for g in SWEEP_GAMMAS),
             "--instances", "1", "--seed", str(sweep_seed), "--out", out])


def _sweep_setup(nw, seed, workdir):
    warm = os.path.join(workdir, "warm.csv")
    if nw.cli_main(_sweep_argv(0, 4, warm)) != 0:
        raise RuntimeError("warm-up sweep failed")
    return {"seed": seed, "out": os.path.join(workdir, "sweep.csv")}


def _sweep_input(state, k):
    # A fresh instance per operation: LAPACK's eigh takes about twice as
    # long on a few percent of instances, so a small fixed pool would make
    # a run's speed depend on whether its pool holds one of them.
    return int(_rng(state["seed"], 2, k).integers(0, 2**31))


def _sweep_op(nw, state, sweep_seed):
    rc = nw.cli_main(_sweep_argv(sweep_seed, SWEEP_N, state["out"]))
    with open(state["out"], encoding="utf-8") as fh:
        return rc, fh.read()


def _sweep_check(nw, state, sweep_seed, output):
    rc, text = output
    if rc != 0:
        return f"sweep exited {rc}"
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != ",".join(nw.harness.SWEEP_COLUMNS):
        return f"CSV header {lines[:1]} != SWEEP_COLUMNS"
    rows = list(csv.DictReader(lines))
    if len(rows) != len(SWEEP_GAMMAS):
        return f"{len(rows)} CSV rows, expected {len(SWEEP_GAMMAS)}"
    bits = sweep_instance_bits(SWEEP_N, sweep_seed)
    for row, gamma in zip(rows, SWEEP_GAMMAS):
        p = float(row["p_right"])
        ref = walk_p_right(bits, gamma)
        if float(row["gamma"]) != gamma or abs(p - ref) > P_RIGHT_TOL:
            return f"gamma={row['gamma']}: p_right {p!r} != reference {ref!r}"
    return None


# -- classical_hard -------------------------------------------------------


def _hard_setup(nw, seed, workdir):
    nw.hard_query_samples(4, 64, 0)
    nw.randomized_eval(nw.hard_instance(4, 0), 0)
    return {"seed": seed}


def _hard_input(state, k):
    s = [int(x) for x in _rng(state["seed"], 3, k).integers(0, 2**31, 5)]
    return {"samples": s[0], "draws": [(0, s[1], s[2]), (1, s[3], s[4])]}


def _hard_op(nw, state, inp):
    q = nw.hard_query_samples(HARD_DEPTH, HARD_TRIALS, inp["samples"])
    evals = []
    for root, tree_seed, coin_seed in inp["draws"]:
        tree = nw.hard_instance(HARD_DEPTH, tree_seed, root)
        evals.append((root, nw.randomized_eval(tree, coin_seed).value, nw.eval_nand(tree)))
    return q, evals


def _hard_check(nw, state, inp, output):
    q, evals = output
    if np.size(q) != HARD_TRIALS:
        return f"{np.size(q)} query samples, expected {HARD_TRIALS}"
    mean = float(np.mean(q))
    se = float(np.std(q, ddof=1)) / math.sqrt(HARD_TRIALS)
    expected = nw.expected_hard_queries(HARD_DEPTH)
    if not abs(mean - expected) <= HARD_Z * se:
        return f"mean queries {mean:.2f} is not within {HARD_Z} SE ({se:.2f}) of {expected:.2f}"
    for root, randomized, exact in evals:
        if not randomized == exact == root:
            return f"root {root}: randomized_eval {randomized}, eval_nand {exact}"
    return None


# -- predict_scatter ------------------------------------------------------


def _scatter_setup(nw, seed, workdir):
    small = _tree(nw, [1, 0, 1, 1] * 4)
    phi_small = np.linspace(-3.0, 3.0, 64)
    nw.transmission(2.0 * np.sin(phi_small), nw.y_bottom(small, 2.0 * np.sin(phi_small)))
    nw.packet_spectrum(16, phi_small)
    nw.scan_bounds(small, nw.energy_grid(16))
    nw.tail_mass(16, SCATTER_EPS)
    rng = _rng(seed, 4)
    trees = [(rng.random(SCATTER_N) < GOLDEN_P).astype(int) for _ in range(SCATTER_POOL)]
    # midpoint grid: E = 2 sin(phi) never reaches the band edges |E| = 2
    phi = -np.pi + (np.arange(SCATTER_GRID) + 0.5) * (2.0 * np.pi / SCATTER_GRID)
    return {"trees": [_tree(nw, b) for b in trees], "phi": phi, "E": 2.0 * np.sin(phi),
            "t_sq": {}}


def _scatter_input(state, k):
    return k % SCATTER_POOL, SCATTER_LS[(k // SCATTER_POOL) % len(SCATTER_LS)]


def _scatter_op(nw, state, inp):
    idx, L = inp
    tree = state["trees"][idx]
    A, _ = nw.packet_spectrum(L, state["phi"])
    T, _ = nw.transmission(state["E"], nw.y_bottom(tree, state["E"]))
    p_inf = float(np.mean(np.abs(A) ** 2 * np.abs(T) ** 2))
    report = nw.scan_bounds(tree, nw.energy_grid(tree.n_leaves), instance_id=idx)
    return (p_inf, report.all_pass, nw.parseval_total(L), nw.tail_mass(L, SCATTER_EPS))


def _scatter_check(nw, state, inp, output):
    idx, L = inp
    p_inf, bounds_pass, total, tail = output
    if not bounds_pass:
        return "scan_bounds reported a violation"
    if abs(total - 1.0) > PARSEVAL_TOL:
        return f"parseval_total({L}) = {total!r}"
    if not tail < math.pi / (L * SCATTER_EPS):
        return f"tail_mass({L}, {SCATTER_EPS}) = {tail!r} above its bound"
    if not 0.0 <= p_inf <= 1.0:
        return f"p_inf {p_inf!r} outside [0, 1]"
    if idx not in state["t_sq"]:
        state["t_sq"][idx] = transmission_sq(state["trees"][idx].bits, state["E"])
    ref = float(np.mean(packet_weight(L, state["phi"]) * state["t_sq"][idx]))
    if abs(p_inf - ref) > P_INF_TOL:
        return f"p_inf {p_inf!r} != reference {ref!r}"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("decide_large", _decide_setup, _decide_input, _decide_op, _decide_check),
        Workload("sweep_small", _sweep_setup, _sweep_input, _sweep_op, _sweep_check),
        Workload("classical_hard", _hard_setup, _hard_input, _hard_op, _hard_check),
        Workload("predict_scatter", _scatter_setup, _scatter_input, _scatter_op, _scatter_check),
    )
}
