"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to
see them inline)."""

import itertools
import math
import time

import numpy as np
import pytest

from nandwalk import (
    RunConfig,
    SymbolicY,
    TreeInput,
    build_full,
    dense_eig,
    energy_grid,
    eval_nand,
    evolve_cheb,
    evolve_exact,
    hard_query_samples,
    initial_packet,
    embed_parity,
    packet_spectrum,
    parse_input,
    parseval_total,
    randomized_eval,
    run_algorithm,
    scan_bounds,
    tail_mass,
    y_at_zero,
)
from conftest import random_tree


def report(num, label, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {label}: {state}" + (f"  [{detail}]" if detail else ""))
    return ok


@pytest.fixture(scope="module")
def end_to_end_runs():
    """All end-to-end decision runs at gamma=16, with both M=3L and M=6L."""
    rng = np.random.default_rng(1618)
    trees = [TreeInput.from_bits(bits) for bits in itertools.product((0, 1), repeat=4)]
    trees += [random_tree(rng, 16) for _ in range(32)]
    records = []
    for tree in trees:
        v3 = run_algorithm(tree, RunConfig.for_tree(tree.n_leaves, gamma=16.0, m_factor=3))
        v6 = run_algorithm(tree, RunConfig.for_tree(tree.n_leaves, gamma=16.0, m_factor=6))
        records.append({"tree": tree, "nand": eval_nand(tree), "v3": v3, "v6": v6})
    return records


def test_criterion_1_nand_scattering_correspondence(rng):
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for n_leaves in (2, 4):
        for bits in itertools.product((0, 1), repeat=n_leaves):
            tree = TreeInput.from_bits(bits)
            want = SymbolicY.ZERO if eval_nand(tree) == 1 else SymbolicY.POLE
            ok = ok and (y_at_zero(tree) is want)
            checked += 1
    for n_leaves in (16, 64, 256):
        for _ in range(512):
            tree = random_tree(rng, n_leaves)
            want = SymbolicY.ZERO if eval_nand(tree) == 1 else SymbolicY.POLE
            ok = ok and (y_at_zero(tree) is want)
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    assert report(1, "band-center recursion is a NAND gate", ok,
                  f"{checked} instances, {elapsed:.2f}s")


def test_criterion_2_bound_table(rng):
    t0 = time.perf_counter()
    violations = 0
    rows = 0
    for n_leaves in (4, 16, 64, 256, 1024):
        grid = energy_grid(n_leaves, points=64)
        for k in range(32):
            rep = scan_bounds(random_tree(rng, n_leaves), grid, instance_id=k)
            violations += len(rep.violations)
            rows += len(rep.rows)
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 10.0
    assert report(2, "reflect/transmit bound table", ok,
                  f"{rows} rows, {violations} violations, {elapsed:.1f}s")


def test_criterion_3_packet_moments():
    worst = 0.0
    for n_leaves in (4, 16):
        bits = ([0, 1] * (n_leaves // 2))
        tree = TreeInput.from_bits(bits)
        for L in (8, 32, 128):
            H = build_full(tree, M=3 * L)
            psi = initial_packet(L, 3 * L, H.index_map)
            hpsi = H.matrix @ psi
            e1 = abs(np.vdot(psi, hpsi).real)
            e2 = abs(np.vdot(hpsi, hpsi).real - 5.0 / L)
            worst = max(worst, e1, e2)
    ok = worst < 1e-12
    assert report(3, "packet mean energy 0 and spread 5/L", ok, f"worst |err|={worst:.1e}")


def test_criterion_4_end_to_end(end_to_end_runs):
    bad = []
    for rec in end_to_end_runs:
        v = rec["v3"]
        margin_ok = v.p_right >= 0.75 if rec["nand"] == 1 else v.p_right <= 0.25
        if v.decision != rec["nand"] or not margin_ok:
            bad.append((rec["tree"].to_text(), v.p_right))
    ok = not bad
    assert report(4, "end-to-end decisions at gamma=16", ok,
                  f"{len(end_to_end_runs)} runs" + (f", failures={bad[:3]}" if bad else ""))


def test_criterion_5_gamma_scaling():
    tree = parse_input("1" * 16)
    gammas = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
    errs = []
    for gamma in gammas:
        v = run_algorithm(tree, RunConfig.for_tree(16, gamma=gamma))
        errs.append(abs(v.p_right - 1.0))
    errs = np.array(errs)
    decreasing = errs[0] > errs[-1]
    slope = float(np.polyfit(np.log(gammas), np.log(errs), 1)[0])
    in_window = -0.75 <= slope <= -0.25
    ok = decreasing and in_window
    assert report(5, "error shrinks like a power of gamma", ok,
                  f"slope={slope:.3f}, window [-0.75,-0.25], errs {errs.round(4).tolist()}")


def test_criterion_6_propagator_equivalence(rng):
    worst_diff = 0.0
    worst_drift = 0.0
    for _ in range(20):
        tree = random_tree(rng, 16)
        gamma = float(rng.choice([8.0, 16.0]))
        cfg = RunConfig.for_tree(16, gamma=gamma)
        H = build_full(tree, cfg.M)
        assert H.dim <= 2000
        psi = initial_packet(cfg.L, cfg.M, H.index_map)
        t_run = float(rng.uniform(0.0, cfg.L))
        a = evolve_cheb(H, psi, t_run)
        b = evolve_exact(dense_eig(H), psi, t_run)
        worst_diff = max(worst_diff, float(np.linalg.norm(a - b)))
        worst_drift = max(worst_drift, abs(float(np.linalg.norm(a)) - 1.0))
    ok = worst_diff <= 1e-8 and worst_drift <= 1e-8
    assert report(6, "polynomial vs dense propagator", ok,
                  f"max L2 diff {worst_diff:.1e}, max drift {worst_drift:.1e}")


def test_criterion_7_appendix_inequalities():
    t0 = time.perf_counter()
    ok = True
    worst_parseval = 0.0
    for L in (16, 64, 256):
        worst_parseval = max(worst_parseval, abs(parseval_total(L) - 1.0))
        for eps in (0.1, 0.3):
            ok = ok and tail_mass(L, eps) < math.pi / (L * eps)
            phis = np.linspace(-eps, eps, 1001)
            _, B = packet_spectrum(L, phis)
            ok = ok and float(np.max(np.abs(B) ** 2)) < 1.0 / (L * math.cos(eps / 2.0) ** 2)
    ok = ok and worst_parseval < 1e-10
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    assert report(7, "packet-spectrum inequalities", ok,
                  f"parseval err {worst_parseval:.1e}, {elapsed:.1f}s")


def test_criterion_8_parity_embedding():
    failures = 0
    checked = 0
    for k in (2, 4, 8):
        for m in range(2 ** k):
            x = [(m >> j) & 1 for j in range(k)]
            if eval_nand(embed_parity(x)) != (1 + sum(x)) % 2:
                failures += 1
            checked += 1
    ok = failures == 0
    assert report(8, "parity embedding truth table", ok, f"{checked} assignments")


def test_criterion_9_classical_baseline(rng):
    errors = 0
    for _ in range(1000):
        tree = random_tree(rng, int(2 ** rng.integers(1, 7)))
        if randomized_eval(tree, int(rng.integers(2 ** 32))).value != eval_nand(tree):
            errors += 1
    depths = (8, 10, 12)
    means = [float(hard_query_samples(n, trials=100_000, seed=4242).mean()) for n in depths]
    slope = float(np.polyfit(
        np.log([2.0 ** n for n in depths]), np.log(means), 1)[0])
    ok = errors == 0 and 0.70 <= slope <= 0.754
    assert report(9, "randomized baseline: zero error, ~N^0.753 queries", ok,
                  f"{errors} errors, exponent {slope:.4f}")


def test_criterion_10_wall_insensitivity(end_to_end_runs):
    worst = max(abs(rec["v3"].p_right - rec["v6"].p_right) for rec in end_to_end_runs)
    ok = worst < 1e-6
    assert report(10, "doubling the runway leaves p_right unchanged", ok,
                  f"max |dp|={worst:.1e} over {len(end_to_end_runs)} runs")
