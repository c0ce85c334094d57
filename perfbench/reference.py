"""Reference computations the benchmark checks the program against.

Everything here except dense_p_right is written from the paper's formulas
and shares no code with the package, so a later rewrite of a layer cannot
move the reference along with it.  dense_p_right is the dense
eigendecomposition path that the package keeps as its own test oracle;
selftest.py uses it to confirm walk_p_right.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.special import jv

ENERGY_CHUNK = 1024  # energies folded at once; bounds the fold's memory


def adversarial_bits(depth: int, rng, root: int) -> np.ndarray:
    """Leaves of a tree from the classical adversarial distribution: a
    0-node has two 1-children, a 1-node one 0-child and one 1-child in
    random order.  All trees of one root value are equal up to swapping
    children."""
    level = np.array([root], dtype=np.int8)
    for _ in range(depth):
        coin = rng.integers(0, 2, level.size).astype(np.int8)
        left = np.where(level == 0, 1, coin)
        right = np.where(level == 0, 1, 1 - coin)
        level = np.column_stack([left, right]).ravel()
    return level


def packet_weight(L: int, phi) -> np.ndarray:
    """|A(phi)|^2 = sin^2(L phi / 2) / (L sin^2(phi / 2)), equal to L at 0."""
    phi = np.asarray(phi, dtype=float)
    s = np.sin(phi / 2.0)
    out = np.full(phi.shape, float(L))
    nz = s != 0.0
    out[nz] = np.sin(L * phi[nz] / 2.0) ** 2 / (L * s[nz] ** 2)
    return out


def transmission_sq(bits, E) -> np.ndarray:
    """|T(E)|^2 of the tree with these leaves, for |E| < 2.

    The edge ratio Y = p/q is folded from the leaves in projective form
    (leaf with pendant: E/(1-E^2); bare leaf: -1/E; node: -1/(E+Y'+Y'')),
    a chunk of energies at a time.  With s = sin(theta) = sqrt(1 - E^2/4)
    and real y = p/q, |T|^2 = 4 s^2 q^2 / (4 s^2 q^2 + p^2).
    """
    bits = np.asarray(bits, dtype=bool)
    E = np.asarray(E, dtype=float)
    out = np.empty(E.shape)
    for lo in range(0, E.size, ENERGY_CHUNK):
        e = E[lo:lo + ENERGY_CHUNK]
        p = np.where(bits[:, None], e, -1.0)
        q = np.where(bits[:, None], 1.0 - e * e, e)
        while p.shape[0] > 1:
            p1, p2, q1, q2 = p[0::2], p[1::2], q[0::2], q[1::2]
            num = -q1 * q2
            den = e * q1 * q2 + p1 * q2 + p2 * q1
            norm = np.maximum(np.abs(num), np.abs(den))
            p, q = num / norm, den / norm
        four_s2_q2 = (4.0 - e * e) * q[0] ** 2
        out[lo:lo + ENERGY_CHUNK] = four_s2_q2 / (four_s2_q2 + p[0] ** 2)
    return out


def sweep_instance_bits(n_leaves: int, sweep_seed: int) -> np.ndarray:
    """The single instance `nandwalk sweep --seed S --instances 1` runs, as
    the sweep documents its draw: the first `integers(0, 2, N)` of
    `default_rng(S)`."""
    return np.random.default_rng(sweep_seed).integers(0, 2, n_leaves)


def dense_p_right(nw, bits, gamma: float) -> float:
    """p_right by the package's own test oracle: dense eigendecomposition
    and exact evolution."""
    tree = nw.TreeInput.from_bits(np.asarray(bits).tolist())
    cfg = nw.RunConfig.for_tree(tree.n_leaves, gamma=gamma, m_factor=3)
    H = nw.build_full(tree, cfg.M)
    psi0 = nw.initial_packet(cfg.L, cfg.M, H.index_map)
    psi = nw.evolve_exact(nw.dense_eig(H), psi0, cfg.t_run)
    return nw.prob_right(psi, H.index_map)


def walk_p_right(bits, gamma: float, m_factor: int = 3) -> float:
    """p_right of the walk decision, computed independently of the package.

    Graph: runway sites -M..M, a perfect binary tree (heap order, root on
    site 0), one pendant per 1-leaf; H is minus the adjacency.  L is
    gamma sqrt(N) rounded to an even integer >= 4, M = m_factor L and
    t = L/2.  The graph is a tree of maximum degree 3, so ||H|| < 2 sqrt(2),
    and exp(-iHt) is expanded in Chebyshev polynomials of H / s with
    s = 2.83 until the Bessel coefficients drop below 1e-16.
    """
    bits = np.asarray(bits, dtype=int)
    n = bits.size
    L = int(round(gamma * math.sqrt(n)))
    L = max(L + L % 2, 4)
    M = m_factor * L
    t = L / 2.0
    runway = 2 * M + 1
    n_tree = 2 * n - 1
    ones = np.flatnonzero(bits)
    dim = runway + n_tree + ones.size
    rows = [np.arange(runway - 1), [M]]
    cols = [np.arange(1, runway), [runway]]
    child = np.arange(1, n_tree)
    rows.append(runway + (child - 1) // 2)
    cols.append(runway + child)
    rows.append(runway + (n - 1) + ones)
    cols.append(runway + n_tree + np.arange(ones.size))
    r = np.concatenate(rows)
    c = np.concatenate(cols)
    H = sp.csr_matrix((-np.ones(2 * r.size), (np.concatenate([r, c]), np.concatenate([c, r]))),
                      shape=(dim, dim))
    scale = 2.83
    x = scale * t
    k = np.arange(int(x) + 50 + int(20 * x ** (1.0 / 3.0)))
    coef = jv(k, x)
    tail = np.flatnonzero((np.abs(coef) < 1e-16) & (k > x))
    coef = coef[: tail[0] + 1] * (-1j) ** k[: tail[0] + 1]
    coef[1:] *= 2.0
    Hs = H / scale
    sites = np.arange(-L + 1, 1)
    psi = np.zeros(dim, dtype=complex)
    psi[sites + M] = np.exp(1j * np.pi * sites / 2.0) / math.sqrt(L)
    prev, cur = psi, Hs @ psi
    acc = coef[0] * prev + coef[1] * cur
    for a in coef[2:]:
        prev, cur = cur, 2.0 * (Hs @ cur) - prev
        acc += a * cur
    return float(np.sum(np.abs(acc[M + 1:runway]) ** 2))
