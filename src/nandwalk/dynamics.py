"""Wave-packet dynamics and the end-to-end decision procedure.

The initial state is a right-moving packet of length L on the left half of
the runway, amplitude e^{i pi r / 2} / sqrt(L) on sites -L+1..0.  It has
<H> = 0 and <H^2> = 5/L exactly, so its energy concentrates near the band
center where the tree either transmits (root value 1) or reflects (root
value 0).  Evolving for t = L/2 and measuring the probability on the right
half of the runway decides the instance.

The runtime propagator is a Chebyshev expansion of e^{-iHt} (Tal-Ezer and
Kosloff 1984) run in real arithmetic.  The walk graph is a forest, hence
bipartite with classes A and B (NodeIndexMap.sublattice), and on it
e^{-iHt} (P_A v + i P_B v) = P_A (C + S) v + i P_B (C - S) v for real v,
with C = cos(Ht) and S = sin(Ht).  One real three-term recurrence
T_k(H/s) v yields C v (even k) and S v (odd k).  A general state is a
sum of two such terms, and the initial packet is a single one.  The
series is truncated at the fixed CHEB_TOL, at an order read off one
window of Bessel orders.  It is the only propagator run_algorithm uses;
the dense eigendecomposition propagator (evolve_exact with
lattice.dense_eig) is the test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np
from scipy.linalg.blas import daxpy
from scipy.special import jv

from .nand_core import TreeInput
from .lattice import HamiltonianGraph, NodeIndexMap, build_full
from .scattering import SymbolicY, y_at_zero

# Every forest of maximum degree 3 with unit edge weights has ||H|| below
# 2 sqrt(3 - 1) = 2 sqrt 2; evolve_cheb refuses graphs outside that class.
SPECTRAL_RADIUS_BOUND = 2.0 * math.sqrt(2.0)
MAX_DEGREE = 3
NORM_DRIFT_BOUND = 1e-8
CHEB_TOL = 1e-12  # Bessel-tail truncation of the Chebyshev series
DECISION_THRESHOLD = 0.5  # decide 1 when p_right >= 1/2
_QUARTER_PHASES = np.array([1.0, 1.0j, -1.0, -1.0j])  # e^{i pi r / 2} by r mod 4


def initial_packet(L: int, M: int, index_map: NodeIndexMap) -> np.ndarray:
    """Unit-norm packet on runway sites -L+1..0, zero on the tree.

    Site r carries e^{i pi r / 2} / sqrt(L); the quarter-period phase makes
    the packet right-moving with group velocity 2.  The phases are set
    exactly as (1, i, -1, -i)[r mod 4], so the packet is real on even sites
    and imaginary on odd ones, which evolve_cheb propagates in one real
    recurrence.
    """
    if L > M:
        raise ValueError(f"packet length L={L} exceeds half-runway M={M}")
    if L < 1:
        raise ValueError("packet length must be positive")
    psi = np.zeros(index_map.dim, dtype=complex)
    rs = np.arange(-L + 1, 1)
    psi[index_map.runway_indices(rs)] = _QUARTER_PHASES[rs % 4] / math.sqrt(L)
    return psi


def prob_right(psi: np.ndarray, index_map: NodeIndexMap) -> float:
    """Total probability on runway sites r = 1..M."""
    return float(np.sum(np.abs(psi[index_map.right_runway_slice()]) ** 2))


def evolve_exact(eig, psi: np.ndarray, t: float) -> np.ndarray:
    """Propagate by the dense eigendecomposition: sum_i e^{-i w_i t} v_i <v_i|psi>."""
    w, V = eig
    return V @ (np.exp(-1j * w * t) * (V.conj().T @ psi))


def _chebyshev_coefficients(x: float) -> np.ndarray:
    """Real coefficients (2 - d_k0) J_k(x) (1, 1, -1, -1)[k mod 4] of
    cos(x y) (even k) and sin(x y) (odd k) in T_k(y), kept to 9 orders past
    the first k > |x| with |J_k(x)| < CHEB_TOL / 100.  That k lies in one
    window of |x| + 12 |x|^(1/3) + 50 orders: past the turning point, J_k(x)
    decays like an Airy function of (k - |x|) / |x|^(1/3)."""
    ks = np.arange(int(abs(x) + 12.0 * abs(x) ** (1.0 / 3.0)) + 50)
    j = jv(ks, x)
    hits = np.nonzero((np.abs(j) < CHEB_TOL / 100.0) & (ks > abs(x)))[0]
    if not hits.size or hits[0] + 9 > ks.size:
        raise RuntimeError(f"Chebyshev cut-off not found within {ks.size} orders")
    ks = ks[: hits[0] + 9]
    return (2.0 - (ks == 0)) * np.where(ks % 4 < 2, 1.0, -1.0) * j[: ks.size]


def _check_forest(H: HamiltonianGraph, cls: np.ndarray) -> None:
    """Raise ValueError unless `cls` two-colours H and H is a forest of
    maximum degree 3 with |entries| <= 1, the premises of the real
    recurrence and of SPECTRAL_RADIUS_BOUND."""
    # Imported here: csgraph adds ~1 MB and ~20 ms to the package import,
    # which the layers that never propagate need not pay.
    from scipy.sparse.csgraph import connected_components

    m = H.matrix
    degree = np.diff(m.indptr)
    if np.any(cls[np.repeat(np.arange(H.dim), degree)] == cls[m.indices]):
        raise ValueError("an edge joins two nodes of the same sublattice class")
    components = connected_components(m, directed=False, return_labels=False)
    if m.nnz // 2 != H.dim - components:
        raise ValueError("walk graph is not a forest")
    if degree.max() > MAX_DEGREE or (m.nnz and np.abs(m.data).max() > 1.0):
        raise ValueError(f"walk graph exceeds degree {MAX_DEGREE} or unit edge weight")


def _cos_sin(Hs, a: np.ndarray, v: np.ndarray):
    """(cos(Ht) v, sin(Ht) v) for real v from one recurrence
    u_k = T_k(H/s) v, with Hs = 2H/s: u_{k+1} = Hs u_k - u_{k-1}."""
    cos_v = a[0] * v
    sin_v = np.zeros_like(v)
    acc = (cos_v, sin_v)
    prev = v.copy()
    cur = Hs @ v
    cur *= 0.5
    daxpy(cur, sin_v, a=a[1])
    for k in range(2, a.size):
        nxt = Hs @ cur
        nxt -= prev
        prev, cur = cur, nxt
        daxpy(cur, acc[k & 1], a=a[k])
    return cos_v, sin_v


def evolve_cheb(H: HamiltonianGraph, psi: np.ndarray, t: float) -> np.ndarray:
    """Polynomial approximation of e^{-iHt} psi in real arithmetic.

    Writes psi = chi(v1) + i chi(v2) with chi(v) = P_A v + i P_B v over the
    sublattice classes, and e^{-iHt} chi(v) = chi((C + sigma S) v) with
    sigma = +1 on A, -1 on B.  Each nonzero v costs one real Chebyshev
    recurrence; the initial packet has v2 = 0.  The series uses the
    spectral radius bound 2 sqrt 2 and is truncated when the Bessel
    coefficient tail falls below CHEB_TOL; norm drift stays within a small
    multiple of CHEB_TOL.  Raises ValueError on a graph outside the bound's
    premises (see _check_forest), RuntimeError if the cut-off is not found.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape[0] != H.dim:
        raise ValueError("state dimension mismatch")
    cls = H.index_map.sublattice()
    _check_forest(H, cls)
    on_a = cls == 0
    a = _chebyshev_coefficients(SPECTRAL_RADIUS_BOUND * t)
    Hs = H.matrix * (2.0 / SPECTRAL_RADIUS_BOUND)

    def propagate(v):
        if not v.any():
            return v
        cos_v, sin_v = _cos_sin(Hs, a, v)
        return np.where(on_a, cos_v + sin_v, cos_v - sin_v)

    x1 = propagate(np.where(on_a, psi.real, psi.imag))
    x2 = propagate(np.where(on_a, psi.imag, -psi.real))
    out = np.empty(H.dim, dtype=complex)
    out.real = np.where(on_a, x1, -x2)
    out.imag = np.where(on_a, x2, x1)
    return out


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one decision run.

    L is the packet length (forced even, >= 4), M the half-runway length
    (>= 3L so nothing reaches the walls by measurement time), t_run the
    evolution time (L/2 by default).
    """

    gamma: float
    L: int
    M: int
    t_run: float

    def __post_init__(self):
        if not 1 <= self.gamma < math.inf:
            raise ValueError("gamma must be finite and >= 1")
        if self.L < 4 or self.L % 2:
            raise ValueError("L must be an even integer >= 4")
        if self.M < 3 * self.L:
            raise ValueError("M must be >= 3 L (wall-insensitive margin)")

    @classmethod
    def for_tree(cls, n_leaves: int, gamma: float = 16.0, m_factor: int = 3) -> "RunConfig":
        """Derive L = gamma sqrt(N) (even, >= 4), M = m_factor L, t = L/2."""
        if not math.isfinite(gamma):
            raise ValueError(f"gamma must be finite, got {gamma}")
        L = int(round(gamma * math.sqrt(n_leaves)))
        L += L % 2
        L = max(L, 4)
        return cls(gamma=gamma, L=L, M=m_factor * L, t_run=L / 2.0)


@dataclass(frozen=True)
class Verdict:
    """Outcome of one run: the decision bit, the measured right-side
    probability, and the analytic transmission probability at band center."""

    decision: int
    p_right: float
    analytic_T0_sq: float
    config: dict


def run_algorithm(tree: TreeInput, config: RunConfig | None = None) -> Verdict:
    """Build the graph, launch the packet, evolve for t_run, measure.

    The verdict carries |T(0)|^2 in {0, 1} from the symbolic recursion for
    comparison with the measured probability.
    """
    if config is None:
        config = RunConfig.for_tree(tree.n_leaves)
    H = build_full(tree, config.M)
    psi0 = initial_packet(config.L, config.M, H.index_map)
    psi_t = evolve_cheb(H, psi0, config.t_run)
    drift = abs(float(np.linalg.norm(psi_t)) - 1.0)
    if drift > NORM_DRIFT_BOUND:
        raise ArithmeticError(
            f"chebyshev propagator drifted the norm by {drift:.1e} (bound {NORM_DRIFT_BOUND:g})"
        )
    p = prob_right(psi_t, H.index_map)
    t0_sq = 1.0 if y_at_zero(tree) is SymbolicY.ZERO else 0.0
    decision = 1 if p >= DECISION_THRESHOLD else 0
    echo = {"bits": tree.to_text(), "N": tree.n_leaves, **asdict(config),
            "tolerance": CHEB_TOL, "threshold": DECISION_THRESHOLD, "dim": H.dim}
    return Verdict(decision=decision, p_right=p, analytic_T0_sq=t0_sq, config=echo)
