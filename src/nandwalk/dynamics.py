"""Wave-packet dynamics and the end-to-end decision procedure.

The initial state is a right-moving packet of length L on the left half of
the runway, amplitude e^{i pi r / 2} / sqrt(L) on sites -L+1..0.  It has
<H> = 0 and <H^2> = 5/L exactly, so its energy concentrates near the band
center where the tree either transmits (root value 1) or reflects (root
value 0).  Evolving for t = L/2 and measuring the probability on the right
half of the runway decides the instance.

The runtime propagator is a Chebyshev expansion of e^{-iHt} (Tal-Ezer and
Kosloff 1984) run in real arithmetic.  The walk graph is a forest, hence
bipartite with classes A and B (NodeIndexMap.classes): with
D = diag(+1 on A, -1 on B), D H D = -H.  For real v and
chi(v) = P_A v + i P_B v, e^{-iHt} chi(v) = chi(sum_k e_k J_k(s t) s_k),
where s = 2 sqrt 2, e_0 = 1, e_k = 2 for k >= 1, and the signed recurrence
s_0 = v, s_1 = K v / 2, s_{k+1} = K s_k + s_{k-1} runs on the row-signed
K = D (2H / s).  Each term is one in-place sparse product into the buffer
of s_{k-1} and one axpy into a single accumulator.  A general state is a
sum of two such terms, and the initial packet is a single one.  The
series is truncated at the fixed CHEB_TOL, at an order read off one
window of Bessel orders, and the coefficients of the last few evolution
times are cached.  Every matrix passes NodeIndexMap.check first.  It is
the only propagator run_algorithm uses; the dense eigendecomposition
propagator (evolve_exact with lattice.dense_eig) is the test oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, asdict

import numpy as np
from scipy.linalg.blas import daxpy
from scipy.sparse._sparsetools import csr_matvec
from scipy.special import jv

from .nand_core import TreeInput, _check_int
from .lattice import HamiltonianGraph, NodeIndexMap, build_full
from .scattering import SymbolicY, y_at_zero

# Every forest of maximum degree 3 with unit edge weights has ||H|| below
# 2 sqrt(3 - 1) = 2 sqrt 2; NodeIndexMap.check refuses graphs outside that class.
SPECTRAL_RADIUS_BOUND = 2.0 * math.sqrt(2.0)
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
    recurrence.  Raises ValueError unless integers 1 <= L <= M = index_map.M.
    """
    _check_int("packet length L", L, 1)
    _check_int("M", M, 1)
    if M != index_map.M:
        raise ValueError(f"M={M} does not match the index map's M={index_map.M}")
    if L > M:
        raise ValueError(f"packet length L={L} exceeds half-runway M={M}")
    psi = np.zeros(index_map.dim, dtype=complex)
    rs = np.arange(-L + 1, 1)
    psi[index_map.runway_indices(rs)] = _QUARTER_PHASES[rs % 4] / math.sqrt(L)
    return psi


def prob_right(psi: np.ndarray, index_map: NodeIndexMap) -> float:
    """Total probability on runway sites r = 1..M; ValueError unless psi
    has shape (index_map.dim,)."""
    if np.shape(psi) != (index_map.dim,):
        raise ValueError("state dimension mismatch")
    return float(np.sum(np.abs(psi[index_map.right_runway_slice()]) ** 2))


def evolve_exact(eig, psi: np.ndarray, t: float) -> np.ndarray:
    """Propagate by the dense eigendecomposition: sum_i e^{-i w_i t} v_i <v_i|psi>."""
    w, V = eig
    return V @ (np.exp(-1j * w * t) * (V.conj().T @ psi))


@functools.lru_cache(maxsize=8)
def _chebyshev_coefficients(x: float) -> np.ndarray:
    """Read-only coefficients (2 - d_k0) J_k(x) of the signed recurrence,
    kept to 9 orders past the first k > |x| with |J_k(x)| < CHEB_TOL / 100.
    That k lies in one window of |x| + 12 |x|^(1/3) + 50 orders: past the
    turning point, J_k(x) decays like an Airy function of
    (k - |x|) / |x|^(1/3).  The last 8 x are cached: a sweep reuses one x
    per gamma."""
    ks = np.arange(int(abs(x) + 12.0 * abs(x) ** (1.0 / 3.0)) + 50)
    j = jv(ks, x)
    hits = np.nonzero((np.abs(j) < CHEB_TOL / 100.0) & (ks > abs(x)))[0]
    if not hits.size or hits[0] + 9 > ks.size:
        raise ArithmeticError(f"Chebyshev cut-off not found within {ks.size} orders")
    ks = ks[: hits[0] + 9]
    c = (2.0 - (ks == 0)) * j[: ks.size]
    c.flags.writeable = False
    return c


def _csr_matvec_add(indptr, indices, data, *vectors):
    """Bind scipy's compiled CSR product to the square matrix (data, indices,
    indptr): the returned kernel(x, y) adds A x to y in place, with no
    allocation and no dispatch.  ValueError unless both index arrays are
    int32 and data and each of `vectors` are C-contiguous float64, the
    vectors of length len(indptr) - 1.  The kernel checks nothing, so it
    is called only on the vectors checked here: on any other dtype scipy
    would cast into a copy, and it reads no length."""
    n = indptr.size - 1
    if indptr.dtype != np.int32 or indices.dtype != np.int32:
        raise ValueError("CSR index arrays must be int32")
    for a in (data, *vectors):
        if a.dtype != np.float64 or not a.flags.c_contiguous:
            raise ValueError("CSR data and vectors must be C-contiguous float64")
    if any(v.shape != (n,) for v in vectors):
        raise ValueError(f"vectors must have length {n}")
    return functools.partial(csr_matvec, n, n, indptr, indices, data)


def evolve_cheb(H: HamiltonianGraph, psi: np.ndarray, t: float) -> np.ndarray:
    """Polynomial approximation of e^{-iHt} psi in real arithmetic.

    Writes psi = chi(v1) + i chi(v2) with chi(v) = P_A v + i P_B v over the
    sublattice classes, and e^{-iHt} chi(v) = chi(x) with x the sum of
    (2 - d_k0) J_k(s t) s_k over the signed recurrence s_k on
    K = D (2H / s) (module docstring).  Each nonzero v costs one
    recurrence, whose every term is one in-place CSR product and one axpy
    into x; the initial packet has v2 = 0.  The series uses the spectral
    radius bound s = 2 sqrt 2 and is truncated when the Bessel coefficient
    tail falls below CHEB_TOL; norm drift stays within a small multiple of
    CHEB_TOL.  ValueError: non-finite t, psi not of shape (H.dim,), a
    matrix outside the bound's premises (H.index_map.check), or index
    arrays that are not int32 (_csr_matvec_add); ArithmeticError: cut-off
    not found.
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (H.dim,):
        raise ValueError("state dimension mismatch")
    m, cls = H.matrix, H.index_map.classes
    H.index_map.check(m)
    on_a = cls == 0
    c = _chebyshev_coefficients(SPECTRAL_RADIUS_BOUND * t)
    # K = D (2H/s) by rows; each edge joins opposite classes, so the row
    # sign is minus the column sign
    signed = m.data * (1.0 - 2.0 * cls)[m.indices] * (-2.0 / SPECTRAL_RADIUS_BOUND)

    def propagate(v):
        if not v.any():
            return v
        x = c[0] * v
        a, b = v, np.zeros(H.dim)  # s_0 and s_1, overwritten in turn
        kernel = _csr_matvec_add(m.indptr, m.indices, signed, a, b)
        kernel(a, b)
        b *= 0.5
        daxpy(b, x, a=c[1])
        for ck in c[2:].tolist():
            kernel(b, a)  # a: s_{k-2} -> s_k
            a, b = b, a
            daxpy(b, x, a=ck)
        return x

    x1 = propagate(np.where(on_a, psi.real, psi.imag))
    x2 = propagate(np.where(on_a, psi.imag, -psi.real))
    out = np.empty(H.dim, dtype=complex)
    out.real = np.where(on_a, x1, -x2)
    out.imag = np.where(on_a, x2, x1)
    return out


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one decision run.

    L is the packet length (an even integer >= 4), M the half-runway
    length (an integer >= 3L so nothing reaches the walls by measurement
    time), t_run the finite evolution time (L/2 by default).
    """

    gamma: float
    L: int
    M: int
    t_run: float

    def __post_init__(self):
        if not 1 <= self.gamma < math.inf:
            raise ValueError("gamma must be finite and >= 1")
        _check_int("L", self.L, 4)
        if self.L % 2:
            raise ValueError("L must be an even integer >= 4")
        _check_int("M (wall-insensitive margin 3 L)", self.M, 3 * self.L)
        if not math.isfinite(self.t_run):
            raise ValueError("t_run must be finite")

    @classmethod
    def for_tree(cls, n_leaves: int, gamma: float = 16.0, m_factor: int = 3) -> "RunConfig":
        """Derive L = gamma sqrt(N) (even, >= 4), M = m_factor L, t = L/2."""
        if not math.isfinite(gamma):
            raise ValueError(f"gamma must be finite, got {gamma}")
        L = int(round(gamma * math.sqrt(n_leaves)))
        L = max(L + L % 2, 4)
        return cls(gamma=gamma, L=L, M=m_factor * L, t_run=L / 2.0)


@dataclass(frozen=True)
class Verdict:
    """Outcome of one run: the decision bit, the measured right-side
    probability, the analytic transmission probability at band center, the
    configuration echo, and what the propagation did: `stats` holds
    cheb_terms (Chebyshev terms computed), nnz (stored matrix entries each
    term reads, the same for every tree of one N and M) and norm_drift
    (|norm - 1| of the evolved state)."""

    decision: int
    p_right: float
    analytic_T0_sq: float
    config: dict
    stats: dict


def run_algorithm(tree: TreeInput, config: RunConfig) -> Verdict:
    """Build the graph, launch the packet, evolve for t_run, measure.

    The verdict carries |T(0)|^2 in {0, 1} from the symbolic recursion for
    comparison with the measured probability.
    """
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
    # initial_packet needs one real recurrence: one term per coefficient
    terms = _chebyshev_coefficients(SPECTRAL_RADIUS_BOUND * config.t_run).size
    return Verdict(decision=decision, p_right=p, analytic_T0_sq=t0_sq, config=echo,
                   stats={"cheb_terms": terms, "nnz": H.matrix.nnz, "norm_drift": drift})
