"""Momentum-spectrum diagnostics for the runway packet.

Writing theta = phi + pi/2 (so E = 2 sin phi), the packet splits into a
right-moving piece with coefficient A(phi) and an alternating piece with
coefficient B(phi):

    A(phi) = (1/sqrt(L)) (e^{iL phi} - 1) / (e^{i phi} - 1)
    B(phi) = (1/sqrt(L)) (1 - (-1)^L e^{-iL phi}) / (1 + e^{-i phi})

|A|^2 integrates to 1 over the band (Parseval), its tail beyond |phi| = eps
is below pi/(L eps), and |B|^2 < 1/(L cos^2(eps/2)) inside the window.
These closed forms plus the dense eigendecomposition of the finite graph
quantify how much of the packet actually lives in the energy window where
the transmission amplitude is pinned near its band-center value.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad


def packet_spectrum(L: int, phi):
    """Closed-form A(phi), B(phi) for phi in [-pi, pi].

    The removable singularities (phi = 0 for A, |phi| = pi for B) are
    filled with their limits, A(0) = sqrt(L) and B(+-pi) = sqrt(L).
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    phi_in = np.asarray(phi, dtype=float)
    scalar = phi_in.ndim == 0
    ph = np.atleast_1d(phi_in).astype(float)
    root_l = math.sqrt(L)

    den_a = np.exp(1j * ph) - 1.0
    den_b = 1.0 + np.exp(-1j * ph)
    ok_a = np.abs(den_a) > 1e-12
    ok_b = np.abs(den_b) > 1e-12
    A = np.full(ph.shape, root_l, dtype=complex)
    B = np.full(ph.shape, root_l, dtype=complex)
    A[ok_a] = (np.exp(1j * L * ph[ok_a]) - 1.0) / den_a[ok_a] / root_l
    B[ok_b] = (1.0 - (-1.0) ** L * np.exp(-1j * L * ph[ok_b])) / den_b[ok_b] / root_l
    if scalar:
        return complex(A[0]), complex(B[0])
    return A, B


def _abs_a_squared(phi: float, L: int) -> float:
    # |A|^2 = sin^2(L phi / 2) / (L sin^2(phi / 2)), limit L at phi = 0
    s = math.sin(phi / 2.0)
    if s == 0.0:
        return float(L)
    return math.sin(L * phi / 2.0) ** 2 / (L * s * s)


def band_mass(L: int, lo: float, hi: float) -> float:
    """Integral of |A|^2 d phi / (2 pi) over [lo, hi].

    The integrand oscillates with period 2 pi / L, so the range is split
    at the lobe boundaries and each lobe integrated adaptively.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    if hi < lo:
        raise ValueError("empty integration range")
    lobe = 2.0 * np.pi / L
    k_lo = math.ceil(lo / lobe)
    k_hi = math.floor(hi / lobe)
    cuts = [lo] + [k * lobe for k in range(k_lo, k_hi + 1) if lo < k * lobe < hi] + [hi]
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        val, _ = quad(_abs_a_squared, a, b, args=(L,), epsabs=1e-13, epsrel=1e-12, limit=200)
        total += val
    return total / (2.0 * np.pi)


def parseval_total(L: int) -> float:
    """Integral of |A|^2 over the whole band; equals 1 up to quadrature error."""
    return band_mass(L, -np.pi, np.pi)


def tail_mass(L: int, eps: float) -> float:
    """Packet weight outside the window |phi| < eps; always below pi/(L eps)."""
    if not 0.0 < eps < np.pi:
        raise ValueError("eps must lie in (0, pi)")
    tail = band_mass(L, eps, np.pi) + band_mass(L, -np.pi, -eps)
    bound = np.pi / (L * eps)
    if tail >= bound:
        raise RuntimeError(
            f"tail mass {tail} violates its analytic bound {bound} (L={L}, eps={eps})"
        )
    return tail


def window_weight(eig, psi0: np.ndarray, eps: float) -> float:
    """Packet weight on eigenstates with |energy| < 2 sin(eps).

    `eig` is the (eigenvalues, eigenvectors) pair of the full finite graph.
    eps >= pi/2 means the whole propagating band |E| < 2.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    w, V = eig
    threshold = 2.0 * math.sin(min(eps, math.pi / 2.0))
    overlaps = V.conj().T @ psi0
    mask = np.abs(w) < threshold
    return float(np.sum(np.abs(overlaps[mask]) ** 2))


def error_budget(L: float, eps: float, D: float) -> float:
    """Composite accuracy scale max(1/sqrt(L eps), D sqrt(eps/L), (eps/L)^(1/4)).

    With eps = 1/(16 sqrt(N)), D = 8 sqrt(N) and L = gamma sqrt(N) all
    three terms are Theta(1/sqrt(gamma)), independent of N.
    """
    if L <= 0 or eps <= 0 or D <= 0:
        raise ValueError("all arguments must be positive")
    return max(1.0 / math.sqrt(L * eps), D * math.sqrt(eps / L), (eps / L) ** 0.25)


def dispersion_smallness(L: float, eps: float) -> float:
    """L eps^3: the product that must stay well below 1 for the packet to
    translate without cubic-dispersion distortion over the run time."""
    return L * eps ** 3
