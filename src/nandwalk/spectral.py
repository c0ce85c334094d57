"""Momentum-spectrum diagnostics for the runway packet.

Writing theta = phi + pi/2 (so E = 2 sin phi), the packet splits into a
right-moving piece with coefficient A(phi) and an alternating piece with
coefficient B(phi):

    A(phi) = (1/sqrt(L)) (e^{iL phi} - 1) / (e^{i phi} - 1)
    B(phi) = (1/sqrt(L)) (1 - (-1)^L e^{-iL phi}) / (1 + e^{-i phi})

|A|^2 integrates to 1 over the band (Parseval), its tail beyond |phi| = eps
is below pi/(L eps), and |B|^2 < 1/(L cos^2(eps/2)) inside the window.
scattering.predict_p_right integrates A against the tree's transmission
amplitude to predict the measured right-side probability.
"""

from __future__ import annotations

import math

import numpy as np


def packet_spectrum(L: int, phi):
    """Closed-form A(phi), B(phi); both are 2 pi-periodic in phi.

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


_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def band_mass(L: int, lo: float, hi: float) -> float:
    """Integral of |A|^2 d phi / (2 pi) over [lo, hi].

    |A|^2 = sin^2(L phi / 2) / (L sin^2(phi / 2)) oscillates with period
    2 pi / L, so the range is split at the lobe boundaries and every lobe
    integrated with 16-point Gauss-Legendre at once.  Lobe boundaries
    include phi = 0 whenever it lies inside, so no node lands on it.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    if hi < lo:
        raise ValueError("empty integration range")
    if hi == lo:
        return 0.0
    lobe = 2.0 * np.pi / L
    k = np.arange(math.ceil(lo / lobe), math.floor(hi / lobe) + 1) * lobe
    cuts = np.concatenate(([lo], k[(lo < k) & (k < hi)], [hi]))
    half = (cuts[1:, None] - cuts[:-1, None]) / 2.0
    phi = (cuts[1:, None] + cuts[:-1, None]) / 2.0 + half * _GL_X
    f = np.sin(L * phi / 2.0) ** 2 / (L * np.sin(phi / 2.0) ** 2)
    return float(np.sum(half * _GL_W * f)) / (2.0 * np.pi)


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
