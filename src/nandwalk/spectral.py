"""Momentum spectrum of the runway packet, on one Dirichlet kernel.

Writing theta = phi + pi/2 (so E = 2 sin phi), the packet splits into a
right-moving piece with coefficient A(phi) = D(phi) and an alternating
piece with coefficient B(phi) = conj(D(phi + pi)), where
D(x) = (1/sqrt(L)) sum_{r<L} e^{irx}.  |A|^2 is the Fejer kernel
1 + 2 sum_{k=1}^{L-1} (1 - k/L) cos(k phi), whose integral over any range
has a closed form: 1 over the band (Parseval), below pi/(L eps) beyond
|phi| = eps.  Inside that window |B|^2 < 1/(L cos^2(eps/2)).
scattering.predict_p_right takes the packet's coefficients on e^{+-i theta r}
from one packet_spectrum call: A(theta - pi/2), and
B(theta - pi/2) = A(-theta - pi/2).
"""

from __future__ import annotations

import math

import numpy as np

from .nand_core import _check_int


def _dirichlet(L: int, x):
    """D(x) = (e^{iLx} - 1) / (e^{ix} - 1) / sqrt(L), and sqrt(L) where e^{ix} = 1."""
    den = np.exp(1j * x) - 1.0
    ok = np.abs(den) > 1e-12
    root_l = math.sqrt(L)
    # [()] turns a 0-d result into a scalar (np.complex128 is a complex)
    return np.where(ok, (np.exp(1j * L * x) - 1.0) / np.where(ok, den, 1.0) / root_l, root_l)[()]


def packet_spectrum(L: int, phi):
    """Closed-form A(phi), B(phi); both are 2 pi-periodic in phi.

    The removable singularities (phi = 0 for A, |phi| = pi for B) are
    filled with their limits, A(0) = sqrt(L) and B(+-pi) = sqrt(L).
    """
    _check_int("packet length L", L, 1)
    phi = np.asarray(phi, dtype=float)
    return _dirichlet(L, phi), np.conj(_dirichlet(L, phi + np.pi))


def band_mass(L: int, lo: float, hi: float) -> float:
    """Integral of |A|^2 d phi / (2 pi) over [lo, hi], in closed form.

    Integrating the Fejer series term by term gives
    (hi - lo + 2 sum_{k=1}^{L-1} (1 - k/L)(sin k hi - sin k lo)/k) / (2 pi).
    """
    _check_int("packet length L", L, 1)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"integration bounds must be finite, got [{lo}, {hi}]")
    if hi < lo:
        raise ValueError("empty integration range")
    k = np.arange(1, L)
    series = np.sum((1.0 - k / L) * (np.sin(k * hi) - np.sin(k * lo)) / k)
    return float(hi - lo + 2.0 * series) / (2.0 * np.pi)


def parseval_total(L: int) -> float:
    """Integral of |A|^2 over the whole band; equals 1 up to rounding."""
    return band_mass(L, -np.pi, np.pi)


def tail_mass(L: int, eps: float) -> float:
    """Packet weight outside |phi| < eps: below pi/(L eps), else ArithmeticError."""
    if not 0.0 < eps < np.pi:
        raise ValueError("eps must lie in (0, pi)")
    tail = band_mass(L, eps, np.pi) + band_mass(L, -np.pi, -eps)
    bound = np.pi / (L * eps)
    if tail >= bound:
        raise ArithmeticError(
            f"tail mass {tail} violates its analytic bound {bound} (L={L}, eps={eps})"
        )
    return tail
