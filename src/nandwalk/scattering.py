"""Scattering analysis of the tree attached to the runway.

An energy eigenstate at E = -2 cos(theta) carries, on every tree edge, the
ratio Y(E) of the amplitude above the edge to the amplitude below it.
Working upward from the leaves,

    leaf with pendant node:  Y = E / (1 - E^2)
    bare leaf:               Y = -1 / E
    internal node:           Y = -1 / (E + Y' + Y'')

and the value y(E) on the root-to-runway edge fixes the transmission
amplitude

    T(E) = 2 i sin(theta) / (2 i sin(theta) + y(E)),    R = T - 1.

As E -> 0+ the recursion degenerates to {0, -infinity} and is exactly a
NAND gate (0 <-> logical 1, pole <-> logical 0), so T(0) is 1 when the
tree evaluates to 1 and 0 when it evaluates to 0.  Y is stored as a
projective (num, den) pair so poles are ordinary data and the recursion
never divides by zero.  The fold is total: two pole children give
Y = -1/(E + infinity) = 0 at every E, E = 0 included (dY/dE > 0 between
poles, so a subtree's residues share one sign and never cancel).  Only
(0, 0) is no projective value: a ValueError in combine_y and transmission.

Subtrees that are equal up to swapping children have equal Y, so y_bottom
folds once per subtree type: a table labels the leaves by bit and each
level's nodes by the unordered pair (min, max) of their children's labels.
With K types at height h - 1, height h holds at most min(N / 2^h,
K(K + 1)/2) types: 2 + 3 + 6 + 21 + 64 + 32 + ... + 1 = 159 of the 2,047
nodes at N = 1024 (129-149 on 80 random trees, half of them with
P(bit = 1) = 0.618), and at most 2 per level on the adversarial trees of
hard_instance.  combine_y is bitwise symmetric in its two arguments, so
every value is bitwise that of the fold over all nodes.

For 0 < E < 1/(16 sqrt(N)) the root value is still readable from y(E):

    value 0 (reflect):   |y| > 1/(4 sqrt(N) E),   |T|     < 8 sqrt(N) E
    value 1 (transmit):  |y| < 4 sqrt(N) E,       |T - 1| < 3 sqrt(N) E

scan_bounds checks these inequalities pointwise over an energy grid.

predict_p_right integrates the packet over the scattering states of the
infinite runway and returns the right-side probability at the run time,
its t -> infinity limit, and the packet weight on bound states outside the
band, which the integral leaves out.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .nand_core import TreeInput, _check_int, eval_nand
from .spectral import packet_spectrum


@dataclass(frozen=True, eq=False)
class ProjectiveValue:
    """Y = num / den with poles represented as den = 0.

    Components may be scalars or equally shaped arrays (one Y per grid
    energy).  Combination steps renormalize to max(|num|, |den|) = 1.
    """

    num: object
    den: object

    @property
    def ratio(self):
        """Y as a float, +/-inf at poles."""
        with np.errstate(divide="ignore"):
            return np.asarray(self.num) / np.asarray(self.den)


class SymbolicY(enum.Enum):
    """Limit of Y as E -> 0+: ZERO encodes logical 1, POLE logical 0."""

    ZERO = "zero"
    POLE = "pole"


def leaf_y(bit, E):
    """Y on a leaf edge: E/(1-E^2) with the pendant node, -1/E without.

    bit may be an array of leaf bits; it broadcasts against E.
    """
    E = np.asarray(E, dtype=float)
    one = np.asarray(bit) == 1
    return ProjectiveValue(num=np.where(one, E, -1.0), den=np.where(one, 1.0 - E * E, E))


def combine_y(y1: ProjectiveValue, y2: ProjectiveValue, E) -> ProjectiveValue:
    """One recursion step: Y = -1/(E + Y' + Y''), projectively.

    With Y' = p1/q1 and Y'' = p2/q2 this is
    (-q1 q2) / (E q1 q2 + (p1 q2 + p2 q1)), renormalized to
    max(|num|, |den|) = 1.  IEEE addition and multiplication commute, so
    this grouping is bitwise symmetric in y1 and y2, which the unordered
    type table of y_bottom relies on.  The fold is total: where both
    children are poles (q1 = q2 = 0, so the scale is 0) it returns
    (0, 1), Y = 0.  ValueError if either argument is (0, 0).
    """
    p1, q1, p2, q2 = (np.asarray(v, dtype=float) for v in (y1.num, y1.den, y2.num, y2.den))
    E = np.asarray(E, dtype=float)
    shape = np.broadcast_shapes(p1.shape, q1.shape, p2.shape, q2.shape, E.shape)
    qq, den, tmp, scale = (np.empty(shape) for _ in range(4))
    np.multiply(q1, q2, out=qq)
    np.multiply(p1, q2, out=den)
    np.multiply(p2, q1, out=tmp)
    den += tmp
    np.multiply(E, qq, out=tmp)
    den += tmp
    np.maximum(np.abs(qq, out=tmp), np.abs(den, out=scale), out=scale)
    if not scale.all():
        if np.any(((p1 == 0) & (q1 == 0)) | ((p2 == 0) & (q2 == 0))):
            raise ValueError("(0, 0) is not a projective value")
        poles = scale == 0  # two poles: Y = -1/(E + inf), made (0.0, 1.0) below
        qq[poles], den[poles], scale[poles] = -0.0, 1.0, 1.0
    # -(qq / scale) is bitwise (-qq) / scale
    np.negative(np.divide(qq, scale, out=qq), out=qq)
    den /= scale
    # [()] turns 0-d results back into scalars and leaves arrays as they are
    return ProjectiveValue(num=qq[()], den=den[()])


# Element budget of one y_bottom chunk: a chunk takes
# max(1, _Y_BOTTOM_BUDGET // widest level) energies, so its arrays stay
# cache-sized whatever the tree.  The fold is elementwise in E, so chunking
# leaves every value bitwise unchanged.  On the predict_scatter benchmark
# (N = 1024, 16,384 energies, widest level 43-64 types; 6 s runs pinned to
# one CPU of a 2-core Xeon VM with 2 MiB of L2 per core), budgets of
# 16K / 32K / 64K / 128K elements gave 25-26 / 29-38 / 29-35 / 28-29
# ops/s, against 15-16 for the ordered table with 256 energies per chunk.
_Y_BOTTOM_BUDGET = 65_536


def _subtree_types(bits):
    """Table of unordered subtree types, built upward from the leaves.

    Returns the distinct leaf bits and, per level, the arrays (a, b) with
    a <= b: type t of the level is the node whose children have the types
    a[t] and b[t] of the level below.
    """
    leaf_bits, label = np.unique(np.asarray(bits), return_inverse=True)
    levels, n_types = [], leaf_bits.size
    while label.size > 1:
        left, right = label[0::2], label[1::2]
        key = np.minimum(left, right) * n_types + np.maximum(left, right)
        types, label = np.unique(key, return_inverse=True)
        levels.append(divmod(types, n_types))
        n_types = types.size
    return leaf_bits, levels


def y_bottom(tree: TreeInput, E) -> ProjectiveValue:
    """Y on the root-to-runway edge, folded from all N leaves.

    E may be a scalar or a 1-d grid; the fold is vectorized over the grid,
    one chunk of energies at a time, and evaluates each level once per
    unordered subtree type.  Satisfies y(-E) = -y(E).
    """
    E_in = np.asarray(E, dtype=float)
    if E_in.ndim > 1:
        raise ValueError(f"E must be a scalar or a 1-d grid, got shape {E_in.shape}")
    Ev = np.atleast_1d(E_in)
    leaf_bits, levels = _subtree_types(tree.bits)
    widest = max([leaf_bits.size] + [a.size for a, _ in levels])
    step = max(1, _Y_BOTTOM_BUDGET // widest)
    num, den = np.empty(Ev.shape), np.empty(Ev.shape)
    for lo in range(0, Ev.size, step):
        Ec = Ev[lo:lo + step]
        y = leaf_y(leaf_bits[:, None], Ec)
        for a, b in levels:
            y = combine_y(ProjectiveValue(y.num[a], y.den[a]),
                          ProjectiveValue(y.num[b], y.den[b]), Ec)
        num[lo:lo + step], den[lo:lo + step] = y.num[0], y.den[0]
    if E_in.ndim == 0:
        return ProjectiveValue(num=float(num[0]), den=float(den[0]))
    return ProjectiveValue(num=num, den=den)


def y_at_zero(tree: TreeInput) -> SymbolicY:
    """Exact E -> 0+ limit of y_bottom, evaluated symbolically.

    The combination table is a NAND gate: the result is a pole exactly
    when both inputs are zeros.  The returned tag is ZERO iff the tree
    evaluates to 1.
    """
    tags = [SymbolicY.ZERO if b == 1 else SymbolicY.POLE for b in tree.bits]
    while len(tags) > 1:
        tags = [
            SymbolicY.POLE
            if (tags[2 * i] is SymbolicY.ZERO and tags[2 * i + 1] is SymbolicY.ZERO)
            else SymbolicY.ZERO
            for i in range(len(tags) // 2)
        ]
    return tags[0]


def transmission(E, y: ProjectiveValue):
    """Transmission and reflection amplitudes for |E| < 2; ValueError for
    any other E, NaN included.

    T = 2 i sin(theta) q / (2 i sin(theta) q + p) for y = p/q, which stays
    finite through poles of y; R = T - 1 always; ValueError for y = (0, 0).
    """
    E = np.asarray(E, dtype=float)
    if not np.all(np.abs(E) < 2.0):
        raise ValueError("|E| must be < 2 (propagating band)")
    sin_theta = np.sqrt(1.0 - E * E / 4.0)
    p = np.asarray(y.num)
    q = np.asarray(y.den)
    denom = 2j * sin_theta * q + p
    if np.any(denom == 0):
        raise ValueError("(0, 0) is not a projective value")
    T = 2j * sin_theta * q / denom
    return T, T - 1.0


# Midpoint momenta per half-runway site in predict_p_right.  Doubling it
# moved p(t) by at most 1.1e-4 (N = 16, gamma = 4) on random trees.
_GRID_PER_SITE = 64


def predict_p_right(tree: TreeInput, config):
    """Scattering prediction (p_t, p_inf, w) of a run's right-side probability.

    With E = -2 cos(theta), T and R from transmission, and the packet's
    coefficient c(theta) = A(theta - pi/2) on the plane wave e^{i theta r},
    one packet_spectrum call at theta - pi/2 gives c(theta) as A and
    c(-theta) = A(-theta - pi/2) as B(theta - pi/2).  The packet's overlaps
    with the left- and right-incoming scattering states are
    alpha = c(theta) + conj(R) c(-theta) and beta = conj(T) c(-theta), and
    on sites r >= 1

        psi(r, t) = int_0^pi dtheta/2pi e^{-iEt} (a e^{i theta r} + beta e^{-i theta r}),
        a = alpha T + beta R.

    p_t = sum over r = 1..M of |psi(r, t_run)|^2, p_inf = int |a|^2 dtheta/2pi,
    and w = 1 - int (|alpha|^2 + |beta|^2) dtheta/2pi is the weight on bound
    states, so |p_measured - p_t| <= 2 sqrt(p_t w) + w up to quadrature
    error.  config supplies L, M and t_run.  The integrals use G = 64 M
    midpoint momenta, and the sum over r is one length-2G FFT.
    """
    G = _GRID_PER_SITE * config.M
    theta = (np.arange(G) + 0.5) * (math.pi / G)
    E = -2.0 * np.cos(theta)
    T, R = transmission(E, y_bottom(tree, E))
    c_in, c_out = packet_spectrum(config.L, theta - math.pi / 2.0)
    alpha = c_in + R.conj() * c_out
    beta = T.conj() * c_out
    a = alpha * T + beta * R
    phase = np.exp(-1j * E * config.t_run)
    # momenta -theta (ascending) then theta: the 2G-point midpoint grid on
    # (-pi, pi), on which psi(r) is the inverse FFT up to a unit phase
    psi = np.fft.ifft(np.concatenate(((phase * beta)[::-1], phase * a)))
    p_t = float(np.sum(np.abs(psi[1:config.M + 1]) ** 2))
    p_inf = float(np.sum(np.abs(a) ** 2)) / (2 * G)
    w = 1.0 - float(np.sum(np.abs(alpha) ** 2 + np.abs(beta) ** 2)) / (2 * G)
    return p_t, p_inf, w


# ---------------------------------------------------------------------------
# Bound scan.
# ---------------------------------------------------------------------------


def energy_grid(n_leaves: int, points: int = 64) -> np.ndarray:
    """Log-spaced energies from 1e-8 to just below 1/(16 sqrt(N)), the validity window's edge.

    ValueError unless n_leaves and points are integers >= 1."""
    _check_int("n_leaves", n_leaves, 1)
    _check_int("points", points, 1)
    emax = 1.0 / (16.0 * math.sqrt(n_leaves))
    return np.geomspace(1e-8, emax * (1.0 - 1e-9), points)


CSV_COLUMNS = ("N", "instance_id", "E", "nand", "abs_y", "abs_T", "bound_y", "bound_T", "pass")


@dataclass
class BoundReport:
    """Pointwise reflect/transmit bound checks over an energy grid: one
    dict per energy, keyed by CSV_COLUMNS."""

    rows: list

    @property
    def all_pass(self) -> bool:
        return all(r["pass"] for r in self.rows)

    @property
    def violations(self) -> list:
        return [r for r in self.rows if not r["pass"]]


def scan_bounds(tree: TreeInput, grid, instance_id: int = 0) -> BoundReport:
    """Check the reflect/transmit inequalities at every grid energy.

    Reflecting (value 0) instances must satisfy |y| > 1/(4 sqrt(N) E) and
    |T| < 8 sqrt(N) E; transmitting (value 1) instances |y| < 4 sqrt(N) E
    and |T - 1| < 3 sqrt(N) E.  Every grid point must lie strictly inside
    (0, 1/(16 sqrt(N))), and the grid must be 1-d and not empty.  Moduli
    of T use hypot, which matches scalar abs() bit for bit; np.abs on a
    complex array need not.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1:
        raise ValueError(f"energy grid must be 1-d, got shape {grid.shape}")
    if grid.size == 0:
        raise ValueError("energy grid is empty")
    N = tree.n_leaves
    root_n = math.sqrt(N)
    emax = 1.0 / (16.0 * root_n)
    if not np.all((grid > 0.0) & (grid < emax)):
        raise ValueError(f"grid energies must lie in (0, {emax})")
    nand = eval_nand(tree)
    y = y_bottom(tree, grid)
    abs_y = np.abs(y.ratio)
    T, _ = transmission(grid, y)
    abs_T = np.hypot(T.real, T.imag)
    if nand == 0:
        bound_y = 1.0 / (4.0 * root_n * grid)
        bound_T = 8.0 * root_n * grid
        ok = (abs_y > bound_y) & (abs_T < bound_T)
    else:
        bound_y = 4.0 * root_n * grid
        bound_T = 3.0 * root_n * grid
        ok = (abs_y < bound_y) & (np.hypot(T.real - 1.0, T.imag) < bound_T)
    columns = (grid, abs_y, abs_T, bound_y, bound_T, ok)
    return BoundReport(rows=[
        dict(zip(CSV_COLUMNS, (N, instance_id, E, nand, *rest)))
        for E, *rest in zip(*(c.tolist() for c in columns))
    ])
