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
never divides by zero.

Equal ordered subtrees have equal Y, so y_bottom folds once per subtree
type: a table labels the leaves by bit and each level's nodes by the
ordered pair of their children's labels.  Height h holds at most
min(N / 2^h, 2^(2^h)) types, 2 + 4 + 16 + 128 + 64 + ... + 1 = 277 of the
2,047 nodes at N = 1024, and pairs keep their order, so every value is
bitwise that of the fold over all nodes.

For 0 < E < 1/(16 sqrt(N)) the root value is still readable from y(E):

    value 0 (reflect):   |y| > 1/(4 sqrt(N) E),   |T|     < 8 sqrt(N) E
    value 1 (transmit):  |y| < 4 sqrt(N) E,       |T - 1| < 3 sqrt(N) E

scan_bounds checks these inequalities pointwise over an energy grid.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .nand_core import TreeInput, eval_nand


class DegenerateRecursionError(ArithmeticError):
    """Both projective components vanished (exact double-pole cancellation)."""


@dataclass(frozen=True, eq=False)
class ProjectiveValue:
    """Y = num / den with poles represented as den = 0.

    Components may be scalars or equally shaped arrays (one Y per grid
    energy).  Combination steps renormalize to max(|num|, |den|) = 1.
    """

    num: object
    den: object

    @property
    def magnitude(self):
        """|Y|, with +inf at poles."""
        with np.errstate(divide="ignore"):
            return np.abs(np.asarray(self.num)) / np.abs(np.asarray(self.den))

    @property
    def ratio(self):
        """Y as a float, +/-inf at poles."""
        with np.errstate(divide="ignore"):
            return np.asarray(self.num) / np.asarray(self.den)

    def is_pole(self):
        return np.asarray(self.den) == 0


class SymbolicY(enum.Enum):
    """Limit of Y as E -> 0+: ZERO encodes logical 1, POLE logical 0."""

    ZERO = "zero"
    POLE = "pole"


def _renormalized(num, den):
    scale = np.maximum(np.abs(num), np.abs(den))
    if np.any(scale == 0.0):
        raise DegenerateRecursionError("projective recursion produced (0, 0)")
    return ProjectiveValue(num=num / scale, den=den / scale)


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
    (-q1 q2) / (E q1 q2 + p1 q2 + p2 q1), renormalized.
    """
    E = np.asarray(E, dtype=float)
    qq = np.asarray(y1.den) * np.asarray(y2.den)
    num = -qq
    den = E * qq + np.asarray(y1.num) * np.asarray(y2.den) + np.asarray(y2.num) * np.asarray(y1.den)
    return _renormalized(num, den)


# Energies per chunk of the y_bottom fold.  The fold is elementwise in E,
# so chunking leaves every value bitwise unchanged and bounds the working
# set at (subtree types) x Y_BOTTOM_CHUNK.  At N = 1024 on a 16,384-point
# grid (one CPU) the type-table fold takes ~0.07 s, against 0.32 s for the
# fold over all 2,047 nodes; chunks of 256 to 2,048 ran within noise.
Y_BOTTOM_CHUNK = 256


def y_bottom(tree: TreeInput, E) -> ProjectiveValue:
    """Y on the root-to-runway edge, folded from all N leaves.

    E may be a scalar or a 1-d grid; the fold is vectorized over the grid,
    Y_BOTTOM_CHUNK energies at a time.  Satisfies y(-E) = -y(E).
    """
    E_in = np.asarray(E, dtype=float)
    if E_in.ndim > 1:
        raise ValueError(f"E must be a scalar or a 1-d grid, got shape {E_in.shape}")
    Ev = np.atleast_1d(E_in)
    leaf_bits, label = np.unique(np.asarray(tree.bits), return_inverse=True)
    levels, n_types = [], leaf_bits.size
    while label.size > 1:
        types, label = np.unique(label[0::2] * n_types + label[1::2], return_inverse=True)
        levels.append(divmod(types, n_types))
        n_types = types.size
    num, den = np.empty(Ev.shape), np.empty(Ev.shape)
    for lo in range(0, Ev.size, Y_BOTTOM_CHUNK):
        Ec = Ev[lo:lo + Y_BOTTOM_CHUNK]
        y = leaf_y(leaf_bits[:, None], Ec)
        for left, right in levels:
            y = combine_y(ProjectiveValue(y.num[left], y.den[left]),
                          ProjectiveValue(y.num[right], y.den[right]), Ec)
        num[lo:lo + Y_BOTTOM_CHUNK], den[lo:lo + Y_BOTTOM_CHUNK] = y.num[0], y.den[0]
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
    """Transmission and reflection amplitudes for |E| < 2.

    T = 2 i sin(theta) q / (2 i sin(theta) q + p) for y = p/q, which stays
    finite through poles of y; R = T - 1 always.
    """
    E = np.asarray(E, dtype=float)
    if np.any(np.abs(E) >= 2.0):
        raise ValueError("|E| must be < 2 (propagating band)")
    sin_theta = np.sqrt(1.0 - E * E / 4.0)
    p = np.asarray(y.num)
    q = np.asarray(y.den)
    denom = 2j * sin_theta * q + p
    if np.any(denom == 0):
        raise ArithmeticError("transmission denominator vanished for real y")
    T = 2j * sin_theta * q / denom
    return T, T - 1.0


@dataclass(frozen=True)
class ScatteringPoint:
    """y, T and R at one energy, with theta = arccos(-E/2)."""

    E: float
    theta: float
    y: ProjectiveValue
    T: complex
    R: complex


def scattering_point(tree: TreeInput, E: float) -> ScatteringPoint:
    y = y_bottom(tree, float(E))
    T, R = transmission(float(E), y)
    return ScatteringPoint(
        E=float(E), theta=math.acos(-E / 2.0), y=y, T=complex(T), R=complex(R)
    )


# ---------------------------------------------------------------------------
# Bound scan.
# ---------------------------------------------------------------------------


def energy_grid(n_leaves: int, points: int = 64, emin: float = 1e-8) -> np.ndarray:
    """Log-spaced energies inside the validity window (0, 1/(16 sqrt(N)))."""
    emax = 1.0 / (16.0 * math.sqrt(n_leaves))
    if not 0.0 < emin < emax:
        raise ValueError(f"emin must lie in (0, {emax})")
    return np.geomspace(emin, emax * (1.0 - 1e-9), points)


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
    (0, 1/(16 sqrt(N))), and the grid must not be empty.  Moduli of T use
    hypot, which matches scalar abs() bit for bit; np.abs on a complex
    array need not.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("energy grid is empty")
    N = tree.n_leaves
    root_n = math.sqrt(N)
    emax = 1.0 / (16.0 * root_n)
    if not np.all((grid > 0.0) & (grid < emax)):
        raise ValueError(f"grid energies must lie in (0, {emax})")
    nand = eval_nand(tree)
    y = y_bottom(tree, grid)
    abs_y = y.magnitude
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
