"""Symmetric rational mass family, coordinate map, grids and PT diagnostics.

The mass profile is m(x) = ((alpha + x^2)/(1 + x^2))^k with alpha > 0 and
k > 0. It is even, strictly positive, equals alpha^k at the origin and tends
to 1 at infinity. All three mass profiles used by the analytic constructions
are members of this family (k = 2, k = 4, and k = 2/gamma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, GridAsymmetryError, NaNGuard

__all__ = [
    "MassDistribution",
    "GridSpec",
    "SampledFunction",
    "mass_eval",
    "mass_log_derivs",
    "coordinate_map_y",
    "coordinate_map_x",
    "pt_defect",
]


@dataclass(frozen=True)
class MassDistribution:
    """m(x) = ((alpha + x^2)/(1 + x^2))^exponent_k."""

    alpha: float
    exponent_k: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not self.exponent_k > 0:
            raise ValueError(f"exponent_k must be > 0, got {self.exponent_k}")


def mass_eval(dist: MassDistribution, x):
    """Evaluate m(x); x may be a scalar or numpy array."""
    x = np.asarray(x, dtype=float)
    m = ((dist.alpha + x * x) / (1.0 + x * x)) ** dist.exponent_k
    return m if m.ndim else float(m)


def mass_log_derivs(dist: MassDistribution, x):
    """Closed-form (m'/m, m''/m) for the rational mass family.

    With D = (alpha + x^2)(1 + x^2):
        m'/m  = 2k(1-alpha) x / D
        m''/m = 2k(1-alpha) [alpha - (1+alpha)x^2 - 3x^4 + 2k(1-alpha)x^2] / D^2
    """
    a, k = dist.alpha, dist.exponent_k
    x = np.asarray(x, dtype=float)
    big_d = (a + x * x) * (1.0 + x * x)
    d1 = 2.0 * k * (1.0 - a) * x / big_d
    d2 = (
        2.0 * k * (1.0 - a)
        * (a - (1.0 + a) * x * x - 3.0 * x ** 4 + 2.0 * k * (1.0 - a) * x * x)
        / big_d ** 2
    )
    if d1.ndim:
        return d1, d2
    return float(d1), float(d2)


def _closed_form_map(dist: MassDistribution, gamma: float) -> bool:
    # m^(gamma/2) = (alpha + x^2)/(1 + x^2) exactly when k*gamma/2 = 1
    return abs(dist.exponent_k * gamma / 2.0 - 1.0) < 1e-12


# The quadrature map integrates over a lattice of panels [j*w, (j+1)*w] fixed
# at 0 (w from _panel_width), so a point's value does not depend on the other
# points mapped with it.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)
# at most 2^20 panels (a few MB per array): |x| <= 131072 when w = 1/8
_MAX_PANELS = 2 ** 20
# y is convex (alpha < 1) or concave (alpha > 1) on each half-line, so Newton
# kept in a bracket is monotone after its first step and the cap only bounds
# the run time; near-power-law maps (alpha = 1e-6, k gamma/2 = 8) took 80 steps
_NEWTON_MAX = 200


def _panel_width(dist: MassDistribution) -> float:
    """min(1/8, sqrt(alpha)/2).

    m^(gamma/2) is analytic except at +-i and +-i sqrt(alpha), so every
    singularity stays at least two widths from the real axis, where ten nodes
    reach rounding level; alpha = 1e-4 with panels of 1/8 erred by 4e-8.
    """
    return min(0.125, 0.5 * math.sqrt(dist.alpha))


def _panel_integrals(dist: MassDistribution, gamma: float, lo: np.ndarray,
                     width) -> np.ndarray:
    """Gauss-Legendre integral of m^(gamma/2) over each [lo, lo + width]."""
    half = 0.5 * width
    total = np.zeros_like(lo)
    # node by node, elementwise: each panel's sum is the same in every call
    for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
        total += weight * mass_eval(dist, lo + half * (1.0 + node)) ** (gamma / 2.0)
    return half * total


def coordinate_map_y(dist: MassDistribution, gamma: float, x):
    """y(x) = integral_0^x m(t)^(gamma/2) dt, strictly increasing and odd.

    Uses the closed form x + (alpha - 1) arctan(x) when k*gamma/2 = 1.
    Otherwise a 10-node Gauss-Legendre rule on the fixed panels
    [j w, (j+1) w], w = min(1/8, sqrt(alpha)/2), is summed cumulatively from 0
    up to the panel holding |x|, one more panel covers the rest of [0, |x|],
    and the sign of x is applied (Davis & Rabinowitz, Methods of Numerical
    Integration, ch. 2). A scalar call and an array call give bit-identical
    values and y(-x) = -y(x) exactly. x may be a scalar (float result) or an
    array (array result). Raises DomainError for |x| beyond 2^20 w on the
    quadrature path.
    """
    if _closed_form_map(dist, gamma):
        if np.ndim(x):
            xs = np.asarray(x, dtype=float)
            return xs + (dist.alpha - 1.0) * np.arctan(xs)
        return float(x + (dist.alpha - 1.0) * math.atan(x))
    xs = np.asarray(x, dtype=float)
    a = np.abs(xs).ravel()
    width = _panel_width(dist)
    panel = np.floor(a / width)
    n = panel.max(initial=0.0)
    if not n <= _MAX_PANELS:
        raise DomainError(f"coordinate_map_y: |x| = {a.max()} outside the quadrature "
                          f"lattice |x| <= {_MAX_PANELS * width}")
    lattice = np.arange(int(n)) * width
    table = np.concatenate(([0.0], np.cumsum(_panel_integrals(dist, gamma, lattice, width))))
    lo = panel * width
    y = table[panel.astype(int)] + _panel_integrals(dist, gamma, lo, a - lo)
    y = np.copysign(y, xs.ravel()).reshape(xs.shape)
    return y if y.ndim else float(y)


def coordinate_map_x(dist: MassDistribution, gamma: float, y):
    """Inverse of coordinate_map_y; y may be a scalar or an array.

    Each |y| is bracketed between two nodes j w and (j+1) w of the panel
    lattice, where coordinate_map_y is tabulated, and started by linear
    interpolation.
    Newton steps with the exact derivative dy/dx = m^(gamma/2), kept inside
    the bracket, then converge quadratically; the sign of y is applied last.
    A scalar call and an array call give bit-identical values.
    Raises ConvergenceError if a step is still above 1e-10 |x| after a fixed
    number of steps, and DomainError for |y| beyond the map of |x| = 2^20 w.
    """
    ys = np.asarray(y, dtype=float)
    target = np.abs(ys).ravel()
    top = target.max(initial=0.0)
    if not np.isfinite(top):
        raise DomainError(f"coordinate_map_x: non-finite y = {top}")
    width = _panel_width(dist)
    n = 8
    while True:
        nodes = np.arange(n + 1) * width
        y_nodes = coordinate_map_y(dist, gamma, nodes)
        if y_nodes[-1] > top:
            break
        if n >= _MAX_PANELS:
            raise DomainError(f"coordinate_map_x: y = {top} outside the map of "
                              f"|x| <= {_MAX_PANELS * width}")
        n *= 2
    j = np.searchsorted(y_nodes, target, side="right") - 1
    lo, hi = nodes[j], nodes[j + 1]
    x = lo + width * (target - y_nodes[j]) / (y_nodes[j + 1] - y_nodes[j])
    done = np.zeros(x.shape, dtype=bool)
    for _ in range(_NEWTON_MAX):
        step = (coordinate_map_y(dist, gamma, x) - target) / mass_eval(dist, x) ** (gamma / 2.0)
        # a converged point stops moving, so its value does not depend on the others
        x = np.where(done, x, np.clip(x - step, lo, hi))
        # quadratic convergence: the error after a step of size s is O(s^2)
        done |= np.abs(step) <= 1e-10 * np.maximum(x, 1.0)
        if done.all():
            break
    else:
        raise ConvergenceError(f"coordinate_map_x: Newton did not converge for "
                               f"|y| = {target[~done].max()}")
    x = np.copysign(x, ys.ravel()).reshape(ys.shape)
    return x if x.ndim else float(x)


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [-L, L]; N odd is recommended so x = 0 is a node."""

    half_width_L: float
    num_points_N: int

    def __post_init__(self):
        if not self.half_width_L > 0:
            raise ValueError(f"half_width_L must be > 0, got {self.half_width_L}")
        if self.num_points_N < 3:
            raise ValueError(f"num_points_N must be >= 3, got {self.num_points_N}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width_L / (self.num_points_N - 1)

    @property
    def points(self) -> np.ndarray:
        # built to be exactly antisymmetric so parity/PT checks see no
        # floating-point grid skew (linspace does not guarantee this)
        n = self.num_points_N
        idx = np.arange(n) - (n - 1) / 2.0
        return idx * self.spacing

    def to_dict(self) -> dict:
        return {"L": self.half_width_L, "N": self.num_points_N}


@dataclass(frozen=True)
class SampledFunction:
    """Complex samples on a grid; immutable once constructed."""

    grid: GridSpec
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.num_points_N,):
            raise ValueError(
                f"values length {vals.shape} does not match grid N = {self.grid.num_points_N}"
            )
        if not np.all(np.isfinite(vals)):
            raise NaNGuard(f"non-finite samples in {self.label!r}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "grid": self.grid.to_dict(),
            "values": [[v.real, v.imag] for v in self.values],
        }


def sample(grid: GridSpec, fn, label: str = "") -> SampledFunction:
    """Sample a callable (vectorized or scalar) onto a grid."""
    x = grid.points
    try:
        vals = np.asarray(fn(x), dtype=complex)
        if vals.shape != x.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.array([complex(fn(xi)) for xi in x])
    return SampledFunction(grid, vals, label)


def pt_defect(f: SampledFunction) -> float:
    """max over the grid of |f*(-x) - f(x)|; ~0 iff the samples are PT-symmetric."""
    x = f.grid.points
    if np.max(np.abs(x + x[::-1])) > 1e-12 * max(1.0, f.grid.half_width_L):
        raise GridAsymmetryError("grid is not mirror-symmetric about 0")
    mirrored = np.conj(f.values[::-1])
    return float(np.max(np.abs(mirrored - f.values)))
