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
from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import ConvergenceError, GridAsymmetryError, NaNGuard

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


def coordinate_map_y(dist: MassDistribution, gamma: float, x):
    """y(x) = integral_0^x m(t)^(gamma/2) dt, strictly increasing.

    Uses the closed form x + (alpha - 1) arctan(x) when k*gamma/2 = 1,
    adaptive quadrature otherwise (one integral per point). x may be a
    scalar (float result, math.atan) or an array (array result, np.arctan).
    """
    if np.ndim(x):
        xs = np.asarray(x, dtype=float)
        if _closed_form_map(dist, gamma):
            return xs + (dist.alpha - 1.0) * np.arctan(xs)
        return np.array([coordinate_map_y(dist, gamma, xi) for xi in xs.flat]).reshape(xs.shape)
    if _closed_form_map(dist, gamma):
        return float(x + (dist.alpha - 1.0) * math.atan(x))
    val, _ = quad(lambda t: mass_eval(dist, t) ** (gamma / 2.0), 0.0, x, limit=200)
    return float(val)


def coordinate_map_x(dist: MassDistribution, gamma: float, y: float,
                     tol: float = 1e-13, max_expand: int = 200) -> float:
    """Inverse of coordinate_map_y by safeguarded bracketing."""
    f = lambda x: coordinate_map_y(dist, gamma, x) - y
    lo, hi = -1.0, 1.0
    for _ in range(max_expand):
        if f(lo) <= 0.0 <= f(hi):
            break
        lo *= 2.0
        hi *= 2.0
    else:
        raise ConvergenceError(f"coordinate_map_x: could not bracket y = {y}")
    try:
        x = brentq(f, lo, hi, xtol=tol, rtol=8.9e-16, maxiter=200)
    except RuntimeError as exc:  # pragma: no cover - pathological inputs
        raise ConvergenceError(str(exc)) from exc
    return float(x)


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
