"""Point canonical transformation between PDM problems and reference problems.

With m the mass profile, beta the wavefunction exponent (Psi = m^beta phi)
and y the stretched coordinate (dy/dx = m^(gamma/2)), the PDM Schroedinger
equation maps onto a constant-mass equation in y with profile

    Omega(y) = -f (beta/2) m^-gamma [(beta-2)(m'/m)^2 + m''/m]
               + (V - E) m^(1-gamma) + E,

where f = 1 under the HALF convention and f = 2 under UNIT (the kinetic
factor enters the derivative terms only). Case A is the gamma = 0, beta = 1/2
member (identity coordinate); Case B takes beta = (2-gamma)/4, the unique
choice removing the first-derivative term. The inverse map solves the same
relation for V and is exact by construction, which the round-trip tests
certify.

Every target potential depends on the energy of the level it transports, so a
TargetProblem packages one (V, E_n, Psi_n) triple rather than pretending one
potential hosts the whole tower.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .conventions import SpectrumConvention
from .mass_models import (
    GridSpec,
    MassDistribution,
    SampledFunction,
    coordinate_map_x,
    coordinate_map_y,
    mass_eval,
    mass_log_derivs,
)
from .reference_potentials import (
    BranchSelection,
    GenOscillator,
    ScarfII,
    SCARF_FORMULA_CORRECTED,
    omega_oscillator,
    omega_scarf,
    oscillator_energy,
    oscillator_wavefunction,
    scarf_energy,
    scarf_wavefunction,
)

__all__ = [
    "CaseA",
    "CaseB",
    "PCTScheme",
    "TargetProblem",
    "forward_omega",
    "inverse_potential",
    "assemble_psi",
    "matching_check",
    "build_target_problem",
]


@dataclass(frozen=True)
class CaseA:
    """beta = 1/2, identity coordinate map."""

    mass: MassDistribution

    @property
    def beta(self) -> float:
        return 0.5

    @property
    def gamma(self) -> float:
        return 0.0

    def y_of_x(self, x):
        return np.asarray(x, dtype=float) if np.ndim(x) else float(x)

    def x_of_y(self, y):
        return np.asarray(y, dtype=float) if np.ndim(y) else float(y)


@dataclass(frozen=True)
class CaseB:
    """beta = (2-gamma)/4 with coordinate map dy/dx = m^(gamma/2)."""

    gamma: float
    mass: MassDistribution

    def __post_init__(self):
        if self.gamma == 0:
            raise ValueError("CaseB requires gamma != 0 (use CaseA instead)")

    @property
    def beta(self) -> float:
        return (2.0 - self.gamma) / 4.0

    def y_of_x(self, x):
        return coordinate_map_y(self.mass, self.gamma, x)

    def x_of_y(self, y):
        return coordinate_map_x(self.mass, self.gamma, y)


PCTScheme = Union[CaseA, CaseB]


def _derivative_term(scheme: PCTScheme, x, conv: SpectrumConvention):
    """f*(beta/2)*[(beta-2)(m'/m)^2 + m''/m] evaluated at x."""
    beta = scheme.beta
    d1, d2 = mass_log_derivs(scheme.mass, x)
    f = 2.0 * conv.kinetic_factor
    return f * (beta / 2.0) * ((beta - 2.0) * d1 * d1 + d2)


def _as_callable(V) -> Callable:
    if isinstance(V, SampledFunction):
        from scipy.interpolate import CubicSpline

        spl_re = CubicSpline(V.grid.points, V.values.real)
        spl_im = CubicSpline(V.grid.points, V.values.imag)
        return lambda x: spl_re(x) + 1j * spl_im(x)
    return V


def forward_omega(scheme: PCTScheme, V, E: complex,
                  conv: SpectrumConvention = SpectrumConvention.UNIT,
                  grid: GridSpec = None) -> SampledFunction:
    """Map a target potential to its constant-mass profile Omega.

    V may be a SampledFunction on the x-grid or a callable V(x). For Case A
    the output lives on the same x-grid; for Case B it is produced on a
    uniform y-grid spanning [-y(L), y(L)] (callable V is evaluated exactly at
    x(y); a sampled V is spline-interpolated there).
    """
    if grid is None:
        if not isinstance(V, SampledFunction):
            raise ValueError("forward_omega needs a grid when V is a callable")
        grid = V.grid
    vf = _as_callable(V)
    gamma = scheme.gamma
    if isinstance(scheme, CaseA):
        x = grid.points
        out_grid = grid
    else:
        y_max = scheme.y_of_x(grid.half_width_L)
        out_grid = GridSpec(y_max, grid.num_points_N)
        x = scheme.x_of_y(out_grid.points)
    m = mass_eval(scheme.mass, x)
    omega = (
        -_derivative_term(scheme, x, conv) * m ** (-gamma)
        + (np.asarray(vf(x), dtype=complex) - E) * m ** (1.0 - gamma)
        + E
    )
    return SampledFunction(out_grid, omega, label="omega")


def inverse_potential(scheme: PCTScheme, omega: Callable, E: complex, x,
                      conv: SpectrumConvention = SpectrumConvention.UNIT):
    """Target potential V(x) transporting the reference profile omega(y).

    Exact algebraic inverse of forward_omega:
        V = E + m^(gamma-1) (omega(y(x)) - E)
              + f (beta/2) (1/m) [(beta-2)(m'/m)^2 + m''/m]
    """
    gamma = scheme.gamma
    xs = np.asarray(x, dtype=float)
    m = mass_eval(scheme.mass, xs)
    y = scheme.y_of_x(xs)
    out = (
        E
        + m ** (gamma - 1.0) * (np.asarray(omega(y), dtype=complex) - E)
        + _derivative_term(scheme, xs, conv) / m
    )
    out = np.asarray(out, dtype=complex)
    return out if out.ndim else complex(out)


def assemble_psi(scheme: PCTScheme, phi: Callable, x):
    """Psi(x) = m(x)^beta * phi(y(x))."""
    xs = np.asarray(x, dtype=float)
    m = mass_eval(scheme.mass, xs)
    out = m ** scheme.beta * np.asarray(phi(scheme.y_of_x(xs)), dtype=complex)
    return out if out.ndim else complex(out)


def matching_check(psi: SampledFunction, mass: SampledFunction, x0: float) -> float:
    """Jump of (Psi'/m) across x0 from one-sided differences; ~0 for smooth data."""
    x = psi.grid.points
    h = psi.grid.spacing
    j = int(np.argmin(np.abs(x - x0)))
    if j < 1 or j > len(x) - 2:
        raise ValueError(f"x0 = {x0} is not interior to the grid")
    m = mass.values.real
    right = (psi.values[j + 1] - psi.values[j]) / h / (0.5 * (m[j + 1] + m[j]))
    left = (psi.values[j] - psi.values[j - 1]) / h / (0.5 * (m[j] + m[j - 1]))
    return float(abs(right - left))


@dataclass(frozen=True)
class TargetProblem:
    """One transported level: potential, energy and assembled eigenfunction."""

    scheme: PCTScheme
    reference: Union[ScarfII, GenOscillator]
    branch: BranchSelection
    n: int
    energy: complex
    convention: SpectrumConvention
    potential: SampledFunction
    psi: SampledFunction


def _reference_omega(reference) -> Callable:
    if isinstance(reference, ScarfII):
        return lambda y: omega_scarf(reference, y)
    return lambda y: omega_oscillator(reference, y)


def build_target_problem(scheme: PCTScheme, reference, sel: BranchSelection,
                         n: int, conv: SpectrumConvention, grid: GridSpec,
                         scarf_formula: str = SCARF_FORMULA_CORRECTED) -> TargetProblem:
    """Transport level n of the reference problem to a PDM target problem."""
    if isinstance(reference, ScarfII):
        level = scarf_energy(reference, sel, n, conv, formula=scarf_formula)
        phi = lambda y: scarf_wavefunction(reference, sel, n, y)
    else:
        level = oscillator_energy(reference, n, conv)
        phi = lambda y: oscillator_wavefunction(reference, n, y)
    omega = _reference_omega(reference)
    x = grid.points
    v_vals = inverse_potential(scheme, omega, level.energy, x, conv)
    psi_vals = assemble_psi(scheme, phi, x)
    return TargetProblem(
        scheme=scheme,
        reference=reference,
        branch=sel,
        n=n,
        energy=level.energy,
        convention=conv,
        potential=SampledFunction(grid, v_vals, label=f"V_target[n={n}]"),
        psi=SampledFunction(grid, psi_vals, label=f"psi[n={n}]"),
    )
