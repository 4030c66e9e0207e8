"""Constant-mass reference problems with closed-form spectra.

Two PT-symmetric profiles are provided:

* Scarf II:  Omega(y) = -lambda sech^2(y) - i mu sech(y) tanh(y)
* generalized harmonic oscillator:
             Omega(y) = (y - i eps)^2 + (g^2 - 1/4)/(y - i eps)^2

Scarf II carries two energy formulas behind a switch: the verbatim published
form -(n - p - 1)^2 and a symmetric corrected candidate
-(n + 1/2 - (sign_p t + sign_q s)/2)^2, which reads -(n + 1/2 - (s+t)/2)^2 on
the default branch. The finite-difference oracle referees which one is
shipped as the default (the corrected candidate wins; see the verify report).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .conventions import SpectrumConvention
from .errors import OutOfBoundStateRange, SingularityError
from .specfun import complex_pow, jacobi_poly, laguerre_poly

__all__ = [
    "ScarfII",
    "GenOscillator",
    "BranchSelection",
    "EnergyLevel",
    "omega_scarf",
    "omega_oscillator",
    "branch_params",
    "scarf_energy",
    "scarf_bound_count",
    "scarf_branch_sum",
    "scarf_branch_text",
    "oscillator_energy",
    "scarf_wavefunction",
    "oscillator_wavefunction",
]

SCARF_FORMULA_PUBLISHED = "published"
SCARF_FORMULA_CORRECTED = "corrected"


@dataclass(frozen=True)
class ScarfII:
    lambda_depth: float
    mu_strength: float


@dataclass(frozen=True)
class GenOscillator:
    g: float
    epsilon: float
    quasi_parity: int = +1

    def __post_init__(self):
        if self.g == 0:
            raise ValueError("g must be nonzero (quasi-parity towers coalesce at g = 0)")
        if self.quasi_parity not in (+1, -1):
            raise ValueError(f"quasi_parity must be +1 or -1, got {self.quasi_parity}")


@dataclass(frozen=True)
class BranchSelection:
    """Signs in p = -1/4 + sign_p*t/2 and q = -1/4 + sign_q*s/2.

    |z| -> infinity along the real line, so level n of a branch decays, and
    is bound, while Re(sign_p t + sign_q s) > 2n + 1 (Re(-p-q) < -n). The
    default (+1, +1) is the branch with the most bound levels; (+1, -1) is
    bound too whenever t - s > 1, and (-1, +1) whenever s - t > 1.
    """

    sign_p: int = +1
    sign_q: int = +1

    def __post_init__(self):
        if self.sign_p not in (+1, -1) or self.sign_q not in (+1, -1):
            raise ValueError("branch signs must be +1 or -1")


@dataclass(frozen=True)
class EnergyLevel:
    n: int
    energy: complex
    convention: SpectrumConvention
    quasi_parity: Optional[int] = None


def omega_scarf(pot: ScarfII, y):
    """-lambda sech^2(y) - i mu sech(y) tanh(y); y scalar or array."""
    y = np.asarray(y, dtype=float)
    sech = 1.0 / np.cosh(y)
    out = -pot.lambda_depth * sech ** 2 - 1j * pot.mu_strength * sech * np.tanh(y)
    return out if out.ndim else complex(out)


def omega_oscillator(pot: GenOscillator, y):
    """(y - i eps)^2 + (g^2 - 1/4)/(y - i eps)^2; y scalar or array."""
    y = np.asarray(y, dtype=float)
    w = y - 1j * pot.epsilon
    cf = pot.g * pot.g - 0.25
    if cf != 0.0 and np.any(np.abs(w) < 1e-12):
        raise SingularityError("omega_oscillator evaluated at the centrifugal singularity")
    out = w * w + (cf / (w * w) if cf != 0.0 else 0.0)
    out = np.asarray(out, dtype=complex)
    return out if out.ndim else complex(out)


def branch_params(pot: ScarfII, sel: BranchSelection = BranchSelection()):
    """(p, q, s, t) with t = sqrt(1/4+lambda+mu), s = sqrt(1/4+lambda-mu)."""
    lam, mu = pot.lambda_depth, pot.mu_strength
    t = complex(np.sqrt(complex(0.25 + lam + mu)))
    s = complex(np.sqrt(complex(0.25 + lam - mu)))
    p = -0.25 + sel.sign_p * t / 2.0
    q = -0.25 + sel.sign_q * s / 2.0
    return p, q, s, t


def scarf_branch_text(sel: BranchSelection) -> str:
    """sign_p t + sign_q s written out, as "s+t" on the default branch."""
    return {(1, 1): "s+t", (1, -1): "t-s", (-1, 1): "s-t", (-1, -1): "-s-t"}[
        sel.sign_p, sel.sign_q]


def scarf_branch_sum(pot: ScarfII, sel: BranchSelection) -> complex:
    """sign_p t + sign_q s: level n of the branch is bound while its real part > 2n + 1."""
    _, _, s, t = branch_params(pot, sel)
    return sel.sign_p * t + sel.sign_q * s


def scarf_bound_count(pot: ScarfII, sel: BranchSelection = BranchSelection()) -> int:
    """Number of bound levels of the branch: n = 0, 1, ... < (sign_p t + sign_q s - 1)/2.

    Zero when s or t is complex (the PT-broken candidate).
    """
    _, _, s, t = branch_params(pot, sel)
    if abs(s.imag) > 1e-12 or abs(t.imag) > 1e-12:
        return 0
    bound = (scarf_branch_sum(pot, sel).real - 1.0) / 2.0
    return max(0, math.ceil(bound)) if bound > 0 else 0


def scarf_energy(pot: ScarfII, sel: BranchSelection, n: int,
                 conv: SpectrumConvention = SpectrumConvention.UNIT,
                 formula: str = SCARF_FORMULA_CORRECTED) -> EnergyLevel:
    """Bound-state energy of PT Scarf II under the chosen formula variant.

    The corrected form is -(n + 1/2 - (sign_p t + sign_q s)/2)^2, bound while
    n < (sign_p t + sign_q s - 1)/2; the published form -(n - p - 1)^2 keeps
    its verbatim range n < (s + t - 1)/2 on every branch.
    """
    p, q, s, t = branch_params(pot, sel)
    if abs(s.imag) > 1e-12 or abs(t.imag) > 1e-12:
        raise OutOfBoundStateRange("complex s or t: PT-broken candidate, no bound range")
    if formula == SCARF_FORMULA_PUBLISHED:
        text, branch = "s+t", s.real + t.real
        e_unit = -((n - p - 1.0) ** 2)
    elif formula == SCARF_FORMULA_CORRECTED:
        text, branch = scarf_branch_text(sel), scarf_branch_sum(pot, sel).real
        e_unit = -((n + 0.5 - branch / 2.0) ** 2)
    else:
        raise ValueError(f"unknown Scarf energy formula {formula!r}")
    bound = (branch - 1.0) / 2.0
    if not 0 <= n < bound:
        raise OutOfBoundStateRange(f"level n = {n} violates n < ({text}-1)/2 = {bound:.6g}")
    return EnergyLevel(n=n, energy=conv.energy_from_unit(complex(e_unit)), convention=conv)


def oscillator_energy(pot: GenOscillator, n: int,
                      conv: SpectrumConvention = SpectrumConvention.UNIT) -> EnergyLevel:
    """E_n = 4n - 2 q g + 2 in UNIT, halved under HALF."""
    if n < 0:
        raise OutOfBoundStateRange(f"level n must be >= 0, got {n}")
    e_unit = 4.0 * n - 2.0 * pot.quasi_parity * pot.g + 2.0
    return EnergyLevel(n=n, energy=conv.energy_from_unit(complex(e_unit)),
                       convention=conv, quasi_parity=pot.quasi_parity)


def scarf_wavefunction(pot: ScarfII, sel: BranchSelection, n: int, y):
    """Unnormalized Scarf II eigenfunction.

    phi_n = z^(-p) (z~)^(-q) P_n^(-2p-1/2, -2q-1/2)(i sinh y) with
    z = (1 - i sinh y)/2 and z~ = (1 + i sinh y)/2 the *formal* conjugate
    (kept analytic, not a numerical conjugation). No Gamma-function
    normalization is applied: it would have poles at valid bound states
    (for example t = sqrt(1/4 + lambda + mu) an integer).
    """
    p, q, _, _ = branch_params(pot, sel)
    y = np.asarray(y, dtype=float)
    u = 1j * np.sinh(y)
    z = (1.0 - u) / 2.0
    zt = (1.0 + u) / 2.0
    out = complex_pow(z, -p) * complex_pow(zt, -q) * jacobi_poly(
        n, -2.0 * p - 0.5, -2.0 * q - 0.5, u
    )
    out = np.asarray(out, dtype=complex)
    return out if out.ndim else complex(out)


def oscillator_wavefunction(pot: GenOscillator, n: int, y):
    """Unnormalized generalized-oscillator eigenfunction.

    phi_n = exp(-(y-i eps)^2/2) (y-i eps)^(-qg+1/2) L_n^(-qg)((y-i eps)^2);
    the power uses the principal branch, which is continuous along the real
    line since y - i eps stays in the open lower half plane for eps != 0.
    """
    if n < 0:
        raise OutOfBoundStateRange(f"level n must be >= 0, got {n}")
    y = np.asarray(y, dtype=float)
    w = y - 1j * pot.epsilon
    if np.any(np.abs(w) < 1e-12):
        raise SingularityError("oscillator_wavefunction evaluated at y - i eps = 0")
    a = -pot.quasi_parity * pot.g
    out = np.exp(-w * w / 2.0) * complex_pow(w, a + 0.5) * laguerre_poly(n, a, w * w)
    out = np.asarray(out, dtype=complex)
    return out if out.ndim else complex(out)
