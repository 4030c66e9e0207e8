"""Finite-difference ground truth for the PDM and constant-mass operators.

The kinetic term uses the flux-conserving 3-point stencil

    (A psi)_j = -[w_{j+1/2}(psi_{j+1}-psi_j) - w_{j-1/2}(psi_j-psi_{j-1})]/h^2
                + V_j psi_j,     w = c/m at midpoints,

with c the convention's kinetic factor (1/2 for HALF, 1 for UNIT) and
Dirichlet walls at +-L. Sampling w at midpoints enforces continuity of
(1/m) psi' across mass variations by construction. The operator is stored as
the three bands of its interior rows (Golub & Van Loan, Matrix Computations,
sec. 1.2.5), so assembly, residuals and the PT check cost O(N); the dense
N x N matrix is derived on request. The eigensolver is non-Hermitian, as no
symmetry shortcut is valid for complex PT potentials, and runs banded
shift-invert Arnoldi on a sparse LU of the bands: at a given energy for the k
levels nearest it, or below the whole spectrum for the k levels of smallest
real part, which Bendixson's theorem certifies complete; that request
starts a little above k values, from a Krylov basis sized to it, and grows
by 3/2 only while the certificate fails. A dense eigendecomposition is the
fallback where ARPACK cannot serve: k too close to N, or an exactly singular
factor. Every level is certified by its residual ||A x - lambda x|| / ||x||.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .conventions import SpectrumConvention
from .errors import ConvergenceError, NaNGuard
from .mass_models import GridSpec, SampledFunction
from .reference_potentials import EnergyLevel

__all__ = [
    "DiscreteOperator",
    "EigenResult",
    "SpectrumReport",
    "discretize_pdm",
    "discretize_const",
    "eigen_solve",
    "residual",
    "spectrum_compare",
    "pt_commutation_defect",
]

REALITY_TOL_SCALE = 1e-6


@dataclass(frozen=True)
class DiscreteOperator:
    """Tridiagonal operator as the bands of its interior rows j = 1..N-2.

    Row j reads lower psi_{j-1} + diag psi_j + upper psi_{j+1}; each band has
    length N-2, and lower[0] and upper[-1] are the couplings to the wall
    nodes 0 and N-1, which residual keeps and eigen_solve drops (Dirichlet).
    """

    grid: GridSpec
    convention: SpectrumConvention
    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        m = self.grid.num_points_N - 2
        for name in ("lower", "diag", "upper"):
            band = np.array(getattr(self, name), dtype=complex)
            if band.shape != (m,):
                raise ValueError(f"{name} band has shape {band.shape}, need ({m},) for N = {m + 2}")
            band.setflags(write=False)
            object.__setattr__(self, name, band)

    @property
    def matrix(self) -> np.ndarray:
        """The dense N x N matrix, boundary rows zero: a new read-only array per call."""
        n = self.grid.num_points_N
        a = np.zeros((n, n), dtype=complex)
        i = np.arange(1, n - 1)
        a[i, i - 1] = self.lower
        a[i, i] = self.diag
        a[i, i + 1] = self.upper
        a.setflags(write=False)
        return a


def _band_product(op: DiscreteOperator, psi: np.ndarray) -> np.ndarray:
    """Interior rows of A times psi; psi holds all N nodes, shape (N,) or (N, k)."""
    lower, diag, upper = (b.reshape((-1,) + (1,) * (psi.ndim - 1))
                          for b in (op.lower, op.diag, op.upper))
    return lower * psi[:-2] + diag * psi[1:-1] + upper * psi[2:]


def discretize_pdm(mass: Callable, V: Union[Callable, SampledFunction], grid: GridSpec,
                   conv: SpectrumConvention = SpectrumConvention.HALF) -> DiscreteOperator:
    """Assemble the PDM operator -c d/dx[(1/m) d/dx] + V on the grid.

    V is either a callable evaluated at the grid points or a SampledFunction
    on this same grid, whose samples are used as they are; a SampledFunction
    on any other grid raises ValueError.
    """
    x = grid.points
    h = grid.spacing
    xm = 0.5 * (x[:-1] + x[1:])
    w = conv.kinetic_factor / np.asarray(mass(xm), dtype=float)
    if isinstance(V, SampledFunction):
        if V.grid != grid:
            raise ValueError("V grid does not match operator grid")
        v = V.values
    else:
        v = np.asarray(V(x), dtype=complex)
    if not np.all(np.isfinite(v)):
        raise NaNGuard("potential is not finite on the grid")
    return DiscreteOperator(grid=grid, convention=conv, lower=-w[:-1] / h ** 2,
                            diag=(w[:-1] + w[1:]) / h ** 2 + v[1:-1], upper=-w[1:] / h ** 2)


def discretize_const(V: Union[Callable, SampledFunction], grid: GridSpec,
                     conv: SpectrumConvention = SpectrumConvention.HALF) -> DiscreteOperator:
    """Constant-mass operator -c d^2/dy^2 + V; V as in discretize_pdm."""
    return discretize_pdm(lambda x: np.ones_like(np.asarray(x, dtype=float)), V, grid, conv)


@dataclass(frozen=True)
class EigenResult:
    eigenvalues: np.ndarray            # by real part, or by distance to sigma
    residuals: np.ndarray
    reality_flags: np.ndarray
    grid: GridSpec
    convention: SpectrumConvention
    eigenvectors: Optional[np.ndarray] = None   # N x k, boundary entries zero
    # (j, ncv) per k-lowest Krylov request tried; empty when none ran (the
    # sigma branch, or dense from the start)
    krylov_requests: tuple = ()

    def real_eigenvalues(self) -> np.ndarray:
        return self.eigenvalues[self.reality_flags]


def _reality_flags(vals: np.ndarray) -> np.ndarray:
    return np.abs(vals.imag) < REALITY_TOL_SCALE * np.maximum(1.0, np.abs(vals.real))


def _dense_eig(interior: np.ndarray, want_vectors: bool):
    try:
        if want_vectors:
            return scipy.linalg.eig(interior)
        return scipy.linalg.eig(interior, right=False), None
    except scipy.linalg.LinAlgError as exc:
        raise ConvergenceError(f"dense eigendecomposition failed: {exc}") from exc


def _shift_invert(op: DiscreteOperator, sigma: complex):
    """ARPACK near sigma on one sparse LU of the interior bands, or None.

    Returns solve(j, want_vectors, ncv=None) -> (values, vectors or None), the
    j eigenpairs nearest sigma, with scipy's ncv = 2j + 1 when ncv is None;
    every call reuses the one factor. Returns None when A - sigma I is exactly
    singular, i.e. sigma is itself an eigenvalue of the interior.
    """
    m = op.grid.num_points_N - 2
    bands = [op.lower[1:], op.diag - sigma, op.upper[:-1]]
    try:
        lu = scipy.sparse.linalg.splu(scipy.sparse.diags(bands, [-1, 0, 1], format="csc"))
    except RuntimeError:   # "Factor is exactly singular"
        return None
    opinv = scipy.sparse.linalg.LinearOperator((m, m), matvec=lu.solve, dtype=complex)
    # ARPACK's complex shift-invert mode applies only OPinv; A is the
    # interior with Dirichlet walls, given by its banded product
    a = scipy.sparse.linalg.LinearOperator(
        (m, m), matvec=lambda x: _band_product(op, np.pad(np.ravel(x), 1)), dtype=complex)
    # a fixed start vector keeps the output byte-deterministic (ARPACK's own
    # is random); a generic one has a component along every eigenvector,
    # where all-ones has none along the odd levels of an even potential and
    # would rely on rounding to supply them
    v0 = np.random.default_rng(0).standard_normal(m).astype(complex)

    def solve(j: int, want_vectors: bool, ncv: Optional[int] = None):
        try:
            out = scipy.sparse.linalg.eigs(a, k=j, sigma=sigma, which="LM", OPinv=opinv,
                                           v0=v0, ncv=ncv, return_eigenvectors=want_vectors)
        except scipy.sparse.linalg.ArpackError as exc:
            raise ConvergenceError(
                f"shift-invert Arnoldi at sigma={sigma} failed: {exc}") from exc
        return out if want_vectors else (out, None)

    return solve


def _lowest_shift_invert(op: DiscreteOperator, k: int, want_vectors: bool):
    """Eigenpairs that include the k of smallest real part, or None; and the
    (j, ncv) Krylov requests tried.

    Shift-invert Arnoldi at sigma = lambda_min(H) - 1, below the spectrum,
    with H = (A + A^H)/2 the Hermitian part of the interior. By Bendixson's
    theorem (Horn & Johnson, Topics in Matrix Analysis, sec. 1.2) every
    eigenvalue has Re >= lambda_min(H) and |Im| <= b = ||K||_inf, with
    K = (A - A^H)/2. Of the j values nearest sigma, at distance <= R, let
    lambda_(k) have the k-th smallest real part: when
    (Re lambda_(k) - sigma)^2 + b^2 < R^2, every eigenvalue with real part
    up to Re lambda_(k) lies within R of sigma, so none of the k lowest was
    missed. The first request asks for j = k + max(8, k // 4) values from
    ncv = min(N - 2, j + max(20, j // 2)) Krylov vectors: ARPACK's implicitly
    restarted Arnoldi (Lehoucq & Sorensen, SIAM J. Matrix Anal. Appl. 17
    (1996) 789) costs about N ncv^2 per restart, and scipy's default
    ncv = 2j + 1 would spend most of it on values the certificate does not
    need. While the certificate fails, j grows by 3/2, on the same factor.
    Returns None when j would reach N-3, where ARPACK cannot serve, or when
    the factor is exactly singular.
    """
    n = op.grid.num_points_N
    requests = []
    j = k + max(8, k // 4)
    if j >= n - 3:
        return None, requests
    # a diagonal unitary similarity makes the Hermitian tridiagonal H real,
    # with off-diagonal |h|; for assembled operators h = lower[1:] exactly
    herm_off = np.abs(op.lower[1:] + np.conj(op.upper[:-1])) / 2
    sigma = scipy.linalg.eigvalsh_tridiagonal(op.diag.real, herm_off, select="i",
                                              select_range=(0, 0))[0] - 1.0
    skew_off = np.abs(op.lower[1:] - np.conj(op.upper[:-1])) / 2
    b = np.max(np.abs(op.diag.imag) + np.pad(skew_off, (1, 0)) + np.pad(skew_off, (0, 1)))
    solve = _shift_invert(op, sigma)
    if solve is None:
        return None, requests
    while j < n - 3:
        ncv = min(n - 2, j + max(20, j // 2))
        requests.append((j, ncv))
        found = solve(j, want_vectors, ncv)
        reach = np.max(np.abs(found[0] - sigma))
        kth = np.sort(found[0].real)[k - 1]
        if (kth - sigma) ** 2 + b ** 2 < reach ** 2:
            return found, requests
        j = 3 * j // 2
    return None, requests


def eigen_solve(op: DiscreteOperator, k: int, want_vectors: bool = True,
                sigma: Optional[complex] = None) -> EigenResult:
    """k eigenvalues with residual certificates.

    Both branches run shift-invert Arnoldi on a sparse LU of the interior
    bands (Lehoucq, Sorensen & Yang, ARPACK Users' Guide, 1998, sec. 3.2).
    With sigma None: the k of smallest real part, ordered by real part, from
    a shift below the spectrum whose completeness Bendixson's theorem
    certifies; the request starts at k + max(8, k // 4) values and grows by
    3/2 until the certificate holds (see _lowest_shift_invert), and the
    (j, ncv) pairs it tried are kept as krylov_requests. With sigma given:
    the k nearest sigma, ordered by |lambda - sigma|, with scipy's default
    ncv. ARPACK needs fewer than N-3 values; where it cannot serve, or the
    factor is exactly singular, the dense spectrum of the interior is sorted
    instead.
    """
    n = op.grid.num_points_N
    if not 1 <= k <= n - 2:
        raise ValueError(f"k must be in [1, N-2] = [1, {n - 2}], got {k}")
    requests = []
    if sigma is None:
        found, requests = _lowest_shift_invert(op, k, want_vectors)
    else:
        solve = _shift_invert(op, sigma) if k < n - 3 else None
        found = solve(k, want_vectors) if solve is not None else None
    vals, vecs = found if found is not None else _dense_eig(op.matrix[1:-1, 1:-1], want_vectors)
    if sigma is None:
        order = np.argsort(vals.real, kind="stable")[:k]
    else:
        order = np.argsort(np.abs(vals - sigma), kind="stable")[:k]
    vals = vals[order]
    if vecs is not None:
        full = np.zeros((n, k), dtype=complex)
        full[1:-1, :] = vecs[:, order]
        vecs = full
        res = (np.linalg.norm(_band_product(op, vecs) - vecs[1:-1] * vals[None, :], axis=0)
               / np.linalg.norm(vecs, axis=0))
    else:
        res = np.full(k, np.nan)
    return EigenResult(eigenvalues=vals, residuals=res, reality_flags=_reality_flags(vals),
                       grid=op.grid, convention=op.convention, eigenvectors=vecs,
                       krylov_requests=tuple(requests))


def residual(op: DiscreteOperator, psi: SampledFunction, E: complex) -> float:
    """||A psi - E psi||_2 / ||psi||_2 over interior rows.

    Interior rows keep their boundary-column couplings, so analytic samples
    are judged against the pure stencil truncation, not against the wall.
    """
    if psi.grid != op.grid:
        raise ValueError("psi grid does not match operator grid")
    v = psi.values
    nrm = np.linalg.norm(v[1:-1])
    if not np.isfinite(nrm) or nrm == 0.0:
        raise NaNGuard("residual of a zero or non-finite vector")
    return float(np.linalg.norm(_band_product(op, v) - E * v[1:-1]) / nrm)


def pt_commutation_defect(op: DiscreteOperator) -> float:
    """max |A - C M A M C| with M the index mirror and C conjugation.

    M reverses the diagonal and swaps the lower band with the reversed upper
    one; every entry off the three bands is zero on both sides.
    """
    return float(max(np.max(np.abs(op.diag - np.conj(op.diag[::-1]))),
                     np.max(np.abs(op.lower - np.conj(op.upper[::-1])))))


@dataclass(frozen=True)
class SpectrumReport:
    matched: tuple            # (n, E_analytic, E_numeric, gap)
    unmatched: tuple          # (n, E_analytic)
    spurious: tuple           # numeric eigenvalues below edge with no partner
    tol: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "matched": [
                {"n": n, "E_analytic": [ea.real, ea.imag],
                 "E_numeric": [en.real, en.imag], "gap": gap}
                for n, ea, en, gap in self.matched
            ],
            "unmatched": [{"n": n, "E_analytic": [ea.real, ea.imag]}
                          for n, ea in self.unmatched],
            "spurious": [[e.real, e.imag] for e in self.spurious],
            "tol": self.tol,
            "passed": self.passed,
        }


def collapse_conjugate_pairs(vals: np.ndarray, pair_tol: float = 1e-6) -> np.ndarray:
    """Replace each complex-conjugate eigenvalue pair by two copies of its mean.

    Near a defective (exceptional) point — e.g. the quasi-parity tower
    crossings of the generalized oscillator at integer coupling — the
    discrete spectrum splits into a conjugate pair straddling the true level
    at first order in h. The pair mean (the trace of the 2x2 Jordan block)
    recovers second-order accuracy and is the right observable to compare
    against a closed-form level. Eigenvalues without a conjugate partner are
    left untouched.
    """
    out = np.array(vals, dtype=complex)
    used = np.zeros(len(out), dtype=bool)
    for i, v in enumerate(out):
        scale = max(1.0, abs(v))
        if used[i] or abs(v.imag) <= pair_tol * scale:
            continue
        gaps = np.abs(out - np.conj(v))
        gaps[i] = np.inf
        gaps[used] = np.inf
        j = int(np.argmin(gaps))
        if gaps[j] <= pair_tol * scale:
            mean = 0.5 * (v + out[j])
            out[i] = out[j] = mean
            used[i] = used[j] = True
    return out


def spectrum_compare(analytic: Sequence[EnergyLevel], numeric: EigenResult,
                     tol: float, continuum_edge: Optional[float] = None) -> SpectrumReport:
    """Greedy match of analytic levels to numeric eigenvalues by real part."""
    numeric_vals = list(numeric.eigenvalues)
    used = [False] * len(numeric_vals)
    matched, unmatched = [], []
    for lev in sorted(analytic, key=lambda l: l.energy.real):
        ea = complex(lev.energy)
        best, best_gap = None, np.inf
        for i, en in enumerate(numeric_vals):
            if used[i]:
                continue
            gap = abs(en.real - ea.real)
            if gap < best_gap:
                best, best_gap = i, gap
        if best is not None and abs(numeric_vals[best] - ea) <= tol:
            used[best] = True
            matched.append((lev.n, ea, complex(numeric_vals[best]),
                            float(abs(numeric_vals[best] - ea))))
        else:
            unmatched.append((lev.n, ea))
    spurious = []
    if continuum_edge is not None:
        spurious = [complex(en) for i, en in enumerate(numeric_vals)
                    if not used[i] and en.real < continuum_edge]
    passed = not unmatched and not spurious
    return SpectrumReport(matched=tuple(matched), unmatched=tuple(unmatched),
                          spurious=tuple(spurious), tol=tol, passed=passed)
