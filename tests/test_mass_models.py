"""Mass family, coordinate map, grids, sampled functions and PT diagnostics."""

import math
import subprocess
import sys

import mpmath
import numpy as np
import pytest

from pdm_spectra import (
    CaseB,
    ConvergenceError,
    DomainError,
    GridAsymmetryError,
    GridSpec,
    MassDistribution,
    NaNGuard,
    SampledFunction,
    coordinate_map_x,
    coordinate_map_y,
    mass_eval,
    mass_log_derivs,
    pt_defect,
    sample,
)

from oracles import richardson_d1, richardson_d2

RNG_SEED = 977413


# ---------------------------------------------------------------------------
# mass_eval


def test_mass_eval_trivial_values():
    assert mass_eval(MassDistribution(1.0, 2.0), 7.3) == pytest.approx(1.0)
    assert mass_eval(MassDistribution(2.0, 2.0), 0.0) == pytest.approx(4.0)
    assert mass_eval(MassDistribution(2.0, 2.0), 1.0) == pytest.approx(2.25)


def test_mass_invariants():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(20):
        dist = MassDistribution(rng.uniform(0.2, 6.0), rng.uniform(0.5, 4.0))
        x = rng.uniform(-10.0, 10.0, size=40)
        m = mass_eval(dist, x)
        assert np.all(m > 0)
        assert np.allclose(mass_eval(dist, -x), m, rtol=0, atol=0)  # exactly even
        assert mass_eval(dist, 0.0) == pytest.approx(dist.alpha ** dist.exponent_k)
        assert mass_eval(dist, 1e8) == pytest.approx(1.0, rel=1e-6)


def test_mass_distribution_validation():
    with pytest.raises(ValueError):
        MassDistribution(-1.0, 2.0)
    with pytest.raises(ValueError):
        MassDistribution(2.0, 0.0)


# ---------------------------------------------------------------------------
# mass_log_derivs


def test_log_derivs_trivial():
    d1, _ = mass_log_derivs(MassDistribution(3.0, 1.7), 0.0)
    assert d1 == 0.0
    d1, _ = mass_log_derivs(MassDistribution(2.0, 2.0), 1.0)
    assert d1 == pytest.approx(-2.0 / 3.0, rel=1e-14)


def test_log_derivs_vs_richardson_oracle():
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(12):
        dist = MassDistribution(rng.uniform(0.3, 5.0), rng.uniform(0.5, 4.0))
        lnm = lambda x: math.log(mass_eval(dist, x))
        for x in np.linspace(-10.0, 10.0, 21):
            d1, d2 = mass_log_derivs(dist, float(x))
            d1_ref = richardson_d1(lnm, float(x), h=1e-3)
            # m''/m = (ln m)'' + ((ln m)')^2
            d2_ref = richardson_d2(lnm, float(x), h=1e-3) + d1_ref ** 2
            assert d1 == pytest.approx(d1_ref, abs=1e-8)
            assert d2 == pytest.approx(d2_ref, abs=1e-8)


def test_log_derivs_array_broadcast():
    dist = MassDistribution(2.0, 2.0)
    x = np.array([0.0, 1.0, -1.0])
    d1, d2 = mass_log_derivs(dist, x)
    assert d1.shape == x.shape
    assert d1[1] == pytest.approx(-2.0 / 3.0)
    assert d1[2] == pytest.approx(+2.0 / 3.0)
    s1, s2 = mass_log_derivs(dist, 1.0)
    assert d2[1] == pytest.approx(s2)


# ---------------------------------------------------------------------------
# coordinate map


def test_map_trivial_values():
    assert coordinate_map_y(MassDistribution(1.0, 2.0), 1.0, 1.234) == pytest.approx(1.234)
    assert coordinate_map_y(MassDistribution(2.0, 2.0), 1.0, 0.0) == 0.0
    assert coordinate_map_y(MassDistribution(2.0, 2.0), 1.0, 1.0) == pytest.approx(
        1.0 + math.pi / 4.0, rel=1e-13)


def test_map_inverse_trivial_values():
    assert coordinate_map_x(MassDistribution(1.0, 2.0), 1.0, 3.0) == pytest.approx(3.0)
    assert coordinate_map_x(MassDistribution(2.0, 2.0), 1.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert coordinate_map_x(MassDistribution(2.0, 2.0), 1.0, 1.0 + math.pi / 4.0) == pytest.approx(
        1.0, abs=1e-10)


def test_map_round_trip_and_monotonic():
    rng = np.random.default_rng(RNG_SEED + 2)
    for dist, gamma in ((MassDistribution(2.0, 2.0), 1.0),   # closed form
                        (MassDistribution(0.5, 4.0), 0.5),   # closed form (k*g/2=1)
                        (MassDistribution(3.0, 3.0), 1.0)):  # quadrature path
        xs = np.sort(rng.uniform(-6.0, 6.0, size=12))
        ys = np.array([coordinate_map_y(dist, gamma, float(x)) for x in xs])
        assert np.all(np.diff(ys) > 0)  # strictly increasing
        for x, y in zip(xs, ys):
            assert coordinate_map_x(dist, gamma, float(y)) == pytest.approx(float(x), abs=1e-9)


def test_map_on_array_matches_case_b():
    xs = np.linspace(-4.0, 4.0, 33)
    # closed form (k*gamma/2 = 1): vectorized np.arctan
    dist = MassDistribution(2.0, 2.0)
    ys = coordinate_map_y(dist, 1.0, xs)
    assert np.array_equal(ys, CaseB(1.0, dist).y_of_x(xs))
    assert np.array_equal(ys, xs + (dist.alpha - 1.0) * np.arctan(xs))
    # quadrature: the panel lattice is fixed at 0, so identical to the scalar calls
    dist = MassDistribution(3.0, 3.0)
    ys = coordinate_map_y(dist, 1.0, xs)
    assert np.array_equal(ys, CaseB(1.0, dist).y_of_x(xs))
    assert np.array_equal(ys, [coordinate_map_y(dist, 1.0, float(x)) for x in xs])


# (alpha, k, gamma), none with k*gamma/2 = 1, so all on the quadrature path;
# the last has branch points +-i sqrt(alpha) close to the real axis
QUAD_CASES = ((2.0, 1.2, 1.0), (3.0, 2.0, 0.8), (0.5, 2.0, 0.5), (3.0, 3.0, 1.0),
              (1e-3, 1.2, 1.0))


def _mp_map_y(alpha, k, gamma, x):
    with mpmath.workdps(40):
        f = lambda t: ((alpha + t * t) / (1 + t * t)) ** (mpmath.mpf(k) * gamma / 2)
        return float(mpmath.quad(f, [0, min(x, 0.1), mpmath.mpf(x)]))


@pytest.mark.parametrize("alpha, k, gamma", QUAD_CASES)
def test_maps_match_mpmath(alpha, k, gamma):
    # every 13th node of the positive half of an L = 12, N = 2401 grid, where an
    # adaptive quadrature per point (epsabs 1.5e-8) errs by up to 9e-12
    dist = MassDistribution(alpha, k)
    xs = GridSpec(12.0, 2401).points[1200::13]
    ref = np.array([_mp_map_y(alpha, k, gamma, x) for x in xs])
    assert np.max(np.abs(coordinate_map_y(dist, gamma, xs) - ref)) < 1e-13
    assert np.max(np.abs(coordinate_map_x(dist, gamma, ref) - xs)) < 1e-13


@pytest.mark.parametrize("alpha, k, gamma", QUAD_CASES)
def test_map_is_exactly_odd(alpha, k, gamma):
    dist = MassDistribution(alpha, k)
    xs = np.random.default_rng(RNG_SEED + 4).uniform(0.0, 9.0, size=200)
    assert np.array_equal(coordinate_map_y(dist, gamma, -xs), -coordinate_map_y(dist, gamma, xs))
    ys = coordinate_map_y(dist, gamma, xs)
    assert np.array_equal(coordinate_map_x(dist, gamma, -ys), -coordinate_map_x(dist, gamma, ys))


# closed form, and a near-power-law map where Newton converges linearly at first
@pytest.mark.parametrize("alpha, k, gamma", QUAD_CASES + ((2.0, 2.0, 1.0), (1e-4, 10.0, 1.0)))
def test_map_round_trip_on_arrays(alpha, k, gamma):
    dist = MassDistribution(alpha, k)
    xs = GridSpec(12.0, 2401).points.reshape(49, 49)
    back = coordinate_map_x(dist, gamma, coordinate_map_y(dist, gamma, xs))
    assert back.shape == xs.shape
    assert np.max(np.abs(back - xs)) < 1e-13
    assert np.array_equal(back[3], [coordinate_map_x(dist, gamma, float(y))
                                    for y in coordinate_map_y(dist, gamma, xs[3])])


def test_map_domain_errors():
    dist = MassDistribution(3.0, 3.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError):
            coordinate_map_x(dist, 1.0, bad)
        with pytest.raises(DomainError):
            coordinate_map_y(dist, 1.0, bad)
    # the quadrature lattice ends at |x| = 2^17
    with pytest.raises(DomainError):
        coordinate_map_y(dist, 1.0, 2.0 ** 18)
    with pytest.raises(DomainError):
        coordinate_map_x(dist, 1.0, 2.0 ** 18)


def test_cli_import_leaves_out_scipy_quadrature():
    code = ("import sys, pdm_spectra.cli; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_map_derivative_matches_mass_power():
    rng = np.random.default_rng(RNG_SEED + 3)
    dist = MassDistribution(2.5, 2.0)
    gamma = 0.8  # quadrature regime
    for _ in range(50):
        x = float(rng.uniform(-5.0, 5.0))
        dy = richardson_d1(lambda t: coordinate_map_y(dist, gamma, t), x, h=1e-3)
        assert dy == pytest.approx(mass_eval(dist, x) ** (gamma / 2.0), abs=1e-8)


# ---------------------------------------------------------------------------
# GridSpec


def test_grid_spacing_and_symmetry():
    grid = GridSpec(10.0, 2001)
    assert grid.spacing == pytest.approx(0.01)
    x = grid.points
    assert len(x) == 2001
    assert x[0] == pytest.approx(-10.0)
    assert x[-1] == pytest.approx(10.0)
    # exact antisymmetry, needed by the PT diagnostics
    assert np.max(np.abs(x + x[::-1])) == 0.0
    assert x[1000] == 0.0


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(-1.0, 100)
    with pytest.raises(ValueError):
        GridSpec(5.0, 2)


# ---------------------------------------------------------------------------
# SampledFunction


def test_sampled_function_immutability_and_validation():
    grid = GridSpec(1.0, 5)
    f = SampledFunction(grid, np.arange(5, dtype=complex), "demo")
    with pytest.raises((ValueError, RuntimeError)):
        f.values[0] = 99.0
    with pytest.raises(ValueError):
        SampledFunction(grid, np.zeros(4, dtype=complex))
    with pytest.raises(NaNGuard):
        SampledFunction(grid, np.array([0, 1, np.nan, 3, 4], dtype=complex))


def test_sampled_function_json_dict():
    grid = GridSpec(1.0, 3)
    f = SampledFunction(grid, np.array([1 + 2j, 0.0, -1j]), "demo")
    doc = f.to_json_dict()
    assert doc["grid"] == {"L": 1.0, "N": 3}
    assert doc["values"][2] == [0.0, -1.0]


def test_sample_accepts_scalar_and_vector_callables():
    grid = GridSpec(2.0, 9)
    f1 = sample(grid, lambda x: x ** 2 + 1j * x)
    f2 = sample(grid, lambda x: complex(x) ** 2 + 1j * complex(x))
    assert np.allclose(f1.values, f2.values)


# ---------------------------------------------------------------------------
# pt_defect


def test_pt_defect_purely_imaginary_odd():
    grid = GridSpec(3.0, 101)
    f = sample(grid, lambda x: 1j * x)
    assert pt_defect(f) <= 1e-12


def test_pt_defect_known_violation():
    grid = GridSpec(3.0, 101)
    f = sample(grid, lambda x: x + 1j * x ** 2)
    # (f(-x))* = -x - i x^2, so f(x) - f*(-x) = 2x + 2i x^2 and the defect is
    # max 2|x| sqrt(1 + x^2), attained at the grid edge
    assert pt_defect(f) == pytest.approx(6.0 * math.sqrt(10.0), rel=1e-12)
    # the real part alone violates PT by exactly 2|x|
    f_re = sample(grid, lambda x: x + 0j)
    assert pt_defect(f_re) == pytest.approx(6.0, rel=1e-12)


def test_pt_defect_mass_is_pt_symmetric():
    rng = np.random.default_rng(RNG_SEED + 4)
    grid = GridSpec(8.0, 257)
    for _ in range(10):
        dist = MassDistribution(rng.uniform(0.2, 6.0), rng.uniform(0.5, 4.0))
        f = sample(grid, lambda x: mass_eval(dist, x))
        assert pt_defect(f) <= 1e-14


def test_pt_defect_rejects_asymmetric_grid():
    grid = GridSpec(1.0, 4)  # even N: no node at 0 but still antisymmetric
    f = sample(grid, lambda x: 1j * x)
    assert pt_defect(f) <= 1e-12  # antisymmetric grids are fine even without x=0

    # a skewed grid (points not mirror-symmetric) must be rejected
    class Skewed(GridSpec):
        @property
        def points(self):
            return super().points + 0.01

    bad = SampledFunction(Skewed(1.0, 4), np.zeros(4, dtype=complex), "bad")
    with pytest.raises(GridAsymmetryError):
        pt_defect(bad)


def test_convergence_error_on_unreachable_bracket():
    # the map is unbounded for this family, so even a far y is bracketed and
    # converges; the typed failures are checked in test_map_domain_errors
    dist = MassDistribution(2.0, 2.0)
    x = coordinate_map_x(dist, 1.0, 50.0)
    assert coordinate_map_y(dist, 1.0, x) == pytest.approx(50.0, abs=1e-10)
