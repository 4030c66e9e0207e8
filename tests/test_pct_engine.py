"""Forward/inverse PCT maps, wavefunction assembly, and transport checks."""

import math

import numpy as np
import pytest

from pdm_spectra import (
    BranchSelection,
    CaseA,
    CaseB,
    GenOscillator,
    GridSpec,
    MassDistribution,
    SampledFunction,
    ScarfII,
    SpectrumConvention,
    assemble_psi,
    build_target_problem,
    discretize_pdm,
    forward_omega,
    inverse_potential,
    mass_eval,
    mass_log_derivs,
    matching_check,
    omega_oscillator,
    omega_scarf,
    pt_defect,
    residual,
    sample,
)

UNIT = SpectrumConvention.UNIT
HALF = SpectrumConvention.HALF

SCARF = ScarfII(3.0, 1.0)
OSC = GenOscillator(1.0, 0.5)


def _omega_scarf(y):
    return omega_scarf(SCARF, y)


def _omega_osc(y):
    return omega_oscillator(OSC, y)


# ---------------------------------------------------------------------------
# scheme structure


def test_case_a_structure():
    sch = CaseA(MassDistribution(2.0, 2.0))
    assert sch.beta == 0.5
    assert sch.gamma == 0.0
    assert sch.y_of_x(1.7) == 1.7
    assert sch.x_of_y(-0.3) == -0.3


def test_case_b_constraint():
    # the defining constraint gamma/2 + 2 beta - 1 = 0
    for gamma in (0.5, 1.0, 2.0, -1.0, 3.0):
        sch = CaseB(gamma, MassDistribution(2.0, 2.0))
        assert sch.gamma / 2.0 + 2.0 * sch.beta - 1.0 == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        CaseB(0.0, MassDistribution(2.0, 2.0))


# ---------------------------------------------------------------------------
# constant-mass degeneration (alpha = 1)


def test_alpha_one_forward_is_identity():
    grid = GridSpec(6.0, 201)
    for sch in (CaseA(MassDistribution(1.0, 2.0)), CaseB(1.0, MassDistribution(1.0, 2.0))):
        v = sample(grid, _omega_scarf)
        om = forward_omega(sch, v, E=-1.0 + 0.0j, conv=UNIT)
        assert np.max(np.abs(om.values - v.values)) < 1e-12


def test_alpha_one_inverse_is_identity():
    x = np.linspace(-5.0, 5.0, 41)
    for sch in (CaseA(MassDistribution(1.0, 2.0)), CaseB(1.0, MassDistribution(1.0, 2.0))):
        v = inverse_potential(sch, _omega_osc, E=2.0 + 0.0j, x=x)
        assert np.max(np.abs(v - _omega_osc(x))) < 1e-12


def test_alpha_one_psi_equals_phi():
    phi = lambda y: np.exp(-np.asarray(y) ** 2)
    x = np.linspace(-3.0, 3.0, 13)
    for sch in (CaseA(MassDistribution(1.0, 2.0)), CaseB(1.0, MassDistribution(1.0, 2.0))):
        assert np.max(np.abs(assemble_psi(sch, phi, x) - phi(x))) < 1e-14


# ---------------------------------------------------------------------------
# forward map values


def test_case_a_forward_zero_potential():
    # V = 0, E = 0: Omega reduces to the pure derivative bracket under HALF:
    # (3/8)(m'/m)^2 - (1/4)(m''/m)
    sch = CaseA(MassDistribution(2.0, 2.0))
    grid = GridSpec(4.0, 81)
    v = sample(grid, lambda x: 0.0 * x)
    om = forward_omega(sch, v, E=0.0 + 0.0j, conv=HALF)
    x = grid.points
    d1, d2 = mass_log_derivs(sch.mass, x)
    expected = (3.0 / 8.0) * d1 ** 2 - 0.25 * d2
    assert np.max(np.abs(om.values - expected)) < 1e-12


def test_case_a_inverse_substitution_skeleton_at_origin():
    # at x = 0: m = 4, m' = 0, so under HALF
    # V(0) = (1/4)[Omega(0) + (1/4)(m''/m)(0) + 3 E]
    sch = CaseA(MassDistribution(2.0, 2.0))
    e0 = -1.5 + 0.0j
    v0 = inverse_potential(sch, _omega_scarf, e0, 0.0, conv=HALF)
    _, d2 = mass_log_derivs(sch.mass, 0.0)
    expected = 0.25 * (_omega_scarf(0.0) + 0.25 * d2 + 3.0 * e0)
    assert v0 == pytest.approx(expected, rel=1e-13)


def test_unit_vs_half_derivative_term_scaling():
    # the derivative bracket doubles under UNIT; the algebraic part is shared
    sch = CaseA(MassDistribution(2.0, 2.0))
    x = np.array([0.4, 1.1])
    e = 0.7 + 0.0j
    v_half = inverse_potential(sch, _omega_scarf, e, x, conv=HALF)
    v_unit = inverse_potential(sch, _omega_scarf, e, x, conv=UNIT)
    m = mass_eval(sch.mass, x)
    alg = e + (1.0 / m) * (_omega_scarf(x) - e)
    assert np.allclose(v_unit - alg, 2.0 * (v_half - alg), rtol=1e-12)


# ---------------------------------------------------------------------------
# round trips


@pytest.mark.parametrize("alpha", [0.5, 2.0, 5.0])
@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_round_trip_identity(alpha, gamma):
    grid = GridSpec(8.0, 301)
    e = -1.3 + 0.0j
    schemes = [
        CaseA(MassDistribution(alpha, 2.0)),
        CaseB(gamma, MassDistribution(alpha, 2.0 / gamma)),
    ]
    for sch in schemes:
        for omega in (_omega_scarf, _omega_osc):
            v = lambda x: inverse_potential(sch, omega, e, x)
            om2 = forward_omega(sch, v, e, grid=grid)
            ref = np.asarray(omega(om2.grid.points), dtype=complex)
            assert np.max(np.abs(om2.values - ref)) < 1e-10


def test_round_trip_on_sampled_potential():
    # forward_omega also accepts a SampledFunction for V
    sch = CaseA(MassDistribution(2.0, 2.0))
    grid = GridSpec(8.0, 801)
    e = -0.5 + 0.0j
    v = sample(grid, lambda x: inverse_potential(sch, _omega_scarf, e, x))
    om = forward_omega(sch, v, e)
    ref = _omega_scarf(grid.points)
    assert np.max(np.abs(om.values - ref)) < 1e-10


# ---------------------------------------------------------------------------
# assembly and matching


def test_assemble_psi_case_a_origin():
    sch = CaseA(MassDistribution(2.0, 2.0))
    phi = lambda y: np.cos(np.asarray(y))
    assert assemble_psi(sch, phi, 0.0) == pytest.approx(2.0)  # m(0)^(1/2) = 2


def test_assemble_psi_case_b_gamma_two_is_pure_coordinate_change():
    sch = CaseB(2.0, MassDistribution(2.0, 1.0))  # k*gamma/2 = 1, beta = 0
    assert sch.beta == 0.0
    phi = lambda y: np.exp(-np.asarray(y) ** 2)
    x = np.array([0.0, 0.5, 2.0])
    got = assemble_psi(sch, phi, x)
    assert np.allclose(got, phi(sch.y_of_x(x)), rtol=1e-14)


def test_matching_check_smooth_data():
    grid = GridSpec(5.0, 2001)
    mass = sample(grid, lambda x: mass_eval(MassDistribution(2.0, 2.0), x))
    psi = sample(grid, lambda x: np.exp(-x ** 2))
    assert matching_check(psi, mass, 0.37) < 5e-3  # O(h)


def test_matching_check_detects_kink():
    grid = GridSpec(5.0, 2001)
    x = grid.points
    x0 = 1.0
    slope = 0.8
    dist = MassDistribution(2.0, 2.0)
    mass = sample(grid, lambda t: mass_eval(dist, t))
    vals = np.exp(-x ** 2) + np.where(x >= x0, slope * (x - x0), 0.0)
    psi = SampledFunction(grid, vals.astype(complex), "kinked")
    jump = matching_check(psi, mass, x0)
    assert jump == pytest.approx(slope / mass_eval(dist, x0), rel=2e-2)


def test_matching_check_assembled_state_is_smooth():
    # for smooth data the one-sided-difference jump is h * |(psi'/m)'| + O(h^3),
    # so it is small in absolute terms and halves when h does
    sch = CaseA(MassDistribution(2.0, 2.0))
    jumps = {}
    for n_pts in (2001, 4001):
        grid = GridSpec(10.0, n_pts)
        tp = build_target_problem(sch, ScarfII(5.25, 0.25), BranchSelection(), 0, UNIT, grid)
        mass = sample(grid, lambda t: mass_eval(sch.mass, t))
        jumps[n_pts] = matching_check(tp.psi, mass, 0.37)
    assert jumps[2001] < 5e-2
    assert jumps[2001] / jumps[4001] == pytest.approx(2.0, rel=0.05)


def test_matching_check_requires_interior_point():
    grid = GridSpec(5.0, 101)
    mass = sample(grid, lambda x: np.ones_like(x))
    psi = sample(grid, lambda x: np.exp(-x ** 2))
    with pytest.raises(ValueError):
        matching_check(psi, mass, 5.0)


# ---------------------------------------------------------------------------
# build_target_problem


def test_build_target_alpha_one_degenerate():
    sch = CaseA(MassDistribution(1.0, 2.0))
    grid = GridSpec(8.0, 401)
    tp = build_target_problem(sch, SCARF, BranchSelection(), 0, UNIT, grid)
    ref = np.asarray(_omega_scarf(grid.points), dtype=complex)
    assert np.max(np.abs(tp.potential.values - ref)) < 1e-12


def test_build_target_pt_defect():
    sch = CaseA(MassDistribution(2.0, 2.0))
    grid = GridSpec(8.0, 801)
    tp = build_target_problem(sch, GenOscillator(1.0, 0.5, +1), BranchSelection(), 0, UNIT, grid)
    assert pt_defect(tp.potential) < 1e-10


def test_build_target_master_residual_check():
    # transport of the Scarf ground state through case A
    sch = CaseA(MassDistribution(2.0, 2.0))
    grid = GridSpec(10.0, 2401)
    tp = build_target_problem(sch, ScarfII(5.25, 0.25), BranchSelection(), 0, UNIT, grid)
    op = discretize_pdm(lambda x: mass_eval(sch.mass, x), tp.potential, grid, UNIT)
    assert residual(op, tp.psi, tp.energy) < 1e-4


def test_build_target_residual_continuous_at_integer_scarf_t():
    # t = sqrt(1/4 + lambda + mu) = 3 is an ordinary bound-state input: the
    # residual there matches the one at a nearby mu
    sch = CaseA(MassDistribution(2.0, 2.0))
    grid = GridSpec(12.0, 1201)
    res = []
    for mu in (0.2186, 0.2186 + 1e-7):
        tp = build_target_problem(sch, ScarfII(8.5314, mu), BranchSelection(), 1, UNIT, grid)
        op = discretize_pdm(lambda x: mass_eval(sch.mass, x), tp.potential, grid, UNIT)
        res.append(residual(op, tp.psi, tp.energy))
    assert 0.0 < res[0] < 1e-3
    assert res[0] == pytest.approx(res[1], rel=1e-6)


def test_case_b_wrong_beta_negative_control():
    # the residual with the correct beta is orders of magnitude below any
    # perturbed exponent: the first-derivative term really is eliminated
    sch = CaseB(1.0, MassDistribution(2.0, 2.0))
    grid = GridSpec(3.5, 1201)
    tp = build_target_problem(sch, ScarfII(8.0, 0.25), BranchSelection(), 0, UNIT, grid)
    op = discretize_pdm(lambda x: mass_eval(sch.mass, x), tp.potential, grid, UNIT)
    r_good = residual(op, tp.psi, tp.energy)
    m = mass_eval(sch.mass, grid.points)
    bad = SampledFunction(grid, tp.psi.values * m ** 0.1, "bad-beta")
    r_bad = residual(op, bad, tp.energy)
    assert r_bad / r_good > 50.0
