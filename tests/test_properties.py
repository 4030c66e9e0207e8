"""Property tests over random parameters: the coordinate map and PT closure.

Examples are drawn deterministically (``derandomize``) and no example
database is written, so every run checks the same draws.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pdm_spectra import (
    BranchSelection,
    CaseA,
    CaseB,
    GenOscillator,
    GridSpec,
    MassDistribution,
    ScarfII,
    SpectrumConvention,
    build_target_problem,
    coordinate_map_x,
    coordinate_map_y,
    discretize_pdm,
    mass_eval,
    pt_commutation_defect,
)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@PROPERTY
@given(alpha=_floats(0.05, 8.0), k=_floats(0.3, 4.0), gamma=_floats(0.3, 2.0),
       closed_form=st.booleans(),
       xs=st.lists(_floats(-10.0, 10.0), min_size=1, max_size=8))
def test_coordinate_map_round_trip(alpha, k, gamma, closed_form, xs):
    # k gamma / 2 = 1 takes the arctan closed form, any other k the quadrature
    dist = MassDistribution(alpha, 2.0 / gamma if closed_form else k)
    x = np.array(xs)
    y = coordinate_map_y(dist, gamma, x)
    assert np.all(np.abs(coordinate_map_x(dist, gamma, y) - x) <= 1e-12 * np.maximum(1.0, np.abs(x)))


@st.composite
def _target_problems(draw):
    """A PT-symmetric target problem: a random scheme, reference and level."""
    dist = MassDistribution(draw(_floats(0.3, 4.0)), draw(_floats(0.5, 3.0)))
    scheme = CaseB(draw(_floats(0.5, 1.5)), dist) if draw(st.booleans()) else CaseA(dist)
    if draw(st.booleans()):
        lam = draw(_floats(0.5, 8.0))
        # s and t real, and n = 0 bound on the default branch
        reference = ScarfII(lam, draw(_floats(-lam, lam)))
        n = 0
    else:
        reference = GenOscillator(draw(_floats(0.2, 2.0)), draw(_floats(0.2, 1.5)),
                                  draw(st.sampled_from((1, -1))))
        n = draw(st.integers(0, 3))
    grid = GridSpec(draw(_floats(3.0, 8.0)), draw(st.sampled_from((101, 201, 301))))
    return scheme, reference, n, grid


@PROPERTY
@given(problem=_target_problems(), conv=st.sampled_from(list(SpectrumConvention)))
def test_target_operators_commute_with_pt(problem, conv):
    scheme, reference, n, grid = problem
    tp = build_target_problem(scheme, reference, BranchSelection(), n, conv, grid)
    op = discretize_pdm(lambda x: mass_eval(scheme.mass, x), tp.potential, grid, conv)
    assert pt_commutation_defect(op) < 1e-12
