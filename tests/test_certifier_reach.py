"""How far the certifier's central differences reach in s.

_certify takes D^gamma f as the gamma-fold central difference over (2H)^gamma,
H = 2^-17, whose rounding is about 2^gamma eps max|f| / (2H)^gamma, eps =
2^-53: 1.9e-6 max|f| at gamma = 2, 0.25 max|f| at gamma = 3.  So [s] = 2 is
certified against the exact derivatives, and [s] >= 3 is refused.
"""

import numpy as np
import pytest

from fracbesov import frac_wavelets as fw
from fracbesov.splines import bspline_derivative, bspline_natural
from oracles import GRID_Y


@pytest.mark.parametrize("n", range(3, 9))
def test_s2_matches_exact_derivatives(n):
    # (M3*) of B_n at Q = (0, 0) against the exact sup of |D^gamma B_n| / env,
    # gamma = 1, 2, on the same grid; measured within 7.6e-6 relative (n = 3,
    # where D^3 B_3 jumps at the grid's knots and the difference errs by O(H))
    params = fw.molecule_params_for(2.0, 2.0, 2.0, 1.0, float(n))
    env, _ = fw._grid_tables(params.M, params.delta)
    ref = max(float(np.max(np.abs(bspline_derivative(n, g, GRID_Y)) / env)) for g in (1, 2))
    rep = fw.molecule_check(lambda x: bspline_natural(n, x), (0, 0), params)
    assert abs(rep.conditions["M3*"]["ratio"] - ref) <= 1e-5 * ref


@pytest.mark.parametrize("s", [3.0, 4.0])
def test_molecule_check_refuses_s_from_3(s):
    # unrefused, s = 3 read B_4's (M3*) as 48.5 against the exact 48, and
    # s = 4 read B_7's as 225,792 against 67.38
    params = fw.molecule_params_for(2.0, 2.0, s, 1.0, 5.0)

    def fn(x):
        raise AssertionError("f is called before s is checked")

    with pytest.raises(ValueError, match=r"^s must be < 3"):
        fw.molecule_check(fn, (0, 0), params)
    with pytest.raises(ValueError, match=r"^s must be < 3"):
        fw.molecule_check(lambda x: bspline_natural(5, x), (1, 0), params)


def test_calibration_refuses_s_3():
    params = fw.molecule_params_for(2.0, 2.0, 3.0, 1.0, 13 / 3)
    with pytest.raises(ValueError, match=r"^s must be < 3"):
        fw.calibrate_constants(13 / 3, "causal", 2, params, trunc=60)
