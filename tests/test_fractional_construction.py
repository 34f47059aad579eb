"""A fractional system, spline or filter refuses a bad order when it is built.

A natural order, an n outside 1..8 or a bad trunc used to build a
fractional_system that failed only at its first wavelet value, and True used
to be taken as the order 1.
"""

import pytest

from fracbesov import frac_wavelets as fw
from fracbesov.splines import FractionalSpline, beta_star_integer_samples


def test_natural_order_refused_at_construction():
    # 2.0 built a system whose scale_fn returned B_2
    with pytest.raises(ValueError, match="alpha"):
        fw.fractional_system(2.0, "causal", 2)
    params = fw.molecule_params_for(2.0, 2.0, 0.0, 1.0, 2.0)
    with pytest.raises(ValueError, match="alpha must be fractional"):
        fw.calibrate_constants(2.0, "causal", 2, params, trunc=60)


def test_comb_n_refused_at_construction():
    with pytest.raises(ValueError, match="n must be an integer in 1..8"):
        fw.fractional_system(5 / 3, "causal", 9)


@pytest.mark.parametrize("trunc", [0, 2.5, True])
def test_trunc_refused_at_construction(trunc):
    with pytest.raises(ValueError, match="trunc must be an integer >= 1"):
        fw.fractional_system(5 / 3, "causal", 2, trunc=trunc)


def test_bool_order_refused():
    with pytest.raises(ValueError, match="alpha"):
        FractionalSpline(True)
    with pytest.raises(ValueError, match="alpha"):
        fw.wavelet_filter(True, 60)
    with pytest.raises(ValueError, match="alpha"):
        beta_star_integer_samples(True, 4)
    with pytest.raises(ValueError, match="alpha"):
        fw.fractional_system(True, "causal", 2)
