"""Exact-rational oracle for the natural-order spline evaluators.

B_n is computed at dyadic points in Fractions by the two-term recursion
B_n(x) = (x B_{n-1}(x) + (n+1-x) B_{n-1}(x-1)) / n, point by point; every
float input below is dyadic, so the oracle sees exactly the arguments the
evaluators receive.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from fracbesov.battle_lemarie import bl_system, wavelet_gamma, wavelet_localized
from fracbesov.splines import (
    FractionalSpline,
    _bspline_pieces_exact,
    bspline_derivative,
    bspline_filtered,
    bspline_integer_samples,
    bspline_natural,
    frac_bspline,
)


@lru_cache(maxsize=None)
def exact_bspline(n: int, x: Fraction) -> Fraction:
    if n == 0:
        return Fraction(1) if 0 <= x < 1 else Fraction(0)
    return (x * exact_bspline(n - 1, x) + (n + 1 - x) * exact_bspline(n - 1, x - 1)) / n


def exact_filtered(n, u, c, k0):
    """sum_i c[i] B_n(u - k0 - i) in exact arithmetic, as floats."""
    return np.array(
        [
            float(sum(int(ci) * exact_bspline(n, Fraction(v) - k0 - i) for i, ci in enumerate(c)))
            for v in u
        ]
    )


def dyadic_points(lo: int, hi: int, den: int = 16) -> np.ndarray:
    """Every multiple of 1/den in [lo, hi]: knots, interiors and both sides."""
    return np.arange(lo * den, hi * den + 1) / den


def rel_err(got, ref) -> float:
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
def test_filtered_matches_exact(n):
    rng = np.random.default_rng(n)
    for k0 in (-3, 4):
        c = rng.integers(-9, 10, 2 * n + 3)
        u = dyadic_points(k0 - 3, k0 + c.size + n + 3)
        ref = exact_filtered(n, u, c, k0)
        got = bspline_filtered(n, u, c.astype(float), k0)
        assert got.shape == u.shape
        assert rel_err(got, ref) <= 1e-13
        # an off-by-one tap index is far outside the bound
        assert rel_err(bspline_filtered(n, u, c.astype(float), k0 + 1), ref) > 1e-3
    # points outside the support are exactly 0, at negative u too
    assert np.all(bspline_filtered(n, np.array([-7.5, -1.0, n + 1.0, n + 9.25]), [1.0], 0) == 0.0)


def test_integer_samples_match_exact():
    for n in range(12):
        assert bspline_integer_samples(n) == tuple(exact_bspline(n, Fraction(j)) for j in range(n + 2))


def poly_derivative_at(coeffs, r: int, f: int) -> Fraction:
    """The r-th derivative of sum_d coeffs[d] f^d at an integer f, exactly."""
    return sum(
        (a * math.perm(d, r) * f ** (d - r) for d, a in enumerate(coeffs) if d >= r),
        Fraction(0),
    )


@pytest.mark.parametrize("n", range(9))
def test_exact_pieces(n):
    P = _bspline_pieces_exact(n)
    pieces = [[P[d][p] for d in range(n + 1)] for p in range(n + 1)]
    zero = [Fraction(0)] * (n + 1)
    # partition of unity: the pieces sum to the constant polynomial 1
    assert [sum(row) for row in P] == [1] + [0] * n
    # C^(n-1) joins, the pieces outside 0..n counting as 0
    for p in range(-1, n + 1):
        left = pieces[p] if p >= 0 else zero
        right = pieces[p + 1] if p < n else zero
        for r in range(n):
            assert poly_derivative_at(left, r, 1) == poly_derivative_at(right, r, 0)
    # constant terms are the integer samples
    assert P[0] == list(bspline_integer_samples(n)[: n + 1])
    # the reflection B_n(p + 1 - f) = B_n(n - p + f) that bspline_filtered
    # uses for offsets above 1/2: coefficient k of piece p at 1 - f
    for p in range(n + 1):
        reflected = [
            sum((pieces[p][d] * math.comb(d, k) * (-1) ** k for d in range(k, n + 1)), Fraction(0))
            for k in range(n + 1)
        ]
        assert reflected == pieces[n - p]


@pytest.mark.parametrize("n", range(5))
def test_non_finite_gives_nan(n):
    bad = [float("nan"), np.inf, -np.inf]
    for v in bad:
        assert math.isnan(bspline_natural(n, v))
    u = np.array(bad + [0.5])
    got = bspline_natural(n, u)
    filtered = bspline_filtered(n, u, [1.0, -2.0, 3.0], -1)
    assert np.all(np.isnan(got[:3])) and np.isfinite(got[3])
    assert np.all(np.isnan(filtered[:3])) and np.isfinite(filtered[3])


def test_natural_matches_exact():
    for n in range(6):
        u = dyadic_points(-2, n + 3)
        assert rel_err(bspline_natural(n, u), exact_filtered(n, u, [1], 0)) <= 1e-13
    assert type(bspline_natural(3, np.array(1.5))) is float


def test_derivative_matches_exact():
    for n in (3, 5, 7):
        u = dyadic_points(-2, n + 3)
        for r in range(1, n):
            row = [(-1) ** i * math.comb(r, i) for i in range(r + 1)]
            ref = exact_filtered(n - r, u, row, 0)
            assert rel_err(bspline_derivative(n, r, u), ref) <= 1e-13
    assert type(bspline_derivative(3, 1, np.float64(1.5))) is float


def exact_wavelet(sys, x, sign):
    """gamma/2^n sum_j lambda_j/(2 (-1)^j) [D(u+j) + sign D(u-j)], D exact."""
    n = sys.n
    row = [(-1) ** i * math.comb(n + 1, i) for i in range(n + 2)]
    u = 2 * np.asarray(x) + n
    acc = np.zeros(u.size)
    for j in range(n + 1):
        w = sys.lam[j] / (2.0 * (-1.0) ** j)
        acc += w * (exact_filtered(n, u + j, row, 0) + sign * exact_filtered(n, u - j, row, 0))
    return wavelet_gamma(sys) / 2.0**n * acc


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_wavelet_matches_exact(n):
    sys = bl_system(n)
    x = dyadic_points(-n - 2, n + 3)
    for sign in (1.0, -1.0):
        ref = exact_wavelet(sys, x, sign)
        assert rel_err(wavelet_localized(sys, x, sign=sign), ref) <= 1e-12
    assert type(wavelet_localized(bl_system(n), np.array(0.25))) is float


def test_frac_bspline_scalar_is_float():
    assert type(frac_bspline(FractionalSpline(alpha=1.5), np.array(1.25))) is float
