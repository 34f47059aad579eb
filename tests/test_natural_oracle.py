"""Exact-rational oracle for the natural-order spline evaluators.

B_n is computed at dyadic points in Fractions by the two-term recursion
B_n(x) = (x B_{n-1}(x) + (n+1-x) B_{n-1}(x-1)) / n, point by point; every
float input below is dyadic, so the oracle sees exactly the arguments the
evaluators receive.  The same recursion on the integer coefficient lists
of the pieces (Cox-de Boor) is the reference of the package's closed-form
pieces and of the exact integer samples that the other test modules read.
reference_filtered is the earlier evaluator, which built its pp-form table
on every call and read every point: the evaluators that build the table
once and read only the support must match it bit for bit on the
certifier's own inputs.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbesov import frac_wavelets as fw
from fracbesov.battle_lemarie import _wavelet_taps, bl_system, wavelet_localized
from fracbesov.frac_wavelets import molecule_check, molecule_params_for, natural_system
from fracbesov.splines import (
    FractionalSpline,
    _bspline_piece_int,
    _bspline_pieces,
    _shaped,
    bspline_derivative,
    bspline_filtered,
    bspline_natural,
    frac_bspline,
)


def molecule(f, Q):
    """The molecule m_Q of f at Q = (nu, tau): x -> 2^(nu/2) f(2^nu x - tau)."""
    nu, tau = Q
    return lambda x: 2.0 ** (nu / 2.0) * f(2.0**nu * x - tau)


@lru_cache(maxsize=None)
def exact_bspline(n: int, x: Fraction) -> Fraction:
    if n == 0:
        return Fraction(1) if 0 <= x < 1 else Fraction(0)
    return (x * exact_bspline(n - 1, x) + (n + 1 - x) * exact_bspline(n - 1, x - 1)) / n


def cox_de_boor_pieces(n: int) -> list[list[int]]:
    """P[p][d] with n! B_n(f + p) = sum_d P[p][d] f^d on 0 <= f < 1, p = 0..n.

    The Cox-de Boor recursion k! B_k(f + p) = (f + p) (k-1)! B_{k-1}(f + p)
    + (k + 1 - p - f) (k-1)! B_{k-1}(f + p - 1) on the integer coefficient
    lists of the pieces, from 0! B_0 = [1] on p = 0.
    """
    P = [[1]]  # P[p][d] of k! B_k at level k, pieces p = 0..k
    for k in range(1, n + 1):
        nxt = []
        for p in range(k + 1):
            acc = [0] * (k + 1)
            if p < k:  # (f + p) B_{k-1}(f + p)
                for d, a in enumerate(P[p]):
                    acc[d] += p * a
                    acc[d + 1] += a
            if p > 0:  # (k + 1 - p - f) B_{k-1}(f + p - 1)
                for d, a in enumerate(P[p - 1]):
                    acc[d] += (k + 1 - p) * a
                    acc[d + 1] -= a
            nxt.append(acc)
        P = nxt
    return P


def integer_samples(n: int) -> tuple[Fraction, ...]:
    """Exact (B_n(0), ..., B_n(n+1)): the recursion's constant terms over n!, then 0."""
    nf = math.factorial(n)
    return (*(Fraction(piece[0], nf) for piece in cox_de_boor_pieces(n)), Fraction(0))


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
    # the closed form's constant terms, and its 0 at p = n + 1, against the
    # point recursion; the piece recursion's samples against the same
    for n in range(12):
        exact = tuple(exact_bspline(n, Fraction(j)) for j in range(n + 2))
        nf = math.factorial(n)
        assert tuple(Fraction(_bspline_piece_int(n, 0, j), nf) for j in range(n + 2)) == exact
        assert integer_samples(n) == exact


def test_closed_form_matches_recursion():
    # the ints exactly to n = 17, the order bl_system(8) reads, and the
    # float table as the rationals rounded once, as float(Fraction) does
    for n in range(18):
        P = cox_de_boor_pieces(n)
        assert [[_bspline_piece_int(n, d, p) for d in range(n + 1)] for p in range(n + 1)] == P
        if n <= 15:
            nf = math.factorial(n)
            rounded = [[float(Fraction(P[p][d], nf)) for p in range(n + 1)] for d in range(n + 1)]
            assert np.array_equal(_bspline_pieces(n), np.array(rounded))


def poly_derivative_at(coeffs, r: int, f: int) -> Fraction:
    """The r-th derivative of sum_d coeffs[d] f^d at an integer f, exactly."""
    return sum(
        (a * math.perm(d, r) * f ** (d - r) for d, a in enumerate(coeffs) if d >= r),
        Fraction(0),
    )


@pytest.mark.parametrize("n", range(9))
def test_exact_pieces(n):
    nf = math.factorial(n)
    P = [[Fraction(_bspline_piece_int(n, d, p), nf) for p in range(n + 1)] for d in range(n + 1)]
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
    assert P[0] == [exact_bspline(n, Fraction(p)) for p in range(n + 1)]
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


def exact_wavelet(sys, x):
    """sum_j lambda_j/(2 (-1)^j) [D(u+j) + D(u-j)], D exact: wavelet_localized / kappa_n."""
    n = sys.n
    row = [(-1) ** i * math.comb(n + 1, i) for i in range(n + 2)]
    u = 2 * np.asarray(x) + n
    acc = np.zeros(u.size)
    for j in range(n + 1):
        w = sys.lam[j] / (2.0 * (-1.0) ** j)
        acc += w * (exact_filtered(n, u + j, row, 0) + exact_filtered(n, u - j, row, 0))
    return acc


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_wavelet_matches_exact(n):
    sys = bl_system(n)
    x = dyadic_points(-n - 2, n + 3)
    ref = exact_wavelet(sys, x)
    assert rel_err(wavelet_localized(sys, x) / sys.kappa, ref) <= 1e-12
    assert type(wavelet_localized(bl_system(n), np.array(0.25))) is float


def test_frac_bspline_scalar_is_float():
    assert type(frac_bspline(FractionalSpline(alpha=1.5), np.array(1.25))) is float


@pytest.mark.parametrize(
    "n, k0, name",
    [(2.0, 0, "n"), (True, 0, "n"), (-1, 0, "n"), (np.float64(3.0), 0, "n"), (2, 0.5, "k0"),
     (2, 1.0, "k0"), (2, False, "k0"), (2, np.float64(-3.0), "k0")],
)
def test_bad_order_or_offset_is_refused(n, k0, name):
    # a fractional k0 used to read the wrong pieces: B_2 at 1.7 - 0.5 gave
    # 0.245 for 0.66; n = 2.0 and n = True failed inside range and indexing
    with pytest.raises(ValueError, match=name):
        bspline_filtered(n, [0.5, 1.7], [1.0], k0)
    if name == "n":
        with pytest.raises(ValueError, match=name):
            bspline_natural(n, 1.5)


@settings(derandomize=True, max_examples=60, deadline=2000)
@given(
    data=st.data(),
    n=st.integers(0, 8),
    taps=st.lists(st.integers(-9, 9), min_size=1, max_size=6),
    k0=st.integers(-40, 40),
)
def test_filtered_matches_exact_property(data, n, taps, k0):
    span = len(taps) + n
    inside = data.draw(st.lists(st.integers(0, 16 * span - 1), min_size=1, max_size=16))
    far = data.draw(st.lists(st.integers(1, 2**24), min_size=1, max_size=6))
    # dyadic points in the support, and left and right of it out to 2^20
    u = np.array(
        [k0 + t / 16 for t in inside]
        + [k0 - t / 16 for t in far]
        + [k0 + span + (t - 1) / 16 for t in far]
        + [-1e-20]
    )
    c = np.array(taps, dtype=float)
    got = bspline_filtered(n, u, c, k0)
    ref = exact_filtered(n, u, taps, k0)
    assert np.all(np.abs(got - ref) <= 1e-13 * np.sum(np.abs(c)))
    assert np.all(got[len(inside) : -1] == 0.0)
    # non-finite points give NaN, a 0-d point a float, a 2-D array its shape
    bad = bspline_filtered(n, [np.nan, np.inf, -np.inf], c, k0)
    assert np.all(np.isnan(bad))
    scalar = bspline_filtered(n, np.float64(u[0]), c, k0)
    assert type(scalar) is float and scalar == got[0]
    grid = bspline_filtered(n, np.stack([u, u[::-1]]), c, k0)
    assert grid.shape == (2, u.size)
    assert np.array_equal(grid, np.stack([got, got[::-1]]))


def reference_filtered(n: int, u, c, k0: int):
    """sum_i c[i] B_n(u - k0 - i), the table rebuilt per call and every
    point read, edge columns of zeros catching the points off the support."""
    u = np.asarray(u, dtype=float)
    c = np.asarray(c, dtype=float)
    flat = u.ravel()
    m = np.floor(flat)
    with np.errstate(invalid="ignore"):
        f = flat - m
    width = c.size + n + 2
    cpad = np.concatenate([np.zeros(n + 1), c, np.zeros(n + 1)])
    windows = cpad[np.arange(n + 1)[:, None] + np.arange(width)]
    pieces = _bspline_pieces(n)
    # bspline_ppform's sum over the taps p, in its order
    table = np.zeros((n + 1, 2 * width))
    for p in range(n + 1):
        table[:, :width] += pieces[:, n - p, None] * windows[p]
        table[:, width:] += pieces[:, p, None] * windows[p]
    right = f > 0.5
    v = np.where(right, 1.0 - f, f)
    col = np.fmin(np.fmax(m - (k0 - 1), 0.0), width - 1).astype(np.intp)
    col += right * width
    out = table[n][col]
    for d in range(n - 1, -1, -1):
        out *= v
        out += table[d][col]
    out[np.isnan(f)] = np.nan
    return _shaped(out, u)


@lru_cache(maxsize=1)
def certifier_inputs() -> np.ndarray:
    """Every point molecule_check hands the function f of m_Q = molecule(f, Q):
    the grid, the +-2^-17 points of s = 1 and the (M1) nodes of s = 0, at
    (nu, tau) = (0, 0), (1, 3), (2, -5)."""
    seen = []

    def record(y):
        seen.append(np.array(y, dtype=float))
        return np.zeros_like(y)

    for s in (0.0, 1.0):
        params = molecule_params_for(2.0, 2.0, s, 1.0, 2.0)
        for Q in ((0, 0), (1, 3), (2, -5)):
            molecule_check(molecule(record, Q), Q, params)
    return np.concatenate(seen)


@pytest.mark.parametrize("n", range(1, 9))
def test_bit_identical_to_reference(n):
    y = certifier_inputs()
    assert np.array_equal(bspline_natural(n, y), reference_filtered(n, y, [1.0], 0))
    sys = bl_system(n)
    ref = sys.kappa * reference_filtered(n, 2.0 * y + n, _wavelet_taps(sys), -n)
    assert np.array_equal(wavelet_localized(sys, y), ref)
    for r in range(1, n):
        row = [(-1.0) ** i * math.comb(r, i) for i in range(r + 1)]
        assert np.array_equal(bspline_derivative(n, r, y), reference_filtered(n - r, y, row, 0))
    odd = np.array([np.nan, np.inf, -np.inf, -0.0, -1e-20, 1e300])
    ref = reference_filtered(n, odd, [1.0], 0)
    assert np.array_equal(bspline_natural(n, odd), ref, equal_nan=True)


@pytest.mark.parametrize("n, bound", [(2, 2e-5), (3, 5.5e-10), (4, 5.5e-10)])
def test_certifier_matches_exact_derivative(n, bound):
    # bl-certify's s = 1 reports against (M3)/(M4) from the exact D^1 on the
    # same grid and envelope tables: B_n' for the scale function at nu = 0,
    # and for the wavelet kappa_n sum_k d_k B_n(2y + n - k) the derivative
    # 2 kappa_n sum_k (d * [1, -1])_k B_(n-1)(2y + n - k).  The knots lie
    # on the grid, and at s = n - 1 D^(s+1) jumps there, so the central
    # difference with step H = 2^-17 in y errs by O(H), about jump H / 4:
    # at n = 2 the reports read low by up to 1.43e-5 ((M3) 5.1348258
    # against 5.1348990, (M3*) 8.9999485 against 9), at n = 3, 4 by at
    # most 3.9e-10
    params = molecule_params_for(2.0, 2.0, 1.0, 1.0, float(n))
    env, weight = fw._grid_tables(params.M, params.delta)
    # the (M4) pairs of index strides 1, 4, 16, 64 as index arrays, in the
    # order of the certifier's weight table
    size, strides = fw._GRID_Y.size, (1, 4, 16, 64)
    ix = np.concatenate([np.arange(st, size) for st in strides])
    iy = np.concatenate([np.arange(size - st) for st in strides])
    sys, nat = bl_system(n), natural_system(n)
    taps = np.convolve(_wavelet_taps(sys), [1.0, -1.0])
    for nu, tau in ((0, 0), (1, 0), (2, 3)):
        y = fw._GRID_Y  # 2^nu x - tau on the certifier's grid, exactly
        if nu == 0:
            fn, d0, d1 = nat.scale_fn, nat.scale_fn(y), bspline_derivative(n, 1, y)
        else:
            fn, d0 = molecule(nat.wavelet_fn, (nu, tau)), nat.wavelet_fn(y)
            d1 = 2.0 * sys.kappa * bspline_filtered(n - 1, 2.0 * y + n, taps, -n)
        # the certifier reads m_Q's pull-back, f itself
        r0, r1 = (float(np.max(np.abs(d) / env)) for d in (d0, d1))
        m4 = float(np.max(np.abs(d1[ix] - d1[iy]) / weight))
        star = "" if nu >= 1 else "*"
        got = molecule_check(fn, (nu, tau), params).conditions
        want = {"M3": max(r0, r1) if nu >= 1 else r1, "M4": m4}
        for cond, ref in want.items():
            assert abs(got[cond + star]["ratio"] - ref) <= bound * ref, (nu, cond)
