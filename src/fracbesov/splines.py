"""Natural B-splines, causal and anticausal fractional B-splines, and the
integer samples of the symmetric fractional B-spline.

The causal spline of order alpha > 0 is the locally finite series

    beta_plus(x) = 1/Gamma(alpha+1) * sum_k (-1)^k binom(alpha+1, k) (x-k)_+^alpha,

and the anticausal one is its reflection; both are evaluated by
beta_plus_filtered, the package's one fractional evaluator.  Natural orders
are always routed to bspline_filtered, never to the fractional series: on
each integer interval a natural spline is one polynomial in the offset
(de Boor's pp-form), whose coefficients come from the exact rational pieces
of B_n, computed once per order, convolved with the spline's taps once per
call and evaluated by Horner's rule at each point.  The symmetric spline
beta_*^alpha enters only through its integer samples, which the wavelet
filters use; they come by Poisson summation: the lattice sum in their
Fourier transform is a pair of Hurwitz zeta values in closed form, and one
inverse FFT leaves only aliasing error O(N^(-alpha-2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .specfun import gbinom_row, hurwitz_zeta

VARIANTS = ("causal", "anticausal")


class TruncationError(RuntimeError):
    """The psi lattice-tail estimate of frac_wavelets exceeded its tolerance."""


@dataclass(frozen=True)
class FractionalSpline:
    """A one-sided fractional B-spline beta^alpha translated by shift_k.

    alpha > 0; variant is "causal" (beta_+^alpha, zero left of shift_k) or
    "anticausal" (its reflection, zero right of shift_k).
    """

    alpha: float
    variant: str = "causal"
    shift_k: int = 0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")


def _is_nat(a: float) -> bool:
    return a == math.floor(a) and a >= 0


# ---------------------------------------------------------------------------
# natural B-splines
# ---------------------------------------------------------------------------

def _bspline_pieces_exact(n: int) -> list[list[Fraction]]:
    """P[d][p] with B_n(f + p) = sum_d P[d][p] f^d on 0 <= f < 1, p = 0..n.

    The Cox-de Boor recursion k! B_k(f + p) = (f + p) (k-1)! B_{k-1}(f + p)
    + (k + 1 - p - f) (k-1)! B_{k-1}(f + p - 1) on the integer coefficient
    lists of the pieces, from 0! B_0 = [1] on p = 0, divided by n! at the end.
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
    nf = math.factorial(n)
    return [[Fraction(P[p][d], nf) for p in range(n + 1)] for d in range(n + 1)]


@lru_cache(maxsize=None)
def _bspline_pieces(n: int) -> np.ndarray:
    """The exact pieces of B_n rounded once: an (n + 1, n + 1) array P[d, p]."""
    P = np.array(_bspline_pieces_exact(n), dtype=float)
    P.flags.writeable = False
    return P


def _shaped(out: np.ndarray, u: np.ndarray) -> np.ndarray | float:
    """The flat values out in the shape of u; a Python float for 0-d u."""
    out = out.reshape(u.shape)
    return float(out) if out.ndim == 0 else out


def bspline_filtered(n: int, u, c, k0: int) -> np.ndarray | float:
    """sum_i c[i] B_n(u - k0 - i) at every point of u.

    This is the natural-order spline with coefficients c on the integers
    k0, k0 + 1, ...  Each point splits exactly into u = m + f, m = floor(u),
    and B_n is nonzero at f + p only for p = 0..n (B_0 is the indicator of
    [0, 1)), so on the integer interval j = m - k0 the spline is one
    polynomial in the offset f (de Boor's pp-form):

        out = sum_{d=0}^{n} f^d sum_{p=0}^{n} P[d, p] c[j - p],

    taps outside c counting as 0, with P the pieces of _bspline_pieces.
    By the symmetry B_n(p + f) = B_n(n - p + (1 - f)) the same polynomial
    is sum_d (1 - f)^d sum_p P[d, n - p] c[j - p], and a point with
    f > 1/2 uses that form, so the Horner variable never exceeds 1/2 and
    is exact; the knots (f = 0) read the rounded constant terms.  Per call
    the taps are convolved with the pieces into a table with one column
    per interval j = -1..len(c) + n for each form (the edge columns are 0),
    2 (n + 1)^2 (len(c) + n + 2) multiply-adds; per point one column is
    read and n Horner steps are taken, whatever the length of c.
    Non-finite u give NaN; a 0-d u gives a Python float.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    u = np.asarray(u, dtype=float)
    c = np.asarray(c, dtype=float)
    flat = u.ravel()
    m = np.floor(flat)
    with np.errstate(invalid="ignore"):  # inf - inf: NaN, marked below
        f = flat - m
    # column j + 1 holds sum_p P[d, p] c[j - p] (windows of n + 1 taps of c
    # padded by n + 1 zeros on each side, reversed against the pieces), and
    # column width + j + 1 holds sum_p P[d, n - p] c[j - p]
    width = c.size + n + 2
    cpad = np.concatenate([np.zeros(n + 1), c, np.zeros(n + 1)])
    windows = cpad[np.arange(n + 1)[:, None] + np.arange(width)]
    pieces = _bspline_pieces(n)
    table = np.concatenate([pieces[:, ::-1] @ windows, pieces @ windows], axis=1)
    right = f > 0.5
    v = np.where(right, 1.0 - f, f)
    # the float clip (fmax/fmin map NaN to the edge) keeps every index in range
    col = np.fmin(np.fmax(m - (k0 - 1), 0.0), width - 1).astype(np.intp)
    col += right * width
    out = table[n][col]
    for d in range(n - 1, -1, -1):
        out *= v
        out += table[d][col]
    out[np.isnan(f)] = np.nan
    return _shaped(out, u)


def bspline_natural(n: int, x):
    """B_n, supported on [0, n+1]; B_0 = indicator of [0, 1).

    The single-coefficient case of bspline_filtered.
    """
    return bspline_filtered(n, x, np.ones(1), 0)


@lru_cache(maxsize=64)
def bspline_integer_samples(n: int) -> tuple[Fraction, ...]:
    """Exact rational values (B_n(0), ..., B_n(n+1)): the constant terms of
    the pieces p = 0..n of _bspline_pieces_exact, then B_n(n+1) = 0."""
    return (*_bspline_pieces_exact(n)[0], Fraction(0))


def bspline_derivative(n: int, order: int, x):
    """Exact order-th derivative of B_n via the difference of lower orders.

    B_n^(r)(x) = sum_{i=0}^{r} (-1)^i binom(r, i) B_{n-r}(x - i), one
    bspline_filtered pass with the signed binomial row; requires r <= n - 1
    so the result is at least continuous.
    """
    if order < 0 or order > n - 1:
        raise ValueError(f"derivative order {order} not in [0, {n - 1}] for B_{n}")
    row = [(-1.0) ** i * math.comb(order, i) for i in range(order + 1)]
    return bspline_filtered(n - order, x, row, 0)


# ---------------------------------------------------------------------------
# fractional B-splines
# ---------------------------------------------------------------------------

# elements of working memory per block of the lattice evaluator (32 MB)
_BLOCK = 4_000_000


def _toeplitz_product(A: np.ndarray, h: np.ndarray, n0: int, n1: int) -> np.ndarray:
    """out[:, n - n0] = sum_j A[:, j] h[n - j] for n0 <= n < n1.

    The sum runs over 0 <= j < A.shape[1] and 0 <= n - j < h.size: the rows
    of A causally convolved with h, columns n0..n1-1 only.  Each block of
    columns is one product with a slice of the lower-triangular Toeplitz
    matrix of h, a strided view of at most _BLOCK elements, so every output
    entry is a plain dot product over its own terms.  A single coefficient
    only scales the columns n0..n1-1 of A.
    """
    if h.size == 1:
        return h[0] * A[:, n0:n1]
    out = np.zeros((A.shape[0], n1 - n0))
    step = max(1, _BLOCK // max(1, min(A.shape[1], n1 - n0 + h.size)))
    for c0 in range(n0, n1, step):
        c1 = min(n1, c0 + step)
        j0, j1 = max(0, c0 - h.size + 1), min(A.shape[1], c1)
        if j0 >= j1:
            continue
        # lags c - j run from c0 - j1 + 1 to c1 - 1 - j0; L[j, c] = h[c - j]
        lags = np.arange(c0 - j1 + 1, c1 - j0)
        inside = (lags >= 0) & (lags < h.size)
        band = np.where(inside, h[np.clip(lags, 0, h.size - 1)], 0.0)
        L = np.lib.stride_tricks.sliding_window_view(band, c1 - c0)[::-1]
        out[:, c0 - n0 : c1 - n0] = A[:, j0:j1] @ L
    return out


def beta_plus_table(alpha: float, f: np.ndarray, mmax: int) -> np.ndarray:
    """T[i, m] = beta_+^alpha(f[i] + m) for offsets 0 <= f[i] < 1, m = 0..mmax.

    For a fixed offset f the series is a causal convolution on the lattice
    f + N (Unser & Blu, SIAM Rev. 2000):

        beta_+^alpha(f + m) = 1/Gamma(alpha+1) sum_{k=0}^{m} (-1)^k binom(alpha+1, k) (f + m - k)^alpha,

    so the powers (f + j)^alpha are raised once per offset and the signed
    binomial row is applied as a lower-triangular Toeplitz product.  Only
    k <= m enters, so no clipped (y-k)_+ = 0 term is ever raised to the
    power alpha, which keeps lowered orders alpha in (-1, 0) finite; the
    one remaining zero base, f = 0 at m = k, is the truncated power at 0
    and counts as 0, the left limit.  Each entry is summed over its own
    terms as in the series, so its rounding error is that of the series
    at the same point, independent of mmax.  Working memory is the two
    (len(f), mmax+1) arrays plus one Toeplitz block of at most _BLOCK
    elements; callers bound len(f) * (mmax+1) themselves.  Cost is
    len(f) * (mmax+1) powers and about len(f) * mmax^2 / 2 multiply-adds.
    """
    f = np.asarray(f, dtype=float)
    coeffs = gbinom_row(alpha + 1.0, mmax)
    coeffs[1::2] *= -1.0
    coeffs /= math.gamma(alpha + 1.0)
    with np.errstate(divide="ignore"):
        G = (f[:, None] + np.arange(mmax + 1)) ** alpha
    G[f == 0.0, 0] = 0.0
    return _toeplitz_product(G, coeffs, 0, mmax + 1)


def beta_plus_filtered(alpha: float, u, h, k0: int) -> np.ndarray | float:
    """sum_i h[i] beta_+^alpha(u - k0 - i) at every point of u.

    The one-sided spline with coefficients h on the integers k0, k0 + 1,
    ...; every causal and anticausal series (the spline, its derivatives,
    psi, Psi) is one call.  Natural orders go to bspline_filtered, the
    exact B_n.  Otherwise each point splits exactly into u = m + f,
    m = floor(u), and every argument u - k0 - i shares its offset f.  The
    distinct offsets are tabulated once by beta_plus_table on m = 0..max(m)
    - k0, the rows are convolved with h, and each point reads column m - k0
    of its offset's row (exactly 0 where m - k0 < 0).  Offsets are taken in
    chunks so that the table and its convolution hold at most _BLOCK
    elements each.  The output has the shape of u (a Python float for 0-d
    u); non-finite u give NaN.
    """
    if _is_nat(alpha):
        return bspline_filtered(int(alpha), u, h, k0)
    u = np.asarray(u, dtype=float)
    h = np.asarray(h, dtype=float)
    flat = u.ravel()
    finite = np.isfinite(flat)
    out = np.where(finite, 0.0, np.nan)
    # floor(u) >= k0 exactly when u >= k0; NaN and +-inf are never live
    live = np.flatnonzero(finite & (flat >= k0))
    if live.size == 0:
        return _shaped(out, u)
    m = np.floor(flat[live])
    offsets, row = np.unique(flat[live] - m, return_inverse=True)
    col = m.astype(np.intp) - k0
    mmax, n0 = int(col.max()), int(col.min())
    rows = max(1, _BLOCK // (mmax + 1))
    for r0 in range(0, offsets.size, rows):
        T = beta_plus_table(alpha, offsets[r0 : r0 + rows], mmax)
        C = _toeplitz_product(T, h, n0, mmax + 1)
        sel = (row >= r0) & (row < r0 + rows)
        out[live[sel]] = C[row[sel] - r0, col[sel] - n0]
    return _shaped(out, u)


@lru_cache(maxsize=32)
def beta_star_integer_samples(alpha: float, mmax: int) -> np.ndarray:
    """beta_*^alpha at the integers -mmax..mmax via Poisson summation.

    The sample sequence has discrete-time Fourier transform
    F(w) = |2 sin(w/2)|^s sum_j |w + 2 pi j|^(-s), s = alpha + 1, a smooth
    periodic function.  With t = w / (2 pi) in (0, 1) the lattice sum is
    (2 pi)^(-s) [zeta(s, t) + zeta(s, 1 - t)] in closed form (Hurwitz zeta,
    DLMF 25.11), so F = (|sin(pi t)| / pi)^s [zeta(s, t) + zeta(s, 1 - t)]
    and F(0) = 1.  On the grid t = k/N, N a power of two, 1 - t is exactly
    the mirrored grid point, so one zeta evaluation serves both terms.  An
    inverse FFT of the N samples of F recovers the integer values with
    aliasing error O(N^(-alpha-2)).
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    s = alpha + 1.0
    N = max(4096, 1 << int(2 * mmax + 2).bit_length())
    t = np.arange(1, N) / N
    z = hurwitz_zeta(s, t)
    F = np.empty(N)
    F[0] = 1.0
    F[1:] = (np.sin(np.pi * t) / np.pi) ** s * (z + z[::-1])
    coeffs = np.fft.ifft(F).real
    sam = coeffs[np.arange(-mmax, mmax + 1) % N]
    sam.flags.writeable = False
    return sam


def frac_bspline(spec: FractionalSpline, x):
    """Evaluate beta^alpha at x (scalar or array) for the given variant."""
    y = np.asarray(x, dtype=float) - spec.shift_k
    if spec.variant == "anticausal":
        y = -y
    return beta_plus_filtered(spec.alpha, y, np.ones(1), 0)


def frac_bspline_derivative(spec: FractionalSpline, gamma: int, x):
    """D^gamma beta^alpha = sum_j (-1)^j binom(gamma, j) beta^(alpha-gamma)(. - j).

    One beta_plus_filtered pass of the lowered order with the signed
    binomial row as its taps.  Valid down to alpha - gamma > -1/2;
    anticausal derivatives pick up the reflection sign (-1)^gamma.
    """
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    if spec.alpha - gamma <= -0.5:
        raise ValueError(
            f"order alpha-gamma = {spec.alpha - gamma} out of range (need > -1/2)"
        )
    y = np.asarray(x, dtype=float) - spec.shift_k
    if spec.variant == "anticausal":
        y = -y
    row = [(-1.0) ** j * math.comb(gamma, j) for j in range(gamma + 1)]
    acc = beta_plus_filtered(spec.alpha - gamma, y, row, 0)
    return -acc if spec.variant == "anticausal" and gamma % 2 else acc
