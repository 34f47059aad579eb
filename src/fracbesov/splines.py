"""Natural B-splines, causal and anticausal fractional B-splines, and the
integer samples of the symmetric fractional B-spline.

The causal spline of order alpha > 0 is the locally finite series

    beta_plus(x) = 1/Gamma(alpha+1) * sum_k (-1)^k binom(alpha+1, k) (x-k)_+^alpha,

and the anticausal one is its reflection; both are evaluated by
beta_plus_filtered, the package's one fractional evaluator.  Natural orders
are always routed to the pp-form, never to the fractional series: on
each integer interval a natural spline is one polynomial in the offset
(de Boor's pp-form).  Its coefficients are the same series at alpha = n,
expanded in the offset and summed in Python ints, then rounded once, per
order; the samples n! B_n(p) among them are the Eulerian numbers that
battle_lemarie's weights use.  bspline_ppform convolves the coefficients
with the spline's taps into a read-only table, once per function that is
evaluated repeatedly (B_n per order here, the Battle-Lemarie wavelet per
system in battle_lemarie), and ppform_eval reads it by Horner's rule only
at the points inside the support; every other point is exactly 0.  The
symmetric spline beta_*^alpha enters only through its integer samples,
which the wavelet filters use; they come by Poisson summation: the lattice
sum in their Fourier transform is a pair of Hurwitz zeta values in closed
form, and one inverse FFT leaves only aliasing error O(N^(-alpha-2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .specfun import _integer, _order, gbinom_row, hurwitz_zeta

VARIANTS = ("causal", "anticausal")


class TruncationError(RuntimeError):
    """The psi lattice-tail estimate of frac_wavelets exceeded its tolerance."""


@dataclass(frozen=True)
class FractionalSpline:
    """A one-sided fractional B-spline beta^alpha translated by shift_k.

    0 < alpha < inf, not bool; variant is "causal" (beta_+^alpha, zero left
    of shift_k) or "anticausal" (its reflection, zero right of shift_k).
    """

    alpha: float
    variant: str = "causal"
    shift_k: int = 0

    def __post_init__(self):
        _order(self.alpha)
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")


def _is_nat(a: float) -> bool:
    return a == math.floor(a) and a >= 0


# ---------------------------------------------------------------------------
# natural B-splines
# ---------------------------------------------------------------------------

def _bspline_piece_int(n: int, d: int, p: int) -> int:
    """n! times the coefficient of f^d in B_n(f + p), 0 <= f < 1, an int.

    The natural order of the fractional series, n! B_n(x) = sum_k (-1)^k
    binom(n+1, k) (x - k)_+^n (de Boor 1978), at x = f + p: only k <= p
    enter, and the binomial theorem in f gives

        binom(n, d) sum_{k=0}^{p} (-1)^k binom(n+1, k) (p - k)^(n-d),

    with 0^0 = 1 for the term f^n of k = p.  At d = 0 it is n! B_n(p), an
    Eulerian number, and 0 at p = n + 1.
    """
    return math.comb(n, d) * sum(
        (-1) ** k * math.comb(n + 1, k) * (p - k) ** (n - d) for k in range(p + 1)
    )


@lru_cache(maxsize=None)
def _bspline_pieces(n: int) -> np.ndarray:
    """P[d, p] with B_n(f + p) = sum_d P[d, p] f^d on 0 <= f < 1, p = 0..n:
    the ints of _bspline_piece_int divided by n!, each rounded once."""
    nf, pieces = math.factorial(n), range(n + 1)
    P = np.array([[_bspline_piece_int(n, d, p) / nf for p in pieces] for d in pieces])
    P.flags.writeable = False
    return P


def _shaped(out: np.ndarray, u: np.ndarray) -> np.ndarray | float:
    """The flat values out in the shape of u; a Python float for 0-d u."""
    out = out.reshape(u.shape)
    return float(out) if out.ndim == 0 else out


class PPForm(NamedTuple):
    """The read-only pp-form of sum_i c[i] B_n(u - k0 - i) (bspline_ppform).

    table[d, j] and table[d, width + j] are the degree-d coefficients on
    the integer interval j = 0..width - 1 of the support [k0, k0 + width),
    width = len(c) + n, in the offset f and in 1 - f.
    """

    n: int
    k0: int
    table: np.ndarray


def bspline_ppform(n: int, c, k0: int) -> PPForm:
    """The pp-form of sum_i c[i] B_n(u - k0 - i), built once per function.

    B_n is nonzero at f + p, 0 <= f < 1, only for p = 0..n (B_0 is the
    indicator of [0, 1)), so on the integer interval j = floor(u) - k0 the
    spline is one polynomial in the offset f (de Boor's pp-form):

        sum_{d=0}^{n} f^d sum_{p=0}^{n} P[d, p] c[j - p],

    taps outside c counting as 0, with P the pieces of _bspline_pieces.
    By the symmetry B_n(p + f) = B_n(n - p + (1 - f)) the same polynomial
    is sum_d (1 - f)^d sum_p P[d, n - p] c[j - p].  The taps are convolved
    with the pieces into one column per interval j = 0..len(c) + n - 1 of
    the support for each form, 2 (n + 1)^2 (len(c) + n) multiply-adds,
    written as an explicit sum over p = 0..n of a column of P times the
    window of c that tap p reads.  A matrix product would be numpy's only
    BLAS-3 (gemm) call on the natural path, and its first call costs the
    process about 0.4 MB of BLAS buffers for a table of a few hundred
    entries.  The table is returned read-only.  n must be an integer >= 0
    and k0 an integer: the evaluator's support bounds assume integer knots.
    """
    n, k0 = _integer("n", n, 0), _integer("k0", k0)
    c = np.asarray(c, dtype=float)
    # column j reads the window c[j - n..j] of c padded by n zeros on each
    # side, reversed against the pieces for the offset f and taken as is
    # for 1 - f; row p of the windows is cpad[p:p + width]
    width = c.size + n
    cpad = np.concatenate([np.zeros(n), c, np.zeros(n)])
    pieces = _bspline_pieces(n)
    table = np.zeros((n + 1, 2 * width))
    left, right = table[:, :width], table[:, width:]
    for p in range(n + 1):
        window = cpad[p : p + width]
        left += pieces[:, n - p, None] * window
        right += pieces[:, p, None] * window
    table.flags.writeable = False
    return PPForm(n, k0, table)


def ppform_eval(pp: PPForm, u) -> np.ndarray | float:
    """The spline of pp at every point of u, computed only where it is nonzero.

    Points outside the support [k0, k0 + width) are exactly 0 and
    non-finite u give NaN; neither is read further.  Each live point
    splits exactly into u = m + f, m = floor(u), and reads the column of
    its interval m - k0; a point with f > 1/2 reads the 1 - f form, so the
    Horner variable never exceeds 1/2 and is exact, and the knots (f = 0)
    read the rounded constant terms.  Per live point that is one column
    and n Horner steps, whatever the length of c.  The output has the
    shape of u (a Python float for 0-d u).
    """
    u = np.asarray(u, dtype=float)
    flat = u.ravel()
    out = np.where(np.isfinite(flat), 0.0, np.nan)
    table = pp.table
    width = table.shape[1] // 2
    # NaN and +-inf are never live
    live = np.flatnonzero((flat >= pp.k0) & (flat < pp.k0 + width))
    x = flat[live]
    m = np.floor(x)
    f = x - m
    right = f > 0.5
    v = np.where(right, 1.0 - f, f)
    col = (m - pp.k0).astype(np.intp)
    col += right * width
    acc = table[pp.n][col]
    for d in range(pp.n - 1, -1, -1):
        acc *= v
        acc += table[d][col]
    out[live] = acc
    return _shaped(out, u)


@lru_cache(maxsize=64, typed=True)
def _bspline_natural_ppform(n: int) -> PPForm:
    """The pp-form of B_n, built once per order; typed, so that 2.0 and
    True reach bspline_ppform's check."""
    return bspline_ppform(n, np.ones(1), 0)


def bspline_natural(n: int, x):
    """B_n, supported on [0, n+1]; B_0 = indicator of [0, 1).

    The pp-form of the single coefficient 1 at k0 = 0, built once per
    order, read by ppform_eval.
    """
    return ppform_eval(_bspline_natural_ppform(n), x)


def bspline_derivative(n: int, order: int, x):
    """Exact order-th derivative of B_n via the difference of lower orders.

    B_n^(r)(x) = sum_{i=0}^{r} (-1)^i binom(r, i) B_{n-r}(x - i): the
    pp-form of the signed binomial row at k0 = 0, built per call and read
    by ppform_eval; requires r <= n - 1 so the result is at least
    continuous.  n and order must be integers (numpy's too, bool not); a
    ValueError names the one that is not, or the order outside [0, n - 1].
    """
    n, order = _integer("n", n), _integer("order", order)
    if order < 0 or order > n - 1:
        raise ValueError(f"derivative order {order} not in [0, {n - 1}] for B_{n}")
    row = [(-1.0) ** i * math.comb(order, i) for i in range(order + 1)]
    return ppform_eval(bspline_ppform(n - order, row, 0), x)


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
    psi, Psi) is one call.  Natural orders go to the pp-form evaluator,
    the exact B_n.  Otherwise each point splits exactly into u = m + f,
    m = floor(u), and every argument u - k0 - i shares its offset f.  The
    distinct offsets are tabulated once by beta_plus_table on m = 0..max(m)
    - k0, the rows are convolved with h, and each point reads column m - k0
    of its offset's row (exactly 0 where m - k0 < 0).  Offsets are taken in
    chunks so that the table and its convolution hold at most _BLOCK
    elements each.  The output has the shape of u (a Python float for 0-d
    u); non-finite u give NaN.
    """
    if _is_nat(alpha):
        return ppform_eval(bspline_ppform(int(alpha), h, k0), u)
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
    aliasing error O(N^(-alpha-2)).  An alpha outside (0, inf), or an mmax
    that is not an integer >= 0 (either one a bool), raises ValueError
    naming it.  So does an alpha whose lattice sum overflows: zeta(s, 1/N)
    exceeds N^s = 2^(s log2 N), so s log2 N must stay below 1024, alpha <
    84.33 at N = 4096.
    """
    _order(alpha)
    mmax = _integer("mmax", mmax, 0)
    s = alpha + 1.0
    N = max(4096, 1 << int(2 * mmax + 2).bit_length())
    if s * (N.bit_length() - 1) >= 1024:
        raise ValueError(f"alpha must be below {1024 / (N.bit_length() - 1) - 1:g} for "
                         f"{N} Poisson samples, got {alpha!r}")
    t = np.arange(1, N) / N
    z = hurwitz_zeta(s, t)
    F = np.empty(N)
    F[0] = 1.0
    F[1:] = (np.sin(np.pi * t) / np.pi) ** s * (z + z[::-1])
    coeffs = np.fft.ifft(F).real
    return coeffs[np.arange(-mmax, mmax + 1) % N]


def frac_bspline(spec: FractionalSpline, x):
    """Evaluate beta^alpha at x (scalar or array) for the given variant."""
    y = np.asarray(x, dtype=float) - spec.shift_k
    if spec.variant == "anticausal":
        y = -y
    return beta_plus_filtered(spec.alpha, y, np.ones(1), 0)

