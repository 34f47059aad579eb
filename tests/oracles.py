"""The reference implementations and helpers that test modules share.

Each is defined once, from its definition rather than from the program's
internals, so that a test compares two independent computations.
"""

import importlib.util
import math
import pathlib
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np

from fracbesov.battle_lemarie import bl_system, translate_weights
from fracbesov.specfun import hurwitz_zeta
from fracbesov.splines import bspline_natural, bspline_ppform, ppform_eval

# The certifier's sample: the grid y = k/16, |y| <= 25, and its (M4) pairs
# (y_i, y_j), i - j a stride, as index arrays ordered by stride, then by i
DEN, HALF = 16, 400
GRID_Y = np.arange(-HALF, HALF + 1) / DEN
STRIDES = (1, 4, 16, 64)
PAIR_I = np.concatenate([np.arange(st, GRID_Y.size) for st in STRIDES])
PAIR_J = np.concatenate([np.arange(GRID_Y.size - st) for st in STRIDES])


def molecule(f, Q):
    """The molecule m_Q of f at Q = (nu, tau): x -> 2^(nu/2) f(2^nu x - tau)."""
    nu, tau = Q
    return lambda x: 2.0 ** (nu / 2.0) * f(2.0**nu * x - tau)


def recording(f):
    """(g, calls): g returns f(x) and appends a float copy of every x it is
    handed to calls, so a test sees the points a certifier evaluates."""
    calls = []

    def g(x):
        calls.append(np.array(x, dtype=float))
        return f(x)

    return g, calls


def bl_taps(sys) -> np.ndarray:
    """The taps d_k, k = -n..2n+1, of the Battle-Lemarie wavelet's spline
    sum_k d_k B_n(u - k): translate_weights reversed, convolved with the
    signed binomial row of D = Delta^(n+1) B_n."""
    row = [(-1.0) ** i * math.comb(sys.n + 1, i) for i in range(sys.n + 2)]
    return np.convolve(translate_weights(sys)[::-1], row)


@lru_cache(maxsize=None)
def exact_bspline(n: int, x: Fraction) -> Fraction:
    """B_n(x) exactly, by B_n(x) = (x B_{n-1}(x) + (n+1-x) B_{n-1}(x-1)) / n."""
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


def euler_frobenius_roots(n: int) -> list[float]:
    """The n orthonormalization roots r_j(n) in (0, 1), ascending.

    Found as magnitudes of the negative eigen-roots of the Laurent symbol
    z^n P_n(z) (companion-matrix eigenvalues via numpy, one Newton polish).
    """
    sam = integer_samples(2 * n + 1)
    # polynomial coefficients a_0..a_{2n}, a_m = B_{2n+1}(m+1), exact rationals
    coeffs = [float(sam[m + 1]) for m in range(2 * n + 1)]
    roots = np.roots(coeffs[::-1])
    real = roots[np.abs(roots.imag) < 1e-9].real
    inside = sorted(-real[(real < 0) & (real > -1)])
    assert len(inside) == n, f"expected {n} roots in (0,1), found {len(inside)}"

    def horner(z: float) -> tuple[float, float]:
        p, dp = 0.0, 0.0
        for c in reversed(coeffs):
            dp = dp * z + p
            p = p * z + c
        return p, dp

    polished = []
    for r in inside:
        z = -r
        for _ in range(2):
            p, dp = horner(z)
            if dp != 0.0:
                z -= p / dp
        polished.append(-z)
        assert abs(horner(z)[0]) <= 1e-10
    return polished


@dataclass(frozen=True)
class RootSystem:
    """Order n, its roots r_j and the three products built from them."""

    n: int
    roots: tuple[float, ...]
    beta_n: float
    gamma_n: float
    Lambda_dprime: float


@lru_cache(maxsize=None)
def root_system(n: int) -> RootSystem:
    """The root factorization of the filter layer, the independent reference of
    bl_system's closed form: z^n P_n(z) = prod_j (z + r_j)(z + 1/r_j) / (2n+1)!
    with r_j in (0, 1), beta_n = Lambda' = prod_j (1 + r_j), gamma_n =
    (-1)^(n+1) beta_n prod_j r_j 2^-n and Lambda'' = prod_j (1 + r_j)(1 - r_j^2)."""
    roots = euler_frobenius_roots(n)
    beta_n = float(np.prod([1.0 + r for r in roots]))
    gamma_n = float(np.prod(roots)) * beta_n * 2.0**-n * (-1.0) ** ((n + 1) % 2)
    lam2 = float(np.prod([(1.0 + r) * (1.0 - r * r) for r in roots]))
    return RootSystem(n, tuple(roots), beta_n, gamma_n, lam2)


def root_pair(n: int, x):
    """The localized pair over Lambda' and Lambda'' in the root form:
    beta_n B_n / beta_n and gamma_n 2^-n S / Lambda'', S the wavelet's
    unnormalized spline."""
    ref = root_system(n)
    x = np.asarray(x, dtype=float)
    s = ppform_eval(bspline_ppform(n, bl_taps(bl_system(n)), -n), 2.0 * x + n)
    return (ref.beta_n * bspline_natural(n, x) / ref.beta_n,
            ref.gamma_n / 2.0**n * s / ref.Lambda_dprime)


def _symbol_filter(alpha, kmax, N=2**16):
    """q_k, |k| <= kmax, by one inverse FFT of the two-scale symbol.

    Q(w) = sum_k q_k e^(-ikw) = -2^(-alpha) e^(-iw) (1 - e^(iw))^(alpha+1)
    F(w + pi) on w = 2 pi m / N (Unser-Blu).  F, the DTFT of the integer
    samples of beta_*^(2 alpha + 1), is (|sin pi t| / pi)^s [zeta(s, t) +
    zeta(s, 1 - t)] with t = w / (2 pi) and s = 2 alpha + 2, and F(w + pi)
    is F rolled by N/2.  On (0, 2 pi), 1 - e^(iw) = 2 sin(w/2) e^(i(w -
    pi)/2) has argument in (-pi/2, pi/2), so numpy's principal power is
    the symbol's branch.  No binomial row, l-sum or sample index of
    wavelet_filter enters.
    """
    s = 2.0 * alpha + 2.0
    t = np.arange(1, N) / N
    z = hurwitz_zeta(s, t)
    F = np.empty(N)
    F[0] = 1.0
    F[1:] = (np.sin(np.pi * t) / np.pi) ** s * (z + z[::-1])
    w = 2.0 * np.pi * np.arange(N) / N
    Q = -(2.0**-alpha) * np.exp(-1j * w) * (1.0 - np.exp(1j * w)) ** (alpha + 1.0)
    q = np.fft.ifft(Q * np.roll(F, N // 2)).real
    return q[np.arange(-kmax, kmax + 1) % N]


def beta_plus_series(alpha, f, ms) -> list:
    """[(beta_+^alpha(f + m), sum_k |t_k|) for m in ms], 0 <= f < 1, from the
    defining series t_k = (-1)^k binom(alpha + 1, k) (f + m - k)^alpha /
    Gamma(alpha + 1), k = 0..m (Unser & Blu 2000), in mpmath at the caller's
    working precision.  The powers (f + j)^alpha are raised once for all m."""
    a, f = mpmath.mpf(alpha), mpmath.mpf(f)
    top = max(ms)
    c = [1 / mpmath.gamma(a + 1)]
    for k in range(top):
        c.append(-c[-1] * (a + 1 - k) / (k + 1))
    mags = [abs(ck) for ck in c]
    # the powers are >= 0, so sum_k |t_k| is the dot product with |c|
    powers = [(f + j) ** a for j in range(top + 1)]
    return [(mpmath.fdot(c[: m + 1], powers[m::-1]), mpmath.fdot(mags[: m + 1], powers[m::-1]))
            for m in ms]


def graded_breaks(a: float, b: float, per_unit: int = 2, levels: int = 0) -> np.ndarray:
    """Panel breakpoints on [a, b].

    Breaks sit on the 1/per_unit lattice (so spline knots at integers or
    half-integers are panel ends) and - when ``levels`` > 0 - on a
    geometric cascade of width ratios 1/2 on both sides of each lattice
    point: the offsets +-2^-g / per_unit, g = 1..levels, broadcast over the
    lattice and kept strictly inside (a, b).  Grading makes a fixed-order
    Gauss rule accurate for |x - knot|^alpha kinks.  The points are sorted
    and every point within 1e-13 of its predecessor is dropped, which also
    removes exact repeats.
    """
    if not b > a:
        raise ValueError(f"empty interval [{a}, {b}]")
    lattice = offsets = np.empty(0)
    if per_unit > 0:
        lo = int(np.ceil(a * per_unit))
        hi = int(np.floor(b * per_unit))
        lattice = np.arange(lo, hi + 1) / per_unit
        steps = 0.5 ** np.arange(1, levels + 1)
        offsets = np.concatenate([-steps, steps]) / per_unit
    graded = (lattice[:, None] + offsets).ravel()
    graded = graded[(a < graded) & (graded < b)]
    out = np.sort(np.concatenate([[a, b], lattice, graded]))
    keep = np.concatenate([[True], np.diff(out) > 1e-13])
    return out[keep]


def traced_targets() -> list:
    """fracbench/spans.py's targets(): (module, attribute, span, counter) of
    every name the benchmark's tracer patches, the file loaded by path."""
    path = pathlib.Path(__file__).resolve().parents[1] / "fracbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("fracbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.targets()
