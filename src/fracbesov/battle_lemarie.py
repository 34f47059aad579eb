"""Battle-Lemarie data of natural order n and the localized spline pair.

The construction goes through the autocorrelation symbol
P_n(w) = sum_j B_{2n+1}(n+1+j) e^{ijw}, whose negative reciprocal root pairs
{-r_j, -1/r_j} define the orthonormalization factor A_n(w) =
prod_j (1 + e^{iw} r_j) with beta_n^2 P_n(w) = |A_n(w)|^2.  The localized
scaling function is beta_n B_n(. - k).  The localized wavelet is a finite
cosine-weighted combination of translates of D = B_{2n+1}^(n+1) =
Delta^(n+1) B_n, so it is itself a spline of order n on the integers of
u = 2(x - s) + n: one splines.bspline_filtered pass with a 3n+2 tap filter,
which folds the taps into the pp-form coefficients of its 4n+2 intervals
once per call and takes n Horner steps per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# bspline_derivative is re-exported with the layer's other spline
# evaluators; fracbench's tracer wraps battle_lemarie.bspline_derivative
from .splines import (  # noqa: F401
    bspline_derivative,
    bspline_filtered,
    bspline_integer_samples,
    bspline_natural,
)


class RootFindingError(RuntimeError):
    pass


@dataclass(frozen=True)
class BLSystem:
    n: int
    roots: tuple[float, ...]
    beta_n: float
    lam: tuple[float, ...]
    shift_k: int = 0
    shift_s: int = 0

    @property
    def Lambda_prime(self) -> float:
        return float(np.prod([1.0 + r for r in self.roots]))

    @property
    def Lambda_dprime(self) -> float:
        return float(np.prod([(1.0 + r) * (1.0 - r * r) for r in self.roots]))

    @property
    def root_product(self) -> float:
        return float(np.prod(self.roots))


def autocorrelation_symbol(n: int, omega) -> np.ndarray:
    """P_n(w) = sum_{|j| <= n} B_{2n+1}(n+1+j) cos(jw) (real by symmetry)."""
    omega = np.asarray(omega, dtype=float)
    sam = bspline_integer_samples(2 * n + 1)
    out = np.full_like(omega, float(sam[n + 1]))
    for j in range(1, n + 1):
        out += 2.0 * float(sam[n + 1 + j]) * np.cos(j * omega)
    return out


def euler_frobenius_roots(n: int) -> list[float]:
    """The n orthonormalization roots r_j(n) in (0, 1), ascending.

    Found as magnitudes of the negative eigen-roots of the Laurent symbol
    z^n P_n(z) (companion-matrix eigenvalues via numpy, one Newton polish).
    """
    if not 1 <= n <= 8:
        raise ValueError("desk scale supports 1 <= n <= 8")
    sam = bspline_integer_samples(2 * n + 1)
    # polynomial coefficients a_0..a_{2n}, a_m = B_{2n+1}(m+1), exact rationals
    coeffs = [float(sam[m + 1]) for m in range(2 * n + 1)]
    roots = np.roots(coeffs[::-1])
    real = roots[np.abs(roots.imag) < 1e-9].real
    inside = sorted(-real[(real < 0) & (real > -1)])
    if len(inside) != n:
        raise RootFindingError(
            f"expected {n} roots in (0,1), found {len(inside)} (roots={roots})"
        )

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
        p, _ = horner(z)
        if abs(p) > 1e-10:
            raise RootFindingError(f"Newton polish residual {p:g} at root {z:g}")
    return polished


def lambda_coeffs(roots) -> list[float]:
    """Cosine coefficients lambda_j with
    prod_j (rho_j - 2 cos t) = sum_j (-1)^j lambda_j cos(j t), rho_j = r_j + 1/r_j.

    Chebyshev product reduction: multiplying a cos-polynomial by cos t maps
    coefficient mu_j into (mu_{j-1} + mu_{j+1})/2 with folding at j = 0.
    """
    roots = list(roots)
    if any(not 0.0 < r < 1.0 for r in roots):
        raise ValueError("all roots must lie in (0,1)")
    mu = np.zeros(len(roots) + 1)
    mu[0] = 1.0
    deg = 0
    for r in roots:
        rho = r + 1.0 / r
        cos_mu = np.zeros_like(mu)
        # cos * cos(j t) expansion, folded at zero
        cos_mu[1] += mu[0]
        for j in range(1, deg + 1):
            cos_mu[j + 1] += 0.5 * mu[j]
            cos_mu[abs(j - 1)] += 0.5 * mu[j]
        mu = rho * mu - 2.0 * cos_mu
        deg += 1
    lam = [((-1.0) ** j) * mu[j] for j in range(len(mu))]
    return lam


@lru_cache(maxsize=64)
def bl_system(n: int, shift_k: int = 0, shift_s: int = 0) -> BLSystem:
    """The frozen Battle-Lemarie data of order n, built once per argument set."""
    roots = euler_frobenius_roots(n)
    beta_n = float(np.prod([1.0 + r for r in roots]))
    lam = lambda_coeffs(roots)
    return BLSystem(
        n=n,
        roots=tuple(roots),
        beta_n=beta_n,
        lam=tuple(lam),
        shift_k=shift_k,
        shift_s=shift_s,
    )


def orthonormalizer(sys: BLSystem, omega) -> np.ndarray:
    """|A_n(w)|^2 = prod_j |1 + e^{iw} r_j|^2."""
    omega = np.asarray(omega, dtype=float)
    out = np.ones_like(omega)
    for r in sys.roots:
        out *= 1.0 + r * r + 2.0 * r * np.cos(omega)
    return out


def factorization_residual(sys: BLSystem, n_grid: int = 1024) -> float:
    """max_w |beta_n^2 P_n(w) - |A_n(w)|^2| over a uniform grid."""
    om = np.linspace(0.0, 2.0 * math.pi, n_grid, endpoint=False)
    lhs = sys.beta_n**2 * autocorrelation_symbol(sys.n, om)
    return float(np.max(np.abs(lhs - orthonormalizer(sys, om))))


def scaling_localized(sys: BLSystem, x):
    """Phi_{n,k}(x) = beta_n B_n(x - k), supported on [k, k+n+1]."""
    return sys.beta_n * bspline_natural(sys.n, np.asarray(x, dtype=float) - sys.shift_k)


def wavelet_gamma(sys: BLSystem) -> float:
    """gamma_{n,k} = [r_1 ... r_n] beta_n 2^{-n} (-1)^{n+1+k}."""
    return (
        sys.root_product
        * sys.beta_n
        * 2.0**-sys.n
        * (-1.0) ** ((sys.n + 1 + sys.shift_k) % 2)
    )


def translate_weights(sys: BLSystem, sign: float) -> np.ndarray:
    """Weights w[n + j] of Psi = sum_{|j| <= n} w[n + j] f(. + j).

    lambda_j / (2 (-1)^j) on f(. + j) and sign times that on f(. - j); f is
    D = B_{2n+1}^(n+1) here and psi(. + n) in frac_wavelets.Psi_combined.
    """
    n = sys.n
    w = np.zeros(2 * n + 1)
    for j in range(n + 1):
        lam = sys.lam[j] / (2.0 * (-1.0) ** j)
        w[n + j] += lam
        w[n - j] += sign * lam
    return w


def _wavelet_taps(sys: BLSystem, sign: float) -> np.ndarray:
    """Coefficients d_k, k = -n..2n+1, with Psi = gamma/2^n sum_k d_k B_n(u - k).

    D = B_{2n+1}^(n+1) = sum_{i=0}^{n+1} (-1)^i binom(n+1, i) B_n(. - i),
    so d is translate_weights reversed (the weights of D(u - t), t = -n..n)
    convolved with that signed binomial row.
    """
    row = [(-1.0) ** i * math.comb(sys.n + 1, i) for i in range(sys.n + 2)]
    return np.convolve(translate_weights(sys, sign)[::-1], row)


def wavelet_localized(sys: BLSystem, x, sign: float = 1.0):
    """Psi_{n,k,s}, the localized Battle-Lemarie wavelet.

    Psi(x) = gamma/2^n * sum_j lambda_j/(2 (-1)^j)
             [D(u+j) + sign * D(u-j)],  D = B_{2n+1}^{(n+1)},  u = 2(x-s)+n.

    Every translate of D is a difference of B_n, so Psi is the order-n
    spline gamma/2^n sum_k d_k B_n(u - k) with the 3n+2 taps of
    _wavelet_taps on k = -n..2n+1, evaluated exactly in one bspline_filtered
    pass.  The formula's support is [s-n, s+n+1].
    """
    scalar = np.isscalar(x) or np.ndim(x) == 0
    u = 2.0 * (np.asarray(x, dtype=float) - sys.shift_s) + sys.n
    out = wavelet_gamma(sys) / 2.0**sys.n * bspline_filtered(
        sys.n, u, _wavelet_taps(sys, sign), -sys.n
    )
    return float(out) if scalar else out


def wavelet_support(sys: BLSystem) -> tuple[float, float]:
    """Support interval implied by the assembled formula: [s-n, s+n+1]."""
    return (sys.shift_s - sys.n, sys.shift_s + sys.n + 1.0)


def _bhat_sq(omega: np.ndarray, n: int) -> np.ndarray:
    """|B_n-hat(w)|^2 = (sin(w/2) / (w/2))^(2n+2)."""
    half = omega / 2.0
    core = np.ones_like(half)
    nz = half != 0.0
    core[nz] = np.sin(half[nz]) / half[nz]
    return core ** (2 * n + 2)


def orthonormality_residual(sys: BLSystem, omega: float, M: int = 64) -> float:
    """|sum_{|m| <= M} |phi_hat(w + 2 pi m)|^2 - 1|.

    phi_hat = beta_n B_hat_{n,k} / A_n; both A_n and |sin(w/2)| are
    2 pi periodic, so the shifted terms differ only in the 1/|w + 2 pi m|
    factors.
    """
    if M < 10:
        raise ValueError("M must be >= 10")
    ms = np.arange(-M, M + 1)
    shifted = omega + 2.0 * math.pi * ms
    total = float(np.sum(_bhat_sq(shifted, sys.n)))
    denom = float(orthonormalizer(sys, np.array([omega]))[0])
    return abs(sys.beta_n**2 * total / denom - 1.0)
