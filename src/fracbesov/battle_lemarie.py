"""Battle-Lemarie data of natural order n and the localized spline pair.

The construction goes through the autocorrelation symbol
P_n(w) = sum_j B_{2n+1}(n+1+j) e^{ijw}, whose negative reciprocal root pairs
{-r_j, -1/r_j} define the orthonormalization factor A_n(w) =
prod_j (1 + e^{iw} r_j) with beta_n^2 P_n(w) = |A_n(w)|^2.  The localized
scaling function is beta_n B_n.  The localized wavelet is a finite
cosine-weighted combination of translates of D = B_{2n+1}^(n+1) =
Delta^(n+1) B_n, so it is itself a spline of order n on the integers of
u = 2x + n: one splines.bspline_filtered pass with a 3n+2 tap filter,
which folds the taps into the pp-form coefficients of its 4n+2 intervals
once per call and takes n Horner steps per point.  Translates take x - k.
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

    @property
    def Lambda_dprime(self) -> float:
        return float(np.prod([(1.0 + r) * (1.0 - r * r) for r in self.roots]))


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
def bl_system(n: int) -> BLSystem:
    """The frozen Battle-Lemarie data of order n, built once per order."""
    roots = euler_frobenius_roots(n)
    beta_n = float(np.prod([1.0 + r for r in roots]))
    return BLSystem(n=n, roots=tuple(roots), beta_n=beta_n, lam=tuple(lambda_coeffs(roots)))


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
    """Phi_n(x) = beta_n B_n(x) on [0, n+1]; the translate Phi_{n,k} is Phi_n(x - k)."""
    return sys.beta_n * bspline_natural(sys.n, x)


def wavelet_gamma(sys: BLSystem) -> float:
    """gamma_n = [r_1 ... r_n] beta_n 2^{-n} (-1)^{n+1}."""
    return float(np.prod(sys.roots)) * sys.beta_n * 2.0**-sys.n * (-1.0) ** ((sys.n + 1) % 2)


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


@lru_cache(maxsize=64)
def _wavelet_taps(sys: BLSystem, sign: float) -> np.ndarray:
    """Coefficients d_k, k = -n..2n+1, with Psi = gamma/2^n sum_k d_k B_n(u - k).

    D = B_{2n+1}^(n+1) = sum_{i=0}^{n+1} (-1)^i binom(n+1, i) B_n(. - i),
    so d is translate_weights reversed (the weights of D(u - t), t = -n..n)
    convolved with that signed binomial row.  Built once per (sys, sign)
    and returned read-only.
    """
    row = [(-1.0) ** i * math.comb(sys.n + 1, i) for i in range(sys.n + 2)]
    d = np.convolve(translate_weights(sys, sign)[::-1], row)
    d.flags.writeable = False
    return d


def wavelet_localized(sys: BLSystem, x, sign: float = 1.0):
    """Psi_n, the localized Battle-Lemarie wavelet.

    Psi(x) = gamma/2^n * sum_j lambda_j/(2 (-1)^j)
             [D(u+j) + sign * D(u-j)],  D = B_{2n+1}^{(n+1)},  u = 2x+n.

    Every translate of D is a difference of B_n, so Psi is the order-n
    spline gamma/2^n sum_k d_k B_n(u - k) with the 3n+2 taps of
    _wavelet_taps on k = -n..2n+1, evaluated exactly in one bspline_filtered
    pass.  The formula's support is [-n, n+1]; the translate
    Psi_{n,k,s}(x) is (-1)^k Psi_n(x - s).
    """
    u = 2.0 * np.asarray(x, dtype=float) + sys.n
    return wavelet_gamma(sys) / 2.0**sys.n * bspline_filtered(
        sys.n, u, _wavelet_taps(sys, sign), -sys.n
    )


def _bhat_sq(omega: np.ndarray, n: int) -> np.ndarray:
    """|B_n-hat(w)|^2 = (sin(w/2) / (w/2))^(2n+2)."""
    half = omega / 2.0
    core = np.ones_like(half)
    nz = half != 0.0
    core[nz] = np.sin(half[nz]) / half[nz]
    return core ** (2 * n + 2)


def orthonormality_residual(sys: BLSystem, omega: float, M: int = 64) -> float:
    """|sum_{|m| <= M} |phi_hat(w + 2 pi m)|^2 - 1|.

    phi_hat = beta_n B_hat_n / A_n; both A_n and |sin(w/2)| are
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
