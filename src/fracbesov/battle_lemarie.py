"""Battle-Lemarie data of natural order n and the certified spline pair.

The autocorrelation symbol P_n(w) = sum_j B_{2n+1}(n+1+j) e^{ijw} has the
Laurent form z^n P_n(z) = prod_j (z + r_j)(z + 1/r_j) / (2n+1)! with n
roots r_j in (0, 1).  The cosine weights lambda_j of prod_j (rho_j - 2 cos t)
= sum_j (-1)^j lambda_j cos(jt), rho_j = r_j + 1/r_j, are exact integers:
at z = -e^{it} the product is (2n+1)! P_n(t + pi), so lambda_j = (2 - [j =
0]) (2n+1)! B_{2n+1}(n+1+j), an Eulerian number (doubled for j >= 1),
which splines sums exactly in Python ints from the truncated powers.

The certified pair needs the roots only through one product, which is
exact as well.  The localized pair is Phi_n = beta_n B_n and Psi_n =
gamma_n 2^-n sum_j lambda_j / (2 (-1)^j) [D(u+j) + D(u-j)], D =
B_{2n+1}^(n+1) = Delta^(n+1) B_n, u = 2x + n, with beta_n = prod_j (1 +
r_j) and gamma_n = (-1)^(n+1) beta_n prod_j r_j 2^-n; it is certified
divided by Lambda' = beta_n and Lambda'' = prod_j (1 + r_j)(1 - r_j^2).
That leaves B_n and the wavelet's constant kappa_n = gamma_n 2^-n /
Lambda'' = (-1)^(n+1) 4^-n / prod_j (1/r_j - r_j).  The Laurent form at z
= 1 and z = -1 gives prod_j (rho_j + 2) = (2n+1)! and prod_j (rho_j - 2) =
sum_j (-1)^j lambda_j = T_{2n+1}, the tangent number 2, 16, 272, ..., so
with (1/r_j - r_j)^2 = (rho_j - 2)(rho_j + 2)

    kappa_n = (-1)^(n+1) / (4^n sqrt((2n+1)! T_{2n+1})).

No root is computed: the root factorization is the independent reference
of tests/test_battle_lemarie.py.  Orders run to 8, where the largest
lambda_j (1.7e14) is still an exact float; at n = 9 it is 5.6e16 > 2^53.

The wavelet is a spline of order n on the integers of u with a 3n+2 tap
filter.  Its taps are folded into the pp-form coefficients of its 4n+2
intervals once per system (splines.bspline_ppform); each call evaluates
that table only at the points inside the support, n Horner steps per
point.  Translates take x - k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .specfun import _integer

# bspline_derivative is re-exported with the layer's other spline
# evaluators; fracbench's tracer wraps battle_lemarie.bspline_derivative
from .splines import (  # noqa: F401
    PPForm,
    _bspline_piece_int,
    bspline_derivative,
    bspline_natural,
    bspline_ppform,
    ppform_eval,
)


@dataclass(frozen=True)
class BLSystem:
    """Order n, the weights lambda_j (j = 0..n), kappa_n and the wavelet's pp-form."""

    n: int
    lam: tuple[float, ...]
    kappa: float

    @cached_property
    def wavelet(self) -> PPForm:
        """The read-only pp-form of sum_k d_k B_n(u - k), k = -n..2n+1, built
        on first read: the taps d are translate_weights reversed (the weights
        of D(u - t), t = -n..n) convolved with the signed binomial row of D =
        B_{2n+1}^(n+1) = sum_i (-1)^i binom(n+1, i) B_n(. - i)."""
        row = [(-1.0) ** i * math.comb(self.n + 1, i) for i in range(self.n + 2)]
        return bspline_ppform(self.n, np.convolve(translate_weights(self)[::-1], row), -self.n)


@lru_cache(maxsize=64, typed=True)
def bl_system(n: int) -> BLSystem:
    """The frozen Battle-Lemarie data of order n, 1 <= n <= 8, built once.

    lam holds the integers lambda_j = (2 - [j = 0]) (2n+1)! B_{2n+1}(n+1+j)
    in splines' closed form; kappa_n = (-1)^(n+1) / (4^n sqrt((2n+1)!
    T_{2n+1})) takes T_{2n+1} = sum_j (-1)^j lambda_j and the product in
    Python ints, rounded once before the square root.  The cache is typed,
    so 2.0 and True reach the check below.
    """
    n = _integer("n", n, 1, 8)
    m = 2 * n + 1
    lam = [(2 - (j == 0)) * _bspline_piece_int(m, 0, n + 1 + j) for j in range(n + 1)]
    tangent = sum((-1) ** j * l for j, l in enumerate(lam))
    kappa = (-1.0) ** (n + 1) / (4.0**n * math.sqrt(math.factorial(m) * tangent))
    return BLSystem(n=n, lam=tuple(float(l) for l in lam), kappa=kappa)


def scaling_localized(sys: BLSystem, x):
    """B_n(x) = Phi_n(x) / Lambda' on [0, n+1]; the translate is B_n(x - k)."""
    return bspline_natural(sys.n, x)


def translate_weights(sys: BLSystem) -> np.ndarray:
    """Weights w[n + j] of Psi = sum_{|j| <= n} w[n + j] f(. + j).

    lambda_j / (2 (-1)^j) on both f(. + j) and f(. - j), symmetric since
    the lambda_j are cosine weights; f is D = B_{2n+1}^(n+1) here and
    psi(. + n) in frac_wavelets.Psi_combined.
    """
    n = sys.n
    w = np.zeros(2 * n + 1)
    for j in range(n + 1):
        lam = sys.lam[j] / (2.0 * (-1.0) ** j)
        w[n + j] += lam
        w[n - j] += lam
    return w


def wavelet_localized(sys: BLSystem, x):
    """Psi_n / Lambda'', the certified Battle-Lemarie wavelet.

    kappa_n sum_k d_k B_n(u - k), u = 2x + n, with the 3n+2 taps d on
    k = -n..2n+1: the system's pp-form (sys.wavelet, built once) evaluated
    exactly at the points of u inside [-n, 3n+2), the others 0.  The
    support is [-n, n+1]; the translate Psi_{n,k,s}(x) is (-1)^k
    Psi_n(x - s).
    """
    u = 2.0 * np.asarray(x, dtype=float) + sys.n
    return sys.kappa * ppform_eval(sys.wavelet, u)
