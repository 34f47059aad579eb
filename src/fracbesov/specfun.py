"""The Hurwitz zeta function and rows of generalized binomials.

The generalized binomial binom(u, k) = Gamma(u+1) / (Gamma(k+1) Gamma(u-k+1))
with real upper argument is the workhorse of every fractional-spline series
in this package; gbinom_row gives k = 0..kmax by the running product, which
for natural u degenerates to the ordinary binomial (zero beyond k = u).
hurwitz_zeta gives the closed-form lattice sums of the symmetric spline's
Poisson samples.  The package's argument rules live here, in its bottom
layer, so that every layer checks its arguments the same way: _real for a
real number in a range, _order for a spline order alpha and _integer for
an integer in a range, each raising ValueError naming the argument.
"""

from __future__ import annotations

import math

import numpy as np

# Euler-Maclaurin for Hurwitz zeta: direct terms, then B_2, B_4, ..., B_14
_ZETA_DIRECT = 12
_ZETA_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


def _real(name: str, value, need: str, within) -> None:
    """ValueError "name must need, got value" unless value is a real number
    for which within(value) holds.

    Python and numpy integers and floats count; bool, NaN and anything
    else do not.  within is the caller's range check, and need says it in
    words.  The test is on the concrete types, as in _integer.
    """
    if not (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool) and value == value and within(value)):
        raise ValueError(f"{name} must {need}, got {value!r}")


def _order(alpha) -> None:
    """ValueError naming alpha unless it is a finite number > 0, not bool."""
    _real("alpha", alpha, "be positive and finite", lambda a: 0 < a < math.inf)


def _integer(name: str, value, lo: int | None = None, hi: int | None = None) -> int:
    """int(value) if value is an integer in [lo, hi], a bound of None open.

    Python and numpy integers count, bool does not; anything else raises
    ValueError naming the argument and its bounds.  The test is on the
    concrete types: a numbers.Integral check costs 2.5 us, which
    molecule_check would pay on every report.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        v = int(value)
        if (lo is None or v >= lo) and (hi is None or v <= hi):
            return v
    bounds = "" if lo is None else f" >= {lo}" if hi is None else f" in {lo}..{hi}"
    raise ValueError(f"{name} must be an integer{bounds}, got {value!r}")


def hurwitz_zeta(s: float, a):
    """Hurwitz zeta(s, a) = sum_{k>=0} (a + k)^(-s) for real 1 < s < inf, 0 < a < inf.

    Euler-Maclaurin (DLMF 25.11): the first 12 terms directly, then with
    x = a + 12 the integral x^(1-s)/(s-1), the half term x^(-s)/2 and the
    Bernoulli terms B_2j/(2j)! s(s+1)...(s+2j-2) x^(-s-2j+1), j = 1..7.
    Measured against mpmath: within 3.1e-16 relative for s in [1.001, 30]
    and a in [1e-9, 1], 1.1e-15 up to a = 50.  Vectorized over a;
    temporaries are one (12,) + a.shape array.
    """
    _real("s", s, "satisfy 1 < s < inf", lambda v: 1.0 < v < math.inf)
    a = np.asarray(a, dtype=float)
    if not np.all((a > 0.0) & (a < np.inf)):
        raise ValueError("hurwitz_zeta requires 0 < a < inf for every a")
    x = a + _ZETA_DIRECT
    xs = x ** -s
    tail = x * xs / (s - 1.0) + xs / 2.0
    term = s * xs / (2.0 * x)
    for j, b in enumerate(_ZETA_BERNOULLI, start=1):
        tail += b * term
        term *= (s + 2 * j - 1) * (s + 2 * j) / ((2 * j + 1) * (2 * j + 2) * x * x)
    # direct terms summed smallest first
    k = np.arange(_ZETA_DIRECT - 1.0, -1.0, -1.0).reshape((-1,) + (1,) * a.ndim)
    out = tail + np.sum((a + k) ** -s, axis=0)
    return float(out) if out.ndim == 0 else out


def gbinom_row(u: float, kmax: int) -> np.ndarray:
    """[binom(u, 0), ..., binom(u, kmax)] via the running-ratio recurrence."""
    out = np.empty(kmax + 1)
    out[0] = 1.0
    for k in range(kmax):
        out[k + 1] = out[k] * (u - k) / (k + 1)
    return out
