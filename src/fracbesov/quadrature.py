"""Panel Gauss-Legendre quadrature with knot splitting and geometric grading.

All integrals in this package are over piecewise-smooth integrands whose
breakpoints (spline knots, indicator jumps, power-law kinks) are known in
advance.  Panels are therefore split at the breakpoints and, where an
integrand is merely Hoelder continuous at a breakpoint, the adjacent panels
are refined geometrically toward it.  Everything is deterministic: the same
inputs produce bit-identical node/weight arrays.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=32)
def _gl_rule(npts: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(npts)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def panel_rule(breaks: np.ndarray, npts: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights for the panels defined by ``breaks``."""
    breaks = np.asarray(breaks, dtype=float)
    x, w = _gl_rule(npts)
    a = breaks[:-1]
    h = np.diff(breaks)
    nodes = a[:, None] + (x[None, :] + 1.0) * (h[:, None] / 2.0)
    weights = np.broadcast_to(w[None, :], nodes.shape) * (h[:, None] / 2.0)
    return nodes.ravel(), weights.ravel()


def graded_breaks(
    a: float, b: float, per_unit: int = 2, levels: int = 0
) -> np.ndarray:
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
