"""graded_breaks, the panel breaks of the quadrature oracles in tests/,
against the set-based construction it replaced; panel_rule's
Gauss-Legendre rule against a 40-digit mpmath rule."""

import mpmath
import numpy as np
import pytest

from fracbesov import frac_wavelets as fw


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


def reference_graded_breaks(a, b, per_unit=2, levels=0):
    """Lattice and cascade points inserted one by one into a set."""
    pts = {a, b}
    if per_unit > 0:
        lo = int(np.ceil(a * per_unit))
        hi = int(np.floor(b * per_unit))
        lattice = [j / per_unit for j in range(lo, hi + 1)]
        pts.update(lattice)
    else:
        lattice = []
    for c in lattice:
        for g in range(1, levels + 1):
            for s in (-1.0, 1.0):
                p = c + s * 0.5**g / per_unit
                if a < p < b:
                    pts.add(p)
    out = np.array(sorted(pts))
    keep = np.concatenate([[True], np.diff(out) > 1e-13])
    return out[keep]


def test_molecule_windows():
    # the (M1) windows of test_frac_wavelets' x-space reference report
    for nu in range(4):
        scale = 2.0**nu
        for tau in range(-8, 9):
            x_q = tau / scale if nu > 0 else float(tau)
            grid = x_q + np.arange(-25.0, 25.0 + 1e-12, 1.0 / 16.0) / scale
            a, b = float(grid.min()), float(grid.max())
            for levels in range(4):
                args = (a, b, max(2, int(2 * scale)), levels)
                assert np.array_equal(graded_breaks(*args), reference_graded_breaks(*args))


def test_random_intervals():
    rng = np.random.default_rng(20)
    for _ in range(300):
        per_unit = int(rng.integers(0, 9))
        levels = int(rng.integers(0, 4))
        a = float(rng.uniform(-20.0, 20.0))
        b = a + float(rng.uniform(1e-3, 15.0))
        if per_unit > 0 and rng.random() < 0.5:
            # ends on or within 1e-13 of lattice and cascade points
            a = np.round(a * per_unit) / per_unit + float(rng.choice([0.0, 3e-14, -0.25 / per_unit]))
            b = np.round(b * per_unit) / per_unit + float(rng.choice([0.0, -3e-14, 0.5 / per_unit]))
            if not b > a:
                continue
        args = (a, b, per_unit, levels)
        got = graded_breaks(*args)
        assert np.array_equal(got, reference_graded_breaks(*args))
        assert np.all(np.diff(got) > 1e-13)


def test_empty_interval():
    with pytest.raises(ValueError):
        graded_breaks(1.0, 1.0)


def test_moment_rule_lattice():
    # per_unit = 2 without cascade levels is the half-integer lattice, every
    # eighth point of the reference grid: (M1)'s rule is bit for bit the one
    # built on graded breaks
    breaks = graded_breaks(-25.0, 25.0, per_unit=2)
    assert np.array_equal(breaks, fw._GRID_Y[::8])
    assert breaks.size == 101
    for got, want in zip(fw._moment_rule(), fw.panel_rule(breaks, 12)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("breaks", [
    [1.0, 0.0], [0.0, 1.0, 1.0], [0.0, np.nan, 1.0], [0.0, np.inf], [0.0], [],
    [[0.0, 1.0], [1.0, 2.0]], 0.5,
], ids=["decreasing", "repeated", "nan", "inf", "one", "empty", "2-d", "0-d"])
def test_panel_rule_rejects_bad_breaks(breaks):
    # decreasing breaks gave weights -0.5 and a NaN break NaN nodes
    with pytest.raises(ValueError, match=r"^breaks must be 1-D, finite and strictly increasing"):
        fw.panel_rule(breaks, 2)


def test_panel_rule_one_panel():
    # two breaks are one panel: the Gauss rule mapped onto it
    nodes, wts = fw.panel_rule([0.0, 2.0], 2)
    assert nodes == pytest.approx([1.0 - 3.0**-0.5, 1.0 + 3.0**-0.5], abs=1e-15)
    assert wts.tolist() == [1.0, 1.0]


def mp_gauss_legendre(n: int) -> tuple[list, list]:
    """The n-point Gauss-Legendre rule at 40 digits, nodes ascending.

    Newton's method on P_n, by the recurrence j P_j = (2j - 1) x P_(j-1) -
    (j - 1) P_(j-2) in 40-digit arithmetic, from cos(pi (4k - 1) / (4n +
    2)) for each node x >= 0 until the step is below 1e-30, so the node is
    good to 40 digits; the nodes x < 0 and their weights by symmetry.
    """
    half = []
    with mpmath.workdps(40):
        for k in range(1, (n + 1) // 2 + 1):
            x = mpmath.cos(mpmath.pi * (4 * k - 1) / (4 * n + 2))
            while True:
                p0, p1 = mpmath.mpf(1), x
                for j in range(2, n + 1):
                    p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
                dp = n * (p0 - x * p1) / (1 - x * x)
                step = p1 / dp
                x -= step
                if abs(step) < 1e-30:
                    break
            half.append((x, 2 / ((1 - x * x) * dp**2)))
    rule = [(-x, w) for x, w in half] + half[: n // 2][::-1]
    return [x for x, _ in rule], [w for _, w in rule]


def test_gauss_legendre_matches_mpmath():
    # worst over npts = 1..64: 1.12e-16 on the nodes, 6.9e-14 relative on
    # the weights (at npts = 64: 6.4e-17 and 5.7e-14; numpy's leggauss
    # reads 1.3e-12 on the weights there)
    for n in range(1, 65):
        x, w = fw._gauss_legendre(n)
        xs, ws = mp_gauss_legendre(n)
        assert max(abs(float(a - b)) for a, b in zip(xs, x)) <= 1.5e-16, n
        assert max(abs(float((a - b) / a)) for a, b in zip(ws, w)) <= 1e-13, n


def test_panel_rule_exact_on_polynomials():
    # npts points integrate x^k, k <= 2 npts - 1, exactly on [-1, 1]:
    # within 6.7e-16 of 2 / (k + 1) (even k) or 0 (odd k), npts = 1..64
    for n in range(1, 65):
        nodes, wts = fw.panel_rule([-1.0, 1.0], n)
        for k in range(2 * n):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(np.dot(wts, nodes**k) - exact) <= 1e-15, (n, k)


@pytest.mark.parametrize("npts", [0, -3, 2.0, 1.5, True, False, None, "12", np.float64(12)],
                         ids=repr)
def test_panel_rule_rejects_bad_npts(npts):
    with pytest.raises(ValueError, match=r"^npts must be an integer >= 1"):
        fw.panel_rule([0.0, 1.0], npts)


def test_panel_rule_numpy_integer_npts():
    want = fw.panel_rule([0.0, 0.5, 2.0], 12)
    for got, ref in zip(fw.panel_rule([0.0, 0.5, 2.0], np.int64(12)), want):
        assert np.array_equal(got, ref)
