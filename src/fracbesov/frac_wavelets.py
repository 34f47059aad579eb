"""Fractional spline wavelets, their finite combinations, and molecule checks.

The wavelet of non-integer order alpha is psi(x) = sum_k q_k beta(2x - k)
with the two-scale filter

    q_k = 2^(-alpha) (-1)^k sum_{l >= 0} binom(alpha+1, l) beta_*^(2 alpha + 1)(l + k - 1),

whose integer symmetric-spline samples come from the Poisson-summation
evaluator.  The combination Psi adds cosine weights lambda_j(n) from the
natural-order construction (battle_lemarie.translate_weights), folded into
the filter, so psi and Psi are each one splines.beta_plus_filtered pass.
Molecule checking certifies the decay / moment / Hoelder conditions on a
grid, evaluating each derivative of the molecule once per grid by central
differences; the calibration of c0 and c reads only the envelope
conditions (M2)-(M4) and skips the moment quadrature of (M1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .battle_lemarie import bl_system, scaling_localized, translate_weights
from .battle_lemarie import wavelet_localized
from .quadrature import graded_breaks, panel_rule
from .specfun import gbinom_row
from .splines import (
    FractionalSpline,
    TruncationError,
    _is_nat,
    beta_plus_filtered,
    beta_star_integer_samples,
    frac_bspline,
)


# ---------------------------------------------------------------------------
# fractional wavelets
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def wavelet_filter(alpha: float, kmax: int) -> np.ndarray:
    """q_k for k = -kmax..kmax.

    The symmetric samples are taken at l + k - 1, Unser-Blu's index.  At
    alpha = 1 this gives Chui-Wang's filter (1/12) [1, -6, 10, -6, 1] on
    k = -2..2 rather than on their k = 0..4: the same wavelet space, with
    psi moved by one integer.  The l-sum stops at l = kmax + 48: taking it
    to kmax + 1000 moves q by at most 4.9e-15 max|q| (measured at alpha =
    1/2, kmax = 60; below 2e-16 for alpha >= 4/3), since binom(alpha+1, l)
    and the samples both decay algebraically.
    """
    ltrunc = kmax + 48
    sam = beta_star_integer_samples(2.0 * alpha + 1.0, kmax + ltrunc + 2)
    mid = kmax + ltrunc + 2
    binom = gbinom_row(alpha + 1.0, ltrunc)
    ks = np.arange(-kmax, kmax + 1)
    q = sam[mid + ks[:, None] - 1 + np.arange(ltrunc + 1)] @ binom
    q *= 2.0**-alpha
    q[(ks % 2) != 0] *= -1.0
    return q


def _psi_translates(alpha, variant, x, up, trunc, tail_tol):
    """sum_t up[2t] psi(x + t), up the translate weights up-sampled by 2.

    psi_+(x + t) = sum_k q_k beta_+(2x - k + 2t) and psi_-(x + t) =
    sum_k q_{-k} beta_+(-2x - k - 2t), so the sum is one beta_plus_filtered
    pass on the input's own points with the taps q * up[::-1] from
    k0 = -trunc - (len(up) - 1) (causal) or q[::-1] * up from -trunc.  The
    tail estimate covers the translated points [min x, max x + 2 t_max].
    """
    if alpha <= 0 or _is_nat(alpha):
        raise ValueError("psi_frac requires non-integer alpha > 0")
    if variant not in ("causal", "anticausal"):
        raise ValueError(f"variant must be one-sided, got {variant!r}")
    scalar = np.isscalar(x) or np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    q = wavelet_filter(alpha, trunc)
    lo, hi = float(xs.min()), float(xs.max()) + (up.size - 1) / 2.0
    # causal support kills k > 2x; anticausal kills k < 2x
    if variant == "causal":
        margin = 2.0 * lo + trunc
        live_edge = abs(q[0])
        natural_cut = trunc >= 2.0 * hi
        u, taps, k0 = 2.0 * xs, np.convolve(q, up[::-1]), -trunc - (up.size - 1)
    else:
        margin = trunc - 2.0 * hi
        live_edge = abs(q[-1])
        natural_cut = -trunc <= 2.0 * lo
        u, taps, k0 = -2.0 * xs, np.convolve(q[::-1], up), -trunc
    est = live_edge * (min(1.0, margin ** -(alpha + 1.0)) if margin > 1.0 else trunc)
    if not natural_cut:
        est += trunc * max(abs(q[0]), abs(q[-1]))
    if est > tail_tol:
        raise TruncationError(
            f"psi tail estimate {est:.2e} exceeds {tail_tol:.0e} at trunc={trunc}; "
            "increase trunc or shrink the evaluation window"
        )
    out = beta_plus_filtered(alpha, u, taps, k0)
    return float(out[0]) if scalar else out


def psi_frac(alpha: float, variant: str, x, trunc: int = 80, tail_tol: float = 1e-6):
    """psi_+^alpha or psi_-^alpha at x; series truncated at |k| <= trunc.

    With u = 2x (causal) or u = -2x (anticausal),

        psi_+(x) = sum_k q_k beta_+(u - k),   psi_-(x) = sum_k q_{-k} beta_+(u - k):

    the causal spline with coefficients q (reversed for psi_-) on
    -trunc..trunc, evaluated at u in one splines.beta_plus_filtered pass
    (up = [1] in the body shared with Psi_combined); the argument matrix
    2x - k is never formed.  Points with floor(u) + trunc < 0 are exactly 0.

    The one-sided spline terminates the sum on one side exactly; on the
    other side the omitted terms are bounded by the filter edge value times
    the lattice tail of the spline envelope.  A TruncationError means the
    requested points sit too deep in the tail for this ``trunc``.
    """
    return _psi_translates(alpha, variant, x, np.ones(1), trunc, tail_tol)


def Psi_combined(
    alpha: float,
    n: int,
    variant: str,
    x,
    trunc: int = 80,
    sign: float = 1.0,
    tail_tol: float = 1e-6,
):
    """Psi_±^alpha(x) = sum_j lambda_j(n)/(2 (-1)^j) [psi(x+n+j) + sign psi(x+n-j)].

    The weights of psi(x + t), t = 0..2n, are battle_lemarie's
    translate_weights; up-sampled by 2 they fold into psi's filter, so Psi
    is one beta_plus_filtered pass on the input's own points.  The
    TruncationError estimate is psi_frac's over [min x, max x + 2n].
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    up = np.zeros(4 * n + 1)
    up[::2] = translate_weights(bl_system(n), sign)
    return _psi_translates(alpha, variant, x, up, trunc, tail_tol)


def beta_moment(alpha: float, variant: str, i: int) -> float:
    """i-th moment of beta_±^alpha, exact via uniform-density cumulants."""
    m = (alpha + 1.0) / 2.0
    v = (alpha + 1.0) / 12.0
    k4 = -(alpha + 1.0) / 120.0
    mu = {
        0: 1.0,
        1: m,
        2: m * m + v,
        3: m**3 + 3 * m * v,
        4: m**4 + 6 * m * m * v + 3 * v * v + k4,
    }
    if i not in mu:
        raise ValueError("moments implemented for i <= 4")
    val = mu[i]
    if variant == "anticausal" and i % 2:
        val = -val
    return val


def psi_moment(alpha: float, variant: str, gamma: int, trunc: int = 80) -> float:
    """int x^gamma psi(x) dx, reduced exactly to filter sums and beta moments."""
    q = wavelet_filter(alpha, trunc)
    ks = np.arange(-trunc, trunc + 1).astype(float)
    total = 0.0
    for i in range(gamma + 1):
        total += (
            math.comb(gamma, i)
            * beta_moment(alpha, variant, i)
            * float(np.dot(q, ks ** (gamma - i)))
        )
    return 2.0 ** (-gamma - 1) * total


# ---------------------------------------------------------------------------
# molecule conditions
# ---------------------------------------------------------------------------

class InfeasibleOrderError(ValueError):
    """The spline order cannot satisfy M > J for the target space."""


@dataclass(frozen=True)
class MoleculeParams:
    delta: float
    M: float
    N: int
    J: float
    s: float

    def __post_init__(self):
        if not (self.s - math.floor(self.s)) < self.delta <= 1.0:
            raise ValueError("need s - [s] < delta <= 1")
        if not self.M > self.J:
            raise ValueError("need M > J")


def molecule_params_for(
    p: float, q: float, s: float, r_w: float, alpha: float
) -> MoleculeParams:
    """Choose (delta, M, N) for decorating order-alpha splines as molecules.

    J = r_w/p + 1/p' for p > 1 (J = r_w at p = 1); N = max([J-s-1], -1);
    the admissible M is capped by the order-dependent bound
    alpha + 1 - [s] (s >= -1) or alpha + 2 + s (s < -1).
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if p == 1:
        J = r_w
    else:
        pprime = p / (p - 1.0)
        J = r_w / p + 1.0 / pprime
    N = max(math.floor(J - s - 1.0), -1)
    frac_s = s - math.floor(s)
    delta = min(1.0, (frac_s + 1.0) / 2.0)
    if delta <= frac_s:
        delta = (frac_s + 1.0) / 2.0
    bound = alpha + 1.0 - math.floor(s) if s >= -1.0 else alpha + 2.0 + s
    if bound <= J:
        raise InfeasibleOrderError(
            f"order bound {bound:g} <= J = {J:g}: spline order alpha={alpha:g} "
            f"too small for s={s:g}, r_w={r_w:g}"
        )
    M = min(bound, J + 1.0)
    return MoleculeParams(delta=delta, M=M, N=N, J=J, s=s)


# largest |moment| for which a report's (M1) passes
MOMENT_TOL = 1e-5


@dataclass
class MoleculeReport:
    nu: int
    tau: int
    conditions: dict = field(default_factory=dict)

    @property
    def max_envelope_ratio(self) -> float:
        vals = [
            v["ratio"]
            for k, v in self.conditions.items()
            if k != "M1" and v["ratio"] is not None
        ]
        return max(vals) if vals else 0.0

    def passes(self) -> bool:
        for name, entry in self.conditions.items():
            if name == "M1":
                if entry["value"] > MOMENT_TOL:
                    return False
            elif entry["ratio"] is not None and entry["ratio"] > 1.0 + 1e-9:
                return False
        return True


def molecule_check(
    fn,
    Q: tuple[int, int],
    params: MoleculeParams,
    grid=None,
) -> MoleculeReport:
    """Grid-certified report of (M1)-(M4) (nu >= 1) or starred forms (nu = 0).

    ``fn`` is the candidate molecule m_Q itself (scaling included by the
    caller).  D^gamma m_Q, gamma = 0..[s], is evaluated once on ``grid``,
    the derivatives as nested central differences of ``fn`` with step
    1e-5 / 2^nu; (M2)-(M4) read that table, (M4) at the grid pairs of
    strides 1, 4, 16, 64.  (M1) takes a graded 12-point panel rule over the
    grid's range; it is void for N < 0.  Each condition maps to its
    "value" and "ratio"; report-only: ratios > 1 mean the condition fails.
    """
    nu, tau = Q
    x_q = tau / 2.0**nu if nu > 0 else float(tau)
    scale = 2.0**nu
    s, M, N, delta = params.s, params.M, params.N, params.delta
    s_floor = math.floor(s)
    if grid is None:
        grid = x_q + np.arange(-25.0, 25.0 + 1e-12, 1.0 / 16.0) / scale
    grid = np.asarray(grid, dtype=float)

    def deriv(gamma, xs):
        if gamma == 0:
            return fn(xs)
        h = 1e-5 / scale
        return (deriv(gamma - 1, xs + h) - deriv(gamma - 1, xs - h)) / (2.0 * h)

    table = [np.asarray(deriv(g, grid)) for g in range(max(s_floor, 0) + 1)]
    report = MoleculeReport(nu=nu, tau=tau)

    # (M1): vanishing moments up to N; void for N < 0 and absent from the
    # starred nu = 0 set
    if N >= 0 and nu >= 1:
        a, b = float(grid.min()), float(grid.max())
        breaks = graded_breaks(a, b, per_unit=max(2, int(2 * scale)), levels=2)
        nodes, wts = panel_rule(breaks, 12)
        vals = fn(nodes)
        worst = max(
            abs(float(np.dot(wts, nodes**g * vals))) for g in range(N + 1)
        )
        report.conditions["M1"] = {"value": worst, "ratio": None}

    dist = np.abs(grid - x_q)
    star = "" if nu >= 1 else "*"

    # (M2): size envelope
    expo = max(M, M - s) if nu >= 1 else M
    env2 = (2.0 ** (nu / 2.0)) * (1.0 + scale * dist) ** (-expo) if nu >= 1 else (
        1.0 + dist
    ) ** (-M)
    v = np.abs(table[0])
    report.conditions["M2" + star] = {
        "value": float(np.max(v)),
        "ratio": float(np.max(v / env2)),
    }

    # (M3)/(M4) void if s < 0
    if s >= 0:
        gammas = range(0, s_floor + 1) if nu >= 1 else range(1, s_floor + 1)
        worst3 = 0.0
        for g in gammas:
            env3 = 2.0 ** (nu / 2.0 + nu * g) * (1.0 + scale * dist) ** (-M)
            worst3 = max(worst3, float(np.max(np.abs(table[g]) / env3)))
        if nu >= 1 or s_floor >= 1:
            report.conditions["M3" + star] = {"value": None, "ratio": worst3}

        g = s_floor
        strides = (1, 4, 16, 64)
        ix = np.concatenate([np.arange(st, grid.size) for st in strides])
        iy = np.concatenate([np.arange(grid.size - st) for st in strides])
        diff = np.abs(table[g][ix] - table[g][iy])
        h = np.abs(grid[ix] - grid[iy])
        # exact sup over |z| <= 1 of the envelope at x - z h: the envelope
        # decreases with the distance to x_q, which is smallest at the
        # point of [x - h, x + h] nearest to x_q (scale = 1 at nu = 0)
        sup_env = (1.0 + scale * np.maximum(0.0, dist[ix] - h)) ** (-M)
        bound = 2.0 ** (nu / 2.0 + nu * g + nu * delta) * h**delta * sup_env
        ok = bound > 0
        report.conditions["M4" + star] = {
            "value": float(np.max(diff)),
            "ratio": float(np.max(diff[ok] / bound[ok])),
        }
    return report


# ---------------------------------------------------------------------------
# unified wavelet systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WaveletSystem:
    """Scaling/wavelet pair normalized for sequence-space decompositions.

    Natural systems divide the localized pair by Lambda' / Lambda''; the
    fractional pair is scaled by calibrated constants c0, c in (0, 1].
    """

    kind: str  # "natural-BL" | "fractional"
    order: float
    variant: str
    shift_k: int
    shift_s: int
    comb_n: int
    c0: float
    c: float
    trunc: int = 80
    psi_sign: float = 1.0

    def scale_fn(self, x):
        if self.kind == "natural-BL":
            sys = bl_system(int(self.order), self.shift_k, self.shift_s)
            return scaling_localized(sys, x) / sys.Lambda_prime
        spec = FractionalSpline(
            alpha=self.order, variant=self.variant, shift_k=self.shift_k
        )
        return self.c0 * frac_bspline(spec, x)

    def wavelet_fn(self, x):
        if self.kind == "natural-BL":
            sys = bl_system(int(self.order), self.shift_k, self.shift_s)
            return wavelet_localized(sys, x, sign=self.psi_sign) / sys.Lambda_dprime
        xs = np.asarray(x, dtype=float) - self.shift_s
        return self.c * Psi_combined(
            self.order,
            self.comb_n,
            self.variant,
            xs,
            trunc=self.trunc,
            sign=self.psi_sign,
        )


def natural_system(n: int, shift_k: int = 0, shift_s: int = 0) -> WaveletSystem:
    return WaveletSystem(
        kind="natural-BL",
        order=float(n),
        variant="causal",
        shift_k=shift_k,
        shift_s=shift_s,
        comb_n=n,
        c0=1.0,
        c=1.0,
    )


def fractional_system(
    alpha: float,
    variant: str,
    comb_n: int,
    shift_k: int = 0,
    shift_s: int = 0,
    c0: float = 1.0,
    c: float = 1.0,
    trunc: int = 80,
    psi_sign: float = 1.0,
) -> WaveletSystem:
    return WaveletSystem(
        kind="fractional",
        order=alpha,
        variant=variant,
        shift_k=shift_k,
        shift_s=shift_s,
        comb_n=comb_n,
        c0=c0,
        c=c,
        trunc=trunc,
        psi_sign=psi_sign,
    )


def calibrate_constants(
    alpha: float,
    variant: str,
    comb_n: int,
    params: MoleculeParams,
    nus: tuple[int, ...] = (0, 1, 2),
    trunc: int = 80,
) -> tuple[float, float]:
    """Largest c0, c in (0, 1] making the molecule envelopes pass.

    c0 scales the order-alpha spline at nu = 0; c scales the dilated
    combined wavelet at nu >= 1.  Ratios are measured on the reference grid
    and inverted with a 2% safety margin.  No scale factor can make a
    nonzero moment vanish, so the reports are taken with N = -1, which
    voids (M1): (c0, c) read only the envelope ratios (M2)-(M4) and are
    the same as with ``params``.  Certify (M1) on the calibrated system with
    ``molecule_check`` and ``params``.
    """
    sysu = fractional_system(alpha, variant, comb_n, trunc=trunc)
    params = replace(params, N=-1)
    rep0 = molecule_check(sysu.scale_fn, (0, 0), params)
    r0 = rep0.max_envelope_ratio
    c0 = min(1.0, 0.98 / r0) if r0 > 0 else 1.0
    worst = 0.0
    for nu in nus:
        if nu == 0:
            continue

        def m_q(x, nu=nu):
            return 2.0 ** (nu / 2.0) * sysu.wavelet_fn(2.0**nu * x)

        rep = molecule_check(m_q, (nu, 0), params)
        worst = max(worst, rep.max_envelope_ratio)
    c = min(1.0, 0.98 / worst) if worst > 0 else 1.0
    return c0, c
