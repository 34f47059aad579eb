"""Fractional spline wavelets, their finite combinations, and molecule checks.

The wavelet of non-integer order alpha is psi(x) = sum_k q_k beta(2x - k)
with the two-scale filter

    q_k = 2^(-alpha) (-1)^k sum_{l >= 0} binom(alpha+1, l) beta_*^(2 alpha + 1)(l + k - 1),

whose integer symmetric-spline samples come from the Poisson-summation
evaluator.  Its two-scale symbol sum_k q_k e^(-ikw) carries the factor
(1 - e^(iw))^(alpha+1), so int x^gamma psi = 0 for every integer gamma <
alpha + 1 and does not exist beyond (Unser-Blu); no moment is computed
here, and the tests check q against that symbol.  The combination Psi
adds cosine weights lambda_j(n) from the natural-order construction
(battle_lemarie.translate_weights), folded into the filter, so psi and
Psi are each one splines.beta_plus_filtered pass.  Their tail estimate
is held to one tolerance, TAIL_TOL.  Molecule checking certifies a
function f once, in the scaled variable y = 2^nu (x - x_Q) of a dyadic
cube Q = (nu, tau) (integers, nu >= 0): the molecule m_Q(x) = 2^(nu/2)
f(2^nu x - tau) reads f(y), and each (M2)-(M4) ratio of m_Q is the same
ratio of f, so the decay / moment / Hoelder conditions are computed on
one reference grid, the lattice k/16 on [-25, 25], with difference steps
of 2^-17 and the (M1) rule of 12-point Gauss panels between consecutive
half-integers, all in y and the same for every (nu, tau).  molecule_check
pulls m_Q back to f; the calibration of c0 and c certifies the unscaled
pair itself, reading only the envelope conditions (M2)-(M4).  A
WaveletSystem is the pair (scale_fn, wavelet_fn) of the natural
Battle-Lemarie system, divided by Lambda' and Lambda'' in closed form, or
of the fractional one, scaled by c0 and c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .battle_lemarie import bl_system, scaling_localized, translate_weights
from .battle_lemarie import wavelet_localized
from .specfun import gbinom_row
from .splines import (
    FractionalSpline,
    TruncationError,
    _integer,
    _is_nat,
    beta_plus_filtered,
    beta_star_integer_samples,
    frac_bspline,
)


# largest psi tail estimate that psi_frac and Psi_combined accept
TAIL_TOL = 1e-6
# largest |int y^gamma f(y) dy|, gamma <= N, for which a report's (M1) passes
MOMENT_TOL = 1e-5


# ---------------------------------------------------------------------------
# fractional wavelets
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32, typed=True)
def wavelet_filter(alpha: float, kmax: int) -> np.ndarray:
    """q_k for k = -kmax..kmax; kmax is psi's trunc.

    The symmetric samples are taken at l + k - 1, Unser-Blu's index.  At
    alpha = 1 this gives Chui-Wang's filter (1/12) [1, -6, 10, -6, 1] on
    k = -2..2 rather than on their k = 0..4: the same wavelet space, with
    psi moved by one integer.  The l-sum stops at l = kmax + 48: taking it
    to kmax + 1000 moves q by at most 4.9e-15 max|q| (measured at alpha =
    1/2, kmax = 60; below 2e-16 for alpha >= 4/3), since binom(alpha+1, l)
    and the samples both decay algebraically.  Returned read-only.

    An alpha outside (0, inf) raises ValueError naming alpha, and so does
    a kmax that is not an integer >= 1 (or is a bool), naming trunc; the
    cache is typed, so 60.0 and True are checked, not served from the
    entries of 60 and 1.
    """
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
    kmax = _integer("trunc", kmax, 1)
    ltrunc = kmax + 48
    sam = beta_star_integer_samples(2.0 * alpha + 1.0, kmax + ltrunc + 2)
    mid = kmax + ltrunc + 2
    binom = gbinom_row(alpha + 1.0, ltrunc)
    ks = np.arange(-kmax, kmax + 1)
    q = sam[mid + ks[:, None] - 1 + np.arange(ltrunc + 1)] @ binom
    q *= 2.0**-alpha
    q[(ks % 2) != 0] *= -1.0
    q.flags.writeable = False
    return q


def _psi_translates(alpha, variant, x, up, trunc):
    """sum_t up[2t] psi(x + t), up the translate weights up-sampled by 2.

    psi_+(x + t) = sum_k q_k beta_+(2x - k + 2t) and psi_-(x + t) =
    sum_k q_{-k} beta_+(-2x - k - 2t), so the sum is one beta_plus_filtered
    pass on the input's own points with the taps q * up[::-1] from
    k0 = -trunc - (len(up) - 1) (causal) or q[::-1] * up from -trunc.  The
    tail estimate covers the translated finite points [min x, max x +
    2 t_max] and must stay within TAIL_TOL; without finite points there is
    none, and non-finite x give NaN.
    """
    if not 0 < alpha < math.inf or _is_nat(alpha):
        raise ValueError(f"alpha must be finite, positive and fractional, got {alpha!r}")
    if variant not in ("causal", "anticausal"):
        raise ValueError(f"variant must be one-sided, got {variant!r}")
    xs = np.asarray(x, dtype=float)
    q = wavelet_filter(alpha, trunc)
    if variant == "causal":
        u, taps, k0 = 2.0 * xs, np.convolve(q, up[::-1]), -trunc - (up.size - 1)
    else:
        u, taps, k0 = -2.0 * xs, np.convolve(q[::-1], up), -trunc
    finite = xs[np.isfinite(xs)]
    if finite.size:
        lo, hi = float(finite.min()), float(finite.max()) + (up.size - 1) / 2.0
        # causal support kills k > 2x; anticausal kills k < 2x
        if variant == "causal":
            margin, live_edge, natural_cut = 2.0 * lo + trunc, abs(q[0]), trunc >= 2.0 * hi
        else:
            margin, live_edge, natural_cut = trunc - 2.0 * hi, abs(q[-1]), -trunc <= 2.0 * lo
        est = live_edge * (min(1.0, margin ** -(alpha + 1.0)) if margin > 1.0 else trunc)
        if not natural_cut:
            est += trunc * max(abs(q[0]), abs(q[-1]))
        if est > TAIL_TOL:
            raise TruncationError(
                f"psi tail estimate {est:.2e} exceeds {TAIL_TOL:.0e} at trunc={trunc}; "
                "increase trunc or shrink the evaluation window"
            )
    return beta_plus_filtered(alpha, u, taps, k0)


def psi_frac(alpha: float, variant: str, x, trunc: int = 80):
    """psi_+^alpha or psi_-^alpha at x; series truncated at |k| <= trunc.

    With u = 2x (causal) or u = -2x (anticausal),

        psi_+(x) = sum_k q_k beta_+(u - k),   psi_-(x) = sum_k q_{-k} beta_+(u - k):

    the causal spline with coefficients q (reversed for psi_-) on
    -trunc..trunc, evaluated at u in one splines.beta_plus_filtered pass
    (up = [1] in the body shared with Psi_combined); the argument matrix
    2x - k is never formed.  Points with floor(u) + trunc < 0 are exactly 0.

    The one-sided spline terminates the sum on one side exactly; on the
    other side the omitted terms are bounded by the filter edge value times
    the lattice tail of the spline envelope.  A TruncationError means this
    bound exceeds TAIL_TOL: the requested points sit too deep in the tail
    for this ``trunc`` (which must be an integer >= 1).
    """
    return _psi_translates(alpha, variant, x, np.ones(1), trunc)


def Psi_combined(alpha: float, n: int, variant: str, x, trunc: int = 80):
    """Psi_±^alpha(x) = sum_j lambda_j(n)/(2 (-1)^j) [psi(x+n+j) + psi(x+n-j)].

    The weights of psi(x + t), t = 0..2n, are battle_lemarie's
    translate_weights; up-sampled by 2 they fold into psi's filter, so Psi
    is one beta_plus_filtered pass on the input's own points.  The
    TruncationError estimate is psi_frac's over [min x, max x + 2n], held
    to the same TAIL_TOL.  bl_system raises ValueError unless n is an
    integer in 1..8.
    """
    sys = bl_system(n)
    up = np.zeros(4 * sys.n + 1)
    up[::2] = translate_weights(sys)
    return _psi_translates(alpha, variant, x, up, trunc)


# ---------------------------------------------------------------------------
# molecule conditions
# ---------------------------------------------------------------------------

class InfeasibleOrderError(ValueError):
    """The spline order cannot satisfy M > J for the target space."""


@dataclass(frozen=True)
class MoleculeParams:
    """The exponents of the molecule conditions, and what reads each.

    delta is (M4)'s Hoelder exponent; M the decay exponent of the envelopes
    (1 + |y|)^-M; N the highest moment of (M1), void for N = -1.  s decides
    which conditions apply: [s] is the highest derivative of (M3) and (M4),
    both void for s < 0, where (M2)'s exponent is M - s.  J enters only
    the check M > J.  Each field must be finite, N an integer >= -1, and
    s - [s] < delta <= 1; otherwise ValueError names the field.
    """

    delta: float
    M: float
    N: int
    J: float
    s: float

    def __post_init__(self):
        for name in ("s", "M", "J", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        _integer("N", self.N, -1)
        frac_s = self.s - math.floor(self.s)
        if not frac_s < self.delta <= 1.0:
            raise ValueError(f"delta must be in (s - [s], 1] = ({frac_s!r}, 1], "
                             f"got {self.delta!r}")
        if not self.M > self.J:
            raise ValueError(f"M must be > J = {self.J!r}, got {self.M!r}")


def molecule_params_for(
    p: float, q: float, s: float, r_w: float, alpha: float
) -> MoleculeParams:
    """Choose (delta, M, N) for decorating order-alpha splines as molecules.

    The target space is B^s_{p,q}; q is accepted for that signature and
    does not enter.

    J = r_w/p + 1/p' with 1/p' = 1 - 1/p (J = r_w at p = 1, 1 at p = inf);
    N = max([J-s-1], -1);
    the admissible M is capped by the order-dependent bound
    alpha + 1 - [s] (s >= -1) or alpha + 2 + s (s < -1).
    """
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")
    for name, value in (("s", s), ("r_w", r_w), ("alpha", alpha)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    J = r_w / p + (1.0 - 1.0 / p)
    N = max(math.floor(J - s - 1.0), -1)
    frac_s = s - math.floor(s)
    delta = (frac_s + 1.0) / 2.0
    bound = alpha + 1.0 - math.floor(s) if s >= -1.0 else alpha + 2.0 + s
    if bound <= J:
        raise InfeasibleOrderError(
            f"order bound {bound:g} <= J = {J:g}: spline order alpha={alpha:g} "
            f"too small for s={s:g}, r_w={r_w:g}"
        )
    M = min(bound, J + 1.0)
    return MoleculeParams(delta=delta, M=M, N=N, J=J, s=s)


@dataclass
class MoleculeReport:
    nu: int
    tau: int
    conditions: dict = field(default_factory=dict)

    def passes(self) -> bool:
        """Every condition holds; a non-finite value or ratio fails."""
        for name, entry in self.conditions.items():
            key, limit = ("value", MOMENT_TOL) if name == "M1" else ("ratio", 1.0 + 1e-9)
            finite = all(math.isfinite(v) for v in entry.values() if v is not None)
            if not (finite and entry[key] <= limit):
                return False
        return True


# the reference grid in the scaled variable y = 2^nu (x - x_Q): the exact
# lattice k/16 on [-25, 25], the same for every (nu, tau)
_GRID_Y = np.arange(-25.0, 25.0 + 1e-12, 1.0 / 16.0)
_GRID_Y.flags.writeable = False
# the central differences' step in y: a power of two, so every stencil
# point y + k H of the grid, and x_Q + (y + k H) / 2^nu for |tau| < 2^35, is exact
_H = 2.0**-17


# the index strides of the (M4) grid pairs
_STRIDES = (1, 4, 16, 64)


@lru_cache(maxsize=16)
def _grid_tables(M: float, delta: float) -> tuple:
    """(env, weight): the envelopes of _certify on _GRID_Y.

    The envelope is env = (1 + |y|)^-M, and the (M4) weight of a pair
    (y_i, y_(i - st)) at distance |dy| is |dy|^delta times the exact sup of
    the envelope over [y_i - |dy|, y_i + |dy|],

        weight = |dy|^delta (1 + max(0, |y_i| - |dy|))^-M:

    the envelope decreases with |y|, smallest at the point of the segment
    nearest to 0.  The (M4) pairs are the grid pairs of index strides st =
    1, 4, 16, 64 (_STRIDES), stride after stride and i = st..800 within
    each, all at |dy| >= 1/16, so a weight is 0 only where (1 + 25)^-M
    underflows (M above about 228); such an M raises ValueError.  Built
    once per (M, delta); the arrays are returned read-only.
    """
    ay = np.abs(_GRID_Y)
    dy = np.concatenate([np.abs(_GRID_Y[st:] - _GRID_Y[:-st]) for st in _STRIDES])
    near = np.concatenate([ay[st:] for st in _STRIDES])
    weight = dy**delta * (1.0 + np.maximum(0.0, near - dy)) ** -M
    if not np.all(weight > 0):
        raise ValueError(f"the envelope (1 + |y|)^-{M:g} underflows on the grid")
    tables = ((1.0 + ay) ** -M, weight)
    for arr in tables:
        arr.flags.writeable = False
    return tables


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1], nodes ascending.

    No eigenvalue solver (Hale & Townsend, SIAM J. Sci. Comput. 35(2),
    2013): Newton's method on P_n from the guesses cos(pi (k - 1/4) / (n +
    1/2)), k = n..1, with P_n and P_n' = n (P_(n-1) - x P_n) / (1 - x^2)
    from the recurrence j P_j = (2j - 1) x P_(j-1) - (j - 1) P_(j-2),
    until a step is below 1e-12 (at most 4 steps for n <= 3000).  The
    weights are 2 / ((1 - x^2) P_n'(x)^2) at the last x.  Both are then
    symmetrized and the weights scaled to sum 2, as numpy's leggauss does.
    Against a 40-digit mpmath rule, n = 1..64, the nodes are within
    1.2e-16 and the weights within 7e-14 relative (1e-15 at n = 12, where
    leggauss's weights err by 8.8e-15, and by 1.8e-12 at worst).
    """
    x, step = np.cos(np.pi * (np.arange(n, 0.0, -1.0) - 0.25) / (n + 0.5)), 1.0
    for _ in range(10):
        p0, p1 = np.ones_like(x), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))
        # stop once the step to this x was below 1e-12: dp is P_n' at the last x
        if np.abs(step).max() < 1e-12:
            break
        step = p1 / dp
        x = x - step
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp**2)
    x = (x - x[::-1]) / 2.0
    w = (w + w[::-1]) / 2.0
    w *= 2.0 / w.sum()
    return x, w


def panel_rule(breaks: np.ndarray, npts: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights for the panels defined by ``breaks``:
    the npts-point rule of _gauss_legendre (Newton's method on P_npts, no
    eigenvalue solver; within 1.2e-16 on the nodes and 7e-14 relative on
    the weights of a 40-digit rule, npts <= 64) mapped onto each panel
    [breaks[i], breaks[i + 1]].

    ``breaks`` must be 1-D, finite and strictly increasing, with at least
    two entries, so that every weight is positive; otherwise ValueError
    names breaks.  npts must be an integer >= 1 (numpy's too, bool not);
    otherwise ValueError names npts.
    """
    breaks = np.asarray(breaks, dtype=float)
    if not (breaks.ndim == 1 and breaks.size >= 2 and np.isfinite(breaks).all()
            and (np.diff(breaks) > 0).all()):
        raise ValueError("breaks must be 1-D, finite and strictly increasing with at "
                         f"least 2 entries, got {breaks!r}")
    x, w = _gauss_legendre(_integer("npts", npts, 1))
    a = breaks[:-1]
    h = np.diff(breaks)
    nodes = a[:, None] + (x[None, :] + 1.0) * (h[:, None] / 2.0)
    weights = np.broadcast_to(w[None, :], nodes.shape) * (h[:, None] / 2.0)
    return nodes.ravel(), weights.ravel()


@lru_cache(maxsize=1)
def _moment_rule() -> tuple[np.ndarray, np.ndarray]:
    """(M1) nodes and weights in y over the grid's range [-25, 25], read-only.

    12-point Gauss-Legendre panels between consecutive half-integers of y
    (every eighth grid point), 100 panels and 1200 nodes.  Every
    half-integer of y is a panel end: the knots of a natural molecule (u =
    2y + n for the Battle-Lemarie wavelet, u = 2y for Psi), so each
    polynomial piece up to degree 23 is integrated exactly.
    """
    nodes, wts = panel_rule(_GRID_Y[::8], 12)
    nodes.flags.writeable = wts.flags.writeable = False
    return nodes, wts


def _dyadic_cube(Q) -> tuple[int, int]:
    """(nu, tau) of the dyadic cube Q, as ints; ValueError unless Q is a
    pair of integers (numpy's too, bool not) with 0 <= nu <= 1023 and
    |tau| < 2^35, the cubes whose points molecule_check forms exactly."""
    try:
        nu, tau = Q
        return _integer("nu", nu, 0, 1023), _integer("tau", tau, 1 - 2**35, 2**35 - 1)
    except (TypeError, ValueError):
        raise ValueError("Q must be a dyadic cube (nu, tau), integers with 0 <= nu <= 1023 "
                         f"and |tau| < 2^35, got {Q!r}") from None


def _worst(values: list) -> float:
    """The largest of a few floats, NaN if one is NaN, as np.max gives."""
    return math.nan if any(v != v for v in values) else max(values)


def _certify(f, params: MoleculeParams, starred: bool) -> dict:
    """The conditions (M1)-(M4) of f in y, or (M2*)-(M4*) if ``starred``.

    f is called once, on the 2 [s] + 1 rows _GRID_Y + k H, k = -[s]..[s],
    H = 2^-17, and the (M1) nodes together; it must return one value per
    point.  D^0 f is the values on the grid and D^gamma f, gamma = 1..[s],
    the gamma-fold central difference sum_i (-1)^i binom(gamma, i) f(y +
    (gamma - 2i) H) / (2H)^gamma.  Each ratio max |D^gamma f| / env is
    computed once, with the envelope tables of _grid_tables: (M2) reads
    gamma = 0 and (M3) the largest over its gammas; (M4) reads D^[s] on
    the grid pairs of strides 1, 4, 16, 64.  The unstarred envelopes have
    the exponent M - min(s, 0) and the starred ones M.  (M1) is the largest
    |int y^gamma f|, gamma = 0..N, by _moment_rule; it is void for N < 0
    and absent from the starred set, as is (M3*) at gamma = 0.  Returns
    {condition: {"value", "ratio"}}; a NaN value reaches every condition
    that reads it.
    """
    s, M, N, delta = params.s, params.M, params.N, params.delta
    gmax = max(math.floor(s), 0)
    # (M2)'s exponent is M - s when s < 0, where (M3)/(M4) are void, so one
    # exponent serves every envelope a report reads
    env, weight = _grid_tables(M if starred else M - min(s, 0.0), delta)
    # one f call: the rows grid + k H (at gmax = 0 the grid itself), then
    # the (M1) nodes
    pts = (_GRID_Y + _H * np.arange(-gmax, gmax + 1.0)[:, None]).ravel() if gmax else _GRID_Y
    moments = N >= 0 and not starred
    if moments:
        nodes, wts = _moment_rule()
        pts = np.concatenate([pts, nodes])
    vals = np.asarray(f(pts))
    if vals.shape != pts.shape:
        raise ValueError(f"fn must return one value per point, got shape {vals.shape} "
                         f"for {pts.size} points")
    rows = vals[: (2 * gmax + 1) * _GRID_Y.size].reshape(2 * gmax + 1, _GRID_Y.size)
    conditions = {}

    # (M1): vanishing moments up to N
    if moments:
        m1 = vals[rows.size :]
        moms = [abs(float(np.dot(wts, nodes**g * m1 if g else m1))) for g in range(N + 1)]
        conditions["M1"] = {"value": _worst(moms), "ratio": None}

    # D^g = sum_i (-1)^i C(g, i) row[g - 2i] / (2H)^g, row[k] the values at
    # grid + k H, and ratio[g] = max |D^g f| / env
    ratio, d = [], rows[gmax]
    for g in range(gmax + 1):
        if g:
            signed = [(-1) ** (g - j) * math.comb(g, j) for j in range(g + 1)]
            d = np.dot(signed, rows[gmax - g : gmax + g + 1 : 2]) / (2.0 * _H) ** g
        mag = np.abs(d)
        if not g:
            peak = float(mag.max())
        mag /= env
        ratio.append(float(mag.max()))
    star = "*" if starred else ""

    # (M2): size envelope
    conditions["M2" + star] = {"value": peak, "ratio": ratio[0]}

    # (M3)/(M4) void if s < 0; d is D^[s] here
    if s >= 0:
        gammas = ratio[1:] if starred else ratio
        if gammas:
            conditions["M3" + star] = {"value": None, "ratio": _worst(gammas)}
        # the pairs of each stride, d[st:] - d[:-st], into one buffer in
        # _grid_tables' order
        diff, i = np.empty(weight.size), 0
        for st in _STRIDES:
            np.subtract(d[st:], d[:-st], out=diff[i : i + d.size - st])
            i += d.size - st
        np.abs(diff, out=diff)
        value = float(diff.max())
        diff /= weight
        conditions["M4" + star] = {"value": value, "ratio": float(diff.max())}
    return conditions


def molecule_check(fn, Q: tuple[int, int], params: MoleculeParams) -> MoleculeReport:
    """Grid-certified report of (M1)-(M4) (nu >= 1) or starred forms (nu = 0).

    ``fn`` is the candidate molecule m_Q itself, for a function f the map x
    -> 2^(nu/2) f(2^nu x - tau).  The report is _certify's of its pull-back
    y -> 2^(-nu/2) fn(x_Q + y / 2^nu), which is f again, so the ratios and
    values are f's, the same for every (nu, tau), and (M1) is int y^gamma
    f.  fn is called once, at x_Q + y / 2^nu for the grid points and their
    difference points y + k 2^-17 and the (M1) nodes of y; it must return
    one value per point.  The cube must be a pair of integers (numpy's
    too, bool not) with 0 <= nu <= 1023 and |tau| < 2^35: there 2^nu is
    finite and tau + y + k 2^-17 fits in a double's 53 bits, so every grid
    and difference point is exact, and (M2)-(M4) are the same numbers for
    every cube.  The Gauss nodes of (M1) are not dyadic, so they round in
    x, and (M1)'s value drifts with |tau|.  Any other Q raises ValueError,
    and so does an fn whose values do not have the points' 1-D shape.
    Each condition maps to its "value" and "ratio"; report-only: ratios >
    1 mean the condition fails, and a NaN value reaches every condition
    that reads it.
    """
    nu, tau = _dyadic_cube(Q)
    scale = 2.0**nu
    x_q, gain = tau / scale, 2.0 ** (-nu / 2.0)
    conditions = _certify(lambda y: gain * np.asarray(fn(x_q + y / scale)), params, nu == 0)
    return MoleculeReport(nu=nu, tau=tau, conditions=conditions)


# ---------------------------------------------------------------------------
# wavelet systems
# ---------------------------------------------------------------------------

class WaveletSystem(NamedTuple):
    """A scaling function and a wavelet of x (scalar or array), their data
    bound once by natural_system or fractional_system."""

    scale_fn: Callable
    wavelet_fn: Callable


def natural_system(n: int) -> WaveletSystem:
    """The localized Battle-Lemarie pair of order n over Lambda' and Lambda''.

    scale_fn is B_n and wavelet_fn kappa_n times an order-n spline, both in
    closed form from bl_system's exact integers (battle_lemarie).
    """
    sys = bl_system(n)
    return WaveletSystem(
        lambda x: scaling_localized(sys, x),
        lambda x: wavelet_localized(sys, x),
    )


def fractional_system(
    alpha: float,
    variant: str,
    comb_n: int,
    c0: float = 1.0,
    c: float = 1.0,
    trunc: int = 80,
) -> WaveletSystem:
    """The one-sided fractional pair of order alpha scaled by c0, c in (0, 1].

    scale_fn = c0 beta^alpha and wavelet_fn = c Psi_combined of order
    comb_n with psi truncated at |k| <= trunc; calibrate_constants finds
    the largest c0, c that make the pair molecules.  A c0 or c outside
    (0, 1], NaN included, raises ValueError naming it.
    """
    for name, value in (("c0", c0), ("c", c)):
        if not 0.0 < value <= 1.0:
            raise ValueError(f"{name} must lie in (0, 1], got {value!r}")
    spec = FractionalSpline(alpha, variant)
    return WaveletSystem(
        lambda x: c0 * frac_bspline(spec, x),
        lambda x: c * Psi_combined(alpha, comb_n, variant, x, trunc=trunc),
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

    c0 scales the order-alpha spline, certified in the starred set of nu =
    0; c scales the combined wavelet, certified in the unstarred set,
    which every dilate and translate at nu >= 1 shares.  Each function is
    certified once, on the reference grid in y (_certify), and its worst
    envelope ratio inverted with a 2% safety margin.  No scale factor can
    make a nonzero moment vanish, so (M1) is voided with N = -1: (c0, c)
    read only the envelope ratios (M2)-(M4) and are the same as with
    ``params``.  Certify (M1) on the calibrated system with
    ``molecule_check`` and ``params``.  ``nus`` needs only to hold a nu >=
    1; without one, where c would be certified by nothing, it raises
    ValueError, and so does a non-finite ratio.
    """
    if not any(nu >= 1 for nu in nus):
        raise ValueError(f"nus must hold a nu >= 1, got {nus!r}")
    sysu = fractional_system(alpha, variant, comb_n, trunc=trunc)
    params = replace(params, N=-1)
    c0, c = (
        _constant([entry["ratio"] for entry in _certify(f, params, starred).values()])
        for f, starred in ((sysu.scale_fn, True), (sysu.wavelet_fn, False))
    )
    return c0, c


def _constant(ratios: list[float]) -> float:
    """0.98 over the worst ratio, capped at 1 (1 with no ratio above 0).

    A non-finite ratio certifies nothing, so it raises ValueError.
    """
    if not all(math.isfinite(r) for r in ratios):
        raise ValueError(f"non-finite envelope ratio among {ratios}")
    worst = max(ratios)
    return min(1.0, 0.98 / worst) if worst > 0 else 1.0
