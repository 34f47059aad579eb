import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbesov import frac_wavelets as fw
from fracbesov import splines
from fracbesov.battle_lemarie import bl_system, scaling_localized, wavelet_localized
from fracbesov.frac_wavelets import (
    InfeasibleOrderError,
    MoleculeParams,
    Psi_combined,
    WaveletSystem,
    calibrate_constants,
    fractional_system,
    molecule_check,
    molecule_params_for,
    natural_system,
    panel_rule,
    psi_frac,
    wavelet_filter,
)
from fracbesov.splines import (
    FractionalSpline,
    TruncationError,
    beta_star_integer_samples,
    bspline_natural,
    frac_bspline,
)
from fracbesov.specfun import gbinom_row, hurwitz_zeta
from test_battle_lemarie import root_pair, root_system
from test_natural_oracle import molecule
from test_quadrature import graded_breaks


def _x_space_conditions(fn, Q, params):
    """Reference (M1)-(M4) report: the envelopes built in x on every call.

    fn is called separately for the values, each point of the central
    difference and the (M1) nodes.  Its values are taken in the units of
    m_Q's pull-back f(y), y = 2^nu (x - x_Q), which the report reads:
    times 2^(-nu/2), so that the envelopes in x lose that factor, the
    difference of order [s] in x is 2^(nu [s]) times (M4)'s value in y,
    and (M1) is int y^gamma f dy with dy = 2^nu dx.
    """
    nu, tau = Q
    x_q = tau / 2.0**nu
    scale = 2.0**nu
    s, M, N, delta = params.s, params.M, params.N, params.delta
    s_floor = math.floor(s)
    grid = x_q + np.arange(-25.0, 25.0 + 1e-12, 1.0 / 16.0) / scale

    def f(xs):
        return 2.0 ** (-nu / 2.0) * fn(xs)

    def deriv(gamma, xs):
        # the gamma-fold central difference with step h, 2^-17 in y
        if gamma == 0:
            return f(xs)
        h = 2.0**-17 / scale
        terms = ((-1) ** i * math.comb(gamma, i) * f(xs + (gamma - 2 * i) * h)
                 for i in range(gamma + 1))
        return sum(terms) / (2.0 * h) ** gamma

    table = [np.asarray(deriv(g, grid)) for g in range(max(s_floor, 0) + 1)]
    out = {}
    if N >= 0 and nu >= 1:
        a, b = float(grid.min()), float(grid.max())
        # the half-integers of y
        breaks = graded_breaks(a, b, per_unit=int(2 * scale))
        nodes, wts = panel_rule(breaks, 12)
        vals = f(nodes)
        moms = (abs(float(np.dot(scale * wts, (scale * (nodes - x_q)) ** g * vals)))
                for g in range(N + 1))
        out["M1"] = {"value": max(moms), "ratio": None}
    dist = np.abs(grid - x_q)
    star = "" if nu >= 1 else "*"
    expo = max(M, M - s) if nu >= 1 else M
    env2 = (1.0 + scale * dist) ** (-expo)
    v = np.abs(table[0])
    out["M2" + star] = {"value": float(np.max(v)), "ratio": float(np.max(v / env2))}
    if s >= 0:
        gammas = range(0, s_floor + 1) if nu >= 1 else range(1, s_floor + 1)
        worst3 = 0.0
        for g in gammas:
            env3 = 2.0 ** (nu * g) * (1.0 + scale * dist) ** (-M)
            worst3 = max(worst3, float(np.max(np.abs(table[g]) / env3)))
        if nu >= 1 or s_floor >= 1:
            out["M3" + star] = {"value": None, "ratio": worst3}
        g = s_floor
        strides = (1, 4, 16, 64)
        ix = np.concatenate([np.arange(st, grid.size) for st in strides])
        iy = np.concatenate([np.arange(grid.size - st) for st in strides])
        diff = np.abs(table[g][ix] - table[g][iy])
        h = np.abs(grid[ix] - grid[iy])
        sup_env = (1.0 + scale * np.maximum(0.0, dist[ix] - h)) ** (-M)
        bound = 2.0 ** (nu * g + nu * delta) * h**delta * sup_env
        ok = bound > 0
        out["M4" + star] = {
            "value": float(np.max(diff)) * 2.0 ** (-nu * g),
            "ratio": float(np.max(diff[ok] / bound[ok])),
        }
    return out


def _assert_same_conditions(got, want):
    # ratios and values to 1e-15 relative, (M1) to 1e-16 absolute
    assert set(got) == set(want)
    for name, entry in want.items():
        for key, ref in entry.items():
            if ref is None:
                assert got[name][key] is None
            elif name == "M1":
                assert abs(got[name][key] - ref) <= 1e-16
            else:
                assert abs(got[name][key] - ref) <= 1e-15 * abs(ref)


def _assert_matches_oracle(fn, Q, params):
    got = molecule_check(fn, Q, params).conditions
    _assert_same_conditions(got, _x_space_conditions(fn, Q, params))


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


def _windowed_moment0(fn, alpha, L=60.0, W=45.0):
    """int fn over [-L, W] by 16-point panels, plus fn(-L) L / (alpha + 1),
    the left tail of a causal wavelet that decays like |x|^(-alpha-2)."""
    nodes, wts = panel_rule(graded_breaks(-L, W, per_unit=2, levels=3), 16)
    return float(np.dot(wts, fn(nodes))) + fn(-L) * L / (alpha + 1.0)


class TestFilter:
    def test_chui_wang_anchor(self):
        # at alpha = 1 this is Chui-Wang's filter (1/12) [1, -6, 10, -6, 1]
        # in the Unser-Blu index l + k - 1, i.e. on k = -2..2 (Chui-Wang
        # place it on k = 0..4); every tap outside that block vanishes
        q = wavelet_filter(1.0, 10)
        center = q[8 : 8 + 5]
        assert center == pytest.approx(
            np.array([1, -6, 10, -6, 1]) / 12.0, abs=1e-7
        )
        assert np.max(np.abs(q[:8])) < 1e-7
        assert np.max(np.abs(q[13:])) < 1e-7

    def test_decay(self):
        q = wavelet_filter(0.5, 200)
        ks = np.arange(-200, 201)
        right = np.abs(q[ks >= 50])
        # |q_k| ~ k^(-2 alpha - 3) on the causal side
        assert right[-1] < right[0] * (50.0 / 200.0) ** 3.5

    @pytest.mark.parametrize("alpha", [0.5, 4 / 3, 5 / 3, 13 / 3])
    @pytest.mark.parametrize("kmax", [60, 80])
    def test_tail_cutoff(self, alpha, kmax):
        # the l-sum stops at kmax + 48; taking it to kmax + 1000 moves q by
        # at most 4.9e-15 max|q| (alpha = 1/2, kmax = 60)
        ltrunc = kmax + 1000
        mid = kmax + ltrunc + 2
        sam = beta_star_integer_samples(2.0 * alpha + 1.0, mid)
        ks = np.arange(-kmax, kmax + 1)
        ref = sam[mid + ks[:, None] - 1 + np.arange(ltrunc + 1)] @ gbinom_row(
            alpha + 1.0, ltrunc
        )
        ref *= 2.0**-alpha * (-1.0) ** ks
        q = wavelet_filter(alpha, kmax)
        assert np.max(np.abs(q - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize(
        "alpha, bound", [(0.5, 1e-12), (4 / 3, 1e-14), (5 / 3, 1e-14), (13 / 3, 1e-14)])
    def test_filter_matches_two_scale_symbol(self, alpha, bound):
        # the l-sum cut-off and the samples' aliasing together; measured
        # 2.2e-13 (1/2), 1.2e-15 (4/3), 1.3e-15 (5/3), 3.3e-15 (13/3) max|q|
        q = wavelet_filter(alpha, 60)
        assert np.max(np.abs(q - _symbol_filter(alpha, 60))) <= bound * np.max(np.abs(q))

    @pytest.mark.parametrize("alpha", [0.5, 4 / 3, 3 / 2, 5 / 3])
    def test_filter_moments_decay(self, alpha):
        # moment gamma of psi is 2^(-gamma-1) sum_i binom(gamma, i) mu_i
        # S_(gamma-i), mu_i the moments of beta_+ and S_j = sum_k k^j q_k,
        # and the symbol's factor (1 - e^(iw))^(alpha+1) makes every S_j
        # with integer j < alpha + 1 vanish.  The truncated S_j(K) of
        # wavelet_filter(alpha, K) falls like K^(j-alpha-1): S_j(K)
        # K^(alpha+1-j) over K = 125..1000 spreads by at most 0.8 % of its
        # value (alpha = 1/2, j = 0), and the band is 2 %.  psi_- has q
        # reversed, so its S_j only change sign by (-1)^j.  At 13/3 the
        # sums reach the rounding floor by K = 500; the symbol test covers it.
        for j in range(math.floor(alpha) + 2):
            scaled = []
            for K in (125, 250, 500, 1000):
                k = np.arange(-K, K + 1).astype(float)
                scaled.append(float(np.dot(k**j, wavelet_filter(alpha, K))) * K ** (alpha + 1 - j))
            assert all(abs(v - scaled[-1]) <= 0.02 * abs(scaled[-1]) for v in scaled), (j, scaled)

    def test_semiorthogonality(self):
        # <psi, beta(. - m)> = 0: the wavelet space is orthogonal to V_0
        alpha = 0.5
        spec = FractionalSpline(alpha=alpha)
        breaks = graded_breaks(-40.0, 50.0, per_unit=2, levels=3)
        nodes, wts = panel_rule(breaks, 16)
        psi_vals = psi_frac(alpha, "causal", nodes, trunc=130)
        for m in (-2, 0, 3):
            ip = float(np.dot(wts, psi_vals * frac_bspline(spec, nodes - m)))
            assert abs(ip) < 5e-4

    def test_cached_arrays_read_only(self):
        # the cached filter and the (M1) rule are shared by every caller: an
        # in-place write must not reach the cache
        before = psi_frac(0.5, "causal", 0.3, trunc=60)
        shared = (wavelet_filter(0.5, 60), *fw._moment_rule())
        for arr in shared:
            with pytest.raises(ValueError):
                arr *= 2.0
        assert psi_frac(0.5, "causal", 0.3, trunc=60) == before


class TestPsi:
    def test_reindexing_consistency(self):
        # the m-grouped series (summing the binomial against translated
        # splines rather than against the symmetric samples) agrees with
        # the direct filter evaluation
        alpha = 0.5
        K = 60
        sam = beta_star_integer_samples(2 * alpha + 1, 3 * K + 4)
        mid = 3 * K + 4
        binom = gbinom_row(alpha + 1.0, 2 * K - 1)
        binom[1::2] *= -1.0
        spec = FractionalSpline(alpha=alpha)
        ms = np.arange(-K, K + 1)
        ns = np.arange(0, 2 * K)
        outer = np.array([(-1.0) ** m * sam[mid + m - 1] for m in ms])

        def expr3(x):
            args = 2.0 * x - ms[:, None] + ns[None, :]
            vals = frac_bspline(spec, args.ravel()).reshape(args.shape)
            return 2.0**-alpha * float(outer @ (vals @ binom))

        for x in np.linspace(-1.5, 3.0, 10):
            direct = psi_frac(alpha, "causal", float(x), trunc=K)
            assert expr3(float(x)) == pytest.approx(direct, abs=1e-8)

    @pytest.mark.parametrize("alpha", [0.5, 5 / 3])
    def test_causal_series_oracle(self, alpha, monkeypatch):
        # psi_+(x) = sum_k q_k beta_+(2x - k), assembled from the filter and
        # frac_bspline; the mixed array holds shared and distinct offsets and
        # points with 2x + trunc < 0, where every term vanishes.  TAIL_TOL is
        # lifted so that the truncated series itself is compared there.
        monkeypatch.setattr(fw, "TAIL_TOL", 1.0)
        K = 40
        rng = np.random.default_rng(2)
        xs = np.concatenate(
            [np.arange(-6.0, 12.0, 0.25), rng.uniform(-22.0, 15.0, 25),
             [-20.5, -25.0, -31.3]]
        )
        q = wavelet_filter(alpha, K)
        spec = FractionalSpline(alpha=alpha)
        ks = np.arange(-K, K + 1)
        direct = np.array([float(q @ frac_bspline(spec, 2 * x - ks)) for x in xs])
        got = psi_frac(alpha, "causal", xs, trunc=K)
        assert got == pytest.approx(direct, abs=1e-12)
        dead = 2 * xs + K < 0
        assert dead.sum() >= 3 and np.all(got[dead] == 0.0)

    def test_anticausal_mirror(self):
        # mirrored series oracle: assemble psi_- directly from the filter
        alpha = 0.5
        xs = np.linspace(-2.0, 2.0, 20)
        spec_m = FractionalSpline(alpha=alpha, variant="anticausal")
        ks = np.arange(-90, 91)
        qq = wavelet_filter(alpha, 90)
        direct = np.array(
            [float(np.dot(qq, frac_bspline(spec_m, 2 * x - ks))) for x in xs])
        assert psi_frac(alpha, "anticausal", xs, trunc=90) == pytest.approx(
            direct, abs=1e-12
        )

    def test_windowed_quadrature_moment_oracle(self):
        # independent oracle for moment 0, which is exactly 0: integrate
        # the evaluated wavelet plus a power-law tail correction (3.6e-7)
        m0 = _windowed_moment0(lambda x: psi_frac(0.5, "causal", x, trunc=170), 0.5)
        assert abs(m0) < 1e-6

    def test_truncation_guard(self):
        with pytest.raises(TruncationError):
            psi_frac(0.5, "causal", -60.0, trunc=40)

    @pytest.mark.parametrize("trunc", [0, -1])
    def test_rejects_empty_filter(self, trunc):
        # trunc = 0 keeps only q_0, whose tail estimate reads 0; trunc < 0
        # leaves no filter at all
        with pytest.raises(ValueError, match="trunc"):
            psi_frac(0.5, "causal", 0.1, trunc=trunc)
        with pytest.raises(ValueError, match="trunc"):
            Psi_combined(0.5, 1, "causal", 0.1, trunc=trunc)

    @pytest.mark.parametrize("variant", ["causal", "anticausal"])
    def test_non_finite_gives_nan(self, variant):
        # the tail estimate reads the finite points only, so a NaN beside
        # a point that passes trips nothing; the finite points equal the
        # finite-only call bit for bit
        xs = np.array([0.3, np.nan, -1.2, np.inf, 2.6, -np.inf])
        ok = np.isfinite(xs)
        for fn in (
            lambda x: psi_frac(1.5, variant, x),
            lambda x: Psi_combined(1.5, 2, variant, x),
        ):
            assert math.isnan(fn(np.nan))
            got = fn(xs)
            assert np.all(np.isnan(got[~ok]))
            assert np.array_equal(got[ok], fn(xs[ok]))
        got = psi_frac(1.5, "causal", [0.3, np.nan])
        assert got[0] == psi_frac(1.5, "causal", 0.3) and math.isnan(got[1])

    @pytest.mark.parametrize(
        "trunc", [60.0, np.float64(60), 2.0, 2.5, 0, np.int64(0), -3, True, "60"], ids=repr)
    def test_rejects_non_integer_trunc(self, trunc):
        # every trunc that is not an integer >= 1 names trunc before the
        # filter is built; wavelet_filter's cache is typed, so it does not
        # serve 60.0 from the entry of the 60 cached here
        psi_frac(0.5, "causal", 0.1, trunc=60)
        for call in (
            lambda: psi_frac(0.5, "causal", 0.1, trunc=trunc),
            lambda: Psi_combined(0.5, 1, "causal", 0.1, trunc=trunc),
            lambda: fractional_system(0.5, "causal", 1, trunc=trunc).wavelet_fn(0.1),
            lambda: wavelet_filter(0.5, trunc),
        ):
            with pytest.raises(ValueError, match="trunc"):
                call()

    def test_accepts_numpy_integer_trunc(self):
        t = np.int64(60)
        assert psi_frac(0.5, "causal", 0.1, trunc=t) == psi_frac(0.5, "causal", 0.1, trunc=60)
        assert wavelet_filter(0.5, t).tobytes() == wavelet_filter(0.5, 60).tobytes()

    def test_rejects_natural_alpha(self):
        with pytest.raises(ValueError):
            psi_frac(2.0, "causal", 0.5)

    @settings(max_examples=60, deadline=2000, derandomize=True, database=None)
    @given(
        alpha=st.sampled_from([0.5, 4 / 3, 5 / 3, 13 / 3]),
        variant=st.sampled_from(["causal", "anticausal"]),
        trunc=st.integers(10, 80),
        ends=st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0)),
    )
    def test_truncation_raises_or_holds(self, alpha, variant, trunc, ends):
        # psi_frac either raises TruncationError or agrees with trunc + 40
        # to TAIL_TOL of max|psi|; a probe of 400 such windows came within
        # 2.1e-8 of max|psi|
        x = np.linspace(min(ends), max(ends), 9)
        try:
            got = psi_frac(alpha, variant, x, trunc=trunc)
        except TruncationError:
            return
        ref = psi_frac(alpha, variant, x, trunc=trunc + 40)
        peak = np.max(np.abs(psi_frac(alpha, variant, np.linspace(-4.0, 4.0, 801))))
        assert np.max(np.abs(got - ref)) <= fw.TAIL_TOL * peak


class TestPsiCombined:
    def test_hand_assembly_n1(self):
        alpha, n = 0.5, 1
        lam = bl_system(n).lam
        x = 0.0
        expect = lam[0] * psi_frac(alpha, "causal", 1.0, trunc=80) - (
            lam[1] / 2.0
        ) * (
            psi_frac(alpha, "causal", 2.0, trunc=80)
            + psi_frac(alpha, "causal", 0.0, trunc=80)
        )
        assert Psi_combined(alpha, n, "causal", x, trunc=80) == pytest.approx(
            expect, rel=1e-12
        )

    @pytest.mark.parametrize("variant", ["causal", "anticausal"])
    @pytest.mark.parametrize("alpha", [0.5, 13 / 3])
    def test_translate_sum(self, alpha, variant, monkeypatch):
        # Psi against its defining sum of psi translates.  The points lie on
        # a 2^-20 grid so that every translate x + t is exact and both sides
        # read the spline at the same offsets: at alpha = 13/3 the far tail
        # of beta_+ carries cancellation noise of ~1e-10 that moves with
        # the last bit of the offset (ROADMAP item 4).  With TAIL_TOL a
        # quarter of trunc times the live filter edge, the estimate trips
        # exactly where the margin is <= 1 or the natural cut fails, so at
        # x = 19 psi(x) passes while the translate psi(x + 2n) does not.
        K = 40
        q = wavelet_filter(alpha, K)
        edge_q = q[0] if variant == "causal" else q[-1]
        monkeypatch.setattr(fw, "TAIL_TOL", K * abs(edge_q) / 4.0)
        rng = np.random.default_rng(5)
        xs = np.concatenate(
            [np.arange(-6.0, 12.0, 0.25), rng.uniform(-19.0, 13.25, 40),
             [-19.0, -18.3, 13.1, 13.25]]
        )
        xs = np.round(xs * 2.0**20) / 2.0**20

        def psi(x):
            return psi_frac(alpha, variant, x, trunc=K)

        def by_sum(x, n):
            lam = bl_system(n).lam
            return sum(
                lam[j] / (2.0 * (-1.0) ** j) * (psi(x + n + j) + psi(x + n - j))
                for j in range(n + 1)
            )

        edge = 19.0
        psi(edge)  # passes: only the translates of the edge trip the estimate
        for n in (1, 2, 3):
            expect = by_sum(xs, n)
            got = Psi_combined(alpha, n, variant, xs, trunc=K)
            assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))
            with pytest.raises(TruncationError):
                by_sum(edge, n)
            with pytest.raises(TruncationError):
                Psi_combined(alpha, n, variant, edge, trunc=K)

    def test_moment_zero_by_linearity(self):
        # Psi is a finite sum of psi translates, so its moment 0 is exactly
        # 0 too: psi's windowed oracle reads -5.9e-7 on Psi at n = 1 (at
        # n = 2 the one-term tail correction leaves 1.6e-5)
        m0 = _windowed_moment0(lambda x: Psi_combined(0.5, 1, "causal", x, trunc=170), 0.5)
        assert abs(m0) < 1e-6

    def test_fourier_transfer_oracle(self):
        # F[Psi](w) = e^{i n w} sum_j (-1)^j lambda_j cos(j w) * F[psi](w),
        # both transforms taken by windowed quadrature
        alpha, n, K = 0.5, 1, 150
        sys = bl_system(n)
        breaks = graded_breaks(-52.0, 48.0, per_unit=2, levels=3)
        nodes, wts = panel_rule(breaks, 16)
        psi_vals = psi_frac(alpha, "causal", nodes, trunc=K)
        Psi_vals = Psi_combined(alpha, n, "causal", nodes, trunc=K)
        for om in np.linspace(0.3, 3.0, 16):
            e = np.exp(-1j * om * nodes)
            f_psi = np.dot(wts, psi_vals * e)
            f_Psi = np.dot(wts, Psi_vals * e)
            transfer = np.exp(1j * n * om) * sum(
                (-1.0) ** j * sys.lam[j] * math.cos(j * om) for j in range(n + 1)
            )
            assert abs(f_Psi - transfer * f_psi) < 2e-4


def _params(**fields):
    """Example 5.1's forward MoleculeParams with the given fields replaced."""
    base = dict(delta=0.5, M=2.0, N=0, J=1.0, s=0.0)
    return MoleculeParams(**{**base, **fields})


def _envelope_constant(rep):
    """calibrate_constants' constant from the (M2)-(M4) ratios of a report."""
    return fw._constant([e["ratio"] for name, e in rep.conditions.items() if name != "M1"])


@pytest.mark.parametrize("variant", ["causal", "anticausal"])
@pytest.mark.parametrize("alpha", [0.5, 4 / 3, 5 / 3])
@pytest.mark.parametrize("block", [50, 997])
def test_chunked_evaluation_matches_default(block, alpha, variant, monkeypatch):
    # a small working-memory block runs beta_plus_filtered's loop over
    # offset chunks and _toeplitz_product's column blocks, which the default
    # block never splits at these sizes; measured <= 2.4e-13 of max.  At
    # 13/3 Psi moves by up to 8.9e-10 of max|Psi|, the tail cancellation of
    # beta_+ regrouped (ROADMAP item 2), so that order is left out.  At
    # block 50 every offset is its own chunk and every column its own
    # block, 8 ms per point for Psi, so Psi takes the first 30 points there
    x = np.random.default_rng(23).uniform(-15.0, 15.0, 300)
    spec = FractionalSpline(alpha, variant)
    cases = [
        (lambda x: frac_bspline(spec, x), x),
        (lambda x: Psi_combined(alpha, 2, variant, x, trunc=80), x if block > 50 else x[:30]),
    ]
    for fn, pts in cases:
        want = fn(pts)
        monkeypatch.setattr(splines, "_BLOCK", block)
        got = fn(pts)
        monkeypatch.undo()
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: FractionalSpline(alpha=math.nan), "alpha"),
        (lambda: FractionalSpline(alpha=math.inf), "alpha"),
        (lambda: molecule_params_for(2.0, 2.0, 0.0, 1.0, math.nan), "alpha"),
        (lambda: molecule_params_for(2.0, 2.0, math.nan, 1.0, 2.0), "s"),
        (lambda: molecule_params_for(2.0, 2.0, 0.0, math.inf, 2.0), "r_w"),
        # the cache of bl_system(2) does not answer for 2.0 or True == 1
        (lambda: (bl_system(2), bl_system(2.0)), "n"),
        (lambda: (bl_system(1), bl_system(True)), "n"),
        (lambda: bl_system(9), "n"),
        (lambda: Psi_combined(5 / 3, 2.0, "causal", 0.3), "n"),
        (lambda: natural_system(0), "n"),
        # MoleculeParams checks its own fields: s = NaN and inf failed inside
        # math.floor, and N = 0.5 and N = True were accepted
        (lambda: _params(s=math.nan), "s"),
        (lambda: _params(s=math.inf), "s"),
        (lambda: _params(M=math.inf), "M"),
        (lambda: _params(J=math.nan), "J"),
        (lambda: _params(delta=math.nan), "delta"),
        (lambda: _params(N=0.5), "N"),
        (lambda: _params(N=True), "N"),
        (lambda: _params(N=-2), "N"),
        (lambda: _params(N=np.float64(0)), "N"),
        # the two paper conditions said "need M > J" and "need s - [s] < delta
        # <= 1", naming no field
        (lambda: _params(M=1.0), "M"),
        (lambda: _params(delta=0.0), "delta"),
        (lambda: _params(delta=1.5), "delta"),
        (lambda: _params(s=0.5, delta=0.5), "delta"),
        # -1 returned no samples, 2.5 raised numpy's IndexError, True was 1
        (lambda: beta_star_integer_samples(2.0, -1), "mmax"),
        (lambda: beta_star_integer_samples(2.0, 2.5), "mmax"),
        (lambda: beta_star_integer_samples(2.0, True), "mmax"),
    ],
    ids=["spline-nan", "spline-inf", "params-alpha", "params-s", "params-r_w",
         "bl-float", "bl-bool", "bl-9", "combined-float", "natural-0",
         "fields-s-nan", "fields-s-inf", "fields-M-inf", "fields-J-nan", "fields-delta-nan",
         "fields-N-half", "fields-N-bool", "fields-N-neg", "fields-N-float",
         "fields-M-not-above-J", "fields-delta-0", "fields-delta-above-1", "fields-delta-frac-s",
         "mmax-neg", "mmax-float", "mmax-bool"],
)
def test_bad_argument_raises_naming_it(call, name):
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        call()


@pytest.mark.parametrize("alpha", [0.0, -0.5, math.inf, math.nan], ids=["0", "neg", "inf", "nan"])
@pytest.mark.parametrize(
    "call",
    [
        lambda a: wavelet_filter(a, 10),
        lambda a: beta_star_integer_samples(a, 10),
        lambda a: psi_frac(a, "causal", 0.1),
        lambda a: Psi_combined(a, 2, "anticausal", 0.1),
    ],
    ids=["filter", "beta-star", "psi", "combined"],
)
def test_bad_alpha_raises_naming_it(call, alpha):
    with pytest.raises(ValueError, match=r"^alpha must be"):
        call(alpha)


class TestMoleculeParams:
    def test_example_forward_set(self):
        p = molecule_params_for(2.0, 2.0, 0.0, 1.0, 5 / 3)
        assert (p.J, p.N, p.M) == (1.0, 0, 2.0)

    def test_example_inverse_set(self):
        p = molecule_params_for(2.0, 2.0, -1 / 3, 1.0, 4 / 3)
        assert (p.J, p.N, p.M) == (1.0, 0, 2.0)

    def test_low_s_branch(self):
        # s < -1 uses the alpha + 2 + s bound
        p = molecule_params_for(2.0, 2.0, -2.0, 1.0, 5.0)
        assert p.M == pytest.approx(2.0)  # min(5, J+1) with J = 1

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleOrderError):
            molecule_params_for(2.0, 2.0, 5.0, 4.0, 0.1)

    def test_delta_window(self):
        p = molecule_params_for(2.0, 2.0, 0.25, 1.0, 5 / 3)
        assert 0.25 < p.delta <= 1.0

    def test_p_range(self):
        # J = r_w/p + (1 - 1/p): r_w at p = 1, (r_w + 1)/2 at p = 2, 1 at p = inf
        assert molecule_params_for(1.0, 2.0, 0.0, 1.5, 5.0) == MoleculeParams(
            delta=0.5, M=2.5, N=0, J=1.5, s=0.0)
        assert molecule_params_for(2.0, 2.0, 0.5, 2.0, 5.0) == MoleculeParams(
            delta=0.75, M=2.5, N=0, J=1.5, s=0.5)
        assert molecule_params_for(math.inf, 2.0, 0.0, 3.0, 5.0).J == 1.0
        for p in (math.nan, 0.5, -math.inf):
            with pytest.raises(ValueError, match="p must be"):
                molecule_params_for(p, 2.0, 0.0, 1.0, 5 / 3)


class TestMoleculeCheck:
    def test_compact_support_passes_trivially(self):
        params = molecule_params_for(2.0, 2.0, 0.0, 1.0, 2.0)
        nat = natural_system(2)
        c0 = _envelope_constant(molecule_check(nat.scale_fn, (0, 0), params))
        rep2 = molecule_check(lambda x: c0 * nat.scale_fn(x), (0, 0), params)
        assert rep2.passes()

    def test_example51_calibration(self):
        params = molecule_params_for(2.0, 2.0, 0.0, 1.0, 5 / 3)
        c0, c = calibrate_constants(5 / 3, "causal", 2, params, nus=(0, 1), trunc=60)
        assert 0.0 < c0 <= 1.0
        assert 0.0 < c <= 1.0
        sysf = fractional_system(5 / 3, "causal", 2, c0=c0, c=c, trunc=60)
        rep0 = molecule_check(sysf.scale_fn, (0, 0), params)
        assert rep0.passes()
        assert "M1" not in rep0.conditions  # no moment condition at nu = 0

        rep1 = molecule_check(molecule(sysf.wavelet_fn, (1, 0)), (1, 0), params)
        assert rep1.passes()
        assert rep1.conditions["M1"]["value"] < 1e-5

    def test_calibration_needs_no_moment_quadrature(self, monkeypatch):
        # scale factors cannot decide (M1), so the calibration builds and
        # reads no (M1) rule: both are refused, so the guard holds whether
        # or not _moment_rule's cache is warm.  The constants are those of
        # Example 5.1 with (M1) certified, bit for bit those of the unscaled
        # pair certified in y
        def no_quadrature(*args, **kwargs):
            raise AssertionError("calibration evaluated a moment quadrature")

        monkeypatch.setattr("fracbesov.frac_wavelets.panel_rule", no_quadrature)
        monkeypatch.setattr("fracbesov.frac_wavelets._moment_rule", no_quadrature)
        expected = {
            (0.0, 5 / 3): (0.20756847809520673, 0.0032335175650289494),
            (-1 / 3, 4 / 3): (0.23035715940027968, 0.003184090786653335),
        }
        for (s, alpha), consts in expected.items():
            params = molecule_params_for(2.0, 2.0, s, 1.0, alpha)
            assert calibrate_constants(alpha, "causal", 2, params, nus=(0, 1), trunc=60) == consts

    def test_translation_covariance(self):
        # dilation too: on the y-lattice m_Q reads Psi at the same points for
        # every (nu, tau), and only the factor 2^(nu/2) rounds (3.3e-16 measured)
        for s, alpha in ((0.0, 5 / 3), (-1 / 3, 4 / 3)):
            params = molecule_params_for(2.0, 2.0, s, 1.0, alpha)
            sysf = fractional_system(alpha, "causal", 2, trunc=60)
            ref = molecule_check(molecule(sysf.wavelet_fn, (1, 0)), (1, 0), params).conditions
            assert set(ref) == ({"M1", "M2", "M3", "M4"} if s >= 0 else {"M1", "M2"})
            for nu in (1, 2, 3):
                for tau in (-7, 0, 5):
                    Q = (nu, tau)
                    rep = molecule_check(molecule(sysf.wavelet_fn, Q), Q, params).conditions
                    assert set(rep) == set(ref)
                    for cond in set(ref) - {"M1"}:
                        assert rep[cond]["ratio"] == pytest.approx(ref[cond]["ratio"], rel=1e-12)
            # at the ends of the exact range |tau| < 2^35 the grid and its
            # difference points are exact, so (M2)-(M4) are tau = 0's bit for
            # bit; (M1)'s Gauss nodes round in x and drift (8.8e-6 against
            # 6.4e-6 for the forward set at -(2^35 - 1), measured)
            for tau in (2**35 - 1, -(2**35 - 1)):
                rep = molecule_check(molecule(sysf.wavelet_fn, (1, tau)), (1, tau), params)
                assert {c: e for c, e in rep.conditions.items() if c != "M1"} == {
                    c: e for c, e in ref.items() if c != "M1"}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_natural_translation_covariance(self, n):
        # s = 1 takes the central-difference branch of (M3)/(M4); its points
        # are exact, so only 2^(nu/2) and its inverse round (7.1e-13 at
        # most over nu <= 4, |tau| <= 200, measured)
        params = molecule_params_for(2.0, 2.0, 1.0, 1.0, float(n))
        nat = natural_system(n)
        reps = [
            molecule_check(molecule(nat.wavelet_fn, Q), Q, params).conditions
            for Q in ((1, 0), (2, -5), (1, 2**35 - 1), (1, -(2**35 - 1)))
        ]
        assert set(reps[0]) == set(reps[1]) >= {"M2", "M3", "M4"}
        for cond in ("M2", "M3", "M4"):
            assert reps[1][cond]["ratio"] == pytest.approx(reps[0][cond]["ratio"], rel=1e-11)
        # N = -1: no (M1).  At |tau| = 2^35 - 1, the ends of molecule_check's
        # exact range, every point is exact and the report is tau = 0's
        assert reps[2] == reps[3] == reps[0]

    @pytest.mark.parametrize("n, s", [(3, 1), (4, 2)])
    def test_single_evaluation(self, n, s):
        # fn is called once, on the 2s + 1 grids x + k h, k = -s..s, of the
        # s-fold central difference (s = 2 took 7 before the stencil); N =
        # -1 here, so there is no (M1)
        params = molecule_params_for(2.0, 2.0, float(s), 1.0, float(n))
        assert params.N == -1
        m_q = molecule(natural_system(n).wavelet_fn, (1, 2))
        seen = []

        def fn(x):
            seen.append(np.size(x))
            return m_q(x)

        rep = molecule_check(fn, (1, 2), params)
        assert {"M2", "M3", "M4"} <= set(rep.conditions)
        assert seen == [(2 * s + 1) * 801]

    def test_single_evaluation_with_moments(self):
        # N = 0 at nu = 1: the grid and the 1200 (M1) nodes in one call
        params = molecule_params_for(2.0, 2.0, 0.0, 1.0, 3.0)
        assert params.N == 0
        m_q = molecule(natural_system(3).wavelet_fn, (1, 3))
        seen = []

        def fn(x):
            seen.append(np.size(x))
            return m_q(x)

        rep = molecule_check(fn, (1, 3), params)
        assert {"M1", "M2", "M3", "M4"} == set(rep.conditions)
        assert seen == [801 + 1200]

    @pytest.mark.parametrize("nu", range(5))
    @pytest.mark.parametrize("s", [0.0, 1.0, 2.0])
    def test_every_point_is_exact(self, s, nu):
        # fn is handed x_Q + (y + k 2^-17) / 2^nu for the grid points y, so
        # 2^nu x - tau lies on the lattice 2^-17 for every cube; N = -1
        # leaves out the (M1) nodes, which are Gauss points
        params = MoleculeParams(delta=1.0, M=3.0, N=-1, J=2.0, s=s)
        for tau in (-200, -37, 0, 5, 199, 200):
            seen = []

            def fn(x):
                seen.append(np.array(x))
                return np.zeros_like(x)

            molecule_check(fn, (nu, tau), params)
            u = (2.0**nu * seen[0] - tau) * 2.0**17
            assert u.size == (2 * s + 1) * 801
            assert np.array_equal(u, np.round(u)), tau

    def test_natural_moments_at_rounding_level(self):
        # the wavelet of order n has vanishing moments 0..n, and every knot
        # of m_Q is a panel end of the (M1) rule, so each moment up to N < n
        # reads rounding alone (4.8e-14 at most, n = 8, N = 7, Q = (1, -7))
        for n in range(1, 9):
            nat = natural_system(n)
            for N in range(n):
                params = MoleculeParams(delta=1.0, M=N + 2.0, N=N, J=N + 1.0, s=-0.5)
                for nu in (1, 2, 3):
                    for tau in (-7, 0, 5):
                        m_q = molecule(nat.wavelet_fn, (nu, tau))
                        rep = molecule_check(m_q, (nu, tau), params)
                        assert rep.conditions["M1"]["value"] <= 1e-13

    @pytest.mark.parametrize("variant", ["causal", "anticausal"])
    @pytest.mark.parametrize("alpha", [0.5, 4 / 3, 5 / 3])
    def test_fractional_moments_match_a_finer_rule(self, alpha, variant):
        # the true moments vanish, so (M1) reads the tail the window drops;
        # 16-point Gauss on the panels of y's lattice k/64 over the same
        # window agrees to 8.5e-8 relative (measured)
        params = MoleculeParams(delta=1.0, M=3.0, N=1, J=2.0, s=-0.5)
        fn = fractional_system(alpha, variant, 2, trunc=60).wavelet_fn
        for nu in (1, 2):
            for tau in (0, 3):
                m_q = molecule(fn, (nu, tau))
                got = molecule_check(m_q, (nu, tau), params).conditions["M1"]["value"]
                # int y^g f(y) dy, f(y) = 2^(-nu/2) m_q(x_Q + y / 2^nu)
                nodes, wts = panel_rule(np.arange(-1600, 1601) / 64.0, 16)
                vals = 2.0 ** (-nu / 2.0) * m_q(tau / 2.0**nu + nodes / 2.0**nu)
                ref = max(abs(float(np.dot(wts, nodes**g * vals))) for g in range(2))
                assert got == pytest.approx(ref, rel=1e-6)

    @pytest.mark.parametrize("where", ["shifted row", "moment node"])
    def test_nan_off_the_grid_fails(self, where):
        # a NaN only at grid + h reaches (M3) through D^1 alone, and one only
        # at an (M1) node reaches (M1) alone; (M2) stays finite in both
        params = _params(s=1.0, delta=1.0)
        m_q = molecule(natural_system(3).wavelet_fn, (1, 0))

        # fn's points: the rows grid - h, grid, grid + h, then the (M1) nodes
        bad = (2 if where == "shifted row" else 3) * 801 + 5

        def spoiled(x):
            vals = m_q(x)
            vals[bad] = np.nan
            return vals

        conds = molecule_check(spoiled, (1, 0), params).conditions
        assert math.isfinite(conds["M2"]["ratio"])
        assert math.isnan(conds["M3"]["ratio"]) == (where == "shifted row")
        assert math.isnan(conds["M1"]["value"]) == (where == "moment node")

    # s = 2 takes the two-fold central difference
    @pytest.mark.parametrize("n,s", [(2, 0), (2, 1), (3, 0), (3, 1), (4, 0), (4, 1), (4, 2)])
    def test_natural_matches_x_space_oracle(self, n, s):
        params = molecule_params_for(2.0, 2.0, float(s), 1.0, float(n))
        nat = natural_system(n)
        for nu in (0, 1, 2):
            for tau in (-8, 0, 7):
                fn = nat.scale_fn if nu == 0 else molecule(nat.wavelet_fn, (nu, tau))
                _assert_matches_oracle(fn, (nu, tau), params)

    def test_fractional_matches_x_space_oracle(self):
        params = molecule_params_for(2.0, 2.0, 0.0, 1.0, 5 / 3)
        sysf = fractional_system(5 / 3, "causal", 2, trunc=60)
        _assert_matches_oracle(sysf.scale_fn, (0, 0), params)
        _assert_matches_oracle(molecule(sysf.wavelet_fn, (1, 0)), (1, 0), params)

    @pytest.mark.parametrize(
        "fn",
        [lambda x: 0.0, lambda x: np.ones(3), lambda x: np.ones(np.size(x) - 1),
         lambda x: np.zeros((np.size(x), 1))],
        ids=["scalar", "three", "one-short", "column"])
    @pytest.mark.parametrize("Q", [(0, 0), (1, 0)])
    def test_fn_must_return_one_value_per_point(self, fn, Q):
        # a scalar failed as a 0-d IndexError, three values in numpy's
        # reshape; at (1, 0) the (M1) nodes follow the grid in the same call.
        # A column of the right size passed at (0, 0), and at (1, 0) broadcast
        # (M1)'s nodes**g * m1 to a nodes x nodes product
        params = molecule_params_for(2.0, 2.0, 0.0, 1.0, 2.0)
        with pytest.raises(ValueError, match=r"^fn must return one value per point, got shape"):
            molecule_check(fn, Q, params)

    def test_numpy_integer_moment_index(self):
        # N may be a numpy integer, which reports as the Python int does
        f = molecule(natural_system(3).wavelet_fn, (1, 0))
        reports = [
            molecule_check(f, (1, 0), _params(N=N)).conditions for N in (1, np.int64(1))
        ]
        assert reports[0] == reports[1] and "M1" in reports[0]

    def test_underflowing_envelope_raises(self):
        # (1 + 25)^-M underflows the (M4) weights at the grid's edge
        params = MoleculeParams(delta=0.5, M=240.0, N=-1, J=1.0, s=0.0)
        with pytest.raises(ValueError, match="underflows"):
            molecule_check(np.zeros_like, (0, 0), params)

    @pytest.mark.parametrize("nu", [0, 1])
    def test_nan_value_fails(self, nu):
        # a NaN at one grid point fails the report: max(0.0, nan) is 0.0
        # and nan > 1 is False, so neither may decide it
        params = molecule_params_for(2.0, 2.0, 0.0, 1.0, 2.0)
        clean = molecule(natural_system(2).wavelet_fn, (nu, 0))
        c = _envelope_constant(molecule_check(clean, (nu, 0), params))
        assert molecule_check(lambda x: c * clean(x), (nu, 0), params).passes()

        def spoiled(x):
            return np.where(x == 0.5, np.nan, c * clean(x))

        assert not molecule_check(spoiled, (nu, 0), params).passes()

    def test_all_nan_fails(self):
        params = molecule_params_for(2.0, 2.0, 0.0, 1.0, 2.0)
        rep = molecule_check(lambda x: np.full(np.shape(x), np.nan), (1, 0), params)
        assert math.isnan(rep.conditions["M3"]["ratio"])
        assert math.isnan(rep.conditions["M1"]["value"])
        assert not rep.passes()

    @pytest.mark.parametrize("nus", [(), (0,)])
    def test_calibration_needs_a_dilated_wavelet(self, nus):
        # with no nu >= 1 nothing certifies c, which came back as 1.0
        params = molecule_params_for(2.0, 2.0, 0.0, 1.0, 5 / 3)
        with pytest.raises(ValueError, match="nus"):
            calibrate_constants(5 / 3, "causal", 2, params, nus=nus, trunc=60)

    def test_calibration_rejects_nan(self, monkeypatch):
        def nan_system(*args, **kwargs):
            return WaveletSystem(lambda x: np.full(np.shape(x), np.nan), lambda x: x)

        monkeypatch.setattr("fracbesov.frac_wavelets.fractional_system", nan_system)
        params = molecule_params_for(2.0, 2.0, 0.0, 1.0, 5 / 3)
        with pytest.raises(ValueError):
            calibrate_constants(5 / 3, "causal", 2, params, nus=(0, 1), trunc=60)

    @staticmethod
    def _m4_ratio_on_z(fn, grid, x_q, nu, params, zs):
        """(M4) ratio with the sup over z taken on the given z values."""
        scale, delta, M = 2.0**nu, params.delta, params.M
        ratio = 0.0
        for st in (1, 4, 16, 64):
            xs, ys = grid[st:], grid[:-st]
            diff = np.abs(fn(xs) - fn(ys))
            h = np.abs(xs - ys)
            for i in range(0, xs.size, 64):
                sl = slice(i, i + 64)
                dist = np.abs(xs[sl, None] - np.outer(h[sl], zs) - x_q)
                sup_env = np.max((1.0 + scale * dist) ** (-M), axis=1)
                bound = 2.0 ** (nu / 2.0 + nu * delta) * h[sl] ** delta * sup_env
                ratio = max(ratio, float(np.max(diff[sl] / bound)))
        return ratio

    @pytest.mark.parametrize("kind", ["step", "natural"])
    def test_m4_exact_sup(self, kind):
        # s = 0: (M4) compares values (gamma = 0) with the sup of the envelope
        # over the segment [x - h, x + h], here against a brute-force sup
        # over 12001 points z of each segment x - h z on the reference grid
        params = molecule_params_for(2.0, 2.0, 0.0, 1.0, 2.0)
        nu, tau = 1, 3
        x_q = tau / 2.0**nu
        grid = x_q + np.arange(-25.0, 25.0 + 1e-12, 1.0 / 16.0) / 2.0**nu
        if kind == "step":
            # only pairs straddling x_q differ, where the exact sup is 1
            def fn(x):
                return (np.asarray(x) > x_q).astype(float)
        else:
            fn = molecule(natural_system(2).wavelet_fn, (nu, tau))

        ratio = molecule_check(fn, (nu, tau), params).conditions["M4"]["ratio"]
        dz = 2.0 / 12000
        brute = self._m4_ratio_on_z(fn, grid, x_q, nu, params, np.linspace(-1.0, 1.0, 12001))
        old = self._m4_ratio_on_z(fn, grid, x_q, nu, params, np.linspace(-1.0, 1.0, 65))
        # a z grid finds the nearest distance to within h dz / 2, so its
        # envelope sup is low by at most the factor (1 + scale h dz / 2)^M
        hmax = 64 * (grid[1] - grid[0])
        assert ratio <= brute * (1.0 + 1e-12)
        assert brute <= ratio * (1.0 + 2.0**nu * hmax * dz / 2.0) ** params.M
        assert ratio <= old * (1.0 + 1e-12)
        if kind == "step":
            # x_q is a grid point, so the largest ratio is the stride-1 pair
            # (x_q + h, x_q): h = one grid step, and the segment reaches x_q
            # at z = 1, where every z grid finds the sup 1
            h1 = grid[1] - grid[0]
            exact = 1.0 / (2.0 ** (nu / 2.0 + nu * params.delta) * h1**params.delta)
            assert ratio == pytest.approx(exact, rel=1e-12)
            assert brute == pytest.approx(exact, rel=1e-12)
            assert old == pytest.approx(exact, rel=1e-12)


class TestMolecule:
    @staticmethod
    def _functions():
        nat, frac = natural_system(3), fractional_system(5 / 3, "causal", 2, trunc=60)
        return [nat.scale_fn, nat.wavelet_fn, frac.scale_fn, frac.wavelet_fn]

    @pytest.mark.parametrize("nu", [0, 1, 2, 3])
    def test_matches_formula(self, nu):
        # the report of m_Q = 2^(nu/2) f(2^nu x - tau) is f's own, certified
        # in y: molecule_check hands m_Q the points x_Q + y / 2^nu, and only
        # 2^(nu/2) and its inverse round.  (M1)'s Gauss nodes round in x as
        # well, which moves it by up to 2.1e-13 (Psi, measured)
        rng = np.random.default_rng(16 + nu)
        params = molecule_params_for(2.0, 2.0, 0.0, 1.0, 3.0)
        for tau in rng.integers(-200, 201, 3).tolist():
            for f in self._functions():
                got = molecule_check(molecule(f, (nu, tau)), (nu, tau), params).conditions
                want = fw._certify(f, params, nu == 0)
                m1 = [rep.pop("M1", {}).get("value", 0.0) for rep in (got, want)]
                assert abs(m1[0] - m1[1]) <= 1e-12
                _assert_same_conditions(got, want)

    def test_origin_is_the_function(self):
        # at Q = (0, 0) the pull-back is the function itself, bit for bit
        for s in (0.0, 1.0):
            params = molecule_params_for(2.0, 2.0, s, 1.0, 3.0)
            for f in self._functions():
                assert molecule_check(f, (0, 0), params).conditions == fw._certify(f, params, True)

    @pytest.mark.parametrize(
        "Q", [(-1, 0), (0.5, 0), (1, 0.5), (1.0, 0), (np.float64(2), 3), (True, 0), (1, False),
              5, None, (1, 2, 3), (1,),
              (1, 2**35), (1, -(2**35)), (1, 2**40), (1024, 0), (np.int64(1024), 0)],
        ids=repr)
    def test_rejects_non_dyadic_cube(self, Q):
        # (-1, 0) and (0.5, 0) passed as starred nu = 0 reports with wrong
        # 2^(nu/2) scalings, and (1, 0.5) centred off the lattice of the
        # (M1) panel ends; 5 and None raised TypeError and (1, 2, 3) a bare
        # unpacking error, naming no cube.  Past |tau| < 2^35 the points
        # x_Q + y / 2^nu round: the order-2 wavelet's s = 1 report, which
        # fails at (1, 0), passed at (1, 2^40).  nu = 1024 overflowed 2^nu,
        # as an OverflowError, or for np.int64 as an all-NaN report
        f = natural_system(3).wavelet_fn
        params = molecule_params_for(2.0, 2.0, 0.0, 1.0, 3.0)
        with pytest.raises(ValueError, match="dyadic cube"):
            molecule_check(f, Q, params)

    def test_numpy_integer_cube(self):
        # numpy integers name the same cube as Python's, bit for bit
        f = natural_system(3).wavelet_fn
        params = molecule_params_for(2.0, 2.0, 0.0, 1.0, 3.0)
        reports = [
            molecule_check(molecule(f, Q), Q, params).conditions
            for Q in ((1, -3), (np.int64(1), np.int32(-3)))
        ]
        assert reports[0] == reports[1]


class TestShapes:
    @staticmethod
    def _evaluators():
        return [
            lambda x: frac_bspline(FractionalSpline(alpha=5 / 3), x),
            lambda x: frac_bspline(FractionalSpline(alpha=5 / 3, variant="anticausal"), x),
            lambda x: psi_frac(0.5, "causal", x),
            lambda x: psi_frac(5 / 3, "anticausal", x),
            lambda x: Psi_combined(5 / 3, 2, "causal", x),
            lambda x: Psi_combined(0.5, 1, "anticausal", x),
            lambda x: bspline_natural(3, x),
            natural_system(2).wavelet_fn,
        ]

    def test_two_dimensional_input(self):
        # every evaluator returns the input's shape, equal to the flat call
        x = np.array([[0.3, 1.7], [-0.4, 2.25]])
        for fn in self._evaluators():
            got = fn(x)
            assert got.shape == x.shape
            assert np.array_equal(got, fn(x.ravel()).reshape(x.shape))

    @pytest.mark.parametrize("shape", [(0,), (2, 0)])
    def test_empty_input(self, shape):
        x = np.empty(shape)
        for fn in self._evaluators():
            assert fn(x).shape == shape

    def test_zero_dimensional_input(self):
        # 0-d input gives a Python float, bitwise the 1-element call's value
        x = np.array(0.3)
        fns = self._evaluators() + [*natural_system(2), *fractional_system(5 / 3, "causal", 2)]
        for fn in fns:
            got = fn(x)
            assert type(got) is float
            assert np.array([got]).tobytes() == fn(x.reshape(1)).tobytes()


class TestWaveletSystem:
    def test_natural_normalization(self):
        nat = natural_system(1)
        beta = root_system(1).beta_n
        x = np.array([0.5, 1.2])
        # scale_fn * Lambda' is the localized beta_n B_1, B_1 the hat on
        # [0, 2]; Lambda' = prod_j (1 + r_j) is beta_n
        assert nat.scale_fn(x) * beta == pytest.approx(beta * np.array([0.5, 0.8]))

    def test_fields(self):
        assert WaveletSystem._fields == ("scale_fn", "wavelet_fn")

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_natural_pair(self, n):
        # the closed-form pair, bit for bit, which is the localized pair over
        # Lambda' and Lambda'' of the root oracle to 1e-13 of its largest value
        nat = natural_system(n)
        sys = bl_system(n)
        for x in (0.7, np.linspace(-5.0, 6.0, 23), np.array([[0.3, 1.7], [-0.4, 2.25]])):
            assert np.array_equal(nat.scale_fn(x), scaling_localized(sys, x))
            assert np.array_equal(nat.wavelet_fn(x), wavelet_localized(sys, x))
        x = np.linspace(-n, n + 1.0, 401)
        for got, ref in zip(nat, root_pair(n, x)):
            assert np.max(np.abs(got(x) - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("variant", ["causal", "anticausal"])
    def test_fractional_pair(self, variant):
        # c0 beta^alpha and c Psi with the system's trunc, bit for bit
        c0, c = 0.5, 0.25
        sysf = fractional_system(5 / 3, variant, 2, c0=c0, c=c, trunc=60)
        spec = FractionalSpline(5 / 3, variant)
        for x in (0.7, np.linspace(-6.0, 7.0, 27), np.array([[0.3, 1.7], [-0.4, 2.25]])):
            assert np.array_equal(sysf.scale_fn(x), c0 * frac_bspline(spec, x))
            assert np.array_equal(
                sysf.wavelet_fn(x), c * Psi_combined(5 / 3, 2, variant, x, trunc=60)
            )

    @pytest.mark.parametrize("bad", [0.0, -1.0, 1.5, math.nan, math.inf])
    @pytest.mark.parametrize("name", ["c0", "c"])
    def test_constants_lie_in_unit_interval(self, name, bad):
        # c0 = -1 returned -0.2093 at x = 0.5 and c0 = 2 returned 0.4187
        with pytest.raises(ValueError, match=rf"^{name} must lie in \(0, 1\]"):
            fractional_system(5 / 3, "causal", 2, **{name: bad})
        for good in (1.0, 1e-3):
            fn = getattr(fractional_system(5 / 3, "causal", 2, **{name: good}),
                         "scale_fn" if name == "c0" else "wavelet_fn")
            assert math.isfinite(fn(0.5))

    @pytest.mark.parametrize("variant", ["causal", "anticausal"])
    def test_trunc_forwarded(self, variant):
        # x = -12 lies in the tail that psi's estimate rejects at trunc = 20
        # but not at the default 80
        with pytest.raises(TruncationError):
            fractional_system(5 / 3, variant, 2, trunc=20).wavelet_fn(-12.0)
        assert math.isfinite(fractional_system(5 / 3, variant, 2).wavelet_fn(-12.0))
