import math

import numpy as np
import pytest

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
    psi_frac,
    psi_moment,
    wavelet_filter,
)
from fracbesov.quadrature import _gl_rule, graded_breaks, panel_rule
from fracbesov.splines import (
    FractionalSpline,
    TruncationError,
    beta_star_integer_samples,
    bspline_natural,
    frac_bspline,
    frac_bspline_derivative,
)
from fracbesov.specfun import gbinom_row


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
        # the cached filter, its symmetric samples and the Gauss rule are
        # shared by every caller: an in-place write must not reach the cache
        before = psi_frac(0.5, "causal", 0.3, trunc=60)
        shared = (wavelet_filter(0.5, 60), beta_star_integer_samples(2.0, 170), *_gl_rule(12))
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
    def test_causal_series_oracle(self, alpha):
        # psi_+(x) = sum_k q_k beta_+(2x - k), assembled from the filter and
        # frac_bspline; the mixed array holds shared and distinct offsets and
        # points with 2x + trunc < 0, where every term vanishes.  tail_tol is
        # lifted so that the truncated series itself is compared there.
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
        got = psi_frac(alpha, "causal", xs, trunc=K, tail_tol=1.0)
        assert got == pytest.approx(direct, abs=1e-12)
        dead = 2 * xs + K < 0
        assert dead.sum() >= 3 and np.all(got[dead] == 0.0)

    def test_anticausal_mirror(self):
        # q is palindromic about its mass center, so psi_- mirrors psi_+
        alpha = 0.5
        q = wavelet_filter(alpha, 60)
        c = int(np.argmax(np.abs(q))) - 60
        xs = np.linspace(-2.0, 2.0, 20)
        plus = psi_frac(alpha, "causal", c - xs, trunc=90)
        minus = psi_frac(alpha, "anticausal", xs - c + 2 * c / 2.0, trunc=90)
        # mirrored series oracle: assemble psi_- directly from the filter
        spec_m = FractionalSpline(alpha=alpha, variant="anticausal")
        ks = np.arange(-90, 91)
        qq = wavelet_filter(alpha, 90)
        direct = np.array(
            [float(np.dot(qq, frac_bspline(spec_m, 2 * x - ks))) for x in xs])
        assert psi_frac(alpha, "anticausal", xs, trunc=90) == pytest.approx(
            direct, abs=1e-12
        )
        _ = plus, minus  # palindromy is exercised via the moment symmetry below

    def test_moment_symmetry_between_variants(self):
        for alpha in (0.5, 5 / 3):
            m_p = psi_moment(alpha, "causal", 0, trunc=2000)
            m_m = psi_moment(alpha, "anticausal", 0, trunc=2000)
            assert m_p == pytest.approx(m_m, abs=1e-8)

    def test_vanishing_moments_analytic(self):
        # moments 0..[alpha] vanish; tolerance from the filter-tail budget
        for alpha in (0.5, 1.5, 5 / 3):
            for g in range(0, int(alpha) + 1):
                assert abs(psi_moment(alpha, "causal", g, trunc=4000)) < 1e-5

    def test_first_surviving_moment(self):
        # moment [alpha]+1 must NOT vanish (wavelets are best possible)
        assert abs(psi_moment(0.5, "causal", 1, trunc=2000)) > 1e-3

    def test_windowed_quadrature_moment_oracle(self):
        # independent oracle: integrate the evaluated wavelet plus a
        # power-law tail correction
        alpha = 0.5
        L, W, K = 60.0, 45.0, 170
        breaks = graded_breaks(-L, W, per_unit=2, levels=3)
        nodes, wts = panel_rule(breaks, 16)
        vals = psi_frac(alpha, "causal", nodes, trunc=K)
        m0 = float(np.dot(wts, vals))
        corr = psi_frac(alpha, "causal", -L, trunc=K) * L / (alpha + 1.0)
        assert abs(m0 + corr) < 1e-6
        assert m0 + corr == pytest.approx(
            psi_moment(alpha, "causal", 0, trunc=4000), abs=1e-6
        )

    def test_truncation_guard(self):
        with pytest.raises(TruncationError):
            psi_frac(0.5, "causal", -60.0, trunc=40)

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

    def test_rejects_natural_alpha(self):
        with pytest.raises(ValueError):
            psi_frac(2.0, "causal", 0.5)


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
    def test_translate_sum(self, alpha, variant):
        # Psi against its defining sum of psi translates.  The points lie on
        # a 2^-20 grid so that every translate x + t is exact and both sides
        # read the spline at the same offsets: at alpha = 13/3 the far tail
        # of beta_+ carries cancellation noise of ~1e-10 that moves with
        # the last bit of the offset (ROADMAP item 4).  With tail_tol a
        # quarter of trunc times the live filter edge, the estimate trips
        # exactly where the margin is <= 1 or the natural cut fails, so at
        # x = 19 psi(x) passes while the translate psi(x + 2n) does not.
        K = 40
        q = wavelet_filter(alpha, K)
        tol = K * abs(q[0] if variant == "causal" else q[-1]) / 4.0
        rng = np.random.default_rng(5)
        xs = np.concatenate(
            [np.arange(-6.0, 12.0, 0.25), rng.uniform(-19.0, 13.25, 40),
             [-19.0, -18.3, 13.1, 13.25]]
        )
        xs = np.round(xs * 2.0**20) / 2.0**20

        def psi(x):
            return psi_frac(alpha, variant, x, trunc=K, tail_tol=tol)

        def by_sum(x, n, sign):
            lam = bl_system(n).lam
            return sum(
                lam[j] / (2.0 * (-1.0) ** j) * (psi(x + n + j) + sign * psi(x + n - j))
                for j in range(n + 1)
            )

        edge = 19.0
        psi(edge)  # passes: only the translates of the edge trip the estimate
        for n in (1, 2, 3):
            for sign in (1.0, -1.0):
                expect = by_sum(xs, n, sign)
                got = Psi_combined(alpha, n, variant, xs, trunc=K, sign=sign, tail_tol=tol)
                assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))
                with pytest.raises(TruncationError):
                    by_sum(edge, n, sign)
                with pytest.raises(TruncationError):
                    Psi_combined(alpha, n, variant, edge, trunc=K, sign=sign, tail_tol=tol)

    def test_moment_zero_by_linearity(self):
        # the combination is a fixed linear combination of translates, so
        # the vanishing moments 0..[alpha] of psi carry over
        alpha, n = 0.5, 1
        lam = bl_system(n).lam
        m0 = psi_moment(alpha, "causal", 0, trunc=3000)
        total = sum(
            2.0 * lam[j] / (2.0 * (-1.0) ** j) * m0 for j in range(n + 1)
        )
        assert abs(total) < 1e-6

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


class TestMoleculeCheck:
    def test_compact_support_passes_trivially(self):
        params = molecule_params_for(2.0, 2.0, 0.0, 1.0, 2.0)
        nat = natural_system(2)
        rep = molecule_check(nat.scale_fn, (0, 0), params)
        assert rep.max_envelope_ratio < math.inf
        c0 = min(1.0, 0.98 / rep.max_envelope_ratio)
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

        def m_q(x):
            return 2.0 ** (1 / 2.0) * sysf.wavelet_fn(2.0 * x)

        rep1 = molecule_check(m_q, (1, 0), params)
        assert rep1.passes()
        assert rep1.conditions["M1"]["value"] < 1e-5

    def test_calibration_needs_no_moment_quadrature(self, monkeypatch):
        # scale factors cannot decide (M1), so the calibration runs no panel
        # rule; the constants are those of Example 5.1 with (M1) certified
        def no_quadrature(*args, **kwargs):
            raise AssertionError("calibration evaluated a moment quadrature")

        monkeypatch.setattr("fracbesov.frac_wavelets.panel_rule", no_quadrature)
        expected = {
            (0.0, 5 / 3): (0.20756847809520673, 0.0032335175650289477),
            (-1 / 3, 4 / 3): (0.23035715940027968, 0.0031840907866533324),
        }
        for (s, alpha), (c0_ref, c_ref) in expected.items():
            params = molecule_params_for(2.0, 2.0, s, 1.0, alpha)
            c0, c = calibrate_constants(alpha, "causal", 2, params, nus=(0, 1), trunc=60)
            assert c0 == pytest.approx(c0_ref, rel=1e-12)
            assert c == pytest.approx(c_ref, rel=1e-12)

    def test_translation_covariance(self):
        params = molecule_params_for(2.0, 2.0, 0.0, 1.0, 5 / 3)
        sysf = fractional_system(5 / 3, "causal", 2, trunc=60)
        nu = 1

        def m_q(tau):
            return lambda x: 2.0 ** (nu / 2.0) * sysf.wavelet_fn(2.0**nu * x - tau)

        r0 = molecule_check(m_q(0), (nu, 0), params).max_envelope_ratio
        r3 = molecule_check(m_q(3), (nu, 3), params).max_envelope_ratio
        assert r3 == pytest.approx(r0, rel=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_natural_translation_covariance(self, n):
        # s = 1 takes the central-difference branch of (M3)/(M4)
        params = molecule_params_for(2.0, 2.0, 1.0, 1.0, float(n))
        nat = natural_system(n)
        reps = []
        for nu, tau in ((1, 0), (2, -5)):

            def m_q(x, nu=nu, tau=tau):
                return 2.0 ** (nu / 2.0) * nat.wavelet_fn(2.0**nu * x - tau)

            reps.append(molecule_check(m_q, (nu, tau), params).conditions)
        assert set(reps[0]) == set(reps[1]) >= {"M2", "M3", "M4"}
        for cond in ("M2", "M3", "M4"):
            assert reps[1][cond]["ratio"] == pytest.approx(reps[0][cond]["ratio"], rel=1e-9)

    def test_single_evaluation(self):
        # fn sees the grid once for the values and once per side of the
        # central difference at s = 1; N = -1 here, so there is no (M1)
        params = molecule_params_for(2.0, 2.0, 1.0, 1.0, 3.0)
        assert params.N == -1
        nat = natural_system(3)
        nu, tau = 1, 2
        grid = tau / 2.0 + np.arange(-25.0, 25.0 + 1e-12, 1.0 / 16.0) / 2.0
        seen = []

        def fn(x):
            seen.append(np.size(x))
            return 2.0 ** (nu / 2.0) * nat.wavelet_fn(2.0**nu * x - tau)

        rep = molecule_check(fn, (nu, tau), params, grid=grid)
        assert {"M2", "M3", "M4"} <= set(rep.conditions)
        assert sum(seen) == 3 * grid.size

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
        # over the segment [x - h, x + h]; x_q = 0 falls strictly between
        # grid points, at 0.3 of a grid step, off the 65-point z grid
        params = molecule_params_for(2.0, 2.0, 0.0, 1.0, 2.0)
        nu, x_q = 1, 0.0
        grid = (np.arange(-120, 120) + 0.3) / (16.0 * 2.0**nu)
        if kind == "step":
            # only pairs straddling x_q differ, where the exact sup is 1
            def fn(x):
                return (np.asarray(x) > x_q).astype(float)
        else:
            nat = natural_system(2)

            def fn(x):
                return 2.0 ** (nu / 2.0) * nat.wavelet_fn(2.0**nu * x)

        ratio = molecule_check(fn, (nu, 0), params, grid=grid).conditions["M4"]["ratio"]
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
            # the stride-1 straddling pair: h = one grid step, sup = 1
            h1 = grid[1] - grid[0]
            exact = 1.0 / (2.0 ** (nu / 2.0 + nu * params.delta) * h1**params.delta)
            assert ratio == pytest.approx(exact, rel=1e-12)
            assert old > ratio * (1.0 + 1e-3)


class TestShapes:
    @staticmethod
    def _evaluators():
        return [
            lambda x: frac_bspline(FractionalSpline(alpha=5 / 3), x),
            lambda x: frac_bspline(FractionalSpline(alpha=5 / 3, variant="anticausal"), x),
            lambda x: frac_bspline_derivative(FractionalSpline(alpha=5 / 3), 1, x),
            lambda x: frac_bspline_derivative(
                FractionalSpline(alpha=13 / 3, variant="anticausal"), 2, x
            ),
            lambda x: psi_frac(0.5, "causal", x),
            lambda x: psi_frac(5 / 3, "anticausal", x),
            lambda x: Psi_combined(5 / 3, 2, "causal", x),
            lambda x: Psi_combined(0.5, 1, "anticausal", x, sign=-1.0),
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
        sys = bl_system(1)
        x = np.array([0.5, 1.2])
        # scale_fn * Lambda' is the localized beta_n B_1, B_1 the hat on
        # [0, 2]; Lambda' = prod_j (1 + r_j) is beta_n
        assert nat.scale_fn(x) * sys.beta_n == pytest.approx(
            sys.beta_n * np.array([0.5, 0.8])
        )

    def test_fields(self):
        assert WaveletSystem._fields == ("scale_fn", "wavelet_fn")

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_natural_pair(self, n):
        # the localized pair over Lambda' = beta_n and Lambda'', bit for bit
        nat = natural_system(n)
        sys = bl_system(n)
        for x in (0.7, np.linspace(-5.0, 6.0, 23), np.array([[0.3, 1.7], [-0.4, 2.25]])):
            assert np.array_equal(nat.scale_fn(x), scaling_localized(sys, x) / sys.beta_n)
            assert np.array_equal(
                nat.wavelet_fn(x), wavelet_localized(sys, x) / sys.Lambda_dprime
            )

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

    @pytest.mark.parametrize("variant", ["causal", "anticausal"])
    def test_trunc_forwarded(self, variant):
        # x = -12 lies in the tail that psi's estimate rejects at trunc = 20
        # but not at the default 80
        with pytest.raises(TruncationError):
            fractional_system(5 / 3, variant, 2, trunc=20).wavelet_fn(-12.0)
        assert math.isfinite(fractional_system(5 / 3, variant, 2).wavelet_fn(-12.0))
