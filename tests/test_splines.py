import functools
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from fracbesov.specfun import gbinom_row
from fracbesov.splines import (
    FractionalSpline,
    beta_plus_filtered,
    beta_star_integer_samples,
    bspline_derivative,
    bspline_natural,
    frac_bspline,
)
from oracles import beta_plus_series, integer_samples


class TestNaturalBSpline:
    def test_box(self):
        assert bspline_natural(0, 0.5) == 1.0
        assert bspline_natural(0, -0.1) == 0.0
        assert bspline_natural(0, 1.0) == 0.0

    def test_hat_peak(self):
        assert bspline_natural(1, 1.0) == pytest.approx(1.0)

    def test_quadratic_value(self):
        # hand recursion: B_2(1.5) = 0.75
        assert bspline_natural(2, 1.5) == pytest.approx(0.75, abs=1e-14)

    def test_support_and_positivity(self):
        for n in range(1, 6):
            xs = np.linspace(-1, n + 2, 301)
            vals = bspline_natural(n, xs)
            inside = (xs > 0) & (xs < n + 1)
            assert np.all(vals[inside] > 0)
            assert np.all(vals[~inside & ((xs <= 0) | (xs >= n + 1))] == 0.0)

    def test_unit_integral(self):
        for n in range(6):
            val = sum(
                quad(lambda t: bspline_natural(n, t), m, m + 1)[0]
                for m in range(n + 1)
            )
            assert val == pytest.approx(1.0, abs=1e-10)

    def test_integer_samples_exact(self):
        # the exact samples of the Cox-de Boor oracle, and B_n at the knots
        # as those rationals rounded once
        sam = integer_samples(3)
        assert [float(s) for s in sam] == pytest.approx(
            [0.0, 1 / 6, 4 / 6, 1 / 6, 0.0], abs=0
        )
        for n in range(1, 8):
            assert sum(integer_samples(n)) == 1
            knots = bspline_natural(n, np.arange(n + 2.0))
            assert knots.tolist() == [float(s) for s in integer_samples(n)]

    def test_derivative_matches_fd(self):
        for n, order, x in [(3, 1, 1.3), (5, 2, 2.7), (7, 4, 3.1)]:
            h = 1e-6
            fd = (bspline_natural(n, x + h) - bspline_natural(n, x - h)) / (2 * h)
            if order == 1:
                assert bspline_derivative(n, 1, x) == pytest.approx(fd, abs=1e-8)
            # all orders: check against FD of the next-lower derivative
            lower = order - 1
            fd2 = (
                bspline_derivative(n, lower, x + h)
                - bspline_derivative(n, lower, x - h)
            ) / (2 * h)
            assert bspline_derivative(n, order, x) == pytest.approx(fd2, abs=1e-7)

    @pytest.mark.parametrize("n, order, name", [
        (3, True, "order"), (3, 1.0, "order"), (3, "1", "order"),
        (2.0, 1, "n"), (True, 0, "n"), (np.float64(3.0), 1, "n"),
    ])
    def test_derivative_arguments_are_integers(self, n, order, name):
        # order=True was taken as 1 and order=1.0 failed inside range; n=2.0
        # was reported as the lowered order, "n must be ... got 1.0"
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got "):
            bspline_derivative(n, order, 1.3)

    @pytest.mark.parametrize("n, order", [(3, 3), (3, -1), (0, 0)])
    def test_derivative_order_range(self, n, order):
        with pytest.raises(ValueError, match=r"^derivative order"):
            bspline_derivative(n, order, 1.3)

    def test_derivative_numpy_integers(self):
        assert bspline_derivative(np.int64(3), np.int32(1), 1.3) == bspline_derivative(3, 1, 1.3)


class TestCausalFractional:
    def test_natural_anchor(self):
        # the fractional series telescopes to the recursion: beta_+^n == B_n.
        # (The scaled form with an extra Gamma(n+1) fails already at n=2:
        # both sides of the anchor equal 1/8 at x=1/2.)
        for n in (1, 2, 3):
            spec = FractionalSpline(alpha=float(n))
            xs = np.linspace(-1, n + 2, 157)
            lhs = frac_bspline(spec, xs)
            rhs = bspline_natural(n, xs)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_series_matches_recursion_offnatural_limit(self):
        # independent check that the generic series path (not the natural
        # routing) also reproduces B_2 when evaluated at alpha = 2
        xs = np.linspace(0.0, 3.0, 31)
        coeffs = gbinom_row(3.0, 3)
        coeffs[1::2] *= -1
        series = sum(
            c * np.where(xs - k > 0, (xs - k) ** 2, 0.0) for k, c in enumerate(coeffs)
        ) / math.gamma(3.0)
        assert np.max(np.abs(series - bspline_natural(2, xs))) < 1e-13

    @pytest.mark.parametrize("alpha", [1 / 2, 4 / 3, 5 / 3, 13 / 3])
    def test_lattice_matches_direct_series(self, alpha):
        # oracle: the truncated-power series summed directly at 40 digits;
        # bound: the forward error of summing its m+1 rounded float terms,
        # (m + 2) eps sum_k |c_k (y-k)^alpha| (recursive summation)
        def direct(y):
            if y <= 0:
                return 0.0, 0.0, 0
            m = math.floor(y)
            ((val, mag),) = beta_plus_series(alpha, y - m, [m])
            # the terms with y - k > 0
            return float(val), float(mag), math.ceil(y)

        rng = np.random.default_rng(5)
        shared = np.arange(-2.0, 60.0, 0.375)  # eight offsets, many translates
        distinct = rng.uniform(-2.0, 60.0, 40)
        integers = np.arange(-2.0, 61.0)
        far = 2000.0 + rng.uniform(0.0, 8.0, 3)
        eps = np.finfo(float).eps
        with mp.workdps(40):
            oracle = {
                float(yi): direct(yi)
                for yi in np.concatenate([shared, distinct, integers, far])
            }
        for y in (shared, distinct, integers, far,
                  np.concatenate([distinct, far, integers])):
            got = beta_plus_filtered(alpha, y, np.ones(1), 0)
            for yi, gi in zip(y, got):
                val, mag, terms = oracle[float(yi)]
                assert abs(gi - val) <= (terms + 1) * eps * mag, (yi, gi, val)
            assert np.all(got[y <= 0.0] == 0.0)

    def test_single_term_value(self):
        # on [0,1) only the k=0 term survives: x^alpha / Gamma(alpha+1)
        spec = FractionalSpline(alpha=0.5)
        assert frac_bspline(spec, 0.5) == pytest.approx(
            math.sqrt(0.5) / math.gamma(1.5), rel=1e-13
        )

    def test_causal_support(self):
        spec = FractionalSpline(alpha=1.5)
        assert frac_bspline(spec, -1.0) == 0.0
        spec_shift = FractionalSpline(alpha=1.5, shift_k=3)
        assert frac_bspline(spec_shift, 2.9) == 0.0
        assert frac_bspline(spec_shift, 3.5) == pytest.approx(
            frac_bspline(spec, 0.5), rel=1e-13
        )

    def test_anticausal_is_reflection(self):
        plus = FractionalSpline(alpha=0.5, variant="causal")
        minus = FractionalSpline(alpha=0.5, variant="anticausal")
        for x in np.linspace(-4, 4, 21):
            assert frac_bspline(minus, x) == pytest.approx(
                frac_bspline(plus, -x), abs=1e-14
            )

    def test_two_scale_relation(self):
        # beta(x) = sum_k 2^(-alpha) binom(alpha+1, k) beta(2x - k)
        for alpha in (0.5, 1.5):
            spec = FractionalSpline(alpha=alpha)
            xs = np.linspace(0.0, 4.0, 41)
            lhs = frac_bspline(spec, xs)
            rhs = np.zeros_like(lhs)
            for k, b in enumerate(gbinom_row(alpha + 1, 9)):
                rhs += 2.0**-alpha * b * frac_bspline(spec, 2 * xs - k)
            assert np.max(np.abs(lhs - rhs)) < 1e-6

    def test_holder_probe(self):
        rng = np.random.default_rng(7)
        for alpha in (0.5, 1.5):
            spec = FractionalSpline(alpha=alpha)
            expo = min(alpha, 1.0)
            xs = rng.uniform(0, 3, 200)
            ys = rng.uniform(0, 3, 200)
            vals_x = frac_bspline(spec, xs)
            vals_y = frac_bspline(spec, ys)
            ratio = np.abs(vals_x - vals_y) / np.abs(xs - ys) ** expo
            assert np.max(ratio) < 4.0


class TestOrderContinuity:
    # At an integer order the series is B_n (Unser & Blu 2000), so the mean
    # A(e) of the series at the orders n - e and n + e approaches the
    # pp-form like e^2, and Richardson's (4 A(e) - A(2e)) / 3 like e^4
    # (Richardson 1911).  This joins the series to the pp-form without
    # mpmath: three random 5-tap filters per n, on the 1/64 lattice shifted
    # by 1/128, the error relative to the largest exact value
    @staticmethod
    def _worst(n, ymax, eps=1e-3):
        y = (np.arange(-64 * ymax, 64 * ymax) + 0.5) / 64
        worst = 0.0
        for taps in np.random.default_rng(n).uniform(-1.0, 1.0, (3, 5)):
            def mean(e):
                return (beta_plus_filtered(n - e, y, taps, 0)
                        + beta_plus_filtered(n + e, y, taps, 0)) / 2
            exact = beta_plus_filtered(n, y, taps, 0)
            richardson = (4 * mean(eps) - mean(2 * eps)) / 3
            worst = max(worst, np.max(np.abs(richardson - exact)) / np.max(np.abs(exact)))
        return worst

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_series_meets_natural_order(self, n):
        # measured: 1.8e-12, 7.6e-13, 4.9e-13, 7.9e-13 for n = 1..4
        assert self._worst(n, 10) <= 5e-12

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the series' terms of size "
                       "y^alpha cancel in the tail, so far from 0 the orders n -+ eps lose "
                       "digits that the pp-form keeps")
    @pytest.mark.parametrize("n", [3, 4])
    def test_series_meets_natural_order_far(self, n):
        # measured on |y| <= 120: 1.3e-9 (n = 3) and 9.7e-8 (n = 4)
        assert self._worst(n, 120) <= 5e-12


class TestSymmetricFractional:
    def test_order_one_is_hat(self):
        # beta_*^1 is the hat 1 - |x| on [-1, 1]: its samples are the unit impulse
        sam = beta_star_integer_samples(1.0, 3)
        assert sam == pytest.approx([0, 0, 0, 1, 0, 0, 0], abs=1e-15)

    def test_variant_rejected(self):
        # beta_* enters only through its integer samples
        with pytest.raises(ValueError, match="unknown variant"):
            FractionalSpline(1.5, "symmetric")

    @pytest.mark.parametrize("alpha", [0.5, 1.5, 5 / 3])
    def test_series_matches_autocorrelation(self, alpha):
        # oracle: beta_*^(2a+1)(m) = <beta_+^a, beta_+^a(. - m)> by quadrature
        a2 = 2 * alpha + 1
        plus = FractionalSpline(alpha=alpha)
        sam = beta_star_integer_samples(a2, 2)
        for m in (0, 1, 2):
            oracle = 0.0
            for lo in range(max(0, m), m + 60, 3):
                v, _ = quad(
                    lambda t: frac_bspline(plus, t) * frac_bspline(plus, t - m),
                    lo,
                    lo + 3,
                    limit=200,
                )
                oracle += v
            assert sam[2 + m] == pytest.approx(oracle, abs=5e-8)

    @pytest.mark.parametrize("a2", [2.0, 11 / 3, 29 / 3])
    def test_poisson_samples_match_fourier_integral(self, a2):
        # oracle without FFT: beta_*(m) = int_0^1 F(t) cos(2 pi m t) dt, F the
        # samples' transform at w = 2 pi t built from mpmath's Hurwitz zeta;
        # F is smooth inside (0, 1)
        # and behaves like |t|^(a2+1) at the ends, where Gauss-Legendre on
        # the four panels agrees with tanh-sinh to far below the tolerance
        s = mp.mpf(a2) + 1
        ms = (0, 1, 2, 5, 20)
        with mp.workdps(20):

            @functools.lru_cache(maxsize=None)
            def F(t):
                z = mp.zeta(s, t) + mp.zeta(s, 1 - t)
                return (mp.sin(mp.pi * t) / mp.pi) ** s * z

            ref = [
                float(mp.quad(lambda t: F(t) * mp.cos(2 * mp.pi * m * t),
                              [0, 0.25, 0.5, 0.75, 1], method="gauss-legendre"))
                for m in ms
            ]
        sam = beta_star_integer_samples(a2, 20)
        assert sam[20 + np.array(ms)] == pytest.approx(ref, abs=1e-14)
        assert sam[::-1] == pytest.approx(sam, abs=1e-15)
        # -2046..2046 holds all but three of the 4096 FFT coefficients
        assert beta_star_integer_samples(a2, 2046).sum() == pytest.approx(1.0, abs=1e-13)


def _lowered(alpha, gamma, y):
    """D^gamma beta_+^alpha at y: beta_+^(alpha - gamma) with the signed
    binomial row as its taps (Unser & Blu, SIAM Rev. 2000)."""
    row = [(-1.0) ** j * math.comb(gamma, j) for j in range(gamma + 1)]
    return beta_plus_filtered(alpha - gamma, y, row, 0)


class TestDerivative:
    def test_first_interval_drops_order(self):
        # D beta_+^(3/2) = beta_+^(1/2) on [0, 1]
        lower = FractionalSpline(alpha=0.5)
        assert _lowered(1.5, 1, 0.5) == pytest.approx(frac_bspline(lower, 0.5), rel=1e-13)

    def test_second_interval_two_terms(self):
        lower = FractionalSpline(alpha=0.5)
        expect = frac_bspline(lower, 1.5) - frac_bspline(lower, 0.5)
        assert _lowered(1.5, 1, 1.5) == pytest.approx(expect, rel=1e-12)

    def test_fd_quotient(self):
        spec = FractionalSpline(alpha=5 / 3)
        h = 1e-5
        fd = (frac_bspline(spec, 0.7 + h) - frac_bspline(spec, 0.7 - h)) / (2 * h)
        assert _lowered(5 / 3, 1, 0.7) == pytest.approx(fd, abs=1e-4)

    def test_negative_lowered_order_is_finite(self):
        # alpha - gamma = -0.2: batching points must not raise the clipped
        # terms 0^(-0.2) = inf; the array call equals the scalar calls
        xs = np.array([0.5, 2.5])
        got = _lowered(0.8, 1, xs)
        assert np.all(np.isfinite(got))
        for x, g in zip(xs, got):
            assert g == pytest.approx(_lowered(0.8, 1, float(x)), rel=1e-13)
        # on (0, 1) only x^(-0.2) / Gamma(0.8) survives
        assert got[0] == pytest.approx(0.5**-0.2 / math.gamma(0.8), rel=1e-13)
        # at an integer the zero base counts as 0: the finite left derivative
        assert _lowered(0.8, 1, 1.0) == pytest.approx(1.0 / math.gamma(0.8), rel=1e-13)


class TestNonFinite:
    # the natural order 2 takes the exact B_n path, the others the series
    @pytest.mark.parametrize("variant", ["causal", "anticausal"])
    @pytest.mark.parametrize("alpha", [0.5, 5 / 3, 2.0, 13 / 3])
    def test_non_finite_gives_nan(self, alpha, variant):
        # every non-finite point gives NaN, and the finite points equal the
        # finite-only call bit for bit; the derivatives read the reflected
        # y of the anticausal variant, without its sign (-1)^g
        spec = FractionalSpline(alpha=alpha, variant=variant)
        flip = -1.0 if variant == "anticausal" else 1.0
        fns = [lambda x: frac_bspline(spec, x)] + [
            lambda x, g=g: _lowered(alpha, g, flip * np.asarray(x))
            for g in range(1, math.ceil(alpha + 0.5))
        ]
        finite = np.array([-1.5, 0.25, 0.7, 2.5, 3.9])
        mixed = np.array([np.nan, -1.5, np.inf, 0.25, 0.7, -np.inf, 2.5, 3.9, np.nan])
        bad = ~np.isfinite(mixed)
        for fn in fns:
            for v in (np.nan, np.inf, -np.inf):
                assert math.isnan(fn(v))
            got = fn(mixed)
            assert np.all(np.isnan(got[bad]))
            assert np.array_equal(got[~bad], fn(finite))


class TestDecayEnvelope:
    def test_compact_support_trivial(self):
        spec = FractionalSpline(alpha=1.0)
        for x in (3.0, 10.0):
            assert abs(frac_bspline(spec, x)) * (1.0 + x**3) <= 1.0

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_envelope_holds_on_fine_grid(self, alpha):
        # |beta_+^a(x)| (1 + x^(a+2)) stays bounded in the tail; its sup on
        # the 1/20 grid is 0.267 (a = 1/2) and 0.151 (a = 3/2), both near x = 3
        bound = {0.5: 0.28, 1.5: 0.16}[alpha]
        spec = FractionalSpline(alpha=alpha)
        fine = np.linspace(3.0, 30.0, 541)
        env = np.abs(frac_bspline(spec, fine)) * (1.0 + fine ** (alpha + 2.0))
        assert env.max() <= bound

    def test_scaled_magnitude_bounded(self):
        spec = FractionalSpline(alpha=0.5)
        vals = [abs(frac_bspline(spec, x)) * x**2.5 for x in (5.0, 10.0, 20.0)]
        assert max(vals) < 1.0


class TestPartitionOfUnity:
    def test_natural_exact(self):
        spec = FractionalSpline(alpha=2.0)
        for x in (0.37, -1.2, 2.0):
            total = frac_bspline(spec, x - np.arange(-5, 6)).sum()
            assert abs(total - 1.0) < 1e-12

    def test_fractional_levels(self):
        # translates of Gamma(a+1) beta_+^a resolve unity up to the series tail
        for alpha, x, tol in ((0.5, 0.3, 1e-3), (1.5, 0.8, 1e-4)):
            spec = FractionalSpline(alpha=alpha)
            total = frac_bspline(spec, x - np.arange(-200, 201)).sum()
            assert abs(total - 1.0) <= tol
