import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from fracbesov.specfun import (
    GammaPoleError,
    beta_fn,
    chu_vandermonde_residual,
    finite_difference,
    gamma,
    gbinom,
    gbinom_real,
    gbinom_row,
    hurwitz_zeta,
)


class TestGamma:
    def test_small_integers(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)
        assert gamma(4.0) == pytest.approx(6.0, rel=1e-14)

    def test_reflection_half(self):
        assert gamma(0.5) ** 2 == pytest.approx(math.pi, rel=1e-12)

    def test_pole_raises(self):
        for x in (0.0, -1.0, -7.0):
            with pytest.raises(GammaPoleError):
                gamma(x)

    def test_relative_error_window(self):
        # spot-check against lgamma-based reference over |x| <= 50
        for x in np.linspace(0.1, 50, 97):
            ref = math.exp(math.lgamma(x))
            assert gamma(x) == pytest.approx(ref, rel=1e-12)


class TestHurwitz:
    # s covers 2 alpha + 2 for alpha up to 13/3; a reaches both ends of (0, 1]
    S = (1.01, 1.5, 2.0, 3.0, 14 / 3, 32 / 3, 20.0)
    A = (1e-9, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-6, 1.0)

    @staticmethod
    def _ref(s, a):
        with mp.workdps(30):
            return float(mp.zeta(s, a))

    @pytest.mark.parametrize("s", S)
    def test_scalar_matches_mpmath(self, s):
        for a in self.A:
            got = hurwitz_zeta(s, a)
            assert isinstance(got, float)
            assert got == pytest.approx(self._ref(s, a), rel=1e-14)

    @pytest.mark.parametrize("s", S)
    def test_array_matches_mpmath(self, s):
        a = np.array(self.A).reshape(7, 1) * np.ones(2)
        got = hurwitz_zeta(s, a)
        ref = np.array([[self._ref(s, v) for v in row] for row in a])
        assert got.shape == a.shape
        assert got == pytest.approx(ref, rel=1e-14)

    def test_domain(self):
        for s in (1.0, 0.5, -2.0):
            with pytest.raises(ValueError):
                hurwitz_zeta(s, 0.5)
        for a in (0.0, -0.25, np.array([0.5, 0.0]), np.nan):
            with pytest.raises(ValueError):
                hurwitz_zeta(2.0, a)


class TestBeta:
    def test_trivial(self):
        assert beta_fn(1, 1) == pytest.approx(1.0, rel=1e-14)
        assert beta_fn(2, 3) == pytest.approx(1 / 12, rel=1e-13)

    def test_third_fivethirds_vs_quadrature(self):
        # oracle: adaptive quadrature of the defining integral
        val, est = quad(lambda s: s ** (-2 / 3) * (1 - s) ** (2 / 3), 0, 1)
        assert est < 1e-9
        assert beta_fn(1 / 3, 5 / 3) == pytest.approx(val, abs=1e-9)

    def test_symmetry_exact(self):
        for a, b in [(0.3, 2.7), (1.5, 9.25), (4.0, 0.125)]:
            assert beta_fn(a, b) == beta_fn(b, a)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            beta_fn(-1.0, 2.0)
        with pytest.raises(ValueError):
            beta_fn(1.0, 0.0)


class TestGbinom:
    def test_negative_k_zero(self):
        assert gbinom(2.5, -1) == 0.0
        assert gbinom(-1 / 3, -5) == 0.0

    def test_integer_cases(self):
        assert gbinom(3, 1) == pytest.approx(3.0, rel=1e-14)
        assert gbinom(3, 4) == 0.0
        assert gbinom(5, 2) == pytest.approx(10.0, rel=1e-14)

    def test_fractional_hand_value(self):
        # (-1/3)(-4/3)/2 = 2/9
        assert gbinom(-1 / 3, 2) == pytest.approx(2 / 9, rel=1e-13)

    def test_algebraic_decay(self):
        # |binom(-1/3, k)| ~ c (k+1)^(-2/3); ratio at k=1e4 within [0.5, 2]
        # of the k=100 ratio.  Oracle: direct product evaluation.
        def prod_binom(u, k):
            acc = 1.0
            for j in range(k):
                acc *= (u - j) / (j + 1)
            return acc

        ratios = {}
        for k in (100, 10_000):
            ratios[k] = abs(gbinom(-1 / 3, k)) * (k + 1) ** (2 / 3)
            assert ratios[k] == pytest.approx(
                abs(prod_binom(-1 / 3, k)) * (k + 1) ** (2 / 3), rel=1e-10
            )
        assert 0.5 <= ratios[10_000] / ratios[100] <= 2.0

    def test_large_k_lgamma_branch_consistent(self):
        # large k agrees with the direct product; natural u = 5 is exactly 0
        def prod_binom(u, k):
            acc = 1.0
            for j in range(k):
                acc *= (u - j) / (j + 1)
            return acc

        for u in (-1 / 3, 2 / 3, 8 / 3, 16 / 3):
            for k in (513, 750, 2000):
                assert gbinom(u, k) == pytest.approx(prod_binom(u, k), rel=1e-9)
        assert gbinom(5, 600) == 0.0

    def test_pascal_recurrence(self):
        rng = np.random.default_rng(20260809)
        for _ in range(200):
            u = rng.uniform(-10, 10)
            k = int(rng.integers(0, 31))
            lhs = gbinom(u, k)
            rhs = gbinom(u - 1, k) + gbinom(u - 1, k - 1)
            assert lhs == pytest.approx(rhs, abs=1e-10 * (1 + abs(lhs)))

    def test_row_matches_scalar(self):
        row = gbinom_row(5 / 3, 40)
        for k in range(41):
            assert row[k] == pytest.approx(gbinom(5 / 3, k), rel=1e-13)


class TestGbinomReal:
    def test_matches_integer_lower(self):
        for u in (2.5, -0.4, 7 / 3):
            for k in range(8):
                assert gbinom_real(u, float(k)) == pytest.approx(
                    gbinom(u, k), rel=1e-12
                )

    def test_pole_gives_zero(self):
        # binom(4, k+2) = 0 for k+2 outside 0..4
        assert gbinom_real(4.0, 5.0) == 0.0
        assert gbinom_real(4.0, -1.0) == 0.0

    def test_halfinteger_symmetry(self):
        # binom(u, v) = binom(u, u - v)
        u = 3.5
        for v in (0.25, 1.75, 3.0):
            assert gbinom_real(u, v) == pytest.approx(gbinom_real(u, u - v), rel=1e-12)


class TestChuVandermonde:
    def test_hand_instance(self):
        # r=-1/3, s=3, k=1: both sides are binom(8/3,1) = 8/3
        assert chu_vandermonde_residual(-1 / 3, 3, 1) == pytest.approx(0.0, abs=1e-12)
        assert gbinom(8 / 3, 1) == pytest.approx(8 / 3, rel=1e-14)

    def test_k_zero(self):
        assert chu_vandermonde_residual(8 / 3, 8 / 3, 0) == 0.0

    def test_paper_grid(self):
        # the three instances exercised downstream plus a residual contract
        for r, s in [(-1 / 3, 3), (8 / 3, 8 / 3), (-2 / 3, 6), (2 / 3, 4)]:
            for k in range(0, 41):
                res = chu_vandermonde_residual(r, s, k)
                assert abs(res) <= 1e-10 * (1 + abs(gbinom(r + s, k)))

    def test_random_grid(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            r, s = rng.uniform(-3, 3, size=2)
            k = int(rng.integers(0, 21))
            res = chu_vandermonde_residual(r, s, k)
            assert abs(res) <= 1e-10 * (1 + abs(gbinom(r + s, k)))


class TestFiniteDifference:
    def test_quadratic(self):
        for x in (-3.0, 0.0, 1.7):
            assert finite_difference(lambda t: t * t, 1.0, 2, x) == pytest.approx(2.0)

    def test_degree_annihilation(self):
        for x in (-1.0, 0.5):
            assert finite_difference(lambda t: t * t, 1.0, 3, x) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_linear_half_step(self):
        assert finite_difference(lambda t: t, 0.5, 1, 2.0) == pytest.approx(0.5)

    def test_forward_orientation(self):
        # Delta_h^1 f(x) = f(x+h) - f(x)
        f = math.exp
        assert finite_difference(f, 0.25, 1, 0.0) == pytest.approx(
            f(0.25) - f(0.0), rel=1e-14
        )
