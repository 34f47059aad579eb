import mpmath as mp
import numpy as np
import pytest

from fracbesov.specfun import gbinom_row, hurwitz_zeta


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


def _prod_binom(u, k):
    # oracle: the direct product prod_{j<k} (u - j) / (j + 1)
    acc = 1.0
    for j in range(k):
        acc *= (u - j) / (j + 1)
    return acc


class TestGbinom:
    def test_integer_cases(self):
        assert gbinom_row(3, 4) == pytest.approx([1.0, 3.0, 3.0, 1.0, 0.0], rel=1e-14)
        assert gbinom_row(3, 4)[4] == 0.0
        assert gbinom_row(5, 2)[2] == pytest.approx(10.0, rel=1e-14)

    def test_fractional_hand_value(self):
        # (-1/3)(-4/3)/2 = 2/9
        assert gbinom_row(-1 / 3, 2)[2] == pytest.approx(2 / 9, rel=1e-13)

    def test_algebraic_decay(self):
        # |binom(-1/3, k)| ~ c (k+1)^(-2/3); ratio at k=1e4 within [0.5, 2]
        # of the k=100 ratio
        row = gbinom_row(-1 / 3, 10_000)
        ratios = {}
        for k in (100, 10_000):
            ratios[k] = abs(row[k]) * (k + 1) ** (2 / 3)
            assert ratios[k] == pytest.approx(
                abs(_prod_binom(-1 / 3, k)) * (k + 1) ** (2 / 3), rel=1e-10
            )
        assert 0.5 <= ratios[10_000] / ratios[100] <= 2.0

    def test_large_k_lgamma_branch_consistent(self):
        # large k agrees with the direct product; natural u = 5 is exactly 0
        for u in (-1 / 3, 2 / 3, 8 / 3, 16 / 3):
            row = gbinom_row(u, 2000)
            for k in (513, 750, 2000):
                assert row[k] == pytest.approx(_prod_binom(u, k), rel=1e-9)
        assert np.all(gbinom_row(5, 600)[6:] == 0.0)

    def test_pascal_recurrence(self):
        rng = np.random.default_rng(20260809)
        for _ in range(200):
            u = rng.uniform(-10, 10)
            k = int(rng.integers(0, 31))
            lhs = gbinom_row(u, k)[k]
            lower = gbinom_row(u - 1, k)
            rhs = lower[k] + (lower[k - 1] if k else 0.0)
            assert lhs == pytest.approx(rhs, abs=1e-10 * (1 + abs(lhs)))

    def test_row_matches_scalar(self):
        # oracle: mpmath's scalar binomial at 30 digits
        row = gbinom_row(5 / 3, 40)
        with mp.workdps(30):
            ref = [float(mp.binomial(mp.mpf(5) / 3, k)) for k in range(41)]
        assert row == pytest.approx(ref, rel=1e-13)


class TestChuVandermonde:
    # binom(r + s, k) = sum_{n<=k} binom(r, n) binom(s, k - n): the
    # convolution of the rows of r and s is the row of r + s

    @staticmethod
    def _residual(r, s, kmax):
        conv = np.convolve(gbinom_row(r, kmax), gbinom_row(s, kmax))[: kmax + 1]
        full = gbinom_row(r + s, kmax)
        return np.abs(full - conv), full

    def test_hand_instance(self):
        # r=-1/3, s=3, k=1: both sides are binom(8/3,1) = 8/3
        res, full = self._residual(-1 / 3, 3, 1)
        assert res[1] == pytest.approx(0.0, abs=1e-12)
        assert full[1] == pytest.approx(8 / 3, rel=1e-14)

    def test_k_zero(self):
        res, _ = self._residual(8 / 3, 8 / 3, 0)
        assert res[0] == 0.0

    def test_paper_grid(self):
        # the three instances exercised downstream plus a residual contract
        for r, s in [(-1 / 3, 3), (8 / 3, 8 / 3), (-2 / 3, 6), (2 / 3, 4)]:
            res, full = self._residual(r, s, 40)
            assert np.all(res <= 1e-10 * (1 + np.abs(full)))

    def test_random_grid(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            r, s = rng.uniform(-3, 3, size=2)
            k = int(rng.integers(0, 21))
            res, full = self._residual(r, s, k)
            assert res[k] <= 1e-10 * (1 + abs(full[k]))
