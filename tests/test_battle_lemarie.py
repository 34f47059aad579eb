import math

import numpy as np
import pytest
from scipy.integrate import quad

from fracbesov.battle_lemarie import (
    BLSystem,
    _wavelet_taps,
    autocorrelation_symbol,
    bl_system,
    euler_frobenius_roots,
    factorization_residual,
    lambda_coeffs,
    orthonormality_residual,
    orthonormalizer,
    scaling_localized,
    wavelet_gamma,
    wavelet_localized,
)
from fracbesov.quadrature import graded_breaks, panel_rule


class TestRoots:
    def test_n1_closed_form(self):
        # P_1(w) = (2 + cos w)/3 gives r^2 - 4r + 1 = 0, root 2 - sqrt(3)
        (r,) = euler_frobenius_roots(1)
        assert r == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-12)

    def test_symbol_n1(self):
        om = np.linspace(0, 2 * math.pi, 17)
        assert autocorrelation_symbol(1, om) == pytest.approx(
            (2.0 + np.cos(om)) / 3.0, abs=1e-15
        )

    def test_roots_in_unit_interval(self):
        for n in range(1, 7):
            rs = euler_frobenius_roots(n)
            assert len(rs) == n
            assert all(0.0 < r < 1.0 for r in rs)
            assert rs == sorted(rs)

    def test_factorization_residual(self):
        for n in range(1, 6):
            assert factorization_residual(bl_system(n)) <= 1e-9

    def test_beta_recovered_from_roots(self):
        # beta_n = 2^n sqrt(prod alpha_j r_j) with alpha_j = (r_j+1)^2/(4 r_j)
        for n in (1, 2, 3, 4):
            sys = bl_system(n)
            prod = 1.0
            for r in sys.roots:
                prod *= (r + 1.0) ** 2 / (4.0 * r) * r
            assert sys.beta_n == pytest.approx(2.0**n * math.sqrt(prod), rel=1e-12)


class TestLambda:
    def test_n1_hand_expansion(self):
        r = 2.0 - math.sqrt(3.0)
        lam = lambda_coeffs([r])
        assert lam[0] == pytest.approx(r + 1.0 / r, rel=1e-12)  # = 4
        assert lam[0] == pytest.approx(4.0, rel=1e-12)
        assert lam[1] == pytest.approx(2.0, rel=1e-12)

    def test_leading_is_two(self):
        for n in range(1, 7):
            assert bl_system(n).lam[-1] == pytest.approx(2.0, abs=1e-10)

    def test_positive(self):
        for n in range(1, 7):
            assert all(l > 0 for l in bl_system(n).lam)

    def test_grid_residual(self):
        # prod_j r_j (rho_j - 2 cos t) must equal |script-A_n(t)|^2
        for n in range(1, 6):
            sys = bl_system(n)
            t = np.linspace(0.0, 2.0 * math.pi, 257)
            direct = np.ones_like(t)
            for r in sys.roots:
                direct *= 1.0 + r * r - 2.0 * r * np.cos(t)
            expansion = np.zeros_like(t)
            for j, l in enumerate(sys.lam):
                expansion += (-1.0) ** j * l * np.cos(j * t)
            expansion *= np.prod(sys.roots)
            assert np.max(np.abs(direct - expansion)) <= 1e-10

    def test_system_is_built_once(self):
        assert bl_system(3) is bl_system(3)

    def test_positivity_constants(self):
        for n in range(1, 7):
            sys = bl_system(n)
            assert sys.beta_n > 0
            assert sys.Lambda_dprime > 0


class TestScaling:
    def test_peak_value(self):
        sys = bl_system(1)
        assert scaling_localized(sys, 1.0) == pytest.approx(sys.beta_n, rel=1e-14)

    def test_support(self):
        # Phi_{2,3}(x) = Phi_2(x - 3) is supported on [3, 6]
        sys = bl_system(2)
        assert scaling_localized(sys, 2.9 - 3) == 0.0
        assert scaling_localized(sys, 6.1 - 3) == 0.0
        assert scaling_localized(sys, 4.0 - 3) > 0.0

    def test_integral_is_beta(self):
        sys = bl_system(2)
        val = sum(
            quad(lambda t: float(scaling_localized(sys, t)), m, m + 1)[0]
            for m in range(3)
        )
        assert val == pytest.approx(sys.beta_n, abs=1e-10)

    def test_half_shift_family(self):
        # substituting B_n(x + 1/2) shifts the localized functions by 1/2
        sys = bl_system(2)
        xs = np.linspace(-1, 4, 23)
        shifted = sys.beta_n * np.asarray(
            [float(scaling_localized(sys, x + 0.5)) / sys.beta_n for x in xs]
        )
        assert np.allclose(shifted, scaling_localized(sys, xs + 0.5), atol=1e-12)


class TestWavelet:
    def test_taps_built_once(self):
        # the taps depend only on the frozen system and the sign
        sys = bl_system(3)
        for sign in (1.0, -1.0):
            taps = _wavelet_taps(sys, sign)
            assert _wavelet_taps(sys, sign) is taps
            assert not taps.flags.writeable

    def _moments(self, sys, gmax):
        breaks = graded_breaks(-sys.n, sys.n + 1.0, per_unit=4, levels=0)
        nodes, wts = panel_rule(breaks, 24)
        vals = wavelet_localized(sys, nodes)
        return [float(np.dot(wts, nodes**g * vals)) for g in range(gmax + 1)]

    def test_vanishing_moments(self):
        for n in (1, 2):
            sys = bl_system(n)
            for g, m in enumerate(self._moments(sys, n)):
                assert abs(m) <= 1e-9, f"moment {g} of n={n} wavelet: {m}"

    def test_first_nonvanishing_moment(self):
        for n in (1, 2):
            sys = bl_system(n)
            assert abs(self._moments(sys, n + 1)[-1]) > 1e-6

    def test_support_from_formula(self):
        # the assembled formula's translate Psi_n(x - s) is supported on
        # [s-n, s+n+1]; the interval stated alongside it in the source
        # material, [s-n/2, s+3n/2+1], is inconsistent with the formula
        # (nonzero on [s-n, s-n/2))
        for n, s in [(1, 0), (2, -6)]:
            sys = bl_system(n)
            a, b = s - n, s + n + 1
            xs_out = np.array([a - 0.05, b + 0.05, a - 2.0, b + 2.0])
            assert np.allclose(wavelet_localized(sys, xs_out - s), 0.0, atol=1e-15)
            assert abs(wavelet_localized(sys, a + 0.25 * n - s)) > 1e-12

    def test_integral_zero(self):
        for n in (1, 2, 3):
            assert abs(self._moments(bl_system(n), 0)[0]) <= 1e-10

    def test_inverse_fourier_oracle_n1(self):
        # assemble Psi-hat from the localized-wavelet transform and invert
        # numerically on a 10-point grid
        sys = bl_system(1)
        n = sys.n
        gam = wavelet_gamma(sys)

        def psi_hat(om: np.ndarray) -> np.ndarray:
            lam_sum = np.zeros_like(om, dtype=complex)
            for j, l in enumerate(sys.lam):
                lam_sum += l / (2.0 * (-1.0) ** j) * 2.0 * np.cos(j * om / 2.0)
            half = om / 2.0
            bhat = np.where(
                half == 0, 1.0, (1.0 - np.exp(-1j * half)) / (1j * np.where(half == 0, 1.0, half))
            ) ** (2 * n + 2)
            dhat = (1j * half) ** (n + 1) * bhat
            ghat = 0.5 * np.exp(1j * n * half) * dhat
            return gam / 2.0**n * lam_sum * ghat

        omega_max = 60000.0
        breaks = np.linspace(0.0, omega_max, 240001)
        nodes, wts = panel_rule(breaks, 8)
        ph = psi_hat(nodes)
        for x in np.linspace(-0.9, 1.9, 10):
            # real signal: (1/pi) * Re int_0^inf Psi-hat e^{i w x} dw
            val = float(np.dot(wts, (ph * np.exp(1j * nodes * x)).real)) / math.pi
            assert val == pytest.approx(
                float(wavelet_localized(sys, x)), abs=3e-4
            )


class TestOrthonormality:
    def test_levels(self):
        for n, om in [(1, math.pi / 3.0), (2, 1.0)]:
            assert orthonormality_residual(bl_system(n), om, 64) <= 1e-6

    def test_omega_zero(self):
        assert orthonormality_residual(bl_system(1), 0.0, 64) <= 1e-8

    def test_32_point_sweep(self):
        for n in (1, 2):
            sys = bl_system(n)
            for om in np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False):
                assert orthonormality_residual(sys, float(om), 64) <= 1e-6

    def test_m_precondition(self):
        with pytest.raises(ValueError):
            orthonormality_residual(bl_system(1), 1.0, 5)
