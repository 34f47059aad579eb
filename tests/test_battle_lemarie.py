import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fracbesov.battle_lemarie import bl_system, scaling_localized, wavelet_localized
from fracbesov import frac_wavelets as fw
from fracbesov.frac_wavelets import natural_system, panel_rule
from fracbesov.splines import _bspline_natural_ppform, bspline_ppform
from oracles import (RootSystem, bl_taps, euler_frobenius_roots, graded_breaks, integer_samples,
                     root_pair, root_system)

# bl_system's closed form against the root factorization oracles.root_system,
# and that against its Fourier identities: beta_n^2 P_n(w) = |A_n(w)|^2 and
# sum_m |phi_hat(w + 2 pi m)|^2 = 1, phi = beta_n B_n / A_n orthonormal


def tangent_numbers(count: int) -> list[int]:
    """T_1, T_3, ..., T_{2 count - 1} from the Seidel-Entringer boustrophedon.

    Its row k ends in the zigzag number E_k; the odd ones are the tangent
    numbers 1, 2, 16, 272, ...
    """
    row, zigzag = [1], [1]
    for k in range(1, 2 * count):
        nxt = [0]
        for m in range(1, k + 1):
            nxt.append(nxt[-1] + row[k - m])
        row = nxt
        zigzag.append(row[-1])
    return zigzag[1::2]


# TANGENT[n] = T_{2n+1}, n = 0..8
TANGENT = tangent_numbers(9)


def autocorrelation_symbol(n: int, omega) -> np.ndarray:
    """P_n(w) = sum_{|j| <= n} B_{2n+1}(n+1+j) cos(jw) (real by symmetry)."""
    omega = np.asarray(omega, dtype=float)
    sam = integer_samples(2 * n + 1)
    out = np.full_like(omega, float(sam[n + 1]))
    for j in range(1, n + 1):
        out += 2.0 * float(sam[n + 1 + j]) * np.cos(j * omega)
    return out


def orthonormalizer(sys: RootSystem, omega) -> np.ndarray:
    """|A_n(w)|^2 = prod_j |1 + e^{iw} r_j|^2."""
    omega = np.asarray(omega, dtype=float)
    out = np.ones_like(omega)
    for r in sys.roots:
        out *= 1.0 + r * r + 2.0 * r * np.cos(omega)
    return out


def factorization_residual(sys: RootSystem, n_grid: int = 1024) -> float:
    """max_w |beta_n^2 P_n(w) - |A_n(w)|^2| over a uniform grid."""
    om = np.linspace(0.0, 2.0 * math.pi, n_grid, endpoint=False)
    lhs = sys.beta_n**2 * autocorrelation_symbol(sys.n, om)
    return float(np.max(np.abs(lhs - orthonormalizer(sys, om))))


def _bhat_sq(omega: np.ndarray, n: int) -> np.ndarray:
    """|B_n-hat(w)|^2 = (sin(w/2) / (w/2))^(2n+2)."""
    half = omega / 2.0
    core = np.ones_like(half)
    nz = half != 0.0
    core[nz] = np.sin(half[nz]) / half[nz]
    return core ** (2 * n + 2)


def orthonormality_residual(sys: RootSystem, omega: float, M: int = 64) -> float:
    """|sum_{|m| <= M} |phi_hat(w + 2 pi m)|^2 - 1|.

    phi_hat = beta_n B_hat_n / A_n; both A_n and |sin(w/2)| are
    2 pi periodic, so the shifted terms differ only in the 1/|w + 2 pi m|
    factors.
    """
    if M < 10:
        raise ValueError("M must be >= 10")
    ms = np.arange(-M, M + 1)
    shifted = omega + 2.0 * math.pi * ms
    total = float(np.sum(_bhat_sq(shifted, sys.n)))
    denom = float(orthonormalizer(sys, np.array([omega]))[0])
    return abs(sys.beta_n**2 * total / denom - 1.0)


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
            assert factorization_residual(root_system(n)) <= 1e-9

    def test_beta_recovered_from_roots(self):
        # beta_n = 2^n sqrt(prod alpha_j r_j) with alpha_j = (r_j+1)^2/(4 r_j)
        for n in (1, 2, 3, 4):
            sys = root_system(n)
            prod = 1.0
            for r in sys.roots:
                prod *= (r + 1.0) ** 2 / (4.0 * r) * r
            assert sys.beta_n == pytest.approx(2.0**n * math.sqrt(prod), rel=1e-12)


class TestLambda:
    def test_n1_hand_expansion(self):
        # rho - 2 cos t = lambda_0 - lambda_1 cos t with rho = r + 1/r = 4
        r = 2.0 - math.sqrt(3.0)
        assert bl_system(1).lam == (4.0, 2.0)
        assert r + 1.0 / r == pytest.approx(4.0, rel=1e-12)

    def test_leading_is_two(self):
        for n in range(1, 9):
            assert bl_system(n).lam[-1] == 2.0

    def test_exact_integers(self):
        # lambda_j = (2 - [j = 0]) A(2n+1, n+j), A(m, k) the Eulerian numbers
        # by their recurrence A(m, k) = (k+1) A(m-1, k) + (m-k) A(m-1, k-1),
        # which are (2n+1)! B_{2n+1}(n+1+j) on the Cox-de Boor samples
        euler = [[1]]
        for m in range(1, 18):
            prev = euler[-1] + [0]
            euler.append([(k + 1) * prev[k] + (m - k) * (prev[k - 1] if k else 0)
                          for k in range(m)])
        assert euler[5] == [1, 26, 66, 26, 1]
        assert bl_system(2).lam == (66.0, 52.0, 2.0)
        for n in range(1, 9):
            m = 2 * n + 1
            row = euler[m][n:]
            assert bl_system(n).lam == tuple(float((2 - (j == 0)) * a) for j, a in enumerate(row))
            sam = integer_samples(m)
            assert [math.factorial(m) * sam[n + 1 + j] for j in range(n + 1)] == row

    def test_positive(self):
        for n in range(1, 7):
            assert all(l > 0 for l in bl_system(n).lam)

    def test_grid_residual(self):
        # prod_j r_j (rho_j - 2 cos t) must equal |script-A_n(t)|^2
        for n in range(1, 6):
            roots = root_system(n).roots
            t = np.linspace(0.0, 2.0 * math.pi, 257)
            direct = np.ones_like(t)
            for r in roots:
                direct *= 1.0 + r * r - 2.0 * r * np.cos(t)
            expansion = np.zeros_like(t)
            for j, l in enumerate(bl_system(n).lam):
                expansion += (-1.0) ** j * l * np.cos(j * t)
            expansion *= np.prod(roots)
            assert np.max(np.abs(direct - expansion)) <= 1e-10

    def test_system_is_built_once(self):
        assert bl_system(3) is bl_system(3)

    def test_positivity_constants(self):
        for n in range(1, 7):
            sys = root_system(n)
            assert sys.beta_n > 0
            assert sys.Lambda_dprime > 0
            # so kappa_n has gamma_n's sign (-1)^(n+1)
            assert math.copysign(1.0, bl_system(n).kappa) == (-1.0) ** (n + 1)


class TestKappa:
    def test_alternating_sum_is_tangent_number(self):
        # sum_j (-1)^j lambda_j = prod_j (rho_j - 2) = T_{2n+1}, exactly
        assert TANGENT[:4] == [1, 2, 16, 272]
        for n in range(1, 9):
            lam = bl_system(n).lam
            assert sum((-1) ** j * int(l) for j, l in enumerate(lam)) == TANGENT[n]

    def test_products_at_plus_and_minus_one(self):
        # the Laurent form at z = 1 and z = -1, on the root oracle
        for n in range(1, 9):
            rho = [r + 1.0 / r for r in root_system(n).roots]
            fact = math.factorial(2 * n + 1)
            assert math.prod(p + 2.0 for p in rho) == pytest.approx(fact, rel=1e-12)
            assert math.prod(p - 2.0 for p in rho) == pytest.approx(TANGENT[n], rel=1e-12)

    def test_matches_root_products(self):
        # kappa_n = gamma_n 2^-n / Lambda''; at n = 8 the gap, 2.1e-14, is
        # the root finder's
        for n in range(1, 9):
            ref = root_system(n)
            want = ref.gamma_n * 2.0**-n / ref.Lambda_dprime
            assert bl_system(n).kappa == pytest.approx(want, rel=1e-13)

    def test_squared_is_exact(self):
        # kappa_n^2 = 1 / (16^n (2n+1)! T_{2n+1}) to a few roundings
        for n in range(1, 9):
            exact = Fraction(1, 16**n * math.factorial(2 * n + 1) * TANGENT[n])
            assert bl_system(n).kappa ** 2 == pytest.approx(float(exact), rel=2e-15)


@lru_cache(maxsize=None)
def _pair_scales(n: int) -> tuple[float, float]:
    """The largest |value| of each root-form function on a fine grid."""
    pair = root_pair(n, np.linspace(-n, n + 1.0, 4001))
    return tuple(float(np.max(np.abs(f))) for f in pair)


@settings(max_examples=60, deadline=2000, derandomize=True, database=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    u=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8),
)
def test_natural_pair_matches_root_form(n, u):
    # at x in [-n - 1, n + 2], over the supports of both functions and past
    # them, to 1e-13 of each function's largest value
    x = -n - 1.0 + (2.0 * n + 3.0) * np.asarray(u)
    nat = natural_system(n)
    ref_scale, ref_wavelet = root_pair(n, x)
    top_scale, top_wavelet = _pair_scales(n)
    assert np.max(np.abs(nat.scale_fn(x) - ref_scale)) <= 1e-13 * top_scale
    assert np.max(np.abs(nat.wavelet_fn(x) - ref_wavelet)) <= 1e-13 * top_wavelet


class TestScaling:
    def test_peak_value(self):
        # B_1 peaks at 1 with value 1: Phi_1 = beta_1 B_1 over Lambda' = beta_1
        ref = root_system(1)
        got = ref.beta_n * scaling_localized(bl_system(1), 1.0)
        assert got == pytest.approx(ref.beta_n, rel=1e-14)

    def test_support(self):
        # Phi_{2,3}(x) = Phi_2(x - 3) is supported on [3, 6]
        sys = bl_system(2)
        assert scaling_localized(sys, 2.9 - 3) == 0.0
        assert scaling_localized(sys, 6.1 - 3) == 0.0
        assert scaling_localized(sys, 4.0 - 3) > 0.0

    def test_integral_is_beta(self):
        # Phi_n = Lambda' scaling_localized integrates to beta_n
        sys, beta = bl_system(2), root_system(2).beta_n
        val = sum(
            quad(lambda t: beta * float(scaling_localized(sys, t)), m, m + 1)[0]
            for m in range(3)
        )
        assert val == pytest.approx(beta, abs=1e-10)

    def test_half_shift_family(self):
        # substituting B_n(x + 1/2) shifts the localized functions by 1/2
        sys, beta = bl_system(2), root_system(2).beta_n
        xs = np.linspace(-1, 4, 23)
        shifted = beta * np.asarray(
            [float(scaling_localized(sys, x + 0.5)) for x in xs]
        )
        assert np.allclose(shifted, beta * scaling_localized(sys, xs + 0.5), atol=1e-12)


class TestWavelet:
    def test_ppform_built_once(self):
        # the pp-form is a property of the frozen system, built on its first
        # read and held by the system that bl_system caches
        for n in range(1, 9):
            pp = bl_system(n).wavelet
            assert bl_system(n).wavelet is pp
            assert not pp.table.flags.writeable
            assert np.array_equal(pp.table, bspline_ppform(n, bl_taps(bl_system(n)), -n).table)

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
        # (nonzero on [s-n, s-n/2)).  At s - 0.6 n inside that interval |Psi_n|
        # is 1.2e-8 or more for n <= 8; at s - 0.75 n it falls to 6.6e-13 at
        # n = 8
        for n in range(1, 9):
            sys = bl_system(n)
            for s in (0, -6):
                a, b = s - n, s + n + 1
                xs_out = np.array([a - 0.05, b + 0.05, a - 2.0, b + 2.0])
                assert np.allclose(wavelet_localized(sys, xs_out - s), 0.0, atol=1e-15)
                assert abs(wavelet_localized(sys, a + 0.4 * n - s)) > 1e-12
            # in y the natural molecules are B_n on [0, n + 1] and Psi_n on
            # [-n, n + 1], both inside the certification window, so a natural
            # report reads every point where its function is nonzero.  The
            # pp-forms give the supports: B_n's is [k0, k0 + width) and the
            # wavelet's is that in u = 2x + n
            scale, wavelet = _bspline_natural_ppform(n), sys.wavelet
            width = scale.table.shape[1] // 2
            assert (scale.k0, scale.k0 + width) == (0, n + 1)
            width = wavelet.table.shape[1] // 2
            assert ((wavelet.k0 - n) / 2, (wavelet.k0 + width - n) / 2) == (-n, n + 1)
            assert fw._GRID_Y[0] <= -n and n + 1 <= fw._GRID_Y[-1]

    def test_integral_zero(self):
        for n in (1, 2, 3):
            assert abs(self._moments(bl_system(n), 0)[0]) <= 1e-10

    def test_inverse_fourier_oracle_n1(self):
        # assemble Psi-hat from the localized-wavelet transform and invert
        # numerically on a 10-point grid; Psi = Lambda'' wavelet_localized
        sys, ref = bl_system(1), root_system(1)
        n = sys.n
        gam = ref.gamma_n

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
                ref.Lambda_dprime * float(wavelet_localized(sys, x)), abs=3e-4
            )


class TestOrthonormality:
    def test_levels(self):
        for n, om in [(1, math.pi / 3.0), (2, 1.0)]:
            assert orthonormality_residual(root_system(n), om, 64) <= 1e-6

    def test_omega_zero(self):
        assert orthonormality_residual(root_system(1), 0.0, 64) <= 1e-8

    def test_32_point_sweep(self):
        for n in (1, 2):
            sys = root_system(n)
            for om in np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False):
                assert orthonormality_residual(sys, float(om), 64) <= 1e-6

    def test_m_precondition(self):
        with pytest.raises(ValueError):
            orthonormality_residual(root_system(1), 1.0, 5)
