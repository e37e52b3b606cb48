import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import eval_genlaguerre, eval_hermite, eval_laguerre, factorial

from bargwig.special import (
    coherent_amplitudes,
    g_kernel,
    hermite_psi,
    laguerre,
    laguerre_steps,
)


def hyp2f0_exact(n, j, x):
    """2F0(-n, -j; ; x) = sum_s (-n)_s (-j)_s x^s / s!, summed in exact
    rationals from the float x and rounded once."""
    x = Fraction(x)
    total = Fraction(0)
    for s in range(min(n, j) + 1):
        poch_n = math.prod(range(n - s + 1, n + 1))
        poch_j = math.prod(range(j - s + 1, j + 1))
        total += poch_n * poch_j * x**s / math.factorial(s)
    return float(total)


class TestLaguerre:
    def test_degree_zero_is_one(self):
        for x in (-3.0, 0.0, 7.5):
            assert laguerre(0, x) == 1.0

    def test_degree_one(self):
        assert laguerre(1, 2.0) == pytest.approx(-1.0, abs=1e-15)

    def test_hand_expanded_cubic(self):
        # L3(x) = 1 - 3x + 3x^2/2 - x^3/6 at x = 1.5
        x = 1.5
        expected = 1 - 3 * x + 1.5 * x * x - x**3 / 6
        assert expected == -0.6875
        assert laguerre(3, x) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("n", [2, 5, 11, 30])
    def test_against_scipy(self, n):
        x = np.linspace(-5.0, 40.0, 101)
        assert np.allclose(laguerre(n, x), eval_laguerre(n, x), rtol=1e-11, atol=1e-11)

    @pytest.mark.parametrize("n, a", [(1, 3), (7, 1), (20, 12)])
    def test_associated_against_scipy(self, n, a):
        x = np.linspace(0.0, 40.0, 101)
        assert np.allclose(laguerre(n, x, a), eval_genlaguerre(n, a, x), rtol=1e-11, atol=1e-11)

    def test_array_input(self):
        x = np.array([0.0, 1.0])
        out = laguerre(1, x)
        assert out.shape == (2,)
        assert np.allclose(out, [1.0, 0.0])

    @pytest.mark.parametrize("x", [0.0, 0.7, np.float64(7.0), np.array(19.5)])
    def test_scalar_is_a_python_float(self, x):
        # the recurrence steps a 0-d array; laguerre hands back a float
        for n, a in ((0, 0), (5, 0), (12, 3)):
            assert type(laguerre(n, x, a)) is float

    def test_negative_degree_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            laguerre(-1, 0.5)

    @pytest.mark.parametrize("a", [0, 1, 3])
    def test_near_origin_against_mpmath(self, a):
        # the upward three-term form lost up to 1e-12 here (L_250^(3)(1e-4)
        # by 4e-13). Relative to |L|, or near a zero of L to |x dL/dx|, the
        # change one rounding of x makes: dL_n^(a)/dx = -L_(n-1)^(a+1)
        mpmath = pytest.importorskip("mpmath")

        def exact(n, b, x):
            return mpmath.fsum((-1) ** s * mpmath.binomial(n + b, n - s) * x**s / mpmath.factorial(s)
                               for s in range(n + 1))

        with mpmath.workdps(100):
            for x in (1e-4, 1e-2, 1.0, 20.0):
                xm = mpmath.mpf(x)
                for n in (12, 50, 100, 170, 250, 300):
                    want = exact(n, a, xm)
                    scale = max(abs(want), abs(xm * exact(n - 1, a + 1, xm)))
                    assert abs(laguerre(n, x, a) - want) <= 2e-15 * scale, (n, a, x)


class TestLaguerreSteps:
    """laguerre_steps yields every degree up to n; laguerre is its last
    value, so the two agree bitwise at every degree."""

    @pytest.mark.parametrize("a", [0, 2])
    def test_each_degree_is_laguerre(self, a):
        # an array value is updated in place by the next step, so each is
        # read as it comes
        x = np.linspace(0.0, 30.0, 61)
        n = -1
        for n, value in enumerate(laguerre_steps(20, x, a)):
            assert np.array_equal(value, laguerre(n, x, a))
        assert n == 20

    def test_scalar_and_array_points_round_alike(self):
        # a scalar (g_kernel at one point) steps as a 0-d array and a block
        # (core's number form, build_F) as a 1-d one, by the same expressions
        x = np.array([0.3, 7.0, 19.5])
        for scalar, block in zip(laguerre_steps(40, np.float64(7.0), 1), laguerre_steps(40, x, 1)):
            assert scalar == block[1]

    def test_negative_degree_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            next(laguerre_steps(-1, 0.5))


class TestCoherentAmplitudes:
    """coherent_amplitudes yields <k|w> = exp(-|w|^2/2) w^k / sqrt(k!) for
    k = 0..K as a running product, from a number or from an array."""

    LABELS = (0.3, 2 - 1j, 5j, 10.6, -17.3, 20 + 3j)

    @staticmethod
    def exact(K, w, mpmath):
        W = mpmath.mpc(w)
        return [mpmath.exp(-abs(W) ** 2 / 2) * W**k / mpmath.sqrt(mpmath.factorial(k)) for k in range(K + 1)]

    def test_numbers_and_one_array_against_mpmath(self):
        # wherever |<k|w>| > 1e-300, within 1e-14 of 50 digits; w^k and
        # sqrt(k!) apart overflow float64 for the larger labels at K = 300
        mpmath = pytest.importorskip("mpmath")
        K = 300
        with mpmath.workdps(50):
            want = np.array([[complex(a) for a in self.exact(K, w, mpmath)] for w in self.LABELS])
        scalars = np.array([list(coherent_amplitudes(K, w)) for w in self.LABELS], dtype=complex)
        block = np.array(list(coherent_amplitudes(K, np.array(self.LABELS, dtype=complex)))).T
        kept = np.abs(want) > 1e-300
        assert kept.sum() > 1000
        for got in (scalars, block):
            assert np.all(np.isfinite(got))
            assert np.max(np.abs(got - want)[kept] / np.abs(want)[kept]) <= 1e-14

    def test_a_number_steps_as_in_an_array(self):
        # a number is stepped as a 0-d array, by the loops an array takes:
        # its amplitudes are bitwise those it has in a block of labels
        block = np.array(list(coherent_amplitudes(300, np.array(self.LABELS, dtype=complex))))
        for i, w in enumerate(self.LABELS):
            assert np.array_equal(np.array(list(coherent_amplitudes(300, w)), dtype=complex), block[:, i]), w

    def test_yields_orders_zero_to_K(self):
        # a_0 = exp(-|w|^2/2) is real; <k|0> is delta_k0
        amplitudes = list(coherent_amplitudes(4, 0.5 - 0.5j))
        assert len(amplitudes) == 5
        assert amplitudes[0] == math.exp(-0.25)
        assert list(coherent_amplitudes(3, 0j)) == [1.0, 0, 0, 0]

    def test_underflow_is_zero_from_then_on(self):
        # past |w| = 38.6 exp(-|w|^2/2) is 0 in float64, and so is every
        # later amplitude, with no nan
        block = list(coherent_amplitudes(50, np.array([39.0, 1e-200j])))
        assert block[0][0] == 0 and all(a[0] == 0 for a in block)
        assert all(a[1] == 0 for a in block[2:])

    def test_negative_order_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            next(coherent_amplitudes(-1, 0.5))


class TestGKernel:
    def test_order_zero(self):
        for z in (0j, 1.3 - 0.2j, -4j):
            assert g_kernel(0, 0, z) == 1.0 + 0j

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_diagonal_at_origin(self, n):
        assert g_kernel(n, n, 0j) == pytest.approx((-1.0) ** n * math.factorial(n))

    def test_off_diagonal_at_origin_vanishes(self):
        assert g_kernel(2, 0, 0j) == 0
        assert g_kernel(1, 3, 0j) == 0

    def test_one_one_value(self):
        for z in (0.4 + 0.1j, 2.0 - 1.0j):
            assert g_kernel(1, 1, z) == pytest.approx(abs(z) ** 2 - 1.0, rel=1e-14)

    def test_matches_scaled_product_away_from_origin(self):
        # G(n,j,z) = conj(z)^n z^j 2F0(-n,-j;;-1/|z|^2) for 0.1 <= |z| <= 5
        rng = np.random.default_rng(11)
        for _ in range(200):
            n, j = (int(v) for v in rng.integers(0, 31, 2))
            r = rng.uniform(0.1, 5.0)
            z = r * np.exp(1j * rng.uniform(0, 2 * np.pi))
            direct = g_kernel(n, j, z)
            via_2f0 = np.conj(z) ** n * z**j * hyp2f0_exact(n, j, -1.0 / r**2)
            assert abs(direct - via_2f0) <= 1e-10 * max(1e-300, abs(direct))

    def test_conjugate_symmetry_exact(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n, j = (int(v) for v in rng.integers(0, 25, 2))
            z = complex(rng.normal(), rng.normal())
            a = g_kernel(n, j, z)
            b = g_kernel(j, n, z)
            assert abs(np.conj(a) - b) <= 1e-14 * max(1.0, abs(a))

    def test_diagonal_is_signed_laguerre(self):
        # G(n,n,z) = (-1)^n n! L_n(|z|^2)
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(0, 21))
            z = complex(rng.normal(), rng.normal())
            want = (-1.0) ** n * math.factorial(n) * laguerre(n, abs(z) ** 2)
            got = g_kernel(n, n, z)
            assert abs(got.imag) <= 1e-12 * max(1.0, abs(got))
            assert got.real == pytest.approx(want, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("z", [0j, 0.5, 1.3 - 0.2j, np.complex128(-4j)])
    def test_scalar_is_a_python_complex(self, z):
        for n, j in ((0, 0), (2, 5), (6, 1)):
            assert type(g_kernel(n, j, z)) is complex

    def test_array_broadcast(self):
        z = np.array([0j, 1 + 1j])
        out = g_kernel(1, 1, z)
        assert np.allclose(out, [-1.0, 1.0])


class TestKernelAgainstMpmath:
    """g_kernel against its sum in 50-digit arithmetic, so that no float64
    route shares its rounding."""

    @pytest.fixture
    def mp(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            yield mpmath

    @staticmethod
    def _coefficient(mp, n, j, s):
        f = mp.factorial
        return f(n) * f(j) / (f(s) * f(n - s) * f(j - s))

    def _g(self, mp, n, j, z):
        z = mp.mpc(z.real, z.imag)
        return mp.fsum(
            (-1) ** s * self._coefficient(mp, n, j, s) * mp.conj(z) ** (n - s) * z ** (j - s)
            for s in range(min(n, j) + 1)
        )

    def _hyp(self, mp, n, j, x):
        x = mp.mpf(x)
        return mp.fsum(self._coefficient(mp, n, j, s) * x**s for s in range(min(n, j) + 1))

    def test_kernel_and_2f0_relative_error(self, mp):
        rng = np.random.default_rng(29)
        for _ in range(200):
            n, j = (int(v) for v in rng.integers(0, 31, 2))
            r = rng.uniform(0.1, 5.0)
            z = r * np.exp(1j * rng.uniform(0, 2 * np.pi))
            want = self._g(mp, n, j, z)
            assert abs(mp.mpc(g_kernel(n, j, z)) - want) <= 1e-12 * abs(want)
            # the same value as the paper writes it, conj(z)^n z^j 2F0(-n, -j; ; -1/|z|^2)
            zm = mp.mpc(z.real, z.imag)
            want = mp.conj(zm) ** n * zm**j * self._hyp(mp, n, j, -1 / abs(zm) ** 2)
            assert abs(mp.mpc(g_kernel(n, j, z)) - want) <= 1e-12 * abs(want)


class TestHermitePsi:
    def test_ground_state_peak(self):
        assert hermite_psi(0, 0.0) == pytest.approx(np.pi**-0.25, rel=1e-15)

    def test_odd_parity_zero(self):
        assert hermite_psi(1, 0.0) == 0.0

    def test_recurrence_matches_explicit_h2(self):
        # psi_2(y) = (2^2 2! sqrt(pi))^(-1/2) (4y^2 - 2) exp(-y^2/2)
        y = np.linspace(-4.0, 4.0, 41)
        explicit = (4 * y**2 - 2) * np.exp(-0.5 * y**2) / math.sqrt(8 * math.sqrt(math.pi))
        assert np.max(np.abs(hermite_psi(2, y) - explicit)) < 1e-12

    @pytest.mark.parametrize("n", [3, 6, 10])
    def test_against_scipy_hermite(self, n):
        y = np.linspace(-5.0, 5.0, 101)
        norm = math.sqrt(2.0**n * factorial(n) * math.sqrt(math.pi))
        want = eval_hermite(n, y) * np.exp(-0.5 * y**2) / norm
        assert np.max(np.abs(hermite_psi(n, y) - want)) < 1e-11

    def test_orthonormality_under_quadrature(self):
        x, w = np.polynomial.legendre.leggauss(400)
        y = 12.0 * x
        wy = 12.0 * w
        for m in range(11):
            pm = hermite_psi(m, y)
            for n in range(m, 11):
                inner = np.sum(pm * hermite_psi(n, y) * wy)
                assert inner == pytest.approx(1.0 if m == n else 0.0, abs=1e-8)
