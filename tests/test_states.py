import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

import bargwig
from bargwig.phase import BasisParams, z_from_qp
from bargwig.states import (
    CoherentState,
    FockState,
    Superposition,
    bargmann,
    cat_state,
    derivative_tower,
    exact_degree,
    norm_squared,
    overlap,
    position_wavefunction,
    state_from_json,
    superposition,
)
from bargwig.validate import state_window

CATALOG = [
    FockState(0),
    FockState(1),
    FockState(3),
    CoherentState(0.7 - 0.4j),
    superposition([(1 / math.sqrt(2), FockState(0)), (1j / math.sqrt(2), FockState(1))]),
    cat_state(1.1),
]


class TestBargmannFunctions:
    def test_vacuum_is_unity(self):
        for z in (0j, 1.5 - 0.3j):
            assert bargmann(FockState(0), z) == 1.0 + 0j

    def test_fock2_at_one(self):
        assert bargmann(FockState(2), 1 + 0j) == pytest.approx(1 / math.sqrt(2), rel=1e-14)

    def test_fock_vanishes_at_origin(self):
        for n in (1, 4):
            assert bargmann(FockState(n), 0j) == 0j

    def test_coherent_vacuum_label(self):
        for z in (0j, 0.2 + 2j):
            assert bargmann(CoherentState(0j), z) == 1.0 + 0j

    def test_coherent_at_origin(self):
        u = 0.8 - 1.1j
        assert bargmann(CoherentState(u), 0j) == pytest.approx(math.exp(-0.5 * abs(u) ** 2))

    def test_superposition_linearity(self):
        st = superposition([(0.6, FockState(0)), (0.8, FockState(2))])
        z = 0.9 + 0.4j
        assert bargmann(st, z) == pytest.approx(
            0.6 * bargmann(FockState(0), z) + 0.8 * bargmann(FockState(2), z)
        )

    def test_superposition_is_antilinear(self):
        # f = exp(|z|^2/2) <psi|z> conjugates the coefficients
        st = superposition([(0.6, FockState(0)), (0.8j, FockState(2))])
        z = 0.9 + 0.4j
        assert bargmann(st, z) == pytest.approx(
            0.6 * bargmann(FockState(0), z) - 0.8j * bargmann(FockState(2), z)
        )


class TestExactNormalization:
    @pytest.mark.parametrize("N", [20, 100, 170])
    def test_fock_normalization_to_an_ulp(self, N):
        # f(1) = 1/sqrt(N!): the exact value lies within one ulp of it
        v = bargmann(FockState(N), 1.0).real
        exact_sq = Fraction(1, math.factorial(N))
        assert Fraction(v - math.ulp(v)) ** 2 <= exact_sq <= Fraction(v + math.ulp(v)) ** 2

    @pytest.mark.parametrize("N", [20, 100, 164, 200, 250, 300])
    def test_fock_finite_on_its_own_window(self, N):
        # z^(N-k) once came before sqrt(N!)/(N-k)! and overflowed: orders
        # 0-20 of fock(300) were non-finite at 9093 of 9303 such values, and
        # f(30) of fock(250), 30^250 / sqrt(250!) = 1.06e123, was nan. numpy
        # took z^h for h >= 100 as exp(h log z), up to 2.4e-13 off
        q_lo, q_hi, p_lo, p_hi = state_window(FockState(N), BasisParams())
        qq, pp = np.meshgrid(np.linspace(q_lo, q_hi, 21), np.linspace(p_lo, p_hi, 21))
        z = np.append(z_from_qp(qq, pp, BasisParams()).ravel(), [1.0, 30.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = np.vstack([derivative_tower(FockState(N), z, 20), bargmann(FockState(N), z)])
        _assert_fock_tower(N, z, got, [*range(21), 0])

    @pytest.mark.parametrize("N", [250, 300])
    def test_fock_every_order_on_its_own_window(self, N):
        # every order to K = N, near the origin too; where the value itself
        # overflows (at the corners, orders near N - |z|) it is not read
        q_lo, q_hi, p_lo, p_hi = state_window(FockState(N), BasisParams())
        qq, pp = np.meshgrid(np.linspace(q_lo, q_hi, 7), np.linspace(p_lo, p_hi, 7))
        z = np.append(z_from_qp(qq, pp, BasisParams()).ravel(), [1.0, 0.05 + 0.02j, 0.001j])
        with np.errstate(over="ignore", invalid="ignore"):
            got = derivative_tower(FockState(N), z, N)
        _assert_fock_tower(N, z, got, range(N + 1))

    @pytest.mark.parametrize("N", [0, 1, 5, 20, 40, 100, 170, 300])
    def test_fock_coherent_overlap_against_mpmath(self, N):
        # the running product e^(-|u|^2/2) prod_k u/sqrt(k); with u^N and
        # sqrt(N!) as separate factors, N = 300 overflowed (-17.3, 20+3i),
        # underflowed to 0 (10.6) or lost digits in complex powers (5i)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for u in (1.3 - 0.6j, 0.3, 2 - 1j, 5j, 10.6, -17.3, 20 + 3j):
                U = mpmath.mpc(u)
                want = complex(mpmath.exp(-abs(U) ** 2 / 2) * U**N / mpmath.sqrt(mpmath.factorial(N)))
                got = overlap(FockState(N), CoherentState(u))
                assert abs(got - want) <= 1e-14 * abs(want), u
                assert overlap(CoherentState(u), FockState(N)) == np.conj(got)

    def test_fock_coherent_overlap_on_a_seeded_sample(self):
        # <n|u> for about 100 seeded pairs, n <= 300 and |u| <= 30, within
        # 1e-13 of 50 digits wherever it is past 1e-290, and below that
        # wherever it is not
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(2007)
        ns = rng.integers(0, 301, 100)
        us = rng.uniform(0.0, 30.0, 100) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 100))
        kept = 0
        with mpmath.workdps(50):
            for n, u in zip(ns.tolist(), us.tolist()):
                U = mpmath.mpc(u)
                want = complex(mpmath.exp(-abs(U) ** 2 / 2) * U**n / mpmath.sqrt(mpmath.factorial(n)))
                got = FockState(n).bra(CoherentState(u))
                if abs(want) > 1e-290:
                    kept += 1
                    assert abs(got - want) <= 1e-13 * abs(want), (n, u)
                else:
                    assert abs(got) <= 1e-290, (n, u)
        assert kept >= 50

    def test_huge_fock_overlap_stops_at_zero(self):
        # <n|u> for n = 10^11 once looped n times after the running product
        # had reached 0; a child process keeps a hang from stalling the suite
        code = ("from bargwig.states import CoherentState, FockState\n"
                "for u in (0, 1e-300, 1, 10, 37, 38, 38.7, 20 + 3j):\n"
                "    assert FockState(10**11).bra(CoherentState(u)) == 0, u\n")
        src = os.path.dirname(os.path.dirname(bargwig.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def _assert_fock_tower(N, z, got, orders):
    """Row i of got is f^(orders[i]) of fock(N) at z: finite wherever the
    50-digit value sqrt(N!)/m! z^m, m = N - k, is below 1.7e308, and
    within 1e-14 of it relative wherever it is above 1e-290 too."""
    mpmath = pytest.importorskip("mpmath")
    low = N - max(orders)
    with mpmath.workdps(50):
        coef = [mpmath.sqrt(mpmath.factorial(N)) / mpmath.factorial(low)]
        for m in range(low + 1, N + 1):
            coef.append(coef[-1] / m)
        for j, zv in enumerate(z):
            Z = mpmath.mpc(zv)
            power = [Z ** low]
            for _ in range(low, N):
                power.append(power[-1] * Z)
            for row, k in zip(got[:, j], orders):
                want = coef[N - k - low] * power[N - k - low]
                size = abs(want)
                if size < 1.7e308:
                    assert np.isfinite(row), (zv, k)
                    assert size <= 1e-290 or abs(want - mpmath.mpc(row)) <= 1e-14 * size, (zv, k)


class TestCoherentTower:
    """The complex coherent recurrence of derivative_tower, to K = 64,
    against conj(c) f(z) conj(U)^k summed over the members in 40-digit
    arithmetic."""

    K = 64

    @pytest.mark.parametrize("state", [
        CoherentState(0.7 - 0.4j),
        superposition([(1.0, CoherentState(1.1 + 0.3j)), (0.6 - 0.8j, CoherentState(-1.1 - 0.3j))], normalize=True),
    ], ids=["derivative-coherent", "derivative-complex-cat"])
    def test_matches_high_precision_recurrence(self, state):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(601)
        z = np.array([0j] + [complex(*rng.uniform(-3.0, 3.0, 2)) for _ in range(12)])
        got = derivative_tower(state, z, self.K)
        terms = state.terms if isinstance(state, Superposition) else ((1.0, state),)
        with mpmath.workdps(40):
            for i, zi in enumerate(z):
                members = []
                for c, m in terms:
                    U = mpmath.mpc(m.u)
                    f = mpmath.exp(mpmath.conj(U) * mpmath.mpc(zi) - abs(U) ** 2 / 2)
                    members.append((mpmath.conj(mpmath.mpc(c)) * f, mpmath.conj(U)))
                for k in range(self.K + 1):
                    parts = [f * step**k for f, step in members]
                    scale = float(sum(abs(p) for p in parts))
                    assert abs(got[k, i] - complex(sum(parts))) <= 1e-14 * scale, (zi, k)

    @pytest.mark.parametrize("state", [
        CoherentState(0.7 - 0.4j),
        cat_state(1.1),
        FockState(12),
        superposition([(0.6, FockState(5)), (0.8j, CoherentState(-0.5 + 1.1j))], normalize=True),
    ], ids=["derivative-coherent", "derivative-cat1.1", "derivative-fock12", "derivative-fock-coherent"])
    def test_point_does_not_depend_on_its_array(self, state):
        # a one-point call and short blocks round as the same points inside
        # a longer array; Fock members step by the same complex multiply as
        # coherent ones
        rng = np.random.default_rng(607)
        z = np.array([0j] + [complex(*rng.uniform(-3.0, 3.0, 2)) for _ in range(23)])
        whole = derivative_tower(state, z, 30)
        for length in (1, 2, 3, 5):
            for i in range(len(z) - length + 1):
                assert np.array_equal(derivative_tower(state, z[i:i + length], 30), whole[:, i:i + length])


class TestDerivativeTower:
    def test_fock_tower_truncates_at_degree(self):
        tower = derivative_tower(FockState(3), 0.7 + 0.1j, K=5)
        assert tower.shape == (6,) and tower.dtype == complex
        assert exact_degree(FockState(3)) == 3
        assert tower[4] == 0 and tower[5] == 0

    def test_fock_tower_closed_form(self):
        N, z = 4, 1.2 - 0.5j
        tower = derivative_tower(FockState(N), z, K=N)
        for k in range(N + 1):
            want = math.sqrt(math.factorial(N)) * z ** (N - k) / math.factorial(N - k)
            assert tower[k] == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("N", [12, 40, 250])
    def test_fock_tower_coefficients_to_an_ulp(self, N):
        # sqrt(N!)/(N-k)! at z = 1, against the exact rational square
        values = derivative_tower(FockState(N), 1.0 + 0j, K=N).real
        for k in range(N + 1):
            exact_sq = Fraction(math.factorial(N), math.factorial(N - k) ** 2)
            assert float(Fraction(values[k]) ** 2 / exact_sq) == pytest.approx(1.0, abs=5e-16)

    def test_coherent_tower_geometric(self):
        u, z = 0.3 + 0.9j, -0.4 + 0.2j
        tower = derivative_tower(CoherentState(u), z, K=5)
        f = bargmann(CoherentState(u), z)
        for k in range(6):
            assert tower[k] == pytest.approx(np.conj(u) ** k * f, rel=1e-13)

    def test_superposition_tower_is_linear(self):
        a, b = 0.6, 0.8j
        st = superposition([(a, FockState(0)), (b, FockState(1))])
        z = 0.5 + 0.5j
        tower = derivative_tower(st, z, K=3)
        t0 = derivative_tower(FockState(0), z, K=3)
        t1 = derivative_tower(FockState(1), z, K=3)
        # f is antilinear in the state: the members combine with conj(c)
        assert np.allclose(tower, a * t0 + np.conj(b) * t1)

    @pytest.mark.parametrize("state", CATALOG)
    def test_tower_against_finite_differences(self, state):
        # central differences of the order-0 entry, both axis directions
        rng = np.random.default_rng(211)
        h = 1e-4
        for _ in range(5):
            z = complex(*rng.uniform(-2.1, 2.1, 2))
            if abs(z) > 3:
                continue
            tower = derivative_tower(state, z, K=5)
            for order in range(1, 5):
                # d f^(k-1)/dz via real and imaginary steps
                fp = derivative_tower(state, z + h, K=order - 1)[order - 1]
                fm = derivative_tower(state, z - h, K=order - 1)[order - 1]
                d_real = (fp - fm) / (2 * h)
                fp = derivative_tower(state, z + 1j * h, K=order - 1)[order - 1]
                fm = derivative_tower(state, z - 1j * h, K=order - 1)[order - 1]
                d_imag = (fp - fm) / (2j * h)
                ref = tower[order]
                scale = max(1.0, abs(ref))
                assert abs(d_real - ref) <= 1e-6 * scale
                assert abs(d_imag - ref) <= 1e-6 * scale

    def test_vacuum_consistency(self):
        z = 1.3 - 0.8j
        tf = derivative_tower(FockState(0), z, K=4)
        tc = derivative_tower(CoherentState(0j), z, K=4)
        assert np.max(np.abs(tf - tc)) <= 1e-13
        y = np.linspace(-4, 4, 33)
        basis = BasisParams()
        pf = position_wavefunction(FockState(0), y, basis)
        pc = position_wavefunction(CoherentState(0j), y, basis)
        assert np.max(np.abs(pf - pc)) <= 1e-13


class TestExactDegree:
    def test_values(self):
        assert exact_degree(FockState(5)) == 5
        assert exact_degree(CoherentState(1j)) is None
        st = superposition([(0.5, FockState(0)), (0.5, FockState(1)),
                            (0.5, FockState(2)), (0.5, FockState(3))])
        assert exact_degree(st) == 3
        assert exact_degree(cat_state(0.9)) is None


class TestPositionWavefunction:
    def test_vacuum_peak(self):
        got = position_wavefunction(FockState(0), 0.0, BasisParams())
        assert got == pytest.approx(np.pi**-0.25, rel=1e-14)

    def test_fock1_parity(self):
        assert position_wavefunction(FockState(1), 0.0, BasisParams()) == 0

    def test_coherent_gaussian_center(self):
        u = 0.7 + 0.2j
        basis = BasisParams(b=1.4)
        Q = math.sqrt(2) * basis.b * u.real
        y = np.linspace(Q - 5, Q + 5, 201)
        dens = np.abs(position_wavefunction(CoherentState(u), y, basis)) ** 2
        assert y[np.argmax(dens)] == pytest.approx(Q, abs=0.06)

    @pytest.mark.parametrize("state", CATALOG)
    @pytest.mark.parametrize("b", [0.7, 1.0, 1.6])
    def test_normalization(self, state, b):
        basis = BasisParams(b=b)
        x, w = np.polynomial.legendre.leggauss(400)
        y = 12.0 * b * x
        wy = 12.0 * b * w
        dens = np.abs(position_wavefunction(state, y, basis)) ** 2
        assert np.sum(dens * wy) == pytest.approx(1.0, abs=1e-8)


class TestOverlapsAndNormalization:
    def test_fock_orthonormal(self):
        assert overlap(FockState(2), FockState(2)) == 1
        assert overlap(FockState(2), FockState(3)) == 0

    def test_fock_coherent_overlap(self):
        u = 0.6 - 0.3j
        got = overlap(FockState(2), CoherentState(u))
        want = math.exp(-0.5 * abs(u) ** 2) * u**2 / math.sqrt(2)
        assert got == pytest.approx(want, rel=1e-13)

    def test_coherent_coherent_overlap(self):
        a, b = 0.4 + 0.1j, -0.2 + 0.9j
        got = overlap(CoherentState(a), CoherentState(b))
        want = np.exp(-0.5 * abs(a) ** 2 - 0.5 * abs(b) ** 2 + np.conj(a) * b)
        assert got == pytest.approx(want, rel=1e-13)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="not normalized"):
            Superposition(((1.0, FockState(0)), (1.0, FockState(1))))

    def test_normalize_flag_rescales(self):
        st = superposition([(1.0, FockState(0)), (1.0, FockState(1))], normalize=True)
        assert norm_squared(st) == pytest.approx(1.0, abs=1e-14)

    def test_cat_state_normalized(self):
        assert norm_squared(cat_state(1.2)) == pytest.approx(1.0, abs=1e-13)
        assert norm_squared(cat_state(0.8, sign=-1)) == pytest.approx(1.0, abs=1e-13)

    def test_nesting_rejected(self):
        inner = superposition([(1.0, FockState(0))])
        with pytest.raises(ValueError, match="Fock or coherent"):
            superposition([(1.0, inner)])
        with pytest.raises(ValueError, match="Fock or coherent"):
            superposition([(1.0, inner)], normalize=True)

    def test_term_cap(self):
        coeff = 1.0 / math.sqrt(65)
        terms = [(coeff, FockState(n)) for n in range(65)]
        with pytest.raises(ValueError, match="capped"):
            superposition(terms)


class TestJsonSchema:
    def test_fock_round_trip(self):
        st = state_from_json({"type": "fock", "n": 3})
        assert st == FockState(3)
        assert st.to_json() == {"type": "fock", "n": 3}

    def test_coherent_round_trip(self):
        st = state_from_json({"type": "coherent", "re": 0.7, "im": -0.4})
        assert st == CoherentState(0.7 - 0.4j)
        assert st.to_json() == {"type": "coherent", "re": 0.7, "im": -0.4}

    def test_superposition_round_trip(self):
        obj = {
            "type": "superposition",
            "terms": [
                {"coeff": {"re": 1 / math.sqrt(2), "im": 0.0}, "state": {"type": "fock", "n": 0}},
                {"coeff": {"re": 0.0, "im": 1 / math.sqrt(2)}, "state": {"type": "fock", "n": 1}},
            ],
        }
        st = state_from_json(obj)
        back = st.to_json()
        again = state_from_json(back)
        assert again == st

    def test_unnormalized_needs_flag(self):
        obj = {
            "type": "superposition",
            "terms": [
                {"coeff": {"re": 1.0, "im": 0.0}, "state": {"type": "fock", "n": 0}},
                {"coeff": {"re": 1.0, "im": 0.0}, "state": {"type": "fock", "n": 1}},
            ],
        }
        with pytest.raises(ValueError, match="not normalized"):
            state_from_json(obj)
        st = state_from_json(obj, normalize=True)
        assert norm_squared(st) == pytest.approx(1.0, abs=1e-14)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            state_from_json({"type": "fock"})
        with pytest.raises(ValueError):
            state_from_json({"type": "thermal"})
        with pytest.raises(ValueError):
            state_from_json({"no_type": True})
        with pytest.raises(ValueError):
            state_from_json({"type": "superposition", "terms": []})

    def test_nested_superposition_rejected(self):
        obj = {
            "type": "superposition",
            "terms": [
                {
                    "coeff": {"re": 1.0, "im": 0.0},
                    "state": {
                        "type": "superposition",
                        "terms": [{"coeff": {"re": 1.0, "im": 0.0}, "state": {"type": "fock", "n": 0}}],
                    },
                }
            ],
        }
        with pytest.raises(ValueError, match="nest"):
            state_from_json(obj)


class TestMemberValidation:
    """A member refuses a value that would name another state or none."""

    @pytest.mark.parametrize("n", [2.5, 2.0, True, "3", None, -1])
    def test_fock_index_must_be_a_non_negative_integer(self, n):
        with pytest.raises(ValueError, match="non-negative integer, got " + re.escape(repr(n))):
            FockState(n)

    def test_numpy_integer_fock_index_is_an_int(self):
        st = FockState(np.int64(3))
        assert st == FockState(3) and type(st.n) is int

    @pytest.mark.parametrize("n", [2.7, True, "2"])
    def test_json_fock_index_is_not_truncated(self, n):
        with pytest.raises(ValueError, match=re.escape(repr(n))):
            state_from_json({"type": "fock", "n": n})

    @pytest.mark.parametrize("u", [complex(math.inf, 0.0), complex(0.5, -math.inf), complex(math.nan, 0.0),
                                   complex(0.0, math.nan)], ids=["inf", "-inf-imag", "nan", "nan-imag"])
    def test_coherent_amplitude_must_be_finite(self, u):
        with pytest.raises(ValueError, match="finite"):
            CoherentState(u)

    def test_json_coherent_amplitude_that_overflows_is_refused(self):
        with pytest.raises(ValueError, match=r"finite, got \(inf"):
            state_from_json({"type": "coherent", "re": "1e400"})

    def test_nan_coefficient_is_not_normalized(self):
        with pytest.raises(ValueError, match="not normalized: <psi|psi> = nan"):
            superposition([(float("nan"), FockState(0))])
        with pytest.raises(ValueError, match="cannot normalize .* nan"):
            superposition([(float("nan"), FockState(0))], normalize=True)
        obj = {"type": "superposition",
               "terms": [{"coeff": {"re": float("nan"), "im": 0.0}, "state": {"type": "fock", "n": 0}}]}
        with pytest.raises(ValueError, match="nan"):
            state_from_json(obj)
