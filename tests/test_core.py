import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from bargwig import core
from bargwig.core import (
    ORDER_CAP,
    _number_form,
    MAX_DEGREE,
    TruncationError,
    TruncationPolicy,
    build_F,
    choose_truncation,
    wigner_closed_coherent_crossb,
    wigner_closed_coherent_gaussian,
    wigner_closed_fock,
    wigner_series,
)
from bargwig.grid import GridAxis, evaluate_grid
from bargwig.oracles import wigner_config_integral
from bargwig.phase import BasisParams, qp_from_z, z_from_qp
from bargwig.states import (CoherentState, FockState, _terms, _unchecked_superposition, bargmann, cat_state,
                            derivative_tower, exact_degree, norm_squared, overlap, superposition)
from bargwig.validate import _SEED, state_window
from pair_reference import pair_pi_w

RNG_SEED = 307

CATALOG = [
    FockState(0),
    FockState(1),
    FockState(4),
    CoherentState(0.7 - 0.4j),
    superposition([(1 / math.sqrt(2), FockState(0)), (1j / math.sqrt(2), FockState(1))]),
    cat_state(1.1),
]


def quadratic_form_reference(state, z):
    """V†FV through build_F with explicit Taylor weights; the slow route."""
    deg = choose_truncation(state, z, TruncationPolicy())
    F = build_F(z, deg)
    tower = derivative_tower(state, z, deg)
    weights = np.array([1.0 / math.factorial(k) for k in range(deg + 1)])
    v = tower * weights
    form = np.vdot(v, F @ v)
    return math.exp(-2 * abs(z) ** 2) / math.pi * form.real


class TestTruncationPolicy:
    def test_defaults(self):
        assert [f.name for f in dataclasses.fields(TruncationPolicy)] == ["tail_tolerance"]
        assert TruncationPolicy().tail_tolerance == 1e-14 and ORDER_CAP == 400
        assert not hasattr(core, "WALK_DEGREE")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tail_tolerance": math.inf},
            {"tail_tolerance": math.nan},
            {"tail_tolerance": -math.inf},
            {"tail_tolerance": 0.0},
            {"tail_tolerance": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TruncationPolicy(**kwargs)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
    def test_tail_tolerance_error_names_value(self, tol):
        # an infinite tolerance once gave K = 0 and a wrong W without error
        with pytest.raises(ValueError, match=f"positive and finite, got {tol!r}"):
            TruncationPolicy(tail_tolerance=tol)


class TestBuildF:
    def test_order_zero(self):
        F = build_F(0.3 + 0.2j, 0)
        assert F.shape == (1, 1)
        assert F[0, 0] == 1.0 + 0j

    def test_standard_entry_11(self):
        z = 0.8 - 0.5j
        F = build_F(z, 2)
        assert F.shape == (3, 3)
        assert F[1, 1] == pytest.approx(abs(z) ** 2 - 1.0)

    def test_standard_at_origin_is_signed_factorial_diagonal(self):
        F = build_F(0j, 4)
        for n in range(5):
            for j in range(5):
                want = (-1.0) ** n * math.factorial(n) if n == j else 0.0
                assert F[n, j] == pytest.approx(want)

    def test_standard_hermitian(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(20):
            z = complex(rng.normal(), rng.normal())
            F = build_F(z, 12)
            assert np.max(np.abs(F - F.conj().T)) <= 1e-14 * max(1.0, np.max(np.abs(F)))

    @pytest.mark.parametrize("K", [0, 8, 30])
    def test_points_at_once_are_each_point_bitwise(self, K):
        # validate's paper-form check builds F once over its 200 annulus
        # points, drawn here as it draws them; each slice is F at that point
        # alone, and F is Hermitian in its first two axes at every point
        rng = np.random.default_rng(_SEED)
        r, theta = rng.uniform(0.5, 4.0, 200), rng.uniform(0.0, 2.0 * math.pi, 200)
        z = np.append(0j, r * np.exp(1j * theta))
        F = build_F(z, K)
        assert F.shape == (K + 1, K + 1, z.size)
        assert np.array_equal(F, np.conj(np.swapaxes(F, 0, 1)))
        for i, point in enumerate(z):
            assert np.array_equal(F[..., i], build_F(complex(point), K)), point

    def test_negative_order(self):
        with pytest.raises(ValueError):
            build_F(1j, -1)


class TestChooseTruncation:
    def test_fock_exact_degree(self):
        assert choose_truncation(FockState(5), 1j, TruncationPolicy()) == 5

    def test_superposition_takes_max_degree(self):
        st = superposition(
            [(0.5, FockState(0)), (0.5, FockState(1)), (0.5, FockState(2)), (0.5, FockState(3))]
        )
        assert choose_truncation(st, 0.3 + 0j, TruncationPolicy()) == 3

    def test_coherent_regression_value(self):
        # frozen once computed; the vacuum, f = 1, has degree 0
        for state, K in [(CoherentState(1.0), 26), (CoherentState(1.5), 34), (CoherentState(0.7 - 0.4j), 23),
                         (cat_state(1.1), 28), (cat_state(1.2), 30), (cat_state(4.0), 78)]:
            assert certify(state, np.array([1.0 + 0j, 2.5j])) == K, state
        assert certify(CoherentState(0), np.array([2.5j])) == 0
        assert certify(cat_state(4.0), np.array([2.5j])) == 78

    def test_cap_error_carries_estimate(self):
        # cat(15) needs K >= 2|U|^2 = 450, past ORDER_CAP; the error carries
        # the cap and the bound there, sqrt(2 <psi|psi>) g_401 with
        # g_k = 2 |c| exp(-|U|^2/2) |U|^k / sqrt(k!), and names the state
        state = cat_state(15.0)
        with pytest.raises(TruncationError) as err:
            choose_truncation(state, None, TruncationPolicy(tail_tolerance=1e-14))
        k, c = ORDER_CAP + 1, abs(state.terms[0][0])
        g = 2 * c * math.exp(-112.5 + k * math.log(15.0) - math.lgamma(k + 1) / 2)
        assert err.value.order == ORDER_CAP and not hasattr(err.value, "point")
        assert err.value.tail_bound == pytest.approx(math.sqrt(2 * norm_squared(state)) * g, rel=1e-12)
        message = str(err.value)
        for part in (repr(state), f"order cap K = {ORDER_CAP}", "K >= 450", "tolerance 1e-14",
                     f"bound is {err.value.tail_bound:.3g}"):
            assert part in message

    def test_grows_with_amplitude(self):
        pol = TruncationPolicy()
        k_small = choose_truncation(CoherentState(0.3), 0.5j, pol)
        k_large = choose_truncation(CoherentState(1.5), 2.5j, pol)
        assert k_small < k_large


def lattice(q_lo, q_hi, nq, p_lo, p_hi, np_):
    qq, pp = np.meshgrid(np.linspace(q_lo, q_hi, nq), np.linspace(p_lo, p_hi, np_), indexing="ij")
    return z_from_qp(qq, pp, BasisParams())


def random_superpositions_on_lattices(count=200):
    """(state, z): superpositions of 1-3 coherent states with random
    coefficients, each on a random lattice of more than 1024 points."""
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(count):
        members = int(rng.integers(1, 4))
        state = superposition(
            [(complex(*rng.normal(size=2)), CoherentState(complex(*rng.uniform(-1.5, 1.5, 2))))
             for _ in range(members)],
            normalize=True,
        )
        q_lo, p_lo = rng.uniform(-4.0, 1.0, 2)
        q_hi, p_hi = q_lo + rng.uniform(0.2, 4.0), p_lo + rng.uniform(0.2, 4.0)
        yield state, lattice(q_lo, q_hi, int(rng.integers(33, 121)), p_lo, p_hi, int(rng.integers(33, 121)))


POLICY = TruncationPolicy()
TOL = POLICY.tail_tolerance


def origin_tail(state, K, extra=200):
    """sum_(K<k<=K+extra) |<k|psi>|^2, summed term by term."""
    return sum(abs(overlap(FockState(k), state)) ** 2 for k in range(K + 1, K + extra + 1))


def certify(state, z):
    """choose_truncation's K for state, checked on the labels z: K is the
    same on any labels, its certificate sqrt(<psi|psi> sum_(k>K) |<k|psi>|^2)
    is within the tolerance, and W of the state projected on |0>, ..., |K>
    (wigner_series' order) is within the tolerance of the exact W at every
    point."""
    K = choose_truncation(state, z, POLICY)
    for labels in (np.ravel(z)[::-1], np.array([0j]), None):
        assert choose_truncation(state, labels, POLICY) == K
    assert math.sqrt(norm_squared(state) * origin_tail(state, K)) <= TOL, (state, K)
    gap = wigner_series(state, z, order=K) - wigner_series(state, z)
    assert np.max(np.abs(gap), initial=0.0) * math.pi <= TOL, state
    return K


def number_form_calls(monkeypatch):
    """The list of the orders of every core._number_form call, for the rest
    of the test."""
    orders = []
    number_form = core._number_form
    monkeypatch.setattr(core, "_number_form", lambda c, x, y: orders.append(len(c) - 1) or number_form(c, x, y))
    return orders


def amplitudes(state, K):
    """The number amplitudes [<0|psi>, ..., <K|psi>] that _number_form sums."""
    return [complex(overlap(FockState(k), state)) for k in range(K + 1)]


def displaced_amplitudes(state, w, M, dps=30):
    """[a_0, ..., a_M], a_k = <k|D(-w)|psi> at the label w, in dps digits,
    from each member's closed form: D(-w)|u> = exp(i Im(conj(w) u)) |u - w>,
    a running product in k, for a coherent member, and Cahill and Glauber's
    normalized Laguerre values for a Fock member,
    sqrt(n!/k!) (-w)^(k-n) exp(-x/2) L_n^(k-n)(x) for k >= n and
    sqrt(k!/n!) conj(w)^(n-k) exp(-x/2) L_k^(n-k)(x) for k < n, x = |w|^2."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        w = mpmath.mpc(complex(w))
        x = abs(w) ** 2
        total = [mpmath.mpc(0)] * (M + 1)
        for c, m in _terms(state):
            c = mpmath.mpc(c)
            if isinstance(m, CoherentState):
                u = mpmath.mpc(m.u)
                a = c * mpmath.exp(1j * mpmath.im(mpmath.conj(w) * u) - abs(u - w) ** 2 / 2)
                for k in range(M + 1):
                    if k:
                        a = a * (u - w) / mpmath.sqrt(k)
                    total[k] += a
                continue
            n = m.n
            for k in range(M + 1):
                lo, hi = min(k, n), max(k, n)
                power = (-w) ** (k - n) if k >= n else mpmath.conj(w) ** (n - k)
                root = mpmath.sqrt(mpmath.factorial(lo) / mpmath.factorial(hi))
                total[k] += c * root * power * mpmath.exp(-x / 2) * mpmath.laguerre(lo, hi - lo, x)
        return np.array([complex(a) for a in total])


class TestEdgeScan:
    """choose_truncation once bounded the tail on a sample, its largest |f|
    sought on a lattice's edge. Now K is the state's alone, so a lattice,
    its ravel and its transpose give one K, and every point meets the
    certificate (certify)."""

    @pytest.mark.parametrize("count", [41, 60, 61, 200])
    @pytest.mark.parametrize("state", [CoherentState(0.7 - 0.4j), cat_state(1.1)], ids=["coherent", "cat1.1"])
    def test_catalog_windows(self, state, count):
        z = lattice(-3.0, 3.0, count, -3.0, 3.0, count)
        K = certify(state, z)
        assert choose_truncation(state, z.ravel(), POLICY) == K
        assert choose_truncation(state, z.T, POLICY) == K

    def test_random_superpositions_on_random_lattices(self):
        for state, z in random_superpositions_on_lattices(30):
            K = certify(state, z)
            assert choose_truncation(state, z.T, POLICY) == K


class TestTwoTrySearch:
    """The shell walk tried its closure at shell 32, then at the cap, 64.
    The sum is now exact; the cases on which the two tries were checked are
    restated against choose_truncation's certificate (certify) and the
    exact values."""

    @pytest.mark.parametrize("u, extent", [(0.3, 3.0), (1.0, 3.0), (2.0, 3.0), (3.0, 3.0), (2.5, 6.0), (3.0, 6.0)])
    def test_coherent_windows(self, u, extent):
        # against exp(-2|z - u|^2)
        z = lattice(-extent, extent, 60, -extent, extent, 60)
        certify(CoherentState(u), z)
        assert np.max(np.abs(wigner_series(CoherentState(u), z) * math.pi - np.exp(-2 * np.abs(z - u) ** 2))) <= TOL

    @pytest.mark.parametrize("beta", [2.0, 2.5, 3.0])
    def test_weak_far_member(self, beta):
        # a weak member far out sets K, which falls with its weight
        z = lattice(-3.0, 3.0, 60, -3.0, 3.0, 60)
        orders = []
        for w in 10.0 ** -np.arange(1, 7):
            state = superposition([(1.0, CoherentState(0.2)), (w, CoherentState(beta + 0.5j))], normalize=True)
            orders.append(certify(state, z))
        assert orders == sorted(orders, reverse=True) and orders[-1] < orders[0]

    def test_second_try_is_only_paid_past_half_the_cap(self, monkeypatch):
        # no order is summed at all: a state of coherent members takes no
        # number amplitude, a mixture one number form a block, at its Fock
        # part's degree, and no evaluation reads choose_truncation's K = 28
        # (cat(1.1)) or 59 (coherent(3))
        orders = number_form_calls(monkeypatch)
        z = lattice(-3.0, 3.0, 60, -3.0, 3.0, 60)
        assert choose_truncation(cat_state(1.1), z, POLICY) == 28
        assert choose_truncation(CoherentState(3.0), z, POLICY) == 59
        wigner_series(cat_state(1.1), z)
        wigner_series(CoherentState(3.0), z)
        wigner_series(cat_state(1.1), lattice(-3.0, 3.0, 200, -3.0, 3.0, 200))
        assert orders == []
        mixed = superposition([(0.6, FockState(2)), (0.8j, CoherentState(0.5 - 0.3j))], normalize=True)
        wigner_series(mixed, lattice(-3.0, 3.0, 200, -3.0, 3.0, 200))
        assert orders == [2] * 10

    # the ids keep the orders the shell walk took at z = 0 (None: it raised)
    @pytest.mark.parametrize("p, beta", [(3, 2.0), (4, 2.0), (4, 3.0), (3, 4.0)],
                             ids=["3-2.0-24", "4-2.0-None", "4-3.0-None", "3-4.0-30"])
    def test_sparse_taylor_stack(self, p, beta):
        # at the centre of a p-fold symmetric superposition <k|psi> vanishes
        # unless p divides k, which fooled the walk's pair-sum closure; the
        # certificate sees every order, and the pair sum needs none
        w = np.exp(2j * np.pi / p)
        state = superposition([(1.0, CoherentState(beta * w**k)) for k in range(p)], normalize=True)
        z = np.array([0j])
        certify(state, z)
        assert abs(wigner_series(state, z)[0] * math.pi - pair_pi_w(state, 0j)) <= TOL

    @pytest.mark.parametrize("shape", [(1,), (2,), (511,), (512,), (513,), (1024,), (1025,), (5000,),
                                       (1, 700), (700, 1), (3, 700), (60, 60), (200, 200)])
    def test_sample_points_and_order(self, shape):
        # labels of any shape: each point is certified, and its value is
        # that of the raveled labels
        rng = np.random.default_rng(RNG_SEED + 11)
        z = (rng.uniform(-3.0, 3.0, shape) + 1j * rng.uniform(-3.0, 3.0, shape)).round(1)
        for state in (CoherentState(0.7 - 0.4j), cat_state(1.1)):
            certify(state, z)
            assert np.array_equal(wigner_series(state, z), wigner_series(state, z.ravel()).reshape(shape))

    def test_sample_on_random_lattices(self):
        # a point's value does not depend on where it sits among the labels
        for state, z in random_superpositions_on_lattices(20):
            zz = z.ravel()
            certify(state, zz)
            assert np.array_equal(wigner_series(state, zz[::-1])[::-1], wigner_series(state, zz))

    @pytest.mark.parametrize("window", [
        (-3.0, 3.0, 200, -3.0, 3.0, 200),
        (-3.0, 3.0, 61, -3.0, 3.0, 41),
        (-2.0, 3.0, 60, -3.0, 3.0, 60),
        (-3.0, 2.0, 60, -3.0, 3.0, 60),
        (-3.0, 3.0, 60, -1.0, 3.0, 60),
        (-1.0, 3.0, 45, -2.0, 1.0, 70),
    ])
    def test_edge_maxima_are_those_of_a_full_scan(self, window):
        # K is the state's, whatever the window
        z = lattice(*window)
        for state in (CoherentState(0.7 - 0.4j), cat_state(1.1), CoherentState(-0.2 + 1.5j)):
            K = certify(state, z)
            assert choose_truncation(state, z.ravel()[::-1], POLICY) == K


class TestWignerSeries:
    def test_vacuum_peak(self):
        assert wigner_series(FockState(0), 0j) == pytest.approx(1 / math.pi, rel=1e-14)

    def test_vacuum_peak_hbar(self):
        basis = BasisParams(hbar=2.0)
        assert wigner_series(FockState(0), 0j, basis=basis) == pytest.approx(1 / (2 * math.pi))

    def test_fock1_negative_origin(self):
        assert wigner_series(FockState(1), 0j) == pytest.approx(-1 / math.pi, rel=1e-14)

    @pytest.mark.parametrize("state", [FockState(3), CoherentState(0.7 - 0.4j)], ids=["fock", "coherent"])
    def test_negative_order_refused(self, state):
        # order=-1 once raised IndexError from inside the walk
        with pytest.raises(ValueError, match=re.escape("truncation order must be non-negative, got -1")):
            wigner_series(state, 0.3 + 0.1j, order=-1)

    def test_matches_fock_closed_form(self):
        rng = np.random.default_rng(RNG_SEED)
        z = rng.uniform(-2.1, 2.1, (2, 100)).view(np.complex128) if False else (
            rng.uniform(0.0, 3.0, 100) * np.exp(1j * rng.uniform(0, 2 * np.pi, 100))
        )
        for n in range(9):
            got = wigner_series(FockState(n), z)
            ref = wigner_closed_fock(n, z)
            assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_matches_buildf_route_standard(self):
        for state in CATALOG:
            for z in (0.4 + 0.3j, 1.9 - 0.8j):
                got = wigner_series(state, z)
                ref = quadratic_form_reference(state, z)
                assert got == pytest.approx(ref, rel=1e-11, abs=1e-14)

    def test_rotational_symmetry_for_fock(self):
        rng = np.random.default_rng(RNG_SEED)
        for n in (1, 3, 6):
            r = rng.uniform(0.2, 3.0, 40)
            th1, th2 = rng.uniform(0, 2 * np.pi, (2, 40))
            w1 = wigner_series(FockState(n), r * np.exp(1j * th1))
            w2 = wigner_series(FockState(n), r * np.exp(1j * th2))
            assert np.max(np.abs(w1 - w2)) <= 1e-11

    def test_global_bound(self):
        rng = np.random.default_rng(RNG_SEED)
        z = rng.uniform(0, 4.0, 300) * np.exp(1j * rng.uniform(0, 2 * np.pi, 300))
        for state in CATALOG:
            w = wigner_series(state, z)
            assert np.max(np.abs(w)) <= 1 / math.pi + 1e-9

    def test_random_scan_is_finite_and_bounded(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        z = rng.uniform(0, 4.0, 500) * np.exp(1j * rng.uniform(0, 2 * np.pi, 500))
        for state in CATALOG:
            w = wigner_series(state, z)
            assert np.all(np.isfinite(w))
            assert np.max(np.abs(w)) <= 1 / math.pi

    @pytest.mark.parametrize("state", [FockState(3), CoherentState(1.0), cat_state(1.1)], ids=["fock", "coherent", "cat"])
    @pytest.mark.parametrize("shape", [(0,), (2, 0)])
    def test_empty_labels_give_empty_values(self, state, shape):
        # a coherent state once raised "attempt to get argmax of an empty sequence"
        out = wigner_series(state, np.zeros(shape, dtype=complex))
        assert isinstance(out, np.ndarray) and out.shape == shape

    @pytest.mark.parametrize("state", [FockState(2), CoherentState(1.0), cat_state(1.1)], ids=["fock", "coherent", "cat"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.5, math.nan), complex(math.inf, 1.0)])
    def test_non_finite_label_refused(self, state, bad):
        # Fock states once returned nan and coherent states raised TruncationError
        with pytest.raises(ValueError, match=re.escape(f"z = {complex(bad):.6g} is not finite")):
            wigner_series(state, bad)
        z = np.array([[0.1, 0.2], [bad, bad]], dtype=complex)
        with pytest.raises(ValueError, match=re.escape(f"z[1, 0] = {complex(bad):.6g} is not finite")):
            wigner_series(state, z)

    def test_scalar_and_array_shapes(self):
        out = wigner_series(FockState(2), 0.5 + 0.5j)
        assert isinstance(out, float)
        grid = np.full((3, 4), 0.5 + 0.5j)
        assert wigner_series(FockState(2), grid).shape == (3, 4)

    def test_exact_degree_superposition_sum(self):
        # interference term of a 2-component Fock superposition, checked
        # against a dense-matrix evaluation
        st = superposition([(1 / math.sqrt(2), FockState(0)), (1j / math.sqrt(2), FockState(1))])
        z = 0.6 - 0.2j
        assert wigner_series(st, z) == pytest.approx(
            quadratic_form_reference(st, z), rel=1e-12
        )


class TestDefaultPathRegressions:
    """Default-path evaluations on the window [-3, 3]^2 that once raised."""

    @staticmethod
    def _window_labels(count):
        qs = np.linspace(-3.0, 3.0, count)
        qq, pp = np.meshgrid(qs, qs, indexing="ij")
        return z_from_qp(qq, pp, BasisParams())

    def test_fock12_on_200_grid_matches_closed_form(self):
        z = self._window_labels(200)
        got = wigner_series(FockState(12), z)
        ref = wigner_closed_fock(12, z)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("count", [60, 61])
    def test_cat_truncation_on_symmetric_grid(self, count):
        # 61 points put one at the origin, where every odd amplitude of the
        # even cat vanishes; 60 points straddle it
        assert certify(cat_state(1.1), self._window_labels(count)) <= ORDER_CAP

    def test_cat_near_origin_matches_config_integral(self):
        basis = BasisParams()
        state = cat_state(1.1)
        for q, p in [(0.0, 0.0), (0.05, -0.05)]:
            got = wigner_series(state, z_from_qp(q, p, basis), basis=basis)
            want = wigner_config_integral(state, q, p, basis)
            assert abs(got - want) * math.pi * basis.hbar <= 1e-6


class TestNumberForm:
    """_number_form, Royer's form at 2z over a polynomial state's own number
    amplitudes, is what wigner_series sums for it, bitwise, and is within
    1e-14 in units of 1/(pi hbar) of 40-digit matrix elements (pair_pi_w)
    at every 97th point of [-3, 3]^2 and of each state's own window. A
    coherent state is summed by its one pair; projected on |0>, ..., |K>
    at choose_truncation's K its number form is within the tolerance of
    that."""

    STATES = {
        **{f"fock{n}": FockState(n) for n in range(13)},
        "sup4": superposition([(0.5, FockState(n)) for n in range(4)]),
        "sparse": superposition([(1.0, FockState(0)), (1j, FockState(5)), (np.exp(0.7j), FockState(12))],
                                normalize=True),
        "dense": superposition([(1.0, FockState(n)) for n in range(13)], normalize=True),
        "coherent": CoherentState(0.7 - 0.4j),
    }

    @staticmethod
    def windows(state):
        yield lattice(-3.0, 3.0, 41, -3.0, 3.0, 41)
        q_lo, q_hi, p_lo, p_hi = state_window(state, BasisParams())
        yield lattice(q_lo, q_hi, 41, p_lo, p_hi, 41)

    @pytest.mark.parametrize("name", STATES)
    def test_against_the_walk_and_mpmath(self, name):
        state = self.STATES[name]
        K = choose_truncation(state, None, POLICY)
        for z in self.windows(state):
            zz = z.ravel()
            got, exact = _number_form(amplitudes(state, K), zz.real, zz.imag), wigner_series(state, z).ravel()
            if exact_degree(state) is None:
                assert np.max(np.abs(got - exact * math.pi)) <= TOL, name
            else:
                assert np.array_equal(got / math.pi, exact)
            for i in range(0, zz.size, 97):
                assert abs(exact[i] * math.pi - pair_pi_w(state, zz[i], 40)) <= 1e-14, (name, zz[i])

    def test_fock_is_the_closed_form(self):
        # the same Laguerre recurrence and the same products, bitwise
        z = lattice(-3.0, 3.0, 41, -3.0, 3.0, 41)
        for n in range(13):
            assert np.array_equal(wigner_series(FockState(n), z), wigner_closed_fock(n, z))

    @pytest.mark.parametrize("K", [0, 4, 11])
    def test_order_below_the_degree_sums_the_first_amplitudes(self, K):
        # below the degree the sum keeps c_k for k <= K: W of the state
        # projected on |0>, ..., |K>, here (K+1)/13 times a normalized one
        dense = self.STATES["dense"]
        head = superposition([(1.0, FockState(n)) for n in range(K + 1)], normalize=True)
        z = lattice(-3.0, 3.0, 21, -3.0, 3.0, 21)
        gap = wigner_series(dense, z, order=K) - (K + 1) / 13 * wigner_series(head, z)
        assert np.max(np.abs(gap)) * math.pi <= 1e-15


class TestSteppedWalk:
    """The paper's form cut at K, conj(c)^T F c with F from build_F and
    c_k = f^(k)(z)/k!, is exactly W at z of the polynomial state g whose
    Bargmann function is f's Taylor polynomial of degree K at z,
    sum_(j<=K) c_j (w - z)^j. _number_form, summed on g's number
    amplitudes, must give it, entry by entry."""

    STATES = [
        CoherentState(0.7 - 0.4j),
        cat_state(1.1),
        superposition([(0.6, FockState(2)), (0.8j, FockState(7))]),
        superposition([(0.6, CoherentState(-0.3 + 1.2j)), (0.8j, FockState(5))], normalize=True),
    ]

    @staticmethod
    def taylor_state(c, z):
        # <m|g> = sqrt(m!) conj(d_m), d_m = sum_j c_j C(j, m) (-z)^(j-m) the
        # monomial coefficients of g, taken in 40-digit arithmetic so that
        # only their last rounding reaches the sum
        mpmath = pytest.importorskip("mpmath")
        K = len(c) - 1
        with mpmath.workdps(40):
            shift = -mpmath.mpc(z)
            d = [sum(mpmath.mpc(c[j]) * math.comb(j, m) * shift ** (j - m) for j in range(m, K + 1))
                 for m in range(K + 1)]
            amplitudes = [complex(mpmath.conj(d[m]) * mpmath.sqrt(math.factorial(m))) for m in range(K + 1)]
        return _unchecked_superposition([(a, FockState(m)) for m, a in enumerate(amplitudes)])

    @pytest.mark.parametrize("state", STATES, ids=["coherent", "cat1.1", "fock-pair", "mixed"])
    @pytest.mark.parametrize("K", [0, 1, 2, 7, 18, 30])
    def test_equals_build_F_form(self, state, K):
        rng = np.random.default_rng(RNG_SEED + K)
        points = [0j] + [complex(*rng.uniform(-2.2, 2.2, 2)) for _ in range(3)]
        for z in points:
            c = derivative_tower(state, z, K) / np.array([math.factorial(k) for k in range(K + 1)])
            terms = np.conj(c)[:, None] * build_F(z, K) * c[None, :]
            gauss = math.exp(-2.0 * abs(z) ** 2)
            got = _number_form(amplitudes(self.taylor_state(c, z), K), np.array([z.real]), np.array([z.imag]))[0]
            assert abs(got - gauss * terms.sum().real) <= 1e-13 * gauss * np.abs(terms).sum(), z


class TestTruncationBound:
    """choose_truncation's certificate against what a cut of Royer's sum
    omits from the exact W, the displaced amplitudes against the paper's
    stack, and windows the exact sum reaches."""

    @staticmethod
    def _window(count):
        qs = np.linspace(-3.0, 3.0, count)
        qq, pp = np.meshgrid(qs, qs, indexing="ij")
        return qq, pp, z_from_qp(qq, pp, BasisParams())

    def test_omitted_part_within_estimate(self):
        # Royer's sum cut at K, Re sum_(k<=K) (-1)^k conj(a_k(0)) a_k(2z),
        # a_k(w) = <k|D(-w)|psi> in 30 digits, omits at most
        # sqrt(<psi|psi> sum_(k>K) |a_k(0)|^2) pi hbar of W, by
        # Cauchy-Schwarz; 1e-15 and K + 1 ulp allow for the roundoff of the
        # sums. Points with |z| < 0.05 are where a cat's odd or even
        # amplitudes nearly vanish.
        rng = np.random.default_rng(RNG_SEED + 3)
        signs = (-1.0) ** np.arange(41)
        for trial in range(15):
            u = complex(*rng.uniform(-1.5, 1.5, 2))
            state = [CoherentState(u), cat_state(u, 1), cat_state(u, -1)][trial % 3]
            z = rng.uniform(0.0, 3.0, 32) * np.exp(1j * rng.uniform(0, 2 * np.pi, 32))
            z[:8] *= 0.05 / 3.0
            exact = wigner_series(state, z) * math.pi
            origin = np.conj(displaced_amplitudes(state, 0j, 40)) * signs
            mass = [abs(overlap(FockState(k), state)) ** 2 for k in range(241)]
            bounds = [math.sqrt(norm_squared(state) * sum(mass[K + 1:K + 201])) for K in range(41)]
            for zi, value in zip(z, exact):
                cut = np.cumsum((origin * displaced_amplitudes(state, 2 * zi, 40)).real)
                for K in range(2, 41):
                    assert abs(cut[K] - value) <= bounds[K] + 1e-15 + (K + 1) * 2.0**-53, (state, zi, K)

    def test_infinite_closure_stays_infinite_where_the_gaussian_underflows(self):
        # at |z| = 45 exp(-2|z - u|^2) underflows to 0: W there is 0, not
        # nan and with no warning, within the tolerance of mpmath
        import warnings

        state = cat_state(1.1)
        z = np.array([0.1, 45.0], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = wigner_series(state, z) * math.pi
        for value, zv in zip(got, z):
            assert abs(value - pair_pi_w(state, zv)) <= TOL

    @pytest.mark.parametrize("state", TestSteppedWalk.STATES, ids=["coherent", "cat1.1", "fock-pair", "mixed"])
    def test_shell_weights_are_those_of_build_F(self, state):
        # the displaced amplitudes are the paper's stack through the
        # factorization N^-1 F N^-1 = exp(|z|^2) B^+ S B of build_F's kernel:
        # a_k = conj(exp(-|z|^2/2) (B V)_k) / sqrt(k!), B_kj = C(k, j) (-conj(z))^(k-j)
        M = 30
        rng = np.random.default_rng(RNG_SEED + 5)
        points = np.array([0j, 4.0 + 0j] + [complex(*rng.uniform(-2.8, 2.8, 2)) for _ in range(4)])
        for z in points:
            amplitudes = displaced_amplitudes(state, z, M)
            V = derivative_tower(state, z, M)
            for k in range(M + 1):
                terms = np.array([math.comb(k, j) * (-np.conj(z)) ** (k - j) * V[j] for j in range(k + 1)])
                scale = math.exp(-abs(z) ** 2 / 2) / math.sqrt(math.factorial(k))
                want = np.conj(terms.sum()) * scale
                assert abs(amplitudes[k] - want) <= 1e-13 * (np.abs(terms).sum() * scale + 1e-300), (state, z, k)

    def test_kernel_factorization(self):
        # N^-1 F N^-1 = exp(|z|^2) B^+ S B, S = diag((-1)^k / k!), k summed to 100
        z, K = 0.6 - 0.35j, 6
        k = np.arange(101)
        B = np.array([[math.comb(int(kk), j) * (-np.conj(z)) ** (kk - j) for j in range(K + 1)] for kk in k])
        S = np.array([(-1.0) ** kk / math.factorial(int(kk)) for kk in k])
        N = np.array([math.factorial(n) for n in range(K + 1)], dtype=float)
        want = math.exp(abs(z) ** 2) * (B.conj().T * S) @ B
        assert np.max(np.abs(build_F(z, K) / np.outer(N, N) - want)) <= 1e-15 * np.max(np.abs(want))

    def test_coherent3_on_window_matches_closed_form(self):
        qq, pp, z = self._window(41)
        basis = BasisParams()
        Q, P = qp_from_z(3.0, basis)
        want = wigner_closed_coherent_gaussian(Q, P, basis.b, qq, pp, basis.hbar)
        got = wigner_series(CoherentState(3.0), z, basis=basis)
        assert np.max(np.abs(got - want)) * math.pi <= 1e-12

    @staticmethod
    def _own_window(state, count=41):
        basis = BasisParams()
        q_lo, q_hi, p_lo, p_hi = state_window(state, basis)
        qq, pp = np.meshgrid(np.linspace(q_lo, q_hi, count), np.linspace(p_lo, p_hi, count), indexing="ij")
        return qq, pp, z_from_qp(qq, pp, basis)

    def test_coherent3_on_its_own_window_matches_closed_form(self):
        # the window validate.state_window gives; the Laguerre-inequality
        # bound raised TruncationError here
        state = CoherentState(3.0)
        qq, pp, z = self._own_window(state)
        basis = BasisParams()
        assert certify(state, z) <= ORDER_CAP
        Q, P = qp_from_z(3.0, basis)
        want = wigner_closed_coherent_gaussian(Q, P, basis.b, qq, pp, basis.hbar)
        got = wigner_series(state, z, basis=basis)
        assert np.max(np.abs(got - want)) * math.pi * basis.hbar <= 1e-12

    def test_cat3_on_its_own_window_matches_mpmath(self):
        state = cat_state(3.0)
        _, _, z = self._own_window(state)
        assert certify(state, z) <= ORDER_CAP
        got = wigner_series(state, z).ravel() * math.pi
        for value, zv in zip(got, z.ravel()):
            assert abs(value - pair_pi_w(state, zv)) <= 1e-12

    def test_coherent40_raises_in_the_origin_frame_only(self):
        # choose_truncation cuts coherent(4) at K = 78; coherent(40) would
        # need K >= 3200, and the error names the state and the order,
        # while the exact sum evaluates it, 0 on this window
        _, _, z = self._window(41)
        assert certify(CoherentState(4.0), z) == 78
        with pytest.raises(TruncationError) as err:
            choose_truncation(CoherentState(40.0), z, TruncationPolicy())
        assert err.value.order == ORDER_CAP
        assert repr(CoherentState(40.0)) in str(err.value) and "K >= 3200" in str(err.value)
        assert np.max(np.abs(wigner_series(CoherentState(40.0), z))) == 0.0


class TestOwnFrame:
    """W is covariant under displacement, W_psi(z) = W_(D(-z0) psi)(z - z0)
    (Cahill and Glauber, Phys. Rev. 177, 1882 (1969)), with
    D(-z0)|U> = exp(i Im(conj(z0) U)) |U - z0>. The pair form takes its
    phases in the frame of the coherent members' mean label, inside one
    call; the values must not show it."""

    @pytest.mark.parametrize("u", [0.7 - 0.4j, 3.0, -2.0j])
    def test_coherent_state_moves_to_its_centre(self, u):
        # |U> is the vacuum moved to U
        z = lattice(-3.0, 3.0, 41, -3.0, 3.0, 41)
        moved = wigner_series(CoherentState(0), z - u) * math.pi
        assert np.max(np.abs(wigner_series(CoherentState(u), z) * math.pi - moved)) <= 1e-15
        assert np.max(np.abs(moved - np.exp(-2 * np.abs(z - u) ** 2))) <= 1e-15

    @pytest.mark.parametrize("state", [
        CoherentState(0),
        FockState(3),
        cat_state(1.1),
        superposition([(0.6, FockState(2)), (0.8j, CoherentState(0.5 - 0.3j))], normalize=True),
    ], ids=["vacuum", "fock3", "cat1.1", "fock-coherent"])
    def test_other_states_keep_the_origin(self, state):
        # states about the origin, at every 13th point of [-3, 3]^2
        z = lattice(-3.0, 3.0, 41, -3.0, 3.0, 41).ravel()[::13]
        for value, zv in zip(wigner_series(state, z) * math.pi, z):
            assert abs(value - pair_pi_w(state, zv)) <= TOL, zv

    def test_coherent_superpositions_move_to_their_mean_label(self):
        # a one-member superposition moved by its label is the vacuum, and
        # |5+5i> + i|6+3i> moved by its mean label z0 a pair at
        # +-(-0.5 + i), each coefficient turned by exp(i Im(conj(z0) U))
        one = superposition([(1.0, CoherentState(0.7 - 0.4j))])
        z = lattice(-3.0, 3.0, 41, -3.0, 3.0, 41)
        gap = wigner_series(one, z) - wigner_series(CoherentState(0), z - (0.7 - 0.4j))
        assert np.max(np.abs(gap)) * math.pi <= 1e-15
        pair = superposition([(1.0, CoherentState(5 + 5j)), (1j, CoherentState(6 + 3j))], normalize=True)
        z0 = 5.5 + 4j
        moved = _unchecked_superposition([(c * np.exp(1j * (z0.conjugate() * m.u).imag), CoherentState(m.u - z0))
                                          for c, m in pair.terms])
        q_lo, q_hi, p_lo, p_hi = state_window(pair, BasisParams())
        z = lattice(q_lo, q_hi, 41, p_lo, p_hi, 41)
        gap = wigner_series(pair, z) - wigner_series(moved, z - z0)
        assert np.max(np.abs(gap)) * math.pi <= 1e-15

    @pytest.mark.parametrize("labels", [(1 + 1j, -1 + 1j), (0.7 - 0.4j,), (2.0, 0.5j, -1.0 - 0.5j)],
                             ids=["pair", "one", "three"])
    def test_mean_frame_agrees_with_the_origin(self, labels):
        # at every 7th point of [-3, 3]^2, against 30-digit mpmath
        state = superposition([(complex(1, k), CoherentState(u)) for k, u in enumerate(labels)], normalize=True)
        z = lattice(-3.0, 3.0, 41, -3.0, 3.0, 41).ravel()[::7]
        for value, zv in zip(wigner_series(state, z) * math.pi, z):
            assert abs(value - pair_pi_w(state, zv)) <= TOL, zv

    def test_off_centre_pair_on_its_own_window(self):
        # |7> + |5>, whose mean label is 6, against 30-digit mpmath at every
        # point; the metadata records no frame, and no order for a state
        # with a coherent member
        state = superposition([(1.0, CoherentState(7.0)), (1.0, CoherentState(5.0))], normalize=True)
        basis = BasisParams()
        q_lo, q_hi, p_lo, p_hi = state_window(state, basis)
        g = evaluate_grid(state, GridAxis(q_lo, q_hi, 41), GridAxis(p_lo, p_hi, 41), basis)
        assert "frame" not in g.metadata and g.metadata["truncation_order"] is None
        z = z_from_qp(g.q_axis.points[:, None], g.p_axis.points[None, :], basis)
        for value, zv in zip(g.values.ravel() * math.pi, z.ravel()):
            assert abs(value - pair_pi_w(state, zv)) <= 1e-12

    def test_vacuum_walks_no_shell(self, monkeypatch):
        # f = 1, so K = 0 is exact; a coherent state, the vacuum among them,
        # sums its one pair and takes no number amplitude
        orders = number_form_calls(monkeypatch)
        z = lattice(-3.0, 3.0, 60, -3.0, 3.0, 60)
        assert choose_truncation(CoherentState(0), z, TruncationPolicy()) == 0
        assert wigner_series(CoherentState(4.0 - 2.0j), z).shape == z.shape
        assert wigner_series(CoherentState(0), z).shape == z.shape
        assert orders == []

    @pytest.mark.parametrize("u", [0.7 - 0.4j, 2.0])
    def test_agrees_with_the_origin_where_it_certifies(self, u):
        # choose_truncation certifies K in the origin frame, and the
        # projection on |0>, ..., |K> is within the tolerance of W
        K = certify(CoherentState(u), lattice(-3.0, 3.0, 60, -3.0, 3.0, 60))
        assert 0 < K <= ORDER_CAP

    def test_order_is_the_order_in_the_frame(self):
        # order projects the state on |0>, ..., |order> in the origin frame:
        # from choose_truncation's K on, within the tolerance of W; past
        # MAX_DEGREE it is refused
        state = CoherentState(0.7 - 0.4j)
        z = lattice(-3.0, 3.0, 60, -3.0, 3.0, 60)
        values = wigner_series(state, z)
        for K in (choose_truncation(state, z, POLICY), 60, 120):
            assert np.max(np.abs(wigner_series(state, z, order=K) - values)) * math.pi <= TOL
        with pytest.raises(ValueError, match=f"limited to {MAX_DEGREE}"):
            wigner_series(state, z, order=MAX_DEGREE + 1)


class TestBlocks:
    """The labels are taken in flat blocks of core.BLOCK_POINTS raveled
    points, so the values do not depend on the block size: a point's value
    does not depend on the length of the array it sits in, length 1
    included."""

    STATES = [CoherentState(0.7 - 0.4j), cat_state(1.1), superposition([(0.5, FockState(n)) for n in range(4)]),
              superposition([(complex(1, k), CoherentState(u)) for k, u in enumerate((2.0, 0.5j, -1.0 - 0.5j))],
                            normalize=True),
              superposition([(0.6, FockState(2)), (0.8j, CoherentState(0.5 - 0.3j))], normalize=True),
              superposition([(1, FockState(0)), (1j, FockState(1)), (1 - 1j, FockState(3)), (0.5 + 2j, FockState(6))],
                            normalize=True)]
    IDS = ["coherent", "cat1.1", "sup4", "three-coherent", "fock-coherent", "complex-fock"]

    @staticmethod
    def one_block(monkeypatch, state, z, order=None):
        with monkeypatch.context() as patch:
            patch.setattr(core, "BLOCK_POINTS", z.size)
            return wigner_series(state, z, order=order)

    @pytest.mark.parametrize("state", STATES, ids=IDS)
    def test_last_block_of_one_point(self, state, monkeypatch):
        rng = np.random.default_rng(RNG_SEED)
        z = rng.uniform(-2.0, 2.0, 4097) + 1j * rng.uniform(-2.0, 2.0, 4097)
        assert core.BLOCK_POINTS == 4096
        assert np.array_equal(wigner_series(state, z), self.one_block(monkeypatch, state, z))

    @pytest.mark.parametrize("state", STATES, ids=IDS)
    def test_blocks_of_one_point(self, state, monkeypatch):
        # the exact sum, and the projection on choose_truncation's K orders
        z = lattice(-3.0, 3.0, 9, -3.0, 3.0, 7).ravel()
        K = choose_truncation(state, z, TruncationPolicy())
        monkeypatch.setattr(core, "BLOCK_POINTS", 1)
        for order in (None, K):
            blocked = wigner_series(state, z, order=order)
            assert np.array_equal(blocked, self.one_block(monkeypatch, state, z, order=order))

    def test_traced_peak_of_200_squared_labels(self):
        # scattered labels: the bound a grid had while it built its label
        # lattice, the labels and values, 24 bytes a point, and one block of
        # the deleted derivative-stack walk, 3(K+1) + 24 doubles a point at
        # the walk's K = 21 for cat(1.1); the pair form of a cat keeps 16
        import tracemalloc

        state = cat_state(1.1)
        z = lattice(-3.0, 3.0, 200, -3.0, 3.0, 200).ravel()
        K = 21
        tracemalloc.start()
        try:
            wigner_series(state, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 24 * z.size + 8 * (3 * (K + 1) + 24) * 4096
        assert peak < bound, (peak, bound)


class TestLargeExplicitOrder:
    """An explicit order far above what a state needs once gave nan with no
    error at large |z|: the n!-scaled kernel values overflow to inf and
    multiply Taylor coefficients that are exactly 0."""

    @pytest.mark.parametrize("state, z", [
        (FockState(0), [8, 20]),
        (CoherentState(3), [11, 23]),
        (FockState(3), [0.5 - 0.2j, 4, 30]),
    ], ids=["fock0", "coherent3", "fock3"])
    def test_polynomial_state_walks_to_its_degree(self, state, z):
        # a polynomial state stops at its degree, exactly; coherent(3) sums
        # its projection on |0>, ..., |170>, within the tolerance of W
        z = np.array(z, dtype=complex)
        got = wigner_series(state, z, order=170)
        assert np.all(np.isfinite(got))
        if exact_degree(state) is None:
            assert np.max(np.abs(got - wigner_series(state, z))) * math.pi <= TOL
        else:
            assert np.array_equal(got, wigner_series(state, z))

    def test_non_finite_value_names_label_order_and_value(self):
        # the number form stays finite at any order, also where the Gaussian
        # underflows, at every offset; 1/(pi hbar) itself overflows at
        # hbar = 1e-310
        assert np.all(np.isfinite(wigner_series(cat_state(1.1), np.array([3.5, 6, 11, 23]), order=170)))
        dense = superposition([(1.0, FockState(n)) for n in range(13)], normalize=True)
        for state in (FockState(12), dense):
            with np.errstate(over="ignore"):  # |z|^2 overflows at 1e200 and 2z at 1.5e308
                far = wigner_series(state, np.array([1e30, -1e30j, 45.0, 1e200, -1.5e308j]))
            assert np.array_equal(far, np.zeros(5))
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match=re.escape("at z = 0+0j is inf at truncation order K = 12")):
                wigner_series(FockState(12), np.array([11, 0, 30]), basis=BasisParams(hbar=1e-310))


class TestFloat64FactorialLimit:
    """Polynomial states are summed to degree MAX_DEGREE = 300: past it
    L_N(4|z|^2) overflows float64 before exp(-2|z|^2) underflows."""

    def test_fock170_evaluates(self):
        got = wigner_series(FockState(170), 0.5)
        assert abs(got - wigner_closed_fock(170, 0.5)) <= 1e-9

    def test_fock150_matches_mpmath(self):
        # Royer's form at 2z; the derivative-stack sum gave pi W = 0.602 here
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(80):
            want = float(mpmath.exp(-8) * mpmath.laguerre(150, 0, 16))
        assert abs(wigner_series(FockState(150), 2.0) * math.pi - want) <= 1e-14

    def test_fock300_on_its_own_window_matches_mpmath(self):
        # a 41^2 grid over 6 widths reaches |z| = 104, far past where the
        # Gaussian underflows (|z| near 19.3): every 37th point, and every
        # point with |z| <= 20, against 300-digit Laguerre values
        mpmath = pytest.importorskip("mpmath")
        state = FockState(MAX_DEGREE)
        q_lo, q_hi, p_lo, p_hi = state_window(state, BasisParams())
        z = lattice(q_lo, q_hi, 41, p_lo, p_hi, 41).ravel()
        got = wigner_series(state, z) * math.pi
        assert np.all(np.isfinite(got))
        sample = set(range(0, z.size, 37)) | set(np.flatnonzero(np.abs(z) <= 20.0).tolist())
        with mpmath.workdps(300):
            for i in sorted(sample):
                x = 4 * abs(mpmath.mpc(z[i])) ** 2
                want = float(mpmath.exp(-x / 2) * mpmath.laguerre(MAX_DEGREE, 0, x))
                assert abs(got[i] - want) <= 1e-14, z[i]

    def test_fock301_names_state_and_limit(self):
        with pytest.raises(ValueError) as err:
            wigner_series(FockState(MAX_DEGREE + 1), 0.5)
        message = str(err.value)
        for part in ("FockState(n=301)", "Fock degree 301", "limited to 300"):
            assert part in message

    def test_closed_form_refuses_fock301_as_the_series_does(self):
        # the closed form once had no limit: fock(400) gave nan from |z| = 19
        with pytest.raises(ValueError) as series:
            wigner_series(FockState(MAX_DEGREE + 1), 0.5)
        with pytest.raises(ValueError) as closed:
            wigner_closed_fock(MAX_DEGREE + 1, 0.5)
        assert str(closed.value) == str(series.value)

    @pytest.mark.parametrize("state", [FockState(301), FockState(400),
                                       superposition([(0.6, FockState(301)), (0.8, CoherentState(0.5))])],
                             ids=["fock301", "fock400", "mixture"])
    @pytest.mark.parametrize("route", [
        lambda state: bargmann(state, 20.0),
        lambda state: derivative_tower(state, 0.5, 310),
        lambda state: evaluate_grid(state, GridAxis(-1, 1, 3), GridAxis(-1, 1, 3), BasisParams(),
                                    method="phase-integral"),
    ], ids=["bargmann", "derivative_tower", "phase-integral"])
    def test_bargmann_function_refuses_past_the_limit_as_the_series_does(self, route, state):
        # the Bargmann function once had no limit: bargmann(fock(400), 20)
        # was 0j (true 1.02e86), derivative_tower(fock(310)) raised a bare
        # OverflowError, and the phase oracle wrote -2e-131 for fock(301)
        # and 0.0 for fock(400), where W(0, 0) = -1/pi and 1/pi
        with pytest.raises(ValueError) as series:
            wigner_series(state, 0.5)
        with pytest.raises(ValueError) as route_error:
            route(state)
        assert str(route_error.value) == str(series.value)


class TestNearOrigin:
    """High Fock degrees near the origin, where the upward three-term
    Laguerre recurrence lost up to 1e-12 and the difference form keeps full
    precision: pi hbar W against 100-digit mpmath."""

    @pytest.mark.parametrize("N", [100, 170, 200, 250, MAX_DEGREE])
    def test_high_fock_against_mpmath(self, N):
        mpmath = pytest.importorskip("mpmath")
        z = np.array([r * np.exp(1j * phase) for r in (0.005, 0.02, 0.1, 0.5) for phase in (0.3, 1.9, 4.4)])
        got = wigner_series(FockState(N), z) * math.pi
        with mpmath.workdps(100):
            for value, zv in zip(got, z):
                x = 4 * abs(mpmath.mpc(zv)) ** 2
                want = (-1) ** N * mpmath.exp(-x / 2) * mpmath.laguerre(N, 0, x)
                assert abs(value - want) <= 1e-15, zv


class TestNumberAmplitudesOnce:
    """An evaluation takes the number amplitudes <k|.> once, K + 1 overlaps,
    however many blocks it sums."""

    @pytest.mark.parametrize("state, order, K", [
        (FockState(6), None, 6),
        (superposition([(0.5, FockState(n)) for n in range(4)]), None, 3),
        (superposition([(1.0, FockState(5)), (1.0, CoherentState(2 - 1j))], normalize=True), None, 5),
        (cat_state(1.1), None, -1),
        (CoherentState(0.7 - 0.4j), 23, 23),
    ], ids=["fock6", "sup4", "fock5+coherent", "cat1.1", "coherent-order23"])
    def test_overlaps_per_evaluation(self, state, order, K, monkeypatch):
        calls = []
        overlap_of = core.overlap
        monkeypatch.setattr(core, "overlap", lambda *args: calls.append(args) or overlap_of(*args))
        monkeypatch.setattr(core, "BLOCK_POINTS", 7)
        z = lattice(-3.0, 3.0, 9, -3.0, 3.0, 7)
        wigner_series(state, z, order=order)
        assert len(calls) == K + 1
        wigner_series(state, z, order=order)
        assert len(calls) == 2 * (K + 1)


class TestFarLabels:
    """Where every Gaussian of a state underflows W is 0, with no nan and no
    floating-point warning, up to the float64 limit."""

    STATES = {
        "cat1.1": cat_state(1.1),
        "fock5+coherent": superposition([(1.0, FockState(5)), (1.0, CoherentState(2 - 1j))], normalize=True),
        "fock5": FockState(5),
        "coherent": CoherentState(2 - 1j),
    }

    @pytest.mark.parametrize("name", STATES)
    @pytest.mark.parametrize("z", [-1.5e308j, 1e200, 1.7e308 - 1.7e308j], ids=["-1.5e308j", "1e200", "corner"])
    def test_zero_with_no_warning(self, name, z):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = self.STATES[name]
            assert wigner_series(state, z) == 0.0
            both = wigner_series(state, np.array([z, 0.3 - 0.2j]))
            assert np.array_equal(both, [0.0, wigner_series(state, 0.3 - 0.2j)])


class TestExactPairSum:
    """The pair form needs no order, so states whose cut would pass
    ORDER_CAP evaluate, and every state meets mpmath's pair sum on its own
    window (validate.state_window, 41^2), in units of 1/(pi hbar)."""

    @staticmethod
    def own_window(state):
        q_lo, q_hi, p_lo, p_hi = state_window(state, BasisParams())
        return lattice(q_lo, q_hi, 41, p_lo, p_hi, 41).ravel()

    @pytest.mark.parametrize("sign", [1, -1], ids=["even", "odd"])
    def test_cat15_on_its_own_window(self, sign):
        # its cut needs K >= 450, past the cap, and raised TruncationError;
        # every point against 50 digits
        state = cat_state(15.0, sign)
        with pytest.raises(TruncationError):
            choose_truncation(state, None, POLICY)
        z = self.own_window(state)
        for value, zv in zip(wigner_series(state, z) * math.pi, z):
            assert abs(value - pair_pi_w(state, zv, 50)) <= 1e-14, zv

    STATES = {
        "fock7+fock5": superposition([(1.0, FockState(7)), (1.0, FockState(5))], normalize=True),
        "coherent7+coherent5": superposition([(1.0, CoherentState(7.0)), (1.0, CoherentState(5.0))], normalize=True),
        "cat4": cat_state(4.0),
        "coherent6": CoherentState(6.0),
        "coherent9-7i": CoherentState(9 - 7j),
        "3-fold-4": superposition([(1.0, CoherentState(4 * np.exp(2j * np.pi * k / 3))) for k in range(3)],
                                  normalize=True),
        "5-fold-4": superposition([(1.0, CoherentState(4 * np.exp(2j * np.pi * k / 5))) for k in range(5)],
                                  normalize=True),
        "5+5i,i(6+3i)": superposition([(1.0, CoherentState(5 + 5j)), (1j, CoherentState(6 + 3j))], normalize=True),
        "mixture": superposition([(1.0, FockState(5)), (0.5, CoherentState(2 - 1j)), (0.3j, FockState(0))],
                                 normalize=True),
    }

    @pytest.mark.parametrize("name", STATES)
    def test_own_window_against_mpmath(self, name):
        # every 7th point against 30 digits
        state = self.STATES[name]
        z = self.own_window(state)[::7]
        for value, zv in zip(wigner_series(state, z) * math.pi, z):
            assert abs(value - pair_pi_w(state, zv)) <= 1.5e-15, (name, zv)

    def test_fock300_with_a_far_coherent_member(self):
        # the state could not be built while <300|17.3> overflowed; every 7th
        # point against 60 digits (over all 41^2 points the largest gap is
        # 1.75e-15, at z = 3.68+7.35i, where fock(300) alone is 3.1e-16 off)
        state = superposition([(1.0, FockState(300)), (1.0, CoherentState(17.3))], normalize=True)
        z = self.own_window(state)[::7]
        for value, zv in zip(wigner_series(state, z) * math.pi, z):
            assert abs(value - pair_pi_w(state, zv, 60)) <= 2e-15, zv


class TestComplexSuperpositions:
    """Superpositions with complex coefficients against the configuration
    integral, which reads the state through psi(y) and shares no Bargmann
    arithmetic with the series. f is antilinear in the state, so a tower
    that combined its members with c instead of conj(c) gives W(q, -p)."""

    STATES = {
        "fock-pair": superposition([(1 / math.sqrt(2), FockState(0)), (1j / math.sqrt(2), FockState(1))]),
        "fock-pair-phase": superposition(
            [(0.6, FockState(2)), (0.8 * np.exp(0.7j), FockState(5))]
        ),
        "coherent-pair": superposition(
            [(1.0, CoherentState(0.8 - 0.3j)), (1j, CoherentState(-0.5 + 0.9j))], normalize=True
        ),
    }

    @pytest.mark.parametrize("name", sorted(STATES))
    def test_series_matches_config_integral(self, name):
        state = self.STATES[name]
        basis = BasisParams()
        for q, p in [(0.5, 0.7), (-0.9, 0.4), (1.3, -1.1)]:
            got = wigner_series(state, z_from_qp(q, p, basis), basis=basis)
            want = wigner_config_integral(state, q, p, basis)
            assert abs(got - want) * math.pi * basis.hbar <= 1e-7


class TestStandardKernelBeyondTwo:
    """The series on 2 < |z| <= 4, where the form cancels most on the
    catalog; errors in units of 1/(pi hbar)."""

    @staticmethod
    def _labels(count=200):
        rng = np.random.default_rng(RNG_SEED + 2)
        z = rng.uniform(2.0, 4.0, count) * np.exp(1j * rng.uniform(0, 2 * np.pi, count))
        z[0] = 4.0
        return z

    @pytest.mark.parametrize("n", range(13))
    def test_fock_matches_closed_form(self, n):
        z = self._labels()
        err = np.max(np.abs(wigner_series(FockState(n), z) - wigner_closed_fock(n, z))) * math.pi
        assert err <= 1e-13

    def test_coherent_matches_closed_form(self):
        u = 0.7 - 0.4j
        basis = BasisParams()
        Q, P = qp_from_z(u, basis)
        z = self._labels()
        q, p = qp_from_z(z, basis)
        want = wigner_closed_coherent_gaussian(Q, P, basis.b, q, p, basis.hbar)
        err = np.max(np.abs(wigner_series(CoherentState(u), z, basis=basis) - want)) * math.pi
        assert err <= 1e-13

    def test_cat_matches_mpmath_displaced_parity(self):
        mpmath = pytest.importorskip("mpmath")
        u = 1.1
        z = self._labels(24)
        got = wigner_series(cat_state(u), z) * math.pi
        with mpmath.workdps(30):
            U = mpmath.mpf(u)
            norm = 1 / mpmath.sqrt(2 + 2 * mpmath.exp(-2 * U * U))
            for value, zv in zip(got, z):
                w = 2 * mpmath.mpc(zv.real, zv.imag)
                # pi W = exp(-2|z|^2) sum_s (-1)^s |f^(s)(2z)|^2 / s!
                total, s = mpmath.mpf(0), 0
                while True:
                    deriv = norm * mpmath.exp(-U * U / 2) * (U**s * mpmath.exp(U * w) + (-U) ** s * mpmath.exp(-U * w))
                    term = abs(deriv) ** 2 / mpmath.factorial(s)
                    total += -term if s % 2 else term
                    if s > 2 * u * abs(w) and term < mpmath.mpf(10) ** -30 * (1 + abs(total)):
                        break
                    s += 1
                want = float(mpmath.exp(-2 * abs(w / 2) ** 2) * total)
                assert abs(value - want) <= 1e-13


class TestClosedForms:
    def test_fock_peak_values(self):
        assert wigner_closed_fock(0, 0j) == pytest.approx(1 / math.pi)
        assert wigner_closed_fock(2, 0j) == pytest.approx(1 / math.pi)

    def test_fock1_zero_crossing(self):
        z = 0.5  # 4|z|^2 = 1, the L1 root
        assert wigner_closed_fock(1, z + 0j) == pytest.approx(0.0, abs=1e-16)

    @pytest.mark.parametrize("N", [140, 200, 300])
    def test_fock_past_the_gaussian_underflow(self, N):
        # L_N(4|z|^2) overflowed where exp(-2|z|^2) is 0, to give nan from
        # |z| = 45.4, 26.2 and 19.5; W is 0 there, as the series gives it
        r = np.linspace(0.0, 60.0, 1201)
        z = np.concatenate([r, r * np.exp(0.7j), r * np.exp(2.2j)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            closed = wigner_closed_fock(N, z)
            assert wigner_closed_fock(N, 60.0) == 0.0
        assert np.all(np.isfinite(closed))
        assert np.array_equal(closed, wigner_series(FockState(N), z))

    def test_gaussian_peak_and_width(self):
        assert wigner_closed_coherent_gaussian(0.7, -0.4, 1.5, 0.7, -0.4) == pytest.approx(1 / math.pi)
        got = wigner_closed_coherent_gaussian(0.7, -0.4, 1.5, 0.7 + 1.5, -0.4)
        assert got == pytest.approx(math.exp(-1) / math.pi)

    def test_gaussian_integrates_to_one(self):
        x, w = np.polynomial.legendre.leggauss(200)
        q = 0.7 + 12.0 * x
        p = -0.4 + 12.0 * x
        qq, pp = np.meshgrid(q, p, indexing="ij")
        vals = wigner_closed_coherent_gaussian(0.7, -0.4, 1.5, qq, pp)
        integral = (12.0 * w) @ vals @ (12.0 * w)
        assert integral == pytest.approx(1.0, abs=1e-8)

    def test_crossb_reduces_at_equal_widths(self):
        basis = BasisParams(b=1.5)
        U = 0.5 - 0.1j
        for z in (0.3 + 0.4j, -1.0 + 0.2j):
            got = wigner_closed_coherent_crossb(U, 1.5, z, basis)
            want = math.exp(-2 * abs(z - U) ** 2) / math.pi
            assert got == pytest.approx(want, rel=1e-13)

    def test_crossb_matches_gaussian_grid(self):
        Q, P, B = 0.7, -0.4, 1.5
        hbar = 1.0
        U = z_from_qp(Q, P, BasisParams(B, hbar))
        basis = BasisParams(1.0, hbar)
        qs = np.linspace(-2, 2, 11)
        qq, pp = np.meshgrid(qs, qs, indexing="ij")
        z = z_from_qp(qq, pp, basis)
        got = wigner_closed_coherent_crossb(U, B, z, basis)
        want = wigner_closed_coherent_gaussian(Q, P, B, qq, pp, hbar)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-10

    def test_crossb_is_basis_independent(self):
        Q, P, B = 0.7, -0.4, 1.5
        U = z_from_qp(Q, P, BasisParams(B))
        for q, p in [(1.0, 1.0), (-0.3, 2.1)]:
            w1 = wigner_closed_coherent_crossb(U, B, z_from_qp(q, p, BasisParams(1.0)), BasisParams(1.0))
            w2 = wigner_closed_coherent_crossb(U, B, z_from_qp(q, p, BasisParams(2.0)), BasisParams(2.0))
            assert abs(w1 - w2) <= 1e-12

    def test_series_matches_gaussian_for_coherent(self):
        u = 0.7 - 0.4j
        basis = BasisParams()
        Q, P = qp_from_z(u, basis)
        qs = np.linspace(-2.5, 2.5, 9)
        qq, pp = np.meshgrid(qs, qs, indexing="ij")
        z = z_from_qp(qq, pp, basis)
        got = wigner_series(CoherentState(u), z, basis=basis)
        want = wigner_closed_coherent_gaussian(Q, P, basis.b, qq, pp, basis.hbar)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            wigner_closed_fock(-1, 0j)
        with pytest.raises(ValueError):
            wigner_closed_coherent_gaussian(0, 0, -1.0, 0, 0)
        with pytest.raises(ValueError):
            wigner_closed_coherent_crossb(0j, 0.0, 0j, BasisParams())
