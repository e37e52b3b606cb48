import dataclasses
import math
import re

import numpy as np
import pytest

from bargwig import core
from bargwig.core import (
    ORDER_CAP,
    WALK_DEGREE,
    _own_frame,
    _royer_form,
    _series_sum,
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
from bargwig.states import (CoherentState, FockState, Superposition, _displaced, _terms, cat_state, derivative_tower,
                            norm_squared, superposition)
from bargwig.validate import state_window

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
        assert TruncationPolicy().tail_tolerance == 1e-14 and ORDER_CAP == 400 and WALK_DEGREE == 12

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
        # frozen once computed, in the origin frame; in its own frame a bare
        # coherent state is the vacuum, K = 0, and a cat keeps the origin
        for state, K in [(CoherentState(1.0), 26), (CoherentState(1.5), 34), (CoherentState(0.7 - 0.4j), 23),
                         (cat_state(1.1), 28), (cat_state(1.2), 30), (cat_state(4.0), 78)]:
            assert certify(state, np.array([1.0 + 0j, 2.5j]), frame=False) == K, state
        assert certify(CoherentState(1.5), np.array([2.5j])) == 0
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


def origin_sum(state, z, K=None):
    """pi hbar W at z by Royer's sum in the origin frame, the frame
    choose_truncation works in (wigner_series moves a state whose members
    are all coherent to its own): to K, or else to choose_truncation's."""
    z = np.asarray(z, dtype=complex)
    K = choose_truncation(state, z, POLICY) if K is None else K
    return _royer_form(state, z.ravel(), K).reshape(z.shape)


def origin_tail(state, K, extra=200):
    """sum_(K<k<=K+extra) |a_k(0)|^2 = |<k|psi>|^2, summed term by term."""
    amplitudes = zip(_displaced(_terms(state), np.zeros(1, dtype=complex)), range(K + extra + 1))
    return sum(abs(a[0]) ** 2 for a, k in amplitudes if k > K)


def certify(state, z, frame=True):
    """choose_truncation's K for state in the frame wigner_series sums it
    in (_own_frame), or as given, checked on the labels z: K is the same on
    any labels, its certificate sqrt(<psi|psi> sum_(k>K) |a_k(0)|^2)
    bounds what the sum omits by the tolerance, and the values at K are
    within the tolerance of the sum 40 orders on at every point."""
    framed = _own_frame(state)[0] if frame else state
    K = choose_truncation(framed, z, POLICY)
    for labels in (np.ravel(z)[::-1], np.array([0j]), None):
        assert choose_truncation(framed, labels, POLICY) == K
    assert math.sqrt(norm_squared(state) * origin_tail(framed, K)) <= TOL, (state, K)
    if frame:
        values, further = (wigner_series(state, z, order=order) * math.pi for order in (K, K + 40))
        assert np.array_equal(values, wigner_series(state, z) * math.pi)
    else:
        values, further = origin_sum(state, z, K), origin_sum(state, z, K + 40)
    assert np.max(np.abs(values - further)) <= TOL, state
    return K


def count_orders(monkeypatch):
    """The list of the orders each states._displaced call of core yields,
    one entry per call, for the rest of the test."""
    calls = []

    def recording(terms, z):
        calls.append(0)
        for a in _displaced(terms, z):
            calls[-1] += 1
            yield a

    monkeypatch.setattr(core, "_displaced", recording)
    return calls


def coherent_pi_w(state, z, dps=30):
    """pi hbar W of a superposition sum_i c_i |u_i> of coherent states at z,
    sum_(i,j) c_i conj(c_j) <u_j|u_i> exp(-2 (z - u_i)(conj(z) - conj(u_j))),
    in dps digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        terms = [(mpmath.mpc(c.real, c.imag), mpmath.mpc(m.u.real, m.u.imag)) for c, m in _terms(state)]
        w = mpmath.mpc(z.real, z.imag)
        return float(mpmath.fsum(
            ci * mpmath.conj(cj)
            * mpmath.exp(mpmath.conj(uj) * ui - (abs(ui) ** 2 + abs(uj) ** 2) / 2)
            * mpmath.exp(-2 * (w - ui) * mpmath.conj(w - uj))
            for ci, ui in terms for cj, uj in terms
        ).real)


class TestEdgeScan:
    """choose_truncation once bounded the tail on a sample, its largest |f|
    sought on a lattice's edge. Now K is the state's alone, so a lattice,
    its ravel and its transpose give one K, and every point meets the
    certificate (certify)."""

    @pytest.mark.parametrize("count", [41, 60, 61, 200])
    @pytest.mark.parametrize("state", [CoherentState(0.7 - 0.4j), cat_state(1.1)], ids=["coherent", "cat1.1"])
    def test_catalog_windows(self, state, count):
        z = lattice(-3.0, 3.0, count, -3.0, 3.0, count)
        for frame in (True, False):
            K = certify(state, z, frame)
            framed = _own_frame(state)[0] if frame else state
            assert choose_truncation(framed, z.ravel(), POLICY) == K
            assert choose_truncation(framed, z.T, POLICY) == K

    def test_random_superpositions_on_random_lattices(self):
        for state, z in random_superpositions_on_lattices(30):
            for frame in (True, False):
                K = certify(state, z, frame)
                assert choose_truncation(_own_frame(state)[0] if frame else state, z.T, POLICY) == K


class TestTwoTrySearch:
    """The shell walk tried its closure at shell 32, then at the cap, 64.
    Royer's sum is cut once per state; the cases on which the two tries
    were checked are restated against its certificate (certify)."""

    @pytest.mark.parametrize("count", [41, 60, 61, 200])
    @pytest.mark.parametrize("state", [CoherentState(0.7 - 0.4j), cat_state(1.1)], ids=["coherent", "cat1.1"])
    def test_catalog_lattices(self, state, count):
        certify(state, lattice(-3.0, 3.0, count, -3.0, 3.0, count))

    @pytest.mark.parametrize("u, extent", [(0.3, 3.0), (1.0, 3.0), (2.0, 3.0), (3.0, 3.0), (2.5, 6.0), (3.0, 6.0)])
    def test_coherent_windows(self, u, extent):
        # in the origin frame, where K > 0, against exp(-2|z - u|^2)
        z = lattice(-extent, extent, 60, -extent, extent, 60)
        K = certify(CoherentState(u), z, frame=False)
        assert np.max(np.abs(origin_sum(CoherentState(u), z, K) - np.exp(-2 * np.abs(z - u) ** 2))) <= TOL

    def test_random_superpositions(self):
        for state, z in random_superpositions_on_lattices(30):
            certify(state, z)

    @pytest.mark.parametrize("beta", [2.0, 2.5, 3.0])
    def test_weak_far_member(self, beta):
        # in the origin frame a weak member far out sets K, which falls with
        # its weight
        z = lattice(-3.0, 3.0, 60, -3.0, 3.0, 60)
        orders = []
        for w in 10.0 ** -np.arange(1, 7):
            state = superposition([(1.0, CoherentState(0.2)), (w, CoherentState(beta + 0.5j))], normalize=True)
            orders.append(certify(state, z, frame=False))
        assert orders == sorted(orders, reverse=True) and orders[-1] < orders[0]

    def test_second_try_is_only_paid_past_half_the_cap(self, monkeypatch):
        # no order is summed twice: one pass of K + 1 amplitudes a block, the
        # origin's among them, for K = 28 (cat(1.1)) and K = 59 (coherent(3)
        # in the origin frame); choose_truncation takes none of them
        calls = count_orders(monkeypatch)
        z = lattice(-3.0, 3.0, 60, -3.0, 3.0, 60)
        assert choose_truncation(cat_state(1.1), z, TruncationPolicy()) == 28 and calls == []
        wigner_series(cat_state(1.1), z)
        assert calls == [29]
        calls.clear()
        origin_sum(CoherentState(3.0), z)
        assert calls == [60]
        calls.clear()
        wigner_series(cat_state(1.1), lattice(-3.0, 3.0, 200, -3.0, 3.0, 200))
        assert calls == [29] * 10

    # the ids keep the orders the shell walk took at z = 0 (None: it raised)
    @pytest.mark.parametrize("p, beta", [(3, 2.0), (4, 2.0), (4, 3.0), (3, 4.0)],
                             ids=["3-2.0-24", "4-2.0-None", "4-3.0-None", "3-4.0-30"])
    def test_sparse_taylor_stack(self, p, beta):
        # at the centre of a p-fold symmetric superposition a_k vanishes
        # unless p divides k, which fooled the walk's pair-sum closure; the
        # mass left sees every order
        w = np.exp(2j * np.pi / p)
        state = superposition([(1.0, CoherentState(beta * w**k)) for k in range(p)], normalize=True)
        z = np.array([0j])
        certify(state, z)
        assert abs(wigner_series(state, z)[0] * math.pi - coherent_pi_w(state, 0j)) <= TOL

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
        # K is the state's, whatever the window, in either frame
        z = lattice(*window)
        for state in (CoherentState(0.7 - 0.4j), cat_state(1.1), CoherentState(-0.2 + 1.5j)):
            for frame in (True, False):
                K = certify(state, z, frame)
                assert choose_truncation(_own_frame(state)[0] if frame else state, z.ravel()[::-1], POLICY) == K


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


class TestSteppedWalk:
    """_series_sum steps the kernel in its Laguerre index; the form must be
    conj(c)^T F c with F from build_F, entry by entry."""

    STATES = [
        CoherentState(0.7 - 0.4j),
        cat_state(1.1),
        superposition([(0.6, FockState(2)), (0.8j, FockState(7))]),
        superposition([(0.6, CoherentState(-0.3 + 1.2j)), (0.8j, FockState(5))], normalize=True),
    ]

    @pytest.mark.parametrize("state", STATES, ids=["coherent", "cat1.1", "fock-pair", "mixed"])
    @pytest.mark.parametrize("K", [0, 1, 2, 7, 18, 30])
    def test_equals_build_F_form(self, state, K):
        rng = np.random.default_rng(RNG_SEED + K)
        points = [0j] + [complex(*rng.uniform(-2.2, 2.2, 2)) for _ in range(3)]
        walk = _series_sum(state, np.array(points), K)
        for z, got in zip(points, walk):
            c = derivative_tower(state, z, K) / np.array([math.factorial(k) for k in range(K + 1)])
            terms = np.conj(c)[:, None] * build_F(z, K) * c[None, :]
            assert abs(got - terms.sum().real) <= 1e-13 * np.abs(terms).sum()


class TestTruncationBound:
    """The certificate of Royer's sum against the true omitted part, the
    amplitudes against the paper's stack, and windows the sum reaches."""

    @staticmethod
    def _window(count):
        qs = np.linspace(-3.0, 3.0, count)
        qq, pp = np.meshgrid(qs, qs, indexing="ij")
        return qq, pp, z_from_qp(qq, pp, BasisParams())

    def test_omitted_part_within_estimate(self):
        # |W_K - W_80| pi hbar <= sqrt(<psi|psi> sum_(k>K) |a_k(0)|^2), by
        # Cauchy-Schwarz; 1e-15 and K + 1 ulp allow for the roundoff of the
        # sums. Points with |z| < 0.05 are where a cat's odd or even
        # amplitudes nearly vanish.
        rng = np.random.default_rng(RNG_SEED + 3)
        for trial in range(15):
            u = complex(*rng.uniform(-1.5, 1.5, 2))
            state = [CoherentState(u), cat_state(u, 1), cat_state(u, -1)][trial % 3]
            z = rng.uniform(0.0, 3.0, 32) * np.exp(1j * rng.uniform(0, 2 * np.pi, 32))
            z[:8] *= 0.05 / 3.0
            ref = origin_sum(state, z, 80)
            for K in range(2, 41):
                omitted = np.abs(origin_sum(state, z, K) - ref)
                bound = math.sqrt(norm_squared(state) * origin_tail(state, K))
                assert np.all(omitted <= bound + 1e-15 + (K + 1) * 2.0**-53), (state, K)

    def test_infinite_closure_stays_infinite_where_the_gaussian_underflows(self):
        # at |z| = 45 exp(-|u - 2z|^2 / 2) underflows to 0: the amplitudes
        # there are 0, not nan and with no warning, and so is W, within the
        # tolerance of its closed form
        import warnings

        state = cat_state(1.1)
        z = np.array([0.1, 45.0], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = wigner_series(state, z) * math.pi
        for value, zv in zip(got, z):
            assert abs(value - coherent_pi_w(state, zv)) <= TOL

    @pytest.mark.parametrize("state", TestSteppedWalk.STATES, ids=["coherent", "cat1.1", "fock-pair", "mixed"])
    def test_shell_weights_are_those_of_build_F(self, state):
        # the amplitudes are the paper's stack through the factorization
        # N^-1 F N^-1 = exp(|z|^2) B^+ S B of build_F's kernel:
        # a_k = conj(exp(-|z|^2/2) (B V)_k) / sqrt(k!), B_kj = C(k, j) (-conj(z))^(k-j)
        M = 30
        rng = np.random.default_rng(RNG_SEED + 5)
        points = np.array([0j, 4.0 + 0j] + [complex(*rng.uniform(-2.8, 2.8, 2)) for _ in range(4)])
        amplitudes = np.array([a for a, _ in zip(_displaced(_terms(state), points), range(M + 1))])
        for i, z in enumerate(points):
            V = derivative_tower(state, z, M)
            for k in range(M + 1):
                terms = np.array([math.comb(k, j) * (-np.conj(z)) ** (k - j) * V[j] for j in range(k + 1)])
                scale = math.exp(-abs(z) ** 2 / 2) / math.sqrt(math.factorial(k))
                want = np.conj(terms.sum()) * scale
                assert abs(amplitudes[k, i] - want) <= 1e-13 * (np.abs(terms).sum() * scale + 1e-300), (state, z, k)

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
        assert certify(state, z) == 0 and certify(state, z, frame=False) <= ORDER_CAP
        Q, P = qp_from_z(3.0, basis)
        want = wigner_closed_coherent_gaussian(Q, P, basis.b, qq, pp, basis.hbar)
        got = wigner_series(state, z, basis=basis)
        assert np.max(np.abs(got - want)) * math.pi * basis.hbar <= 1e-12

    def test_cat3_on_its_own_window_matches_mpmath(self):
        # pi hbar W of sum_i c_i |u_i> is sum_{i,j} c_i conj(c_j) <u_j|u_i>
        # exp(-2 (z - u_i)(conj(z) - conj(u_j))), in 30 digits
        mpmath = pytest.importorskip("mpmath")
        state = cat_state(3.0)
        _, _, z = self._own_window(state)
        assert certify(state, z) <= ORDER_CAP
        got = wigner_series(state, z).ravel() * math.pi
        for value, zv in zip(got, z.ravel()):
            assert abs(value - coherent_pi_w(state, zv)) <= 1e-12

    def test_coherent40_raises_in_the_origin_frame_only(self):
        # coherent(4) is cut at K = 78 in the origin frame; coherent(40)
        # would need K >= 3200 there, and the error names the state and
        # the order, while in its own frame it is the vacuum
        _, _, z = self._window(41)
        assert certify(CoherentState(4.0), z, frame=False) == 78
        with pytest.raises(TruncationError) as err:
            choose_truncation(CoherentState(40.0), z, TruncationPolicy())
        assert err.value.order == ORDER_CAP
        assert repr(CoherentState(40.0)) in str(err.value) and "K >= 3200" in str(err.value)
        assert np.max(np.abs(wigner_series(CoherentState(40.0), z))) == 0.0


class TestOwnFrame:
    """A state whose members are all coherent is evaluated in the frame of
    their mean label z0, at z - z0: a bare coherent state |U> as the vacuum.
    A state with a Fock member keeps the origin."""

    @pytest.mark.parametrize("u", [0.7 - 0.4j, 3.0, -2.0j])
    def test_coherent_state_moves_to_its_centre(self, u):
        assert _own_frame(CoherentState(u)) == (CoherentState(0), u)

    @pytest.mark.parametrize("state", [
        CoherentState(0),
        FockState(3),
        cat_state(1.1),
        superposition([(0.6, FockState(2)), (0.8j, CoherentState(0.5 - 0.3j))], normalize=True),
    ], ids=["vacuum", "fock3", "cat1.1", "fock-coherent"])
    def test_other_states_keep_the_origin(self, state):
        framed, z0 = _own_frame(state)
        assert framed is state and z0 == 0

    def test_coherent_superpositions_move_to_their_mean_label(self):
        # D(-z0)|U> = exp(i Im(conj(z0) U)) |U - z0>: a one-member
        # superposition becomes the vacuum, and |7> + |5> a pair at 1 and -1
        framed, z0 = _own_frame(superposition([(1.0, CoherentState(0.7 - 0.4j))]))
        assert z0 == 0.7 - 0.4j and framed == Superposition(((1.0, CoherentState(0)),))
        pair = superposition([(1.0, CoherentState(7.0)), (1.0, CoherentState(5.0))], normalize=True)
        framed, z0 = _own_frame(pair)
        assert z0 == 6 and framed.terms == tuple((c, CoherentState(u)) for (c, _), u in zip(pair.terms, (1, -1)))

    @pytest.mark.parametrize("labels", [(1 + 1j, -1 + 1j), (0.7 - 0.4j,), (2.0, 0.5j, -1.0 - 0.5j)],
                             ids=["pair", "one", "three"])
    def test_mean_frame_agrees_with_the_origin(self, labels):
        # each sum is within the tolerance of W, so within twice of the other
        state = superposition([(complex(1, k), CoherentState(u)) for k, u in enumerate(labels)], normalize=True)
        assert _own_frame(state)[1] == pytest.approx(sum(labels) / len(labels), abs=1e-15)
        z = lattice(-3.0, 3.0, 41, -3.0, 3.0, 41)
        assert np.max(np.abs(wigner_series(state, z) * math.pi - origin_sum(state, z))) <= 2 * TOL

    def test_off_centre_pair_on_its_own_window(self):
        # |7> + |5> at z0 = 6, against 30-digit mpmath at every point
        state = superposition([(1.0, CoherentState(7.0)), (1.0, CoherentState(5.0))], normalize=True)
        basis = BasisParams()
        q_lo, q_hi, p_lo, p_hi = state_window(state, basis)
        g = evaluate_grid(state, GridAxis(q_lo, q_hi, 41), GridAxis(p_lo, p_hi, 41), basis)
        assert g.metadata["frame"] == [6, 0] and g.metadata["truncation_order"] == 27
        z = z_from_qp(g.q_axis.points[:, None], g.p_axis.points[None, :], basis)
        for value, zv in zip(g.values.ravel() * math.pi, z.ravel()):
            assert abs(value - coherent_pi_w(state, zv)) <= 1e-12

    def test_vacuum_walks_no_shell(self, monkeypatch):
        # f = 1, so K = 0 is exact and no displaced amplitude is summed
        calls = count_orders(monkeypatch)
        z = lattice(-3.0, 3.0, 60, -3.0, 3.0, 60)
        assert choose_truncation(CoherentState(0), z, TruncationPolicy()) == 0
        assert wigner_series(CoherentState(4.0 - 2.0j), z).shape == z.shape
        assert calls == []

    @pytest.mark.parametrize("u", [0.7 - 0.4j, 2.0])
    def test_agrees_with_the_origin_where_it_certifies(self, u):
        # the origin frame certifies K; its sum and the own-frame value
        # differ by at most the tolerance
        state = CoherentState(u)
        z = lattice(-3.0, 3.0, 60, -3.0, 3.0, 60)
        K = certify(state, z, frame=False)
        assert 0 < K <= ORDER_CAP
        gap = np.max(np.abs(wigner_series(state, z) * math.pi - origin_sum(state, z)))
        assert gap <= TOL

    def test_order_is_the_order_in_the_frame(self):
        # in its own frame the Taylor stack of |U> is 1, 0, 0, ...: the
        # orders the origin needs, and the cap, give the values of K = 0
        state = CoherentState(0.7 - 0.4j)
        z = lattice(-3.0, 3.0, 60, -3.0, 3.0, 60)
        values = wigner_series(state, z)
        for K in (0, 17, ORDER_CAP):
            assert np.array_equal(wigner_series(state, z, order=K), values)


class TestBlocks:
    """The walk takes the raveled labels in flat blocks of core.BLOCK_POINTS
    points, with one K for all of them, so the values do not depend on the
    block size: a point's value does not depend on the length of the array
    it sits in (states._stack), length 1 included."""

    STATES = [CoherentState(0.7 - 0.4j), cat_state(1.1), superposition([(0.5, FockState(n)) for n in range(4)])]

    @staticmethod
    def one_block(monkeypatch, state, z, order=None):
        with monkeypatch.context() as patch:
            patch.setattr(core, "BLOCK_POINTS", z.size)
            return wigner_series(state, z, order=order)

    @pytest.mark.parametrize("state", STATES, ids=["coherent", "cat1.1", "sup4"])
    def test_last_block_of_one_point(self, state, monkeypatch):
        rng = np.random.default_rng(RNG_SEED)
        z = rng.uniform(-2.0, 2.0, 4097) + 1j * rng.uniform(-2.0, 2.0, 4097)
        assert core.BLOCK_POINTS == 4096
        assert np.array_equal(wigner_series(state, z), self.one_block(monkeypatch, state, z))

    @pytest.mark.parametrize("state", STATES, ids=["coherent", "cat1.1", "sup4"])
    def test_blocks_of_one_point(self, state, monkeypatch):
        z = lattice(-3.0, 3.0, 9, -3.0, 3.0, 7).ravel()
        K = choose_truncation(state, z, TruncationPolicy())
        monkeypatch.setattr(core, "BLOCK_POINTS", 1)
        blocked = wigner_series(state, z, order=K)
        assert np.array_equal(blocked, self.one_block(monkeypatch, state, z, order=K))

    def test_traced_peak_of_200_squared_labels(self):
        # the bound of tests/test_grid.py::TestTracedPeak at blocks of 4096
        # points: the labels and values, 24 bytes a point, and one block's
        # walk; building the whole Taylor stack at once would take 14 MB
        import tracemalloc

        # the block term keeps the shell walk's K = 21: Royer's sum holds
        # far fewer doubles a point than the walk's 3(K+1) at K = 28
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
        # in its own frame coherent(3) is the vacuum, of degree 0; the
        # entries beyond the degree are 0, so the cap is exact
        z = np.array(z, dtype=complex)
        got = wigner_series(state, z, order=170)
        assert np.all(np.isfinite(got))
        assert np.array_equal(got, wigner_series(state, z))

    def test_non_finite_value_names_label_order_and_value(self):
        # Royer's sum stays finite at any order; the walk's kernel and
        # stack overflow at |z| = 1e30
        assert np.all(np.isfinite(wigner_series(cat_state(1.1), np.array([3.5, 6, 11, 23]), order=170)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=re.escape("at z = 1e+30+0j is nan at truncation order K = 12")):
                wigner_series(FockState(12), np.array([3.5, 1e30, 11]))


class TestFloat64FactorialLimit:
    """The series holds n! in float64, so orders stop at 170."""

    def test_fock170_evaluates(self):
        got = wigner_series(FockState(170), 0.5)
        assert abs(got - wigner_closed_fock(170, 0.5)) <= 1e-9

    def test_fock150_matches_mpmath(self):
        # Royer's form at 2z; the walk gave pi W = 0.602 here
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(80):
            want = float(mpmath.exp(-8) * mpmath.laguerre(150, 0, 16))
        assert abs(wigner_series(FockState(150), 2.0) * math.pi - want) <= 1e-14

    def test_fock171_names_state_and_limit(self):
        with pytest.raises(ValueError) as err:
            wigner_series(FockState(171), 0.5)
        message = str(err.value)
        for part in ("FockState(n=171)", "K = 171", "170!"):
            assert part in message


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
    """The kernel walk on 2 < |z| <= 4, where the form cancels most on the
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
