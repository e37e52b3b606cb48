import dataclasses
import math
import re

import numpy as np
import pytest

from bargwig import core
from bargwig.core import (
    MAX_ORDER,
    _own_frame,
    _series_sum,
    _shell_weights,
    _tail_estimate,
    _truncation_sample,
    _wigner_at,
    TruncationError,
    TruncationPolicy,
    build_F,
    choose_truncation,
    wigner_closed_coherent_crossb,
    wigner_closed_coherent_gaussian,
    wigner_closed_fock,
    wigner_series,
)
from bargwig.oracles import wigner_config_integral
from bargwig.phase import BasisParams, qp_from_z, z_from_qp
from bargwig.states import CoherentState, FockState, bargmann, cat_state, derivative_tower, superposition
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
        assert TruncationPolicy().tail_tolerance == 1e-12 and MAX_ORDER == 64

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
        # frozen once computed; must stay at or below 40, and the part of
        # the form it omits (against order 64) must meet the tolerance
        policy = TruncationPolicy()
        K = choose_truncation(CoherentState(1.0), 1.0 + 0j, policy)
        assert K == 19
        assert K <= 40
        omitted = abs(origin_series(CoherentState(1.0), 1.0 + 0j, K)
                      - origin_series(CoherentState(1.0), 1.0 + 0j, 64)) * math.pi
        assert omitted <= policy.tail_tolerance

    def test_cap_error_carries_estimate(self):
        # coherent(4) at z = 2 needs more than MAX_ORDER derivatives for 1e-14
        policy = TruncationPolicy(tail_tolerance=1e-14)
        with pytest.raises(TruncationError) as err:
            choose_truncation(CoherentState(4.0), 2.0 + 0j, policy)
        assert err.value.tail_estimate == pytest.approx(2.47e-8, rel=1e-2)
        assert err.value.point == 2.0 + 0j
        message = str(err.value)
        for part in ("z = 2+0j", "|z| = 2", f"order cap {MAX_ORDER}", "tolerance 1e-14",
                     f"{err.value.tail_estimate:.3g}"):
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
    coefficients, each on a random lattice of more than 1024 points, so
    that the truncation subsample is strided."""
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


class TestEdgeScan:
    """On a 2-D lattice choose_truncation takes the largest |f| from the
    edge rows and columns only (maximum modulus principle); a 1-D z is
    scanned in full. The two must pick the same point and the same K."""

    @staticmethod
    def outcome(state, z):
        try:
            return choose_truncation(state, z, TruncationPolicy())
        except TruncationError as err:
            return ("raises", err.point, err.tail_estimate)

    @pytest.mark.parametrize("count", [41, 60, 61, 200])
    @pytest.mark.parametrize("state, K", [(CoherentState(0.7 - 0.4j), 17), (cat_state(1.1), 21)],
                             ids=["coherent", "cat1.1"])
    def test_catalog_windows(self, state, K, count):
        z = lattice(-3.0, 3.0, count, -3.0, 3.0, count)
        assert np.array_equal(_truncation_sample(state, z), _truncation_sample(state, z.ravel()))
        assert choose_truncation(state, z, TruncationPolicy()) == K
        assert choose_truncation(state, z.ravel(), TruncationPolicy()) == K
        assert omitted_at(state, z, K) <= TruncationPolicy().tail_tolerance

    def test_random_superpositions_on_random_lattices(self):
        # K is a function of the sample, so equal samples give equal K; K
        # itself is compared on the first 20 lattices
        for case, (state, z) in enumerate(random_superpositions_on_lattices()):
            f = np.abs(bargmann(state, z))
            edges = np.concatenate((f[0], f[-1], f[:, 0], f[:, -1]))
            assert edges.max() == f.max()
            assert np.array_equal(_truncation_sample(state, z), _truncation_sample(state, z.ravel()))
            if case < 20:
                assert self.outcome(state, z) == self.outcome(state, z.ravel())


def origin_series(state, z, K):
    """W at z from the form walked to order K in the origin frame, the frame
    choose_truncation bounds: wigner_series would evaluate a bare coherent
    state in its own frame, where K = 0 is exact."""
    z = np.asarray(z, dtype=complex)
    return _wigner_at(state, z.ravel(), K, 1.0).reshape(z.shape)


def omitted_at(state, z, K):
    """max |W_K - W_64| pi hbar over z in the origin frame: what truncation
    at K omits of the form that the cap keeps."""
    return np.max(np.abs(origin_series(state, z, K) - origin_series(state, z, MAX_ORDER))) * math.pi


def cap_order(state, z, policy=TruncationPolicy()):
    """K from the tail estimate at MAX_ORDER alone: the smallest order that
    meets the tolerance there, or None."""
    est = _tail_estimate(state, _truncation_sample(state, z), MAX_ORDER).max(axis=1)
    meets = np.nonzero(est <= policy.tail_tolerance)[0]
    return int(meets[0]) if meets.size else None


def set_sample(state, z, full_scan=False):
    """_truncation_sample with its index set built as a Python set and each
    largest |z| and |f| taken by Python's max, the first index on ties: the
    reference for the points and their order. On a 2-D z the two maxima are
    sought on the edge rows and columns, or with full_scan over every point,
    as a 1-D z is."""
    z = np.asarray(z, dtype=complex)
    zz = z.ravel()
    idx = set(range(0, zz.size, max(1, zz.size // 512)))
    scan = range(zz.size)
    if z.ndim == 2 and not full_scan:
        rows, cols = z.shape
        scan = sorted(i * cols + j for i in range(rows) for j in range(cols) if i in (0, rows - 1) or j in (0, cols - 1))
    f = np.abs(bargmann(state, zz))
    idx.add(max(scan, key=lambda i: (abs(zz[i]), -i)))
    idx.add(max(scan, key=lambda i: (f[i], -i)))
    return zz[sorted(idx)]


def record_shells(monkeypatch):
    """The list into which every shell m that core._shell_weights yields is
    appended, for the rest of the test."""
    import bargwig.core as core

    shells = []
    walk = core._shell_weights

    def recording(state, zz, r):
        for m, weights in enumerate(walk(state, zz, r)):
            shells.append(m)
            yield weights

    monkeypatch.setattr(core, "_shell_weights", recording)
    return shells


class TestTwoTrySearch:
    """choose_truncation builds its estimate to MAX_ORDER // 2 before
    MAX_ORDER; the K it returns must be the K of the estimate at MAX_ORDER
    alone."""

    @staticmethod
    def assert_cap_order(state, z):
        try:
            got = choose_truncation(state, z, TruncationPolicy())
        except TruncationError:
            got = None
        assert got == cap_order(state, z), state

    @pytest.mark.parametrize("count", [41, 60, 61, 200])
    @pytest.mark.parametrize("state", [CoherentState(0.7 - 0.4j), cat_state(1.1)], ids=["coherent", "cat1.1"])
    def test_catalog_lattices(self, state, count):
        self.assert_cap_order(state, lattice(-3.0, 3.0, count, -3.0, 3.0, count))

    @pytest.mark.parametrize("u, extent", [(0.3, 3.0), (1.0, 3.0), (2.0, 3.0), (3.0, 3.0), (2.5, 6.0), (3.0, 6.0)])
    def test_coherent_windows(self, u, extent):
        self.assert_cap_order(CoherentState(u), lattice(-extent, extent, 60, -extent, extent, 60))

    def test_random_superpositions(self):
        for state, z in random_superpositions_on_lattices():
            self.assert_cap_order(state, z)

    @pytest.mark.parametrize("beta", [2.0, 2.5, 3.0])
    def test_weak_far_member(self, beta):
        # a weak member far out sets K, which runs from 17 to 51 here and
        # falls on both sides of MAX_ORDER // 2 = 32 for each beta
        z = lattice(-3.0, 3.0, 60, -3.0, 3.0, 60)
        orders = []
        for w in 10.0 ** -np.arange(1, 7):
            state = superposition([(1.0, CoherentState(0.2)), (w, CoherentState(beta + 0.5j))], normalize=True)
            self.assert_cap_order(state, z)
            orders.append(cap_order(state, z))
            assert omitted_at(state, z, orders[-1]) <= TruncationPolicy().tail_tolerance
        assert orders == sorted(orders, reverse=True) and orders[-1] <= MAX_ORDER // 2 < orders[0]

    def test_second_try_is_only_paid_past_half_the_cap(self, monkeypatch):
        # the catalog walks the shells 0..32 once; coherent(3) walks on to
        # 64 and still walks no shell twice
        shells = record_shells(monkeypatch)
        z = lattice(-3.0, 3.0, 60, -3.0, 3.0, 60)
        assert choose_truncation(cat_state(1.1), z, TruncationPolicy()) == 21
        assert shells == list(range(MAX_ORDER // 2 + 1))
        assert omitted_at(cat_state(1.1), z, 21) <= TruncationPolicy().tail_tolerance
        shells.clear()
        assert choose_truncation(CoherentState(3.0), z, TruncationPolicy()) > 32
        assert shells == list(range(MAX_ORDER + 1))

    @pytest.mark.parametrize("p, beta, K", [
        (3, 2.0, 24),
        (4, 2.0, None),
        (4, 3.0, None),
        pytest.param(3, 4.0, 30, marks=pytest.mark.xfail(
            strict=True, reason="the closure at shell 32 sees R_31 = R_32 = 0 and drops R_33")),
    ])
    def test_sparse_taylor_stack(self, p, beta, K):
        # at the centre of a p-fold symmetric superposition t_k vanishes
        # unless p divides k, so for p >= 3 a pair sum of the closure can
        # vanish while later ones do not: W at z = 0 must match the form
        # walked far past the cap, or the walk must raise
        w = np.exp(2j * np.pi / p)
        state = superposition([(1.0, CoherentState(beta * w**k)) for k in range(p)], normalize=True)
        z = np.array([0j])
        if K is None:
            with pytest.raises(TruncationError):
                wigner_series(state, z)
            return
        assert choose_truncation(state, z, TruncationPolicy()) == K
        omitted = abs(wigner_series(state, z)[0] - wigner_series(state, z, order=120)[0]) * math.pi
        assert omitted <= TruncationPolicy().tail_tolerance

    @pytest.mark.parametrize("shape", [(1,), (2,), (511,), (512,), (513,), (1024,), (1025,), (5000,),
                                       (1, 700), (700, 1), (3, 700), (60, 60), (200, 200)])
    def test_sample_points_and_order(self, shape):
        rng = np.random.default_rng(RNG_SEED + 11)
        z = (rng.uniform(-3.0, 3.0, shape) + 1j * rng.uniform(-3.0, 3.0, shape)).round(1)
        for state in (CoherentState(0.7 - 0.4j), cat_state(1.1)):
            assert np.array_equal(_truncation_sample(state, z), set_sample(state, z))

    def test_sample_on_random_lattices(self):
        for state, z in random_superpositions_on_lattices(50):
            assert np.array_equal(_truncation_sample(state, z), set_sample(state, z))
            assert np.array_equal(_truncation_sample(state, z), set_sample(state, z, full_scan=True))

    @pytest.mark.parametrize("window", [
        (-3.0, 3.0, 200, -3.0, 3.0, 200),  # four corners tie; the first is index 0
        (-3.0, 3.0, 61, -3.0, 3.0, 41),
        (-2.0, 3.0, 60, -3.0, 3.0, 60),  # the two corners at q = 3 tie
        (-3.0, 2.0, 60, -3.0, 3.0, 60),  # the two corners at q = -3 tie
        (-3.0, 3.0, 60, -1.0, 3.0, 60),  # the two corners at p = 3 tie
        (-1.0, 3.0, 45, -2.0, 1.0, 70),  # one corner
    ])
    def test_edge_maxima_are_those_of_a_full_scan(self, window):
        # |z| is convex in (q, p) and |f| obeys the maximum modulus
        # principle, so on a lattice the edge holds both maxima, tied
        # corners included, at the first index a scan of every point finds
        z = lattice(*window)
        for state in (CoherentState(0.7 - 0.4j), cat_state(1.1), CoherentState(-0.2 + 1.5j)):
            assert np.array_equal(_truncation_sample(state, z), set_sample(state, z, full_scan=True))


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
        # 61 points put a sample at the origin, where every odd derivative of
        # the even cat vanishes; 60 points straddle it
        K = choose_truncation(cat_state(1.1), self._window_labels(count), TruncationPolicy())
        assert K <= MAX_ORDER

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
    """The tail bound of choose_truncation against the true omitted part,
    and windows that the bound now reaches within MAX_ORDER."""

    @staticmethod
    def _window(count):
        qs = np.linspace(-3.0, 3.0, count)
        qq, pp = np.meshgrid(qs, qs, indexing="ij")
        return qq, pp, z_from_qp(qq, pp, BasisParams())

    def test_omitted_part_within_estimate(self):
        # |W_K - W_64| pi hbar <= est[K]; 1e-15 allows for the roundoff of
        # the two sums. Points with |z| < 0.05 test the pair-sum closure,
        # where the cats' odd or even derivatives nearly vanish.
        rng = np.random.default_rng(RNG_SEED + 3)
        for trial in range(15):
            u = complex(*rng.uniform(-1.5, 1.5, 2))
            state = [CoherentState(u), cat_state(u, 1), cat_state(u, -1)][trial % 3]
            z = rng.uniform(0.0, 3.0, 32) * np.exp(1j * rng.uniform(0, 2 * np.pi, 32))
            z[:8] *= 0.05 / 3.0
            est = _tail_estimate(state, z, 64)
            ref = origin_series(state, z, 64)
            for K in range(2, 41):
                omitted = np.abs(origin_series(state, z, K) - ref) * math.pi
                assert np.all(omitted <= est[K] + 1e-15), (state, K)

    def test_infinite_closure_stays_infinite_where_the_gaussian_underflows(self):
        # at |z| = 27 exp(-2 r^2) underflows to 0 while the closure at shell
        # 32 is infinite: that point's estimate is +inf, not nan, and the
        # walk on to the cap still certifies K
        import warnings

        z = np.array([27.0, 0.1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = _tail_estimate(cat_state(1.1), z, MAX_ORDER // 2)
            assert np.all(est[:, 0] == np.inf)
            assert choose_truncation(cat_state(1.1), z, TruncationPolicy()) == 16

    @pytest.mark.parametrize("state", TestSteppedWalk.STATES, ids=["coherent", "cat1.1", "fock-pair", "mixed"])
    def test_shell_weights_are_those_of_build_F(self, state):
        # R_m = sum over max(n, j) = m of |c_n| |F_nj| |c_j|, F tabulated
        # entry by entry, against the walk up the shells
        M = 30
        rng = np.random.default_rng(RNG_SEED + 5)
        points = np.array([0j, 4.0 + 0j] + [complex(*rng.uniform(-2.8, 2.8, 2)) for _ in range(4)])
        walk = np.array([R_m for R_m, _ in zip(_shell_weights(state, points, np.abs(points)), range(M + 1))])
        shell = np.maximum.outer(np.arange(M + 1), np.arange(M + 1))
        for i, z in enumerate(points):
            c = np.abs(derivative_tower(state, z, M)) / np.array([math.factorial(k) for k in range(M + 1)])
            entries = c[:, None] * np.abs(build_F(z, M)) * c[None, :]
            want = np.array([entries[shell == m].sum() for m in range(M + 1)])
            assert np.all(np.abs(walk[:, i] - want) <= 1e-13 * want), (state, z)

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
        assert choose_truncation(state, z, TruncationPolicy()) <= MAX_ORDER
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
        assert choose_truncation(state, z, TruncationPolicy()) <= MAX_ORDER
        got = wigner_series(state, z).ravel() * math.pi
        with mpmath.workdps(30):
            terms = [(mpmath.mpc(c.real, c.imag), mpmath.mpc(m.u.real, m.u.imag)) for c, m in state.terms]
            for value, zv in zip(got, z.ravel()):
                w = mpmath.mpc(zv.real, zv.imag)
                want = mpmath.fsum(
                    ci * mpmath.conj(cj)
                    * mpmath.exp(mpmath.conj(uj) * ui - (abs(ui) ** 2 + abs(uj) ** 2) / 2)
                    * mpmath.exp(-2 * (w - ui) * mpmath.conj(w - uj))
                    for ci, ui in terms for cj, uj in terms
                )
                assert abs(value - float(want.real)) <= 1e-12

    def test_coherent4_on_window_raises_at_its_worst_point(self):
        # in the origin frame; wigner_series takes coherent(4) to its own
        # frame, where K = 0 (TestOwnFrame)
        _, _, z = self._window(41)
        with pytest.raises(TruncationError) as err:
            choose_truncation(CoherentState(4.0), z, TruncationPolicy())
        assert err.value.tail_estimate > 1e-12
        assert err.value.point in z
        assert f"|z| = {abs(err.value.point):.6g}" in str(err.value)


class TestOwnFrame:
    """A bare coherent state |U> is evaluated as the vacuum at z - U; every
    other state keeps the origin."""

    @pytest.mark.parametrize("u", [0.7 - 0.4j, 3.0, -2.0j])
    def test_coherent_state_moves_to_its_centre(self, u):
        assert _own_frame(CoherentState(u)) == (CoherentState(0), u)

    @pytest.mark.parametrize("state", [
        CoherentState(0),
        FockState(3),
        cat_state(1.1),
        superposition([(0.6, FockState(2)), (0.8j, CoherentState(0.5 - 0.3j))], normalize=True),
        superposition([(1.0, CoherentState(0.7 - 0.4j))]),
    ], ids=["vacuum", "fock3", "cat1.1", "fock-coherent", "one-member-superposition"])
    def test_other_states_keep_the_origin(self, state):
        framed, z0 = _own_frame(state)
        assert framed is state and z0 == 0

    def test_vacuum_walks_no_shell(self, monkeypatch):
        # f = 1, so K = 0 is exact and the bound is never walked
        shells = record_shells(monkeypatch)
        z = lattice(-3.0, 3.0, 60, -3.0, 3.0, 60)
        assert choose_truncation(CoherentState(0), z, TruncationPolicy()) == 0
        assert wigner_series(CoherentState(4.0 - 2.0j), z).shape == z.shape
        assert shells == []

    @pytest.mark.parametrize("u", [0.7 - 0.4j, 2.0])
    def test_agrees_with_the_origin_where_it_certifies(self, u):
        # the origin frame certifies K on [-3,3]^2 (17 and 36); its walk at
        # that K and the own-frame value differ by at most the tolerance
        state = CoherentState(u)
        z = lattice(-3.0, 3.0, 60, -3.0, 3.0, 60)
        policy = TruncationPolicy()
        K = choose_truncation(state, z, policy)
        assert 0 < K <= MAX_ORDER
        gap = np.max(np.abs(wigner_series(state, z) - origin_series(state, z, K))) * math.pi
        assert gap <= policy.tail_tolerance

    def test_order_is_the_order_in_the_frame(self):
        # in its own frame the Taylor stack of |U> is 1, 0, 0, ...: the
        # orders the origin needs, and the cap, give the values of K = 0
        state = CoherentState(0.7 - 0.4j)
        z = lattice(-3.0, 3.0, 60, -3.0, 3.0, 60)
        values = wigner_series(state, z)
        for K in (0, 17, MAX_ORDER):
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

        state = cat_state(1.1)
        z = lattice(-3.0, 3.0, 200, -3.0, 3.0, 200).ravel()
        K = choose_truncation(state, z, TruncationPolicy())
        assert K == 21
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
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=re.escape("at z = 3.5+0j is nan at truncation order K = 170")):
                wigner_series(cat_state(1.1), np.array([3.5, 6, 11, 23]), order=170)


class TestFloat64FactorialLimit:
    """The series holds n! in float64, so orders stop at 170."""

    def test_fock170_evaluates(self):
        got = wigner_series(FockState(170), 0.5)
        assert abs(got - wigner_closed_fock(170, 0.5)) <= 1e-9

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
