"""Property tests of wigner_series on random coherent, cat and Fock
superpositions: the bound |W| <= 1/(pi hbar), invariance under a global
phase, and the position marginal; and on random Fock-coherent mixtures,
agreement with mpmath's pair sum on each state's own window."""

import cmath
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from bargwig.core import wigner_series
from bargwig.phase import BasisParams, z_from_qp
from bargwig.states import CoherentState, FockState, position_wavefunction, superposition
from bargwig.validate import state_window
from pair_reference import pair_pi_w

BASIS = BasisParams()
PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)

finite = dict(allow_nan=False, allow_infinity=False)
coefficients = st.builds(complex, st.floats(-1.0, 1.0, **finite), st.floats(-1.0, 1.0, **finite)).filter(
    lambda c: abs(c) > 0.1
)
amplitudes = st.builds(complex, st.floats(-1.5, 1.5, **finite), st.floats(-1.5, 1.5, **finite)).filter(
    lambda u: abs(u) > 0.1
)


def _coherent(u, c):
    return superposition([(c, CoherentState(u))], normalize=True)


def _cat(u, c):
    # |u> + c|-u>: even, odd and complex-phase cats
    return superposition([(1.0, CoherentState(u)), (c, CoherentState(-u))], normalize=True)


def _fock(pairs):
    return superposition([(c, FockState(n)) for n, c in pairs], normalize=True)


states = st.one_of(
    st.builds(_coherent, amplitudes, coefficients),
    st.builds(_cat, amplitudes, coefficients),
    st.builds(_fock, st.lists(st.tuples(st.integers(0, 8), coefficients), min_size=1, max_size=4,
                              unique_by=lambda pair: pair[0])),
)
points = st.builds(complex, st.floats(-2.5, 2.5, **finite), st.floats(-2.5, 2.5, **finite))

# Fock-coherent mixtures: at most 4 distinct members, fock(0) to fock(20)
# and coherent states with |U| <= 5, at least one of each
members = st.one_of(
    st.builds(FockState, st.integers(0, 20)),
    st.builds(CoherentState, st.builds(complex, st.floats(-5.0, 5.0, **finite), st.floats(-5.0, 5.0, **finite)).filter(
        lambda u: 0.1 < abs(u) <= 5.0)),
)
mixtures = st.lists(st.tuples(coefficients, members), min_size=2, max_size=4, unique_by=lambda pair: pair[1]).filter(
    lambda terms: {type(m) for _, m in terms} == {FockState, CoherentState}
).map(lambda terms: superposition(terms, normalize=True))
# points of a state's own window, as fractions of its q and p extents
fractions = st.tuples(st.floats(0.0, 1.0, **finite), st.floats(0.0, 1.0, **finite))


def _phased(state, phi):
    return superposition([(cmath.exp(1j * phi) * c, m) for c, m in state.terms])


@PROPERTY
@given(states, st.lists(points, min_size=1, max_size=16))
def test_bounded_by_one_over_pi_hbar(state, zs):
    w = wigner_series(state, np.array(zs), basis=BASIS)
    assert np.all(np.abs(w) <= 1.0 / (math.pi * BASIS.hbar) * (1 + 1e-14))


@PROPERTY
@given(states, st.floats(0.0, 2 * math.pi, **finite), st.lists(points, min_size=1, max_size=16))
def test_global_phase_leaves_w_unchanged(state, phi, zs):
    z = np.array(zs)
    assert np.max(np.abs(wigner_series(_phased(state, phi), z, basis=BASIS) - wigner_series(state, z, basis=BASIS))) <= 1e-15


@PROPERTY
@given(states, st.lists(st.floats(-2.0, 2.0, **finite), min_size=1, max_size=3))
def test_p_marginal_is_position_density(state, qs):
    # W decays like a Gaussian in p, so the trapezoid rule on [-9, 9] is
    # accurate far below the tolerance
    p = np.linspace(-9.0, 9.0, 361)
    q = np.array(qs)
    qq, pp = np.meshgrid(q, p, indexing="ij")
    w = wigner_series(state, z_from_qp(qq, pp, BASIS), basis=BASIS)
    marginal = np.trapezoid(w, p, axis=1)
    density = np.abs(position_wavefunction(state, q, BASIS)) ** 2
    assert np.max(np.abs(marginal - density)) <= 1e-9


@PROPERTY
@given(mixtures, st.lists(fractions, min_size=1, max_size=3))
def test_mixture_matches_mpmath_pair_sum(state, where):
    # within 1e-14 / (pi hbar) of the 30-digit pair sum, Laguerre values
    # for the Fock pairs, at points of the state's own window
    q_lo, q_hi, p_lo, p_hi = state_window(state, BASIS)
    z = np.array([z_from_qp(q_lo + s * (q_hi - q_lo), p_lo + t * (p_hi - p_lo), BASIS) for s, t in where])
    got = wigner_series(state, z, basis=BASIS) * math.pi * BASIS.hbar
    for value, zv in zip(got, z):
        assert abs(value - pair_pi_w(state, zv)) <= 1e-14, zv
