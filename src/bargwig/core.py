"""Non-integral Wigner evaluation through the Hermitian quadratic form

    W(z, z*) = exp(-2|z|^2) / (pi hbar) * sum_{n,j} conj(V_n)/n! F_{n,j} V_j/j!

with V_k = d^k f/dz^k the Bargmann derivative stack and F_{n,j} =
g_kernel(n, j, z) = conj(z)^n z^j 2F0(-n, -j; ; -1/|z|^2), an associated
Laguerre polynomial regular at z = 0. build_F tabulates F entry by entry,
the reference that validate's paper-form-agreement check compares the walk
(_series_sum, along the diagonals of F) against.

The form has a second exact factorization, N^-1 F N^-1 = exp(|z|^2) B^+ S B
with N = diag(n!), B_kj = C(k, j) (-conj(z))^(k-j), S = diag((-1)^k / k!).
By it the form is Royer's displaced parity (Phys. Rev. A 15, 449 (1977)),

    W(z) = 1/(pi hbar) <psi|D(2z) Pi|psi> = 1/(pi hbar) Re sum_k (-1)^k conj(a_k(0)) a_k(2z),

over the number amplitudes a_k(w) = <k|D(-w)|psi> of the state displaced
to w (states._displaced). a_k(0) = <k|psi> does not depend on z, so one
order K, chosen per state (choose_truncation), bounds what truncation
omits at every point. _evaluate, behind wigner_series and evaluate_grid,
moves the state to its own frame (_own_frame) and sums W block by block
(_wigner_at) by one of two routes: the walk at K = degree for a
polynomial state up to WALK_DEGREE, a bare coherent state among them as
the vacuum in its own frame, and this sum (_royer_form) for every other
state. Closed forms for Fock and coherent states live here too.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .phase import BasisParams
from .special import g_kernel, laguerre
from .states import (CoherentState, StateSpec, _displaced, _stack, _terms, _unchecked_superposition, exact_degree,
                     norm_squared)

__all__ = [
    "TruncationPolicy",
    "TruncationError",
    "build_F",
    "choose_truncation",
    "wigner_series",
    "wigner_closed_fock",
    "wigner_closed_coherent_gaussian",
    "wigner_closed_coherent_crossb",
]

# Orders choose_truncation may take. A coherent member |U> has its mass
# near k = |U|^2, and the cut needs K >= 2|U|^2: |U| > 14.1 in the state's
# own frame is past it. A 5-fold superposition with |U| = 4 takes K = 79.
ORDER_CAP = 400

# Highest degree the walk takes. On its own window, against 60-digit
# Laguerre values, it is 2.2e-15 off for fock(12) and 1.3e-14 for fock(16);
# _royer_form stays within 7e-16, at about 1.2 times the walk's cost.
WALK_DEGREE = 12

# Points summed per block, whatever the route: the walk keeps 3(K+1) + O(1)
# doubles a point, _royer_form two dozen for a cat. 8192 points lowered
# the 200^2 benchmark's peak RSS by half as much.
BLOCK_POINTS = 4096


class TruncationError(RuntimeError):
    """choose_truncation found no order up to ORDER_CAP for a state: order,
    the last order tried, and tail_bound, the bound there on what the sum
    omits (sqrt(2 <psi|psi>) g_(order+1))."""

    def __init__(self, message: str, order: int, tail_bound: float):
        super().__init__(message)
        self.order = order
        self.tail_bound = tail_bound


@dataclass(frozen=True)
class TruncationPolicy:
    """tail_tolerance, positive and finite, in units of 1/(pi hbar): the
    bound on what the truncated sum omits, at any point, that
    choose_truncation's order must meet. Polynomial states are summed to
    their degree, exactly.
    """

    tail_tolerance: float = 1e-14

    def __post_init__(self):
        if not (self.tail_tolerance > 0 and math.isfinite(self.tail_tolerance)):
            raise ValueError(f"tail_tolerance must be positive and finite, got {self.tail_tolerance!r}")


def build_F(z: complex, K: int) -> np.ndarray:
    """The (K+1) x (K+1) Hermitian kernel matrix of g_kernel values at the
    point z, filled entry by entry: the reference for the walk."""
    if K < 0:
        raise ValueError("truncation order must be non-negative")
    z = complex(z)
    entries = np.empty((K + 1, K + 1), dtype=complex)
    for n in range(K + 1):
        for j in range(n, K + 1):
            val = g_kernel(n, j, z)
            entries[n, j] = val
            entries[j, n] = np.conj(val)
    return entries


def _series_sum(state: StateSpec, zz: np.ndarray, K: int) -> np.ndarray:
    """Quadratic form sum_{n,j<=K} conj(c_n) G_nj c_j of the kernel at the
    points zz, c_k = V_k/k! the Taylor stack, in O(K^2) real vector operations.

    Along the diagonal j = n + a, G_(n,n+a) = g_n^(a) z^a with
    g_n^(a) = n! (-1)^n L_n^(a)(y), y = |z|^2, and the entries below it are
    the conjugates. With z = r u, |u| = 1 (u = 1 at z = 0), the stack along
    the ray t_n = c_n u^n gives z^a conj(c_n) c_(n+a) = r^a conj(t_n) t_(n+a),
    so the form is the real sum

        sum_a w_a r^a sum_n g_n^(a) Re(conj(t_n) t_(n+a)),   w_0 = 1, w_a = 2.

    Only the a = 0 diagonal runs the Laguerre three-term recurrence, times
    (-1)^(n+1) n!: g_(n+1) = (y - (2n+1)) g_n - n^2 g_(n-1), g_0 = 1, with no
    division. Each later diagonal follows from L_n^(a+1) = L_n^(a) +
    L_(n-1)^(a+1) (DLMF section 18.9), g_n^(a+1) = g_n^(a) - n g_(n-1)^(a+1),
    g_0^(a+1) = 1, taken upward in n in place: two vector operations per
    entry and no new array. r^a is a running product.
    """
    t = _stack(state, zz, K, ray=True)
    r = np.abs(zz)
    y = r * r
    g = np.empty((K + 1,) + zz.shape)  # g[n] = g_n^(a) along the current diagonal, from a = 0
    g[0] = 1.0
    if K:
        np.subtract(y, 1.0, out=g[1])
    tmp = np.empty(zz.shape)
    for n in range(1, K):
        np.subtract(y, 2 * n + 1, out=g[n + 1])
        g[n + 1] *= g[n]
        np.multiply(g[n - 1], n * n, out=tmp)
        g[n + 1] -= tmp
    # Re(conj(t_n) t_(n+a)) sums the products of the real and of the
    # imaginary parts: one contraction over n and the part index c
    total = np.einsum("nk,nck,nck->k", g, t, t)

    diag = np.empty(zz.shape)
    ra = np.ones(zz.shape)  # r^a
    off = np.zeros(zz.shape)  # sum_{a>=1} r^a (diagonal a)
    for a in range(1, K + 1):
        m = K + 1 - a
        if m > 1:
            g[1] -= 1.0
        for n in range(2, m):
            np.multiply(g[n - 1], n, out=tmp)
            g[n] -= tmp
        np.einsum("nk,nck,nck->k", g[:m], t[:m], t[a:], out=diag)
        ra *= r
        diag *= ra
        off += diag
    off *= 2.0
    total += off
    return total


def _royer_form(state: StateSpec, zz: np.ndarray, K: int) -> np.ndarray:
    """pi hbar W at the 1-D labels zz, with no frame applied, to order K:

        <psi|D(z) Pi D(-z)|psi> = <psi|D(2z) Pi|psi> = Re sum_k (-1)^k conj(a_k(0)) a_k(2z),

    Pi|k> = (-1)^k |k>, a_k(w) = <k|D(-w)|psi> from states._displaced.
    a_k(0) = <k|psi> = sqrt(k!) conj(c_k), with c_k the paper's Taylor stack
    at the origin, is the same at every point, so choose_truncation cuts
    the sum once per state. a_k(0) rides along in the same call as the
    label w = 0, so a point's value does not depend on the block. Every
    term is at most |a_k(0)| |a_k(2z)| in modulus, and the a_k(2z) carry
    the Gaussian factor, so far out the sum is 0 where the walk overflows."""
    w = np.concatenate(([0j], 2.0 * zz))
    form = np.zeros(w.shape)
    for k, a in zip(range(K + 1), _displaced(_terms(state), w)):
        s = (-1) ** k * np.conj(a[0])
        if s:
            form += s.real * a.real - s.imag * a.imag
    return form[1:]


def choose_truncation(state: StateSpec, z, policy: TruncationPolicy) -> int:
    """Truncation order K of state, one for every point: z is not read. A
    polynomial state's degree; else the first K that is at least each Fock
    member's degree and 2|U|^2 of each coherent member |U>, with

        sqrt(2 <psi|psi>) g_(K+1) <= policy.tail_tolerance,   g_k = sum_m |c_m| |<k|psi_m>|.

    g_k bounds |a_k(0)|. Past 2|U|^2, |<k+1|U>| <= |<k|U>| / sqrt(2), so the
    a_k(0) beyond K hold at most 2 g_(K+1)^2, and by Cauchy-Schwarz what
    _royer_form leaves out is at most the left side at every z, as the
    a_k(2z) hold at most <psi|psi>. TruncationError past ORDER_CAP. No
    frame is applied: validate's paper-form check compares the walk and
    build_F at this K, in the origin frame."""
    deg = exact_degree(state)
    if deg is not None:
        return deg
    terms = _terms(state)
    least = max(2 * abs(m.u) ** 2 if m.degree() is None else m.degree() for _, m in terms)
    scale = math.sqrt(2.0 * norm_squared(state))
    amplitudes = zip(*(m.displaced(np.zeros(1, dtype=complex)) for _, m in terms))
    next(amplitudes)  # K looks at g_(K+1)
    for K, amps in enumerate(amplitudes):
        bound = scale * sum(abs(c) * abs(a[0]) for (c, _), a in zip(terms, amps))
        if K >= least and bound <= policy.tail_tolerance:
            return K
        if K == ORDER_CAP:
            raise TruncationError(f"{state!r} is not cut by the order cap K = {K}: the cut needs K >= {least:.6g}, "
                                  "its members' largest Fock degree or 2|U|^2, and the bound on what the sum omits "
                                  f"at most the tail tolerance {policy.tail_tolerance:g}; at K = {K} that bound is "
                                  f"{bound:.3g}", K, bound)


def _own_frame(state: StateSpec):
    """(framed, z0): _evaluate evaluates state as framed at the labels
    z - z0. W is covariant under displacement, W_psi(z) = W_(D(-z0) psi)(z - z0)
    (Cahill and Glauber, Phys. Rev. 177, 1882 (1969)), and
    D(-z0)|U> = exp(i Im(conj(z0) U)) |U - z0>. A state whose members are
    all coherent moves to the mean z0 of their labels: a bare |U> becomes
    the vacuum, where f = 1 and K = 0 at any |U|, and a cat keeps z0 = 0.
    A state with a Fock member keeps the origin, z0 = 0."""
    terms = _terms(state)
    if not all(isinstance(m, CoherentState) for _, m in terms):
        return state, 0j
    z0 = sum(m.u for _, m in terms) / len(terms)
    if not z0:
        return state, 0j
    moved = [(c * cmath.exp(1j * (z0.conjugate() * m.u).imag), CoherentState(m.u - z0)) for c, m in terms]
    return (moved[0][1] if isinstance(state, CoherentState) else _unchecked_superposition(moved)), z0


def _wigner_at(state: StateSpec, zz: np.ndarray, K: int, hbar: float) -> np.ndarray:
    """W at the 1-D labels zz, with no frame applied, to order K: the walk
    for a polynomial state up to WALK_DEGREE, _royer_form for every other."""
    deg = exact_degree(state)
    if deg is not None and deg <= WALK_DEGREE:
        return np.exp(-2.0 * (np.conj(zz) * zz).real) / (math.pi * hbar) * _series_sum(state, zz, K)
    return _royer_form(state, zz, K) / (math.pi * hbar)


def _evaluate(state: StateSpec, z: np.ndarray, policy: TruncationPolicy, hbar: float, order: int | None = None):
    """(values, K, z0): W of state at the finite labels z (a 1-D array or
    a 2-D lattice), the order K summed and the frame z0: the one series
    evaluation behind wigner_series and evaluate_grid. z is shifted in
    place (_own_frame), so the caller gives it up. K is choose_truncation's
    in the frame, or the given order, lowered to a polynomial state's
    degree; the degree is limited to 170 (n!-sized terms in float64). Every
    route is pointwise, so values do not depend on the blocks of
    BLOCK_POINTS that _wigner_at takes. A value not finite raises
    ValueError naming its label and K.
    """
    framed, z0 = _own_frame(state)
    if z0:
        z -= z0
    if order is not None and order < 0:
        raise ValueError(f"truncation order must be non-negative, got {order}")
    deg = exact_degree(framed)
    K = choose_truncation(framed, z, policy) if order is None else order if deg is None else min(order, deg)
    if deg is not None and K > 170:
        raise ValueError(f"{state!r} needs truncation order K = {K}; its terms hold n! in float64, "
                         "so K is limited to 170 (n! <= 170!)")
    values = np.empty(z.shape)
    zz, out = z.reshape(-1), values.reshape(-1)
    for lo in range(0, zz.size, BLOCK_POINTS):
        out[lo:lo + BLOCK_POINTS] = _wigner_at(framed, zz[lo:lo + BLOCK_POINTS], K, hbar)
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise ValueError(
            f"W of {state!r} at z = {complex(zz[bad[0]] + z0):.6g} is {float(out[bad[0]])!r} "
            f"at truncation order K = {K}"
        )
    return values, K, z0


def wigner_series(
    state: StateSpec,
    z,
    policy: TruncationPolicy | None = None,
    basis: BasisParams | None = None,
    order: int | None = None,
):
    """Wigner function of a catalog state (Fock, coherent of the basis
    width, or a finite superposition) at the complex label(s) z,
    sqrt(2) z = q/b + i b p / hbar: a float, or an array of the shape of z.

    policy (TruncationPolicy, default tail tolerance 1e-14) bounds what
    the truncated sum omits; basis supplies hbar; order fixes the
    truncation order in place of choose_truncation's, so every point sums
    orders 0 to order, in the state's own frame, and a polynomial state no
    further than its degree. A label, or a value, that is not finite
    raises ValueError naming it.

    A state whose members are all coherent is evaluated at the labels
    z - z0 in the frame of their mean label z0 (_own_frame), exactly: a
    bare CoherentState(U) as the vacuum, whose Taylor stack there is
    1, 0, 0, ..., so K = 0. Every other state is evaluated at z.
    """
    policy = policy or TruncationPolicy()
    basis = basis or BasisParams()

    z_in = np.array(z, dtype=complex)  # a copy: _evaluate shifts the labels in place
    zz = z_in.ravel()
    bad = np.flatnonzero(~np.isfinite(zz))
    if bad.size:
        where = str(list(map(int, np.unravel_index(bad[0], z_in.shape)))) if z_in.ndim else ""
        raise ValueError(f"phase-space label z{where} = {complex(zz[bad[0]]):.6g} is not finite")
    w = _evaluate(state, zz, policy, basis.hbar, order)[0].reshape(z_in.shape)
    return w if w.ndim else float(w)


def wigner_closed_fock(N: int, z, basis: BasisParams | None = None):
    """Closed form for Fock states:
    W_N = (-1)^N exp(-2|z|^2) L_N(4|z|^2) / (pi hbar)."""
    if N < 0:
        raise ValueError("Fock index must be non-negative")
    basis = basis or BasisParams()
    z = np.asarray(z, dtype=complex)
    u = (np.conj(z) * z).real
    w = (-1.0) ** N * np.exp(-2.0 * u) * laguerre(N, 4.0 * u) / (math.pi * basis.hbar)
    return w if np.ndim(w) else float(w)


def wigner_closed_coherent_gaussian(Q: float, P: float, B: float, q, p, hbar: float = 1.0):
    """Gaussian Wigner function of a coherent state of width B centered at
    (Q, P): exp(-(q-Q)^2/B^2 - B^2 (p-P)^2/hbar^2) / (pi hbar)."""
    if not B > 0:
        raise ValueError("state width B must be positive")
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    w = np.exp(-((q - Q) ** 2) / B**2 - B**2 * (p - P) ** 2 / hbar**2) / (math.pi * hbar)
    return w if np.ndim(w) else float(w)


def wigner_closed_coherent_crossb(U: complex, B: float, z, basis: BasisParams):
    """Coherent-state Wigner function written in the labels of an analysis
    basis whose width b need not match the state width B.

    The label of the state is U with sqrt(2) U = Q/B + i B P / hbar. The
    exponent collapses to -2|z - U|^2 when B = b, and for any b the value
    equals wigner_closed_coherent_gaussian at the physical point of (z, b).
    """
    if not B > 0:
        raise ValueError("state width B must be positive")
    b, hbar = basis.b, basis.hbar
    z = np.asarray(z, dtype=complex)
    zc = np.conj(z)
    Uc = np.conj(U)
    exponent = (
        (B**4 - b**4) / (2.0 * B**2 * b**2) * (z**2 + zc**2)
        - (B**4 + b**4) / (B**2 * b**2) * zc * z
        + (b**2 - B**2) / (B * b) * (z * U + zc * Uc)
        + (B**2 + b**2) / (B * b) * (z * Uc + zc * U)
        - 2.0 * Uc * U
    )
    w = np.exp(exponent.real) / (math.pi * hbar)
    return w if np.ndim(w) else float(w)
