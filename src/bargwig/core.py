"""Non-integral Wigner evaluation through the Hermitian quadratic form

    W(z, z*) = exp(-2|z|^2) / (pi hbar) * sum_{n,j} conj(V_n)/n! F_{n,j} V_j/j!

with V_k = d^k f/dz^k the Bargmann derivative stack and F_{n,j} =
g_kernel(n, j, z) = conj(z)^n z^j 2F0(-n, -j; ; -1/|z|^2), an associated
Laguerre polynomial regular at z = 0. build_F tabulates F entry by entry,
the reference that validate's paper-form-agreement check compares the
evaluated W against.

The form has a second exact factorization, N^-1 F N^-1 = exp(|z|^2) B^+ S B
with N = diag(n!), B_kj = C(k, j) (-conj(z))^(k-j), S = diag((-1)^k / k!).
By it the form is Royer's displaced parity (Phys. Rev. A 15, 449 (1977)),

    W(z) = 1/(pi hbar) <psi|D(2z) Pi|psi> = 1/(pi hbar) Re sum_k (-1)^k conj(a_k(0)) a_k(2z),

over the number amplitudes a_k(w) = <k|D(-w)|psi> of the state displaced
to w (states._displaced). a_k(0) = <k|psi> does not depend on z, so one
order K, chosen per state (choose_truncation), bounds what truncation
omits at every point. _evaluate, behind wigner_series and evaluate_grid,
moves the state to its own frame (_own_frame) and sums W block by block
(_wigner_at) by this form, on one of two sets of amplitudes. A polynomial
state, a bare coherent state among them as the vacuum in its own frame,
sums it on its own amplitudes <k|psi>, fixed vectors, with one Laguerre
recurrence per offset k - n (_number_form); every other state sums the
a_k(2z) (_royer_form). Closed forms for Fock and coherent states live here
too.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .phase import BasisParams
from .special import g_kernel, laguerre
from .states import (CoherentState, FockState, StateSpec, _displaced, _terms, _unchecked_superposition, exact_degree,
                     norm_squared, overlap)

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

# Degrees a polynomial state may take. fock(300) is finite at every label
# (0 <= |z| <= 40, step 1e-4); fock(309) is not: near |z| = 19.27,
# L_N(4|z|^2) overflows float64 before exp(-2|z|^2) underflows.
MAX_DEGREE = 300

# Points summed per block, whatever the route. _number_form keeps 13 to 17
# doubles a point at any degree (fock(12), fock(100), the sum of |0> to
# |12>), _royer_form about two dozen for a cat (tracemalloc, one block).
# 8192 points lowered the 200^2 benchmark's peak RSS by half as much.
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
    point z, filled entry by entry: the paper's side of validate's
    paper-form-agreement check."""
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


def _royer_form(state: StateSpec, zz: np.ndarray, K: int) -> np.ndarray:
    """pi hbar W at the 1-D labels zz, with no frame applied, to order K:

        <psi|D(z) Pi D(-z)|psi> = <psi|D(2z) Pi|psi> = Re sum_k (-1)^k conj(a_k(0)) a_k(2z),

    Pi|k> = (-1)^k |k>, a_k(w) = <k|D(-w)|psi> from states._displaced.
    a_k(0) = <k|psi> = sqrt(k!) conj(c_k), with c_k the paper's Taylor stack
    at the origin, is the same at every point, so choose_truncation cuts
    the sum once per state. a_k(0) rides along in the same call as the
    label w = 0, so a point's value does not depend on the block. Every
    term is at most |a_k(0)| |a_k(2z)| in modulus, and the a_k(2z) carry
    the Gaussian factor, so far out the sum is 0."""
    w = np.concatenate(([0j], 2.0 * zz))
    form = np.zeros(w.shape)
    for k, a in zip(range(K + 1), _displaced(_terms(state), w)):
        s = (-1) ** k * np.conj(a[0])
        if s:
            form += s.real * a.real - s.imag * a.imag
    return form[1:]


def _number_form(state: StateSpec, zz: np.ndarray, K: int) -> np.ndarray:
    """pi hbar W at the 1-D labels zz of a polynomial state, with no frame
    applied, from its number amplitudes c_k = <k|psi>, k <= K: Royer's form
    at 2z, Re sum_(k,n) (-1)^k conj(c_k) c_n <k|D(-2z)|n>, over the matrix
    elements of FockState.displaced, x = 4|z|^2. The pairs k = n + a and
    n = k + a give one real sum over the offsets a,

        exp(-x/2) sum_a w_a Re[(2z)^a sum_n (-1)^n conj(c_(n+a)) c_n sqrt(n!/(n+a)!) L_n^(a)(x)],

    w_0 = 1, w_a = 2. c is taken once per call (states.overlap). Each
    offset runs one upward Laguerre recurrence in n, that of
    special.laguerre operation for operation, up to the last n with
    c_n c_(n+a) != 0; an offset with no such pair is skipped, and no offset
    past the last one used is reached. sqrt(n!/(n+a)!) is a running
    product, and so is exp(-x/2) (2z)^a: where the Gaussian underflows the
    value is 0, and x and z are set to 0 there, so neither L(x) nor (2z)^a
    can overflow to give nan.
    Below a state's degree, K keeps the c_k up to k = K. For fock(N) the
    value is wigner_closed_fock's, bitwise."""
    c = [complex(overlap(FockState(k), state)) for k in range(K + 1)]
    pairs = [[n for n in range(K + 1 - a) if c[n] and c[n + a]] for a in range(K + 1)]
    last = max((a for a in range(K + 1) if pairs[a]), default=-1)
    u = (np.conj(zz) * zz).real
    x = 4.0 * u
    power = np.exp(-2.0 * u) + 0j  # exp(-x/2) (2z)^a
    far = power.real == 0
    x[far] = 0.0
    two_z = 2.0 * np.where(far, 0j, zz)  # 2z may overflow there, and 0 inf is nan
    total = np.zeros(zz.shape)
    tmp = np.empty(zz.shape)
    root = 1.0  # sqrt(0!/a!)
    for a in range(last + 1):
        if a:
            power = power * two_z  # a new array: in place, a length-1 product rounds by another loop
            root /= math.sqrt(a)
        if not pairs[a]:
            continue
        prev, cur = np.empty(zz.shape), np.ones(zz.shape)  # L_(n-1)^(a), L_n^(a)
        parts = np.zeros((2,) + zz.shape)  # Re and Im of the sum over n
        scale = root  # sqrt(n!/(n+a)!)
        for n in range(pairs[a][-1] + 1):
            if n:
                scale *= math.sqrt(n / (n + a))
                prev, cur = cur, prev
            if n == 1:
                np.subtract(1 + a, x, out=cur)
            elif n > 1:
                # L_n = ((2n-1+a - x) L_(n-1) - (n-1+a) L_(n-2)) / n, into the buffer of L_(n-2)
                np.subtract(2 * n - 1 + a, x, out=tmp)
                tmp *= prev
                cur *= n - 1 + a
                np.subtract(tmp, cur, out=cur)
                cur /= n
            if c[n] and c[n + a]:
                beta = (-1) ** n * c[n + a].conjugate() * c[n] * scale
                for part, b in zip(parts, (beta.real, beta.imag)):
                    if b:
                        np.multiply(cur, b, out=tmp)
                        part += tmp
        # w_a Re[exp(-x/2) (2z)^a S_a], S_a the sum over n
        parts[0] *= power.real
        parts[1] *= power.imag
        parts[0] -= parts[1]
        if a:
            parts[0] *= 2.0
        total += parts[0]
    return total


def choose_truncation(state: StateSpec, z, policy: TruncationPolicy) -> int:
    """Truncation order K of state, one for every point: z is not read. A
    polynomial state's degree; else the first K that is at least each Fock
    member's degree and 2|U|^2 of each coherent member |U>, with

        sqrt(2 <psi|psi>) g_(K+1) <= policy.tail_tolerance,   g_k = sum_m |c_m| |<k|psi_m>|.

    g_k bounds |a_k(0)|. Past 2|U|^2, |<k+1|U>| <= |<k|U>| / sqrt(2), so the
    a_k(0) beyond K hold at most 2 g_(K+1)^2, and by Cauchy-Schwarz what
    _royer_form leaves out is at most the left side at every z, as the
    a_k(2z) hold at most <psi|psi>. TruncationError past ORDER_CAP. No
    frame is applied: validate's paper-form check sums build_F's form at
    this K, in the origin frame."""
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
    """W at the 1-D labels zz, with no frame applied, to order K: Royer's
    form at 2z, on the state's own number amplitudes (_number_form) for a
    polynomial state, the vacuum frame of a coherent state among them, and
    on the displaced amplitudes (_royer_form) for every other."""
    form = _royer_form if exact_degree(state) is None else _number_form
    return form(state, zz, K) / (math.pi * hbar)


def _evaluate(state: StateSpec, z: np.ndarray, policy: TruncationPolicy, hbar: float, order: int | None = None):
    """(values, K, z0): W of state at the finite labels z (a 1-D array or
    a 2-D lattice), the order K summed and the frame z0: the one series
    evaluation behind wigner_series and evaluate_grid. z is shifted in
    place (_own_frame), so the caller gives it up. K is choose_truncation's
    in the frame, or the given order, lowered to a polynomial state's
    degree; below the degree a polynomial state sums its amplitudes <k|psi>
    up to k = K. A polynomial state's K is limited to MAX_DEGREE: past it
    the Laguerre values of _number_form overflow float64 where the
    Gaussian has not yet underflowed. Every route is pointwise, so values
    do not depend on the blocks of BLOCK_POINTS that _wigner_at takes. A
    value not finite raises ValueError naming its label and K.
    """
    framed, z0 = _own_frame(state)
    if z0:
        z -= z0
    if order is not None and order < 0:
        raise ValueError(f"truncation order must be non-negative, got {order}")
    deg = exact_degree(framed)
    K = choose_truncation(framed, z, policy) if order is None else order if deg is None else min(order, deg)
    if deg is not None and K > MAX_DEGREE:
        raise ValueError(f"{state!r} needs truncation order K = {K}; a polynomial state's K is limited to "
                         f"{MAX_DEGREE}, past which L_K(4|z|^2) overflows float64 before exp(-2|z|^2) underflows")
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
