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

    W(z) = 1/(pi hbar) sum_k (-1)^k |a_k|^2,   a_k = <k|D(-z)|psi>,

over the number amplitudes of the state displaced to z (states._displaced).
The |a_k|^2 sum to <psi|psi>, so the mass left after order K bounds, point
by point, what truncation there omits. _evaluate, behind wigner_series and
evaluate_grid, sums W block by block (_wigner_at) by one of three routes:
the walk at K = degree for a polynomial state up to WALK_DEGREE and for a
bare coherent state, the vacuum in its own frame (_own_frame); Royer's form
at 2z for a polynomial state of higher degree (_parity_form); and the
displaced-number sum, stopped point by point, for every other state
(_displaced_sum). Closed forms for Fock and coherent states live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phase import BasisParams
from .special import g_kernel, laguerre
from .states import CoherentState, StateSpec, _displaced, _stack, _terms, exact_degree, norm_squared

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

# Orders the displaced-number sum may take at a point; 306 certify a 5-fold
# superposition with |U| = 4 on its own window. A member at distance d from
# z has its mass near k = d^2, and exp(-d^2/2) underflows from d ~ 38.
ORDER_CAP = 400

# Highest degree the walk takes. On its own window, against 60-digit
# Laguerre values, it is 2.2e-15 off for fock(12) and 1.3e-14 for fock(16);
# _parity_form stays within 7e-16, at about 1.2 times the walk's cost.
WALK_DEGREE = 12

# Points summed per block, whatever the route: the walk keeps 3(K+1) + O(1)
# doubles a point, the displaced-number sum two dozen for a cat. 8192
# points lowered the 200^2 benchmark's peak RSS by half as much.
BLOCK_POINTS = 4096


class TruncationError(RuntimeError):
    """A point of the displaced-number sum was not certified by ORDER_CAP:
    point, its remaining_mass <psi|psi> - sum_(k<=order) |a_k|^2, the most
    of any point, and order, the last order summed."""

    def __init__(self, message: str, point: complex, remaining_mass: float, order: int):
        super().__init__(message)
        self.point = point
        self.remaining_mass = remaining_mass
        self.order = order


@dataclass(frozen=True)
class TruncationPolicy:
    """tail_tolerance, positive and finite, in units of 1/(pi hbar): the
    displaced-number sum stops at a point once the mass left,
    <psi|psi> - sum_(k<=K) |a_k|^2, which bounds what it omits, is at most
    this (_displaced_sum). Polynomial states are summed to their degree.

    The default is 1e-14, down from the 1e-12 of the shell walk this sum
    replaced. That bound overstated the omitted part about 100-fold, and
    the mass left does not: by the mass alone, at 1e-12, cat(1.1) on
    [-3, 3]^2 came out 7.7e-13 off, where the walk was 7e-15 off. With
    _displaced_sum's second condition it is 5e-16 off at 1e-14.
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


def _displaced_sum(state: StateSpec, zz: np.ndarray, K: int | None, tol: float):
    """(form, K reached): sum_k (-1)^k |a_k|^2 = pi hbar W at the 1-D labels
    zz, with no frame applied, to K at every point, or else point by point:
    to the first k where M - sum_(j<=k) |a_j|^2, M = <psi|psi> (a
    Superposition is normalized only to 1e-12), is at most
    max(tol, (k+1) 2^-53 M), an allowance for the mass sum's rounding, and
    |a_(k-1)|^2 + |a_k|^2 <= tol / 16. The first certifies the point: the
    terms left out sum to at most that mass in modulus. The second keeps
    the value steady where rounding (a global phase, say) moves the mass
    across the margin: it adds at most tol / 16 more (two terms, as a state
    of definite parity has every other a_k = 0 at its centre). A stopped
    point adds nothing more, so values do not depend on the other labels.
    TruncationError names the point with the most mass left at ORDER_CAP.
    """
    M = norm_squared(state)
    form, mass, p, prev = (np.zeros(zz.shape) for _ in range(4))
    live = np.ones(zz.shape, dtype=bool)
    for k, a in enumerate(_displaced(_terms(state), zz)):
        p, prev = prev, p
        np.multiply(a.real, a.real, out=p)
        p += a.imag * a.imag
        (np.subtract if k & 1 else np.add)(form, p, out=form, where=live)
        np.add(mass, p, out=mass, where=live)
        if K is None:
            live &= (mass < M - max(tol, (k + 1) * 2.0**-53 * M)) | (p + prev > tol / 16)
        if k == K or not live.any():
            return form, k
        if K is None and k == ORDER_CAP:
            left = np.where(live, M - mass, -np.inf)
            i = int(np.argmax(left))
            point = complex(zz[i])
            raise TruncationError(f"the displaced-number sum did not reach tail tolerance {tol:g} by the order "
                                  f"cap {k}: at z = {point:.6g} (|z| = {abs(point):.6g}) the mass left is "
                                  f"{left[i]:.3g}", point, float(left[i]), k)


def _parity_form(state: StateSpec, zz: np.ndarray, K: int) -> np.ndarray:
    """pi hbar W at the 1-D labels zz of a polynomial state, to order K:

        <psi|D(z) Pi D(-z)|psi> = <psi|D(2z) Pi|psi> = sum_k conj(<k|psi>) <k|D(2z)|Pi psi>,

    Pi|n> = (-1)^n |n>, which is finite, as <k|psi> = 0 beyond the degree.
    <k|D(2z)|Pi psi> are the amplitudes of Pi psi at the label -2z; they
    carry the Gaussian factor, so far out the sum is 0 where the walk
    overflows."""
    terms = _terms(state)
    total = np.zeros(zz.shape, dtype=complex)
    for k, b in zip(range(K + 1), _displaced([((-1) ** m.degree() * c, m) for c, m in terms], -2.0 * zz)):
        ck = sum(c for c, m in terms if m.degree() == k)
        if ck:
            total = total + b * np.conj(ck)
    return total.real


def choose_truncation(state: StateSpec, z, policy: TruncationPolicy) -> int:
    """Truncation order K at the point(s) z: a polynomial state's degree,
    else the largest order at which a point of z stops in the
    displaced-number sum at policy.tail_tolerance (TruncationError past
    ORDER_CAP). No frame is applied: validate's paper-form check compares
    the walk and build_F at this K, in the origin frame."""
    deg = exact_degree(state)
    if deg is not None:
        return deg
    zz = np.asarray(z, dtype=complex).ravel()
    return max((_displaced_sum(state, zz[lo:lo + BLOCK_POINTS], None, policy.tail_tolerance)[1]
                for lo in range(0, zz.size, BLOCK_POINTS)), default=0)


def _own_frame(state: StateSpec):
    """(framed, z0): _evaluate evaluates state as framed at the labels
    z - z0. W is covariant under displacement, W_|U>(z) = W_|0>(z - U)
    (Cahill and Glauber, Phys. Rev. 177, 1882 (1969)), so a bare coherent
    state |U> is the vacuum in its own frame, z0 = U, where f = 1 and K = 0
    at any |U|. Every other state keeps the origin, z0 = 0."""
    if isinstance(state, CoherentState) and state.u:
        return CoherentState(0), state.u
    return state, 0j


def _wigner_at(state: StateSpec, zz: np.ndarray, K: int | None, hbar: float, tol: float):
    """(W, K reached) at the 1-D labels zz, with no frame applied: the walk
    for a polynomial state up to WALK_DEGREE, _parity_form above it, and
    _displaced_sum, to K or else to tol point by point, for the rest."""
    deg = exact_degree(state)
    if deg is None:
        form, K = _displaced_sum(state, zz, K, tol)
    elif deg <= WALK_DEGREE:
        return np.exp(-2.0 * (np.conj(zz) * zz).real) / (math.pi * hbar) * _series_sum(state, zz, K), K
    else:
        form = _parity_form(state, zz, K)
    return form / (math.pi * hbar), K


def _evaluate(state: StateSpec, z: np.ndarray, policy: TruncationPolicy, hbar: float, order: int | None = None):
    """(values, K, z0): W of state at the finite labels z (a 1-D array or
    a 2-D lattice), the largest order K summed and the frame z0: the one
    series evaluation behind wigner_series and evaluate_grid. z is shifted
    in place (_own_frame), so the caller gives it up. A polynomial state
    sums to its degree, or to a lower given order, and the degree is
    limited to 170 (n!-sized terms in float64); any other state sums to
    the given order, or else point by point. Every route is pointwise, so
    values do not depend on the blocks of BLOCK_POINTS that _wigner_at
    takes. A value not finite raises ValueError naming its label and K.
    """
    framed, z0 = _own_frame(state)
    if z0:
        z -= z0
    if order is not None and order < 0:
        raise ValueError(f"truncation order must be non-negative, got {order}")
    deg = exact_degree(framed)
    K = order if deg is None else deg if order is None else min(order, deg)
    if deg is not None and K > 170:
        raise ValueError(f"{state!r} needs truncation order K = {K}; its terms hold n! in float64, "
                         "so K is limited to 170 (n! <= 170!)")
    values = np.empty(z.shape)
    zz, out = z.reshape(-1), values.reshape(-1)
    reached = K or 0
    for lo in range(0, zz.size, BLOCK_POINTS):
        out[lo:lo + BLOCK_POINTS], k = _wigner_at(framed, zz[lo:lo + BLOCK_POINTS], K, hbar, policy.tail_tolerance)
        reached = max(reached, k)
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise ValueError(
            f"W of {state!r} at z = {complex(zz[bad[0]] + z0):.6g} is {float(out[bad[0]])!r} "
            f"at truncation order K = {reached}"
        )
    return values, reached, z0


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

    policy (TruncationPolicy, default tail tolerance 1e-14) stops the
    displaced-number sum; basis supplies hbar; order fixes the truncation
    order in place of the point-by-point one, so every point sums orders 0
    to order, in the state's own frame, and a polynomial state no further
    than its degree. A label, or a value, that is not finite raises
    ValueError naming it.

    A bare CoherentState(U) is evaluated as the vacuum at the labels z - U
    (_own_frame), exactly, since W_|U>(z) = W_|0>(z - U); its Taylor stack
    there is 1, 0, 0, ..., so K = 0. Every other state is evaluated at z.
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
