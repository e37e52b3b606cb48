"""Non-integral Wigner evaluation through the Hermitian quadratic form

    W(z, z*) = exp(-2|z|^2) / (pi hbar) * sum_{n,j} conj(V_n)/n! F_{n,j} V_j/j!

where V_k = d^k f/dz^k is the Bargmann derivative stack and F collects
the terminating-2F0 kernel values

    F_{n,j} = g_kernel(n, j, z) = conj(z)^n z^j 2F0(-n, -j; ; -1/|z|^2),

a polynomial in z and conj(z), regular at z = 0: every entry is an
associated Laguerre polynomial. build_F tabulates F entry by entry, the
reference that the tests and validate's paper-form-agreement check compare
the walk against. The 1/n! weights make the coefficient vector the Taylor
stack of f at z. wigner_series takes that stack along the ray through z
(states._stack) and walks F along its diagonals (_series_sum: O(K^2)
work, real by construction); choose_truncation walks the same recurrences
up the shells of F in absolute values. _evaluate, behind wigner_series and
evaluate_grid, takes a bare coherent state to its own frame (_own_frame),
chooses and checks K, and walks flat blocks of BLOCK_POINTS. Closed-form
references for Fock and (cross-width) coherent states live here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phase import BasisParams
from .special import g_kernel, laguerre
from .states import CoherentState, StateSpec, _stack, bargmann, exact_degree

__all__ = [
    "MAX_ORDER",
    "TruncationPolicy",
    "TruncationError",
    "build_F",
    "choose_truncation",
    "wigner_series",
    "wigner_closed_fock",
    "wigner_closed_coherent_gaussian",
    "wigner_closed_coherent_crossb",
]

# Cap on the truncation order; choose_truncation tries MAX_ORDER // 2 first.
MAX_ORDER = 64

# Points walked per block, whatever K is. The walk keeps about 3(K+1) + O(1)
# doubles per point (the Taylor stack and one kernel diagonal), so a block
# holds 8 (3(K+1) + O(1)) BLOCK_POINTS bytes: at most 2.2 MB on the catalog
# (K <= 21), 6.5 MB at K = MAX_ORDER and 17 MB at K = 170. 8192 points
# lowered the 200^2 benchmark's peak RSS by half as much.
BLOCK_POINTS = 4096


class TruncationError(RuntimeError):
    """Adaptive truncation could not meet the tail tolerance by MAX_ORDER.

    tail_estimate is the estimate at MAX_ORDER, and point the sampled z
    where it is worst.
    """

    def __init__(self, message: str, tail_estimate: float, point: complex):
        super().__init__(message)
        self.tail_estimate = tail_estimate
        self.point = point


@dataclass(frozen=True)
class TruncationPolicy:
    """How many Bargmann derivatives to keep: the exact polynomial degree
    when the state has one, else the smallest order whose omitted tail is
    at most tail_tolerance, an absolute bound in units of the global
    1/(pi hbar) scale, positive and finite.
    """

    tail_tolerance: float = 1e-12

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


def _main_diagonal(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g with g[n] = g_n^(0) = n! (-1)^n L_n(y) for n < len(g), filled in
    place by the three-term recurrence of _series_sum."""
    g[0] = 1.0
    if len(g) > 1:
        np.subtract(y, 1.0, out=g[1])
    tmp = np.empty_like(y)
    for n in range(1, len(g) - 1):
        np.subtract(y, 2 * n + 1, out=g[n + 1])
        g[n + 1] *= g[n]
        np.multiply(g[n - 1], n * n, out=tmp)
        g[n + 1] -= tmp
    return g


def _shell_weights(state: StateSpec, zz: np.ndarray, r: np.ndarray):
    """Yield R_m = sum over max(n, j) = m of |t_n| |G_nj| |t_j| at the points
    zz, r = |zz|, for m = 0, 1, ..., MAX_ORDER. The moduli |t_k| of the
    ray stack are built to MAX_ORDER // 2 and again to MAX_ORDER once the
    walk passes that shell, so a walk that stops there holds arrays of half
    the cap. With g_n^(a) as in _series_sum, h[n] = r^(m-n) g_n^(m-n)
    holds shell m, and |G_(n,m)| = |h[n]|. The identity g_n^(a+1) =
    g_n^(a) - n g_(n-1)^(a+1) steps every entry off the diagonal from the
    shell before, h_m[n] = r h_(m-1)[n] - n h_(m-1)[n-1], and h_m[m] =
    g_m^(0) comes from _main_diagonal, as in _series_sum (filled at each of
    the two stages): a fixed number of array operations per shell.
    """
    absc = h = np.empty((0, r.size))
    n = np.arange(1.0, MAX_ORDER + 1)[:, None]
    for m in range(MAX_ORDER + 1):
        if m == len(absc):
            t = _stack(state, zz, MAX_ORDER if m else MAX_ORDER // 2, ray=True)
            absc = np.sqrt(np.einsum("kcn,kcn->kn", t, t))  # 8x faster than np.hypot, no complex copy
            del t  # free the stack: the walk needs only its moduli
            diag = _main_diagonal(r * r, np.empty_like(absc))
            h = np.concatenate((h, np.empty((len(absc) - m, r.size))))
            tmp = np.empty_like(h)
        if m:
            np.multiply(h[:m - 1], n[:m - 1], out=tmp[:m - 1])
            h[:m] *= r
            h[1:m] -= tmp[:m - 1]
        h[m] = diag[m]
        np.abs(h[:m + 1], out=tmp[:m + 1])
        s = np.einsum("nk,nk->k", absc[:m + 1], tmp[:m + 1])
        yield absc[m] * (2.0 * s - absc[m] * tmp[m])


def _closed_tail(R: np.ndarray, r: np.ndarray) -> np.ndarray:
    """est[K, i], K = 0..M, from the shell weights R[m, i], m = 0..M:
    exp(-2 r^2) sum_{m>K} R_m, closed beyond M >= 3 by pair sums."""
    M = len(R) - 1
    last_pair = R[M - 1:].sum(axis=0)
    prev_pair = R[M - 3:M - 1].sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(prev_pair > 0, last_pair / prev_pair, np.inf)
        beyond = np.where(ratio < 0.99, last_pair * ratio / (1.0 - ratio), np.inf)
    beyond[last_pair == 0] = 0.0

    # tail[K] = sum_{m>K} R_m, summed from the top so small tails keep their digits.
    tail = np.cumsum(np.concatenate((beyond[None], R[:0:-1])), axis=0)[::-1]
    # An infinite tail stays infinite where exp(-2 r^2) underflows to 0 (|z| >~ 27).
    return np.multiply(np.exp(-2.0 * r * r), tail, out=tail, where=np.isfinite(tail))


def _tail_estimate(state: StateSpec, zz: np.ndarray, M: int) -> np.ndarray:
    """est[K, i], K = 0..M: the bound of choose_truncation, closed at M, on
    what truncation at K omits of W at zz[i], in units of 1/(pi hbar)."""
    r = np.abs(zz)
    return _closed_tail(np.array([R_m for R_m, _ in zip(_shell_weights(state, zz, r), range(M + 1))]), r)


def _truncation_sample(state: StateSpec, z) -> np.ndarray:
    """The points of z at which choose_truncation bounds the tail, in the
    order of z.ravel(); its docstring describes the sample."""
    z = np.asarray(z, dtype=complex)
    zz = z.ravel()
    # The largest |z| and |f| are sought on zz itself, or on a lattice's edge
    # kept in ravel order, so a tie resolves to the first index a full scan finds.
    pts = zz
    if z.ndim == 2:
        edge = np.arange(zz.size).reshape(z.shape)
        edge = np.unique(np.concatenate((edge[0], edge[-1], edge[:, 0], edge[:, -1])))
        pts = zz[edge]
    far, peak = np.argmax(np.abs(pts)), np.argmax(np.abs(bargmann(state, pts)))
    if z.ndim == 2:
        far, peak = edge[far], edge[peak]
    stride = np.arange(0, zz.size, max(1, zz.size // 512))
    return zz[np.unique(np.append(stride, (far, peak)))]


def choose_truncation(state: StateSpec, z, policy: TruncationPolicy) -> int:
    """Truncation order K for the quadratic form at the point(s) z.

    Polynomial Bargmann functions get their exact degree (the sum is then
    exact and the cap MAX_ORDER does not apply). Otherwise K is the smallest
    order up to MAX_ORDER whose omitted part, bounded as below on a sample
    of the points, meets policy.tail_tolerance.

    Sample (_truncation_sample). About 512 points of z at a fixed stride,
    the point of largest |z| and the point of largest |f|. When z is a 2-D
    lattice, as evaluate_grid passes it, those two points are sought on the
    lattice's first and last rows and columns only: f is entire, so by the
    maximum modulus principle |f| over the window peaks on its boundary,
    and |z|^2 = q^2/(2 b^2) + b^2 p^2/(2 hbar^2) is convex in (q, p), so it
    too peaks there. A 1-D z, as wigner_series passes it, is scanned in
    full.

    Bound. Group the entries of the form by the shell m = max(n, j) and
    take absolute values, R_m = sum over the shell of |t_n| |G_nj| |t_j|
    (t and G as in _series_sum, walked by _shell_weights). In units of
    1/(pi hbar) the entries that truncation at K omits sum to at most

        exp(-2 r^2) sum_{m>K} R_m,   r = |z|.

    Closure beyond M. R_m is known up to the last shell walked, M (see Two
    tries), and the rest of the tail is closed geometrically. A single
    ratio R_M / R_(M-1) cannot serve: for a state of definite parity the
    odd (or even) derivatives vanish at z = 0, so near the origin |t_m| is
    O(r) at every other m, and G_(n,n+a) carries z^a, so R_m alternates
    between an O(1) and an O(r^2) magnitude (at z = 0, R_m = m! |t_m|^2 is
    exactly 0 at every other m). Each pair sum pi_k = R_(k-1) + R_k holds
    one even and one odd order and is free of the alternation. With
    rho = pi_M / pi_(M-2), and assuming the ratio of successive pair sums
    does not grow beyond M, the pairs (M+1, M+2), (M+3, M+4), ... sum to at
    most pi_M rho^i, so

        sum_{m>M} R_m <= pi_M rho / (1 - rho).

    The assumption holds once the Taylor coefficients decay faster than
    geometrically, as for every entire Bargmann function of the catalog
    (|t_k| = |f| |beta|^k / k! for coherent(beta)), except where the stack
    is sparse (see the last paragraph). Where rho >= 0.99 the estimate is
    infinite.

    Two tries, one walk. The closure is tried first at shell 32, half the
    cap MAX_ORDER = 64, and the walk goes on to shell 64 only if no K <= 32
    meets the tolerance there; no shell is walked twice, and the second
    try rebuilds only the moduli |t_k|, to 64. Write est_M(K) for the
    estimate closed at M, without the factor exp(-2 r^2) that every M
    shares, and B_M = pi_M rho_M / (1 - rho_M) for its closure. For K <= 32,

        est_32(K) - est_64(K) = B_32 - (sum_{32<m<=64} R_m + B_64).

    Let rho = rho_32. If the ratio of successive pair sums does not grow
    beyond 32 (the closure's assumption, taken at 32), then
    pi_(32+2i) <= pi_32 rho^i for i >= 1 and rho_64 <= rho, so

        sum_{32<m<=64} R_m = sum_{i=1..16} pi_(32+2i) <= pi_32 (rho + ... + rho^16),
        B_64 <= pi_32 rho^16 rho / (1 - rho) = pi_32 (rho^17 + rho^18 + ...),

    and the two together are at most pi_32 rho / (1 - rho) = B_32 (with
    rho >= 0.99, B_32 is infinite). Hence est_32(K) >= est_64(K) at every
    sampled point and every K <= 32, up to rounding: the first try never
    returns a K below the cap's K. It returns a larger K only where B_32
    overstates the tail beyond 32 by more than the margin left at the
    cap's K; on the catalog lattices, coherent states out to |U| = 3 and
    superpositions with a weak far member (K from 10 to 56), the two agree
    (tests/test_core.py, TestTwoTrySearch). Shell m costs O(m) per point,
    so the walk to 32 is about a quarter of the walk to the cap.

    Only these two shells are checked. The argument holds for any two even
    shells, but each shell checked is one more place where the closure's
    assumption can fail, and it fails where the Taylor stack is sparse: at
    the centre of a p-fold symmetric superposition of coherent states t_k
    vanishes unless p divides k, so for p >= 3 a pair sum can be 0 while
    later ones are not, and the closure drops them. Checked at every even
    shell, three members of modulus 2 at z = 0 stop at shell 8 with W 0.04
    off in units of 1/(pi hbar); the two tries get it right, but at shell
    32 they too drop R_33 of three members of modulus 4, 2e-4 off
    (TestTwoTrySearch::test_sparse_taylor_stack).

    Raises TruncationError, carrying the estimate at the cap and the
    sampled point where it is worst, when no K <= MAX_ORDER meets it.
    """
    deg = exact_degree(state)
    if deg is not None:
        return deg
    if not np.size(z):
        return 0  # no point, nothing omitted

    sample = _truncation_sample(state, z)
    r = np.abs(sample)
    shells = _shell_weights(state, sample, r)
    R = []
    for M in (MAX_ORDER // 2, MAX_ORDER):
        R += [next(shells) for _ in range(len(R), M + 1)]
        est = _closed_tail(np.array(R), r)
        est_max = est.max(axis=1)
        meets = np.nonzero(est_max <= policy.tail_tolerance)[0]
        if meets.size:
            return int(meets[0])
    point = complex(sample[np.argmax(est[M])])
    raise TruncationError(
        f"adaptive truncation did not reach tail tolerance {policy.tail_tolerance:g} "
        f"by the order cap {M}: at z = {point:.6g} (|z| = {abs(point):.6g}) the tail "
        f"estimate is {est_max[M]:.3g}",
        tail_estimate=float(est_max[M]),
        point=point,
    )


def _series_sum(state: StateSpec, zz: np.ndarray, K: int) -> np.ndarray:
    """Quadratic form sum_{n,j<=K} conj(c_n) G_nj c_j of the kernel
    at the points zz, with c_k = V_k/k! the Taylor stack of the state, in
    O(K^2) real vector operations.

    Along the diagonal j = n + a the kernel is G_(n,n+a) = g_n^(a) z^a, where
    g_n^(a) = n! (-1)^n L_n^(a)(y), y = |z|^2; the entries below the
    diagonal are the conjugates. With z = r u, |u| = 1 (u = 1 at z = 0),
    the stack along the ray t_n = c_n u^n gives
    z^a conj(c_n) c_(n+a) = r^a conj(t_n) t_(n+a), so the form is

        sum_a w_a r^a sum_n g_n^(a) Re(conj(t_n) t_(n+a)),   w_0 = 1, w_a = 2,

    a sum of real products.

    The kernel is stepped in its Laguerre index. Only the a = 0 diagonal
    runs the three-term recurrence: multiplying
    (n+1) L_(n+1) = (2n+1+a-y) L_n - (n+a) L_(n-1) by (-1)^(n+1) n! gives

        g_(n+1) = (y - (2n+1+a)) g_n - n (n+a) g_(n-1),   g_0 = 1,

    with no division. Each later diagonal follows from the one before by
    L_n^(a) = L_n^(a+1) - L_(n-1)^(a+1) (DLMF section 18.9); multiplying
    L_n^(a+1) = L_n^(a) + L_(n-1)^(a+1) by n! (-1)^n,

        g_n^(a+1) = g_n^(a) - n g_(n-1)^(a+1),   g_0^(a+1) = 1.

    Taken upward in n, this overwrites diagonal a with diagonal a+1 in
    place: two vector operations per entry, no division and no new array.
    r^a is built by running product as a rises.
    """
    t = _stack(state, zz, K, ray=True)
    r = np.abs(zz)
    y = r * r
    g = _main_diagonal(y, np.empty((K + 1,) + zz.shape))  # g[n] = g_n^(a) along the current diagonal
    tmp = np.empty(zz.shape)
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


def _own_frame(state: StateSpec):
    """(framed, z0): _evaluate evaluates state as the state framed at the
    labels z - z0.

    W is covariant under displacement, W_|U>(z) = W_|0>(z - U) (Cahill and
    Glauber, Phys. Rev. 177, 1882 (1969)): D(-U)|U> is the vacuum up to a
    global phase, which W does not see. So a bare coherent state |U> is the
    vacuum in its own frame, z0 = U, where f = 1 and K = 0 at any |U|.
    Every other state, anything with a Fock member and any superposition,
    keeps the origin, z0 = 0.
    """
    if isinstance(state, CoherentState) and state.u:
        return CoherentState(0), state.u
    return state, 0j


def _wigner_at(state: StateSpec, zz: np.ndarray, K: int, hbar: float) -> np.ndarray:
    """W at the 1-D labels zz from the form walked to order K, with no
    frame applied: exp(-2|z|^2) / (pi hbar) times _series_sum."""
    form = _series_sum(state, zz, K)
    return np.exp(-2.0 * (np.conj(zz) * zz).real) / (math.pi * hbar) * form


def _evaluate(state: StateSpec, z: np.ndarray, policy: TruncationPolicy, hbar: float, order: int | None = None):
    """(values, K, z0): W of state at the finite labels z (a 1-D array or
    a 2-D lattice), the order K walked and the frame z0. The one series
    evaluation behind wigner_series and evaluate_grid, in four steps:

    1. frame (_own_frame): z is shifted in place, so the caller gives it up;
    2. order: the given one, else choose_truncation(framed, z), which takes
       a 2-D z as a lattice and scans a 1-D z in full;
    3. range: 0 to 170, as the walk holds n! in float64, and no more than a
       polynomial state's degree: exact, as the entries beyond it are 0, and
       at large |z| their overflowed kernel values would give inf * 0 = nan;
    4. walk: _wigner_at on flat blocks of BLOCK_POINTS points. K is fixed
       first and the walk is pointwise, so values do not depend on blocks.

    A value still not finite raises ValueError naming its label, K and it.
    """
    framed, z0 = _own_frame(state)
    if z0:
        z -= z0
    K = order if order is not None else choose_truncation(framed, z, policy)
    if K < 0:
        raise ValueError(f"truncation order must be non-negative, got {K}")
    if K > 170:
        raise ValueError(
            f"{state!r} needs truncation order K = {K}; the series holds n! in float64, "
            "so K is limited to 170 (n! <= 170!)"
        )
    deg = exact_degree(framed)
    if deg is not None:
        K = min(K, deg)

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
    """Wigner function of a catalog state at the complex label(s) z.

    Parameters
    ----------
    state : StateSpec
        Fock, coherent (basis-width), or finite superposition.
    z : complex or ndarray
        Phase-space label(s), sqrt(2) z = q/b + i b p / hbar; a label that
        is not finite raises ValueError, naming the first such label.
    policy : TruncationPolicy, optional
        Truncation control; default tail tolerance 1e-12.
    basis : BasisParams, optional
        Supplies hbar for the 1/(pi hbar) normalization.
    order : int, optional
        Fixed truncation order, 0 to 170, in place of choose_truncation's.
        Like that order, it is the order in the state's own frame (below),
        and a polynomial state walks no further than its exact degree.

    Returns
    -------
    float or ndarray of the same shape as z. A value that is not finite
    raises ValueError naming its label and the order.

    Frame. A bare CoherentState(U) is evaluated as the vacuum at the labels
    z - U (_own_frame), exactly, since W_|U>(z) = W_|0>(z - U); there the
    Taylor stack is 1, 0, 0, ..., so K = 0 is exact. Every other state is
    evaluated at z itself.
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
