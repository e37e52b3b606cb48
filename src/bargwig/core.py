"""Non-integral Wigner evaluation through the Hermitian quadratic form

    W(z, z*) = exp(-2|z|^2) / (pi hbar) * sum_{n,j} conj(V_n)/n! F_{n,j} V_j/j!

where V_k = d^k f/dz^k is the Bargmann derivative stack and F collects
terminating-2F0 kernel values. Two kernel variants are supported:

    standard: F_{n,j} = g_kernel(n, j, z)
              (= conj(z)^n z^j 2F0(-n,-j;;-1/|z|^2), regular at z = 0)
    scaled:   F~_{n,j} = 2F0(-n, -j; ; -1/|z|^2) with the z-powers moved
              into the coefficient vector, z^k V_k / k!  (singular at z = 0)

wigner_series evaluates every point with the standard kernel. The scaled
kernel is the same form written another way; it is kept as an independent
cross-check route (`--method series-scaled`, the variant-agreement check).

The 1/n! weights make the coefficient vector the Taylor stack of f at z;
with them the Fock states reproduce the Laguerre closed form exactly.
Every kernel entry is an associated Laguerre polynomial, so wigner_series
walks each diagonal of F with the Laguerre recurrence (O(K^2) work, real
by construction); build_F fills the matrix entry by entry and is the
reference the tests compare against.
Closed-form references for Fock and (cross-width) coherent states live here
as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phase import BasisParams
from .special import g_kernel, hyp2f0_terminating, laguerre, laguerre_ladder
from .states import StateSpec, bargmann, derivative_tower, exact_degree

__all__ = [
    "KernelMatrix",
    "TruncationPolicy",
    "TruncationError",
    "build_F",
    "choose_truncation",
    "wigner_series",
    "wigner_closed_fock",
    "wigner_closed_coherent_gaussian",
    "wigner_closed_coherent_crossb",
]

class TruncationError(RuntimeError):
    """Adaptive truncation could not meet the tail tolerance by max_order."""

    def __init__(self, message: str, tail_estimate: float):
        super().__init__(message)
        self.tail_estimate = tail_estimate


@dataclass(frozen=True)
class TruncationPolicy:
    """How many Bargmann derivatives to keep.

    mode "adaptive" uses the exact polynomial degree when the state has one
    and a decay-based tail estimate otherwise; mode "exact_degree" insists on
    a polynomial state. tail_tolerance is the absolute bound on the omitted
    tail in units of the global 1/(pi hbar) scale.
    """

    mode: str = "adaptive"
    max_order: int = 64
    tail_tolerance: float = 1e-12

    def __post_init__(self):
        if self.mode not in ("adaptive", "exact_degree"):
            raise ValueError(f"unknown truncation mode {self.mode!r}")
        if self.max_order < 1:
            raise ValueError("max_order must be at least 1")
        if not self.tail_tolerance > 0:
            raise ValueError("tail_tolerance must be positive")


@dataclass(frozen=True)
class KernelMatrix:
    """Kernel matrix of 2F0 values at a fixed point, truncated to order K.

    The standard variant is Hermitian with g_kernel entries; the scaled
    variant is real-symmetric with bare 2F0 entries.
    """

    z: complex
    entries: np.ndarray
    variant: str

    @property
    def order(self) -> int:
        return self.entries.shape[0] - 1


def build_F(z: complex, K: int, variant: str = "standard") -> KernelMatrix:
    """Kernel matrix for orders 0..K at the point z."""
    if K < 0:
        raise ValueError("truncation order must be non-negative")
    z = complex(z)
    if variant == "standard":
        entries = np.empty((K + 1, K + 1), dtype=complex)
        for n in range(K + 1):
            for j in range(n, K + 1):
                val = g_kernel(n, j, z)
                entries[n, j] = val
                entries[j, n] = np.conj(val)
        return KernelMatrix(z, entries, "standard")
    if variant == "scaled":
        if z == 0:
            raise ValueError("scaled variant singular at origin")
        x = -1.0 / abs(z) ** 2
        entries = np.empty((K + 1, K + 1), dtype=float)
        for n in range(K + 1):
            for j in range(n, K + 1):
                val = hyp2f0_terminating(n, j, x)
                entries[n, j] = val
                entries[j, n] = val
        return KernelMatrix(z, entries, "scaled")
    raise ValueError(f"unknown kernel variant {variant!r}")


def _inv_factorials(K: int) -> np.ndarray:
    return np.array([1 / math.factorial(k) for k in range(K + 1)])


def _tail_weights(absV: np.ndarray, r: np.ndarray, max_order: int) -> np.ndarray:
    """Per-order weights w_n = |V_n|/n! sqrt(Ghat_nn(r_eff)), where Ghat is
    the kernel with every coefficient taken positive,

        Ghat_nj(r) = sum_s n! j! / (s! (n-s)! (j-s)!) r^(n-s) r^(j-s),

    and r_eff = max(|z|, 1) absorbs both kernel variants' growth. The
    diagonal is Ghat_nn(r) = n! L_n(-r^2), a Laguerre polynomial at negative
    argument (all terms positive), taken from one laguerre_ladder pass.
    """
    r_eff = np.maximum(r, 1.0)
    w = np.empty_like(absV)
    for n, lag in enumerate(laguerre_ladder(max_order, 0, 1.0, -r_eff * r_eff)):
        w[n] = absV[n] * np.sqrt(lag / float(math.factorial(n)))
    return w


def choose_truncation(state: StateSpec, z, policy: TruncationPolicy) -> int:
    """Truncation order K for the quadratic form at the point(s) z.

    Polynomial Bargmann functions get their exact degree (the sum is then
    exact and max_order does not apply). Otherwise K is the smallest order
    whose omitted tail, estimated as below, meets policy.tail_tolerance.

    Tail bound. Ghat (see _tail_weights) is the Gram matrix
    Ghat_nj = sum_s s! A_sn A_sj of the non-negative A_sn = C(n, s) r^(n-s),
    so |G_nj| <= Ghat_nj <= sqrt(Ghat_nn Ghat_jj), and every entry of the
    quadratic form obeys |conj(c_n) G_nj c_j| <= w_n w_j. The entries that
    truncation at K omits are those with n > K or j > K, hence

        |omitted| <= exp(-2|z|^2) (S_inf^2 - S_K^2),   S_K = sum_{n<=K} w_n.

    The weights are known up to M = policy.max_order; the rest of S_inf is
    closed geometrically. A single-weight ratio w_M / w_(M-1) cannot serve:
    for a state of definite parity the odd (or even) derivatives vanish at
    z = 0, so near the origin consecutive weights alternate between two
    magnitudes and their ratio says nothing about the decay. The pair sums
    pi_k = w_(k-1) + w_k over consecutive orders are free of the
    alternation. With rho = pi_M / pi_(M-2), and assuming the ratio of
    successive pair sums does not grow beyond M (true once the Taylor
    coefficients decay faster than geometrically, as they do for every
    entire Bargmann function of the catalog), the pairs (M+1, M+2),
    (M+3, M+4), ... sum to at most pi_M rho^i, so

        sum_{n>M} w_n <= pi_M rho / (1 - rho).

    Where rho >= 0.99, or M < 3 leaves no earlier pair, the tail is not
    closable and the estimate is infinite.
    """
    deg = exact_degree(state)
    if deg is not None:
        return deg
    if policy.mode == "exact_degree":
        raise ValueError("state has no exact polynomial degree; use an adaptive policy")

    zz = np.asarray(z, dtype=complex).ravel()
    # Deterministic subsample, always keeping the worst |z| and worst |f|.
    if zz.size > 512:
        idx = set(range(0, zz.size, max(1, zz.size // 512)))
    else:
        idx = set(range(zz.size))
    f_all = np.abs(np.atleast_1d(bargmann(state, zz)))
    idx.add(int(np.argmax(np.abs(zz))))
    idx.add(int(np.argmax(f_all)))
    sample = zz[sorted(idx)]

    M = policy.max_order
    absV = np.abs(derivative_tower(state, sample, M).values)
    r = np.abs(sample)
    w = _tail_weights(absV, r, M)

    # Suffix tail via (S_inf^2 - S_K^2) with the pair-sum closure of S_inf.
    s_cum = np.cumsum(w, axis=0)
    last_pair = w[-2:].sum(axis=0)
    prev_pair = w[-4:-2].sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(prev_pair > 0, last_pair / prev_pair, np.inf)
    closable = ratio < 0.99
    s_tot = np.where(closable, s_cum[-1] + last_pair * ratio / np.maximum(1e-300, 1.0 - ratio), np.inf)
    s_tot = np.where(last_pair == 0, s_cum[-1], s_tot)

    prefactor = np.exp(-2.0 * r * r)
    est = prefactor * np.maximum(0.0, s_tot * s_tot - s_cum * s_cum)
    est_max = est.max(axis=1)
    meets = np.nonzero(est_max <= policy.tail_tolerance)[0]
    if meets.size == 0:
        raise TruncationError(
            f"adaptive truncation did not reach tail tolerance {policy.tail_tolerance:g} "
            f"by max_order {M}; achieved tail estimate {est_max[-1]:.3g}",
            tail_estimate=float(est_max[-1]),
        )
    return int(meets[0])


def _series_sum(state: StateSpec, zz: np.ndarray, K: int) -> np.ndarray:
    """Quadratic form sum_{n,j<=K} conj(c_n) G_nj c_j of the standard kernel
    at the points zz, with c_k = V_k/k! the Taylor stack of the state, in
    O(K^2) real vector operations.

    Along the diagonal j = n + a the kernel is G_(n,n+a) = g_n^(a) z^a, where
    g_n^(a) = n! (-1)^n L_n^(a)(y), y = |z|^2, follows the n!-scaled
    Laguerre recurrence

        g_(n+1) = (y - (2n+1+a)) g_n - n (n+a) g_(n-1),   g_0 = 1,

    which needs no division. The entries below the diagonal are the
    conjugates. With z = r u, |u| = 1, and the phase-rotated stack
    e_n = c_n u^n, z^a conj(c_n) c_(n+a) = r^a conj(e_n) e_(n+a), so the form
    is

        sum_a w_a r^a sum_n g_n^(a) Re(conj(e_n) e_(n+a)),   w_0 = 1, w_a = 2,

    a sum of real products; r^a enters once per diagonal, by Horner's rule.

    The powers u^n are built by repeated multiplication and each is divided
    by its own modulus before use: |u| = 1 holds only to an ulp, and the
    drift of |u^n| would scale every term of order n alike, which the
    cancellation in the form of a Fock state turns into lost digits.
    """
    V = derivative_tower(state, zz, K).values
    r = np.abs(zz)
    u = np.ones_like(zz)
    np.divide(zz, r, out=u, where=r > 0)
    er = np.empty(V.shape)
    ei = np.empty(V.shape)
    er[0], ei[0] = V[0].real, V[0].imag
    un = np.ones_like(zz)
    scale = np.empty(zz.shape)
    for n in range(1, K + 1):
        un *= u
        V[n] *= un
        np.abs(un, out=scale)
        scale *= math.factorial(n)
        np.divide(V[n].real, scale, out=er[n])
        np.divide(V[n].imag, scale, out=ei[n])
    del V

    y = r * r
    g = np.empty(er.shape)  # g[n] = g_n^(a) along the current diagonal
    g[0] = 1.0
    tmp = np.empty(zz.shape)
    diag = np.empty(zz.shape)
    total = np.zeros(zz.shape)
    for a in range(K, -1, -1):
        m = K + 1 - a
        if m > 1:
            np.subtract(y, 1 + a, out=g[1])
        for n in range(1, m - 1):
            np.subtract(y, 2 * n + 1 + a, out=tmp)
            tmp *= g[n]
            np.multiply(g[n - 1], n * (n + a), out=g[n + 1])
            np.subtract(tmp, g[n + 1], out=g[n + 1])
        np.einsum("nk,nk,nk->k", g[:m], er[:m], er[a:], out=diag)
        np.einsum("nk,nk,nk->k", g[:m], ei[:m], ei[a:], out=tmp)
        diag += tmp
        if a:
            total += diag
            total *= r
        else:
            total *= 2.0
            total += diag
    return total


def _scaled_series_sum(state: StateSpec, zz: np.ndarray, K: int) -> np.ndarray:
    """The form of _series_sum with the scaled kernel, the cross-check route.

    z^k moves into the stack, c_k z^k, and the kernel entries are the bare
    2F0 values n! l_n^(a), l_n^(a) the laguerre_ladder values at
    (s, t) = (-1/|z|^2, -1), so no phase factor remains:

        sum_n n! |c_n|^2 l_n^(0) + 2 Re sum_{a>=1} sum_n n! conj(c_n) c_(n+a) l_n^(a).

    Singular at z = 0.
    """
    c = derivative_tower(state, zz, K).values
    c *= _inv_factorials(K).reshape(-1, 1)
    zpow = np.ones_like(zz)
    for ck in c:
        ck *= zpow
        zpow = zpow * zz
    s = -1.0 / (np.conj(zz) * zz).real
    left = np.conj(c)
    left *= np.array([float(math.factorial(n)) for n in range(K + 1)]).reshape(-1, 1)

    total = np.zeros(zz.shape)
    for a in range(K + 1):
        inner = np.zeros_like(zz)
        for n, lag in enumerate(laguerre_ladder(K - a, a, s, -1.0)):
            inner += left[n] * c[n + a] * lag
        total += (1.0 if a == 0 else 2.0) * inner.real
    return total


def wigner_series(
    state: StateSpec,
    z,
    policy: TruncationPolicy | None = None,
    variant: str = "standard",
    basis: BasisParams | None = None,
    order: int | None = None,
):
    """Wigner function of a catalog state at the complex label(s) z.

    Parameters
    ----------
    state : StateSpec
        Fock, coherent (basis-width), or finite superposition.
    z : complex or ndarray
        Phase-space label(s), sqrt(2) z = q/b + i b p / hbar.
    policy : TruncationPolicy, optional
        Truncation control; default adaptive with tail 1e-12, cap 64.
    variant : {"standard", "scaled"}
        Kernel variant. "standard" is regular everywhere and is the
        evaluation route. "scaled" is the independent cross-check route; it
        is singular at z = 0.
    basis : BasisParams, optional
        Supplies hbar for the 1/(pi hbar) normalization.
    order : int, optional
        Fixed truncation order, bypassing choose_truncation (used by grid
        evaluation to keep one order across row blocks).

    Returns
    -------
    float or ndarray of the same shape as z.
    """
    policy = policy or TruncationPolicy()
    basis = basis or BasisParams()
    if variant not in ("standard", "scaled"):
        raise ValueError(f"unknown kernel variant {variant!r}")

    z_in = np.asarray(z, dtype=complex)
    zz = z_in.ravel()
    K = order if order is not None else choose_truncation(state, zz, policy)

    if variant == "scaled":
        if np.any(zz == 0):
            raise ValueError("scaled variant singular at origin")
        form = _scaled_series_sum(state, zz, K)
    else:
        form = _series_sum(state, zz, K)

    w = np.exp(-2.0 * (np.conj(zz) * zz).real) / (math.pi * basis.hbar) * form
    w = w.reshape(z_in.shape)
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
