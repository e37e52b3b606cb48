"""Non-integral Wigner evaluation through the Hermitian quadratic form

    W(z, z*) = exp(-2|z|^2) / (pi hbar) * sum_{n,j} conj(V_n)/n! F_{n,j} V_j/j!

with V_k = d^k f/dz^k the Bargmann derivative stack and F_{n,j} =
conj(z)^n z^j 2F0(-n, -j; ; -1/|z|^2), an associated Laguerre polynomial
regular at z = 0. build_F states that kernel and tabulates F a band at a
time, each band over an array of points at once, the reference that
validate's paper-form-agreement check compares the evaluated W against.

The form has a second exact factorization, N^-1 F N^-1 = exp(|z|^2) B^+ S B
with N = diag(n!), B_kj = C(k, j) (-conj(z))^(k-j), S = diag((-1)^k / k!).
By it the form is Royer's displaced parity (Phys. Rev. A 15, 449 (1977)),

    W(z) = 1/(pi hbar) <psi|D(2z) Pi|psi>,

bilinear in the state. _evaluate, behind wigner_series and evaluate_grid,
sums it (_pair_form) as a double sum over the members of a catalog state,
each pair's term in closed form: a Fock pair gives the paper's own
Laguerre kernel, summed over the number amplitudes <k|psi> with
special.laguerre_steps at each offset k - n (_number_form); a coherent
pair gives one Gaussian, a factor of Re z times one of Im z, so a grid is
summed on its axes; a Fock-coherent pair gives one coherent amplitude.
Nothing is truncated. choose_truncation picks the order K at which
validate cuts the paper's side, build_F's form, for a state with a
coherent member. Closed forms for Fock and coherent states live here too.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .phase import BasisParams
from .special import coherent_amplitudes, laguerre, laguerre_steps
from .states import (MAX_DEGREE, CoherentState, FockState, StateSpec, _refuse_past_max_degree, _terms,
                     _unchecked_superposition, exact_degree, norm_squared, overlap)

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
# near k = |U|^2, and the cut needs K >= 2|U|^2: |U| > 14.1 is past it. A
# 5-fold superposition with |U| = 4 takes K = 79.
ORDER_CAP = 400

# Points summed per block (_rows). As tracemalloc sees one block of a grid,
# the sum keeps about 10 doubles a point for a Fock state at any degree, 15
# for the sum of |0> to |12>, 3 for a coherent state, 6.5 for a cat and for
# 8 or 64 coherent members, 25 for fock(5) + coherent(2 - i) + fock(0); of
# scattered labels 13 to 23. 8192 lowered the 200^2 peak RSS half as much.
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


def build_F(z, K: int) -> np.ndarray:
    """The Hermitian kernel matrix F at the point(s) z, shape
    (K+1, K+1) + shape(z): the paper's side of validate's
    paper-form-agreement check. Its entries are the terminating 2F0 series
    in its polynomial form, regular at z = 0: for a >= 0,

        F_(m,m+a) = conj(z)^m z^(m+a) 2F0(-m, -m-a; ; -1/|z|^2) = (-1)^m m! L_m^(a)(|z|^2) z^a,

    and F_(m+a,m) = conj(F_(m,m+a)), so the diagonal is exactly real. F is
    filled a band a at a time, over every point at once: one
    special.laguerre_steps run of degree K - a gives the band's m = 0..K-a."""
    if K < 0:
        raise ValueError(f"truncation order must be non-negative, got {K!r}")
    z = np.asarray(z, dtype=complex)
    x = (np.conj(z) * z).real
    entries = np.empty((K + 1, K + 1) + z.shape, dtype=complex)
    for a in range(K + 1):
        band = np.array([(-1) ** m * float(math.factorial(m)) * value
                         for m, value in enumerate(laguerre_steps(K - a, x, a))]) * z**a
        m = np.arange(K + 1 - a)
        entries[m, m + a] = band
        entries[m + a, m] = np.conj(band)
    return entries


def _number_form(c: list, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """pi hbar W at the labels x + iy (x and y broadcast) of the polynomial
    state whose number amplitudes are c_k = <k|psi>, k < len(c): Royer's
    form at 2z, Re sum_(k,n) (-1)^k conj(c_k) c_n <k|D(-2z)|n>, over Cahill
    and Glauber's normalized Laguerre matrix elements, X = |2z|^2, read as
    (2x)^2 + (2y)^2. The pairs k = n + a and n = k + a give one real sum over
    the offsets a,

        sum_a w_a Re[<a|2z> sum_n (-1)^n conj(c_(n+a)) c_n sqrt(a! n!/(n+a)!) L_n^(a)(X)],

    w_0 = 1, w_a = 2, <a|2z> = exp(-X/2) (2z)^a / sqrt(a!) from
    special.coherent_amplitudes; 2z is formed only if an offset a >= 1 is
    used. Each offset takes L_n^(a) from special.laguerre_steps up to the
    last n with c_n c_(n+a) != 0; an offset with no such pair is skipped.
    Where <0|2z> underflows the value is 0, and X is set to 0 there, so
    L(X) cannot overflow to give nan. For fock(N) the value is
    wigner_closed_fock's, bitwise."""
    pairs = [[n for n in range(len(c) - a) if c[n] and c[n + a]] for a in range(len(c))]
    last = max((a for a, used in enumerate(pairs) if used), default=0)
    total = np.zeros(np.broadcast_shapes(x.shape, y.shape))
    square = (2.0 * x) ** 2 + (2.0 * y) ** 2
    first = np.exp(-0.5 * square)  # <0|2z>
    square[first == 0] = 0.0
    for a, amplitude in enumerate(coherent_amplitudes(last, 2.0 * x + 2j * y if last else None, first)):
        if not pairs[a]:
            continue
        s = 0j  # S_a, the sum over n
        scale = 2.0 if a else 1.0  # w_a sqrt(a! n!/(n+a)!)
        for n, value in enumerate(laguerre_steps(pairs[a][-1], square, a)):
            if n:
                scale *= math.sqrt(n / (n + a))
            if c[n] and c[n + a]:
                s += (-1) ** n * c[n + a].conjugate() * c[n] * scale * value
        total += (amplitude * s).real
    return total


def choose_truncation(state: StateSpec, z, policy: TruncationPolicy) -> int:
    """Truncation order K of state, one for every point: z is not read. A
    polynomial state's degree; else the first K that is at least each Fock
    member's degree and 2|U|^2 of each coherent member |U>, with

        sqrt(2 <psi|psi>) g_(K+1) <= policy.tail_tolerance,   g_k = sum_m |c_m| |<k|psi_m>|.

    |<k|U>| = <k||U|> is read from special.coherent_amplitudes one order at
    a time, and <k|n> is delta_kn. g_k bounds |<k|psi>|. Past 2|U|^2,
    |<k+1|U>| <= |<k|U>| / sqrt(2), so the number amplitudes beyond K hold
    at most 2 g_(K+1)^2, and by Cauchy-Schwarz the left side bounds what a
    sum over k <= K of <k|psi> against any vector of norm <psi|psi> omits.
    TruncationError past ORDER_CAP. The evaluation is exact and needs no K:
    validate's paper-form check sums build_F's form at this K."""
    deg = exact_degree(state)
    if deg is not None:
        return deg
    terms = _terms(state)
    least = max(2 * abs(m.u) ** 2 if m.degree() is None else m.degree() for _, m in terms)
    scale = math.sqrt(2.0 * norm_squared(state))
    rows = zip(*(coherent_amplitudes(ORDER_CAP + 1, abs(m.u)) if isinstance(m, CoherentState)
                 else [float(k == m.n) for k in range(ORDER_CAP + 2)] for _, m in terms))
    for K, row in enumerate(rows, -1):  # K looks at g_(K+1); K = -1 is below least
        bound = scale * sum(abs(c) * g for (c, _), g in zip(terms, row))
        if K >= least and bound <= policy.tail_tolerance:
            return K
    raise TruncationError(f"{state!r} is not cut by the order cap K = {ORDER_CAP}: the cut needs K >= {least:.6g}, "
                          "its members' largest Fock degree or 2|U|^2, and the bound on what the sum omits "
                          f"at most the tail tolerance {policy.tail_tolerance:g}; at K = {ORDER_CAP} that bound is "
                          f"{bound:.3g}", ORDER_CAP, bound)


def _rows(x: np.ndarray, y: np.ndarray):
    """(rows, x, y) of each block of whole rows of x + iy: BLOCK_POINTS points at most, or one row."""
    step = max(1, BLOCK_POINTS // max(np.broadcast(x[:1], y[:1]).size, 1))
    for lo in range(0, max(len(x), len(y)), step):
        yield slice(lo, lo + step), *(a[lo:lo + step] if len(a) > 1 else a for a in (x, y))


def _pair_form(coherent: list, x: np.ndarray, y: np.ndarray, amplitudes: list) -> np.ndarray:
    """pi hbar W = <psi|O|psi>, O = D(2z) Pi, at the labels x + iy, exactly,
    pair by pair of the members of the Fock part P, <k|P> = amplitudes[k],
    and of C = sum_j c_j |v_j>, (c_j, v_j) in coherent. O is Hermitian, so

        pi hbar W = <P|O|P> + <C|O|C> + 2 Re <P|O|C>.

    <P|O|P> is _number_form's. A coherent pair gives one Gaussian,
    D(a)|b> = exp(i Im(a conj(b))) |a + b>,

        <u|O|v> = exp(-2|z - (u+v)/2|^2 + i [2 Im(z conj(u - v)) - Im(conj(u) v)]),

    summed over i <= j in the frame of C's mean label z0, where the phases
    stay small, by W_psi(z) = W_(D(-z0) psi)(z - z0), D(-z0)|v> =
    exp(i Im(conj(z0) v)) |v - z0>. With z - z0 = s + it, d = v - z0,
    g = (d_i + d_j)/2 and e = d_i - d_j the term is Re[C A(s) B(t)], with
    C = |c_i|^2 for i = j, else 2 conj(c_i) c_j exp(-i Im(conj(d_i) d_j)), and

        A(s) = exp(-2(s - g_r)^2 - 2i s e_i),   B(t) = exp(-2(t - g_i)^2 + 2i t e_r),

    taken once a pair (on a lattice, on its axes), their products summed a
    block of rows at a time (_rows). A Fock-coherent pair gives
    <k|O|v> = exp(-2i Im(h conj(v))) <k|2h>, h = z - v/2, pointwise."""
    total = np.zeros(np.broadcast_shapes(x.shape, y.shape))
    if coherent:
        z0 = sum(v for _, v in coherent) / len(coherent)
        moved = [(c * cmath.exp(1j * (z0.conjugate() * (v - z0)).imag), v - z0) for c, v in coherent]
        s, t = x - z0.real, y - z0.imag
        for i, (ci, di) in enumerate(moved):
            for j, (cj, dj) in enumerate(moved[i:], i):
                g, e = (di + dj) / 2, di - dj
                if i == j:
                    a, b = abs(ci) ** 2 * np.exp(-2.0 * (s - g.real) ** 2), np.exp(-2.0 * (t - g.imag) ** 2)
                else:
                    pair = 2 * ci.conjugate() * cj * cmath.exp(-1j * (di.conjugate() * dj).imag)
                    a = pair * np.exp(-2.0 * (s - g.real) ** 2 - 2j * e.imag * s)
                    b = np.exp(-2.0 * (t - g.imag) ** 2 + 2j * e.real * t)
                for rows, ab, bb in _rows(a, b):
                    total[rows] += (ab * bb).real

    for rows, xb, yb in _rows(x, y) if amplitudes else ():
        total[rows] += _number_form(amplitudes, xb, yb)
        zz = xb + 1j * yb if coherent else None
        for c, v in coherent:
            h = zz - v / 2
            row = coherent_amplitudes(len(amplitudes) - 1, 2.0 * h)  # <k|2h>
            cross = sum(p.conjugate() * a for p, a in zip(amplitudes, row) if p)
            total[rows] += (2 * c * np.exp(-2j * (h.imag * v.real - h.real * v.imag)) * cross).real
    return total


def _evaluate(state: StateSpec, x: np.ndarray, y: np.ndarray, hbar: float, order: int | None = None) -> np.ndarray:
    """W of state at the finite labels x + iy, x = Re z and y = Im z as 1-D
    arrays (scattered labels, summed in flat blocks) or as a column and a
    row (a lattice's axes, summed at once): the one series evaluation
    behind wigner_series and evaluate_grid. With no order, the exact pair
    form (_pair_form); with one, the number form of the state projected on
    |0>, ..., |order>, for a polynomial state no further than its degree.
    The number amplitudes <k|.>, of the Fock part or of the state, are taken
    once, at most MAX_DEGREE of them: past it the Laguerre values of
    _number_form overflow float64 where the Gaussian has not yet
    underflowed. Each pair's Gaussian is centred within max |v| of the
    origin (v the coherent labels), so x and y are clipped at
    reach = 20 + max |v|, past which W is 0. Every part is pointwise, so
    values do not depend on the blocks. A value not finite raises
    ValueError naming its label."""
    if order is not None and order < 0:
        raise ValueError(f"truncation order must be non-negative, got {order}")
    deg, terms = exact_degree(state), _terms(state)
    fock = [(b, m) for b, m in terms if isinstance(m, FockState)]
    K = max((m.n for _, m in fock), default=None) if order is None else order if deg is None else min(order, deg)
    _refuse_past_max_degree(state, K)
    part = _unchecked_superposition(fock) if order is None else state
    c = [] if K is None else [complex(overlap(FockState(k), part)) for k in range(K + 1)]
    coherent = [(b, m.u) for b, m in terms if isinstance(m, CoherentState) and order is None]
    reach = 20.0 + max((abs(m.u) for _, m in terms if isinstance(m, CoherentState)), default=0.0)
    if x.ndim == 1:  # scattered labels, a block at a time
        values = np.empty(x.shape)
        for rows, *block in _rows(x, y):
            values[rows] = _pair_form(coherent, *(np.clip(a, -reach, reach) for a in block), c)
    else:  # a lattice, on its axes
        values = _pair_form(coherent, *(np.clip(a, -reach, reach) for a in (x, y)), c)
    values /= math.pi * hbar
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        at = "" if K is None else f", its Fock part of degree K = {K}" if order is None else f", at order K = {K}"
        z = complex(*(np.broadcast_to(a, values.shape).flat[bad[0]] for a in (x, y)))
        raise ValueError(f"W of {state!r} at z = {z:.6g} is {float(values.flat[bad[0]])!r}{at}")
    return values


def wigner_series(state: StateSpec, z, basis: BasisParams | None = None, order: int | None = None):
    """Wigner function of a catalog state (Fock, coherent of the basis
    width, or a finite superposition) at the complex label(s) z,
    sqrt(2) z = q/b + i b p / hbar: a float, or an array of the shape of z.

    Summed exactly, pair by pair of members (_pair_form); basis supplies
    hbar. order, if given, sums the state projected on |0>, ..., |order>
    by its number amplitudes, for every state (a polynomial state no
    further than its degree), at most MAX_DEGREE. A label, or a value,
    that is not finite raises ValueError naming it.
    """
    basis = basis or BasisParams()
    z_in = np.asarray(z, dtype=complex)
    zz = z_in.ravel()
    bad = np.flatnonzero(~np.isfinite(zz))
    if bad.size:
        where = str(list(map(int, np.unravel_index(bad[0], z_in.shape)))) if z_in.ndim else ""
        raise ValueError(f"phase-space label z{where} = {complex(zz[bad[0]]):.6g} is not finite")
    w = _evaluate(state, zz.real, zz.imag, basis.hbar, order).reshape(z_in.shape)
    return w if w.ndim else float(w)


def wigner_closed_fock(N: int, z, basis: BasisParams | None = None):
    """Closed form for Fock states:
    W_N = (-1)^N exp(-2|z|^2) L_N(4|z|^2) / (pi hbar). Where the Gaussian
    underflows W is 0, and L is taken at 0 there, as _number_form takes it,
    so L_N cannot overflow to give nan. N is at most MAX_DEGREE, as for the
    series."""
    if N < 0:
        raise ValueError(f"Fock index must be non-negative, got {N!r}")
    _refuse_past_max_degree(FockState(N), N)
    basis = basis or BasisParams()
    z = np.asarray(z, dtype=complex)
    x = (2.0 * z.real) ** 2 + (2.0 * z.imag) ** 2  # |2z|^2, rounded as _number_form rounds it
    gauss = np.exp(-0.5 * x)
    w = (-1.0) ** N * gauss * laguerre(N, np.where(gauss == 0, 0.0, x)) / (math.pi * basis.hbar)
    return w if np.ndim(w) else float(w)


def wigner_closed_coherent_gaussian(Q: float, P: float, B: float, q, p, hbar: float = 1.0):
    """Gaussian Wigner function of a coherent state of width B centered at
    (Q, P): exp(-(q-Q)^2/B^2 - B^2 (p-P)^2/hbar^2) / (pi hbar)."""
    if not B > 0:
        raise ValueError(f"state width B must be positive, got {B!r}")
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
        raise ValueError(f"state width B must be positive, got {B!r}")
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
