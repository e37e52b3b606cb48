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

    W(z) = 1/(pi hbar) <psi|D(2z) Pi|psi>,

bilinear in the state. _evaluate, behind wigner_series and evaluate_grid,
sums it block by block (_pair_form) as a double sum over the members of a
catalog state, each pair's term in closed form: a Fock pair gives the
paper's own Laguerre kernel, summed over the number amplitudes <k|psi>
with special.laguerre_steps at each offset k - n (_number_form); a coherent
pair gives one Gaussian; a Fock-coherent pair gives one coherent amplitude.
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
from .special import coherent_amplitudes, g_kernel, laguerre, laguerre_steps
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

# Points summed per block. _pair_form keeps, as tracemalloc sees one block,
# 12 to 14 doubles a point for a polynomial state at any degree (fock(12),
# fock(100), the sum of |0> to |12>), 8 for a coherent state, 16 for a cat,
# 20 for fock(5) + coherent(2 - i) + fock(0), and 2 more a member past two
# coherent members: 28 for 8, 140 for 64. 8192 points lowered the 200^2
# benchmark's peak RSS by half as much.
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


def _number_form(c: list, zz: np.ndarray) -> np.ndarray:
    """pi hbar W at the 1-D labels zz of the polynomial state whose number
    amplitudes are c_k = <k|psi>, k < len(c): Royer's form at 2z,
    Re sum_(k,n) (-1)^k conj(c_k) c_n <k|D(-2z)|n>, over Cahill and Glauber's
    normalized Laguerre matrix elements, x = 4|z|^2. The pairs k = n + a and
    n = k + a give one real sum over the offsets a,

        sum_a w_a Re[<a|2z> sum_n (-1)^n conj(c_(n+a)) c_n sqrt(a! n!/(n+a)!) L_n^(a)(x)],

    w_0 = 1, w_a = 2, <a|2z> = exp(-x/2) (2z)^a / sqrt(a!) from
    special.coherent_amplitudes. Each offset takes L_n^(a) from
    special.laguerre_steps up to the last n with c_n c_(n+a) != 0; an offset
    with no such pair is skipped, and no offset past the last one used is
    reached. Where <0|2z> underflows the value is 0, and x is set to 0
    there, so L(x) cannot overflow to give nan (2z is finite at the labels
    _evaluate passes). For fock(N) the value is wigner_closed_fock's, bitwise."""
    pairs = [[n for n in range(len(c) - a) if c[n] and c[n + a]] for a in range(len(c))]
    last = max((a for a, used in enumerate(pairs) if used), default=0)
    total = np.zeros(zz.shape)
    w = 2.0 * zz
    x = (np.conj(w) * w).real.copy()  # a view would hold the complex product: 10% slower at 200^2
    for a, amplitude in enumerate(coherent_amplitudes(last, w)):
        if not a:
            x[amplitude == 0] = 0.0
        if not pairs[a]:
            continue
        s = 0j  # S_a, the sum over n
        scale = 2.0 if a else 1.0  # w_a sqrt(a! n!/(n+a)!)
        for n, value in enumerate(laguerre_steps(pairs[a][-1], x, a)):
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


def _pair_form(state: StateSpec, zz: np.ndarray, amplitudes: list) -> np.ndarray:
    """pi hbar W = <psi|O|psi>, O = D(2z) Pi, at the 1-D labels zz, exactly,
    one member pair at a time. The state is split into its Fock part P and
    its coherent members C = sum_j c_j |v_j>, and O is Hermitian, so

        pi hbar W = <P|O|P> + <C|O|C> + 2 Re <P|O|C>.

    <P|O|P> is _number_form's, on P's number amplitudes (empty for no Fock
    member), which _evaluate takes once. A coherent pair gives one
    Gaussian, D(a)|b> = exp(i Im(a conj(b))) |a + b>,

        <u|O|v> = exp(-2|z - (u+v)/2|^2 + i [2 Im(z conj(u - v)) - Im(conj(u) v)]),

    summed over the Hermitian half i <= j in the frame of the mean label
    z0 of C, the covariance W_psi(z) = W_(D(-z0) psi)(z - z0) with
    D(-z0)|v> = exp(i Im(conj(z0) v)) |v - z0>: the modulus is one real exp
    at the pair's midpoint, the phase the per-member unit factors
    exp(2i Im(w conj(d))), w = z - z0 and d = v - z0, times a constant per
    pair. The phases stay small near the state, where their rounding
    would show. A Fock-coherent pair gives one coherent amplitude,
    <k|O|v> = exp(-2i Im(y conj(v))) <k|2y>, y = z - v/2: one phase times
    sum_k conj(<k|P>) <k|2y> up to P's degree. The labels are those
    _evaluate leaves finite in every square and phase."""
    coherent = [(c, m.u) for c, m in _terms(state) if isinstance(m, CoherentState)]
    if not coherent:
        return _number_form(amplitudes, zz)
    total = np.zeros(zz.shape)

    z0 = sum(v for _, v in coherent) / len(coherent)
    moved = [(c * cmath.exp(1j * (z0.conjugate() * (v - z0)).imag), v - z0) for c, v in coherent]
    w = zz - z0
    if len(moved) > 1:  # c exp(-2i Im(w conj(d))) of each member
        units = [c * np.exp(-2j * (w.imag * d.real - w.real * d.imag)) for c, d in moved]
    for i, (ci, di) in enumerate(moved):
        left = 2 * np.conj(units[i]) if i + 1 < len(moved) else None  # once a row, not a pair: 1.2x at 64 members
        for j in range(i, len(moved)):
            dj = moved[j][1]
            gap = w - (di + dj) / 2
            gauss = np.exp(-2.0 * (gap.real ** 2 + gap.imag ** 2))
            if i == j:
                total += abs(ci) ** 2 * gauss
            else:
                total += gauss * (left * cmath.exp(-1j * (di.conjugate() * dj).imag) * units[j]).real

    if amplitudes:
        total += _number_form(amplitudes, zz)
        for c, v in coherent:
            y = zz - v / 2
            row = coherent_amplitudes(len(amplitudes) - 1, 2.0 * y)  # <k|2y>
            cross = sum(p.conjugate() * a for p, a in zip(amplitudes, row) if p)
            total += (2 * c * np.exp(-2j * (y.imag * v.real - y.real * v.imag)) * cross).real
    return total


def _evaluate(state: StateSpec, z: np.ndarray, hbar: float, order: int | None = None) -> np.ndarray:
    """W of state at the finite labels z (a 1-D array or a 2-D lattice): the
    one series evaluation behind wigner_series and evaluate_grid. With no
    order, the exact pair form (_pair_form); with one, the number form
    (_number_form) of the state projected on |0>, ..., |order>, for a
    polynomial state no further than its degree. The number amplitudes
    <k|.>, of the Fock part or of the state, are taken once, up to the
    Fock part's degree or order, at most MAX_DEGREE: past it the Laguerre
    values of _number_form overflow float64 where the Gaussian has not yet
    underflowed. Each pair's Gaussian is centred within max |v| of the
    origin (v the coherent labels), so past reach = 20 + max |v| in Re z or
    Im z W is 0: such labels are summed at reach, where every square and
    phase is finite. Every part is pointwise, so values do not depend on the
    blocks of BLOCK_POINTS. A value not finite raises ValueError naming
    its label.
    """
    if order is not None and order < 0:
        raise ValueError(f"truncation order must be non-negative, got {order}")
    deg, terms = exact_degree(state), _terms(state)
    fock = [(b, m) for b, m in terms if isinstance(m, FockState)]
    K = max((m.n for _, m in fock), default=None) if order is None else order if deg is None else min(order, deg)
    _refuse_past_max_degree(state, K)
    part = _unchecked_superposition(fock) if order is None else state
    c = [] if K is None else [complex(overlap(FockState(k), part)) for k in range(K + 1)]
    reach = 20.0 + max((abs(m.u) for _, m in terms if isinstance(m, CoherentState)), default=0.0)
    values = np.empty(z.shape)
    zz, out = z.reshape(-1), values.reshape(-1)
    for lo in range(0, zz.size, BLOCK_POINTS):
        block = zz[lo:lo + BLOCK_POINTS]
        if np.abs(block.view(float)).max() > reach:  # some label's Re z or Im z
            block = np.where(np.maximum(np.abs(block.real), np.abs(block.imag)) > reach, reach, block)
        form = _pair_form(state, block, c) if order is None else _number_form(c, block)
        out[lo:lo + BLOCK_POINTS] = form / (math.pi * hbar)
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        at = "" if K is None else f" at truncation order K = {K}"
        raise ValueError(f"W of {state!r} at z = {complex(zz[bad[0]]):.6g} is {float(out[bad[0]])!r}{at}")
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
    w = _evaluate(state, zz, basis.hbar, order).reshape(z_in.shape)
    return w if w.ndim else float(w)


def wigner_closed_fock(N: int, z, basis: BasisParams | None = None):
    """Closed form for Fock states:
    W_N = (-1)^N exp(-2|z|^2) L_N(4|z|^2) / (pi hbar). Where the Gaussian
    underflows W is 0, and L is taken at 0 there, as _number_form takes it,
    so L_N cannot overflow to give nan. N is at most MAX_DEGREE, as for the
    series."""
    if N < 0:
        raise ValueError("Fock index must be non-negative")
    _refuse_past_max_degree(FockState(N), N)
    basis = basis or BasisParams()
    z = np.asarray(z, dtype=complex)
    u = (np.conj(z) * z).real
    gauss = np.exp(-2.0 * u)
    w = (-1.0) ** N * gauss * laguerre(N, np.where(gauss == 0, 0.0, 4.0 * u)) / (math.pi * basis.hbar)
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
