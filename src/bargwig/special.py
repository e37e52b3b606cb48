"""Special functions: Laguerre/Hermite recurrences, the coherent
amplitudes, and the kernel of the quadratic form, the terminating 2F0
series in its singularity-free polynomial form.

The kernel is an associated Laguerre polynomial. laguerre_steps, the one
Laguerre recurrence, serves it, laguerre, the Fock closed form and core's
number form, in Reinsch's difference form (Stoer and Bulirsch, sec. 2.3;
Gentleman, Comput. J. 12, 160 (1969)): it keeps full precision near
x = 0, where the upward three-term form cancels at every step, as the
alternating 2F0 sum cancels everywhere. coherent_amplitudes, the one
running product <k|w>, serves bra, core's number form and Fock-coherent
pairs, and choose_truncation.

All functions take numpy arrays in their continuous argument and broadcast
elementwise, a scalar by the same numpy path; order arguments are ints.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "laguerre",
    "laguerre_steps",
    "coherent_amplitudes",
    "g_kernel",
    "hermite_psi",
]


def laguerre_steps(n: int, x, a: int = 0):
    """Yield L_0^(a)(x), ..., L_n^(a)(x), a >= 0, by Reinsch's difference form

        k d_k = (k-1+a) d_(k-1) - x L_(k-1),   L_k = L_(k-1) + d_k,   L_0 = d_0 = 1:

    one array of the shape of x, updated in place by each step."""
    if n < 0:
        raise ValueError("Laguerre degree must be non-negative")
    x = np.asarray(x, dtype=float)
    value, diff = np.ones(x.shape), np.ones(x.shape)
    yield value
    for k in range(1, n + 1):
        diff *= k - 1 + a
        diff -= x * value
        diff /= k
        value += diff
        yield value


def laguerre(n: int, x, a: int = 0):
    """Associated Laguerre polynomial L_n^(a)(x), a >= 0: the last value of
    laguerre_steps, a float for a scalar x."""
    *_, value = laguerre_steps(n, x, a)
    return value if value.ndim else float(value)


def coherent_amplitudes(K: int, w, first=None):
    """Yield <k|w> = exp(-|w|^2/2) w^k / sqrt(k!) for k = 0..K (Cahill and
    Glauber, Phys. Rev. 177, 1857 (1969)) as a_k = a_(k-1) w / sqrt(k) from a
    real a_0, or from first as the caller rounds a_0 (w read past K = 0 only):
    no step overflows. A number w steps as a 0-d array, by the loops of an
    array, so each point's amplitudes are those it has in any array."""
    if K < 0:
        raise ValueError("coherent amplitude order must be non-negative")
    w = np.asarray(w)
    a = np.exp(-0.5 * (np.conj(w) * w).real) if first is None else first
    yield a
    for k in range(1, K + 1):
        a = a * w * (1 / math.sqrt(k))
        yield a


def g_kernel(n: int, j: int, z):
    """Combined kernel conj(z)^n z^j * 2F0(-n, -j; ; -1/|z|^2) in its
    polynomial form, regular at z = 0:

        G(n, j, z) = sum_s (-1)^s n! j! / (s! (n-s)! (j-s)!)
                     * conj(z)^(n-s) * z^(j-s)
                   = (-1)^m m! L_m^(a)(|z|^2) * z^a         (j >= n)

    with m = min(n, j), a = |n - j|, and conj(z)^a in place of z^a when
    n > j. The Laguerre factor is real, so the diagonal is exactly real and
    G(j, n, z) = conj(G(n, j, z)) holds exactly.
    """
    if n < 0 or j < 0:
        raise ValueError("kernel orders must be non-negative")
    z = np.asarray(z, dtype=complex)
    m, a = min(n, j), abs(n - j)
    radial = (-1) ** m * float(math.factorial(m)) * laguerre(m, (np.conj(z) * z).real, a)
    phase = z**a if j >= n else np.conj(z) ** a
    out = radial * phase
    return out if out.ndim else complex(out)


def hermite_psi(n: int, y):
    """Normalized harmonic-oscillator eigenfunction
    psi_n(y) = (2^n n! sqrt(pi))^{-1/2} H_n(y) exp(-y^2/2),
    evaluated by the stable recurrence on the normalized functions
    psi_{k+1} = sqrt(2/(k+1)) y psi_k - sqrt(k/(k+1)) psi_{k-1}.
    """
    if n < 0:
        raise ValueError("oscillator level must be non-negative")
    y = np.asarray(y, dtype=float)
    prev, psi = 0.0, np.pi ** -0.25 * np.exp(-0.5 * y * y)  # psi_(-1), psi_0
    for k in range(n):
        prev, psi = psi, math.sqrt(2.0 / (k + 1)) * y * psi - math.sqrt(k / (k + 1)) * prev
    return psi if psi.ndim else float(psi)
