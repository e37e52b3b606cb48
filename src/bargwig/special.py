"""Scalar special functions: Laguerre/Hermite recurrences, the terminating
2F0 series and its singularity-free polynomial companion.

The 2F0 series and the kernel are both associated Laguerre polynomials, and
both are evaluated by the one upward recurrence in laguerre_ladder rather
than as alternating sums, which cancel catastrophically in float64.

All functions accept numpy arrays in their continuous argument and
broadcast elementwise; order arguments are plain non-negative ints.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "laguerre",
    "laguerre_ladder",
    "hyp2f0_terminating",
    "g_kernel",
    "hermite_psi",
]


def laguerre_ladder(m: int, a: int, s, t):
    """Yield l_k = s^k L_k^(a)(t/s) for k = 0..m, the associated Laguerre
    polynomials in homogeneous form, by the upward three-term recurrence

        (k+1) l_{k+1} = ((2k+1+a) s - t) l_k - (k+a) s^2 l_{k-1},

    with l_{-1} = 0 and l_0 = 1. The homogeneous form stays regular at s = 0,
    where l_k = (-t)^k / k!. s and t broadcast elementwise; a >= 0.
    """
    prev, cur = 0.0, np.ones(np.broadcast(s, t).shape)
    yield cur
    s2 = s * s
    for k in range(m):
        prev, cur = cur, (((2 * k + 1 + a) * s - t) * cur - (k + a) * s2 * prev) / (k + 1)
        yield cur


def _last(ladder):
    for value in ladder:
        pass
    return value


def laguerre(n: int, x):
    """Laguerre polynomial L_n(x): the a = 0, s = 1 case of laguerre_ladder."""
    if n < 0:
        raise ValueError("Laguerre degree must be non-negative")
    out = _last(laguerre_ladder(n, 0, 1.0, np.asarray(x, dtype=float)))
    return out if out.ndim else float(out)


def hyp2f0_terminating(n: int, j: int, x):
    """2F0(-n, -j; ; x) = sum_{s=0}^{m} (-n)_s (-j)_s x^s / s!,  m = min(n, j).

    Reversing the order of summation turns the series into an associated
    Laguerre polynomial, 2F0(-n, -j; ; x) = m! x^m L_m^(a)(-1/x) with
    a = |n - j|, which laguerre_ladder evaluates at (s, t) = (x, -1) without
    the alternating sum's cancellation and without dividing by x, so x = 0
    (where the value is 1) needs no special case.
    """
    if n < 0 or j < 0:
        raise ValueError("series orders must be non-negative")
    m = min(n, j)
    x = np.asarray(x, dtype=float)
    out = float(math.factorial(m)) * _last(laguerre_ladder(m, abs(n - j), x, -1.0))
    return out if out.ndim else float(out)


def g_kernel(n: int, j: int, z):
    """Combined kernel conj(z)^n z^j * 2F0(-n, -j; ; -1/|z|^2) in its
    polynomial form, regular at z = 0:

        G(n, j, z) = sum_s (-1)^s n! j! / (s! (n-s)! (j-s)!)
                     * conj(z)^(n-s) * z^(j-s)
                   = (-1)^m m! L_m^(a)(|z|^2) * z^a         (j >= n)

    with m = min(n, j), a = |n - j|, and conj(z)^a in place of z^a when
    n > j. The Laguerre factor comes from laguerre_ladder at (s, t) =
    (-1, -|z|^2), which carries the sign (-1)^m; it is real, so the diagonal
    is exactly real and G(j, n, z) = conj(G(n, j, z)) holds exactly.
    """
    if n < 0 or j < 0:
        raise ValueError("kernel orders must be non-negative")
    z = np.asarray(z, dtype=complex)
    m, a = min(n, j), abs(n - j)
    radial = float(math.factorial(m)) * _last(laguerre_ladder(m, a, -1.0, -(np.conj(z) * z).real))
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
    psi0 = np.pi ** -0.25 * np.exp(-0.5 * y * y)
    if n == 0:
        return psi0 if psi0.ndim else float(psi0)
    psi1 = math.sqrt(2.0) * y * psi0
    for k in range(1, n):
        psi0, psi1 = psi1, math.sqrt(2.0 / (k + 1)) * y * psi1 - math.sqrt(k / (k + 1)) * psi0
    return psi1 if psi1.ndim else float(psi1)
