"""Scalar special functions: Laguerre/Hermite recurrences and the kernel of
the quadratic form, the terminating 2F0 series in its singularity-free
polynomial form.

The kernel is an associated Laguerre polynomial, evaluated by the upward
recurrence in laguerre rather than as the alternating 2F0 sum, which
cancels catastrophically in float64.

All functions accept numpy arrays in their continuous argument and
broadcast elementwise; order arguments are plain non-negative ints.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "laguerre",
    "g_kernel",
    "hermite_psi",
]


def laguerre(n: int, x, a: int = 0):
    """Associated Laguerre polynomial L_n^(a)(x), a >= 0, by the upward
    three-term recurrence

        (k+1) L_{k+1} = (2k+1+a - x) L_k - (k+a) L_{k-1},   L_{-1} = 0, L_0 = 1.
    """
    if n < 0:
        raise ValueError("Laguerre degree must be non-negative")
    # [()] makes a 0-d input a numpy scalar, on which the loop runs about
    # twice as fast as on a 0-d array (build_F calls it once per entry)
    x = np.asarray(x, dtype=float)[()]
    prev, cur = 0.0, np.ones(x.shape)
    for k in range(n):
        prev, cur = cur, ((2 * k + 1 + a - x) * cur - (k + a) * prev) / (k + 1)
    return cur if cur.ndim else float(cur)


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
    psi0 = np.pi ** -0.25 * np.exp(-0.5 * y * y)
    if n == 0:
        return psi0 if psi0.ndim else float(psi0)
    psi1 = math.sqrt(2.0) * y * psi0
    for k in range(1, n):
        psi0, psi1 = psi1, math.sqrt(2.0 / (k + 1)) * y * psi1 - math.sqrt(k / (k + 1)) * psi0
    return psi1 if psi1.ndim else float(psi1)
