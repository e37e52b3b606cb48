"""Coordinate algebra between real phase space (q, p) and the complex
coherent-state label z, for a basis of width b and action scale hbar.

Convention: sqrt(2) z = q/b + i b p / hbar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BasisParams",
    "z_from_qp",
    "qp_from_z",
    "wirtinger_derivatives",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class BasisParams:
    """Coherent-state basis parameters: width b (length) and hbar (action)."""

    b: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        for name, value in (("basis width b", self.b), ("hbar", self.hbar)):
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")


def z_from_qp(q, p, basis: BasisParams):
    """Complex label z = (q/b + i b p/hbar) / sqrt(2)."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    z = (q / basis.b + 1j * basis.b * p / basis.hbar) / _SQRT2
    return z if z.ndim else complex(z)


def qp_from_z(z, basis: BasisParams):
    """Inverse of z_from_qp: q = sqrt(2) b Re z, p = sqrt(2) hbar Im z / b."""
    z = np.asarray(z, dtype=complex)
    q = _SQRT2 * basis.b * z.real
    p = _SQRT2 * basis.hbar * z.imag / basis.b
    if q.ndim:
        return q, p
    return float(q), float(p)


def wirtinger_derivatives(w_q, w_p, basis: BasisParams):
    """(dW/dz, dW/dz*) from the real partials (dW/dq, dW/dp), by

        d/dz  = (b d/dq - i (hbar/b) d/dp) / sqrt(2),
        d/dz* = (b d/dq + i (hbar/b) d/dp) / sqrt(2).
    """
    along_q = basis.b / _SQRT2 * w_q
    along_p = 1j * (basis.hbar / (basis.b * _SQRT2)) * w_p
    return along_q - along_p, along_q + along_p
