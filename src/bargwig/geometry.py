"""Geometric identity checks for the explicit basis-width dependence of W.

For the cross-width coherent family, the explicit width derivative at fixed
labels obeys

    b dW/db |_{z,z*}  =  z* dW/dz + z dW/dz*  =  q dW/dq - p dW/dp
                      =  sqrt(q^2 + p^2) * (n . grad W),   n || (q, -p),

so a finite difference in b must match the analytic phase-space gradient.
check_b_independence verifies the complementary statement: at a fixed
physical point the value of W does not depend on the analysis width at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import wigner_closed_coherent_crossb, wigner_closed_coherent_gaussian
from .phase import BasisParams, PhasePoint, qp_from_z, wirtinger_derivatives, z_from_qp

__all__ = ["IdentityReport", "check_identity_crossb", "check_b_independence"]


@dataclass(frozen=True)
class IdentityReport:
    """One evaluation of the width-derivative identity at a phase point."""

    point: PhasePoint
    step: float
    lhs: float                 # b dW/db at fixed (z, z*), finite difference
    rhs_qp: float              # q dW/dq - p dW/dp, analytic
    rhs_z: float               # z* dW/dz + z dW/dz*, analytic via Wirtinger
    rhs_directional: float     # sqrt(q^2+p^2) n.grad W, n || (q, -p)
    residuals: dict

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


def _b_derivative(U: complex, B: float, z: complex, b: float, hbar: float, step: float) -> float:
    """b dW/db at fixed z by a central difference, error O(step^2)."""
    if not 0 < step < b:
        raise ValueError("finite-difference step must be positive and below b")
    up = wigner_closed_coherent_crossb(U, B, z, BasisParams(b + step, hbar))
    dn = wigner_closed_coherent_crossb(U, B, z, BasisParams(b - step, hbar))
    return b * (up - dn) / (2.0 * step)


def _b_derivative_richardson(U: complex, B: float, z: complex, b: float, hbar: float, step: float) -> float:
    """Richardson extrapolation of the central difference over step and
    step/2: the O(step^2) error terms cancel, leaving O(step^4)."""
    coarse = _b_derivative(U, B, z, b, hbar, step)
    fine = _b_derivative(U, B, z, b, hbar, step / 2.0)
    return (4.0 * fine - coarse) / 3.0


def check_identity_crossb(
    U: complex, B: float, point: PhasePoint, step: float, extrapolate: bool = True
) -> IdentityReport:
    """Check b dW/db (finite difference at fixed z) against the analytic
    phase-space forms for the cross-width coherent family.

    With extrapolate (the default) the left-hand side is the Richardson
    extrapolation of the central difference, accurate to O(step^4); without
    it, the plain central difference, accurate to O(step^2), whose residual
    the step-halving check follows.
    """
    basis = point.basis
    b, hbar = basis.b, basis.hbar
    z = point.z
    q, p = point.q, point.p

    derivative = _b_derivative_richardson if extrapolate else _b_derivative
    lhs = derivative(U, B, z, b, hbar, step)

    # Analytic gradient of the width-B Gaussian at the physical point.
    Q, P = qp_from_z(U, BasisParams(B, hbar))
    w_val = wigner_closed_coherent_gaussian(Q, P, B, q, p, hbar)
    w_q = -2.0 * (q - Q) / B**2 * w_val
    w_p = -2.0 * B**2 * (p - P) / hbar**2 * w_val

    rhs_qp = q * w_q - p * w_p

    dw_dz, dw_dzs = wirtinger_derivatives(w_q, w_p, basis)
    rhs_z = (z.conjugate() * dw_dz + z * dw_dzs).real

    rho = math.hypot(q, p)
    if rho > 0:
        nx, ny = q / rho, -p / rho
        rhs_directional = rho * (nx * w_q + ny * w_p)
    else:
        rhs_directional = rhs_qp

    residuals = {
        "qp": abs(lhs - rhs_qp),
        "z": abs(lhs - rhs_z),
        "directional": abs(lhs - rhs_directional),
    }

    return IdentityReport(
        point=point,
        step=step,
        lhs=lhs,
        rhs_qp=rhs_qp,
        rhs_z=rhs_z,
        rhs_directional=rhs_directional,
        residuals=residuals,
    )


def check_b_independence(
    Q: float,
    P: float,
    B: float,
    q: float,
    p: float,
    b1: float,
    b2: float,
    hbar: float = 1.0,
) -> float:
    """|W(q,p) through basis b1 - W(q,p) through basis b2| for the coherent
    state centered at (Q, P) with width B; zero up to rounding."""
    if not (b1 > 0 and b2 > 0):
        raise ValueError("basis widths must be positive")
    U = z_from_qp(Q, P, BasisParams(B, hbar))
    w1 = wigner_closed_coherent_crossb(U, B, z_from_qp(q, p, BasisParams(b1, hbar)), BasisParams(b1, hbar))
    w2 = wigner_closed_coherent_crossb(U, B, z_from_qp(q, p, BasisParams(b2, hbar)), BasisParams(b2, hbar))
    return abs(w1 - w2)
