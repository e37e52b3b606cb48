"""Geometric identity checks for the explicit basis-width dependence of W.

For the cross-width coherent family, the explicit width derivative at fixed
labels obeys

    b dW/db |_{z,z*}  =  z* dW/dz + z dW/dz*  =  q dW/dq - p dW/dp
                      =  sqrt(q^2 + p^2) * (n . grad W),   n || (q, -p),

so a finite difference in b must match the analytic phase-space gradient;
check_identity_crossb compares it with the paper's form, z* dW/dz + z dW/dz*.
check_b_independence verifies the complementary statement: at a fixed
physical point the value of W does not depend on the analysis width at all.
"""

from __future__ import annotations

from .core import wigner_closed_coherent_crossb, wigner_closed_coherent_gaussian
from .phase import BasisParams, qp_from_z, wirtinger_derivatives, z_from_qp

__all__ = ["check_identity_crossb", "check_b_independence"]


def _b_derivative(U: complex, B: float, z: complex, b: float, hbar: float, step: float) -> float:
    """b dW/db at fixed z by a central difference, error O(step^2)."""
    if not 0 < step < b:
        raise ValueError(f"finite-difference step must be positive and below b, got step = {step!r}, b = {b!r}")
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
    U: complex, B: float, q: float, p: float, basis: BasisParams, step: float, extrapolate: bool = True
) -> tuple[float, float]:
    """(lhs, rhs) of the width-derivative identity at (q, p) in basis, for
    the cross-width coherent family: lhs is b dW/db at fixed z by finite
    differences, rhs the analytic z* dW/dz + z dW/dz*.

    With extrapolate (the default) lhs is the Richardson extrapolation of
    the central difference, accurate to O(step^4); without it, the plain
    central difference, accurate to O(step^2), whose residual the
    step-halving check follows.
    """
    z = z_from_qp(q, p, basis)
    derivative = _b_derivative_richardson if extrapolate else _b_derivative
    lhs = derivative(U, B, z, basis.b, basis.hbar, step)

    # Analytic gradient of the width-B Gaussian at the physical point.
    Q, P = qp_from_z(U, BasisParams(B, basis.hbar))
    w_val = wigner_closed_coherent_gaussian(Q, P, B, q, p, basis.hbar)
    w_q = -2.0 * (q - Q) / B**2 * w_val
    w_p = -2.0 * B**2 * (p - P) / basis.hbar**2 * w_val

    dw_dz, dw_dzs = wirtinger_derivatives(w_q, w_p, basis)
    return lhs, (z.conjugate() * dw_dz + z * dw_dzs).real


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
        raise ValueError(f"basis widths must be positive, got b1 = {b1!r}, b2 = {b2!r}")
    U = z_from_qp(Q, P, BasisParams(B, hbar))
    w1 = wigner_closed_coherent_crossb(U, B, z_from_qp(q, p, BasisParams(b1, hbar)), BasisParams(b1, hbar))
    w2 = wigner_closed_coherent_crossb(U, B, z_from_qp(q, p, BasisParams(b2, hbar)), BasisParams(b2, hbar))
    return abs(w1 - w2)
