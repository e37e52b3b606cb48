"""Integral-representation oracles for the series engine.

Two independent routes to W:

  configuration space:
      W(q, p) = 1/(2 pi hbar) Int dy psi(q + y/2) conj(psi(q - y/2))
                exp(-i p y / hbar)

  phase space (Bargmann form):
      W(z, z*) = exp(-|z|^2)/(4 pi hbar) Int du dv / pi
                 conj(f(z + w/2)) f(z - w/2)
                 exp(-|w|^2/4 + z* w/2 - z w*/2),   w = u + i v

The distribution checks (normalization, position marginal) need neither:
validate reads them from the series at Gauss-Hermite nodes. Every oracle
checks its rule by node doubling and rejects results whose imaginary
residual exceeds its budget. Node doubling cannot see a domain that is too
small: the fixed halfwidths (12 b in y, 10 per axis of w) cut the integrand
of a state that reaches past them with no error. At the origin, where
W = 1/pi, fock(20) passes the default tol with 0.2552 (config) and 0.2960
(phase), and fock(60) with 0.1163 and 0.00096.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .phase import BasisParams
from .states import StateSpec, bargmann, position_wavefunction

__all__ = [
    "QuadratureSpec",
    "OracleConvergenceError",
    "quadrature_nodes",
    "wigner_config_integral",
    "wigner_phase_integral",
]

DEFAULT_CONFIG_HALFWIDTH = 12.0  # units of b, along the shift variable y
DEFAULT_PHASE_HALFWIDTH = 10.0  # per axis of w
DEFAULT_NODES = 257


class OracleConvergenceError(RuntimeError):
    """Node doubling gave a value that is not finite, or moved the result
    by more than the allowed budget."""

    def __init__(self, message: str, coarse: complex, fine: complex):
        super().__init__(message)
        self.coarse = coarse
        self.fine = fine


@dataclass(frozen=True)
class QuadratureSpec:
    """Quadrature rule on [-H, H]: rule name (Gauss-Legendre, the one rule),
    node count, halfwidth H."""

    rule: str = "gauss_legendre"
    nodes: int = DEFAULT_NODES
    domain_halfwidth: float = DEFAULT_CONFIG_HALFWIDTH

    def __post_init__(self):
        if self.rule != "gauss_legendre":
            raise ValueError(f"unknown quadrature rule {self.rule!r}")
        if self.nodes < 32:
            raise ValueError("at least 32 quadrature nodes required")
        if not (self.domain_halfwidth > 0 and math.isfinite(self.domain_halfwidth)):
            raise ValueError(f"quadrature halfwidth must be positive and finite, got {self.domain_halfwidth!r}")


@functools.lru_cache(maxsize=16)
def _legendre(nodes: int):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per node
    count and kept read-only."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def quadrature_nodes(rule: str, nodes: int, halfwidth: float):
    """Nodes and weights on [-halfwidth, halfwidth], as new arrays."""
    if rule != "gauss_legendre":
        raise ValueError(f"unknown quadrature rule {rule!r}")
    x, w = _legendre(nodes)
    return x * halfwidth, w * halfwidth


def _node_doubling(value, nodes: int, tol: float, imag_budget: float, name: str, where: str) -> float:
    """The real part of value(2 nodes + 1), checked against value(nodes).

    Raises ValueError unless tol is positive and finite (inf or nan would
    switch the check off, 0 pass only equal values and a negative budget
    fail on them), OracleConvergenceError if either value is not finite
    (NaN would pass both comparisons below) or if doubling the node count
    moves the value by more than 10*tol, and ArithmeticError if the finer
    value's imaginary part exceeds imag_budget.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    coarse = value(nodes)
    fine = value(2 * nodes + 1)
    if not (cmath.isfinite(coarse) and cmath.isfinite(fine)):
        raise OracleConvergenceError(
            f"{name} quadrature value not finite at {where}: {coarse} with {nodes} nodes, "
            f"{fine} with {2 * nodes + 1}",
            coarse,
            fine,
        )
    if abs(fine - coarse) > 10.0 * tol:
        raise OracleConvergenceError(
            f"{name} quadrature not converged at {where}: {coarse} vs {fine} under node doubling",
            coarse,
            fine,
        )
    if abs(fine.imag) > imag_budget:
        raise ArithmeticError(f"imaginary residual {fine.imag:.3e} in {name} integral at {where}")
    return fine.real


def _config_value(state, q, p, basis, rule, nodes, halfwidth) -> complex:
    y, w = quadrature_nodes(rule, nodes, halfwidth * basis.b)
    left = position_wavefunction(state, q + y / 2.0, basis)
    right = np.conj(position_wavefunction(state, q - y / 2.0, basis))
    kernel = np.exp(-1j * p * y / basis.hbar)
    return complex(np.sum(left * right * kernel * w) / (2.0 * math.pi * basis.hbar))


def wigner_config_integral(
    state: StateSpec,
    q: float,
    p: float,
    basis: BasisParams,
    quad: QuadratureSpec | None = None,
    tol: float = 1e-8,
) -> float:
    """Configuration-space quadrature estimate of W(q, p).

    The y-cutoff is quad.domain_halfwidth in units of the basis width b.
    Raises OracleConvergenceError if doubling the node count moves the value
    by more than 10*tol, ArithmeticError if an imaginary part above 1e-8
    remains, and ValueError unless tol is positive and finite.
    """
    quad = quad or QuadratureSpec()
    return _node_doubling(
        lambda nodes: _config_value(state, q, p, basis, quad.rule, nodes, quad.domain_halfwidth),
        quad.nodes, tol, 1e-8, "configuration-space", f"(q={q}, p={p})",
    )


def _phase_value(state, z, basis, rule, nodes, halfwidth) -> complex:
    x, w = quadrature_nodes(rule, nodes, halfwidth)
    wgrid = x[:, None] + 1j * x[None, :]
    w2d = np.outer(w, w)
    left = np.conj(bargmann(state, z + wgrid / 2.0))
    right = bargmann(state, z - wgrid / 2.0)
    kernel = np.exp(
        -(np.conj(wgrid) * wgrid).real / 4.0
        + np.conj(z) * wgrid / 2.0
        - z * np.conj(wgrid) / 2.0
    )
    integral = np.sum(left * right * kernel * w2d) / math.pi
    return complex(math.exp(-abs(z) ** 2) / (4.0 * math.pi * basis.hbar) * integral)


def wigner_phase_integral(
    state: StateSpec,
    z: complex,
    basis: BasisParams,
    quad: QuadratureSpec | None = None,
    tol: float = 1e-8,
) -> float:
    """Phase-space quadrature estimate of W at the label z, integrating the
    Bargmann product over w = u + iv on [-H, H]^2 with measure du dv / pi.
    H defaults to DEFAULT_PHASE_HALFWIDTH; tol is as in
    wigner_config_integral, and the imaginary budget is 1e-7."""
    quad = quad or QuadratureSpec(domain_halfwidth=DEFAULT_PHASE_HALFWIDTH)
    return _node_doubling(
        lambda nodes: _phase_value(state, z, basis, quad.rule, nodes, quad.domain_halfwidth),
        quad.nodes, tol, 1e-7, "phase-space", f"z={z}",
    )

