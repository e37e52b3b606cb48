"""Validation suites: closed-form agreement, agreement of the evaluated W
with the paper's form V^dagger F V, oracle concordance, normalization and
the position marginal at Gauss-Hermite nodes, and the basis-geometry checks.

Each check returns a CheckResult with its residual, tolerance and wall
time; the CLI `check` subcommand serializes them, and the acceptance tests
assert them at the same tolerances.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import TruncationPolicy, build_F, choose_truncation, wigner_closed_fock, wigner_series
from .geometry import check_b_independence, check_identity_crossb
from .oracles import QuadratureSpec, wigner_config_integral, wigner_phase_integral
from .phase import BasisParams, z_from_qp
from .states import (CoherentState, FockState, StateSpec, _terms, cat_state, derivative_tower, exact_degree,
                     position_wavefunction, superposition)

__all__ = ["CheckResult", "SUITES", "run_suite", "suite_series", "suite_oracles", "suite_geometry"]

_SEED = 20260810


@dataclass
class CheckResult:
    """One check's outcome. seconds is the wall time from the end of the
    suite's previous check (or the start of the suite) to this result, so
    work that two checks share is charged to the first."""

    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""
    seconds: float = 0.0


class _Results(list):
    """The CheckResults of one suite, each timed from the one before."""

    def __init__(self):
        super().__init__()
        self._since = time.perf_counter()

    def add(self, name, residual, tolerance, detail=""):
        now = time.perf_counter()
        self.append(CheckResult(name, bool(residual <= tolerance), float(residual), float(tolerance), detail,
                                now - self._since))
        self._since = now


def state_window(state: StateSpec, basis: BasisParams, n_widths: float = 6.0):
    """Rectangle covering n_widths position/momentum widths around the state.

    Returns (q_lo, q_hi, p_lo, p_hi). Superpositions get the envelope of
    their members.
    """
    boxes = []
    for _, member in _terms(state):
        Q, P, wq, wp = member.spread(basis)
        boxes.append((Q - n_widths * wq, Q + n_widths * wq, P - n_widths * wp, P + n_widths * wp))
    lo_q, hi_q, lo_p, hi_p = zip(*boxes)
    return min(lo_q), max(hi_q), min(lo_p), max(hi_p)


def _fock_agreement_residual(basis: BasisParams) -> float:
    qs = np.linspace(-3.0, 3.0, 21)
    qq, pp = np.meshgrid(qs, qs, indexing="ij")
    z = z_from_qp(qq, pp, basis)
    worst = 0.0
    for n in range(9):
        got = wigner_series(FockState(n), z, basis=basis)
        ref = wigner_closed_fock(n, z, basis)
        worst = max(worst, float(np.max(np.abs(got - ref)) / np.max(np.abs(ref))))
    return worst


def _paper_form_residual() -> tuple[float, float]:
    """Largest relative gaps between pi hbar W (wigner_series, exact) and
    the paper's form exp(-2|z|^2) Re(c^dagger F c), F = build_F(z, K),
    c_k = V_k/k!, K choose_truncation's, over 200 seeded points of the
    annulus 0.5 <= |z| <= 4: F is built once a state over all of them and
    contracted by einsum, F c first, as a matrix-vector product would:
    (polynomial states, pointwise, both sides exact at the degree; other
    states, in the max norm max|got - want| / max|want| of fock-closed-form,
    since where W is 1e-13 to 1e-20 of its peak the paper's side, cut at K,
    differs from W by more than a pointwise relative gap can hold)."""
    rng = np.random.default_rng(_SEED)
    r = rng.uniform(0.5, 4.0, 200)
    theta = rng.uniform(0.0, 2.0 * math.pi, 200)
    z = r * np.exp(1j * theta)
    gauss = np.exp(-2.0 * np.abs(z) ** 2)
    worst = [0.0, 0.0]
    states = [FockState(n) for n in range(9)] + [
        superposition([(0.5, FockState(n)) for n in range(4)]), CoherentState(0.7 - 0.4j), cat_state(1.2)]
    for state in states:
        K = choose_truncation(state, z, TruncationPolicy())
        c = derivative_tower(state, z, K) / np.array([math.factorial(k) for k in range(K + 1)])[:, None]
        want = gauss * np.einsum("np,np->p", c.conj(), np.einsum("njp,jp->np", build_F(z, K), c)).real
        got = math.pi * wigner_series(state, z)
        if exact_degree(state) is not None:
            gap = np.max(np.abs(got - want) / np.maximum(np.maximum(np.abs(got), np.abs(want)), 1e-280))
            worst[0] = max(worst[0], float(gap))
        else:
            worst[1] = max(worst[1], float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
    return worst[0], worst[1]


def suite_series() -> list[CheckResult]:
    basis = BasisParams()
    out = _Results()

    res = _fock_agreement_residual(basis)
    out.add("fock-closed-form", res, 1e-10, "fock(0..8), 21x21 grid over [-3,3]^2")

    polynomial, other = _paper_form_residual()
    out.add("paper-form-agreement", max(polynomial, other), 1e-9,
            f"evaluated W vs build_F form: polynomial states {polynomial:.3g} pointwise, "
            f"other states {other:.3g} in max norm; 200 annulus points, one K")

    target = -1.0 / math.pi
    phase_quad = QuadratureSpec(nodes=257, domain_halfwidth=14.0)
    values = {
        "series": wigner_series(FockState(1), 0j, basis=basis),
        "config-integral": wigner_config_integral(FockState(1), 0.0, 0.0, basis),
        "phase-integral": wigner_phase_integral(FockState(1), 0j, basis, phase_quad, tol=1e-12),
        "closed": wigner_closed_fock(1, 0j, basis),
    }
    res = max(abs(v - target) for v in values.values())
    out.add("negativity-witness", res, 1e-12, "fock(1) at the origin, four methods")
    return out


def _probe_points(state: StateSpec, basis: BasisParams):
    q_lo, q_hi, p_lo, p_hi = state_window(state, basis, 3.0)
    qs = np.linspace(q_lo, q_hi, 7)
    ps = np.linspace(p_lo, p_hi, 7)
    return [(float(q), float(p)) for q in qs for p in ps]


_HERMITE_NODES = 40


def _distribution_residuals(basis: BasisParams) -> tuple[float, float]:
    """Largest |Int W dq dp - 1| and |Int W dp - |psi(q)|^2| of fock 0-3 and
    coherent(0.8+0.55i), from wigner_series at Gauss-Hermite nodes whose
    weight e^(-s^2) is W's own Gaussian (DLMF 3.5(v)), so exact for a Fock
    degree below _HERMITE_NODES = 40: with x = s/sqrt(2), w = lambda e^(s^2)/sqrt(2)
    and dq dp = 2 hbar dx dy over z = x + iy, the norm is 2 hbar w^T W(x_j + i x_k) w,
    and the marginal at q is sqrt(2) hbar/b sum_k w_k W(q/(sqrt(2) b) + i x_k),
    at 201 points q of the state's 6-width window."""
    s, lam = np.polynomial.hermite.hermgauss(_HERMITE_NODES)
    root2 = math.sqrt(2.0)
    x, w = s / root2, lam * np.exp(s * s) / root2
    worst_norm = worst_marg = 0.0
    for state in [FockState(n) for n in range(4)] + [CoherentState(0.8 + 0.55j)]:
        norm = 2.0 * basis.hbar * (w @ wigner_series(state, x[:, None] + 1j * x, basis=basis) @ w)
        q = np.linspace(*state_window(state, basis)[:2], 201)
        marginal = root2 * basis.hbar / basis.b * (wigner_series(state, q[:, None] / (root2 * basis.b) + 1j * x,
                                                                 basis=basis) @ w)
        ref = np.abs(position_wavefunction(state, q, basis)) ** 2
        worst_norm = max(worst_norm, abs(float(norm) - 1.0))
        worst_marg = max(worst_marg, float(np.max(np.abs(marginal - ref))))
    return worst_norm, worst_marg


def suite_oracles() -> list[CheckResult]:
    basis = BasisParams()
    out = _Results()

    states = [FockState(n) for n in range(5)] + [CoherentState(0.9 - 1.2j), cat_state(1.0)]
    worst = 0.0
    worst_at = ""
    for state in states:
        for q, p in _probe_points(state, basis):
            z = z_from_qp(q, p, basis)
            w_series = wigner_series(state, z, basis=basis)
            w_config = wigner_config_integral(state, q, p, basis)
            w_phase = wigner_phase_integral(state, z, basis)
            dev = max(abs(w_config - w_series), abs(w_phase - w_series)) * math.pi * basis.hbar
            if dev > worst:
                worst, worst_at = dev, f"{state!r} at ({q:.2f}, {p:.2f})"
    out.add("oracle-concordance", worst, 1e-6, f"7x7 probes, units 1/(pi hbar); worst {worst_at}")

    worst_norm, worst_marg = _distribution_residuals(basis)
    out.add("normalization", worst_norm, 1e-12, f"Gauss-Hermite, {_HERMITE_NODES} nodes an axis")
    out.add("position-marginal", worst_marg, 1e-12, "marginal vs |psi(q)|^2 at 201 points, pointwise")
    return out


def suite_geometry() -> list[CheckResult]:
    hbar = 1.0
    U_center = (0.7, -0.4, 1.5)  # Q, P, B
    out = _Results()

    Q, P, B = U_center
    U = z_from_qp(Q, P, BasisParams(B, hbar))
    worst = 0.0
    scale = 1.0 / (math.pi * hbar)
    for b in (0.8, 1.0, 1.25):
        for q in np.linspace(-2.0, 2.0, 5):
            for p in np.linspace(-2.0, 2.0, 5):
                lhs, rhs = check_identity_crossb(U, B, float(q), float(p), BasisParams(b, hbar), step=1e-3 * b)
                worst = max(worst, abs(lhs - rhs) / max(abs(lhs), scale))
    out.add("width-derivative-identity", worst, 1e-6, "5x5x3 scan of (q, p, b)")

    # second-order convergence of the plain central difference
    basis = BasisParams(1.0, hbar)
    pairs = [check_identity_crossb(U, B, 1.3, 0.7, basis, step, extrapolate=False) for step in (2e-2, 1e-2)]
    r1, r2 = (abs(lhs - rhs) for lhs, rhs in pairs)
    ratio = r1 / r2 if r2 > 0 else float("inf")
    res = abs(ratio - 4.0)
    out.add("step-halving-convergence", res, 0.5, f"residual ratio {ratio:.3f} for steps 2e-2 / 1e-2")

    rng = np.random.default_rng(_SEED)
    worst = 0.0
    for _ in range(100):
        q, p = rng.uniform(-3.0, 3.0, 2)
        worst = max(worst, check_b_independence(Q, P, B, float(q), float(p), 1.0, 2.0, hbar))
    out.add("b-independence", worst, 1e-11, "100 random points, bases b=1 vs b=2")
    return out


SUITES = {
    "series": suite_series,
    "oracles": suite_oracles,
    "geometry": suite_geometry,
}


def run_suite(suite: str) -> list[CheckResult]:
    """Run one named suite or 'all'; returns the individual check results."""
    if suite == "all":
        results = []
        for fn in SUITES.values():
            results.extend(fn())
        return results
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {('all', *SUITES)}")
    return SUITES[suite]()
