"""Validation suites: closed-form agreement, agreement of the series walk
with the paper's form V^dagger F V, oracle concordance,
marginals/normalization, and the basis-geometry checks.

Each check returns a CheckResult with its residual, tolerance and wall
time; the CLI `check` subcommand serializes them, and the acceptance tests
assert them at the same tolerances.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import TruncationPolicy, _series_sum, build_F, choose_truncation, wigner_closed_fock, wigner_series
from .geometry import check_b_independence, check_identity_crossb
from .grid import GridAxis, evaluate_grid
from .oracles import QuadratureSpec, marginal_position, normalization, wigner_config_integral, wigner_phase_integral
from .phase import BasisParams, PhasePoint, z_from_qp
from .states import (CoherentState, FockState, StateSpec, _terms, cat_state, derivative_tower,
                     position_wavefunction, state_label, superposition)

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

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "residual": self.residual,
            "tolerance": self.tolerance,
            "detail": self.detail,
            "seconds": self.seconds,
        }


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


def _fock_agreement_residual(n_max: int, grid_points: int, extent: float, basis: BasisParams) -> float:
    qs = np.linspace(-extent, extent, grid_points)
    qq, pp = np.meshgrid(qs, qs, indexing="ij")
    z = z_from_qp(qq, pp, basis)
    worst = 0.0
    for n in range(n_max + 1):
        got = wigner_series(FockState(n), z, basis=basis)
        ref = wigner_closed_fock(n, z, basis)
        worst = max(worst, float(np.max(np.abs(got - ref)) / np.max(np.abs(ref))))
    return worst


def _catalog_degree_le(max_degree: int):
    states = [FockState(n) for n in range(max_degree + 1)]
    states.append(
        superposition(
            [(0.5, FockState(0)), (0.5, FockState(1)), (0.5, FockState(2)), (0.5, FockState(3))]
        )
    )
    states.append(CoherentState(0.7 - 0.4j))
    states.append(cat_state(1.2))
    return states


def _paper_form_residual(n_points: int, n_used: int, r_lo: float, r_hi: float) -> float:
    """Largest relative gap between the walk (_series_sum) and the paper's
    form Re(c^dagger F c), F = build_F(z, K), c_k = V_k/k!, over the first
    n_used of n_points seeded annulus points; W's factor
    exp(-2|z|^2)/(pi hbar) is common to both and left out. Both take one K,
    choose_truncation's in the origin frame: at different orders, or in a
    coherent state's own frame, they would compare two truncations."""
    rng = np.random.default_rng(_SEED)
    r = rng.uniform(r_lo, r_hi, n_points)
    theta = rng.uniform(0.0, 2.0 * math.pi, n_points)
    z = (r * np.exp(1j * theta))[:n_used]
    worst = 0.0
    for state in _catalog_degree_le(8):
        K = choose_truncation(state, z, TruncationPolicy())
        walk = _series_sum(state, z, K)
        c = derivative_tower(state, z, K) / np.array([math.factorial(k) for k in range(K + 1)])[:, None]
        paper = np.array([np.vdot(c[:, i], build_F(z[i], K) @ c[:, i]).real for i in range(z.size)])
        rel = np.abs(walk - paper) / np.maximum(np.maximum(np.abs(walk), np.abs(paper)), 1e-280)
        worst = max(worst, float(np.max(rel)))
    return worst


def suite_series(tol_override: Optional[float] = None) -> list[CheckResult]:
    basis = BasisParams()
    out = _Results()

    tol = 1e-10 if tol_override is None else tol_override
    res = _fock_agreement_residual(n_max=8, grid_points=21, extent=3.0, basis=basis)
    out.add("fock-closed-form", res, tol, "fock(0..8), 21x21 grid over [-3,3]^2")

    tol = 1e-9 if tol_override is None else tol_override
    res = _paper_form_residual(n_points=200, n_used=48, r_lo=0.5, r_hi=4.0)
    out.add("paper-form-agreement", res, tol, "walk vs build_F form, first 48 of 200 annulus points, one K")

    tol = 1e-12 if tol_override is None else tol_override
    target = -1.0 / math.pi
    phase_quad = QuadratureSpec(nodes=257, domain_halfwidth=14.0)
    values = {
        "series": wigner_series(FockState(1), 0j, basis=basis),
        "config-integral": wigner_config_integral(FockState(1), 0.0, 0.0, basis),
        "phase-integral": wigner_phase_integral(FockState(1), 0j, basis, phase_quad, tol=1e-12),
        "closed": wigner_closed_fock(1, 0j, basis),
    }
    res = max(abs(v - target) for v in values.values())
    out.add("negativity-witness", res, tol, "fock(1) at the origin, four methods")
    return out


def _probe_points(state: StateSpec, basis: BasisParams, n: int = 7, n_widths: float = 3.0):
    q_lo, q_hi, p_lo, p_hi = state_window(state, basis, n_widths)
    qs = np.linspace(q_lo, q_hi, n)
    ps = np.linspace(p_lo, p_hi, n)
    return [(float(q), float(p)) for q in qs for p in ps]


def suite_oracles(tol_override: Optional[float] = None) -> list[CheckResult]:
    basis = BasisParams()
    out = _Results()

    tol = 1e-6 if tol_override is None else tol_override
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
                worst, worst_at = dev, f"{state_label(state)} at ({q:.2f}, {p:.2f})"
    out.add("oracle-concordance", worst, tol, f"7x7 probes, units 1/(pi hbar); worst {worst_at}")

    tol = 1e-6 if tol_override is None else tol_override
    states = [FockState(n) for n in range(4)] + [CoherentState(0.8 + 0.55j)]
    worst_norm = 0.0
    worst_marg = 0.0
    for state in states:
        q_lo, q_hi, p_lo, p_hi = state_window(state, basis, 6.0)
        grid = evaluate_grid(state, GridAxis(q_lo, q_hi, 201), GridAxis(p_lo, p_hi, 201), basis)
        worst_norm = max(worst_norm, abs(normalization(grid) - 1.0))
        marg = marginal_position(grid)
        ref = np.abs(position_wavefunction(state, marg.q, basis)) ** 2
        worst_marg = max(worst_marg, float(np.max(np.abs(marg.density - ref))))
    out.add("normalization", worst_norm, tol, "201x201 grids over 6 state widths")
    out.add("position-marginal", worst_marg, tol, "marginal vs |psi(q)|^2, pointwise")
    return out


def suite_geometry(tol_override: Optional[float] = None) -> list[CheckResult]:
    hbar = 1.0
    U_center = (0.7, -0.4, 1.5)  # Q, P, B
    out = _Results()

    tol = 1e-6 if tol_override is None else tol_override
    Q, P, B = U_center
    U = z_from_qp(Q, P, BasisParams(B, hbar))
    worst = 0.0
    scale = 1.0 / (math.pi * hbar)
    for b in (0.8, 1.0, 1.25):
        for q in np.linspace(-2.0, 2.0, 5):
            for p in np.linspace(-2.0, 2.0, 5):
                point = PhasePoint(float(q), float(p), BasisParams(b, hbar))
                report = check_identity_crossb(U, B, point, step=1e-3 * b)
                worst = max(worst, report.max_residual / max(abs(report.lhs), scale))
    out.add("width-derivative-identity", worst, tol, "5x5x3 scan of (q, p, b)")

    # second-order convergence of the plain central difference
    point = PhasePoint(1.3, 0.7, BasisParams(1.0, hbar))
    r1 = check_identity_crossb(U, B, point, step=2e-2, extrapolate=False).residuals["qp"]
    r2 = check_identity_crossb(U, B, point, step=1e-2, extrapolate=False).residuals["qp"]
    ratio = r1 / r2 if r2 > 0 else float("inf")
    res = abs(ratio - 4.0)
    out.add("step-halving-convergence", res, 0.5 if tol_override is None else tol_override,
            f"residual ratio {ratio:.3f} for steps 2e-2 / 1e-2")

    tol = 1e-11 if tol_override is None else tol_override
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    for _ in range(100):
        q, p = rng.uniform(-3.0, 3.0, 2)
        worst = max(worst, check_b_independence(Q, P, B, float(q), float(p), 1.0, 2.0, hbar))
    out.add("b-independence", worst, tol, "100 random points, bases b=1 vs b=2")
    return out


SUITES = {
    "series": suite_series,
    "oracles": suite_oracles,
    "geometry": suite_geometry,
}


def run_suite(suite: str, tol_override: Optional[float] = None) -> list[CheckResult]:
    """Run one named suite or 'all'; returns the individual check results."""
    if suite == "all":
        results = []
        for fn in SUITES.values():
            results.extend(fn(tol_override))
        return results
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {('all', *SUITES)}")
    return SUITES[suite](tol_override)
