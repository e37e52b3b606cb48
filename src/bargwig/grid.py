"""Rectangular (q, p) Wigner grids: evaluation with any method and CSV/JSON
serialization.

Grid evaluation runs in one process over blocks of q-rows. A block holds at
most TOWER_BUDGET derivative-tower entries, which bounds peak memory at any
grid size. The truncation order is frozen before the rows are cut and every
method is pointwise, so the values do not depend on the block size.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from . import __version__
from .core import TruncationPolicy, choose_truncation, wigner_closed_coherent_gaussian, wigner_closed_fock, wigner_series
from .oracles import QuadratureSpec, DEFAULT_PHASE_HALFWIDTH, wigner_config_integral, wigner_phase_integral
from .phase import BasisParams, qp_from_z, z_from_qp
from .states import CoherentState, FockState, StateSpec, exact_degree, state_to_json

__all__ = ["GridAxis", "WignerGrid", "evaluate_grid", "METHODS"]

METHODS = ("series", "series-scaled", "config-integral", "phase-integral", "closed")

BOUND_SLACK = 1e-9

# Derivative-tower entries ((K+1) per point, complex) evaluated per block of
# q-rows: 1<<18 entries is a 4 MB tower.
TOWER_BUDGET = 1 << 18


@dataclass(frozen=True)
class GridAxis:
    """Uniform axis samples: count points from lo to hi inclusive."""

    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if self.count < 2:
            raise ValueError("each grid axis needs at least 2 points")
        if not self.hi > self.lo:
            raise ValueError("axis upper bound must exceed lower bound")

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.count)


@dataclass
class WignerGrid:
    """W values on a rectangular lattice; values[i, j] = W(q_i, p_j)."""

    q_axis: GridAxis
    p_axis: GridAxis
    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    def validate(self, hbar: float = 1.0) -> None:
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid contains non-finite values")
        bound = 1.0 / (math.pi * hbar) + BOUND_SLACK
        worst = float(np.max(np.abs(self.values)))
        if worst > bound:
            raise ValueError(f"|W| = {worst} exceeds the 1/(pi hbar) bound {bound}")

    def to_dict(self, include_timestamp: bool = True) -> dict:
        meta = dict(self.metadata)
        if not include_timestamp:
            meta.pop("timestamp", None)
        return {
            "q_axis": {"min": self.q_axis.lo, "max": self.q_axis.hi, "count": self.q_axis.count},
            "p_axis": {"min": self.p_axis.lo, "max": self.p_axis.hi, "count": self.p_axis.count},
            "values": self.values.tolist(),
            "metadata": meta,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "WignerGrid":
        qa = GridAxis(obj["q_axis"]["min"], obj["q_axis"]["max"], obj["q_axis"]["count"])
        pa = GridAxis(obj["p_axis"]["min"], obj["p_axis"]["max"], obj["p_axis"]["count"])
        values = np.asarray(obj["values"], dtype=float)
        if values.shape != (qa.count, pa.count):
            raise ValueError("value array does not match the axes")
        return cls(qa, pa, values, dict(obj.get("metadata", {})))

    def write_csv(self, path) -> None:
        """Row-major q,p,W lines at 17 significant digits, deterministic."""
        # Each row is one bytes template, q-prefix joined to the p-columns,
        # filled by one %-format call and written in one call.
        cols = [b""] + [b"%.17g,%%.17g\n" % p for p in self.p_axis.points.tolist()]
        with open(path, "wb") as fh:
            fh.write(b"# bargwig v%s\nq,p,W\n" % __version__.encode())
            for q, row in zip(self.q_axis.points.tolist(), self.values):
                fh.write((b"%.17g," % q).join(cols) % tuple(row.tolist()))

    def write_json(self, path, include_timestamp: bool = True) -> None:
        # json.dumps takes the C encoder; json.dump streams through the Python one.
        text = json.dumps(self.to_dict(include_timestamp=include_timestamp), sort_keys=True)
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _closed_form_rows(state, q_rows, p_pts, z, basis):
    if isinstance(state, FockState):
        return wigner_closed_fock(state.n, z, basis)
    if isinstance(state, CoherentState):
        qq, pp = np.meshgrid(q_rows, p_pts, indexing="ij")
        Q, P = qp_from_z(state.u, basis)
        return wigner_closed_coherent_gaussian(Q, P, basis.b, qq, pp, basis.hbar)
    raise ValueError("closed-form evaluation is only available for Fock and coherent states")


def _eval_rows(state, q_rows, p_pts, z, basis, method, order, tol):
    """Evaluate one block of q-rows against all of p_pts; z holds the
    block's labels, its rows of the grid's one label array."""
    if method in ("series", "series-scaled"):
        policy = TruncationPolicy(tail_tolerance=tol) if tol else TruncationPolicy()
        if method == "series":
            return wigner_series(state, z, policy=policy, basis=basis, order=order)
        # The scaled form is singular only removably at z = 0, where its
        # limit is the standard value.
        origin = z == 0
        out = np.empty(z.shape)
        out[~origin] = wigner_series(state, z[~origin], policy=policy, variant="scaled", basis=basis, order=order)
        out[origin] = wigner_series(state, z[origin], policy=policy, variant="standard", basis=basis, order=order)
        return out
    if method == "closed":
        return _closed_form_rows(state, q_rows, p_pts, z, basis)
    # The oracles take tol as their convergence budget; unset, their default.
    budget = {"tol": tol} if tol else {}
    out = np.empty(z.shape)
    if method == "config-integral":
        quad = QuadratureSpec()
        for i, j in np.ndindex(z.shape):
            out[i, j] = wigner_config_integral(state, q_rows[i], p_pts[j], basis, quad, **budget)
        return out
    if method == "phase-integral":
        quad = QuadratureSpec(domain_halfwidth=DEFAULT_PHASE_HALFWIDTH)
        for i, j in np.ndindex(z.shape):
            out[i, j] = wigner_phase_integral(state, complex(z[i, j]), basis, quad, **budget)
        return out
    raise ValueError(f"unknown method {method!r}")


def evaluate_grid(
    state: StateSpec,
    q_axis: GridAxis,
    p_axis: GridAxis,
    basis: Optional[BasisParams] = None,
    method: str = "series",
    tol: Optional[float] = None,
) -> WignerGrid:
    """Evaluate W on the lattice q_axis x p_axis with the chosen method.

    method is one of METHODS; tol is the series tail tolerance, or the
    convergence budget of config-integral and phase-integral; None keeps
    each default. The grid is evaluated in this process, in blocks of q-rows
    of at most TOWER_BUDGET derivative-tower entries ((K+1) per point, K = 0
    for the closed forms and the oracles), which are stacked in row-major
    order.
    """
    basis = basis or BasisParams()
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")

    q_pts = q_axis.points
    p_pts = p_axis.points
    # The labels of the whole grid, computed once; each block takes its rows.
    z = z_from_qp(*np.meshgrid(q_pts, p_pts, indexing="ij"), basis)

    order = None
    if method in ("series", "series-scaled"):
        # One truncation order for the whole grid keeps block evaluation
        # identical to a single call.
        policy = TruncationPolicy(tail_tolerance=tol) if tol else TruncationPolicy()
        order = choose_truncation(state, z, policy)

    rows = max(1, TOWER_BUDGET // (((order or 0) + 1) * len(p_pts)))
    values = np.vstack([
        _eval_rows(state, q_pts[lo:lo + rows], p_pts, z[lo:lo + rows], basis, method, order, tol)
        for lo in range(0, len(q_pts), rows)
    ])

    grid = WignerGrid(
        q_axis,
        p_axis,
        np.asarray(values, dtype=float),
        metadata={
            "state": state_to_json(state),
            "basis": {"b": basis.b, "hbar": basis.hbar},
            "method": method,
            "truncation_order": order if order is not None else exact_degree(state),
            "tool": "bargwig",
            "version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        },
    )
    grid.validate(basis.hbar)
    return grid
