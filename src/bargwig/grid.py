"""Rectangular (q, p) Wigner grids: evaluation with any method and CSV/JSON
serialization.

The methods are the series (core's evaluation: the paper's form, summed
exactly pair by pair of the state's members as Royer's displaced parity
<psi|D(2z) Pi|psi>), the two quadrature oracles (config-integral and
phase-integral) and the Fock and coherent closed forms (closed). Both
writers format every number as the shortest text that parses back to the
identical double (orjson), and refuse non-finite values before the file is
opened.

The series is one call to core._evaluate on the grid's axes, in this
process, with no label lattice. The metadata records "truncation_order",
the state's exact degree for every method: the order of its number
amplitudes if it is polynomial, null if it has a coherent member. Beyond a
block of the sum a grid holds its values and validate's |W|, 16 bytes a point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from . import __version__
from .core import _evaluate, wigner_closed_coherent_gaussian, wigner_closed_fock
from .oracles import wigner_config_integral, wigner_phase_integral
from .phase import BasisParams, qp_from_z, z_from_qp
from .states import CoherentState, FockState, StateSpec, exact_degree

__all__ = ["GridAxis", "WignerGrid", "evaluate_grid", "METHODS"]

METHODS = ("series", "config-integral", "phase-integral", "closed")

BOUND_SLACK = 1e-9

# Buffer of write_csv's file: one text row of a 200-point p-axis is about
# 12 KB, more than the default buffer, which would write each row unbuffered.
CSV_BUFFER = 1 << 18


@dataclass(frozen=True)
class GridAxis:
    """Uniform axis samples: count points from lo to hi inclusive."""

    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if isinstance(self.count, bool) or not isinstance(self.count, (int, np.integer)):
            raise ValueError(f"axis count must be an integer, got {self.count!r}")
        object.__setattr__(self, "count", int(self.count))
        if self.count < 2:
            raise ValueError("each grid axis needs at least 2 points")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"axis bounds must be finite, got [{self.lo!r}, {self.hi!r}]")
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

    def __post_init__(self):
        want = (self.q_axis.count, self.p_axis.count)
        if np.shape(self.values) != want:
            raise ValueError(f"values of shape {np.shape(self.values)} do not match the axes, which need {want}")

    def _at(self, flat: int) -> str:
        i, j = np.unravel_index(flat, self.values.shape)
        return f"(q, p) = ({float(self.q_axis.points[i])!r}, {float(self.p_axis.points[j])!r})"

    def _require_finite(self) -> None:
        bad = np.flatnonzero(~np.isfinite(self.values))
        if bad.size:
            raise ValueError(f"grid contains non-finite W = {float(self.values.flat[bad[0]])!r} at {self._at(bad[0])}")

    def validate(self, hbar: float = 1.0) -> None:
        self._require_finite()
        bound = 1.0 / (math.pi * hbar) + BOUND_SLACK
        flat = int(np.argmax(np.abs(self.values)))
        worst = abs(float(self.values.flat[flat]))
        if worst > bound:
            raise ValueError(f"|W| = {worst!r} at {self._at(flat)} exceeds the 1/(pi hbar) bound {bound!r}")

    def to_dict(self, include_timestamp: bool = True) -> dict:
        return self._dict(self.values.tolist(), include_timestamp)

    def _dict(self, values, include_timestamp: bool) -> dict:
        meta = dict(self.metadata)
        if not include_timestamp:
            meta.pop("timestamp", None)
        return {
            "q_axis": {"min": self.q_axis.lo, "max": self.q_axis.hi, "count": self.q_axis.count},
            "p_axis": {"min": self.p_axis.lo, "max": self.p_axis.hi, "count": self.p_axis.count},
            "values": values,
            "metadata": meta,
        }

    def _doubles(self) -> np.ndarray:
        """values as the C-contiguous float64 array orjson formats."""
        return np.ascontiguousarray(self.values, dtype=np.float64)

    @classmethod
    def from_dict(cls, obj: dict) -> "WignerGrid":
        qa = GridAxis(obj["q_axis"]["min"], obj["q_axis"]["max"], obj["q_axis"]["count"])
        pa = GridAxis(obj["p_axis"]["min"], obj["p_axis"]["max"], obj["p_axis"]["count"])
        return cls(qa, pa, np.asarray(obj["values"], dtype=float), dict(obj.get("metadata", {})))

    def write_csv(self, path) -> None:
        """Row-major q,p,W lines after a two-line header. Every number is the
        shortest text that parses back to the identical double, so the
        output is deterministic; non-finite W raises ValueError naming its
        point, before the file is opened."""
        self._require_finite()
        # Each row is one bytes template, q-prefix joined to the p-columns,
        # filled by one %-format call and written in one call. Formatting
        # row by row keeps the text of one row alive, not of the grid.
        cols = [b""] + [p + b",%s\n" for p in _fields(self.p_axis.points)]
        with open(path, "wb", buffering=CSV_BUFFER) as fh:
            fh.write(b"# bargwig v%s\nq,p,W\n" % __version__.encode())
            for q, row in zip(_fields(self.q_axis.points), self._doubles()):
                fh.write((q + b",").join(cols) % tuple(_fields(row)))

    def write_json(self, path, include_timestamp: bool = True) -> None:
        """to_dict() as one line of JSON with sorted keys, numbers as in
        write_csv; numpy scalars in metadata are written as numbers."""
        import orjson  # on first use: `import bargwig` does not pay for it

        self._require_finite()
        options = orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE | orjson.OPT_SERIALIZE_NUMPY
        text = orjson.dumps(self._dict(self._doubles(), include_timestamp), option=options)
        with open(path, "wb") as fh:
            fh.write(text)


def _fields(values: np.ndarray) -> list:
    """The shortest round-trip text of each double in a C-contiguous 1-D
    float64 array, as bytes."""
    import orjson  # on first use: `import bargwig` does not pay for it

    return orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].split(b",")


def _closed_form(state, q_pts, p_pts, z, basis):
    if isinstance(state, FockState):
        return wigner_closed_fock(state.n, z, basis)
    if isinstance(state, CoherentState):
        Q, P = qp_from_z(state.u, basis)
        return wigner_closed_coherent_gaussian(Q, P, basis.b, q_pts[:, None], p_pts[None, :], basis.hbar)
    raise ValueError("closed-form evaluation is only available for Fock and coherent states")


def evaluate_grid(
    state: StateSpec,
    q_axis: GridAxis,
    p_axis: GridAxis,
    basis: Optional[BasisParams] = None,
    method: str = "series",
    tol: Optional[float] = None,
) -> WignerGrid:
    """Evaluate W on the lattice q_axis x p_axis with the chosen method.

    method is one of METHODS; tol is the convergence budget of
    config-integral and phase-integral, positive and finite, None for their
    default. The series and the closed forms are exact and take no tol.
    """
    basis = basis or BasisParams()
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    if tol is not None and not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if tol is not None and method in ("series", "closed"):
        raise ValueError(f"method {method!r} is exact and takes no tol; tol is the oracles' convergence budget")

    q_pts = q_axis.points
    p_pts = p_axis.points
    if method == "series":  # Re z depends on q alone and Im z on p alone: the series takes the axes
        x, y = z_from_qp(q_pts, 0.0, basis).real, z_from_qp(0.0, p_pts, basis).imag
        values = _evaluate(state, x[:, None], y[None, :], basis.hbar)
    else:
        z = z_from_qp(q_pts[:, None], p_pts[None, :], basis)
    if method == "closed":
        values = _closed_form(state, q_pts, p_pts, z, basis)
    elif method != "series":
        # The oracles take tol as their convergence budget; unset, their default.
        budget = {} if tol is None else {"tol": tol}
        values = np.empty(z.shape)
        for i, j in np.ndindex(z.shape):
            if method == "config-integral":
                values[i, j] = wigner_config_integral(state, q_pts[i], p_pts[j], basis, **budget)
            else:
                values[i, j] = wigner_phase_integral(state, complex(z[i, j]), basis, **budget)

    grid = WignerGrid(
        q_axis,
        p_axis,
        values,
        metadata={
            "state": state.to_json(),
            "basis": {"b": basis.b, "hbar": basis.hbar},
            "method": method,
            "truncation_order": exact_degree(state),
            "tool": "bargwig",
            "version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        },
    )
    grid.validate(basis.hbar)
    return grid
