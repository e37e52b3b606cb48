"""The benchmark's workloads: what one op is, how it is checked, and how a
traced op is split into layer calls.

Every workload runs the same fixed catalog (fock 0/6/12, coherent 0.7-0.4i,
cat 1.1 and a 4-term Fock superposition), given as the state JSON the
command line reads. The seed shuffles the op order of each pass; the
catalog, grids, probe lattice and error sample are fixed, so that every run
does the same work.

  grid200  `bargwig eval --method series` in-process on [-3,3]^2 at 200^2,
           CSV out. The kernel contraction dominates and the process pool
           wins.
  grid60   the same catalog at 60^2 with `series`, plus `closed` where a
           closed form exists, JSON out. Fixed per-call costs dominate and
           the pool loses, so this sits on the other side of the pool's
           break-even point from grid200.
  probes   the `bargwig check` concordance path: per state, a small fixed
           lattice of single points, each evaluated by wigner_series,
           wigner_config_integral and wigner_phase_integral with no pool,
           and the three values cross-checked. The oracles dominate.
           BENCHMARK.json does not list it: on a 2-vCPU VM its run-to-run
           spread (IQR/median of us_per_point, 0.15-0.28 over 5-run
           samples) exceeds the largest bound a metric may have, while the
           grids stay near 0.07. Its memory-heavy 515^2 phase-space grids
           run 30% slower in some runs than in others. The traced passes of
           both grids time the oracle layers at one grid point per op.

The pooled oracle path (`evaluate_grid(method="config-integral")`) is not
timed: its wall time through the default pool varies by more than an order
of magnitude between runs, so no bound could hold it.

Failures that the program reports are kept, not windowed away: cat(1.1)
raises TruncationError on both grids, and fock(12) raises ArithmeticError
("lost Hermiticity") on grid200.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import time
from contextlib import redirect_stderr
from dataclasses import dataclass, field

import numpy as np

from bargwig import cli
from bargwig.core import (
    TruncationPolicy,
    choose_truncation,
    wigner_closed_coherent_gaussian,
    wigner_closed_fock,
    wigner_series,
)
from bargwig.grid import GridAxis, WignerGrid, evaluate_grid
from bargwig.oracles import (
    DEFAULT_PHASE_HALFWIDTH,
    QuadratureSpec,
    quadrature_nodes,
    wigner_config_integral,
    wigner_phase_integral,
)
from bargwig.phase import BasisParams, qp_from_z, z_from_qp
from bargwig.states import derivative_tower, state_from_json

from spans import Tracer


def _coherent(re, im=0.0):
    return {"type": "coherent", "re": re, "im": im}


def _term(coeff, state):
    return {"coeff": {"re": coeff, "im": 0.0}, "state": state}


CATALOG = {
    "fock0": {"type": "fock", "n": 0},
    "fock6": {"type": "fock", "n": 6},
    "fock12": {"type": "fock", "n": 12},
    "coherent": _coherent(0.7, -0.4),
    "cat1.1": {"type": "superposition", "terms": [_term(1.0, _coherent(1.1)), _term(1.0, _coherent(-1.1))]},
    "sup4": {"type": "superposition", "terms": [_term(0.5, {"type": "fock", "n": n}) for n in range(4)]},
}
CLOSED_FORM_STATES = ("fock0", "fock6", "fock12", "coherent")

WINDOW = (-3.0, 3.0)
BASIS = BasisParams(1.0, 1.0)
W_BOUND = 1.0 / (math.pi * BASIS.hbar)
# Largest |W - W_ref| * pi * hbar an accepted value may carry; the same
# tolerance bounds the disagreement between the three routes on probes.
CHECK_TOL = 1e-6
# Resolution of the error metric: a maximum at roundoff level moves by a few
# ulp with the sampled points, so errors below ~30 ulp of 1/(pi hbar) read as
# this floor and only a loss of digits above it shows.
ERR_FLOOR = 1e-14
# Node sets of one configuration-space and one phase-space oracle call.
ORACLE_QUADS = (QuadratureSpec(), QuadratureSpec(domain_halfwidth=DEFAULT_PHASE_HALFWIDTH))
# Off-axis probe coordinates inside the grid window, away from the origin
# and the symmetry axes of the catalog states.
PROBE_Q = (-1.6, 1.1)
PROBE_P = (-0.8, 1.4)
# Points per state for the error metric: a fixed ERR_LATTICE^2 sub-lattice of
# the grid plus the extrema of W. A seeded random sample made the maximum
# jump between seeds (fock(12) on 60^2: 1.57e-12 or 2.23e-12), so the sample
# does not depend on the seed.
ERR_LATTICE = 24


@dataclass
class Op:
    op_id: int
    state: str
    method: str
    q: float | None = None
    p: float | None = None

    @property
    def key(self):
        return (self.state, self.method, self.q, self.p)

    @property
    def label(self) -> str:
        where = "" if self.q is None else f"@({self.q},{self.p})"
        return f"{self.state}:{self.method}{where}"


@dataclass
class OpResult:
    seconds: float  # the op itself, without the benchmark's checks
    points: int
    failure: dict | None = None  # {"type", "message"} when the op failed
    wrong: bool = False  # failed an output check (as opposed to raising)


@dataclass
class Ledger:
    """Failed ops, one entry per distinct op and failure, with a count."""

    entries: dict = field(default_factory=dict)

    def add(self, workload: str, op: Op, failure: dict) -> None:
        entry = self.entries.setdefault(
            (op.key, failure["type"], failure["message"]),
            {"workload": workload, "state": op.state, "method": op.method, "q": op.q, "p": op.p,
             "type": failure["type"], "message": failure["message"], "count": 0, "first_op": op.op_id},
        )
        entry["count"] += 1

    def as_list(self) -> list:
        return list(self.entries.values())


def _fail(exc: BaseException) -> dict:
    return {"type": type(exc).__name__, "message": str(exc)}


def _abs_max(values) -> float:
    return float(np.max(np.abs(values)))


def _timed(row: dict, tracer: Tracer, op_id: int, name: str, fn, *args, **kwargs):
    """Call fn inside a span; with tracing on, keep its duration in row."""
    with tracer.span(name, op_id) as sp:
        out = fn(*args, **kwargs)
    if sp is not None:
        row[name] = sp.duration
    return out


def _oracle_nodes() -> None:
    """Build the nodes each oracle call builds for itself: N and 2N+1 per rule."""
    for quad in ORACLE_QUADS:
        for nodes in (quad.nodes, 2 * quad.nodes + 1):
            quadrature_nodes(quad.rule, nodes, quad.domain_halfwidth)


def _oracle_layers(row: dict, tracer: Tracer, op_id: int, state, q: float, p: float, z: complex):
    """The two quadrature oracles at (q, p), with their node building timed apart."""
    if tracer.enabled:
        _timed(row, tracer, op_id, "oracles.quadrature_nodes", _oracle_nodes)
    w_config = _timed(row, tracer, op_id, "oracles.config_integral", wigner_config_integral, state, q, p, BASIS)
    w_phase = _timed(row, tracer, op_id, "oracles.phase_integral", wigner_phase_integral, state, z, BASIS)
    return w_config, w_phase


class Workload:
    """Shared bookkeeping: seeded op order, first-seen values for the
    determinism check, and the points the error metric samples."""

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.ledger = Ledger()
        self.first_values: dict = {}  # op key -> bytes of the first accepted values
        self.err_points: dict = {}  # (state, ...) -> [(q, p, value), ...] to check against the reference
        self.layer_rows: list[dict] = []  # per traced op: layer name -> seconds or counts
        self._next_op = 0

    def pass_ops(self, pass_index: int) -> list[Op]:
        ops = []
        for spec in self.op_specs():
            ops.append(Op(self._next_op, *spec))
            self._next_op += 1
        random.Random(self.seed * 1_000_003 + pass_index).shuffle(ops)
        return ops

    def _same_as_first(self, op: Op, values: np.ndarray) -> bool:
        raw = np.ascontiguousarray(values, dtype=float).tobytes()
        return self.first_values.setdefault(op.key, raw) == raw


class GridWorkload(Workload):
    """One op is `bargwig eval` through cli.main on the fixed window."""

    def __init__(self, name: str, n: int, fmt: str, closed: bool, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.name = name
        self.n = n
        self.fmt = fmt
        self.closed = closed
        self.axis = GridAxis(WINDOW[0], WINDOW[1], n)
        self.state_paths = {}
        for state, obj in CATALOG.items():
            path = os.path.join(workdir, f"{state}.json")
            with open(path, "w") as fh:
                json.dump(obj, fh)
            self.state_paths[state] = path
        self.out_path = os.path.join(workdir, f"out.{fmt}")
        self.replayed: dict = {}

    def op_specs(self):
        specs = [(s, "series") for s in CATALOG]
        if self.closed:
            specs += [(s, "closed") for s in CLOSED_FORM_STATES]
        return specs

    def _argv(self, op: Op, out: str) -> list[str]:
        lo, hi = (repr(v) for v in WINDOW)
        n = str(self.n)
        return ["eval", "--state", self.state_paths[op.state], "--normalize",
                "--qmin", lo, "--qmax", hi, "--nq", n, "--pmin", lo, "--pmax", hi, "--np", n,
                "--method", op.method, "--out", out, "--format", self.fmt]

    def run(self, op: Op, tracer: Tracer) -> OpResult:
        points = self.n * self.n
        _remove(self.out_path)
        stderr = io.StringIO()
        exc = None
        with tracer.span("cli.main", op.op_id):
            t0 = time.perf_counter()
            try:
                with redirect_stderr(stderr):
                    rc = cli.main(self._argv(op, self.out_path))
            except (Exception, SystemExit) as e:  # an escaped exception is a failed op, not a crash
                rc, exc = None, e
            seconds = time.perf_counter() - t0
        if exc is not None:
            result = OpResult(seconds, points, _fail(exc))
        elif rc != 0:
            result = OpResult(seconds, points, self._replay_failure(op, rc, stderr.getvalue()))
        else:
            with tracer.span("bench.check", op.op_id):
                problem = self._check_output(op)
            result = OpResult(seconds, points, problem and {"type": "OutputCheck", "message": problem},
                              wrong=problem is not None)
        if tracer.enabled:
            self._layers(op, tracer)
        return result

    def _replay_failure(self, op: Op, rc: int, stderr: str) -> dict:
        """The CLI reports only a message; one direct evaluate_grid call per
        (state, method) recovers the exception type for the ledger."""
        if op.key not in self.replayed:
            kind = "none raised on replay"
            try:
                state = state_from_json(CATALOG[op.state], normalize=True)
                evaluate_grid(state, self.axis, self.axis, BASIS, method=op.method)
            except Exception as e:
                kind = type(e).__name__
            self.replayed[op.key] = kind
        return {"type": self.replayed[op.key], "message": f"exit {rc}: {stderr.strip()}"}

    def _check_output(self, op: Op) -> str | None:
        axis_pts = self.axis.points
        if self.fmt == "csv":
            with open(self.out_path) as fh:
                header = [fh.readline(), fh.readline()]
                try:
                    table = np.loadtxt(fh, delimiter=",", ndmin=2)
                except ValueError as e:
                    return f"CSV rows do not parse: {e}"
            if header[1] != "q,p,W\n" or table.shape != (self.n * self.n, 3):
                return f"CSV has header {header!r} and {table.shape} values, expected q,p,W and {self.n * self.n} rows"
            q_col = table[:, 0].reshape(self.n, self.n)
            p_col = table[:, 1].reshape(self.n, self.n)
            if not (np.array_equal(q_col[:, 0], axis_pts) and np.array_equal(p_col[0], axis_pts)):
                return "CSV q/p columns do not match the requested axes"
            values = table[:, 2].reshape(self.n, self.n)
        else:
            with open(self.out_path) as fh:
                obj = json.load(fh)
            try:
                grid = WignerGrid.from_dict(obj)
            except (KeyError, TypeError, ValueError) as e:
                return f"JSON does not load through WignerGrid.from_dict: {e}"
            if grid.to_dict() != obj:
                return "JSON does not round-trip through WignerGrid.from_dict"
            if grid.q_axis != self.axis or grid.p_axis != self.axis:
                return "JSON axes do not match the requested axes"
            values = grid.values
        if not np.all(np.isfinite(values)):
            return "non-finite W"
        if _abs_max(values) > W_BOUND * (1 + 1e-12):
            return f"|W| = {_abs_max(values)!r} exceeds 1/(pi hbar)"
        if not self._same_as_first(op, values):
            return "values differ from the first run of the same op"
        self._keep_err_points(op, values)
        return None

    def _keep_err_points(self, op: Op, values: np.ndarray) -> None:
        key = (op.state, op.method)
        if key in self.err_points:
            return
        n = self.n
        lines = np.unique(np.linspace(0, n - 1, ERR_LATTICE).round().astype(int))
        flat = {int(i * n + j) for i in lines for j in lines}
        flat |= {int(np.argmax(values)), int(np.argmin(values))}
        pts = self.axis.points
        self.err_points[key] = [(float(pts[i // n]), float(pts[i % n]), float(values.flat[i])) for i in sorted(flat)]

    def _layers(self, op: Op, tracer: Tracer) -> None:
        """Repeat the op's work one layer at a time, each call in a span.
        A layer that raises ends its chain; its span keeps the error."""
        row = {}
        sid = op.op_id

        def timed(name, fn, *args, **kwargs):
            return _timed(row, tracer, sid, name, fn, *args, **kwargs)

        state = timed("states.state_from_json", _load_state, self.state_paths[op.state])
        qq, pp = np.meshgrid(self.axis.points, self.axis.points, indexing="ij")
        z = timed("phase.z_from_qp", z_from_qp, qq, pp, BASIS)
        # evaluate_grid and the writer first, in the state cli.main left, so
        # that cli.main minus these three is the CLI's own cost
        try:
            cpu0 = os.times()
            grid = timed("grid.evaluate_grid", evaluate_grid, state, self.axis, self.axis, BASIS, method=op.method)
            cpu1 = os.times()
            row["evaluate_grid_cpu"] = sum(cpu1[:4]) - sum(cpu0[:4])
            _remove(self.out_path)  # cli.main too writes a new file
            timed(f"grid.write_{self.fmt}", getattr(grid, f"write_{self.fmt}"), self.out_path)
            row["out_mb"] = os.path.getsize(self.out_path) / 1e6
        except Exception:
            pass  # the span of the layer that raised keeps the error
        try:
            if op.method == "series":
                K = timed("core.choose_truncation", choose_truncation, state, z, TruncationPolicy())
                row["K"] = K
                row["entries"] = z.size * (K + 1) ** 2
                row["tower_mb"] = (K + 1) * z.size * 16 / 1e6
                timed("states.derivative_tower", derivative_tower, state, z.ravel(), K)
                timed("core.wigner_series", wigner_series, state, z, basis=BASIS, order=K)
            else:
                timed("core.closed", _closed_form, op.state, qq, pp, z)
        except Exception:
            pass
        if op.method == "series":
            # The check path's oracles at one off-axis grid point, last, so that
            # the BLAS threads their node building wakes do not slow the pool.
            i, j = self.n // 4, 2 * self.n // 3
            try:
                _oracle_layers(row, tracer, sid, state, qq[i, j], pp[i, j], z[i, j])
            except Exception:
                pass
        cli_span = next(sp for sp in reversed(tracer.spans) if sp.op_id == sid and sp.name == "cli.main")
        row["cli.main"] = cli_span.duration
        self.layer_rows.append(row)


def _remove(path: str) -> None:
    if os.path.exists(path):
        os.remove(path)


def _load_state(path: str):
    with open(path) as fh:
        return state_from_json(json.load(fh), normalize=True)


def _closed_form(state_name: str, qq, pp, z):
    obj = CATALOG[state_name]
    if obj["type"] == "fock":
        return wigner_closed_fock(obj["n"], z, BASIS)
    Q, P = qp_from_z(complex(obj["re"], obj["im"]), BASIS)
    return wigner_closed_coherent_gaussian(Q, P, BASIS.b, qq, pp, BASIS.hbar)


class ProbeWorkload(Workload):
    """One op is one point of the `bargwig check` concordance path."""

    name = "probes"

    def op_specs(self):
        return [(s, "check", q, p) for s in CATALOG for q in PROBE_Q for p in PROBE_P]

    def run(self, op: Op, tracer: Tracer) -> OpResult:
        sid = op.op_id
        row = {}

        def timed(name, fn, *args, **kwargs):
            return _timed(row, tracer, sid, name, fn, *args, **kwargs)

        t0 = time.perf_counter()
        try:
            state = timed("states.state_from_json", state_from_json, CATALOG[op.state], normalize=True)
            z = timed("phase.z_from_qp", z_from_qp, op.q, op.p, BASIS)
            order = None
            if tracer.enabled:
                order = timed("core.choose_truncation", choose_truncation, state, z, TruncationPolicy())
                row["K"] = order
                row["entries"] = (order + 1) ** 2
                row["tower_mb"] = (order + 1) * 16 / 1e6
                timed("states.derivative_tower", derivative_tower, state, z, order)
            w_series = timed("core.wigner_series", wigner_series, state, z, basis=BASIS, order=order)
            w_config, w_phase = _oracle_layers(row, tracer, sid, state, op.q, op.p, z)
        except Exception as e:
            return self._finish(row, OpResult(time.perf_counter() - t0, 1, _fail(e)))
        seconds = time.perf_counter() - t0

        with tracer.span("bench.check", sid):
            values = np.array([w_series, w_config, w_phase])
            spread = (values.max() - values.min()) * math.pi * BASIS.hbar
            failure, wrong = None, True
            if not np.all(np.isfinite(values)) or _abs_max(values) > W_BOUND * (1 + 1e-12):
                failure = {"type": "OutputCheck", "message": f"|W| out of bounds: {values.tolist()}"}
            elif spread > CHECK_TOL:
                # A concordance miss fails the op; whether one route is wrong
                # is for the error metric to say.
                failure, wrong = {"type": "Concordance", "message": (
                    f"routes disagree by {spread:.3e} (series, config, phase = {values.tolist()})")}, False
            elif not self._same_as_first(op, values):
                failure = {"type": "OutputCheck", "message": "values differ from the first run of the same op"}
        if failure is None:
            self.err_points.setdefault(op.key, [(op.q, op.p, float(v)) for v in values])
        return self._finish(row, OpResult(seconds, 1, failure, wrong=failure is not None and wrong))

    def _finish(self, row: dict, result: OpResult) -> OpResult:
        if row:
            self.layer_rows.append(row)
        return result


def make_workload(name: str, seed: int, workdir: str) -> Workload:
    if name == "grid200":
        return GridWorkload("grid200", 200, "csv", closed=False, seed=seed, workdir=workdir)
    if name == "grid60":
        return GridWorkload("grid60", 60, "json", closed=True, seed=seed, workdir=workdir)
    if name == "probes":
        return ProbeWorkload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("grid200", "grid60", "probes")
