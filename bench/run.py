"""bargwig benchmark: wall time per grid point, set-up time, memory and
accuracy on a fixed state catalog, plus per-layer timings from a traced run.

Run from the root of a source checkout:

    python3 bench/run.py --workload grid200 --seed 1 --seconds 20 --trace 0

Workloads are described in workloads.py. With --trace 0 the last line of
standard output is a JSON object whose metrics are the end-to-end ones:

    us_per_point  median over catalog passes of pass wall time / points
    setup_s       fresh interpreter until the first op is ready (import
                  bargwig, parse the catalog JSON), median of several
    err_max       max |W - W_ref| * pi * hbar over the sampled points of
                  every accepted op, W_ref from the mpmath reference
    peak_rss_mb   peak RSS of this process and of its children (the pool)

With --trace 1, passes alternate between plain and traced, and the metrics
are the per-layer ones, derived from spans around each layer call, plus
trace.overhead_frac (traced pass time over plain pass time, minus one).

An op fails when it raises, exits non-zero or fails an output check; the
line above the result holds the failure ledger, the quartiles and sample
counts, and the environment. `correct` is false when an op's output fails a
check other than the probes' route concordance, or an accepted value misses
the mpmath reference by more than CHECK_TOL. Span dumps and full records are
written under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from spans import Tracer

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_RUNS = 9
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BARGWIG_THREADS")

SETUP_PROGRAM = """
import json, sys
sys.path.insert(0, {src!r})
import bargwig
for obj in json.loads({catalog!r}).values():
    bargwig.state_from_json(obj, normalize=True)
print("ready", flush=True)
"""


def measure_setup(catalog: dict) -> list[float]:
    """Seconds from spawning a fresh interpreter until it reports ready."""
    program = SETUP_PROGRAM.format(src=SRC, catalog=json.dumps(catalog))
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", program], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, cwd=ROOT)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {err.strip()}")
        times.append(elapsed)
    return times


def git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "seed": seed,
        "loadavg_start": os.getloadavg(),
    }


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


@dataclass
class Passes:
    plain: list = field(default_factory=list)  # seconds per plain pass
    traced: list = field(default_factory=list)  # seconds per traced pass, checks excluded
    traced_rows: list = field(default_factory=list)  # (start, end) into workload.layer_rows
    points: int = 0  # points per pass; every pass runs the same ops
    op_seconds: dict = field(default_factory=dict)  # op label -> seconds in each plain pass
    attempted: int = 0
    failed: int = 0
    wrong: int = 0


def run_passes(workload, seconds: float, trace: bool, tracer: Tracer) -> Passes:
    """A warm-up pass, then whole catalog passes until `seconds` have
    elapsed; with `trace`, every second pass is traced."""
    off = Tracer(enabled=False)
    res = Passes()

    def one_pass(index: int, tr) -> float:
        total = 0.0
        res.points = 0
        for op in workload.pass_ops(index):
            if tr.enabled:
                with tr.span("op", op.op_id, workload=workload.name, state=op.state, method=op.method) as root:
                    result = workload.run(op, tr)
                total += root.duration
                for sp in reversed(tr.spans):  # this op's spans are the latest
                    if sp.op_id != op.op_id:
                        break
                    if sp.name == "bench.check":
                        total -= sp.duration
            else:
                result = workload.run(op, tr)
                total += result.seconds
                if index:
                    res.op_seconds.setdefault(op.label, []).append(result.seconds)
            res.points += result.points
            res.attempted += 1
            if result.failure:
                res.failed += 1
                res.wrong += result.wrong
                workload.ledger.add(workload.name, op, result.failure)
        return total

    one_pass(0, off)  # warm-up: checked and counted, not timed
    t_end = time.perf_counter() + seconds
    index = 1
    while time.perf_counter() < t_end or len(res.plain) < 2 or (trace and not res.traced):
        if trace and index % 2 == 0:
            start = len(workload.layer_rows)
            res.traced.append(one_pass(index, tracer))
            res.traced_rows.append((start, len(workload.layer_rows)))
        else:
            res.plain.append(one_pass(index, off))
        index += 1
    return res


def reference_errors(workload) -> tuple[float, int]:
    """Max scaled error over all sampled points (at least ERR_FLOOR), and how
    many points missed CHECK_TOL."""
    from reference import wigner_reference
    from workloads import BASIS, CATALOG, CHECK_TOL, ERR_FLOOR

    cache = {}
    worst, misses = ERR_FLOOR, 0
    for (state, *_), pts in workload.err_points.items():
        for q, p, value in pts:
            key = (state, q, p)
            if key not in cache:
                cache[key] = wigner_reference(CATALOG[state], q, p, BASIS.b, BASIS.hbar)
            err = abs(value - cache[key]) * math.pi * BASIS.hbar
            worst = max(worst, err)
            misses += err > CHECK_TOL
    return worst, misses


def layer_metrics(workload, res: Passes) -> dict:
    """Per-layer figures from the traced passes: seconds per catalog pass
    (median over traced passes) and pooled ratios."""
    rows = workload.layer_rows

    def derived(row: dict) -> dict:
        g = row.get
        out = {
            "phase.z_from_qp_s": g("phase.z_from_qp", 0.0),
            "states.state_from_json_s": g("states.state_from_json", 0.0),
            "states.derivative_tower_s": g("states.derivative_tower", 0.0),
            "core.choose_truncation_s": g("core.choose_truncation", 0.0),
            "core.closed_s": g("core.closed", 0.0),
            "grid.write_csv_s": g("grid.write_csv", 0.0),
            "grid.write_json_s": g("grid.write_json", 0.0),
            "grid.out_mb": g("out_mb", 0.0),
            "oracles.quadrature_nodes_s": g("oracles.quadrature_nodes", 0.0),
            "oracles.config_integral_s": g("oracles.config_integral", 0.0),
            "oracles.phase_integral_s": g("oracles.phase_integral", 0.0),
            "core.contraction_s": 0.0,
            "grid.dispatch_s": 0.0,
            "cli.overhead_s": 0.0,
        }
        if "core.wigner_series" in row and "states.derivative_tower" in row:
            out["core.contraction_s"] = row["core.wigner_series"] - row["states.derivative_tower"]
        if "grid.evaluate_grid" in row:
            inner = row.get("core.closed", row.get("core.choose_truncation", 0.0) + row.get("core.wigner_series", 0.0))
            out["grid.dispatch_s"] = row["grid.evaluate_grid"] - inner
            write = row.get("grid.write_csv", row.get("grid.write_json"))
            if write is not None:
                out["cli.overhead_s"] = row["cli.main"] - row["states.state_from_json"] - row["grid.evaluate_grid"] - write
        return out

    per_pass = []
    for start, end in res.traced_rows:
        sums: dict = {}
        for row in rows[start:end]:
            for k, v in derived(row).items():
                sums[k] = sums.get(k, 0.0) + v
        per_pass.append(sums)
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]} if per_pass else {}

    def pooled(num, den):
        d = sum(den(r) for r in rows)
        return sum(num(r) for r in rows) / d if d else 0.0

    with_K = [r for r in rows if "K" in r]
    contraction = [derived(r)["core.contraction_s"] for r in rows]
    entries = sum(r.get("entries", 0) for r in rows if "core.wigner_series" in r)
    metrics["core.contraction_ns_per_entry"] = 1e9 * sum(contraction) / entries if entries else 0.0
    metrics["core.K"] = statistics.fmean(r["K"] for r in with_K) if with_K else 0.0
    metrics["states.tower_mb"] = max((r["tower_mb"] for r in with_K), default=0.0)
    metrics["grid.workers"] = pooled(lambda r: r.get("evaluate_grid_cpu", 0.0), lambda r: r.get("grid.evaluate_grid", 0.0))
    metrics["oracles.nodes_share"] = pooled(
        lambda r: r.get("oracles.quadrature_nodes", 0.0),
        lambda r: r.get("oracles.config_integral", 0.0) + r.get("oracles.phase_integral", 0.0))
    metrics["trace.overhead_frac"] = statistics.median(res.traced) / statistics.median(res.plain) - 1.0
    return metrics


UNITS = {"us_per_point": "us", "setup_s": "s", "err_max": "frac", "peak_rss_mb": "MB",
         "core.K": "count", "grid.workers": "count", "core.contraction_ns_per_entry": "ns",
         "oracles.nodes_share": "frac", "trace.overhead_frac": "frac"}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "MB" if name.endswith("_mb") else "s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "bargwig")):
        print(f"bench: no bargwig package under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import CATALOG, WORKLOADS, make_workload

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {WORKLOADS}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    setup = None if args.trace else measure_setup(CATALOG)

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    tracer = Tracer(enabled=True)
    try:
        workload = make_workload(args.workload, args.seed, workdir)
        res = run_passes(workload, args.seconds, bool(args.trace), tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    err_max, misses = reference_errors(workload)
    env["loadavg_end"] = os.getloadavg()

    per_point = [t / res.points * 1e6 for t in res.plain]
    if args.trace:
        values = layer_metrics(workload, res)
        tag = "trace"
        tracer.dump(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json"))
    else:
        values = {
            "us_per_point": statistics.median(per_point),
            "setup_s": statistics.median(setup),
            "err_max": err_max,
            "peak_rss_mb": rss_kb / 1024.0,
        }
        tag = "plain"
    correct = res.wrong == 0 and misses == 0
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "correct": correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "failed_frac": res.failed / res.attempted,
        "reference_misses": misses,
        "us_per_point": quartiles(per_point),
        "setup_s": quartiles(setup) if setup else None,
        "passes": {"plain": len(res.plain), "traced": len(res.traced), "points_per_pass": res.points},
        "ledger": workload.ledger.as_list(),
        "op_seconds": res.op_seconds,
        "environment": env,
    }
    with open(os.path.join(OUT_DIR, f"record-{args.workload}-seed{args.seed}-{tag}.json"), "w") as fh:
        json.dump({**record, "metrics": values}, fh, indent=1)
    print(json.dumps(record))
    for name, value in values.items():
        print(f"{args.workload:8s} {name:32s} {value:.6g} {unit(name)}")
    print(f"{args.workload:8s} {'failed_frac':32s} {res.failed / res.attempted:.6g} frac")
    print(json.dumps({
        "correct": correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
