"""Command-line surface: grid evaluation, validation suites, and a method
benchmark.

Exit codes: 0 success, 1 failing check suite, 2 usage error (bad flags,
unreadable state file, or a method/state combination that cannot run).
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import sys
import time

from . import __version__
from .core import TruncationError
from .grid import METHODS, GridAxis, evaluate_grid
from .oracles import OracleConvergenceError
from .phase import BasisParams
from .states import state_from_json
from .validate import run_suite

__all__ = ["main"]

_USAGE_ERRORS = (ValueError, OSError, json.JSONDecodeError, TruncationError, OracleConvergenceError, ArithmeticError)


def _load_state(path: str, normalize: bool):
    with open(path) as fh:
        obj = json.load(fh)
    return state_from_json(obj, normalize=normalize)


def _add_common_state_flags(sub):
    sub.add_argument("--state", required=True, help="path to a state-description JSON file")
    sub.add_argument("--normalize", action="store_true",
                     help="rescale unnormalized superposition coefficients instead of rejecting them")
    sub.add_argument("--b", type=float, default=1.0, help="basis width (default 1)")
    sub.add_argument("--hbar", type=float, default=1.0, help="action scale (default 1)")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused by every
    later main() in the process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="bargwig",
                                     description="Wigner functions from Bargmann-representation derivatives")
    parser.add_argument("--version", action="version", version=f"bargwig {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate W on a rectangular (q, p) grid")
    _add_common_state_flags(ev)
    ev.add_argument("--qmin", type=float, required=True)
    ev.add_argument("--qmax", type=float, required=True)
    ev.add_argument("--nq", type=int, required=True)
    ev.add_argument("--pmin", type=float, required=True)
    ev.add_argument("--pmax", type=float, required=True)
    ev.add_argument("--np", dest="n_p", type=int, required=True)
    ev.add_argument("--method", choices=METHODS, default="series")
    ev.add_argument("--tol", type=float, default=None,
                    help="series tail tolerance or oracle convergence budget")
    ev.add_argument("--out", required=True, help="output file path")
    ev.add_argument("--format", choices=("csv", "json"), default="csv")
    ev.add_argument("--no-meta", action="store_true",
                    help="omit the timestamp from JSON metadata (comparison mode)")

    ck = sub.add_parser("check", help="run validation suites")
    ck.add_argument("--suite", choices=("all", "series", "oracles", "geometry"), default="all")
    ck.add_argument("--tol", type=float, default=None,
                    help="override every check tolerance in the suite")

    be = sub.add_parser("bench", help="compare evaluation methods on one grid")
    _add_common_state_flags(be)
    be.add_argument("--grid-size", type=int, required=True, help="points per axis")
    be.add_argument("--methods", required=True, help="comma-separated list of methods")
    be.add_argument("--repeat", type=int, required=True, help="timing repeats (>= 3)")
    be.add_argument("--qmin", type=float, default=-3.0)
    be.add_argument("--qmax", type=float, default=3.0)
    be.add_argument("--pmin", type=float, default=-3.0)
    be.add_argument("--pmax", type=float, default=3.0)
    be.add_argument("--out", default=None, help="output file (default: stdout)")
    be.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def _cmd_eval(args) -> int:
    try:
        state = _load_state(args.state, args.normalize)
        basis = BasisParams(args.b, args.hbar)
        grid = evaluate_grid(
            state,
            GridAxis(args.qmin, args.qmax, args.nq),
            GridAxis(args.pmin, args.pmax, args.n_p),
            basis,
            method=args.method,
            tol=args.tol,
        )
        if args.format == "csv":
            grid.write_csv(args.out)
        else:
            grid.write_json(args.out, include_timestamp=not args.no_meta)
    except _USAGE_ERRORS as exc:
        print(f"bargwig eval: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_check(args) -> int:
    results = run_suite(args.suite, args.tol)
    report = {
        "suite": args.suite,
        "passed": all(r.passed for r in results),
        "checks": [r.to_dict() for r in results],
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["passed"] else 1


def _cmd_bench(args) -> int:
    if args.repeat < 3:
        print("bargwig bench: --repeat must be at least 3", file=sys.stderr)
        return 2
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        print("bargwig bench: --methods must name at least one method", file=sys.stderr)
        return 2
    for m in methods:
        if m not in METHODS:
            print(f"bargwig bench: unknown method {m!r}; choose from {METHODS}", file=sys.stderr)
            return 2
    try:
        state = _load_state(args.state, args.normalize)
        basis = BasisParams(args.b, args.hbar)
        qa = GridAxis(args.qmin, args.qmax, args.grid_size)
        pa = GridAxis(args.pmin, args.pmax, args.grid_size)
        n_points = args.grid_size**2

        reference = evaluate_grid(state, qa, pa, basis, method="series")
        rows = []
        for method in methods:
            times = []
            result = None
            for _ in range(args.repeat):
                t0 = time.perf_counter()
                result = evaluate_grid(state, qa, pa, basis, method=method)
                times.append(time.perf_counter() - t0)
            median = statistics.median(times)
            deviation = float(abs(result.values - reference.values).max())
            rows.append(
                {
                    "method": method,
                    "median_seconds": median,
                    "seconds_per_point": median / n_points,
                    "max_deviation_from_series": deviation,
                }
            )
    except _USAGE_ERRORS as exc:
        print(f"bargwig bench: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        payload = json.dumps({"grid_size": args.grid_size, "repeat": args.repeat, "results": rows}, indent=2)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(payload + "\n")
        else:
            print(payload)
    else:
        lines = ["method,median_seconds,seconds_per_point,max_deviation_from_series"]
        lines += [
            f"{r['method']},{r['median_seconds']:.17g},{r['seconds_per_point']:.17g},"
            f"{r['max_deviation_from_series']:.17g}"
            for r in rows
        ]
        text = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            print(text, end="")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "eval":
        return _cmd_eval(args)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "bench":
        return _cmd_bench(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
