"""Command-line surface: grid evaluation and validation suites.

Exit codes: 0 success, 1 failing check suite, 2 usage error (bad flags,
unreadable state file, or a method/state combination that cannot run).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from . import __version__
from .grid import METHODS, GridAxis, evaluate_grid
from .oracles import OracleConvergenceError
from .phase import BasisParams
from .states import state_from_json
from .validate import SUITES, run_suite

__all__ = ["main"]

_USAGE_ERRORS = (ValueError, OSError, OracleConvergenceError, ArithmeticError)


def _load_state(path: str, normalize: bool):
    with open(path) as fh:
        obj = json.load(fh)
    return state_from_json(obj, normalize=normalize)


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused by every
    later main() in the process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="bargwig",
                                     description="Wigner functions from Bargmann-representation derivatives")
    parser.add_argument("--version", action="version", version=f"bargwig {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate W on a rectangular (q, p) grid")
    ev.add_argument("--state", required=True, help="path to a state-description JSON file")
    ev.add_argument("--normalize", action="store_true",
                    help="rescale unnormalized superposition coefficients instead of rejecting them")
    ev.add_argument("--b", type=float, default=1.0, help="basis width (default 1)")
    ev.add_argument("--hbar", type=float, default=1.0, help="action scale (default 1)")
    ev.add_argument("--qmin", type=float, required=True)
    ev.add_argument("--qmax", type=float, required=True)
    ev.add_argument("--nq", type=int, required=True)
    ev.add_argument("--pmin", type=float, required=True)
    ev.add_argument("--pmax", type=float, required=True)
    ev.add_argument("--np", dest="n_p", type=int, required=True)
    ev.add_argument("--method", choices=METHODS, default="series")
    ev.add_argument("--tol", type=float, default=None,
                    help="convergence budget of config-integral and phase-integral (default 1e-8)")
    ev.add_argument("--out", required=True, help="output file path")
    ev.add_argument("--format", choices=("csv", "json"), default="csv")
    ev.add_argument("--no-meta", action="store_true",
                    help="omit the timestamp from JSON metadata (comparison mode)")

    ck = sub.add_parser("check", help="run validation suites")
    ck.add_argument("--suite", choices=("all", *SUITES), default="all")

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
    results = run_suite(args.suite)
    report = {
        "suite": args.suite,
        "passed": all(r.passed for r in results),
        "checks": [dataclasses.asdict(r) for r in results],
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["passed"] else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "eval":
        return _cmd_eval(args)
    if args.command == "check":
        return _cmd_check(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
