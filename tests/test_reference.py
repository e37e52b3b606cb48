"""Ground truth for the default evaluation path: W over each state's own
window (validate.state_window) against bench/reference.py, the benchmark's
40-digit mpmath displaced-parity sum, which shares no arithmetic with
bargwig. Errors are in units of 1/(pi hbar)."""

import cmath
import math
import sys
from pathlib import Path

import pytest

from bargwig.core import wigner_series
from bargwig.grid import GridAxis, evaluate_grid
from bargwig.phase import BasisParams
from bargwig.states import state_from_json
from bargwig.validate import state_window

pytest.importorskip("mpmath")

BENCH = str(Path(__file__).resolve().parents[1] / "bench")
TOL = 1e-12
BASIS = BasisParams()


def _load_reference():
    """bench/reference.py, imported through sys.path without writing a
    bytecode cache next to it."""
    sys.path.insert(0, BENCH)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import reference
    finally:
        sys.path.remove(BENCH)
        sys.dont_write_bytecode = dont_write
    return reference


wigner_reference = _load_reference().wigner_reference


def _coherent(u, coeff=1.0):
    return {"coeff": {"re": complex(coeff).real, "im": complex(coeff).imag},
            "state": {"type": "coherent", "re": complex(u).real, "im": complex(u).imag}}


def _p_fold(p, modulus):
    return {"type": "superposition", "terms": [_coherent(modulus * cmath.exp(2j * math.pi * k / p)) for k in range(p)]}


STATES = {
    "cat3": {"type": "superposition", "terms": [_coherent(3.0), _coherent(-3.0)]},
    "cat4": {"type": "superposition", "terms": [_coherent(4.0), _coherent(-4.0)]},
    "3-fold-4": _p_fold(3, 4.0),
    "4-fold-3": _p_fold(4, 3.0),
    "fock-coherent": {"type": "superposition", "terms": [
        {"coeff": {"re": 0.6, "im": 0.0}, "state": {"type": "fock", "n": 2}}, _coherent(0.5 - 0.3j, 0.8j)]},
    "fock50": {"type": "fock", "n": 50},
}


@pytest.mark.parametrize("name", STATES)
def test_own_window_matches_reference(name):
    # a 41^2 grid on the state's own window, checked on a 4 x 4 sub-lattice
    # (corners included), at the window's centre and next to it; by the
    # shell walk cat(4) and the p-fold states raised TruncationError, and
    # fock(50) came out up to 1e-7 off within |z| ~ 4 of the centre
    obj = STATES[name]
    state = state_from_json(obj, normalize=True)
    q_lo, q_hi, p_lo, p_hi = state_window(state, BASIS)
    q_axis, p_axis = GridAxis(q_lo, q_hi, 41), GridAxis(p_lo, p_hi, 41)
    grid = evaluate_grid(state, q_axis, p_axis, BASIS)
    picks = [(i, j) for i in (0, 13, 27, 40) for j in (0, 13, 27, 40)] + [(20, 20), (18, 21), (21, 18)]
    for i, j in picks:
        q, p = float(q_axis.points[i]), float(p_axis.points[j])
        err = abs(grid.values[i, j] - wigner_reference(obj, q, p)) * math.pi * BASIS.hbar
        assert err <= TOL, (name, q, p, err)


@pytest.mark.parametrize("name", ["3-fold-4", "4-fold-3"])
def test_centre_of_p_fold_superposition(name):
    # every order not a multiple of p vanishes at the centre; the shell
    # walk's closure dropped an order there (1.9e-4 off for the 3-fold
    # state) or raised
    obj = STATES[name]
    got = wigner_series(state_from_json(obj, normalize=True), 0j, basis=BASIS)
    assert abs(got - wigner_reference(obj, 0.0, 0.0)) * math.pi * BASIS.hbar <= TOL
