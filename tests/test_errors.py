"""Every argument check names the offending value after its rule, so an
error says what it got as well as what it wanted."""

import re

import pytest

from bargwig import special
from bargwig.core import build_F, wigner_closed_coherent_crossb, wigner_closed_coherent_gaussian, wigner_closed_fock
from bargwig.geometry import check_b_independence, check_identity_crossb
from bargwig.grid import GridAxis
from bargwig.phase import BasisParams
from bargwig.states import FockState, derivative_tower

CASES = {
    "axis-count": (lambda: GridAxis(0.0, 1.0, 1), "each grid axis needs at least 2 points, got 1"),
    "axis-bounds": (lambda: GridAxis(1.5, -0.5, 3), "axis upper bound must exceed lower bound, got [1.5, -0.5]"),
    "build_F-order": (lambda: build_F(0.3j, -2), "truncation order must be non-negative, got -2"),
    "fock-index": (lambda: wigner_closed_fock(-3, 0.1), "Fock index must be non-negative, got -3"),
    "gaussian-width": (lambda: wigner_closed_coherent_gaussian(0.0, 0.0, -0.5, 0.1, 0.2),
                       "state width B must be positive, got -0.5"),
    "crossb-width": (lambda: wigner_closed_coherent_crossb(0.5, 0.0, 0.1, BasisParams()),
                     "state width B must be positive, got 0.0"),
    "step": (lambda: check_identity_crossb(0.5, 1.5, 0.1, 0.2, BasisParams(0.8), step=1.25),
             "finite-difference step must be positive and below b, got step = 1.25, b = 0.8"),
    "basis-widths": (lambda: check_b_independence(0.7, -0.4, 1.5, 0.1, 0.2, 1.0, -2.0),
                     "basis widths must be positive, got b1 = 1.0, b2 = -2.0"),
    "laguerre-degree": (lambda: special.laguerre(-4, 0.5), "Laguerre degree must be non-negative, got -4"),
    "amplitude-order": (lambda: list(special.coherent_amplitudes(-5, 0.5)),
                        "coherent amplitude order must be non-negative, got -5"),
    "oscillator-level": (lambda: special.hermite_psi(-6, 0.5), "oscillator level must be non-negative, got -6"),
    "tower-order": (lambda: derivative_tower(FockState(2), 0.5, -7), "tower order must be non-negative, got -7"),
}


@pytest.mark.parametrize("case", CASES)
def test_message_names_the_value(case):
    call, message = CASES[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
