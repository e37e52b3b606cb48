"""The width-derivative identity and b-independence checks of geometry.py,
called directly: what each refuses, and what each returns on the
cross-width coherent family."""

import math

import pytest

from bargwig.geometry import _b_derivative, check_b_independence, check_identity_crossb
from bargwig.phase import BasisParams

U, B = 0.6 - 0.3j, 1.4


@pytest.mark.parametrize("step", [0.0, -0.1, 1.0, 1.5, -math.inf, math.nan])
def test_b_derivative_refuses_a_step_outside_zero_to_b(step):
    # b - step must stay a positive basis width; a NaN step once passed
    with pytest.raises(ValueError, match="step must be positive and below b"):
        _b_derivative(U, B, 0.3 + 0.2j, 1.0, 1.0, step)


@pytest.mark.parametrize("b1, b2", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -2.0)])
def test_b_independence_refuses_a_width_not_positive(b1, b2):
    with pytest.raises(ValueError, match="basis widths must be positive"):
        check_b_independence(0.4, -0.2, B, 0.1, 0.5, b1, b2)


def test_b_independence_holds_to_rounding():
    assert check_b_independence(0.4, -0.2, B, 0.1, 0.5, 0.7, 1.9) <= 1e-15


def test_width_derivative_identity_holds():
    lhs, rhs = check_identity_crossb(U, B, 0.5, -0.4, BasisParams(0.9, 1.0), step=1e-2)
    assert abs(lhs - rhs) <= 1e-9
