import math
import re

import pytest

from bargwig.oracles import QuadratureSpec, wigner_config_integral, wigner_phase_integral
from bargwig.phase import BasisParams
from bargwig.states import FockState

BASIS = BasisParams()
QUAD = QuadratureSpec(nodes=32, domain_halfwidth=3.0)


def config(tol):
    return wigner_config_integral(FockState(12), 0.0, 0.0, BASIS, QUAD, tol=tol)


def phase(tol):
    return wigner_phase_integral(FockState(12), 0j, BASIS, QUAD, tol=tol)


class TestBudget:
    """tol is the node-doubling budget: inf or nan would switch the check
    off, 0 would pass only bitwise-equal values and a negative budget would
    fail on equal ones, so each is refused by name."""

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0], ids=["inf", "nan", "zero", "negative"])
    @pytest.mark.parametrize("oracle", [config, phase], ids=["config", "phase"])
    def test_refused(self, oracle, tol):
        with pytest.raises(ValueError, match=re.escape(f"tol must be positive and finite, got {tol!r}")):
            oracle(tol)

    @pytest.mark.parametrize("oracle", [config, phase], ids=["config", "phase"])
    def test_positive_budget_runs(self, oracle):
        assert oracle(1e-3) == oracle(0.5)
