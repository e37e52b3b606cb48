import math
import re

import numpy as np
import pytest

from bargwig import oracles
from bargwig.oracles import QuadratureSpec, quadrature_nodes, wigner_config_integral, wigner_phase_integral
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


class TestNodes:
    """Gauss-Legendre nodes are built once per node count; each call still
    returns its own scaled arrays."""

    def test_built_once_per_count(self):
        oracles._legendre.cache_clear()
        quadrature_nodes("gauss_legendre", 41, 1.0)
        quadrature_nodes("gauss_legendre", 41, 3.0)
        info = oracles._legendre.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_each_call_gets_new_arrays(self):
        x, w = quadrature_nodes("gauss_legendre", 41, 2.0)
        x[:] = 0.0
        w[:] = 0.0
        want_x, want_w = np.polynomial.legendre.leggauss(41)
        x, w = quadrature_nodes("gauss_legendre", 41, 2.0)
        assert np.array_equal(x, want_x * 2.0) and np.array_equal(w, want_w * 2.0)

    def test_only_gauss_legendre(self):
        with pytest.raises(ValueError, match="unknown quadrature rule 'tanh_sinh'"):
            QuadratureSpec(rule="tanh_sinh")
        with pytest.raises(ValueError, match="unknown quadrature rule 'tanh_sinh'"):
            quadrature_nodes("tanh_sinh", 41, 1.0)
