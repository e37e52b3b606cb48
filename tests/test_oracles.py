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


class TestNonFiniteValues:
    """A value that is not finite fails both node-doubling comparisons, so
    it is refused before them: an infinite halfwidth when the rule is
    built, and any NaN or infinity at the check, naming the point."""

    @pytest.mark.parametrize("halfwidth", [math.inf, math.nan, -math.inf], ids=["inf", "nan", "-inf"])
    def test_halfwidth_refused(self, halfwidth):
        with pytest.raises(ValueError, match=re.escape(f"positive and finite, got {halfwidth!r}")):
            QuadratureSpec(domain_halfwidth=halfwidth)

    def test_infinite_halfwidth_refused_for_both_oracles(self):
        # both calls returned nan with no error while the spec took inf
        with pytest.raises(ValueError, match="halfwidth"):
            wigner_config_integral(FockState(1), 0.1, 0.2, BASIS, QuadratureSpec(domain_halfwidth=math.inf))
        with pytest.raises(ValueError, match="halfwidth"):
            wigner_phase_integral(FockState(1), 0.1 + 0.2j, BASIS, QuadratureSpec(domain_halfwidth=math.inf))

    @pytest.mark.parametrize("bad", [math.nan, complex(math.nan, 0.0), complex(0.0, math.inf)],
                             ids=["nan", "nan-real", "inf-imag"])
    @pytest.mark.parametrize("which", ["coarse", "fine"])
    def test_node_doubling_names_the_point(self, bad, which):
        def value(nodes):
            return complex(bad) if (nodes == 32) == (which == "coarse") else 0.25 + 0j

        with pytest.raises(oracles.OracleConvergenceError, match=re.escape("not finite at z=(0.1+0.2j)")) as info:
            oracles._node_doubling(value, 32, 1e-8, 1e-8, "phase-space", "z=(0.1+0.2j)")
        got = info.value.coarse if which == "coarse" else info.value.fine
        assert not np.isfinite(got)

