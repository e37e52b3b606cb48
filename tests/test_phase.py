import math
import re

import numpy as np
import pytest

from bargwig.phase import (
    BasisParams,
    qp_from_z,
    wirtinger_derivatives,
    z_from_qp,
)

SQRT2 = math.sqrt(2.0)


class TestBasisParams:
    def test_defaults(self):
        basis = BasisParams()
        assert basis.b == 1.0 and basis.hbar == 1.0

    @pytest.mark.parametrize("kwargs", [{"b": 0.0}, {"b": -1.0}, {"hbar": 0.0}, {"hbar": -2.0},
                                        {"b": math.inf}, {"b": math.nan}, {"hbar": math.inf}, {"hbar": math.nan}])
    def test_rejects_nonpositive(self, kwargs):
        # an infinite hbar once gave an all-zero grid, and an infinite b a
        # TruncationError at z = nan+nanj
        (value,) = kwargs.values()
        with pytest.raises(ValueError, match=re.escape(f"must be positive and finite, got {value!r}")):
            BasisParams(**kwargs)


class TestLabelConversion:
    def test_origin_maps_to_origin(self):
        assert z_from_qp(0.0, 0.0, BasisParams(b=2.7, hbar=0.3)) == 0j

    def test_unit_point(self):
        assert z_from_qp(1.0, 1.0, BasisParams()) == pytest.approx((1 + 1j) / SQRT2)

    def test_width_rescaling(self):
        q, p, hbar = 0.6, -1.1, 1.0
        z2 = z_from_qp(q, p, BasisParams(b=2.0, hbar=hbar))
        assert z2 == pytest.approx((q / 2.0 + 1j * 2.0 * p / hbar) / SQRT2)

    def test_inverse_unit_point(self):
        q, p = qp_from_z((1 + 1j) / SQRT2, BasisParams())
        assert q == pytest.approx(1.0) and p == pytest.approx(1.0)

    def test_zero_inverse(self):
        assert qp_from_z(0j, BasisParams(b=0.4)) == (0.0, 0.0)

    def test_round_trip_property(self):
        rng = np.random.default_rng(101)
        q = rng.uniform(-100, 100, 1000)
        p = rng.uniform(-100, 100, 1000)
        b = rng.uniform(0.1, 10.0, 1000)
        for i in range(1000):
            basis = BasisParams(b=b[i], hbar=1.0)
            qq, pp = qp_from_z(z_from_qp(q[i], p[i], basis), basis)
            assert abs(qq - q[i]) <= 1e-14 * max(1.0, abs(q[i]))
            assert abs(pp - p[i]) <= 1e-14 * max(1.0, abs(p[i]))

    def test_modulus_identity(self):
        rng = np.random.default_rng(103)
        for _ in range(200):
            q, p = rng.uniform(-20, 20, 2)
            b = rng.uniform(0.1, 10.0)
            hbar = rng.uniform(0.5, 2.0)
            z = z_from_qp(q, p, BasisParams(b, hbar))
            want = (q**2 / b**2 + b**2 * p**2 / hbar**2) / 2.0
            assert abs(z) ** 2 == pytest.approx(want, rel=1e-14, abs=1e-14)

    def test_array_shapes(self):
        q = np.zeros((3, 4))
        p = np.ones((3, 4))
        z = z_from_qp(q, p, BasisParams())
        assert z.shape == (3, 4)
        qq, pp = qp_from_z(z, BasisParams())
        assert qq.shape == (3, 4) and np.allclose(pp, 1.0)


class TestWirtinger:
    def test_unit_basis_coefficients(self):
        # d/dz = (d/dq - i d/dp)/sqrt(2), d/dz* = (d/dq + i d/dp)/sqrt(2)
        basis = BasisParams()
        from_q = wirtinger_derivatives(1.0, 0.0, basis)
        from_p = wirtinger_derivatives(0.0, 1.0, basis)
        assert from_q[0] == pytest.approx(1 / SQRT2)
        assert from_p[0] == pytest.approx(-1j / SQRT2)
        assert from_q[1] == pytest.approx(1 / SQRT2)
        assert from_p[1] == pytest.approx(1j / SQRT2)

    def test_scaling_consistency(self):
        for b in (0.3, 1.0, 4.2):
            dw_dz, _ = wirtinger_derivatives(1.0, 0.0, BasisParams(b=b))
            assert dw_dz * (SQRT2 / b) == pytest.approx(1.0)

    def test_identity_reduces_to_qp_form(self):
        # z* d/dz + z d/dz* applied to real partials must equal q d/dq - p d/dp
        rng = np.random.default_rng(107)
        for _ in range(50):
            q, p = rng.uniform(-3, 3, 2)
            b = rng.uniform(0.4, 2.5)
            basis = BasisParams(b=b)
            wq, wp = rng.normal(size=2)
            z = z_from_qp(q, p, basis)
            dw_dz, dw_dzs = wirtinger_derivatives(wq, wp, basis)
            lhs = (np.conj(z) * dw_dz + z * dw_dzs).real
            assert lhs == pytest.approx(q * wq - p * wp, rel=1e-12, abs=1e-12)
