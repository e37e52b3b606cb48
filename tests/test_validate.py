"""The fast validation suites, each check at its own tolerance. The series
suite's paper-form-agreement check compares the walk with the paper's form
exp(-2|z|^2)/(pi hbar) Re(c^dagger F c), F = build_F(z, K), on 48 points of
an annulus out to |z| = 4, both sides at one K."""

import pytest

from bargwig import validate
from bargwig.validate import suite_geometry, suite_series


@pytest.mark.parametrize("suite", [suite_series, suite_geometry], ids=["series", "geometry"])
def test_every_check_passes(suite):
    results = suite()
    assert results
    failed = [r.to_dict() for r in results if not r.passed]
    assert not failed


def test_override_of_zero_reaches_every_check():
    # an override is used as given, so 0 fails every check with a
    # positive residual
    results = suite_series(0.0)
    assert all(r.tolerance == 0.0 for r in results)
    assert all(r.passed == (r.residual <= 0.0) for r in results)


def test_every_check_is_timed():
    results = suite_geometry()
    assert all(r.seconds >= 0 and r.to_dict()["seconds"] == r.seconds for r in results)


def test_paper_form_agreement_catches_a_scaled_walk(monkeypatch):
    # a walk off by a relative 1e-8 fails the check's 1e-9 tolerance; the
    # paper's side (build_F) is untouched
    walk = validate.wigner_series
    monkeypatch.setattr(validate, "wigner_series", lambda *a, **k: walk(*a, **k) * (1 + 1e-8))
    check = {r.name: r for r in suite_series()}["paper-form-agreement"]
    assert not check.passed
    assert check.residual == pytest.approx(1e-8, rel=0.01)
