"""The fast validation suites, each check at its own tolerance. The series
suite's variant-agreement check compares the standard walk with the scaled
route on an annulus out to |z| = 4."""

import pytest

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
