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
