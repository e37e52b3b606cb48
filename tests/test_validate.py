"""The fast validation suites, each check at its own tolerance. The series
suite's paper-form-agreement check compares the evaluated W of every state
of its catalog with the paper's form exp(-2|z|^2) Re(c^dagger F c),
F = build_F(z, K), on 200 points of an annulus out to |z| = 4, one build_F
call a state over all of them, the paper's side at choose_truncation's K and
the evaluated W exact."""

import dataclasses

import pytest

from bargwig import core, validate
from bargwig.phase import BasisParams
from bargwig.states import CoherentState, FockState, cat_state, superposition
from bargwig.validate import state_window, suite_geometry, suite_series


@pytest.mark.parametrize("suite", [suite_series, suite_geometry], ids=["series", "geometry"])
def test_every_check_passes(suite):
    results = suite()
    assert results
    failed = [dataclasses.asdict(r) for r in results if not r.passed]
    assert not failed


def test_every_check_is_timed():
    results = suite_geometry()
    assert all(r.seconds >= 0 and dataclasses.asdict(r)["seconds"] == r.seconds for r in results)


def test_paper_form_agreement_catches_a_scaled_pair_form(monkeypatch):
    # the pair form, which sums every state of the check, off by a relative
    # 1e-8 fails the check's 1e-9 tolerance, pointwise on the polynomial
    # states and in the max norm on the others; the paper's side (build_F)
    # is untouched
    pair_form = core._pair_form
    monkeypatch.setattr(core, "_pair_form", lambda *a, **k: pair_form(*a, **k) * (1 + 1e-8))
    check = {r.name: r for r in suite_series()}["paper-form-agreement"]
    assert not check.passed
    assert check.residual == pytest.approx(1e-8, rel=0.01)


def test_paper_form_agreement_catches_a_scaled_number_form(monkeypatch):
    # a number form off by a relative 1e-8 fails pointwise on the
    # polynomial states, whose Fock pairs it sums
    number_form = core._number_form
    monkeypatch.setattr(core, "_number_form", lambda *a, **k: number_form(*a, **k) * (1 + 1e-8))
    check = {r.name: r for r in suite_series()}["paper-form-agreement"]
    assert not check.passed
    assert check.residual == pytest.approx(1e-8, rel=0.01)


# (q_lo, q_hi, p_lo, p_hi) at n_widths = 6 in the unit basis and at 4 in
# b = 1.4, hbar = 0.5. The Fock+coherent envelope takes its lower edges from
# fock(1) and its upper edges from the coherent member.
WINDOWS = {
    "fock3": (FockState(3), [
        (-11.224972160321824, 11.224972160321824, -11.224972160321824, 11.224972160321824),
        (-10.476640682967036, 10.476640682967036, -2.6726124191242437, 2.6726124191242437)]),
    "coherent": (CoherentState(0.7 - 0.4j), [
        (-3.2526911934581184, 5.232590180780451, -4.808326112068523, 3.6769552621700465),
        (-2.5738686835190325, 5.345727265770298, -1.2121830534626528, 0.8081220356417684)]),
    "cat1.1": (cat_state(1.1), [
        (-5.79827560572969, 5.79827560572969, -4.242640687119285, 4.242640687119285),
        (-6.137686860699231, 6.137686860699231, -1.0101525445522106, 1.0101525445522106)]),
    "fock-coherent": (superposition([(0.6, FockState(1)), (0.8j, CoherentState(2.5 + 3j))], normalize=True), [
        (-7.348469228349534, 7.7781745930520225, -7.348469228349534, 8.485281374238571),
        (-6.858571279792898, 8.909545442950499, -1.749635530559413, 2.5253813613805267)]),
}


@pytest.mark.parametrize("name", WINDOWS)
def test_state_window(name):
    state, (unit, scaled) = WINDOWS[name]
    assert state_window(state, BasisParams()) == unit
    assert state_window(state, BasisParams(1.4, 0.5), 4.0) == scaled
