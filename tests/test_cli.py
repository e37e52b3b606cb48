import json
import math

import numpy as np
import pytest

from bargwig import core
from bargwig.cli import _build_parser, main
from bargwig.phase import BasisParams
from bargwig.states import FockState
from bargwig.validate import SUITES, state_window

GRID = ["--qmin", "-2", "--qmax", "2", "--nq", "9", "--pmin", "-2", "--pmax", "2", "--np", "7"]


@pytest.fixture
def state_file(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"type": "coherent", "re": 0.7, "im": -0.4}))
    return str(path)


def test_eval_exits_0(state_file, tmp_path):
    out = tmp_path / "w.csv"
    assert main(["eval", "--state", state_file, *GRID, "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2 + 9 * 7


@pytest.mark.parametrize("content", [None, "{not json", '{"type": "squeezed"}'],
                         ids=["missing", "malformed", "unknown-type"])
def test_eval_exits_2_on_unreadable_state(tmp_path, capsys, content):
    path = tmp_path / "state.json"
    if content is not None:
        path.write_text(content)
    assert main(["eval", "--state", str(path), *GRID, "--out", str(tmp_path / "w.csv")]) == 2
    assert capsys.readouterr().err.startswith("bargwig eval:")


def test_eval_exits_2_on_fractional_fock_index(tmp_path, capsys):
    # a fractional index is refused, not truncated to fock(2)
    path = tmp_path / "state.json"
    path.write_text('{"type": "fock", "n": 2.7}')
    assert main(["eval", "--state", str(path), *GRID, "--out", str(tmp_path / "w.csv")]) == 2
    assert "2.7" in capsys.readouterr().err
    assert not (tmp_path / "w.csv").exists()


@pytest.mark.parametrize("flag", ["--b", "--hbar"])
def test_eval_exits_2_on_infinite_basis(state_file, tmp_path, capsys, flag):
    # --hbar inf once wrote an all-zero grid and exited 0
    out = tmp_path / "w.csv"
    assert main(["eval", "--state", state_file, *GRID, flag, "inf", "--out", str(out)]) == 2
    assert "must be positive and finite, got inf" in capsys.readouterr().err
    assert not out.exists()


def test_eval_closed_fock300_on_its_own_window(tmp_path):
    # the closed form gave nan past the Gaussian underflow, |z| >= 19.5, and
    # eval exited 2 where the series exits 0
    path = tmp_path / "state.json"
    path.write_text('{"type": "fock", "n": 300}')
    q_lo, q_hi, p_lo, p_hi = state_window(FockState(300), BasisParams())
    window = ["--qmin", str(q_lo), "--qmax", str(q_hi), "--nq", "41", "--pmin", str(p_lo), "--pmax", str(p_hi),
              "--np", "41"]
    grids = {}
    for method in ("closed", "series"):
        out = tmp_path / f"{method}.json"
        assert main(["eval", "--state", str(path), *window, "--method", method, "--format", "json",
                     "--out", str(out)]) == 0
        grids[method] = np.array(json.loads(out.read_text())["values"])
    assert np.array_equal(grids["closed"], grids["series"])


def test_eval_closed_refuses_fock301_on_its_own_window(tmp_path, capsys):
    # the closed form once had no degree limit: it exited 0 here, where the
    # series exits 2 naming the limit, and gave nan on fock(400)
    path = tmp_path / "state.json"
    path.write_text('{"type": "fock", "n": 301}')
    q_lo, q_hi, p_lo, p_hi = state_window(FockState(301), BasisParams())
    window = ["--qmin", str(q_lo), "--qmax", str(q_hi), "--nq", "41", "--pmin", str(p_lo), "--pmax", str(p_hi),
              "--np", "41"]
    for method in ("closed", "series"):
        out = tmp_path / f"{method}.csv"
        assert main(["eval", "--state", str(path), *window, "--method", method, "--out", str(out)]) == 2
        assert "limited to 300" in capsys.readouterr().err
        assert not out.exists()


def test_check_exits_1_on_failing_suite(capsys, monkeypatch):
    # a pair form off by a relative 1e-8 fails paper-form-agreement
    pair_form = core._pair_form
    monkeypatch.setattr(core, "_pair_form", lambda *a, **k: pair_form(*a, **k) * (1 + 1e-8))
    assert main(["check", "--suite", "series"]) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


def test_eval_json_no_meta_is_byte_identical(state_file, tmp_path):
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        args = ["eval", "--state", state_file, *GRID, "--format", "json", "--no-meta", "--out", str(out)]
        assert main(args) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert "timestamp" not in json.loads(outs[0].read_text())["metadata"]


def test_consecutive_calls_each_honor_their_own_flags(state_file, tmp_path):
    # main() reuses one parser per process; no flag of one call may leak
    # into the next
    csv_out, json_out, csv_again = tmp_path / "a.csv", tmp_path / "b.json", tmp_path / "c.csv"
    assert main(["eval", "--state", state_file, *GRID, "--out", str(csv_out)]) == 0
    small = ["--qmin", "-1", "--qmax", "1", "--nq", "3", "--pmin", "-1", "--pmax", "1", "--np", "4"]
    args = ["eval", "--state", state_file, *small, "--method", "closed", "--format", "json", "--no-meta"]
    assert main([*args, "--out", str(json_out)]) == 0
    assert main(["eval", "--state", state_file, *GRID, "--out", str(csv_again)]) == 0

    assert csv_out.read_text().splitlines()[1] == "q,p,W"
    assert csv_again.read_bytes() == csv_out.read_bytes()
    grid = json.loads(json_out.read_text())
    assert (grid["q_axis"]["count"], grid["p_axis"]["count"]) == (3, 4)
    assert grid["metadata"]["method"] == "closed"
    assert "timestamp" not in grid["metadata"]


def test_series_scaled_method_is_gone(state_file, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--state", state_file, *GRID, "--method", "series-scaled", "--out", str(tmp_path / "w.csv")])
    assert exc.value.code == 2


def test_bench_subcommand_is_gone(state_file):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--state", state_file, "--grid-size", "8", "--methods", "series", "--repeat", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("tol", ["0", "-1", "inf", "nan"])
@pytest.mark.parametrize("command", ["eval", "check"])
def test_tol_must_be_positive_and_finite(state_file, tmp_path, capsys, command, tol):
    # --tol 0 once gave the default-tolerance file, and --tol inf K = 0;
    # eval refuses them in evaluate_grid, by its own message; check takes
    # no --tol at all, since one moved every check's bound (--tol 1e9
    # passed any program)
    out = tmp_path / "w.csv"
    if command == "eval":
        assert main(["eval", "--state", state_file, *GRID, "--out", str(out), f"--tol={tol}"]) == 2
        assert f"tol must be positive and finite, got {float(tol)!r}" in capsys.readouterr().err
    else:
        with pytest.raises(SystemExit) as exc:
            main(["check", f"--tol={tol}"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --tol={tol}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("suite", ["all", *SUITES])
def test_check_takes_every_suite_name(suite):
    # the parser's choices are the validation suites' own names
    assert _build_parser().parse_args(["check", "--suite", suite]).suite == suite


def test_check_exits_2_on_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--suite", "nope"])
    assert exc.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err


def test_check_report_times_each_check(capsys):
    assert main(["check", "--suite", "series"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks and all(math.isfinite(c["seconds"]) and c["seconds"] >= 0 for c in checks)


def test_eval_records_no_frame_for_a_coherent_state(tmp_path):
    # coherent(6) on its own window, summed exactly: no frame and no order
    # recorded, and the Gaussian closed form at every point
    from bargwig.core import wigner_closed_coherent_gaussian
    from bargwig.grid import WignerGrid
    from bargwig.phase import BasisParams, qp_from_z
    from bargwig.states import CoherentState
    from bargwig.validate import state_window

    path = tmp_path / "coherent6.json"
    path.write_text(json.dumps({"type": "coherent", "re": 6, "im": 0}))
    qmin, qmax, pmin, pmax = state_window(CoherentState(6), BasisParams())
    out = tmp_path / "grid.json"
    window = ["--qmin", repr(qmin), "--qmax", repr(qmax), "--nq", "41",
              "--pmin", repr(pmin), "--pmax", repr(pmax), "--np", "41"]
    assert main(["eval", "--state", str(path), *window, "--format", "json", "--out", str(out)]) == 0
    grid = WignerGrid.from_dict(json.loads(out.read_text()))
    assert grid.metadata["truncation_order"] is None and "frame" not in grid.metadata
    qq, pp = np.meshgrid(grid.q_axis.points, grid.p_axis.points, indexing="ij")
    want = wigner_closed_coherent_gaussian(*qp_from_z(6.0, BasisParams()), 1.0, qq, pp)
    assert np.max(np.abs(grid.values - want)) * math.pi <= 1e-13


@pytest.mark.parametrize("method", ["series", "closed"])
def test_eval_tol_is_the_oracle_budget_only(state_file, tmp_path, capsys, method):
    # the series and the closed forms are exact: a --tol exits 2, naming
    # the method, and writes nothing
    out = tmp_path / "w.csv"
    assert main(["eval", "--state", state_file, *GRID, "--method", method, "--tol", "1e-8", "--out", str(out)]) == 2
    assert f"method {method!r} is exact and takes no tol" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(SystemExit):
        main(["eval", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "--tol TOL convergence budget of config-integral and phase-" in help_text
    assert "tail" not in help_text
