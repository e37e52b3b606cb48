"""Tests of the benchmark itself: the mpmath reference against the closed
forms, span self times, and the result contract of run.py.

Run from the repository root with `python -m pytest bench`.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from bargwig import FockState, superposition  # noqa: E402
from bargwig.core import wigner_closed_coherent_gaussian, wigner_closed_fock  # noqa: E402
from bargwig.oracles import wigner_config_integral  # noqa: E402
from bargwig.phase import BasisParams, qp_from_z, z_from_qp  # noqa: E402

from spans import Tracer  # noqa: E402

POINTS = [(0.0, 0.0), (0.5, 0.7), (-1.3, 2.2), (2.9, -1.1), (-3.0, 3.0)]


@pytest.fixture(scope="module")
def reference():
    pytest.importorskip("mpmath")
    import reference as ref

    return ref.wigner_reference


@pytest.mark.parametrize("n", [0, 1, 6, 12])
def test_reference_matches_fock_closed_form(reference, n):
    basis = BasisParams()
    for q, p in POINTS:
        want = wigner_closed_fock(n, z_from_qp(q, p, basis), basis)
        assert reference({"type": "fock", "n": n}, q, p) == pytest.approx(want, abs=1e-13)


@pytest.mark.parametrize("u", [0.7 - 0.4j, -1.1 + 0.3j])
@pytest.mark.parametrize("b, hbar", [(1.0, 1.0), (1.5, 0.5)])
def test_reference_matches_coherent_closed_form(reference, u, b, hbar):
    basis = BasisParams(b, hbar)
    Q, P = qp_from_z(u, basis)
    state = {"type": "coherent", "re": u.real, "im": u.imag}
    for q, p in POINTS:
        want = wigner_closed_coherent_gaussian(Q, P, b, q, p, hbar)
        assert reference(state, q, p, b, hbar) == pytest.approx(want, abs=1e-13 / hbar)


def test_reference_superposition_follows_the_wavefunction(reference):
    """A complex-coefficient superposition pins the conjugation convention:
    the reference must agree with the configuration-space integral of
    psi = sum c_m psi_m."""
    terms = [(0.5, 0), (0.5j, 1), (-0.5, 3), (0.5, 6)]
    state = {"type": "superposition",
             "terms": [{"coeff": {"re": complex(c).real, "im": complex(c).imag}, "state": {"type": "fock", "n": n}}
                       for c, n in terms]}
    psi = superposition([(c, FockState(n)) for c, n in terms])
    basis = BasisParams()
    for q, p in [(0.5, 0.7), (-1.0, 0.2)]:
        assert reference(state, q, p) == pytest.approx(wigner_config_integral(psi, q, p, basis), abs=1e-8)


def test_reference_normalizes_superpositions(reference):
    cat = {"type": "superposition", "terms": [
        {"coeff": {"re": 1.0, "im": 0.0}, "state": {"type": "coherent", "re": 1.1, "im": 0.0}},
        {"coeff": {"re": 1.0, "im": 0.0}, "state": {"type": "coherent", "re": -1.1, "im": 0.0}},
    ]}
    # an even cat's Wigner function at the origin is +1/pi, the parity maximum
    assert reference(cat, 0.0, 0.0) == pytest.approx(1 / math.pi, rel=1e-14)


def test_self_time_subtracts_children():
    tracer = Tracer(enabled=True)
    with tracer.span("op", 0) as root:
        with tracer.span("a", 0) as a:
            with tracer.span("b", 0) as b:
                pass
    own = tracer.self_times()
    assert own[root.span_id] == pytest.approx(root.duration - a.duration, abs=1e-12)
    assert own[a.span_id] == pytest.approx(a.duration - b.duration, abs=1e-12)
    assert own[b.span_id] == b.duration
    assert b.parent == a.span_id and a.parent == root.span_id and root.parent is None


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("op", 0) as sp:
        pass
    assert sp is None and tracer.spans == []


def _run(args, cwd):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload, trace, section",
                         [("grid60", 0, "end_to_end"), ("grid60", 1, "per_layer"), ("probes", 0, "end_to_end")])
def test_result_line_carries_the_declared_metrics(reference, workload, trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    # cat(1.1) fails on every pass through the grid, fock(12) on every probe
    assert 0 < result["failed"] < result["attempted"]
    record = json.loads(proc.stdout.splitlines()[0])
    assert {e["state"] for e in record["ledger"]} == {"grid60": {"cat1.1"}, "probes": {"fock12"}}[workload]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(["--workload", "grid60", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
