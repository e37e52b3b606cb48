import json
import math
import re

import numpy as np
import pytest

from bargwig import __version__, core
from bargwig.core import TruncationPolicy, choose_truncation, wigner_closed_coherent_gaussian, wigner_series
from bargwig.grid import GridAxis, WignerGrid, evaluate_grid
from bargwig.oracles import OracleConvergenceError, wigner_config_integral, wigner_phase_integral
from bargwig.phase import BasisParams, qp_from_z, z_from_qp
from bargwig.states import CoherentState, FockState, cat_state, exact_degree, superposition
from bargwig.validate import state_window
from pair_reference import pair_pi_w

SUP4 = superposition([(0.5, FockState(n)) for n in range(4)])
EDGE_VALUES = np.array([[0.0, -0.0, 1e-300], [-5e-324, 0.1 + 0.2, -1 / 3], [math.pi, 1e22, -2.5e-17]])


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def significant_digits(text: str) -> int:
    mantissa = text.lstrip("-").lower().split("e")[0].replace(".", "")
    return len(mantissa.lstrip("0").rstrip("0"))


def assert_shortest_round_trip(text: str, value: float):
    """text parses back to value bitwise, in no more significant digits
    than repr, Python's shortest round-trip formatter, gives."""
    assert bits(float(text)) == bits(value), (text, value)
    assert significant_digits(text) <= significant_digits(repr(float(value))), (text, value)


def assert_csv_contract(g: WignerGrid, text: str):
    lines = text.splitlines()
    assert lines[:2] == [f"# bargwig v{__version__}", "q,p,W"]
    assert len(lines) == 2 + g.values.size
    rows = iter(lines[2:])
    for i, q in enumerate(g.q_axis.points):
        for j, p in enumerate(g.p_axis.points):
            for field, value in zip(next(rows).split(","), (q, p, g.values[i, j]), strict=True):
                assert_shortest_round_trip(field, value)


def assert_json_contract(g: WignerGrid, text: str, include_timestamp: bool = True):
    numbers = []
    obj = json.loads(text, parse_float=lambda s: numbers.append(s) or float(s))
    assert text.endswith("}\n") and text.count("\n") == 1
    assert obj == g.to_dict(include_timestamp=include_timestamp)
    assert list(obj) == sorted(obj) and list(obj["metadata"]) == sorted(obj["metadata"])
    assert np.array_equal(bits(obj["values"]), bits(g.values))
    for axis, key in ((g.q_axis, "q_axis"), (g.p_axis, "p_axis")):
        assert bits([obj[key]["min"], obj[key]["max"]]).tolist() == bits([axis.lo, axis.hi]).tolist()
    for s in numbers:
        assert significant_digits(s) <= significant_digits(repr(float(s))), s


@pytest.fixture(scope="module")
def sup4_grid():
    return evaluate_grid(SUP4, GridAxis(-3.0, 2.5, 13), GridAxis(-2.0, 3.0, 7))


class TestWriters:
    """Every number either writer emits is the shortest text that parses
    back to the identical double: it matches repr, the per-point shortest
    formatter, in value and in digit count. JSON holds what json.dump of
    to_dict() holds."""

    def test_csv_matches_per_point_formatter(self, sup4_grid, tmp_path):
        path = tmp_path / "w.csv"
        sup4_grid.write_csv(path)
        assert_csv_contract(sup4_grid, path.read_text())

    def test_csv_formats_edge_values_like_per_point_formatter(self, tmp_path):
        g = WignerGrid(GridAxis(-0.1, 0.7, 3), GridAxis(-1e-9, 3.0, 3), EDGE_VALUES)
        path = tmp_path / "w.csv"
        g.write_csv(path)
        text = path.read_text()
        assert_csv_contract(g, text)
        # -1/3 takes 16 digits, not the 17 of '%.17g'
        assert "-0.3333333333333333\n" in text and ",-0.0\n" in text and ",-5e-324\n" in text

    @pytest.mark.parametrize("include_timestamp", [True, False])
    def test_json_matches_json_dump(self, sup4_grid, tmp_path, include_timestamp):
        path = tmp_path / "w.json"
        sup4_grid.write_json(path, include_timestamp=include_timestamp)
        assert_json_contract(sup4_grid, path.read_text(), include_timestamp)
        assert ("timestamp" in json.loads(path.read_text())["metadata"]) == include_timestamp

    def test_json_formats_edge_values(self, tmp_path):
        g = WignerGrid(GridAxis(-0.1, 0.7, 3), GridAxis(-1e-9, 3.0, 3), EDGE_VALUES)
        path = tmp_path / "w.json"
        g.write_json(path)
        assert_json_contract(g, path.read_text())

    def test_json_writes_numpy_scalars_in_metadata(self, tmp_path):
        g = WignerGrid(GridAxis(0.0, 1.0, 2), GridAxis(0.0, 1.0, 2), np.zeros((2, 2)),
                       {"b": np.float64(0.7), "K": np.int64(3)})
        path = tmp_path / "w.json"
        g.write_json(path)
        assert json.loads(path.read_text())["metadata"] == {"b": 0.7, "K": 3}

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("writer", ["write_csv", "write_json"])
    def test_writers_refuse_non_finite_before_opening(self, tmp_path, writer, value):
        values = np.zeros((2, 3))
        values[0, 2] = value
        values[1, 0] = math.nan
        g = WignerGrid(GridAxis(0.0, 1.0, 2), GridAxis(0.0, 1.0, 3), values)
        path = tmp_path / "w.out"
        with pytest.raises(ValueError, match=re.escape(f"non-finite W = {value!r} at (q, p) = (0.0, 1.0)")):
            getattr(g, writer)(path)
        assert not path.exists()

    @pytest.mark.parametrize("lo, hi", [(-math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0)])
    def test_axes_refuse_non_finite_bounds(self, lo, hi):
        # linspace would hand the writers -inf or nan axis points
        with pytest.raises(ValueError, match="finite"):
            GridAxis(lo, hi, 3)

    @pytest.mark.parametrize("layout", ["float32", "transposed"])
    @pytest.mark.parametrize("writer", ["write_csv", "write_json"])
    def test_bytes_do_not_depend_on_the_array_layout(self, sup4_grid, tmp_path, writer, layout):
        # the writers hand orjson a C-contiguous float64 array, whatever they hold
        if layout == "float32":
            values = sup4_grid.values.astype(np.float32)
        else:
            values = np.ascontiguousarray(sup4_grid.values.T).T
            assert not values.flags.c_contiguous
        paths = []
        for held in (values, np.array(values, dtype=np.float64, order="C")):
            paths.append(tmp_path / f"w{len(paths)}")
            getattr(WignerGrid(sup4_grid.q_axis, sup4_grid.p_axis, held, sup4_grid.metadata), writer)(paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_json_round_trip(self, sup4_grid, tmp_path):
        path = tmp_path / "w.json"
        sup4_grid.write_json(path)
        obj = json.loads(path.read_text())
        back = WignerGrid.from_dict(obj)
        assert back.q_axis == sup4_grid.q_axis and back.p_axis == sup4_grid.p_axis
        assert np.array_equal(back.values, sup4_grid.values)
        assert back.metadata == sup4_grid.metadata
        assert back.to_dict() == obj


class TestAxisCount:
    """An axis count is an integer, as a Fock index is: a float count
    once constructed and then broke linspace in .points, and from_dict
    loaded a JSON count of 2.0 and wrote it back as 2.0."""

    @pytest.mark.parametrize("count", [3.0, 2.5, "3", True], ids=["3.0", "2.5", "str", "bool"])
    def test_refuses_a_count_that_is_not_an_integer(self, count):
        with pytest.raises(ValueError, match=re.escape(f"axis count must be an integer, got {count!r}")):
            GridAxis(0.0, 1.0, count)

    def test_numpy_integer_is_stored_as_int(self):
        axis = GridAxis(0.0, 1.0, np.int64(3))
        assert type(axis.count) is int and axis == GridAxis(0.0, 1.0, 3)
        assert axis.points.tolist() == [0.0, 0.5, 1.0]

    def test_from_dict_refuses_a_float_count(self, sup4_grid):
        obj = sup4_grid.to_dict()
        obj["q_axis"]["count"] = float(obj["q_axis"]["count"])
        with pytest.raises(ValueError, match=re.escape(f"axis count must be an integer, got {obj['q_axis']['count']!r}")):
            WignerGrid.from_dict(obj)


class TestShape:
    """values must be (q count, p count): a mismatched array would lose
    rows in write_csv and write JSON that from_dict cannot read back."""

    @pytest.mark.parametrize("shape", [(3, 3), (3, 2), (6,), (2, 3, 1)])
    def test_constructor_names_both_shapes(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"values of shape {shape} do not match the axes, which need (2, 3)")):
            WignerGrid(GridAxis(0.0, 1.0, 2), GridAxis(0.0, 1.0, 3), np.zeros(shape))

    def test_from_dict_names_both_shapes(self, sup4_grid):
        obj = sup4_grid.to_dict()
        obj["values"] = obj["values"][:-1]
        with pytest.raises(ValueError, match=re.escape("values of shape (12, 7) do not match the axes, which need (13, 7)")):
            WignerGrid.from_dict(obj)


def spy_on_blocks(monkeypatch):
    """Record, for every split of a series' labels into blocks of rows
    (core._rows), the number of labels in each block."""
    splits = []
    rows = core._rows

    def recording(x, y):
        sizes = []
        splits.append(sizes)
        for block in rows(x, y):
            sizes.append(np.broadcast(*block[1:]).size)
            yield block

    monkeypatch.setattr(core, "_rows", recording)
    return splits


class TestBlocks:
    """A series grid is one core._evaluate call on the lattice's axes, summed
    in blocks of whole rows of at most core.BLOCK_POINTS points;
    tests/test_core.py tests the blocks of scattered labels."""

    @pytest.mark.parametrize("state", [CoherentState(0.7 - 0.4j), cat_state(1.1), SUP4],
                             ids=["coherent", "cat1.1", "sup4"])
    def test_values_do_not_depend_on_the_block_size(self, state, monkeypatch):
        q_axis, p_axis = GridAxis(-3.0, 3.0, 23), GridAxis(-2.5, 3.0, 17)
        whole = evaluate_grid(state, q_axis, p_axis)
        # a budget of 84 points holds 4 rows of 17: 23 rows leave a last
        # block of 3
        monkeypatch.setattr(core, "BLOCK_POINTS", 5 * p_axis.count - 1)
        splits = spy_on_blocks(monkeypatch)
        blocked = evaluate_grid(state, q_axis, p_axis)
        assert splits and all(sizes == [68, 68, 68, 68, 68, 51] for sizes in splits)

        qq, pp = np.meshgrid(q_axis.points, p_axis.points, indexing="ij")
        single = wigner_series(state, z_from_qp(qq, pp, BasisParams()))
        assert np.array_equal(blocked.values, single)
        assert blocked.metadata["truncation_order"] == whole.metadata["truncation_order"] == exact_degree(state)
        assert np.array_equal(whole.values, single)

    @pytest.mark.parametrize("state", [FockState(0), cat_state(1.1)], ids=["fock0", "cat1.1"])
    def test_no_block_exceeds_the_point_budget(self, state, monkeypatch):
        # the block is cut by points whatever the state: 10 blocks of 20
        # rows of 200, 4000 points, for fock(0) and cat(1.1) alike
        axis = GridAxis(-3.0, 3.0, 200)
        splits = spy_on_blocks(monkeypatch)
        evaluate_grid(state, axis, axis)
        assert core.BLOCK_POINTS == 4096
        assert splits and all(sizes == [4000] * 10 for sizes in splits)


class TestTracedPeak:
    """A series grid keeps no label lattice: core._evaluate sums it on its
    axes, its values its only array of the grid's size until validate takes
    |W|, 16 bytes a point in all. One block keeps at most 16 doubles a point
    (the 4-term Fock superposition's number form), so one evaluate_grid at
    200^2 peaks, as tracemalloc sees numpy's allocations, below
    16 N + 8 * 16 * 4096 bytes, 1.16 MB: from 0.65 MB (coherent, cat(1.1),
    Fock states) to 0.82 MB (the superposition). A complex label lattice
    kept until the grid returns, 16 bytes a point more, brings the peak to
    at least 32 N, 1.28 MB, and fails the test, and so does the
    superposition summed in blocks of twice the points."""

    @pytest.mark.parametrize("state", [FockState(0), FockState(6), FockState(12), CoherentState(0.7 - 0.4j),
                                       cat_state(1.1), SUP4],
                             ids=["fock0", "fock6", "fock12", "coherent", "cat1.1", "sup4"])
    def test_catalog_at_200(self, state):
        import tracemalloc

        axis = GridAxis(-3.0, 3.0, 200)
        evaluate_grid(state, axis, axis)
        tracemalloc.start()
        try:
            evaluate_grid(state, axis, axis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 16 * axis.count**2 + 8 * 16 * 4096
        assert peak < bound, (peak, bound)


class TestOrigin:
    """The origin is one point of a block in the series grid; it must agree
    bitwise with a one-point call."""

    @pytest.mark.parametrize("state", [
        FockState(1),
        CoherentState(0.7 - 0.4j),
        cat_state(1.1),
        superposition([(1 / math.sqrt(2), FockState(0)), (1j / math.sqrt(2), FockState(1))]),
    ], ids=["fock1", "coherent", "cat1.1", "fock0+i*fock1"])
    def test_origin_in_a_block_matches_one_point_call(self, state):
        axis = GridAxis(-3.0, 3.0, 61)
        assert axis.points[30] == 0.0
        series = evaluate_grid(state, axis, axis, method="series")
        assert series.values[30, 30] == wigner_series(state, np.array([0j]))[0]


class TestOwnFrame:
    """The series grid records no frame, and for every method the state's
    exact degree as its truncation order: null for a state with a coherent
    member, which the pair form sums exactly."""

    @pytest.mark.parametrize("u", [3.0, 4.0, 5.0, 6.0, 4.0 - 2.0j])
    def test_coherent_on_its_own_window(self, u):
        # (4) to (6) raised TruncationError in the origin frame
        basis = BasisParams()
        state = CoherentState(u)
        q_lo, q_hi, p_lo, p_hi = state_window(state, basis)
        g = evaluate_grid(state, GridAxis(q_lo, q_hi, 41), GridAxis(p_lo, p_hi, 41), basis)
        assert g.metadata["truncation_order"] is None and "frame" not in g.metadata
        Q, P = qp_from_z(u, basis)
        qq, pp = np.meshgrid(g.q_axis.points, g.p_axis.points, indexing="ij")
        want = wigner_closed_coherent_gaussian(Q, P, basis.b, qq, pp, basis.hbar)
        assert np.max(np.abs(g.values - want)) * math.pi * basis.hbar <= 1e-13

    @pytest.mark.parametrize("state", [
        cat_state(1.1),
        superposition([(0.6, FockState(2)), (0.8j, CoherentState(0.5 - 0.3j))], normalize=True),
    ], ids=["cat1.1", "fock-coherent"])
    def test_origin_states_keep_frame_and_order(self, state):
        # the grid is wigner_series on its labels, and every point is within
        # the tolerance of the state projected on choose_truncation's K + 40
        # orders
        axis = GridAxis(-3.0, 3.0, 60)
        g = evaluate_grid(state, axis, axis)
        assert g.metadata["truncation_order"] is None and "frame" not in g.metadata
        z = z_from_qp(axis.points[:, None], axis.points[None, :], BasisParams())
        K = choose_truncation(state, z, TruncationPolicy())
        assert np.array_equal(g.values, wigner_series(state, z))
        gap = np.max(np.abs(g.values - wigner_series(state, z, order=K + 40))) * math.pi
        assert gap <= TruncationPolicy().tail_tolerance

    @pytest.mark.parametrize("state", [
        superposition([(1.0, CoherentState(0.2)), (1e-3, CoherentState(2.5 + 0.5j))], normalize=True),
        superposition([(1.0, CoherentState(7.0)), (1.0, CoherentState(5.0))], normalize=True),
    ], ids=["weak-far-member", "off-centre-pair"])
    def test_coherent_superposition_in_its_mean_frame(self, state):
        # whatever the members' mean label, every point is within the
        # tolerance of the state projected on choose_truncation's K + 40
        # orders
        axis = GridAxis(-3.0, 3.0, 60)
        g = evaluate_grid(state, axis, axis)
        assert g.metadata["truncation_order"] is None and "frame" not in g.metadata
        K = choose_truncation(state, None, TruncationPolicy())
        z = z_from_qp(axis.points[:, None], axis.points[None, :], BasisParams())
        gap = np.max(np.abs(g.values - wigner_series(state, z, order=K + 40))) * math.pi
        assert gap <= TruncationPolicy().tail_tolerance

    @pytest.mark.parametrize("method", ["closed", "config-integral"])
    def test_other_methods_keep_the_origin(self, method):
        axis = GridAxis(-1.0, 1.0, 2)
        g = evaluate_grid(CoherentState(0.7 - 0.4j), axis, axis, method=method)
        assert "frame" not in g.metadata
        assert g.metadata["truncation_order"] is None


def seeded_superposition(members: int, seed: int):
    """members coherent states, labels uniform in the disk |U| <= 5 and
    complex normal coefficients, normalized."""
    rng = np.random.default_rng(seed)
    labels = 5 * np.sqrt(rng.uniform(0, 1, members)) * np.exp(2j * np.pi * rng.uniform(0, 1, members))
    coeffs = rng.normal(size=members) + 1j * rng.normal(size=members)
    return superposition([(complex(c), CoherentState(complex(u))) for c, u in zip(coeffs, labels)], normalize=True)


class TestPairsOnAxes:
    """States with several coherent members, each on its own window
    (validate.state_window) at 41^2: the grid, summed on its axes, is
    wigner_series at its labels bitwise, and within 1e-14 (1/pi hbar) of
    the 30-digit pair sum (tests/pair_reference.py) at every step-th point
    and at its largest |W|. The 64-member reference takes about 0.3 s a
    point, so it is read at 9 points."""

    STATES = {
        "cat15": (cat_state(15.0), 13),
        "8-members": (seeded_superposition(8, 8), 29),
        "64-members": (seeded_superposition(64, 64), 211),
        "fock5+coherent+fock0": (superposition([(1.0, FockState(5)), (0.5, CoherentState(2 - 1j)),
                                                (0.3j, FockState(0))], normalize=True), 7),
    }

    @pytest.mark.parametrize("name", STATES)
    def test_own_window(self, name):
        state, step = self.STATES[name]
        basis = BasisParams()
        q_lo, q_hi, p_lo, p_hi = state_window(state, basis)
        g = evaluate_grid(state, GridAxis(q_lo, q_hi, 41), GridAxis(p_lo, p_hi, 41), basis)
        z = z_from_qp(g.q_axis.points[:, None], g.p_axis.points[None, :], basis)
        assert np.array_equal(g.values, wigner_series(state, z, basis))
        for i in sorted({*range(step // 2, z.size, step), int(np.argmax(np.abs(g.values)))}):
            assert abs(g.values.flat[i] * math.pi - pair_pi_w(state, z.flat[i])) <= 1e-14, (name, z.flat[i])


class TestOracleTolerance:
    """tol is the oracles' convergence budget: node doubling moves fock(6)
    by far more than 10 * 1e-30, and by less than the default budget."""

    AXIS = GridAxis(-1.0, 1.0, 2)

    @pytest.mark.parametrize("method", ["config-integral", "phase-integral"])
    def test_tight_tol_raises(self, method):
        with pytest.raises(OracleConvergenceError):
            evaluate_grid(FockState(6), self.AXIS, self.AXIS, method=method, tol=1e-30)

    @pytest.mark.parametrize("method", ["config-integral", "phase-integral"])
    def test_default_tol_passes(self, method):
        evaluate_grid(FockState(6), self.AXIS, self.AXIS, method=method)


class TestOracleMethods:
    """An oracle method of evaluate_grid is the oracle called point by
    point with its own default quadrature and budget."""

    @pytest.mark.parametrize("method", ["config-integral", "phase-integral"])
    def test_grid_equals_direct_calls(self, method):
        state = superposition([(0.6, FockState(2)), (0.8j, CoherentState(0.5 - 0.3j))], normalize=True)
        basis = BasisParams(1.3, 0.8)
        q_axis, p_axis = GridAxis(-0.7, 0.4, 2), GridAxis(-0.2, 0.9, 2)
        got = evaluate_grid(state, q_axis, p_axis, basis, method=method).values
        for i, q in enumerate(q_axis.points):
            for j, p in enumerate(p_axis.points):
                if method == "config-integral":
                    want = wigner_config_integral(state, q, p, basis)
                else:
                    want = wigner_phase_integral(state, z_from_qp(q, p, basis), basis)
                assert bits(got[i, j]) == bits(want), (i, j)


class TestTolerance:
    """A tol that is not positive and finite is refused by every method,
    and any tol by the series and the closed forms, which are exact."""

    AXIS = GridAxis(-1.0, 1.0, 3)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("method", ["series", "config-integral", "closed"])
    def test_refused(self, method, tol):
        with pytest.raises(ValueError, match=f"positive and finite, got {tol!r}"):
            evaluate_grid(CoherentState(0.7 - 0.4j), self.AXIS, self.AXIS, method=method, tol=tol)

    @pytest.mark.parametrize("method", ["series", "closed"])
    def test_exact_methods_refuse_a_tol(self, method):
        # the series' tail tolerance once set its order; no order is cut now
        with pytest.raises(ValueError, match=re.escape(f"method {method!r} is exact and takes no tol")):
            evaluate_grid(CoherentState(0.7 - 0.4j), self.AXIS, self.AXIS, method=method, tol=1e-8)


class TestValidate:
    @staticmethod
    def _grid(value):
        values = np.zeros((2, 2))
        values[1, 0] = value
        return WignerGrid(GridAxis(0.0, 1.0, 2), GridAxis(0.0, 1.0, 2), values)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match=re.escape(f"non-finite W = {value!r} at (q, p) = (1.0, 0.0)")):
            self._grid(value).validate()

    @pytest.mark.parametrize("hbar", [1.0, 0.5])
    def test_rejects_values_above_bound(self, hbar):
        over = -(1.0 / (math.pi * hbar) + 1e-6)
        with pytest.raises(ValueError, match=re.escape(f"|W| = {-over!r} at (q, p) = (1.0, 0.0) exceeds the 1/(pi hbar) bound")):
            self._grid(over).validate(hbar)

    def test_accepts_the_bound(self):
        self._grid(1.0 / math.pi).validate()
