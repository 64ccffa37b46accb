import csv
import itertools
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sparselag import (Config, MacroPanel, MaturityGrid, ParseError, ResultBundle, SparseYieldPanel,
                       SyntheticSpec, US_MATURITIES, analyze, build_result_bundle,
                       load_macro_csv, load_yields_csv, r_squared, recovery_spec,
                       simulate_lagged_regression, write_macro_csv, write_results,
                       write_yields_csv)
from sparselag import io as sio
from sparselag._floattext import lines
from sparselag.io import sha256_digest
from conftest import random_macro_panel, random_sparse_panel
from oracles import naive_result_rows


class TestLoadYields:
    def test_us_header_and_shape(self, tmp_path):
        header = "0.0833,0.5,1,2,3,5,7,10,30"
        body = "\n".join(",".join(str(5.0 + 0.01 * t + 0.1 * i) for i in range(9))
                         for t in range(192))
        path = tmp_path / "y.csv"
        path.write_text(header + "\n" + body + "\n")
        panel = load_yields_csv(path)
        assert panel.n_times == 192 and panel.n_maturities == 9
        assert panel.maturity_grid.maturities[-1] == 30.0

    def test_toy_parse_with_missing_cell(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("1,2\n3.5,4.0\n5.0,\n")
        # two maturities fail the I >= 3 grid invariant; use three
        path.write_text("1,2,3\n3.5,4.0,4.5\n5.0,,6.0\n")
        panel = load_yields_csv(path)
        assert panel.n_times == 2 and panel.n_maturities == 3
        assert not panel.observed[1, 1]
        assert panel.values[1, 0] == 5.0

    def test_non_increasing_header_rejected(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("2,1,3\n1,2,3\n")
        with pytest.raises(ParseError, match="strictly increasing"):
            load_yields_csv(path)

    def test_bad_number_locates_cell(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("1,2,3\n1.0,oops,3.0\n")
        with pytest.raises(ParseError, match=r"row 2, column 2"):
            load_yields_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("1,2,3\n1.0,2.0\n")
        with pytest.raises(ParseError, match="row 2"):
            load_yields_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="not found"):
            load_yields_csv(tmp_path / "absent.csv")


    def test_one_pass_parse_equals_the_cell_by_cell_parse(self, tmp_path):
        # missing cells, cells padded with spaces, exponent notation, signs and underscores
        text = ("0.25, 1 ,5e0\n"
                "1.5e-3,,  -2.5E+2\n"
                " 4 ,0.1,\n"
                "1_000,-0.0,  \n"
                "+7,.5,3.\n")
        path = tmp_path / "y.csv"
        path.write_text(text)
        rows = sio._read_rows(path)
        fast = sio._parse_cells(rows, 3, missing_ok=True)
        slow = sio._parse_cells_one_by_one(rows, 3, missing_ok=True)
        assert np.array_equal(_bits(fast), _bits(slow))
        assert np.isnan(fast).sum() == 3 and fast[2, 0] == 1000.0
        assert np.array_equal(load_yields_csv(path).values, slow, equal_nan=True)


class TestLoadMacro:
    def test_three_series(self, tmp_path):
        path = tmp_path / "m.csv"
        rows = "\n".join(f"{t},{t + 1},{t + 2}" for t in range(192))
        path.write_text("IP,INF,FFR\n" + rows + "\n")
        macro = load_macro_csv(path)
        assert macro.n_times == 192 and macro.n_series == 3
        assert macro.series_names == ("IP", "INF", "FFR")

    def test_single_column(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("X\n1\n2\n3\n4\n5\n")
        macro = load_macro_csv(path)
        assert macro.n_times == 5 and macro.n_series == 1

    def test_blank_cell_rejected_with_location(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,\n")
        with pytest.raises(ParseError, match=r"row 3, column 2"):
            load_macro_csv(path)


@pytest.mark.parametrize("load, text", [
    (load_yields_csv, "0.0833,1,5\n5.1,,5.3\n5.2,5.25,5.4\n"),
    (load_macro_csv, "IP,INF\n1.5,-0.25\n2.0,0.75\n"),
])
def test_utf8_byte_order_mark_is_skipped(tmp_path, load, text):
    """Excel's "CSV UTF-8" export starts the file with a BOM; it is not part of the header."""
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text(text)
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
    expected, loaded = load(plain), load(bom)
    assert np.array_equal(loaded.values, expected.values, equal_nan=True)
    if load is load_macro_csv:
        assert loaded.series_names == expected.series_names == ("IP", "INF")
    else:
        assert np.array_equal(loaded.maturity_grid.maturities, expected.maturity_grid.maturities)


class TestRoundTrips:
    def test_yields_round_trip_bit_exact(self, rng, tmp_path):
        # T = 1500 has missing cells on both sides of row 1,024, where the writer starts a block
        for t_len in (25, 1500):
            panel = random_sparse_panel(rng, t_len, 5)
            path = tmp_path / "y.csv"
            write_yields_csv(panel, path)
            back = load_yields_csv(path)
            assert np.array_equal(back.values, panel.values, equal_nan=True)
            assert np.array_equal(back.maturity_grid.maturities, panel.maturity_grid.maturities)
            with open(path, newline="", encoding="utf-8") as fh:
                cells = np.array(list(csv.reader(fh))[1:])
            assert np.array_equal(cells == "", ~panel.observed)
        assert not panel.observed[1014:1024].all() and not panel.observed[1024:1034].all()

    def test_macro_round_trip_bit_exact(self, rng, tmp_path):
        macro = random_macro_panel(rng, 40, 3)
        path = tmp_path / "m.csv"
        write_macro_csv(macro, path)
        back = load_macro_csv(path)
        assert np.array_equal(back.values, macro.values)
        assert back.series_names == macro.series_names

    @pytest.mark.parametrize("names", [("fed funds", "cpi yoy"), ("x\tq", "a"), ("Ünemp", "1")])
    def test_every_valid_macro_panel_reads_back(self, rng, tmp_path, names):
        macro = MacroPanel(values=rng.standard_normal((5, 2)), series_names=names)
        path = tmp_path / "m.csv"
        write_macro_csv(macro, path)
        assert load_macro_csv(path).series_names == names


# signed zeros, subnormals, the largest magnitudes and values whose repr uses an exponent
_EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308,
                1e-05, -2.5e-300, 1e16, 1.2345678901234567e22, 0.1, -3.0)
_PANEL_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS),
                          st.floats(allow_nan=False, allow_infinity=False))
_ROUND_TRIP = settings(max_examples=40, derandomize=True, database=None, deadline=None)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@st.composite
def yield_panels(draw):
    """Panels with a random missing mask; every row and column keeps an observed cell."""
    n_mat = draw(st.integers(3, 6))
    t_len = draw(st.integers(1, 12))
    first = draw(st.sampled_from((-0.0, 0.0, 5e-324, 1e-05)))
    rest = draw(st.lists(st.one_of(st.sampled_from((0.25, 1e22)), st.floats(1e-03, 1e300)),
                         min_size=n_mat - 1, max_size=n_mat - 1, unique=True))
    maturities = [first] + sorted(rest)
    observed = draw(arrays(bool, (t_len, n_mat)))
    observed[np.arange(t_len), np.arange(t_len) % n_mat] = True
    observed[np.arange(n_mat) % t_len, np.arange(n_mat)] = True
    values = draw(arrays(float, (t_len, n_mat), elements=_PANEL_FLOATS))
    return SparseYieldPanel(values=np.where(observed, values, np.nan), observed=observed,
                            maturity_grid=MaturityGrid(np.array(maturities)))


class TestRoundTripProperties:
    @_ROUND_TRIP
    @given(yield_panels())
    def test_yields_write_load_is_bit_exact(self, panel):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "y.csv"
            write_yields_csv(panel, path)
            back = load_yields_csv(path)
        assert np.array_equal(back.observed, panel.observed)
        assert np.array_equal(_bits(back.values[back.observed]), _bits(panel.values[panel.observed]))
        assert np.array_equal(_bits(back.maturity_grid.maturities),
                              _bits(panel.maturity_grid.maturities))

    @_ROUND_TRIP
    @given(st.integers(1, 4).flatmap(lambda d: arrays(
        float, st.tuples(st.integers(1, 12), st.just(d)), elements=_PANEL_FLOATS)))
    def test_macro_write_load_is_bit_exact(self, values):
        macro = MacroPanel(values=values,
                           series_names=tuple(f"s{j}" for j in range(values.shape[1])))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            write_macro_csv(macro, path)
            back = load_macro_csv(path)
        assert np.array_equal(_bits(back.values), _bits(macro.values))
        assert back.series_names == macro.series_names


@pytest.fixture(scope="module")
def small_analysis():
    spec = replace(recovery_spec(seed=8), n_times=160)
    panel, macro, _ = simulate_lagged_regression(spec)
    result = analyze(panel, macro)
    return result, panel, macro


class TestWriteResults:
    def test_manifest_lists_all_tables(self, small_analysis, tmp_path):
        result, panel, macro = small_analysis
        bundle = build_result_bundle(result, panel, macro, {"yields": "abc", "macro": "def"})
        manifest = write_results(bundle, tmp_path / "out")
        names = sorted(p.name for p in manifest)
        assert names == sorted([
            "mean_curve.csv", "filter_coefficients.csv", "spectral_density.csv",
            "cross_spectral.csv", "frequency_response.csv", "fitted.csv", "summary.json",
        ])

    def test_rerun_is_byte_identical(self, small_analysis, tmp_path):
        result, panel, macro = small_analysis
        bundle = build_result_bundle(result, panel, macro)
        first = {p.name: sha256_digest(p) for p in write_results(bundle, tmp_path / "a")}
        second = {p.name: sha256_digest(p) for p in write_results(bundle, tmp_path / "b")}
        assert first == second

    def test_summary_carries_config_and_diagnostics(self, small_analysis, tmp_path):
        result, panel, macro = small_analysis
        bundle = build_result_bundle(result, panel, macro, {"yields": "sha"})
        write_results(bundle, tmp_path / "out")
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["config"]["q"] == result.config.q
        assert summary["input_digests"]["yields"] == "sha"
        assert 0.0 < summary["r_squared"] <= 1.0
        assert summary["diagnostics"]["max_imag_residual"] >= 0.0

    def test_zeroed_filter_reports_r_squared_zero(self, small_analysis, tmp_path):
        result, panel, macro = small_analysis
        zero_fit = replace(result.fit, filter_coef=np.zeros_like(result.fit.filter_coef))
        zeroed = replace(result, fit=zero_fit, r_squared=r_squared(panel, zero_fit, macro))
        bundle = build_result_bundle(zeroed, panel, macro)
        write_results(bundle, tmp_path / "out")
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["r_squared"] == 0.0

    def test_tables_carry_their_grids(self, small_analysis, tmp_path):
        result, panel, macro = small_analysis
        bundle = build_result_bundle(result, panel, macro)
        write_results(bundle, tmp_path / "out")
        first = (tmp_path / "out" / "filter_coefficients.csv").read_text().splitlines()
        assert first[0] == "series,lag,tau,coefficient"
        spec_head = (tmp_path / "out" / "spectral_density.csv").read_text().splitlines()[0]
        assert spec_head == "omega,row_series,col_series,real,imag"


# the weights span the bulk range and the repr fallback outside it (1e-7, 1e300, 5e-324)
_WEIGHTS = arrays(float, st.tuples(st.integers(1, 6), st.integers(1, 5)), elements=st.one_of(
    st.sampled_from(_EDGE_FLOATS + (1e-7, 1e300)), st.floats(allow_nan=False, allow_infinity=False)))


def _with_weights(summary, weights):
    return {**summary, "smoothing_operator": {**summary["smoothing_operator"], "weights": weights}}


class TestSummaryJson:
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(_WEIGHTS)
    @example(np.array([[-0.0]]))
    @example(np.array([[-0.0, 5e-324, 1e-7], [1e300, 0.1, -2.5e-300]]))
    def test_bulk_text_equals_json_dumps(self, small_analysis, weights):
        result, panel, macro = small_analysis
        summary = build_result_bundle(result, panel, macro, {"yields": "abc"}).summary
        summary = _with_weights(summary, weights.tolist())
        assert sio.summary_json(summary) == \
            (json.dumps(summary, indent=2, sort_keys=True) + "\n").encode()

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_weight_raises_and_writes_nothing(self, small_analysis, tmp_path, bad):
        result, panel, macro = small_analysis
        bundle = build_result_bundle(result, panel, macro)
        weights = result.cross_spectral.operator.copy()
        weights[-1, 0] = bad
        bundle = replace(bundle, summary=_with_weights(bundle.summary, weights.tolist()))
        with pytest.raises(ValueError, match="finite"):
            write_results(bundle, tmp_path / "out")
        assert list(tmp_path.iterdir()) == []


def _sparse_analysis(n_series, seed, missing_frac=0.1):
    """Analysis of a simulated panel with missing cells, on small grids."""
    spec = SyntheticSpec(
        maturity_grid=MaturityGrid(np.array(US_MATURITIES)), n_times=120,
        ar_coef=np.diag([0.8, 0.7, 0.9][:n_series]), innovation_cov=np.eye(n_series),
        macro_mean=np.zeros(n_series), filter_fns={(0, n_series - 1): lambda t: 1.0 - t},
        curve_error_scale=0.3, noise_sd=0.1, seed=seed)
    panel, macro, _ = simulate_lagged_regression(spec)
    rng = np.random.default_rng(seed)
    missing = rng.random(panel.values.shape) < missing_frac
    missing[:, 0] = False                      # every date keeps an observed cell
    panel = SparseYieldPanel.from_values(np.where(missing, np.nan, panel.values),
                                         panel.maturity_grid)
    config = Config.defaults(panel.n_times, panel.n_maturities, n_omega=64, n_eval=21)
    return analyze(panel, macro, config), panel, macro


_SPECTRAL_TABLES = ("spectral_density", "cross_spectral", "frequency_response")


def _split(line):
    """A table line's cells, as strings."""
    return tuple(line.decode().split(","))


def _table_lines(blob):
    """A table blob's lines; the blob must be LF-terminated lines without a CR."""
    assert isinstance(blob, bytes) and blob.endswith(b"\n") and b"\r" not in blob
    return blob.splitlines()


def _table_rows(bundle):
    return {name: list(map(_split, _table_lines(getattr(bundle, name)[1])))
            for name in ResultBundle.TABLES}


def _table_entries(result, panel):
    """The number of entries of the array behind each table: one line each."""
    return {"mean_curve": result.fit.mean_curve.size,
            "filter_coefficients": result.fit.filter_coef.size,
            "spectral_density": result.spectral_density.half.size,
            "cross_spectral": result.cross_spectral.knot_values.size,
            "frequency_response": result.frequency_response.knot_values.size,
            "fitted": panel.values.size}


def _written_nodes(rows, result):
    """Per-element rows with each spectral table cut to its written nodes k = 0..N/2."""
    n_nodes = result.spectral_density.grid.n_nodes
    return {name: table[:len(table) // n_nodes * (n_nodes // 2 + 1)]
            if name in _SPECTRAL_TABLES else table
            for name, table in rows.items()}


class TestResultRowsMatchOracle:
    @pytest.mark.parametrize("n_series, seed", [(1, 5), (3, 6)])
    def test_rows_equal_per_element_oracle(self, n_series, seed):
        result, panel, macro = _sparse_analysis(n_series, seed)
        assert not panel.observed.all()
        rows = _table_rows(build_result_bundle(result, panel, macro))
        expected = _written_nodes(naive_result_rows(result, panel, macro), result)
        entries = _table_entries(result, panel)
        for name in ResultBundle.TABLES:
            assert len(rows[name]) == entries[name], name
            assert rows[name] == expected[name], name
        # the tables exercise exponent notation and empty (missing) cells
        cells = {cell for table in rows.values() for row in table for cell in row}
        assert any("e-" in cell for cell in cells)
        assert "" in {row[2] for row in rows["fitted"]}

    @pytest.mark.parametrize("sizes", [(3,), (0, 2), (2, 1, 3), (1, 4, 0), (3, 2, 2, 1)])
    def test_label_columns_follow_c_order(self, sizes):
        axes = [[b"a" * (k + i % 2) + b"%d" % i for i in range(n)] for k, n in enumerate(sizes)]
        expected = b"".join(b",".join(row) + b"\n" for row in itertools.product(*axes))
        assert lines(*sio._axes(*axes)) == expected

    def test_signed_zero_and_exponents_format_like_oracle(self):
        result, panel, macro = _sparse_analysis(3, 7)
        coef = result.fit.filter_coef.copy()
        coef[0, :4, 0] = [-0.0, 1e-300, -2.5e300, 5e-324]
        mean = result.fit.mean_curve.copy()
        mean[:2] = [-0.0, 1e22]
        fit = replace(result.fit, filter_coef=coef, mean_curve=mean)
        edited = replace(result, fit=fit)
        rows = _table_rows(build_result_bundle(edited, panel, macro))
        assert {name: len(table) for name, table in rows.items()} == _table_entries(edited, panel)
        assert rows == _written_nodes(naive_result_rows(edited, panel, macro), edited)
        assert [row[3] for row in rows["filter_coefficients"][:4]] == \
            ["-0.0", "1e-300", "-2.5e+300", "5e-324"]
        assert [row[2] for row in rows["mean_curve"][:2]] == ["-0.0", "1e+22"]


def _read_spectral_table(path, inner_shape):
    """The omega column per node and the complex values, shape (nodes, *inner_shape)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    values = np.array([complex(float(row[-2]), float(row[-1])) for row in rows])
    per_node = int(np.prod(inner_shape))
    omegas = np.array([float(row[0]) for row in rows[::per_node]])
    return omegas, values.reshape(-1, *inner_shape)


class TestHalfSpectrumTables:
    @pytest.mark.parametrize("shape", ["d1_n512", "d3_n64"])
    def test_written_half_mirrors_to_the_full_fields(self, small_analysis, shape, tmp_path):
        result, panel, macro = small_analysis if shape == "d1_n512" else _sparse_analysis(3, 6)
        write_results(build_result_bundle(result, panel, macro), tmp_path / "out")
        grid = result.spectral_density.grid
        omegas, half = _read_spectral_table(tmp_path / "out" / "spectral_density.csv",
                                            result.spectral_density.values.shape[1:])
        assert np.array_equal(omegas, grid.nodes[:grid.n_nodes // 2 + 1])
        assert omegas[-1] == 0.0
        assert np.array_equal(grid.mirror(half), result.spectral_density.values)

        smoothing = json.loads((tmp_path / "out" / "summary.json").read_text())["smoothing_operator"]
        assert smoothing["tau"] == result.fit.eval_tau.tolist()
        assert smoothing["knot_tau"] == panel.maturity_grid.maturities.tolist()
        operator = np.array(smoothing["weights"])
        for name, field in {"cross_spectral": result.cross_spectral,
                            "frequency_response": result.frequency_response}.items():
            inner = (panel.n_maturities, macro.n_series)
            omegas, knots = _read_spectral_table(tmp_path / "out" / f"{name}.csv", inner)
            assert np.array_equal(omegas, grid.nodes[:grid.n_nodes // 2 + 1]), name
            with open(tmp_path / "out" / f"{name}.csv", newline="", encoding="utf-8") as fh:
                taus = [float(row[1]) for row in list(csv.reader(fh))[1:][::macro.n_series]]
            assert taus[:panel.n_maturities] == smoothing["knot_tau"], name
            rebuilt = type(field).from_knots(grid, knots, operator)
            assert np.array_equal(rebuilt.half, field.half), name
            assert np.array_equal(rebuilt.values, field.values), name

    def test_bundle_writes_the_stored_halves_without_the_full_fields(self):
        result, panel, macro = _sparse_analysis(3, 6)
        bundle = build_result_bundle(result, panel, macro)
        fields = {"spectral_density": result.spectral_density.half,
                  "cross_spectral": result.cross_spectral.knot_values,
                  "frequency_response": result.frequency_response.knot_values}
        for name, stored in fields.items():
            lines = _table_lines(getattr(bundle, name)[1])
            assert len(lines) == stored.size, name
            rows = map(_split, lines)
            written = np.array([complex(float(row[-2]), float(row[-1])) for row in rows])
            assert np.array_equal(written, stored.ravel()), name
        assert bundle.summary["smoothing_operator"]["weights"] == result.cross_spectral.operator.tolist()
        # the writer never built the (N/2+1, R, d) products L @ Z nor the (N, R, d) fields
        for field in (result.cross_spectral, result.frequency_response):
            assert "half" not in vars(field) and "values" not in vars(field)
        assert "matrices" not in vars(result.spectral_density)


class TestAllOrNothingWrites:
    def test_blocked_file_leaves_no_other_results(self, small_analysis, tmp_path):
        result, panel, macro = small_analysis
        bundle = build_result_bundle(result, panel, macro)
        out = tmp_path / "out"
        (out / "fitted.csv").mkdir(parents=True)
        with pytest.raises(OSError):
            write_results(bundle, out)
        assert [p.name for p in out.iterdir()] == ["fitted.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]

    def test_success_leaves_exactly_the_result_files(self, small_analysis, tmp_path):
        result, panel, macro = small_analysis
        bundle = build_result_bundle(result, panel, macro)
        manifest = write_results(bundle, tmp_path / "out")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == \
            sorted(p.name for p in manifest)
