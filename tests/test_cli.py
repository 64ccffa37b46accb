import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import sparselag
from sparselag import checks, cli, simulate
from sparselag import io as sio
from sparselag.cli import main, parse_synthetic_config, read_key_values
from sparselag.errors import ResidualImaginary
from sparselag.io import sha256_digest
from sparselag.model import Config
from sparselag.mv_spectral import bartlett_weights, SpectralDensityField
from sparselag.pipeline import Diagnostics
from conftest import field_from_values
from oracles import loop_var1_deviations


@pytest.fixture
def sim_dir(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("preset = recovery\nseed = 3\n")
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def _failed_run(capsys, argv, out):
    """Run a failing ``cli.main(argv)`` in process; return its exit code and stderr lines once
    it is seen to have warned of nothing and written nothing, neither ``out`` nor a staged
    ``.partial`` sibling."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in caught] == []
    assert not out.exists()
    assert not [p for p in out.parent.iterdir() if p.name.endswith(".partial")]
    return code, capsys.readouterr().err.splitlines()


def _run_module(*args):
    """Run ``python -m sparselag`` in a fresh interpreter, to see its real stderr."""
    src = str(Path(sparselag.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "sparselag", *args], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})


class TestSimulateCommand:
    def test_writes_three_files(self, sim_dir):
        assert sorted(p.name for p in sim_dir.iterdir()) == ["macro.csv", "truth.json", "yields.csv"]
        truth = json.loads((sim_dir / "truth.json").read_text())
        assert truth["seed"] == 3
        assert truth["filter"][0]["lag"] == 0

    def test_same_seed_rerun_is_identical(self, sim_dir, tmp_path):
        cfg = tmp_path / "sim2.cfg"
        cfg.write_text("preset = recovery\nseed = 3\n")
        out2 = tmp_path / "sim2"
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("yields.csv", "macro.csv", "truth.json"):
            assert sha256_digest(sim_dir / name) == sha256_digest(out2 / name)

    def test_explicit_spec_keys(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "t = 50\n"
            "maturities = 1, 2, 5, 10\n"
            "ar = 0.4\n"
            "innovation_cov = 1.0\n"
            "mean_poly = 2.0, 1.0\n"
            "filter_h0_j1 = 1.0, -1.0\n"
            "noise_sd = 0.1\n"
            "seed = 7\n"
        )
        spec = parse_synthetic_config(cfg)
        assert spec.n_times == 50 and spec.n_series == 1
        assert spec.filter_fns[(0, 0)](np.array([0.0, 1.0])).tolist() == [1.0, 0.0]
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0

    def test_nonstationary_spec_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("t = 50\nmaturities = 1,2,5\nar = 1.1\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "spectral radius" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("t = 50\nmaturities = 1,2,5\nar = 0.5\nbogus = 1\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_repeated_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("t = 50\nmaturities = 1,2,5\nar = 0.5\nT = 60\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error [config]" in err and "'t'" in err and "line 1" in err
        assert not out.exists()

    def test_overflowing_simulation_exits_1_without_traceback(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("t = 50\nmaturities = 0.25, 1, 5, 10\nar = 0.5\nmean_poly = 1e308, 1e308\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [simulate]") and "finite" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sim.cfg"]

    def test_overflowing_mean_curve_prints_one_error_line(self, tmp_path):
        # the one fresh interpreter among these cases: its real stderr holds no traceback or warning
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("t = 50\nmaturities = 0.25, 1, 5, 10\nar = 0.5\nmean_poly = 1e308, 1e308\n")
        out = tmp_path / "o"
        proc = _run_module("simulate", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == ["error [simulate] observed values must all be finite"]
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("extra", [
        "innovation_cov = 1e300\nfilter_h0_j1 = 1e300\n",
        "curve_error_scale = 1e308\n",
    ])
    def test_overflowing_curves_print_one_error_line(self, tmp_path, capsys, extra):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("t = 50\nmaturities = 0.25, 1, 5, 10\nar = 0.5\n" + extra)
        out = tmp_path / "o"
        argv = ["simulate", "--config", str(cfg), "--out", str(out)]
        assert _failed_run(capsys, argv, out) == (1, ["error [simulate] observed values must all be finite"])

    @pytest.mark.parametrize("extra, flags, message", [
        ("curve_error_scale = nan\n", (), "noise scales must be finite and nonnegative"),
        ("noise_sd = inf\n", (), "noise scales must be finite and nonnegative"),
        ("innovation_cov = inf\n", (), "innovation_cov must be finite"),
        ("macro_mean = nan\n", (), "macro_mean must be finite"),
        ("seed = -1\n", (), "seed must be nonnegative, got -1"),
        ("", ("--seed", "-1"), "seed must be nonnegative, got -1"),
    ])
    def test_non_finite_or_negative_values_are_config_errors(self, tmp_path, capsys, extra, flags,
                                                             message):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("t = 50\nmaturities = 1, 2, 5\nar = 0.5\n" + extra)
        out = tmp_path / "o"
        argv = ["simulate", "--config", str(cfg), "--out", str(out), *flags]
        assert _failed_run(capsys, argv, out) == (2, [f"error [config] {message}"])

    @pytest.mark.parametrize("text, message", [
        ("preset = recovery\nt = 50\n", "preset config admits only 'seed', found: t"),
        ("preset = bogus\n", "unknown preset 'bogus' (expected 'recovery' or 'null')"),
        ("t = 50\nar = 0.5\n", "missing required key 'maturities'"),
        ("t = 50\nmaturities = 1, 2, 5\nar = 0.5\nfilter_hx_j1 = 1\n", "cannot parse filter key 'filter_hx_j1'"),
        ("t = 50\nmaturities = 1, 2, 5\nar = 0.5\nfilter_h0_j2 = 1\n",
         "filter key 'filter_h0_j2': series index must lie in 1..1"),
    ])
    def test_malformed_spec_keys_are_config_errors(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(text)
        out = tmp_path / "o"
        argv = ["simulate", "--config", str(cfg), "--out", str(out)]
        assert _failed_run(capsys, argv, out) == (2, [f"error [config] {message}"])

    def test_recovery_files_equal_the_matrix_loop_files(self, sim_dir, tmp_path, monkeypatch):
        monkeypatch.setattr(simulate, "_var1_deviations", loop_var1_deviations)
        cfg = tmp_path / "loop.cfg"
        cfg.write_text("preset = recovery\nseed = 3\n")
        out = tmp_path / "loop"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("yields.csv", "macro.csv", "truth.json"):
            assert sha256_digest(sim_dir / name) == sha256_digest(out / name)

    def test_unwritable_out_is_write_stage_error(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("preset = recovery\n")
        blocker = tmp_path / "plain_file"
        blocker.write_text("")
        assert main(["simulate", "--config", str(cfg), "--out", str(blocker / "sim")]) == 1
        assert "error [write]" in capsys.readouterr().err

    def test_failed_write_leaves_no_partial_output(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("preset = recovery\n")
        out = tmp_path / "sim"
        (out / "macro.csv").mkdir(parents=True)
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert "error [write]" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["macro.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sim", "sim.cfg"]


class TestAnalyzeCommand:
    def test_full_run_and_summary(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "results"
        code = main(["analyze", "--yields", str(sim_dir / "yields.csv"),
                     "--macro", str(sim_dir / "macro.csv"), "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "q=45" in printed and "r_squared=" in printed
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_times"] == 2000 and summary["config"]["q"] == 45
        assert summary["r_squared"] > 0.9
        assert set(summary["input_digests"]) == {"yields", "macro"}
        names = [f.name for f in dataclasses.fields(Diagnostics)]
        [line] = [line for line in printed.splitlines() if line.startswith("diagnostics: ")]
        assert [item.split("=")[0] for item in line.split()[1:]] == names
        assert sorted(summary["diagnostics"]) == sorted(names)

    def test_utf8_bom_inputs_give_the_same_results(self, sim_dir, tmp_path):
        """Excel's "CSV UTF-8" export starts each file with a byte-order mark."""
        bom = {}
        for name in ("yields.csv", "macro.csv"):
            bom[name] = tmp_path / f"bom_{name}"
            bom[name].write_bytes(b"\xef\xbb\xbf" + (sim_dir / name).read_bytes())
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfq = 10\n")
        runs = {}
        for label, files in (("plain", {n: sim_dir / n for n in bom}), ("bom", bom)):
            runs[label] = tmp_path / label
            assert main(["analyze", "--yields", str(files["yields.csv"]), "--macro",
                         str(files["macro.csv"]), "--config", str(cfg), "--out", str(runs[label])]) == 0
        for path in sorted(runs["plain"].glob("*.csv")):
            assert (runs["bom"] / path.name).read_bytes() == path.read_bytes(), path.name
        plain, with_bom = (json.loads((runs[k] / "summary.json").read_text()) for k in runs)
        assert plain["input_digests"] != with_bom["input_digests"]
        assert {**plain, "input_digests": None} == {**with_bom, "input_digests": None}
        assert with_bom["config"]["q"] == 10 and with_bom["series_names"] == ["X1"]

    def test_null_model_fixture_gives_near_zero_r_squared(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("preset = null\nseed = 1\n")
        data = tmp_path / "data"
        assert main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
        out = tmp_path / "results"
        assert main(["analyze", "--yields", str(data / "yields.csv"),
                     "--macro", str(data / "macro.csv"), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert abs(summary["r_squared"]) <= 0.05

    def test_missing_macro_flag_is_usage_error(self, sim_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--yields", str(sim_dir / "yields.csv")])
        assert exc.value.code == 2

    def test_pipeline_determinism_across_runs(self, sim_dir, tmp_path):
        args = ["analyze", "--yields", str(sim_dir / "yields.csv"),
                "--macro", str(sim_dir / "macro.csv")]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for p in (tmp_path / "a").iterdir():
            assert sha256_digest(p) == sha256_digest(tmp_path / "b" / p.name)

    def test_parse_failure_exits_2_with_stage(self, tmp_path, capsys):
        bad = tmp_path / "y.csv"
        bad.write_text("2,1,3\n1,2,3\n")
        macro = tmp_path / "m.csv"
        macro.write_text("X\n1\n2\n")
        assert main(["analyze", "--yields", str(bad), "--macro", str(macro),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "[load]" in err

    def test_failed_run_leaves_no_output_files(self, sim_dir, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("b_r = 0.001\n")   # window too small for any fit
        out = tmp_path / "results"
        code = main(["analyze", "--yields", str(sim_dir / "yields.csv"),
                     "--macro", str(sim_dir / "macro.csv"),
                     "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert not out.exists()

    def test_config_file_overrides(self, sim_dir, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("q = 20\nh_max = 6  # shorter filter\n")
        out = tmp_path / "results"
        assert main(["analyze", "--yields", str(sim_dir / "yields.csv"),
                     "--macro", str(sim_dir / "macro.csv"),
                     "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["q"] == 20 and summary["config"]["h_max"] == 6

    def test_every_config_field_reaches_the_summary(self, sim_dir, tmp_path, capsys):
        settings = {"b_mu": 0.3, "b_r": 0.35, "q": 9, "n_omega": 64, "h_max": 5,
                    "n_eval": 21, "cond_threshold": 1e9}
        names = [f.name for f in dataclasses.fields(Config)]
        assert sorted(settings) == sorted(names)
        defaults = Config.defaults(2000, 9)
        assert all(getattr(defaults, name) != value for name, value in settings.items())
        cfg = tmp_path / "c.cfg"
        cfg.write_text("".join(f"{name} = {value!r}\n" for name, value in settings.items()))
        out = tmp_path / "results"
        assert main(["analyze", "--yields", str(sim_dir / "yields.csv"),
                     "--macro", str(sim_dir / "macro.csv"),
                     "--config", str(cfg), "--out", str(out)]) == 0
        written = json.loads((out / "summary.json").read_text())["config"]
        assert sorted(written) == sorted(names)
        for name, value in settings.items():
            assert written[name] == value and type(written[name]) is type(value)

        cfg.write_text("n_eval = 20.5\n")       # an int field does not take a fraction
        out = tmp_path / "o"
        assert main(["analyze", "--yields", str(sim_dir / "yields.csv"),
                     "--macro", str(sim_dir / "macro.csv"),
                     "--config", str(cfg), "--out", str(out)]) == 2
        assert "[config]" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_cond_threshold_exits_2(self, sim_dir, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("cond_threshold = nan\n")
        assert main(["analyze", "--yields", str(sim_dir / "yields.csv"),
                     "--macro", str(sim_dir / "macro.csv"),
                     "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "[config]" in capsys.readouterr().err

    def test_span_longer_than_the_panel_is_a_config_error(self, tmp_path, capsys):
        (tmp_path / "y.csv").write_text("1,2,3\n1.0,2.0,3.0\n2.0,1.0,0.5\n")
        (tmp_path / "m.csv").write_text("X\n1.0\n2.0\n")
        (tmp_path / "c.cfg").write_text("q = 3\n")
        out = tmp_path / "o"
        assert main(["analyze", "--yields", str(tmp_path / "y.csv"), "--macro", str(tmp_path / "m.csv"),
                     "--config", str(tmp_path / "c.cfg"), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error [config] window span q=3 exceeds the horizon T=2"]
        assert not out.exists()

    def test_unknown_config_key_exits_2(self, sim_dir, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("bandwidth = 0.3\n")
        assert main(["analyze", "--yields", str(sim_dir / "yields.csv"),
                     "--macro", str(sim_dir / "macro.csv"),
                     "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "[config]" in capsys.readouterr().err

    def test_repeated_config_key_exits_2(self, sim_dir, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("q = 5\n# comment\nq = 7\n")
        out = tmp_path / "o"
        assert main(["analyze", "--yields", str(sim_dir / "yields.csv"),
                     "--macro", str(sim_dir / "macro.csv"),
                     "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error [config]" in err
        assert "c.cfg:3: key 'q' already set on line 1" in err
        assert not out.exists()

    def test_seed_is_not_an_analyze_setting(self, sim_dir, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 1\n")
        out = tmp_path / "o"
        assert main(["analyze", "--yields", str(sim_dir / "yields.csv"),
                     "--macro", str(sim_dir / "macro.csv"),
                     "--config", str(cfg), "--out", str(out)]) == 2
        assert "[config]" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--yields", str(sim_dir / "yields.csv"),
                  "--macro", str(sim_dir / "macro.csv"), "--seed", "1", "--out", str(out)])
        assert exc.value.code == 2

    def _analyze_exit(self, yields, macro, out, capsys):
        code = main(["analyze", "--yields", str(yields), "--macro", str(macro), "--out", str(out)])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("header", ['"fed funds, effective",X2', "X1,X1"])
    def test_unsafe_or_duplicate_series_names_exit_2(self, sim_dir, tmp_path, capsys, header):
        n_rows = len((sim_dir / "yields.csv").read_text().splitlines()) - 1
        macro = tmp_path / "m.csv"
        macro.write_text(header + "\n" + "1.0,2.0\n" * n_rows)
        out = tmp_path / "o"
        code, err = self._analyze_exit(sim_dir / "yields.csv", macro, out, capsys)
        assert code == 2 and "[load]" in err
        assert not out.exists()

    def test_identical_regressors_exit_1_ill_conditioned(self, sim_dir, tmp_path, capsys):
        rows = (sim_dir / "macro.csv").read_text().splitlines()[1:]
        twins = tmp_path / "twins.csv"
        twins.write_text("A,B\n" + "".join(f"{v},{v}\n" for v in rows))
        out = tmp_path / "o"
        code, err = self._analyze_exit(sim_dir / "yields.csv", twins, out, capsys)
        assert code == 1 and "[estimate]" in err and "condition" in err
        assert not out.exists()

    def test_constant_yields_exit_1_degenerate_total(self, sim_dir, tmp_path, capsys):
        lines = (sim_dir / "yields.csv").read_text().splitlines()
        n_mat = len(lines[0].split(","))
        flat = tmp_path / "flat.csv"
        flat.write_text(lines[0] + "\n" + (",".join(["5.0"] * n_mat) + "\n") * (len(lines) - 1))
        out = tmp_path / "o"
        code, err = self._analyze_exit(flat, sim_dir / "macro.csv", out, capsys)
        assert code == 1 and "[estimate]" in err and "total sum of squares" in err
        assert not out.exists()

    def test_panel_constant_in_time_exits_1_degenerate_total(self, tmp_path, capsys):
        flat = tmp_path / "flat.csv"
        flat.write_text("0.5,1,2,5,10,30\n" + "3.0,3.0,3.0,3.0,3.0,3.0\n" * 60)
        macro = tmp_path / "m.csv"
        sio.write_macro_csv(sparselag.MacroPanel(
            values=np.random.default_rng(1).standard_normal((60, 2)), series_names=("X1", "X2")), macro)
        out = tmp_path / "o"
        code, err = self._analyze_exit(flat, macro, out, capsys)
        assert code == 1 and len(err.splitlines()) == 1 and err.startswith("error [estimate] ")
        assert not out.exists()

    @staticmethod
    def _scaled_csv(path, scale, out):
        lines = path.read_text().splitlines()
        out.write_text(lines[0] + "\n" + "".join(
            ",".join(c and repr(float(c) * scale) for c in line.split(",")) + "\n"
            for line in lines[1:]))
        return out

    @pytest.mark.parametrize("name, scale, message", [
        ("macro.csv", 1e200, "error [estimate] autocovariance at lag "),
        ("yields.csv", 1e300, "error [estimate] sums of squares overflow: SS_residual = inf"),
        ("yields.csv", 1e305, "error [estimate] CrossSpectralField knot values not finite at omega = -3.14"),
        ("yields.csv", 1e307, "error [estimate] CrossSpectralField knot values not finite at omega = -3.14"),
    ])
    def test_overflowing_input_prints_one_error_line(self, sim_dir, tmp_path, name, scale,
                                                     message):
        files = {n: sim_dir / n for n in ("yields.csv", "macro.csv")}
        files[name] = self._scaled_csv(sim_dir / name, scale, tmp_path / name)
        out = tmp_path / "o"
        proc = _run_module("analyze", "--yields", str(files["yields.csv"]),
                           "--macro", str(files["macro.csv"]), "--out", str(out))
        assert proc.returncode == 1
        [line] = proc.stderr.splitlines()
        assert line.startswith(message) and "Traceback" not in proc.stderr
        assert "np.float64" not in proc.stderr
        assert not out.exists()


_YIELDS = "1,2,3\n1.0,2.0,3.0\n2.0,,0.5\n1.5,1.0,2.5\n0.5,1.5,1.0\n"
_MACRO = "X1,X2\n1.0,0.5\n2.0,-1.0\n0.0,0.25\n1.5,2.0\n"
_LOAD_FAILURES = {  # case: (input, its text or bytes, None for a directory or "absent", message fragment)
    "yields file missing": ("yields", "absent", "file not found"),
    "yields is a directory": ("yields", None, "cannot read"),
    "yields not UTF-8": ("yields", b"\xff\xfe1,2,3\n1,2,3\n", "codec can't decode"),
    "cell above the csv field limit": ("yields", "1,2,3\n" + "1" * 140_000 + ",2,3\n",
                                       "field larger than field limit"),
    "empty yields file": ("yields", "", "empty file"),
    "maturities not increasing": ("yields", "2,1,3\n1,2,3\n", "strictly increasing"),
    "two maturities": ("yields", "1,2\n1,2\n", "at least 3 maturities"),
    "header not a number": ("yields", "1,two,3\n1,2,3\n", "row 1, column 2"),
    "non-finite cell": ("yields", "1,2,3\n1,inf,3\n", "non-finite value"),
    "cell not a number": ("yields", "1,2,3\n1,oops,3\n", "row 2, column 2"),
    "ragged row": ("yields", "1,2,3\n1,2\n", "expected 3 cells"),
    "row with no quote": ("yields", "1,2,3\n1,2,3\n,,\n", "row 2 is empty"),
    "macro file missing": ("macro", "absent", "file not found"),
    "macro missing cell": ("macro", "X1,X2\n1.0,\n", "missing value in regressor panel"),
    "macro empty name": ("macro", "X1,\n1.0,2.0\n", "series names must be non-empty"),
    "macro duplicate name": ("macro", "X1,X1\n1.0,2.0\n", "duplicate series name"),
    "macro name with a comma": ("macro", '"a,b",X2\n1.0,2.0\n', "contains a comma"),
    "macro shorter than yields": ("macro", "X1,X2\n1.0,0.5\n2.0,-1.0\n", "yields has 4 rows, macro 2"),
}
_ESTIMATE_FAILURES = {   # case: (yields text, config text, exception analyze raises, message fragment)
    "window holds one knot": (_YIELDS, "b_mu = 0.05\n", None, "-- consider a larger bandwidth"),
    "b_mu overflows the kernel": (_YIELDS, "b_mu = 1e-200\n", None, "fewer than 2 observed knots"),
    "b_r overflows the kernel": (_YIELDS, "b_r = 5e-324\n", None, "fewer than 2 observed knots"),
    "ill-conditioned spectrum": (_YIELDS, "cond_threshold = 1.0001\n", None,
                                 "-- consider a different window span q"),
    "panel constant in time": ("1,2,3\n" + "3.0,3.0,3.0\n" * 4, None, None, "R^2 is undefined"),
    "imaginary residue": (_YIELDS, None, ResidualImaginary(1e-3, 1e-8), "max imaginary part"),
    "out of memory": (_YIELDS, None, MemoryError("Unable to allocate 745. GiB for an array"),
                      "Unable to allocate"),
}
_CONFIG_FAILURES = {     # case: (config text or None for a missing file, message fragment)
    "config file missing": (None, "No such file"),
    "unknown key": ("bandwidth = 0.3\n", "unknown config keys: bandwidth"),
    "seed key": ("seed = 1\n", "unknown config keys: seed"),
    "repeated key": ("q = 2\nq = 3\n", "key 'q' already set on line 1"),
    "malformed line": ("q 2\n", "expected 'key = value'"),
    "non-integer n_eval": ("n_eval = 20.5\n", "invalid literal for int()"),
    "non-finite cond_threshold": ("cond_threshold = nan\n", "cond_threshold"),
}
_RULE_FAILURES = {       # case: (config text, the whole stderr line) for the span and lag-reach rules
    "q = 0": ("q = 0\n", "error [config] q must be a positive integer, got 0"),
    "q above T": ("q = 5\n", "error [config] window span q=5 exceeds the horizon T=4"),
    "h_max = -1": ("h_max = -1\n", "error [config] h_max must be nonnegative, got -1"),
    "odd n_omega": ("n_omega = 25\n", "error [config] n_omega must be even and >= 2*h_max + 2 = 26, got 25"),
    "n_omega below the default reach": ("n_omega = 16\n",
                                        "error [config] n_omega must be even and >= 2*h_max + 2 = 26, got 16"),
}


class TestFailureContract:
    """Every documented load and config failure: exit 2, one stderr line naming the stage,
    and nothing written, neither ``--out`` nor a staged ``.partial`` sibling; a failed
    estimate or write exits 1 with one ``error [estimate]`` or ``error [write]`` line and
    leaves nothing either."""

    @staticmethod
    def _run(tmp_path, capsys, files, config=None):
        paths = {}
        for name, text in files.items():
            path = paths[name] = tmp_path / f"{name}.csv"
            if text is None:
                path.mkdir()
            elif text != "absent":
                path.write_bytes(text if isinstance(text, bytes) else text.encode())
        argv = ["analyze", "--yields", str(paths["yields"]), "--macro", str(paths["macro"]),
                "--out", str(tmp_path / "out")]
        if config is not None:
            argv += ["--config", str(config)]
        return _failed_run(capsys, argv, tmp_path / "out")

    @pytest.mark.parametrize("case", _LOAD_FAILURES)
    def test_load_failure(self, tmp_path, capsys, case):
        name, text, fragment = _LOAD_FAILURES[case]
        code, err = self._run(tmp_path, capsys, {"yields": _YIELDS, "macro": _MACRO, name: text})
        assert code == 2 and len(err) == 1
        assert err[0].startswith("error [load] ") and fragment in err[0]

    @pytest.mark.parametrize("case", _CONFIG_FAILURES)
    def test_config_failure(self, tmp_path, capsys, case):
        text, fragment = _CONFIG_FAILURES[case]
        config = tmp_path / "run.cfg"
        if text is not None:
            config.write_text(text)
        code, err = self._run(tmp_path, capsys, {"yields": _YIELDS, "macro": _MACRO}, config)
        assert code == 2 and len(err) == 1
        assert err[0].startswith("error [config] ") and fragment in err[0]

    @pytest.mark.parametrize("case", _RULE_FAILURES)
    def test_rule_failure(self, tmp_path, capsys, case):
        text, line = _RULE_FAILURES[case]
        config = tmp_path / "run.cfg"
        config.write_text(text)
        assert self._run(tmp_path, capsys, {"yields": _YIELDS, "macro": _MACRO}, config) == (2, [line])

    @pytest.mark.parametrize("case", _ESTIMATE_FAILURES)
    def test_estimate_failure(self, tmp_path, capsys, monkeypatch, case):
        yields, text, raised, fragment = _ESTIMATE_FAILURES[case]
        config = None
        if text is not None:
            config = tmp_path / "run.cfg"
            config.write_text(text)
        if raised is not None:
            def failing(*args):
                raise raised

            monkeypatch.setattr(cli, "analyze", failing)
        code, err = self._run(tmp_path, capsys, {"yields": yields, "macro": _MACRO}, config)
        assert code == 1 and len(err) == 1
        assert err[0].startswith("error [estimate] ") and fragment in err[0]

    def test_subnormal_maturity_succeeds_silently(self, tmp_path, capsys):
        for name, text in {"yields": _YIELDS.replace("1,2,3", "0,1e-310,1", 1), "macro": _MACRO}.items():
            (tmp_path / f"{name}.csv").write_text(text)
        code = main(["analyze", "--yields", str(tmp_path / "yields.csv"),
                     "--macro", str(tmp_path / "macro.csv"), "--out", str(tmp_path / "out")])
        assert code == 0 and capsys.readouterr().err == ""
        assert len(list((tmp_path / "out").iterdir())) == 7

    def test_tiny_bandwidth_prints_no_warning_in_a_fresh_interpreter(self, tmp_path):
        for name, text in {"yields.csv": _YIELDS, "macro.csv": _MACRO, "run.cfg": "b_mu = 1e-200\n"}.items():
            (tmp_path / name).write_text(text)
        proc = _run_module("analyze", "--yields", str(tmp_path / "yields.csv"), "--macro",
                           str(tmp_path / "macro.csv"), "--config", str(tmp_path / "run.cfg"),
                           "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        [line] = proc.stderr.splitlines()
        assert line.startswith("error [estimate] ")
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_unreadable_digest_is_a_load_failure(self, tmp_path, capsys, monkeypatch):
        def unreadable(path):
            raise PermissionError(f"cannot open {path}")

        monkeypatch.setattr(sio, "sha256_digest", unreadable)
        code, err = self._run(tmp_path, capsys, {"yields": _YIELDS, "macro": _MACRO})
        assert code == 2 and len(err) == 1 and err[0].startswith("error [load] cannot open")

    @pytest.mark.parametrize("case", ["out below a regular file", "out is a regular file"])
    def test_write_failure(self, tmp_path, capsys, case):
        """A failed write: exit 1, one ``error [write]`` line, no result file, no staged sibling."""
        for name, text in {"yields": _YIELDS, "macro": _MACRO}.items():
            (tmp_path / f"{name}.csv").write_text(text)
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        out = blocker / "out" if case == "out below a regular file" else blocker
        code = main(["analyze", "--yields", str(tmp_path / "yields.csv"),
                     "--macro", str(tmp_path / "macro.csv"), "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 1 and len(err) == 1 and err[0].startswith("error [write] ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "macro.csv", "yields.csv"]
        assert blocker.read_text() == "not a directory\n"


class TestCheckCommand:
    def test_fresh_build_passes(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 8 and "FAIL" not in out

    def test_seed_sweep_is_robust(self, capsys):
        for seed in range(10):
            assert main(["check", "--seed", str(seed)]) == 0

    def test_negative_seed_is_a_config_error(self):
        proc = _run_module("check", "--seed", "-1")
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["error [config] seed must be nonnegative, got -1"]

    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(sparselag.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "sparselag", "check", "--seed", "0"],
                              capture_output=True, text=True, timeout=300,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        assert "8/8 checks passed" in proc.stdout

    def test_injected_sign_error_is_caught(self, capsys):
        def mutant_spectral(acov, grid):
            # e^{+i h omega} instead of e^{-i h omega}
            phases = np.exp(+1j * np.outer(grid.nodes, acov.lags))
            weighted = bartlett_weights(acov.q)[:, None, None] * acov.matrices
            mats = np.einsum("kl,lab->kab", phases, weighted) / (2 * np.pi)
            return field_from_values(SpectralDensityField, grid, mats)

        rng = np.random.default_rng(0)
        result = checks.check_bartlett_symmetry(rng, spectral_fn=mutant_spectral)
        assert not result.passed


def test_fresh_import_loads_no_scipy():
    src = str(Path(sparselag.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, sparselag, sparselag.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestConfigParsing:
    def test_read_key_values(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# comment\nA = 1\nb=2 # trailing\n\n")
        assert read_key_values(cfg) == {"a": "1", "b": "2"}

    def test_byte_order_mark_is_skipped(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfq = 3\n")
        assert read_key_values(cfg) == {"q": "3"}

    def test_malformed_line_raises(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("just words\n")
        with pytest.raises(ValueError, match="key = value"):
            read_key_values(cfg)

    def test_repeated_key_raises_with_both_lines(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("q = 5\nb_mu = 0.2\nQ = 7\n")
        with pytest.raises(ValueError, match=r"c\.cfg:3: key 'q' already set on line 1"):
            read_key_values(cfg)
