"""Command-line surface: run, sweep, wigner, validate; config handling."""

import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from catscamp import audit, fock, sweeps
from catscamp.cli import _parse_grid, main
from catscamp.phasespace import EFFICIENCY_MIN
from catscamp.pipeline import PipelineConfig
from catscamp.states import cat_fock
from catscamp.sweeps import FIGURE_COLUMNS, SweepSpec, normalize_figure


T2_95_TEXT = "0.974679434481"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_record(out: str) -> dict:
    rec = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition("=")
        rec[key] = value
    return rec


class TestRun:
    def test_headline_record(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--alpha", "1.1", "--parity", "odd",
            "--t2", T2_95_TEXT, "--eta1", "0.8", "--eta2", "0.8",
        )
        assert code == 0
        rec = parse_record(out)
        assert float(rec["p_success"]) == pytest.approx(0.03, abs=0.01)
        assert float(rec["fidelity_star"]) == pytest.approx(0.89, abs=0.02)
        assert rec["target_parity"] == "even"

    def test_engine_both_reports_agreement(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--alpha", "0.8", "--engine", "both", "--eta1", "0.9",
        )
        assert code == 0
        rec = parse_record(out)
        assert rec["engines_agree"] == "true"
        assert float(rec["agreement_max_diff"]) < 1e-6

    @pytest.mark.parametrize("alpha", ["1.6", "2"])
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_engine_both_agrees_up_to_alpha_2(self, capsys, alpha, parity):
        code, out, _ = run_cli(
            capsys, "run", "--alpha", alpha, "--parity", parity, "--engine", "both",
        )
        assert code == 0
        rec = parse_record(out)
        assert rec["engines_agree"] == "true"
        assert int(rec["fock_dim"]) > 100

    def test_invalid_efficiency_names_field_and_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "run", "--eta1", "1.3")
        assert code == 2
        assert "eta1" in err

    @pytest.mark.parametrize(
        "argv,field",
        [
            (("--alpha", "nan"), "alpha"),
            (("--alpha", "inf"), "alpha"),
            (("--squeezing", "3", "--engine", "fock"), "squeezing"),
            (("--t1", "1.0"), "t1"),
            (("--alpha", "1e-200", "--parity", "odd"), "alpha"),
            (("--alpha", "1e-160", "--parity", "odd", "--engine", "fock"), "alpha"),
            (("--alpha", "4", "--engine", "fock"), "squeezing"),
            (("--alpha", "7"), "squeezing"),
            (("--alpha", "1e200", "--squeezing", "0"), "alpha"),
            (("--engine", "bogus"), "engine"),
            (("--parity", "bogus"), "parity"),
        ],
    )
    def test_out_of_domain_value_exits_2_with_one_line(self, capsys, argv, field):
        code, out, err = run_cli(capsys, "run", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert field in err

    @pytest.mark.parametrize("flag", ["--eta1", "--eta2"])
    def test_efficiency_below_floor_exits_2_before_running(self, capsys, flag):
        # below the floor the chi no-click integral's determinant overflows
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "run", "--alpha", "1", flag, "1e-160",
                                     "--engine", "chi")
        assert code == 2
        assert out == "" and not caught
        assert err == f"error: {flag[2:]} must lie in [1e-150, 1], got 1e-160\n"

    def test_efficiency_at_floor_runs_both_engines(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--alpha", "1", "--eta1", repr(EFFICIENCY_MIN),
                               "--engine", "both")
        assert code == 0
        assert parse_record(out)["engines_agree"] == "true"

    def test_non_finite_fidelity_exits_1_with_one_line(self, capsys):
        code, out, err = run_cli(capsys, "run", "--alpha", "6.5", "--squeezing", "-2")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not finite" in err

    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_closed_stdout_exits_141_without_a_traceback(self, unbuffered):
        # the reader of the pipe is gone before the child writes a line; a
        # buffered stdout meets the closed pipe only when it is flushed
        env = {key: value for key, value in os.environ.items()
               if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(SRC)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "catscamp", "run", "--alpha", "1"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120, env=env,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == ""

    def test_config_file_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "amp.cfg"
        cfg.write_text("alpha = 0.9\nparity = odd\neta1 = 0.8  # comment\n")
        code, out, _ = run_cli(
            capsys, "run", "--config", str(cfg), "--alpha", "1.2",
        )
        assert code == 0
        rec = parse_record(out)
        assert float(rec["alpha"]) == 1.2  # flag wins
        assert rec["parity"] == "odd"      # file beats default
        assert float(rec["eta1"]) == 0.8

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sqeezing = 0.4\n")
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2
        assert "sqeezing" in err and "1" in err


class TestSweep:
    def test_squeezing_figure_hits_known_db_values(self, capsys, tmp_path):
        out_path = tmp_path / "squeezing.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--figure", "3a", "--grid", "0.5:2.0:0.5",
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "alpha,s_opt,s_db,error"
        table = {float(l.split(",")[0]): float(l.split(",")[2]) for l in lines[1:]}
        assert table[1.0] == pytest.approx(6.3, abs=0.1)
        assert table[2.0] == pytest.approx(12.1, abs=0.2)

    def test_gain_figure_plateau(self, capsys, tmp_path):
        out_path = tmp_path / "gain.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--figure", "4a", "--grid", "0.75:1.25:0.25",
            "--t2", "0.99498743710662", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == ",".join(FIGURE_COLUMNS["gain"])
        for line in lines[1:]:
            gain = float(line.split(",")[6])
            assert abs(gain / math.sqrt(2.0) - 1.0) < 0.10

    def test_fock_gain_sweep_covers_alpha_to_2(self, capsys, tmp_path):
        out_path = tmp_path / "gain.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--figure", "gain", "--engine", "fock",
            "--grid", "0.2:2.0:0.1", "--out", str(out_path),
        )
        assert code == 0
        rows = out_path.read_text().splitlines()[1:]
        assert len(rows) == 19
        assert all(row.endswith(",") for row in rows)  # empty error column

    def test_empty_grid_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--figure", "3a", "--grid", "1:2:0",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "step" in err

    @pytest.mark.parametrize("argv", [
        ("sweep", "--figure", "gain", "--grid", "nan:1:0.1"),
        ("sweep", "--figure", "gain", "--grid", "0.2:inf:0.1"),
        ("sweep", "--figure", "gain", "--grid", "0.2:1:nan"),
        ("wigner", "--grid=-1:1:inf"),
    ])
    def test_non_finite_grid_exits_2_with_one_line(self, capsys, tmp_path, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "x"))
        assert code == 2
        assert caught == []
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "finite" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, what", [
        (("sweep", "--figure", "squeezing", "--grid", "0.1:1:1e-15"), "rows"),
        (("sweep", "--figure", "squeezing", "--grid", "0:1:1e-6"), "rows"),
        (("wigner", "--grid=-6:6:1e-15"), "map cells"),
        (("wigner", "--grid=-5:5:0.01"), "map cells"),
    ])
    def test_huge_grid_exits_2_before_building_it(self, capsys, tmp_path, argv, what):
        # counted, never allocated: 9e14 rows or 1.44e32 cells would not fit
        code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "x"))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f" {what}; at most 1e+06 are allowed" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_grid_bound_is_inclusive(self):
        assert _parse_grid("1:1000000:1").size == 10**6
        assert _parse_grid("1:1000:1", axes=2).size == 1000

    @pytest.mark.parametrize("flags,config,field", [
        (("--t2", "1.5"), "", "t2"),
        (("--eta1", "1.3"), "", "eta1"),
        (("--figure", "squeezing", "--truncation", "3"), "", "truncation"),
        ((), "parity = bogus\n", "parity"),
        ((), "engine = bogus\n", "engine"),
    ])
    def test_out_of_domain_parameter_exits_2_before_writing(
            self, capsys, tmp_path, flags, config, field):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("figure = gain\ngrid = 0.5:1:0.5\n" + config)
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg), *flags,
                                 "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert field in err
        assert not out_path.exists()

    def test_non_finite_fidelity_is_an_error_cell(self):
        _, rows = sweeps.sweep_rows(
            SweepSpec(figure="gain", alphas=np.array([1.0, 6.5]), squeezing=-2.0))
        assert rows[0][-1] == ""
        assert rows[1][0] == "6.5" and rows[1][1:-1] == ("",) * (len(rows[1]) - 2)
        assert "not finite" in rows[1][-1]

    def test_spec_takes_the_benchmark_keywords(self):
        spec = SweepSpec(figure="fidelity", alphas=np.array([0.2, 0.3]), parity="odd",
                         t2=math.sqrt(0.99), eta1=0.8, eta2=0.8, engine="chi")
        assert spec.config == PipelineConfig(parity="odd", t2=math.sqrt(0.99), eta1=0.8,
                                             eta2=0.8, engine="chi")

    def test_spec_without_parameters_carries_the_config_defaults(self):
        assert SweepSpec(figure="gain", alphas=[1.0]).config == PipelineConfig()

    def test_missing_figure_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--grid", "0.5:1:0.5", "--out", str(tmp_path / "x.csv")
        )
        assert code == 2
        assert "figure" in err

    def test_byte_identical_between_runs(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run_cli(
                capsys, "sweep", "--figure", "probability", "--parity", "odd",
                "--grid", "0.4:1.2:0.4", "--eta1", "0.8", "--eta2", "0.8",
                "--out", str(path),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_figure_alias_parity(self):
        assert normalize_figure("4b") == ("gain", "odd")
        assert normalize_figure("gain", "odd") == ("gain", "odd")
        assert normalize_figure("9") == ("ideal_gain", "even")
        with pytest.raises(ValueError):
            normalize_figure("negativity")

    def test_partial_failure_marks_error_column(self):
        # truncation too small for the requested squeezing: the row stays,
        # carrying the error message
        spec = SweepSpec(figure="probability", alphas=np.array([0.5, 1.0]),
                         squeezing=-2.0, engine="fock", truncation=None)
        stream = io.StringIO()
        sweeps.write_sweep(spec, stream)
        lines = stream.getvalue().splitlines()
        assert len(lines) == 3
        assert any("tail" in line or "truncation" in line for line in lines[1:])

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("not an engine error")

        monkeypatch.setattr(sweeps, "run_parity_swap", broken)
        spec = SweepSpec(figure="gain", alphas=np.array([0.5]))
        with pytest.raises(TypeError):
            sweeps.sweep_rows(spec)

    def test_probability_figure_skips_beta_search(self, monkeypatch):
        calls = []
        real = sweeps.run_parity_swap
        monkeypatch.setattr(sweeps, "run_parity_swap",
                            lambda cfg, **kw: calls.append(kw) or real(cfg, **kw))
        sweeps.sweep_rows(SweepSpec(figure="probability", alphas=np.array([0.5])))
        assert calls == [{"optimize": False}]

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "x.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--figure", "squeezing", "--grid", "0.5:1.0:0.5",
            "--out", str(out_path),
        )
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out_path) in err

    def test_twelve_significant_digits(self):
        assert sweeps.format_number(1.0 / 3.0) == "0.333333333333"
        assert sweeps.format_number(None) == ""
        assert sweeps.format_number(True) == "true"


class TestWignerCommand:
    def test_writes_grids_and_summary(self, capsys, tmp_path):
        base = tmp_path / "wig"
        code, out, _ = run_cli(
            capsys, "wigner", "--alpha", "1", "--parity", "odd",
            "--t2", T2_95_TEXT, "--eta1", "0.8", "--eta2", "0.8",
            "--grid=-6:6:0.1", "--out", str(base),
        )
        assert code == 0
        rec = parse_record("\n".join(out.splitlines()[2:]))
        assert 0.3 <= float(rec["min_ratio"]) <= 0.7
        out_csv = (tmp_path / "wig_output.csv").read_text().splitlines()
        assert out_csv[0] == "q,p,w"
        assert len(out_csv) == 1 + 121 * 121

    def test_ideal_grid_integrates_to_one(self, capsys, tmp_path):
        base = tmp_path / "wig"
        code, _, _ = run_cli(
            capsys, "wigner", "--alpha", "0.8", "--parity", "even",
            "--grid=-6:6:0.05", "--out", str(base),
        )
        assert code == 0
        rows = np.loadtxt(tmp_path / "wig_ideal.csv", delimiter=",", skiprows=1)
        n = int(round(math.sqrt(rows.shape[0])))
        w = rows[:, 2].reshape(n, n)
        total = np.trapezoid(np.trapezoid(w, dx=0.05, axis=1), dx=0.05)
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_zero_grid_step_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "wigner", "--grid=-1:1:0", "--out", str(tmp_path / "w"),
        )
        assert code == 2
        assert "step" in err

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        base = tmp_path / "missing" / "w"
        code, _, err = run_cli(
            capsys, "wigner", "--alpha", "0.5", "--grid=-1:1:1", "--out", str(base),
        )
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "missing" in err


class TestValidateCommand:
    def test_fresh_build_passes_with_known_discrepancies(self, capsys, tmp_path):
        out_json = tmp_path / "audit.json"
        code, out, _ = run_cli(capsys, "validate", "--out", str(out_json))
        assert code == 0
        assert "KNOWN" in out and "FAIL" not in out
        payload = json.loads(out_json.read_text())
        by_name = {entry["name"]: entry for entry in payload}
        assert by_name["noclick-closed-form"]["status"] == "known"
        assert by_name["subtracted-overlap-closed-form"]["status"] == "known"
        assert by_name["pipeline-engine-agreement"]["status"] == "pass"

    def test_unwritable_out_exits_2_before_the_audit(self, capsys, tmp_path, monkeypatch):
        def no_audit():
            raise AssertionError("the audit ran before the output was opened")

        monkeypatch.setattr(audit, "run_audit", no_audit)
        out_path = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, "validate", "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out_path) in err

    def test_runtime_needs_no_scipy(self):
        # scipy is a test dependency only: with its import blocked, validate,
        # a figure-9 row and the exact single-mode operators still run
        code = (
            "import contextlib, io, sys\n"
            "sys.modules['scipy'] = None\n"
            "import numpy as np\n"
            "from catscamp import cli, fock, sweeps\n"
            "from catscamp.states import cat_fock\n"
            "report = io.StringIO()\n"
            "with contextlib.redirect_stdout(report):\n"
            "    code = cli.main(['validate'])\n"
            "print(code, report.getvalue().count('PASS '), report.getvalue().count('KNOWN '))\n"
            "spec = sweeps.SweepSpec(figure='ideal_gain', alphas=np.array([1.0]))\n"
            "print(','.join(sweeps.sweep_rows(spec)[1][0]))\n"
            "cat = fock.squeeze_fock(cat_fock(1.0, 'odd', 60), -0.5)\n"
            "print(fock.chi_from_fock(cat, 0.3 + 0.2j))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=300, check=False)
        assert proc.returncode == 0, proc.stderr
        summary, row, chi = proc.stdout.splitlines()
        assert summary == "0 16 2"
        golden = (Path(__file__).parent / "golden" / "demo04" / "ideal_gain.csv").read_text()
        assert row in [line for line in golden.splitlines() if line.startswith("1,")]
        cat = fock.squeeze_fock(cat_fock(1.0, "odd", 60), -0.5)
        assert complex(chi) == fock.chi_from_fock(cat, 0.3 + 0.2j)

    def test_broken_convention_fixture_fails_lock(self):
        from catscamp.fock import beamsplitter_fock

        def sabotaged(state, t, r):
            return beamsplitter_fock(state, t, -r)  # flipped reflection sign

        check = audit._convention_lock(bs_apply=sabotaged)
        assert check.status == "fail"
