"""Command-line interface: schemas, exit codes, determinism, config files."""

import json
import math
import subprocess
import sys

import pytest

from gfkernel.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestEvalKernel:
    def test_plane_wave_row(self, capsys):
        code, out = run_cli(["eval-kernel", "--k", "0", "--a", "2",
                             "--lambda", "2", "--x", "3"], capsys)
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "k,a,lambda,x,re,im,quad_error"
        vals = dict(zip(header.split(","), row.split(",")))
        assert abs(float(vals["re"]) - math.cos(6.0)) <= 1e-12
        assert abs(float(vals["im"]) + math.sin(6.0)) <= 1e-12

    def test_unit_at_lambda_zero(self, capsys):
        code, out = run_cli(["eval-kernel", "--k", "1", "--a", "2",
                             "--lambda", "0", "--x", "5"], capsys)
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[4]) == 1.0 and float(row[5]) == 0.0

    def test_missing_option(self, capsys):
        code, _ = run_cli(["eval-kernel", "--k", "1", "--a", "2", "--x", "5"], capsys)
        assert code == 2


@pytest.mark.parametrize("args", [
    ["eval-kernel", "--k", "1", "--a", "1", "--lambda", "1", "--x", "nan"],
    ["eval-density", "--k", "1", "--a", "1", "--x", "1", "--y", "inf", "--z", "1"],
    ["verify-product", "--k", "1", "--a", "1", "--lambda", "nan", "--x", "1", "--y", "1"],
    ["translate", "--k", "0.5", "--a", "2", "--y", "1", "--z", "nan", "--profile", "gaussian"],
    ["hankel-check", "--eq", "1", "--mu", "0.4", "--nu", "0.9", "--x", "inf", "--y", "1", "--t", "1"],
    ["hankel-check", "--eq", "2", "--mu", "0.4", "--nu", "0.9", "--x", "1", "--y", "1", "--t", "inf"],
])
def test_non_finite_input_is_invalid(args, capsys):
    assert main(args) == 2
    assert "must be finite" in capsys.readouterr().err


class TestVerifyProduct:
    def test_passing_point(self, capsys):
        code, out = run_cli(["verify-product", "--k", "0.5", "--a", "2",
                             "--lambda", "1.1", "--x", "0.7", "--y", "1.3"], capsys)
        assert code == 0
        header, row = out.strip().splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        assert float(vals["rel_res"]) <= 1e-6

    def test_invalid_params_named_diagnostic(self, capsys):
        code = main(["verify-product", "--k", "0", "--a", "2",
                     "--lambda", "1.0", "--x", "0.7", "--y", "1.3"])
        err = capsys.readouterr().err
        assert code == 2
        assert "mu=(2k-1)/a must exceed -1/2" in err


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["verify-product", "--k", "0.75", "--a", "1.3333333333333333",
                "--lambda", "0.9", "--x", "0.8", "--y", "1.1"]
        f1 = tmp_path / "a.csv"
        f2 = tmp_path / "b.csv"
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        b1 = f1.read_bytes()
        b2 = f2.read_bytes()
        # the wall_ms column is timing, everything else must match exactly
        rows1 = [r.split(",")[:-1] for r in b1.decode().splitlines()]
        rows2 = [r.split(",")[:-1] for r in b2.decode().splitlines()]
        assert rows1 == rows2

    def test_eval_outputs_fully_identical(self, tmp_path):
        args = ["eval-density", "--k", "0.75", "--a", "1.3333333333333333",
                "--x", "1.0", "--y", "1.2", "--z", "0.9"]
        f1 = tmp_path / "a.csv"
        f2 = tmp_path / "b.csv"
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()


class TestConfigFile:
    def test_config_supplies_options(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"k": 0.5, "a": 2.0, "lam": 1.1, "x": 0.7, "y": 1.3}))
        code, out = run_cli(["verify-product", "--config", str(cfg)], capsys)
        assert code == 0
        assert out.startswith("k,a,lambda,x,y,")

    def test_flags_win_over_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"k": 0.5, "a": 2.0, "lam": 0.0, "x": 9.9}))
        code, out = run_cli(["eval-kernel", "--config", str(cfg), "--x", "5"], capsys)
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[3]) == 5.0

    def test_bad_config(self, capsys):
        code = main(["eval-kernel", "--config", "/nonexistent.json"])
        assert code == 2

    def test_unknown_config_key_is_invalid_input(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"k": 0.5, "a": 2.0, "lam": 1.1, "x": 0.7, "y": 1.3,
                                   "reltol": 1e-3}))
        code = main(["verify-product", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("invalid input:") and "'reltol'" in err

    def test_config_keys_may_use_flag_spelling(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"k": 0.5, "a": 2.0, "lam": 0.0, "x": 1.0, "rel-tol": 1e-8}))
        code, _ = run_cli(["eval-kernel", "--config", str(cfg)], capsys)
        assert code == 0


class TestSweepAndFormats:
    def test_tv_sweep_sorted_rows(self, capsys):
        code, out = run_cli(["tv-sweep", "--k", "0.5", "--a", "2",
                             "--x-min", "0.5", "--x-max", "2.0", "--x-count", "3",
                             "--y-min", "0.5", "--y-max", "2.0", "--y-count", "2",
                             "--x-spacing", "linear", "--y-spacing", "linear"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,a,x,y,tv,quad_err,trunc_bound,wall_ms"
        assert len(lines) == 7
        coords = [tuple(map(float, ln.split(",")[2:4])) for ln in lines[1:]]
        assert coords == sorted(coords)

    def test_tv_sweep_parallel_matches_serial(self, capsys):
        args = ["tv-sweep", "--k", "0.5", "--a", "2",
                "--x-min", "0.5", "--x-max", "2.0", "--x-count", "2",
                "--y-min", "0.5", "--y-max", "2.0", "--y-count", "2",
                "--x-spacing", "linear", "--y-spacing", "linear"]
        code, serial = run_cli(args, capsys)
        assert code == 0
        code, par = run_cli(args + ["--jobs", "2"], capsys)
        assert code == 0
        strip = lambda text: [r.rsplit(",", 1)[0] for r in text.splitlines()]
        assert strip(serial) == strip(par)

    def test_json_format(self, capsys):
        code, out = run_cli(["eval-kernel", "--k", "0.5", "--a", "2",
                             "--lambda", "1.0", "--x", "1.0", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert isinstance(payload, list) and set(payload[0]) >= {"re", "im"}


class TestOtherCommands:
    def test_hankel_check(self, capsys):
        code, out = run_cli(["hankel-check", "--eq", "1", "--mu", "0.4", "--nu", "0.9",
                             "--x", "0.8", "--y", "1.1", "--t", "1.3"], capsys)
        assert code == 0
        vals = out.strip().splitlines()[1].split(",")
        assert float(vals[11]) <= 1e-5  # rel_res column

    def test_legendre_check_q(self, capsys):
        code, out = run_cli(["legendre-check", "--identity", "Q",
                             "--mu", "0.25", "--nu", "1.25"], capsys)
        assert code == 0

    def test_legendre_check_gate_is_invalid_input(self, capsys):
        code = main(["legendre-check", "--identity", "Q", "--mu", "1.2", "--nu", "0.6"])
        assert code == 2

    def test_translate(self, capsys):
        code, out = run_cli(["translate", "--k", "0.5", "--a", "2", "--y", "1.0",
                             "--z", "0.5", "--profile", "gaussian", "--width", "1"], capsys)
        assert code == 0
        assert out.startswith("k,a,y,z,profile,width,re,im,quad_error")

    def test_translate_at_small_a(self, capsys):
        # 2/a = 2.5: Xi^(2/a) underflows at the gap rule's outermost nodes
        code, out = run_cli(["translate", "--k", "0.62", "--a", "0.8", "--y", "0.7",
                             "--z", "1.3"], capsys)
        assert code == 0
        header, row = out.strip().splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        assert math.isfinite(float(vals["re"])) and float(vals["im"]) == 0.0

    @pytest.mark.parametrize("z", ["1", "-1"])
    def test_translate_at_equal_magnitudes_prints_a_value(self, z, capsys):
        code, out = run_cli(["translate", "--k", "0.75", "--a", "1.3333333333333333",
                             "--y", "1", "--z", z, "--profile", "bump"], capsys)
        assert code == 0
        header, row = out.strip().splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        assert float(vals["re"]) > 0.0 and float(vals["im"]) == 0.0

    @pytest.mark.parametrize("z", ["1", "-1"])
    def test_translate_at_equal_magnitudes_is_invalid_input(self, z, capsys):
        # mu = -0.45: the rule still reaches the nodes where the band's edge
        # powers underflow
        code = main(["translate", "--k", "0.2", "--a", "1.3333333333333333",
                     "--y", "1", "--z", z, "--profile", "bump"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("invalid input: ") and "Traceback" not in err


def test_import_loads_only_what_every_command_needs():
    # numpy is not a runtime dependency; the process pool and the acceptance
    # suite are imported by the commands that use them
    code = ("import sys, gfkernel.cli; print(sorted(m for m in "
            "('numpy', 'concurrent.futures', 'gfkernel.selfcheck') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "[]"


def test_selftest_reports_the_suite_and_spot_checks(monkeypatch, tmp_path, capsys):
    from gfkernel import selfcheck

    fake = [selfcheck.CriterionResult("c01", "stub", True, "ok", 0.5)]
    monkeypatch.setattr(selfcheck, "run_all", lambda: fake)
    out = tmp_path / "suite.csv"
    assert main(["selftest", "--seed", "3", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert 1 <= printed.count("[PASS] spot product") <= 3 and "FAIL" not in printed
    assert out.read_text() == "cid,passed,seconds,detail\nc01,1,0.5,ok\n"


def test_console_entrypoint_runs():
    proc = subprocess.run([sys.executable, "-m", "gfkernel.cli", "eval-kernel",
                           "--k", "0", "--a", "2", "--lambda", "1", "--x", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("k,a,lambda,x,")
