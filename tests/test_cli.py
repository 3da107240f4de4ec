"""Command-line interface: schemas, exit codes, determinism, config files."""

import ast
import concurrent.futures
import importlib
import json
import math
import os
import subprocess
import sys

import pytest

import gfkernel
from gfkernel import cli
from gfkernel.cli import main, make_parser


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
        assert header == "k,a,lambda,x,re,im"
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

    def test_where_the_odd_series_cancels(self, capsys):
        # orders 11 and 13 at 2 sqrt(lambda x) = 244.9: the order-13 series
        # cancels from terms near 2^290 to -1.2e-19; m = -1/156 at a = 1
        mpmath = pytest.importorskip("mpmath")
        code, out = run_cli(["eval-kernel", "--k", "6", "--a", "1",
                             "--lambda", "100", "--x", "150"], capsys)
        assert code == 0
        header, row = out.strip().splitlines()
        got = float(dict(zip(header.split(","), row.split(",")))["re"])
        with mpmath.workdps(40):
            z = -(mpmath.mpf(2.0 * math.sqrt(15000.0)) / 2) ** 2
            ref = mpmath.hyp0f1(12, z) - mpmath.mpf(15000) / 156 * mpmath.hyp0f1(14, z)
        assert abs(got - ref) <= 1e-12 * abs(ref), (got, ref)


@pytest.mark.parametrize("args", [
    ["eval-kernel", "--k", "1", "--a", "1", "--lambda", "1", "--x", "nan"],
    ["eval-density", "--k", "1", "--a", "1", "--x", "1", "--y", "inf", "--z", "1"],
    ["verify-product", "--k", "1", "--a", "1", "--lambda", "nan", "--x", "1", "--y", "1"],
    ["translate", "--k", "0.5", "--a", "2", "--y", "1", "--z", "nan", "--profile", "gaussian"],
    ["hankel-check", "--eq", "1", "--mu", "0.4", "--nu", "0.9", "--x", "inf", "--y", "1", "--t", "1"],
    ["hankel-check", "--eq", "2", "--mu", "0.4", "--nu", "0.9", "--x", "1", "--y", "1", "--t", "inf"],
    ["legendre-check", "--identity", "P", "--mu", "0.5", "--nu", "inf"],
    ["legendre-check", "--identity", "P", "--mu", "0.5", "--nu", "nan"],
    ["legendre-check", "--identity", "Q", "--mu", "0.25", "--nu", "nan"],
])
def test_non_finite_input_is_invalid(args, capsys):
    assert main(args) == 2
    assert "must be finite" in capsys.readouterr().err


def test_numerical_failure_exits_3(capsys):
    # four tanh-sinh levels cannot meet a tolerance of 1e-300
    args = ["verify-product", "--k", "0.75", "--a", "1.3333333333333333", "--lambda", "0.7",
            "--x", "0.4", "--y", "1.2", "--max-levels", "4", "--abs-tol", "1e-300",
            "--rel-tol", "1e-300"]
    assert main(args) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("numerical failure:")


def test_density_at_extreme_scale_is_invalid(capsys):
    # |x|^(a/2) = 2.2e-167 for each side: 2xy leaves the normal double range
    args = ["eval-density", "--k", "0.75", "--a", "1.3333333333333333",
            "--x", "1e-250", "--y", "1e-250", "--z", "1e-250"]
    assert main(args) == 2
    assert "outside the scale" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["hankel-check", "--mu", "0.4", "--nu", "0.9", "--x", "1e200", "--y", "1e200",
      "--t", "0.7"], "outside the scale"),
    (["hankel-check", "--mu", "200", "--nu", "200.5", "--x", "10", "--y", "10", "--t", "0.7"],
     "overflows the double range"),
    (["eval-density", "--k", "0.75", "--a", "2", "--x", "1e-110", "--y", "1.2e-110",
      "--z", "1.1e-110"], "leaves the normal double range"),
    # eq1 at mu - 2nu - 3/2 >= 0: these exited 3 after summing Bessel cells
    (["hankel-check", "--eq", "1", "--mu", "1.7267050594247477", "--nu", "0.08508070769502696",
      "--x", "1.0629240436775829", "--y", "1.9678641048770247", "--t", "1.1639124055790049"],
     "the integral diverges"),
    (["hankel-check", "--eq", "1", "--mu", "1.2181747381655468", "--nu", "-0.19528300369520288",
      "--x", "0.8349056674763492", "--y", "1.5603674590168366", "--t", "0.9141797200167687"],
     "the integral diverges"),
    (["hankel-check", "--eq", "1", "--mu", "2.0", "--nu", "1e-6", "--x", "1.0", "--y", "1.2",
      "--t", "0.9"], "the integral diverges"),
], ids=["hankel-scale", "hankel-lhs", "density-underflow", "eq1-divergent-a", "eq1-divergent-b",
        "eq1-divergent-c"])
def test_extreme_arguments_are_invalid_input(args, message, capsys):
    # the first three used to print a traceback
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("invalid input:") and message in err


_SHAPES = [
    (["eval-kernel", "--k", "0.5", "--a", "2", "--lambda", "1.1", "--x", "0.7"],
     "k,a,lambda,x,re,im"),
    (["eval-density", "--k", "0.75", "--a", "1.3333333333333333", "--x", "1.0", "--y", "1.2",
      "--z", "0.9"],
     "k,a,x,y,z,re,im"),
    (["verify-product", "--k", "0.5", "--a", "2", "--lambda", "1.1", "--x", "0.7", "--y", "1.3"],
     "k,a,lambda,x,y,lhs_re,lhs_im,rhs_re,rhs_im,abs_res,rel_res,quad_err,wall_ms"),
    (["tv-sweep", "--k", "0.5", "--a", "2", "--x-min", "0.5", "--x-max", "2.0", "--x-count", "2",
      "--y-min", "0.5", "--y-count", "1", "--x-spacing", "linear"],
     "k,a,x,y,tv,quad_err,wall_ms"),
    (["hankel-check", "--eq", "2", "--mu", "0.4", "--nu", "0.9", "--x", "0.8", "--y", "1.1",
      "--t", "1.3"],
     "eq,mu,nu,x,y,t,lhs_re,lhs_im,rhs_re,rhs_im,abs_res,rel_res,quad_err,wall_ms"),
    (["legendre-check", "--identity", "P", "--mu", "0.8", "--nu", "1.3"],
     "identity,mu,nu,lhs_re,lhs_im,rhs_re,rhs_im,abs_res,rel_res,quad_err,wall_ms"),
    (["translate", "--k", "0.5", "--a", "2", "--y", "1.0", "--z", "0.5", "--profile", "bump"],
     "k,a,y,z,profile,width,re,im,quad_err"),
]


@pytest.mark.parametrize("args, header", _SHAPES, ids=[a[0] for a, _ in _SHAPES])
def test_output_columns(args, header, capsys):
    # the CSV header and the JSON keys both come from the row dicts, in order
    code, out = run_cli(args, capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == header
    assert all(len(line.split(",")) == len(header.split(",")) for line in lines[1:])
    code, out = run_cli(args + ["--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == len(lines) - 1
    assert all(list(row) == header.split(",") for row in payload)


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

    def test_overflowing_density_constant_is_invalid_input(self, capsys):
        # mu = 172: Gamma(mu + 1) overflows, which used to escape as an untyped
        # OverflowError (a traceback, exit 1)
        code = main(["verify-product", "--k", "86.5", "--a", "1", "--lambda", "0.7",
                     "--x", "0.8", "--y", "1.1"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("invalid input:") and "density constant" in err


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

    @pytest.mark.parametrize("text, message", [(b'{"k": 0.5, "a": ', "Expecting value"),
                                               (b'\xff\xfe{"k": 0.5}', "can't decode"),
                                               (b'[1, 2]', "config file must hold a JSON object")],
                             ids=["truncated", "not-utf8", "not-an-object"])
    def test_malformed_config_is_invalid_input(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "run.json"
        cfg.write_bytes(text)
        assert main(["eval-kernel", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("invalid input:") and message in err

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

    def test_seed_is_an_option_of_selftest_only(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval-kernel", "--k", "0.5", "--a", "2", "--lambda", "1", "--x", "1",
                  "--seed", "3"])
        assert exc.value.code == 2
        capsys.readouterr()
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"k": 0.5, "a": 2.0, "lam": 1.1, "x": 0.7, "y": 1.3,
                                   "seed": 3}))
        assert main(["verify-product", "--config", str(cfg)]) == 2
        assert "unknown config key 'seed'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, cfg, key", [
        ("hankel-check", {"mu": 0.4, "nu": 0.9, "x": 0.8, "y": 1.1, "t": 1.3, "eq": 3}, "eq"),
        ("eval-kernel", {"k": 0.5, "a": 2.0, "lam": 1.0, "x": 1.0, "format": "xml"}, "format"),
        ("eval-kernel", {"k": "0.5", "a": 2.0, "lam": 1.0, "x": 1.0}, "k"),
        ("tv-sweep", {"k": 0.5, "a": 2.0, "x_count": 2.7, "y_count": 1}, "x_count"),
    ], ids=["choice", "format", "string-for-float", "float-for-int"])
    def test_config_values_pass_the_flags_checks(self, tmp_path, capsys, command, cfg, key):
        # a config value is checked against its flag's type and choices
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("invalid input:") and repr(key) in err

    @pytest.mark.parametrize("command, option, value", [
        ("legendre-check", "identity", "R"), ("translate", "profile", "circle")])
    def test_a_value_outside_the_choices_exits_2(self, tmp_path, capsys, command, option, value):
        # refused by the parser as a flag and by the config check from a
        # file, before the command runs
        required = {"legendre-check": {"mu": 0.5, "nu": 0.5},
                    "translate": {"k": 0.5, "a": 2.0, "y": 1.0, "z": 0.5}}[command]
        flags = [f for key, val in required.items() for f in (f"--{key}", str(val))]
        with pytest.raises(SystemExit) as exc:
            main([command, f"--{option}", value] + flags)
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        path = tmp_path / "run.json"
        path.write_text(json.dumps(dict(required, **{option: value})))
        assert main([command, "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("invalid input:") and repr(option) in err

    def test_config_keys_may_use_flag_spelling(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"identity": "P", "mu": 0.5, "nu": 0.5, "rel-tol": 1e-8}))
        code, _ = run_cli(["legendre-check", "--config", str(cfg)], capsys)
        assert code == 0


def _options(parser):
    """{command: [option dests]} of the parser's subcommands, --help left out."""
    sub = next(a for a in parser._actions if a.dest == "command")
    return {name: [a.dest for a in sp._actions if a.dest != "help"]
            for name, sp in sub.choices.items()}


class TestQuadratureFlags:
    def test_only_the_integrating_commands_take_them(self):
        opts = _options(make_parser())
        quad = {"abs_tol", "rel_tol", "max_levels"}
        assert {name for name, dests in opts.items() if quad <= set(dests)} == {
            "verify-product", "tv-sweep", "hankel-check", "legendre-check", "translate", "selftest"}
        assert not any(quad & set(opts[name]) for name in ("eval-kernel", "eval-density"))
        assert sum(len(dests) for dests in opts.values()) == 86

    def test_eval_kernel_refuses_a_tolerance_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval-kernel", "--k", "0.5", "--a", "2", "--lambda", "1", "--x", "1",
                  "--abs-tol", "1e-3"])
        assert exc.value.code == 2
        assert "--abs-tol" in capsys.readouterr().err

    def test_eval_density_refuses_a_tolerance_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"k": 0.75, "a": 1.3333333333333333, "x": 1.0, "y": 1.2,
                                   "z": 0.9, "rel_tol": 1e-8}))
        assert main(["eval-density", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "unknown config key 'rel_tol'" in err


def _exit(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return (exc.value.code,) + capsys.readouterr()


class TestParserBuild:
    """A known command's call is parsed by its own subparser; every help
    text and parser error is still the full parser's."""

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["bogus", "--k", "1"], ["eval-kernel", "--help"], ["tv-sweep", "-h"],
        ["eval-kernel", "--k", "one"], ["translate", "--profile", "box"],
        ["eval-kernel", "--k", "1", "extra"], ["verify-product", "--seed", "3"],
    ])
    def test_messages_are_the_full_parsers(self, argv, capsys):
        assert _exit(main, argv, capsys) == _exit(make_parser().parse_args, argv, capsys)

    def test_a_known_command_builds_its_subparser_alone(self, monkeypatch, capsys):
        built = []
        full = cli.make_parser

        def counted(commands=tuple(cli._COMMANDS)):
            built.append(list(commands))
            return full(commands)

        monkeypatch.setattr(cli, "make_parser", counted)
        code, _ = run_cli(["eval-kernel", "--k", "0", "--a", "2", "--lambda", "1", "--x", "1"],
                          capsys)
        assert code == 0 and built == [["eval-kernel"]]


class TestSweepAndFormats:
    def test_tv_sweep_sorted_rows(self, capsys):
        code, out = run_cli(["tv-sweep", "--k", "0.5", "--a", "2",
                             "--x-min", "0.5", "--x-max", "2.0", "--x-count", "3",
                             "--y-min", "0.5", "--y-max", "2.0", "--y-count", "2",
                             "--x-spacing", "linear", "--y-spacing", "linear"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,a,x,y,tv,quad_err,wall_ms"
        assert len(lines) == 7
        coords = [tuple(map(float, ln.split(",")[2:4])) for ln in lines[1:]]
        assert coords == sorted(coords)

    def test_tv_sweep_parallel_matches_serial(self, monkeypatch, capsys):
        # one point per worker, so that this 4-point grid runs two real workers
        monkeypatch.setattr(cli, "POINTS_PER_WORKER", 1)
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

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_tv_sweep_needs_a_worker(self, jobs, capsys):
        code = main(["tv-sweep", "--k", "0.5", "--a", "2", "--x-count", "1", "--y-count", "1",
                     "--jobs", jobs])
        assert code == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The max_workers of each pool tv-sweep asks for; the pool runs in
        this process, and each point's row is a stub, as the cap alone is
        under test."""
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(cli, "_tv_point", lambda t: dict(x=t[2], y=t[3], tv=1.0))
        return asked

    @staticmethod
    def _sweep(points, capsys):
        code, out = run_cli(["tv-sweep", "--k", "0.5", "--a", "2", "--x-min", "0.5",
                             "--x-max", "2.0", "--x-count", str(points), "--y-min", "0.5",
                             "--y-count", "1", "--jobs", "64"], capsys)
        assert code == 0 and len(out.splitlines()) == points + 1

    @pytest.mark.parametrize("cpus, workers", [(8, [2]), (1, []), (None, [])])
    def test_tv_sweep_pool_is_capped(self, cpus, workers, pool_sizes, monkeypatch, capsys):
        # at most one worker per CPU; one worker runs in this process
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        self._sweep(2 * cli.POINTS_PER_WORKER, capsys)
        assert pool_sizes == workers

    @pytest.mark.parametrize("points, workers", [
        (2, []), (cli.POINTS_PER_WORKER - 1, []), (2 * cli.POINTS_PER_WORKER - 1, []),
        (2 * cli.POINTS_PER_WORKER + 1, [2]), (3 * cli.POINTS_PER_WORKER, [3]),
        (9 * cli.POINTS_PER_WORKER, [8]),
    ])
    def test_tv_sweep_pool_needs_enough_points(self, points, workers, pool_sizes, monkeypatch,
                                               capsys):
        # at most one worker per POINTS_PER_WORKER grid points, even with
        # --jobs 64 and 8 CPUs: a smaller grid runs in this process
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        self._sweep(points, capsys)
        assert pool_sizes == workers

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
        assert out.startswith("k,a,y,z,profile,width,re,im,quad_err")
        # the summed error estimate of the plan's pieces, not a constant 0
        # (at a = 2 the Gauss-Jacobi rules may agree exactly)
        code, out = run_cli(["translate", "--k", "0.75", "--a", "1.3333333333333333",
                             "--y", "0.8", "--z", "-1.3"], capsys)
        header, row = out.strip().splitlines()
        assert 0.0 < float(dict(zip(header.split(","), row.split(",")))["quad_err"]) < 1e-9

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

    @pytest.mark.parametrize("z", [1.0, -1.0])
    def test_translate_at_equal_magnitudes_matches_its_neighbour(self, z, capsys):
        # mu = -0.45, where the value used to be refused as invalid input
        values = []
        for zz in (z, z * (1.0 + 1e-10)):
            code, out = run_cli(["translate", "--k", "0.2", "--a", "1.3333333333333333",
                                 "--y", "1", "--z", repr(zz), "--profile", "bump"], capsys)
            assert code == 0
            header, row = out.strip().splitlines()
            vals = dict(zip(header.split(","), row.split(",")))
            values.append(complex(float(vals["re"]), float(vals["im"])))
        assert abs(values[0] - values[1]) <= 1e-9 * abs(values[0])


# numpy is not a runtime dependency; the process pool, the acceptance suite
# and json are imported by the commands and options that use them, and the
# records are named tuples, which need no dataclasses (nor the inspect it
# imports)
_NEVER_AT_START = ("numpy", "concurrent.futures", "gfkernel.selfcheck", "dataclasses",
                   "inspect", "json")
_CORE = {"gfkernel", "gfkernel._backend", "gfkernel._core", "gfkernel._corepy", "gfkernel.errors"}
_KERNEL = _CORE | {"gfkernel.cli", "gfkernel.genkernel", "gfkernel.macdonald"}
_INTEGRAL = _KERNEL | {"gfkernel.harness", "gfkernel.quadrature", "gfkernel._gauss_jacobi"}
# one valid call of each command but selftest, and the gfkernel modules it
# may load; tv-sweep's is the cli benchmark's, a 3x3 grid with --jobs 2,
# which runs in its own process
_COMMAND_LOADS = [
    (["eval-kernel", "--k", "0.5", "--a", "2", "--lambda", "1.1", "--x", "0.7"], _KERNEL),
    (["eval-density", "--k", "0.75", "--a", "2", "--x", "1", "--y", "1.2", "--z", "1.1"],
     _KERNEL),
    (["verify-product", "--k", "0.5", "--a", "2", "--lambda", "1.1", "--x", "0.7", "--y", "1.3"],
     _INTEGRAL),
    (["tv-sweep", "--k", "0.75", "--a", "1.3333333333333333", "--x-min", "0.35", "--x-max", "2.8",
      "--x-count", "3", "--y-min", "0.35", "--y-max", "2.8", "--y-count", "3", "--jobs", "2"],
     _INTEGRAL),
    (["hankel-check", "--eq", "1", "--mu", "0.4", "--nu", "0.9", "--x", "0.8", "--y", "1.1",
      "--t", "1.3"], _INTEGRAL),
    (["legendre-check", "--identity", "P", "--mu", "0.5", "--nu", "0.5"], _INTEGRAL),
    (["translate", "--k", "0.75", "--a", "1.3333333333333333", "--y", "0.8", "--z", "-1.3"],
     _INTEGRAL),
]


def _loaded_after(code: str) -> set:
    """The gfkernel modules and the _NEVER_AT_START names in sys.modules
    after code runs in a fresh interpreter."""
    code += ("; import sys; print(sorted(m for m in sys.modules "
             f"if m.startswith('gfkernel') or m in {_NEVER_AT_START!r}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    return set(ast.literal_eval(proc.stdout))


def test_import_loads_only_what_every_command_needs():
    assert _loaded_after("import gfkernel") <= _CORE
    assert _loaded_after("import gfkernel.cli") <= _KERNEL
    assert {args[0] for args, _ in _COMMAND_LOADS} == set(cli._COMMANDS) - {"selftest"}
    for args, may_load in _COMMAND_LOADS:
        loaded = _loaded_after(f"import os; from gfkernel import cli; "
                               f"assert cli.main({args + ['--out', os.devnull]!r}) == 0")
        assert loaded <= may_load, (args[0], sorted(loaded - may_load))


class TestPackageSurface:
    """``import gfkernel`` imports each public name's module on first use."""

    HOMES = [("backend_name", "_backend"), ("Params", "genkernel"), ("m_const", "genkernel"),
             ("b_kernel", "genkernel"), ("delta_density", "genkernel"),
             ("MacdonaldOrders", "macdonald"), ("Region", "macdonald"),
             ("classify", "macdonald"), ("r_kernel", "macdonald"),
             ("r_kernel_gegenbauer", "macdonald"), ("QuadratureSpec", "quadrature"),
             ("IntegralResult", "quadrature"), ("integrate_singular_band", "quadrature"),
             ("integrate_power_tail", "quadrature"),
             ("integrate_bessel_oscillatory", "quadrature")]

    def test_all_lists_the_public_names_in_order(self):
        assert gfkernel.__all__ == [name for name, _ in self.HOMES] + ["__version__"]

    @pytest.mark.parametrize("name, home", HOMES)
    def test_each_name_is_its_home_modules(self, name, home):
        assert getattr(gfkernel, name) is getattr(importlib.import_module(f"gfkernel.{home}"),
                                                   name)

    def test_dir_and_star_import_give_every_name(self):
        assert "__all__" in dir(gfkernel) and set(gfkernel.__all__) <= set(dir(gfkernel))
        namespace = {}
        exec("from gfkernel import *", namespace)
        assert all(namespace[name] is getattr(gfkernel, name) for name in gfkernel.__all__)

    def test_an_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="module 'gfkernel' has no attribute 'kernel'"):
            gfkernel.kernel


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
