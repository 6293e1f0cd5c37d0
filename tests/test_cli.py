"""Command-line surface: argument handling, artifacts, exit codes."""

import json
from types import SimpleNamespace

import pytest

from reachsmooth import cli
from reachsmooth.checks import CheckResult
from reachsmooth.errors import GeometryError


def write_config(tmp_path, payload, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


CIRCLE = {"shape": {"kind": "circle", "r": 1.0}}


def test_parser_covers_subcommands():
    parser = cli.build_parser()
    args = parser.parse_args(["reach", "--config", "c.json", "--n", "500"])
    assert args.command == "reach" and args.n == 500
    args = parser.parse_args(["verify", "--suite", "blend", "--out", "o"])
    assert args.suite == "blend"


def test_reach_command_prints_json(tmp_path, capsys):
    cfg = write_config(tmp_path, CIRCLE)
    assert cli.main(["reach", "--config", cfg, "--n", "400"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["measured_reach"] == pytest.approx(1.0, rel=1e-8)
    assert out["closed_form_reach"] == 1.0
    assert out["samples"] == 400 and out["pairs"] > 0


@pytest.mark.parametrize("config", [
    {"shapes": CIRCLE["shape"]},                       # misspelt key
    {**CIRCLE, "n": 50, "min_sep": "abc"},             # keys of the flags
], ids=["misspelt", "unknown"])
def test_reach_config_is_checked_before_the_scan(tmp_path, monkeypatch, capsys,
                                                 config):
    def never(*a, **k):
        raise AssertionError("scan ran on a bad config")
    monkeypatch.setattr(cli, "scan_curve_reach", never)
    cfg = write_config(tmp_path, config)
    assert cli.main(["reach", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in config if name != "shape")


def test_reach_config_with_flags(tmp_path, capsys):
    cfg = write_config(tmp_path, {"shape": {"kind": "stadium", "r": 1.0, "l": 2.0}})
    assert cli.main(["reach", "--config", cfg, "--n", "300",
                     "--min-sep", "0.1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["samples"] == 300 and out["min_sep"] == 0.1
    assert out["closed_form_reach"] == 1.0


def test_smooth_command_writes_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path, {**CIRCLE, "epsilon": 0.3})
    out_dir = tmp_path / "run"
    assert cli.main(["smooth", "--config", cfg, "--out", str(out_dir),
                     "--csv-n", "300"]) == 0
    for name in ("report.json", "curve_before.csv", "curve_after.csv",
                 "overlay.svg"):
        assert (out_dir / name).exists(), name
    report = json.loads((out_dir / "report.json").read_text())
    assert report["epsilon"] == 0.3
    assert report["artifacts"] == ["curve_before.csv", "curve_after.csv",
                                   "overlay.svg"]
    first_line = (out_dir / "curve_after.csv").read_text().splitlines()[0]
    assert first_line == "x,y,tx,ty"
    text = capsys.readouterr().out
    assert "patches" in text and "reach" in text


def test_smooth_command_is_reproducible(tmp_path):
    cfg = write_config(tmp_path, {**CIRCLE, "epsilon": 0.3})
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["smooth", "--config", cfg, "--out", str(d1)]) == 0
    assert cli.main(["smooth", "--config", cfg, "--out", str(d2)]) == 0
    for name in ("report.json", "curve_after.csv", "overlay.svg"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_smooth_epsilon_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, {**CIRCLE, "epsilon": 0.3})
    out_dir = tmp_path / "run"
    assert cli.main(["smooth", "--config", cfg, "--out", str(out_dir),
                     "--epsilon", "0.2"]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["epsilon"] == 0.2


def test_verify_command_green_suite(tmp_path, capsys):
    out_dir = tmp_path / "v"
    assert cli.main(["verify", "--suite", "formulas", "--out",
                     str(out_dir)]) == 0
    assert (out_dir / "checks.csv").exists()
    assert not (out_dir / "failures.json").exists()
    captured = capsys.readouterr()
    assert "0 failed" in captured.out
    assert "took" not in captured.out
    assert "suite formulas took " in captured.err


def test_verify_command_red_suite(tmp_path, monkeypatch, capsys):
    bad = CheckResult(name="broken", passed=False, measured=2.0, bound=1.0,
                      tolerance=0.0, slack=-1.0, grid=10, seed=7, instance="z")
    fake = SimpleNamespace(suite="formulas", seed=7, results=[bad],
                           n_failed=1, elapsed=0.0, passed=False,
                           timings=())
    monkeypatch.setattr(cli, "run_suite", lambda suite, seed: fake)
    out_dir = tmp_path / "v"
    assert cli.main(["verify", "--suite", "formulas", "--out",
                     str(out_dir)]) == 1
    assert (out_dir / "failures.json").exists()
    assert "FAIL broken" in capsys.readouterr().out


def test_report_command_prints_fields(tmp_path, capsys):
    cfg = write_config(tmp_path, {**CIRCLE, "epsilon": 0.3})
    out_dir = tmp_path / "run"
    cli.main(["smooth", "--config", cfg, "--out", str(out_dir)])
    capsys.readouterr()
    assert cli.main(["report", "--out", str(out_dir)]) == 0
    text = capsys.readouterr().out
    assert "R_hat_measured" in text and "backend" in text


def test_report_missing_file_is_usage_error(tmp_path):
    assert cli.main(["report", "--out", str(tmp_path / "nowhere")]) == 2


def test_bad_json_config(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert cli.main(["reach", "--config", str(p)]) == 2


def test_unknown_shape_kind(tmp_path):
    cfg = write_config(tmp_path, {"shape": {"kind": "heptagon"}})
    assert cli.main(["reach", "--config", cfg]) == 2


def test_missing_epsilon(tmp_path):
    cfg = write_config(tmp_path, CIRCLE)
    assert cli.main(["smooth", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2


def test_missing_shape_key(tmp_path):
    cfg = write_config(tmp_path, {"epsilon": 0.3})
    assert cli.main(["reach", "--config", cfg]) == 2


def test_unknown_suite_is_argparse_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "bogus", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_pipeline_failure_exit_code(tmp_path, monkeypatch):
    def boom(*a, **k):
        raise GeometryError("window is not a graph")
    monkeypatch.setattr(cli, "smooth_manifold", boom)
    cfg = write_config(tmp_path, {**CIRCLE, "epsilon": 0.3})
    assert cli.main(["smooth", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("extra", [
    {"delta": "abc"},          # a string, numeric or not
    {"rho": "0.001"},
    {"sigma_max": True},       # JSON booleans are not numbers
    {"reach": None},
    {"epsilon": [0.3]},
    {"sigma-max": 0.001},      # misspelt key
    {"options": {}},
], ids=["string", "numeric_string", "bool", "null", "list", "misspelt", "unknown"])
def test_smooth_config_is_checked_before_the_run(tmp_path, monkeypatch, capsys, extra):
    def never(*a, **k):
        raise AssertionError("pipeline ran on a bad config")
    monkeypatch.setattr(cli, "smooth_manifold", never)
    cfg = write_config(tmp_path, {**CIRCLE, "epsilon": 0.3, **extra})
    assert cli.main(["smooth", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
    name = next(iter(extra))
    assert name in capsys.readouterr().err


def test_smooth_csv_n_is_checked_before_the_run(tmp_path, monkeypatch, capsys):
    def never(*a, **k):
        raise AssertionError("pipeline ran with too few CSV samples")
    monkeypatch.setattr(cli, "smooth_manifold", never)
    cfg = write_config(tmp_path, {**CIRCLE, "epsilon": 0.3})
    assert cli.main(["smooth", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--csv-n", "7"]) == 2
    assert "--csv-n must be at least 8" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_smooth_config_numbers_reach_the_pipeline(tmp_path, monkeypatch):
    seen = {}

    def record(shape, eps, **kw):
        seen.update(kw, epsilon=eps)
        raise GeometryError("stop here")
    monkeypatch.setattr(cli, "smooth_manifold", record)
    cfg = write_config(tmp_path, {**CIRCLE, "epsilon": 1, "delta": 0.1,
                                  "rho": 1e-3, "sigma_max": 0.002, "reach": 1})
    assert cli.main(["smooth", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--rho", "2e-3"]) == 1
    assert seen == {"epsilon": 1.0, "delta": 0.1, "rho": 2e-3,
                    "sigma_max": 0.002, "reach": 1.0}
