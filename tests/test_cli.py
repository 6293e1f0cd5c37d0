"""Command-line surface: argument handling, artifacts, exit codes."""

import json
import math
from types import SimpleNamespace

import pytest

from reachsmooth import cli
from reachsmooth.checks import CheckResult
from reachsmooth.errors import GeometryError
from tests.test_reach import dogbone_shape


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


def test_reach_command_gives_concave_profiles_a_closed_form(tmp_path, capsys):
    # the dogbone's fillets are clockwise arcs, written as a config
    segments = [{"type": "arc", "center": seg.center.tolist(),
                 "radius": seg.radius, "start_angle": seg.start_angle,
                 "end_angle": seg.start_angle + seg.sweep,
                 "orientation": "ccw" if seg.sweep > 0 else "cw"}
                for seg in dogbone_shape().segments]
    cfg = write_config(tmp_path, {"shape": {"kind": "cad_profile",
                                            "segments": segments}})
    assert cli.main(["reach", "--config", cfg, "--n", "600"]) == 0
    out = json.loads(capsys.readouterr().out)
    neck = math.sqrt(1.75) - 1.0
    assert out["closed_form_reach"] == pytest.approx(neck, rel=1e-12)
    assert out["measured_reach"] == pytest.approx(neck, rel=0.02)


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


def test_smooth_command_runs_a_small_stadium(tmp_path):
    # the catalog stadium scaled by 0.01: the deviation budget is
    # dimensionless, so the run is the catalog's, scaled
    cfg = write_config(tmp_path, {"shape": {"kind": "stadium", "r": 0.01,
                                            "l": 0.02}, "epsilon": 5e-4})
    out_dir = tmp_path / "run"
    assert cli.main(["smooth", "--config", cfg, "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["R_input"] == 0.01


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


def _report_of(tmp_path, capsys, config):
    """Smooth ``config``, then ``report`` it: the printed text and the
    report.json it read."""
    out_dir = tmp_path / "run"
    cli.main(["smooth", "--config", write_config(tmp_path, config),
              "--out", str(out_dir)])
    capsys.readouterr()
    assert cli.main(["report", "--out", str(out_dir)]) == 0
    return capsys.readouterr().out, json.loads((out_dir / "report.json").read_text())


def test_report_command_prints_fields(tmp_path, capsys):
    # the stadium's scan finds a pair below R_input, at a patch window
    text, report = _report_of(tmp_path, capsys, {
        "shape": {"kind": "stadium", "r": 1.0, "l": 2.0}, "epsilon": 0.05})
    assert "R_hat_measured" in text and "backend" not in text
    i, j = report["reach_argmin"]["indices"]
    assert f"reach_argmin         {i} -> {j} at params " in text
    # the circle has no patch, so no pair is scanned and R_input stands
    text, report = _report_of(tmp_path, capsys, {**CIRCLE, "epsilon": 0.3})
    assert report["reach_argmin"] is None
    assert report["R_hat_measured"] == report["R_input"] == 1.0
    assert report["scan_pairs"] == 0
    assert "reach_argmin         none (no scanned pair below R_input)" in text


def test_report_command_prints_a_flat_scan(tmp_path, capsys):
    # every scanned pair flat, or none below R_input: the scan kept no
    # argmin and the report says so
    (tmp_path / "report.json").write_text('{"reach_argmin": null}')
    assert cli.main(["report", "--out", str(tmp_path)]) == 0
    assert ("reach_argmin         none (no scanned pair below R_input)"
            in capsys.readouterr().out)


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


# the stadium r = 1, l = 2 as a chain of segments
STADIUM_SEGMENTS = [
    {"type": "line", "start": [-1.0, -1.0], "end": [1.0, -1.0]},
    {"type": "arc", "center": [1.0, 0.0], "radius": 1.0,
     "start_angle": -0.5 * math.pi, "end_angle": 0.5 * math.pi},
    {"type": "line", "start": [1.0, 1.0], "end": [-1.0, 1.0]},
    {"type": "arc", "center": [-1.0, 0.0], "radius": 1.0,
     "start_angle": 0.5 * math.pi, "end_angle": 1.5 * math.pi},
]


def _stadium_chain(index, **fields):
    segments = [dict(s) for s in STADIUM_SEGMENTS]
    segments[index].update(fields)
    return {"kind": "cad_profile", "segments": segments}


def _one_error_line(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


@pytest.mark.parametrize("shape, field", [
    (_stadium_chain(1, start_angle="abc"), "start_angle"),
    (_stadium_chain(0, start="xy"), "start"),
    ({"kind": "circle", "r": "1.5"}, "r"),     # a numeric string
    ({"kind": "circle", "r": True}, "r"),      # JSON booleans are not numbers
], ids=["angle_string", "point_string", "numeric_string", "bool"])
def test_malformed_shape_field_is_a_usage_error(tmp_path, capsys, shape, field):
    cfg = write_config(tmp_path, {"shape": shape})
    assert cli.main(["reach", "--config", cfg, "--n", "200"]) == 2
    assert field in _one_error_line(capsys)


def test_shape_fields_take_json_integers(tmp_path, capsys):
    chain = _stadium_chain(0, start=[-1, -1], end=[1, -1])
    for shape in ({"kind": "circle", "r": 1}, chain):
        cfg = write_config(tmp_path, {"shape": shape})
        assert cli.main(["reach", "--config", cfg, "--n", "200"]) == 0
        assert json.loads(capsys.readouterr().out)["closed_form_reach"] == 1.0


def test_verify_negative_seed_is_a_usage_error(tmp_path, capsys):
    assert cli.main(["verify", "--suite", "formulas", "--seed", "-1",
                     "--out", str(tmp_path / "v")]) == 2
    assert "seed" in _one_error_line(capsys)
    assert not (tmp_path / "v").exists()


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
    {"delta": 0.1},            # the schedule follows from epsilon alone
    {"rho": 1e-3},
    {"sigma_max": 0.002},
    {"reach": 1.0},
], ids=["string", "numeric_string", "bool", "null", "list", "misspelt", "unknown",
        "delta", "rho", "sigma_max", "reach"])
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
    # epsilon is the only number a run takes, and --epsilon overrides it
    seen = []

    def record(shape, eps):
        seen.append(eps)
        raise GeometryError("stop here")
    monkeypatch.setattr(cli, "smooth_manifold", record)
    cfg = write_config(tmp_path, {**CIRCLE, "epsilon": 1})
    out = str(tmp_path / "o")
    assert cli.main(["smooth", "--config", cfg, "--out", out]) == 1
    assert cli.main(["smooth", "--config", cfg, "--out", out,
                     "--epsilon", "0.2"]) == 1
    assert seen == [1.0, 0.2]
    with pytest.raises(SystemExit) as exc:
        cli.main(["smooth", "--config", cfg, "--out", out, "--rho", "1e-3"])
    assert exc.value.code == 2
    assert seen == [1.0, 0.2]
