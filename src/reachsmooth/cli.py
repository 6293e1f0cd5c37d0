"""Command-line front end.

Four subcommands:

``reach``
    Scan a shape and print its measured and closed-form reach.
``smooth``
    Run the pipeline and write report.json, curve_before.csv,
    curve_after.csv, and overlay.svg into the output directory.
``verify``
    Run a verification suite and write checks.csv (plus failures.json
    when something fails); the seconds of each suite go to stderr.
``report``
    Pretty-print a previously written report.json.

Configs are plain JSON; command-line flags override config values.  A
``reach`` config holds only ``shape``.  A ``smooth`` config holds
``shape`` and the numbers ``epsilon``, ``delta``, ``rho``, ``sigma_max``
and ``reach``.  Any other key is refused.
Artifacts carry no timestamps or machine identifiers, so identical
inputs produce byte-identical outputs; wall-clock timing goes to
stderr.  Exit codes: 0 success, 1 pipeline or verification failure,
2 malformed configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from ._util import as_float, fmt17, json_dumps_stable
from .checks import SUITES, run_suite, write_checks_csv, write_failures_json
from .curves import MIN_SAMPLES, ClosedCurve, make_shape, sample_manifold
from .errors import ConvergenceError, GeometryError, InvalidInputError
from .reach import analytic_reach, scan_curve_reach
from .smoothing import smooth_manifold

__all__ = ["main", "build_parser"]


def build_parser():
    p = argparse.ArgumentParser(
        prog="reachsmooth",
        description="Smooth closed plane curves with a certified reach budget.")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("reach", help="scan the reach of a shape")
    pr.add_argument("--config", required=True, help="JSON shape config")
    pr.add_argument("--n", type=int, default=2000, help="sample count")
    pr.add_argument("--min-sep", type=float, default=None,
                    help="pair separation cutoff (default: two spacings)")

    ps = sub.add_parser("smooth", help="run the smoothing pipeline")
    ps.add_argument("--config", required=True, help="JSON run config")
    ps.add_argument("--out", required=True, help="output directory")
    ps.add_argument("--epsilon", type=float, default=None)
    ps.add_argument("--delta", type=float, default=None)
    ps.add_argument("--rho", type=float, default=None)
    ps.add_argument("--sigma-max", type=float, default=None)
    ps.add_argument("--csv-n", type=int, default=2000,
                    help="samples per curve CSV")

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", default="all", choices=list(SUITES))
    pv.add_argument("--seed", type=int, default=7)
    pv.add_argument("--out", required=True, help="output directory")

    pp = sub.add_parser("report", help="print a stored report")
    pp.add_argument("--out", required=True,
                    help="directory holding report.json")
    return p


def _load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InvalidInputError("config must be a JSON object")
    return cfg


_SMOOTH_NUMBERS = ("epsilon", "delta", "rho", "sigma_max", "reach")


def _refuse_unknown_keys(cfg, allowed):
    extra = sorted(set(cfg) - set(allowed))
    if extra:
        raise InvalidInputError(
            f"unknown config keys {extra}; allowed: " + ", ".join(allowed))


def _smooth_settings(cfg):
    """The numbers of a ``smooth`` config; unknown keys and non-numbers raise."""
    _refuse_unknown_keys(cfg, ("shape", *_SMOOTH_NUMBERS))
    out = {}
    for name in _SMOOTH_NUMBERS:
        if name in cfg:
            val = cfg[name]
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                raise InvalidInputError(
                    f"config {name!r} must be a number, got {val!r}")
            out[name] = as_float(val, name)
    return out


def _config_shape(cfg):
    if "shape" not in cfg:
        raise InvalidInputError('config needs a "shape" object')
    return make_shape(cfg["shape"])


def _write_curve_csv(path, sample):
    lines = ["x,y,tx,ty"]
    for p, t in zip(sample.points, sample.tangents):
        lines.append(",".join(fmt17(v) for v in (p[0], p[1], t[0], t[1])))
    Path(path).write_text("\n".join(lines) + "\n")


def _svg_coords(pts, lo, span_y):
    # svg y grows downward; reflect inside the data box
    return " ".join(
        f"{format(x - lo[0], '.8g')},{format(span_y - (y - lo[1]), '.8g')}"
        for x, y in pts)


def _write_overlay_svg(path, before, after, centers):
    both = np.vstack([before, after])
    lo = both.min(axis=0)
    hi = both.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-9))
    pad = 0.05 * span
    width = hi[0] - lo[0]
    height = hi[1] - lo[1]

    def thin(pts, cap=4000):
        stride = max(1, int(math.ceil(pts.shape[0] / cap)))
        out = pts[::stride]
        if not np.array_equal(out[-1], pts[-1]):
            out = np.vstack([out, pts[-1]])
        return out

    sw = 0.004 * span
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{format(-pad, ".8g")} {format(-pad, ".8g")} '
        f'{format(width + 2 * pad, ".8g")} {format(height + 2 * pad, ".8g")}">',
        f'<polyline fill="none" stroke="#9aa0a6" stroke-width="{format(sw, ".8g")}" '
        f'points="{_svg_coords(thin(before), lo, height)}"/>',
        f'<polyline fill="none" stroke="#1a73e8" stroke-width="{format(0.7 * sw, ".8g")}" '
        f'points="{_svg_coords(thin(after), lo, height)}"/>',
    ]
    if centers is not None and len(centers):
        cs = thin(np.asarray(centers, dtype=float), cap=512)
        r = 0.006 * span
        for cx, cy in cs:
            parts.append(
                f'<circle cx="{format(cx - lo[0], ".8g")}" '
                f'cy="{format(height - (cy - lo[1]), ".8g")}" '
                f'r="{format(r, ".8g")}" fill="none" stroke="#d93025" '
                f'stroke-width="{format(0.5 * sw, ".8g")}"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def _cmd_reach(args):
    cfg = _load_config(args.config)
    _refuse_unknown_keys(cfg, ("shape",))
    shape = _config_shape(cfg)
    t0 = time.perf_counter()
    est, sample = scan_curve_reach(shape, n=args.n, min_sep=args.min_sep)
    elapsed = time.perf_counter() - t0
    try:
        closed = analytic_reach(shape)
    except InvalidInputError:
        closed = None
    out = {
        "shape": shape.describe(),
        "measured_reach": est.value,
        "closed_form_reach": closed,
        "samples": sample.count,
        "pairs": est.pairs_scanned,
        "min_sep": est.min_sep,
    }
    print(json_dumps_stable(out))
    print(f"scan took {elapsed:.3f}s", file=sys.stderr)
    return 0


def _cmd_smooth(args):
    if args.csv_n < MIN_SAMPLES:
        raise InvalidInputError(
            f"--csv-n must be at least {MIN_SAMPLES}, got {args.csv_n}")
    cfg = _load_config(args.config)
    kw = _smooth_settings(cfg)
    shape = _config_shape(cfg)
    for name in ("epsilon", "delta", "rho", "sigma_max"):
        flag = getattr(args, name)
        if flag is not None:
            kw[name] = flag
    eps = kw.pop("epsilon", None)
    if eps is None:
        raise InvalidInputError("epsilon missing: pass --epsilon or put it in the config")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    result = smooth_manifold(shape, eps, **kw)
    elapsed = time.perf_counter() - t0

    before = sample_manifold(ClosedCurve(shape), n=args.csv_n)
    after = sample_manifold(result.curve, n=args.csv_n)
    _write_curve_csv(out_dir / "curve_before.csv", before)
    _write_curve_csv(out_dir / "curve_after.csv", after)
    centers = np.array([p.center for p in result.curve.patches]) \
        if result.curve.patches else np.empty((0, 2))
    _write_overlay_svg(out_dir / "overlay.svg", before.points, after.points,
                       centers)
    payload = result.report.to_dict()
    payload["artifacts"] = ["curve_before.csv", "curve_after.csv", "overlay.svg"]
    (out_dir / "report.json").write_text(json_dumps_stable(payload) + "\n")

    rep = result.report
    print(f"reach {fmt17(rep.R_input)} -> {fmt17(rep.R_hat_measured)} "
          f"(budget {fmt17(rep.epsilon)})")
    print(f"patches {rep.patches_applied} applied, {rep.patches_identity} "
          f"identity, c1 distance {fmt17(rep.c1_distance)}")
    print(f"artifacts in {out_dir}")
    print(f"pipeline took {elapsed:.3f}s", file=sys.stderr)
    return 0


def _cmd_verify(args):
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    sr = run_suite(args.suite, seed=args.seed)
    elapsed = time.perf_counter() - t0
    write_checks_csv(sr.results, out_dir / "checks.csv")
    if sr.n_failed:
        write_failures_json(sr.results, out_dir / "failures.json")
    print(f"suite {sr.suite}: {len(sr.results)} checks, {sr.n_failed} failed")
    for r in sr.results:
        if not r.passed:
            print(f"  FAIL {r.name} [{r.instance}] measured={fmt17(r.measured)} "
                  f"bound={fmt17(r.bound)} tol={fmt17(r.tolerance)}")
    for name, seconds in sr.timings:
        what = "stadium fixture" if name == "fixture" else f"suite {name}"
        print(f"{what} took {seconds:.3f}s", file=sys.stderr)
    print(f"verify took {elapsed:.3f}s", file=sys.stderr)
    return 1 if sr.n_failed else 0


def _cmd_report(args):
    path = Path(args.out) / "report.json"
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path} is not valid JSON: {exc}") from exc
    order = [
        ("shape", lambda v: v.get("kind", "?")),
        ("R_input", fmt17), ("epsilon", fmt17), ("delta", fmt17),
        ("rho", fmt17), ("R_prime_predicted", fmt17),
        ("R_hat_measured", fmt17), ("c1_distance", fmt17),
        ("patches_applied", str), ("patches_identity", str),
        ("net_size", str), ("shift_max", fmt17),
        ("scan_samples", str), ("scan_pairs", str), ("backend", str),
    ]
    for key, fmt in order:
        if key in payload:
            print(f"{key:20s} {fmt(payload[key])}")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "reach": _cmd_reach,
        "smooth": _cmd_smooth,
        "verify": _cmd_verify,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GeometryError, ConvergenceError) as exc:
        print(f"pipeline failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
