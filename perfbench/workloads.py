"""The three benchmark workloads: inputs from a seed, set-up, one pass.

A workload object is built from the seed alone; ``setup`` builds what
the timed pass reads (counted in ``setup_s``), and ``run_pass`` does a
fixed amount of work through an ``OpLog``, which counts operations,
their latencies and their failures, and collects the outputs that go
into the digest.  Every pass of one seed does the same work, so two
passes must produce the same digest.

``pass_seconds`` is about how long one pass takes on a 2-vCPU virtual
machine; a run makes ``--seconds / pass_seconds`` passes (at least one)
whatever the host's speed at the time, so every run of a workload has
the same operations and its tail is always the same percentile.
"""

import dataclasses
import gc
import hashlib
import json
import math
import time

import numpy as np

from reachsmooth import checks, smooth_manifold
from reachsmooth.curves import make_shape, sample_manifold
from reachsmooth.kernels import BumpKernel, Interval
from reachsmooth.partition import make_reference_plateau
from reachsmooth.reach import scan_curve_reach

EPSILON = 0.05
REACH_TOL = 0.02  # scan tolerance of the certificate, share of the input reach


class OpLog:
    """Counts operations of one pass: attempts, failures, latencies, rows."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.rows = 0
        self.rows_failed = 0
        self.outputs = []

    def _start(self):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted - 1

    def _fail(self, label, problem):
        self.failed += 1
        self.errors.append(f"{label}: {problem}")

    def run(self, label, fn, *args, check=None, timed=True):
        """One operation: ``fn(*args)``, then ``check(result)``.

        ``check`` returns a list of problems; a raise or any problem
        counts the operation as failed.  Returns the result, or None.
        """
        self._start()
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                result = fn(*args)
            else:
                result = self.tracer.span("bench.op", fn, *args)
        except Exception as exc:  # a failing operation is counted, not fatal
            self._fail(label, repr(exc))
            return None
        finally:
            if timed:
                self.latencies.append(time.perf_counter() - t0)
        problems = check(result) if check is not None else []
        if problems:
            self._fail(label, "; ".join(problems))
        return result

    def check_rows(self, rows):
        """Record check rows for the digest; returns the failing ones."""
        rows = list(rows)
        self.rows += len(rows)
        bad = [f"{r.name}[{r.instance}] {r.measured!r} > {r.bound!r}+{r.tolerance!r}"
               for r in rows if not r.passed]
        self.rows_failed += len(bad)
        self.outputs.append([dataclasses.astuple(r) for r in rows])
        return bad


def digest(outputs):
    """sha256 of the outputs; floats are written round-trip exact."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"),
                      default=lambda o: o.tolist())  # numpy arrays and scalars
    return hashlib.sha256(text.encode()).hexdigest()


def _reach_problems(R, value, what):
    if not (math.isfinite(value) and value > 0):
        return [f"{what} reach {value!r} is not a positive number"]
    if R - value > EPSILON + REACH_TOL * R:
        return [f"{what} reach drop {R - value!r} over {EPSILON + REACH_TOL * R!r}"]
    return []


# ---------------------------------------------------------------------------
# smooth: the full pipeline on the shape catalog


CATALOG = (
    ("stadium", {"kind": "stadium", "r": 1.0, "l": 2.0}),
    ("circle", {"kind": "circle", "r": 1.0}),
    ("ellipse", {"kind": "ellipse", "a": 2.0, "b": 1.0}),
    ("rounded_rect", {"kind": "cad_profile", "preset": "rounded_rect",
                      "width": 2.0, "height": 1.0, "corner_radius": 0.2}),
)
SHAPE_JITTER = 0.02  # seeds other than 0 scale each length by 1 +- this


def catalog(seed):
    """Seed 0 is the catalog itself; other seeds jitter every length.

    The jitter is small on purpose: net size, and with it the run time,
    follows the lengths, and the runs of different seeds are compared.
    """
    rng = np.random.default_rng(seed)
    out = []
    for label, spec in CATALOG:
        spec = dict(spec)
        for key in sorted(spec):
            if seed != 0 and isinstance(spec[key], float):
                spec[key] *= 1.0 + rng.uniform(-SHAPE_JITTER, SHAPE_JITTER)
        out.append((label, spec))
    return tuple(out)


class Smooth:
    """``smooth_manifold`` at epsilon 0.05 on the catalog.

    One operation is one shape: the curve a user waits for, with its
    certificate checked.  With four operations the tail is the slowest.
    """

    name = "smooth"
    setup_repeats = 3
    pass_seconds = 55.0

    def __init__(self, seed):
        self.specs = catalog(seed)

    def setup(self):
        return [(label, make_shape(spec)) for label, spec in self.specs]

    def holders(self, state):
        return ()

    def _certificate(self, result):
        rep = result.report
        problems = _reach_problems(rep.R_input, rep.R_hat_measured, "scanned")
        if rep.c1_distance > rep.epsilon:
            problems.append(f"c1_distance {rep.c1_distance!r} over {rep.epsilon!r}")
        if rep.patches_applied + rep.patches_identity != rep.net_size:
            problems.append("applied + identity patches differ from the net size")
        return problems

    def run_pass(self, state, log):
        """Returns the seconds each shape took.

        Each finished curve is let go and collected before the next shape
        starts, so no shape runs beside the previous one's patch stack and
        the collector's cost does not depend on the order of the catalog.
        """
        for label, shape in state:
            gc.collect()
            result = log.run(f"smooth[{label}]", smooth_manifold, shape, EPSILON,
                             check=self._certificate)
            if result is not None:
                log.outputs.append(result.report.to_dict())
            result = None
        return {label: t for (label, _), t in zip(state, log.latencies)}


# ---------------------------------------------------------------------------
# certify: read-only checks of a finished stadium run


class Certify:
    """Patch checks, the main theorem and reach scans of a stadium run.

    One timed operation is one patch's arrays plus its four checks; the
    theorem check and each scan are one operation each, untimed.  The
    patches are evenly spaced through the stack from a seeded offset, so
    every seed checks the same mix of straight, junction and cap patches.
    """

    name = "certify"
    setup_repeats = 1  # the fixture is a 7 s pipeline run
    pass_seconds = 18.0
    patches_per_pass = 40
    scan_counts = (1950, 2050)

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        fixture = smooth_manifold({"kind": "stadium", "r": 1.0, "l": 2.0}, EPSILON)
        rng = np.random.default_rng(self.seed)
        patches = fixture.curve.patches
        stride = len(patches) / self.patches_per_pass
        start = rng.uniform(0.0, stride)
        picked = [patches[int(start + k * stride)] for k in range(self.patches_per_pass)]
        scans = rng.integers(self.scan_counts[0], self.scan_counts[1] + 1, size=2)
        return fixture, picked, [int(n) for n in scans]

    def holders(self, state):
        return [p.blend for p in state[0].curve.patches]

    def _patch_op(self, log, patch, curve, R, sample):
        arrays = checks.patch_graph_arrays(patch)
        tag = f"patch-{patch.index:04d}"
        return log.check_rows([
            checks.check_tangent_distance_bound(patch, instance=tag, arrays=arrays),
            checks.check_angle_bound(patch, instance=tag, arrays=arrays),
            checks.check_hausdorff_bound(patch, R, instance=tag, arrays=arrays),
            checks.check_far_point_distance(patch, curve, R, sample,
                                            instance=tag, arrays=arrays),
        ])

    def _theorem_op(self, log, fixture):
        rows = checks.check_main_theorem(fixture)
        bad = log.check_rows(rows)
        controls = sum(r.name == "junction_probe_control" for r in rows)
        expected = len(fixture.curve.shape.junction_arcs())
        if controls != expected:
            bad.append(f"{controls} junction controls, expected {expected}")
        return bad

    def run_pass(self, state, log):
        fixture, picked, scans = state
        curve, R = fixture.curve, fixture.report.R_input
        sample = sample_manifold(curve, n=2000)
        for patch in picked:
            log.run(f"patch[{patch.index}]", self._patch_op, log, patch, curve,
                    R, sample, check=lambda bad: bad)
        log.run("main_theorem", self._theorem_op, log, fixture,
                check=lambda bad: bad, timed=False)
        for n in scans:
            est = log.run(f"scan[{n}]", lambda n=n: scan_curve_reach(curve, n=n)[0],
                          check=lambda e: _reach_problems(R, e.value, "final"),
                          timed=False)
            if est is not None:
                log.outputs.append([est.value, list(est.argmin_indices), est.pairs_scanned])


# ---------------------------------------------------------------------------
# verify_zoo: the seeded function zoo, no curve at all


class VerifyZoo:
    """Convolution and blend Lipschitz checks on random inputs, plus the
    formula rows.  One timed operation is one ``check_*`` call.

    Random C^{1,1} inputs are blended at rho 1e-2 only: a blend check's
    cost grows like 1/sigma, and at smaller budgets sigma, hence the cost
    of a pass, swings with the seed.  The deep halving searches come from
    the |x - c| corner instead, whose cost does not depend on the seeded
    kink position c: at rho 1e-4 those checks are the slowest tenth of the
    operations, so they set ``op_tail_s``.
    """

    name = "verify_zoo"
    setup_repeats = 3
    pass_seconds = 3.3
    conv_functions = 8
    c11_functions = 6
    c11_rhos = (1e-2,)
    corners = 5
    corner_rhos = (1e-2, 1e-3, 1e-4)

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        rng = np.random.default_rng(self.seed)
        conv_domain = Interval(-2.0, 2.0)
        conv = []
        for i in range(self.conv_functions):
            n_kinks = int(rng.integers(3, 13))
            lip_max = float(rng.uniform(0.5, 5.0))
            f, df, L = checks.random_piecewise_linear(rng, conv_domain, n_kinks, lip_max)
            sigma = float(np.exp(rng.uniform(math.log(1e-3), math.log(0.3))))
            conv.append((f"pwl-{i:03d}-sigma={sigma:.6e}", f, df, L, BumpKernel(sigma)))
        blend_domain = Interval(-2.7, 2.7)
        corners = [float(c) for c in rng.uniform(-0.25, 0.25, size=self.corners)]
        c11 = []
        for i in range(self.c11_functions):
            n_kinks = int(rng.integers(3, 9))
            lip_d = float(rng.uniform(0.5, 3.0))
            c11.append((f"c11-{i:02d}",
                        *checks.random_c11(rng, blend_domain, n_kinks, lip_d)))
        return conv_domain, conv, blend_domain, corners, c11, make_reference_plateau()

    def holders(self, state):
        return ()

    def run_pass(self, state, log):
        conv_domain, conv, blend_domain, corners, c11, psi = state
        seed = self.seed

        def check(fn, *args, **kwargs):
            label = kwargs["instance"]
            log.run(label, lambda: fn(*args, **kwargs),
                    check=lambda row: log.check_rows([row]))

        for tag, f, df, L, kern in conv:
            for order in (0, 1):
                check(checks.check_convolution_lipschitz, f, df, L, kern,
                      conv_domain, order=order, seed=seed, instance=tag)
        for c in corners:
            for rho in self.corner_rhos:
                check(checks.check_blend_lipschitz,
                      lambda x, c=c: np.abs(np.asarray(x, dtype=float) - c),
                      lambda x, c=c: np.sign(np.asarray(x, dtype=float) - c),
                      1.0, math.inf, psi, rho, blend_domain, order=0, seed=seed,
                      instance=f"abs-c={c:.6f}-rho={rho:.0e}", sigma_max=0.25)
        for tag, f, df, L, Ld in c11:
            for rho in self.c11_rhos:
                for order in (0, 1):
                    check(checks.check_blend_lipschitz, f, df, L, Ld, psi, rho,
                          blend_domain, order=order, seed=seed,
                          instance=f"{tag}-rho={rho:.0e}", sigma_max=0.25)
        log.run("formula_rows",
                lambda: checks.run_suite("formulas", seed=seed).results,
                check=log.check_rows, timed=False)


WORKLOADS = {w.name: w for w in (Smooth, Certify, VerifyZoo)}
