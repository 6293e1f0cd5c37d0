"""Pipeline benchmark of reachsmooth: one workload per process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {smooth,certify,verify_zoo} \\
        --seed N --seconds S --trace {0,1}

The program is imported from ``src/`` of the same checkout; nothing is
installed.  Set-up is repeated and timed: the import in three fresh
interpreters, then the workload's own set-up.  Then the workload makes
``--seconds / pass_seconds`` passes (at least one; see ``workloads``),
a count that does not follow the host's speed.  Each pass does the same
seeded work and must produce the same output digest.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs one untraced and one traced pass, reports the
per-layer metrics, checks the call predictions of ``predictions.json``
and writes the spans to ``.perfbench/`` in the checkout.

The last line of standard output is the result object; the line before
it is an ``info`` object with the run environment, the digest and the
details behind the metrics.  Any failing operation, digest mismatch or
broken prediction makes the exit code 1.
"""

import os

# pinned before numpy loads: BLAS threads make a 2-core box's timings jumpy
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from stats import tail_percentile  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("smooth", "certify", "verify_zoo"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def import_program():
    """Import reachsmooth from this checkout's ``src``; returns seconds."""
    if not (SRC / "reachsmooth" / "__init__.py").is_file():
        raise SystemExit(f"error: no reachsmooth sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import reachsmooth
    import workloads  # noqa: F401  (imports numpy and scipy through the program)
    elapsed = time.perf_counter() - t0
    if Path(reachsmooth.__file__).resolve().parent != SRC / "reachsmooth":
        raise SystemExit(f"error: imported reachsmooth from {reachsmooth.__file__}")
    return elapsed


# run in a fresh interpreter: the program and workload imports of a run
IMPORT_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:]
import workloads
print(time.perf_counter() - t0)
"""


def import_times(repeats=3):
    """Seconds each of ``repeats`` fresh interpreters takes to import.

    An import cannot be repeated inside one process, so set-up time
    takes the median of these instead of the run's own single import.
    """
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
                             cwd=ROOT, capture_output=True, text=True, check=True)
        times.append(float(out.stdout))
    return times


def git_commit(root):
    """Commit of the checkout, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    import numpy
    import scipy

    import reachsmooth
    return {
        "accel_backend": reachsmooth.accel_backend,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "seed": seed,
        "git_commit": git_commit(ROOT),
    }


def run_setup(workload, repeats):
    """Set up ``repeats`` times; returns (last state, seconds each)."""
    times, state = [], None
    for _ in range(repeats):
        state = None  # let the previous state go before building the next
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup()
        times.append(time.perf_counter() - t0)
    return state, times


def one_pass(workload, state, tracer=None):
    from workloads import OpLog, digest
    log = OpLog(tracer)
    c0, w0 = time.process_time(), time.perf_counter()
    extra = workload.run_pass(state, log) or {}
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    return {"log": log, "wall": wall, "cpu": cpu, "extra": extra,
            "digest": digest(log.outputs)}


def verdict(passes):
    """Correctness of a run: no failed operation, one digest for all passes."""
    problems = [e for p in passes for e in p["log"].errors]
    if len({p["digest"] for p in passes}) != 1:
        problems.append("passes of one seed produced different digests")
    if sum(p["log"].attempted for p in passes) == 0:
        problems.append("no operation attempted")
    return problems


def measure(workload, seconds, import_s):
    imports = import_times()
    state, setup_times = run_setup(workload, workload.setup_repeats)
    n_passes = max(1, round(seconds / workload.pass_seconds))
    passes = [one_pass(workload, state) for _ in range(n_passes)]
    latencies = [t for p in passes for t in p["log"].latencies]
    tail_pct, tail = tail_percentile(latencies)
    e2e = {
        "setup_s": (statistics.median(imports) + statistics.median(setup_times), "s"),
        "wall_s": (statistics.median([p["wall"] for p in passes]), "s"),
        "cpu_s": (statistics.median([p["cpu"] for p in passes]), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {
        "import_s": import_s, "import_runs_s": imports, "setup_runs_s": setup_times,
        "passes": len(passes), "op_count": len(latencies),
        "op_tail_percentile": tail_pct,
    }
    shapes = sorted({k for p in passes for k in p["extra"]})
    if shapes:
        info["smooth_s"] = {k: statistics.median([p["extra"][k] for p in passes]) for k in shapes}
    return passes, e2e, info


def trace(workload, seed):
    from tracing import TARGETS, Patcher, Tracer, layer_metrics
    from workloads import CATALOG
    state, _ = run_setup(workload, 1)
    plain = one_pass(workload, state)
    tracer = Tracer()
    patcher = Patcher(tracer, TARGETS)
    patcher.install(holders=workload.holders(state))
    try:
        traced = one_pass(workload, state, tracer)
    finally:
        patcher.restore()
    values = layer_metrics(tracer)
    values["checks.rows"] = traced["log"].rows
    values["checks.rows_failed"] = traced["log"].rows_failed
    values["trace_overhead_frac"] = traced["wall"] / plain["wall"] - 1.0
    for label, _ in CATALOG:
        values[f"smooth_s.{label}"] = plain["extra"].get(label, 0.0)
    problems = check_predictions(workload.name, values, patcher.absent)
    TRACE_DIR.mkdir(exist_ok=True)
    span_file = TRACE_DIR / f"trace-{workload.name}-seed{seed}.txt"
    tracer.write(span_file)
    info = {"absent": patcher.absent, "spans": len(tracer.spans),
            "span_file": str(span_file.relative_to(ROOT))}
    return [plain, traced], values, problems, info


def check_predictions(workload, values, absent):
    """Zero- and non-zero-call predictions for this workload."""
    table = json.loads((HERE / "predictions.json").read_text())
    problems = []
    for layer in table["zero_calls"].get(workload, []):
        if layer not in absent and values[f"{layer}.calls"] != 0:
            problems.append(f"{layer}: {values[f'{layer}.calls']} calls, predicted 0")
    for layer in table["nonzero_calls"].get(workload, []):
        if layer not in absent and values[f"{layer}.calls"] == 0:
            problems.append(f"{layer}: no calls, predicted some (wrapper never fired?)")
    return problems


def per_layer_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None):
    args = parse_args(argv)
    import_s = import_program()
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.seed)
    info = {"workload": args.workload, "env": environment(args.seed)}
    if args.trace:
        passes, values, extra_problems, more = trace(workload, args.seed)
        units = per_layer_units()
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items()}
    else:
        passes, e2e, more = measure(workload, args.seconds, import_s)
        extra_problems = []
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in e2e.items()}
    problems = verdict(passes) + extra_problems
    attempted = sum(p["log"].attempted for p in passes)
    failed = sum(p["log"].failed for p in passes)
    info.update(more)
    info.update({"digest": passes[0]["digest"], "attempted": attempted,
                 "failed": failed, "fail_frac": failed / max(attempted, 1),
                 "problems": problems[:20]})
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
