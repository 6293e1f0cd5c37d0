import time
from types import SimpleNamespace

import pytest

from reachsmooth import kernels
from reachsmooth.smoothing import smooth_manifold

_ACCEPTANCE_LABELS = {
    "test_criterion_1": "catalog reach scans match closed forms within 2%",
    "test_criterion_2": "circle pair scan hits the radius at 1e-9",
    "test_criterion_3": "mollification preserves Lipschitz constants",
    "test_criterion_4": "blend stays within the budgeted constants",
    "test_criterion_5": "patch estimate checkers all hold on a real run",
    "test_criterion_6": "end-to-end reach, closeness, and smoothness probes",
    "test_criterion_7": "closed-form identities are exact",
    "test_criterion_8": "verification output is byte-deterministic",
}


@pytest.fixture(scope="session")
def stadium_run():
    """One full pipeline pass shared by the patch-level and theorem tests."""
    t0 = time.perf_counter()
    result = smooth_manifold({"kind": "stadium", "r": 1.0, "l": 2.0}, 0.05)
    elapsed = time.perf_counter() - t0
    return SimpleNamespace(result=result, build_seconds=elapsed)


@pytest.fixture
def deviation_reads(monkeypatch):
    """The radius of every ``kernels.sup_deviation_ck`` read, in order."""
    radii = []
    real = kernels.sup_deviation_ck

    def spy(f, df, kernel, window, k):
        radii.append(kernel.sigma)
        return real(f, df, kernel, window, k)

    monkeypatch.setattr(kernels, "sup_deviation_ck", spy)
    return radii


def pytest_terminal_summary(terminalreporter):
    lines = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py" not in nodeid:
                continue
            base = nodeid.split("::")[-1]
            for key, label in _ACCEPTANCE_LABELS.items():
                if base.startswith(key):
                    verdict = "PASS" if outcome == "passed" else "FAIL"
                    num = key.rsplit("_", 1)[-1]
                    lines.append(f"acceptance criterion {num}: {verdict} - {label}")
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)
