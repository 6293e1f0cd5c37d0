"""Size of the settable surface of ``reachsmooth``.

An option is any value a caller can set without editing the code: a
function parameter with a default, a dataclass field with a default, or
a command-line flag.  Each independent option multiplies the
configurations tests and benchmarks have to cover, so the count is
pinned: a change that adds an option changes the number below and says
why.  The exported names are checked too: every name in an ``__all__``
must resolve, so a deleted function cannot linger in an export list,
and README's ``Commands:`` block must list each subcommand's flags.

The package runs on NumPy alone: no module imports SciPy, and a run
loads none of it (the tests keep SciPy as an oracle).
"""

import argparse
import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import reachsmooth
from reachsmooth import cli

PACKAGE = Path(reachsmooth.__file__).resolve().parent
README = Path(__file__).resolve().parent.parent / "README.md"

# parameters with a default + defaulted dataclass fields + argparse flags
EXPECTED_OPTIONS = 41


def _is_dataclass(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _field_has_default(value):
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return any(kw.arg in ("default", "default_factory") for kw in value.keywords)
    return True


def count_options(tree):
    """``(parameters with a default, dataclass fields with a default,
    argparse flags)`` of one parsed module."""
    params = fields = flags = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params += len(args.defaults)
            params += sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields += sum(isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                          and _field_has_default(stmt.value)
                          for stmt in node.body)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "add_argument"):
            flags += 1
    return params, fields, flags


def package_options():
    totals = [0, 0, 0]
    for path in sorted(PACKAGE.rglob("*.py")):
        for i, n in enumerate(count_options(ast.parse(path.read_text()))):
            totals[i] += n
    return tuple(totals)


def test_counter_sees_each_kind_of_option():
    src = '''
from dataclasses import dataclass, field

def f(a, b=1, *, c=2, d):
    return lambda x=3: x

@dataclass
class C:
    x: int
    y: int = 0
    z: list = field(repr=False)
    w: list = field(default_factory=list)

class Plain:
    v: int = 0

parser.add_argument("--flag")
'''
    assert count_options(ast.parse(src)) == (2, 2, 1)


def test_option_count_is_pinned():
    params, fields, flags = package_options()
    assert params + fields + flags == EXPECTED_OPTIONS, (params, fields, flags)


def test_every_export_resolves():
    names = ["reachsmooth"] + [m.name for m in pkgutil.walk_packages(
        reachsmooth.__path__, "reachsmooth.")]
    checked = 0
    for name in names:
        module = importlib.import_module(name)
        exports = getattr(module, "__all__", None)
        if exports is None:
            continue
        checked += 1
        missing = [n for n in exports if not hasattr(module, n)]
        assert not missing, (name, missing)
    assert checked >= 10


def readme_command_flags():
    """``{subcommand: flags}`` as README's ``Commands:`` block lists them;
    an indented line that does not start a command continues the last."""
    text = README.read_text()
    block = text[text.index("Commands:\n\n") + len("Commands:\n\n"):]
    flags = {}
    for line in block.splitlines():
        if not line.startswith("    "):
            break
        start = re.match(r"\s*reachsmooth (\w+)", line)
        if start:
            command = start.group(1)
            flags[command] = set()
        flags[command] |= set(re.findall(r"--[a-z][a-z-]*", line))
    return flags


def test_readme_lists_every_command_flag():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    parsed = {name: {opt for action in parser._actions
                     for opt in action.option_strings
                     if opt.startswith("--") and opt != "--help"}
              for name, parser in sub.choices.items()}
    assert readme_command_flags() == parsed


def test_no_module_imports_scipy():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, n) for n in names if n.split(".")[0] == "scipy"]
    assert not found


# a run of the pipeline and of the patch and theorem checks; prints the
# scipy modules it loaded
_RUN_WITHOUT_SCIPY = """
import sys
import reachsmooth, reachsmooth.checks, reachsmooth.cli
from reachsmooth import smooth_manifold
from reachsmooth.checks import run_suite
result = smooth_manifold({"kind": "stadium", "r": 1.0, "l": 2.0}, 0.05)
assert result.curve.patches
for suite in ("patches", "main"):
    assert run_suite(suite).passed
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_a_run_loads_no_scipy():
    out = subprocess.run([sys.executable, "-c", _RUN_WITHOUT_SCIPY],
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
