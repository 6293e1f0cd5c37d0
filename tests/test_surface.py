"""Size of the settable surface of ``reachsmooth``.

An option is any value a caller can set without editing the code: a
function parameter with a default, a dataclass field with a default, or
a command-line flag.  Each independent option multiplies the
configurations tests and benchmarks have to cover, so the options are
pinned by name: a change that adds or removes one changes the list
below and says why.  (The count went from 41 to 38 when every live
blend moved onto its tap lattice: the ``taps=64`` defaults of
``BlendedMap``, ``convolve`` and ``BumpKernel.tap_scheme`` went with
the last two.  It went from 38 to 22 when every default that no
pipeline, command-line or benchmark caller takes became required or
went: the row checkers' ``instance``, the zoo checkers' ``seed``,
``run_suite``'s suite and seed, ``scan_curve_reach``'s ``n``, the
deviation order ``k``, the uncapped radius search, ``AppliedPatch.blend``
and ``as_points``' dimension.)  The exported names are checked too:
every name in an ``__all__`` must resolve, so a deleted function cannot
linger in an export list, and README's ``Commands:`` block must list
each subcommand's flags.

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
from collections import Counter
from pathlib import Path

import reachsmooth
from reachsmooth import cli

PACKAGE = Path(reachsmooth.__file__).resolve().parent
README = Path(__file__).resolve().parent.parent / "README.md"

# the 22 options as (module, scope, name): a parameter with a default
# by its (nested) function, a defaulted dataclass field by its class, an
# argparse flag by its subcommand
EXPECTED_OPTIONS = sorted([
    ("checks", "_result", "passed"),
    ("checks", "check_angle_bound", "seed"),
    ("checks", "check_far_point_distance", "seed"),
    ("checks", "check_hausdorff_bound", "seed"),
    ("checks", "check_main_theorem", "seed"),
    ("checks", "check_tangent_distance_bound", "seed"),
    ("cli", "_write_overlay_svg.thin", "cap"),
    ("cli", "main", "argv"),
    ("cli", "reachsmooth reach", "--config"),
    ("cli", "reachsmooth reach", "--n"),
    ("cli", "reachsmooth reach", "--min-sep"),
    ("cli", "reachsmooth report", "--out"),
    ("cli", "reachsmooth smooth", "--config"),
    ("cli", "reachsmooth smooth", "--csv-n"),
    ("cli", "reachsmooth smooth", "--epsilon"),
    ("cli", "reachsmooth smooth", "--out"),
    ("cli", "reachsmooth verify", "--out"),
    ("cli", "reachsmooth verify", "--seed"),
    ("cli", "reachsmooth verify", "--suite"),
    ("curves", "ArcChainShape.__init__", "label"),
    ("curves", "ClosedCurve.__init__", "patches"),
    ("reach", "scan_curve_reach", "min_sep"),
])


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


def _subcommands(tree):
    """``{variable: subcommand}`` of every ``x = ....add_parser("name")``."""
    found = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and getattr(node.value.func, "attr", None) == "add_parser"):
            for target in node.targets:
                found[target.id] = node.value.args[0].value
    return found


def list_options(tree):
    """``(kind, scope, name)`` of every option of one parsed module, kind
    one of ``param``, ``field`` and ``flag``."""
    subcommands = _subcommands(tree)
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = scope + child.name
                args = child.args
                positional = args.posonlyargs + args.args
                out.extend(("param", name, a.arg) for a in
                           positional[len(positional) - len(args.defaults):])
                out.extend(("param", name, a.arg) for a, d in
                           zip(args.kwonlyargs, args.kw_defaults) if d is not None)
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                name = scope + child.name
                if _is_dataclass(child):
                    out.extend(("field", name, stmt.target.id)
                               for stmt in child.body
                               if isinstance(stmt, ast.AnnAssign)
                               and stmt.value is not None
                               and _field_has_default(stmt.value))
                visit(child, name + ".")
            else:
                if (isinstance(child, ast.Call)
                        and isinstance(child.func, ast.Attribute)
                        and child.func.attr == "add_argument"):
                    owner = getattr(child.func.value, "id", "?")
                    where = (f"reachsmooth {subcommands[owner]}"
                             if owner in subcommands else owner)
                    out.append(("flag", where, child.args[0].value))
                visit(child, scope)

    visit(tree, "")
    return out


def count_options(tree):
    """``(parameters with a default, dataclass fields with a default,
    argparse flags)`` of one parsed module."""
    kinds = Counter(kind for kind, _, _ in list_options(tree))
    return kinds["param"], kinds["field"], kinds["flag"]


def package_options():
    """Sorted ``(module, scope, name)`` of every option of the package."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        found += [(module, scope, name) for _, scope, name
                  in list_options(ast.parse(path.read_text()))]
    return sorted(found)


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
sub = parsers.add_parser("go")
sub.add_argument("--fast")
'''
    tree = ast.parse(src)
    assert count_options(tree) == (2, 2, 2)
    assert sorted(list_options(tree)) == [
        ("field", "C", "w"), ("field", "C", "y"),
        ("flag", "parser", "--flag"), ("flag", "reachsmooth go", "--fast"),
        ("param", "f", "b"), ("param", "f", "c")]


def test_option_count_is_pinned():
    found = package_options()
    assert found == EXPECTED_OPTIONS, {
        "added": sorted(set(found) - set(EXPECTED_OPTIONS)),
        "removed": sorted(set(EXPECTED_OPTIONS) - set(found))}


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
    assert run_suite(suite, 7).passed
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_a_run_loads_no_scipy():
    out = subprocess.run([sys.executable, "-c", _RUN_WITHOUT_SCIPY],
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
