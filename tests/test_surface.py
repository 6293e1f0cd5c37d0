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
linger in an export list, every name a submodule exports must be read
by the package or the benchmark, every name a module imports must be
read by it, and README's ``Commands:`` block must list
each subcommand's flags, and each JSON config README shows must pass
the command line's config checker.

The package runs on NumPy alone: no module imports SciPy, and a run
loads none of it (the tests keep SciPy as an oracle).
"""

import argparse
import ast
import importlib
import json
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
PERFBENCH = README.parent / "perfbench"

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


def _module_trees(root):
    """``{dotted module: parsed tree}`` of every ``.py`` file under
    ``root``, a package by its own name."""
    trees = {}
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        trees[module] = ast.parse(path.read_text())
    return trees


def _exports(tree):
    """The names a module's ``__all__`` lists."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


def _read_names(tree):
    """Every name a module reads, as a bare name or as an attribute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def test_every_export_is_used():
    # a name a submodule exports is read, as a name or an attribute,
    # somewhere in the package or by the benchmark; its definition, the
    # export lists and the package's re-exports are not reads, and a
    # read of an alias (the package's ``accel_backend``) is a read of
    # the name it binds
    trees = {**_module_trees(PACKAGE), **_module_trees(PERFBENCH)}
    read, alias = set(), {}
    for tree in trees.values():
        read |= _read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                alias.update((a.asname, a.name) for a in node.names if a.asname)
    read |= {alias[n] for n in read if n in alias}
    unused = [(module, name) for module, tree in trees.items()
              if module.startswith("reachsmooth.")
              for name in _exports(tree) if name not in read]
    assert not unused


# imports no code of the module reads: perfbench's
# test_wrappers_reach_every_binding_and_restore checks that tracing
# rebinds ``smoothing.convolve_grid`` too
UNREAD_IMPORTS = [("reachsmooth.smoothing", "convolve_grid")]


def test_every_import_is_read():
    # what a module imports it reads or exports (the project runs no
    # linter that would check this)
    unread = []
    for module, tree in _module_trees(PACKAGE).items():
        bound = [(a.asname or a.name).split(".")[0]
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__"
                 for a in node.names]
        used = _read_names(tree) | set(_exports(tree))
        unread += [(module, name) for name in bound if name not in used]
    assert unread == UNREAD_IMPORTS


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


def readme_configs():
    """Every JSON config README shows under "Command line", in order; a
    config may span several indented lines."""
    text = README.read_text()
    section = text[text.index("## Command line"):text.index("Commands:\n\n")]
    code = "\n".join(line for line in section.splitlines()
                     if line.startswith("    "))
    decoder, configs, at = json.JSONDecoder(), [], 0
    while code[at:].strip():
        config, at = decoder.raw_decode(code, len(code) - len(code[at:].lstrip()))
        configs.append(config)
    return configs


def test_readme_configs_pass_the_config_checker(tmp_path):
    configs = readme_configs()
    assert [c["shape"].get("preset", c["shape"]["kind"]) for c in configs] == [
        "circle", "ellipse", "stadium", "rounded_rect", "cad_profile"]
    for i, config in enumerate(configs):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(config))
        shape, _ = cli._read_config(path, ("epsilon",))   # a smooth config
        assert shape.describe()["kind"] == config["shape"]["kind"]
        if "epsilon" not in config:                        # and a reach one
            cli._read_config(path, ())


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
