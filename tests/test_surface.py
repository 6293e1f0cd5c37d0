"""Size of the settable surface of ``reachsmooth``.

An option is any value a caller can set without editing the code: a
function parameter with a default, a dataclass field with a default, or
a command-line flag.  Each independent option multiplies the
configurations tests and benchmarks have to cover, so the count is
pinned: a change that adds an option changes the number below and says
why.  The exported names are checked too: every name in an ``__all__``
must resolve, so a deleted function cannot linger in an export list.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import reachsmooth

PACKAGE = Path(reachsmooth.__file__).resolve().parent

# parameters with a default + defaulted dataclass fields + argparse flags
EXPECTED_OPTIONS = 56


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
