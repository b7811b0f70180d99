"""Static checks over the package's syntax trees, in place of a linter.

* No module imports a name it does not use: every name a module binds by
  ``import`` or ``from ... import`` must be read somewhere in that module.
  ``__init__.py`` is left out, since its imports are the package's exports.
* No private module-level function, class or constant is left unread:
  each must be read somewhere in the package.
* No public module-level function or class is left unreferenced, unless it
  is one of the paper's certificates kept on purpose: each must be
  exported by ``__init__.py`` or referenced elsewhere in the package.
* Grounds are compared in one place, ``core._same_ground``.
* Arrays are made read-only in few places: every lattice table in
  ``core._Table._hold``, and three non-table arrays.
* numpy's ufunc buffer size is set in one place, ``transforms.sweep``.

One check runs code: the package imports, lists its tasks and runs a mixing
convolution's count check in a process where ``import scipy`` fails, since
numpy is its one run-time dependency.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "confpp"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by an import in ``source`` and never read there."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_the_check_sees_an_unused_import():
    source = "import bisect\nimport math\nfrom json import dumps as d\n" \
             "print(math.pi)\n"
    assert unused_imports(source) == [(1, "bisect"), (3, "d")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_definitions(tree):
    """``{name: line}`` of the private module-level functions, classes
    and constants of ``tree``; dunder names are not private."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            sides = (node.targets if isinstance(node, ast.Assign)
                     else [node.target])
            targets = [t.id for side in sides for t in ast.walk(side)
                       if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def reads(tree):
    """Names read in ``tree``, bare or as an attribute."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)})


def unread_privates(sources):
    """``(module, line, name)`` of each private definition in ``sources``
    (``{module: source}``) that no module reads."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    read = set().union(*map(reads, trees.values()))
    return sorted((module, line, name) for module, tree in trees.items()
                  for name, line in private_definitions(tree).items()
                  if name not in read)


def test_the_check_sees_an_unread_private():
    sources = {"a": "_USED = 1\n_LEFT = 2\ndef _check(x):\n    pass\n"
                    "class _Base:\n    pass\n",
               "b": "from a import _Base\nprint(a._USED)\n"
                    "class C(_Base):\n    pass\n"}
    assert unread_privates(sources) == [("a", 2, "_LEFT"), ("a", 3, "_check")]


def test_every_private_definition_is_read():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in SRC.glob("*.py")}
    assert unread_privates(sources) == []


def unreferenced_definitions(sources):
    """Module-level functions and classes in ``sources`` (``{module:
    source}``) whose name no module reads, bare or as an attribute, or
    imports; ``__init__.py``'s imports are the package's exports."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    used = set().union(*map(reads, trees.values())) | {
        alias.name for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) for alias in node.names}
    return {node.name for tree in trees.values() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in used}


def test_the_check_sees_an_unreferenced_definition():
    sources = {"a": "def f():\n    pass\ndef g():\n    pass\n"
                    "def h():\n    pass\nclass K:\n    pass\n"
                    "class L:\n    pass\n",
               "b": "from a import f\nimport a\na.g()\nx = K\n",
               "__init__": "from .a import L\n"}
    assert unreferenced_definitions(sources) == {"h"}


# certificates of the paper's identities, run by the tests and kept in the
# package as its checks of record; nothing in the package calls them
PAPER_CERTIFICATES = {
    "check_adjoint_leibniz", "check_derivation", "convolution_closure_check",
    "derivation_residual_max", "gibbs_convolution_check",
    "pairwise_gibbs_spec", "pair_indicator_empty", "pair_lenard_check",
    "pair_lp_integral"}


def test_no_definition_is_dead():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in SRC.glob("*.py")}
    assert unreferenced_definitions(sources) == PAPER_CERTIFICATES


def ground_comparisons(tree):
    """``(function, line)`` of each comparison in ``tree`` with a
    ``.ground`` or ``.weights`` attribute on one side; ``function`` is the
    innermost enclosing function's name, None at module level."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Compare) and any(
                    isinstance(side, ast.Attribute)
                    and side.attr in ("ground", "weights")
                    for side in [child.left, *child.comparators]):
                found.append((func, child.lineno))
            visit(child, child.name if isinstance(child, ast.FunctionDef)
                  else func)

    visit(tree, None)
    return found


def test_the_check_sees_a_ground_comparison():
    source = ("def f(a, b):\n    if a.ground != b.ground:\n        pass\n"
              "def g(a, b):\n    return a.ground.weights == b\n")
    assert ground_comparisons(ast.parse(source)) == [("f", 2), ("g", 5)]


def test_grounds_are_compared_in_one_place():
    places = {(path.name, func) for path in MODULES for func, _ in
              ground_comparisons(ast.parse(path.read_text(encoding="utf-8")))}
    assert places == {("core.py", "_same_ground")}


def scoped_matches(tree, match):
    """``(scope, line)`` of each node in ``tree`` for which ``match`` is
    true; ``scope`` is the dotted name of the enclosing classes and
    functions, None at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if match(child):
                found.append((".".join(scope) or None, child.lineno))
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, scope + (child.name,) if named else scope)

    visit(tree, ())
    return found


def freezes(tree):
    """:func:`scoped_matches` of each statement that sets an array's write
    flag, ``a.flags.writeable = ...`` or ``a.setflags(write=...)``."""

    def sets_write_flag(node):
        if isinstance(node, ast.Assign):
            return any(isinstance(t, ast.Attribute) and t.attr == "writeable"
                       for t in node.targets)
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "setflags"
                and bool(node.args or any(k.arg == "write"
                                          for k in node.keywords)))

    return scoped_matches(tree, sets_write_flag)


def buffer_resizes(tree):
    """:func:`scoped_matches` of each call of numpy's ``setbufsize``, by
    attribute or bare name."""
    return scoped_matches(tree, lambda node: isinstance(node, ast.Call) and (
        getattr(node.func, "attr", None) == "setbufsize"
        or getattr(node.func, "id", None) == "setbufsize"))


def test_the_check_sees_a_freeze():
    source = ("class A:\n    def f(self, a):\n"
              "        a.flags.writeable = False\n"
              "def g(b):\n    b.setflags(write=False)\n"
              "c.setflags(False)\nd.flags.writeable\ne.setflags(align=1)\n")
    assert freezes(ast.parse(source)) == [("A.f", 3), ("g", 5), (None, 6)]


def test_arrays_are_frozen_in_few_places():
    places = {(path.name, scope) for path in MODULES for scope, _ in
              freezes(ast.parse(path.read_text(encoding="utf-8")))}
    assert places == {("core.py", "_Table._hold"),
                      ("core.py", "DiscreteGround.subset_size"),
                      ("core.py", "BoxWindow._bounds"),
                      ("processes.py", "MixingDensity.__post_init__")}


def test_the_check_sees_a_buffer_resize():
    source = ("import numpy as np\nfrom numpy import setbufsize\n"
              "class A:\n    def f(self):\n        np.setbufsize(64)\n"
              "setbufsize(8192)\nnp.getbufsize()\n")
    assert buffer_resizes(ast.parse(source)) == [("A.f", 5), (None, 6)]


def test_the_buffer_size_is_set_in_one_place():
    # a buffered reduction sums pairwise within blocks of the buffer size,
    # so a setting that leaked out of the sweep could move a report's bits
    places = {(path.name, scope) for path in MODULES for scope, _ in
              buffer_resizes(ast.parse(path.read_text(encoding="utf-8")))}
    assert places == {("transforms.py", "sweep")}


NO_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from confpp.cli import main
from confpp.core import BoxWindow
from confpp.processes import MixedPoisson, Superposition, exponential_mixing
from confpp.samplers import RunPlan, count_distribution_check
assert main(["list"]) == 0
window = BoxWindow(((0.0, 1.0),))
model = Superposition(MixedPoisson(exponential_mixing(1.0)),
                      MixedPoisson(exponential_mixing(1.0)))
rep = count_distribution_check(model, window, 6,
                               RunPlan(window, replicas=200, master_seed=1))
print(len(rep["per_n"]))
"""


def test_the_package_runs_without_scipy():
    path = [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    run = subprocess.run([sys.executable, "-c", NO_SCIPY], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "identity:counts" in run.stdout
    assert run.stdout.splitlines()[-1] == "7"

