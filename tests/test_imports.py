"""Every package module, test and script uses each name it imports, and
every package-level function and class is reachable.

The reachability scan starts from the console entry points in
``pyproject.toml``, the names ``perfbench/`` and ``scripts/`` use and the
statements each module runs on import, and follows every name a reached
definition reads.  It allows no exception: what only the tests run, the
exact oracles among it, lives in ``tests/oracles.py`` and
``tests/references.py``.

The command line loads every package module, only ``numerics`` imports
scipy, and the package itself binds no name but ``__version__``.
"""
import ast
import functools
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "growrbm"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
USERS = sorted([*(ROOT / "perfbench").glob("*.py"),
                *(ROOT / "scripts").glob("*.py")])
# the package, then the tests and scripts under their folder's name
IMPORTERS = MODULES + sorted([*(ROOT / "tests").glob("*.py"),
                              *(ROOT / "scripts").glob("*.py")])


def unused_imports(source: str) -> list:
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", IMPORTERS, ids=lambda p: (
    p.stem if p.parent == PACKAGE else f"{p.parent.name}/{p.stem}"))
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import numpy as np\nimport os.path\n"
              "from dataclasses import dataclass, field\n"
              "@dataclass\nclass A:\n    x: np.ndarray\n"
              "print(os.path.sep)\n")
    assert unused_imports(source) == ["field"]


def _bindings(tree, in_package: bool) -> dict:
    """Local name -> ``(module, name)`` for what ``tree`` imports from the
    package, ``name`` None for a module bound whole; ``__init__`` stands
    for the package itself."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            top, _, sub = (node.module or "").partition(".")
            if node.level == 1 and in_package:
                source = node.module or "__init__"
            elif node.level == 0 and top == "growrbm":
                source = sub or "__init__"
            else:
                continue
            for alias in node.names:
                out[alias.asname or alias.name] = source, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top, _, sub = alias.name.partition(".")
                if top == "growrbm":
                    out[alias.asname or top] = (
                        (sub or "__init__") if alias.asname else "__init__",
                        None)
    return out


def _reads(node) -> list:
    """The dotted names ``[name, attr, ...]`` that ``node`` reads, type
    annotations left out."""
    out, todo = [], [node]
    while todo:
        n = todo.pop()
        parts = []
        while isinstance(n, ast.Attribute):
            parts.insert(0, n.attr)
            n = n.value
        if isinstance(n, ast.Name):
            if isinstance(n.ctx, ast.Load):
                out.append([n.id, *parts])
            continue
        for field, value in ast.iter_fields(n):
            if field not in ("annotation", "returns"):
                todo.extend(v for v in (value if isinstance(value, list)
                                        else [value])
                            if isinstance(v, ast.AST))
    return out


def unreachable(package: Path, users, entry_points) -> list:
    """``module.name`` of every package-level function and class that no
    root reaches, sorted."""
    trees = {p.stem: ast.parse(p.read_text()) for p in package.glob("*.py")}
    defs = {m: {n.name: n for n in tree.body
                if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
            for m, tree in trees.items()}
    binds = {m: _bindings(tree, True) for m, tree in trees.items()}
    user_trees = {str(p): ast.parse(p.read_text()) for p in users}
    binds.update({u: _bindings(tree, False) for u, tree in user_trees.items()})

    def lookup(module, dotted):
        """The definition ``(module, name)`` that the dotted name
        ``dotted`` read in ``module`` stands for, if any."""
        name, *rest = dotted
        if module == "__init__" and name in trees:  # a submodule
            return lookup(name, rest) if rest else None
        if name in defs.get(module, {}):
            return module, name
        if name not in binds[module]:
            return None
        target, attr = binds[module][name]
        if attr is None:  # a module bound whole
            return lookup(target, rest) if rest else None
        return lookup(target, [attr, *rest])

    roots = [lookup(u, d) for u, tree in user_trees.items()
             for d in _reads(tree)]
    roots += [lookup(m, d) for m, tree in trees.items() for node in tree.body
              if not isinstance(node, (ast.FunctionDef, ast.ClassDef,
                                       ast.Import, ast.ImportFrom))
              for d in _reads(node)]  # what a module runs on import
    for dotted in entry_points:
        module, name = dotted.split(".")
        assert name in defs.get(module, {}), f"no definition {dotted}"
        roots.append((module, name))

    reached, todo = set(), [r for r in roots if r is not None]
    while todo:
        module, name = todo.pop()
        if (module, name) not in reached:
            reached.add((module, name))
            todo += [r for r in (lookup(module, d)
                                 for d in _reads(defs[module][name]))
                     if r is not None]
    return sorted(f"{m}.{n}" for m, names in defs.items() for n in names
                  if (m, n) not in reached)


def entry_points() -> list:
    """``module.function`` of each console script in ``pyproject.toml``."""
    text = (ROOT / "pyproject.toml").read_text()
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return [f"{m}.{f}" for m, f in
            re.findall(r'=\s*"growrbm\.(\w+):(\w+)"', section)]


def test_every_definition_is_reachable():
    assert unreachable(PACKAGE, USERS, entry_points()) == []


def test_reachability_scan_flags_an_unreachable_helper(tmp_path):
    copy = tmp_path / "growrbm"
    shutil.copytree(PACKAGE, copy)
    with open(copy / "data.py", "a") as f:
        f.write("\n\ndef _orphan(seq):\n    return load_jsonl(seq)\n")
    with open(copy / "rbm.py", "a") as f:
        f.write("\n\nclass Orphan:\n    pass\n")
    with open(copy / "metrics.py", "a") as f:
        f.write("\n\ndef _orphan(pred):\n    return fraction_correct(pred, pred)\n")
    assert unreachable(copy, USERS, entry_points()) == [
        "data._orphan", "metrics._orphan", "rbm.Orphan"]


@functools.cache
def cli_import() -> list:
    """What a fresh interpreter that sees only ``src`` prints on
    ``import growrbm.cli``: the names the package binds before it, then
    the package modules loaded after it."""
    code = ("import sys, growrbm\n"
            "print(sorted(n for n in vars(growrbm) if not n.startswith('__')))\n"
            "import growrbm.cli\n"
            "print(sorted(n for n in sys.modules if n.startswith('growrbm.')))\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.splitlines()


def test_cli_loads_no_oracle_and_package_binds_only_its_version():
    """The interpreter cannot see ``tests/``, so the command line loads
    without the oracles."""
    assert cli_import()[0] == "[]"


def test_cli_loads_every_package_module():
    """A module the command line does not load holds only what the tests
    run, and belongs with them."""
    assert cli_import()[1] == str([f"growrbm.{p.stem}" for p in MODULES])


def imports_scipy(source: str) -> bool:
    """Whether ``source`` imports ``scipy`` or one of its submodules."""
    names = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Import):
            names += [alias.name for alias in n.names]
        elif isinstance(n, ast.ImportFrom):
            names.append(n.module or "")
    return any(name.split(".")[0] == "scipy" for name in names)


def test_only_numerics_imports_scipy():
    """scipy's ``expit`` in ``numerics`` is the package's one scipy use,
    so running without scipy is a change to one module."""
    assert [p.stem for p in MODULES if imports_scipy(p.read_text())] == [
        "numerics"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_only_exact_enumerates(path):
    """No package module defines an ``*_exact`` function or imports
    ``logsumexp``, the enumeration oracles' normaliser: the oracles live
    in ``tests/oracles.py``."""
    tree = ast.parse(path.read_text())
    assert [n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)
            and n.name.endswith("_exact")] == []
    assert [a.name for n in ast.walk(tree)
            if isinstance(n, (ast.Import, ast.ImportFrom))
            for a in n.names if a.name.split(".")[-1] == "logsumexp"] == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "numerics"],
                         ids=lambda p: p.stem)
def test_only_numerics_clamps(path):
    """No module but ``numerics`` names ``_logistic``, the clamp without
    a finiteness check: a loop that leaves bare ``expit`` reruns on
    ``sigmoid``."""
    tree = ast.parse(path.read_text())
    names = [getattr(n, "id", None) or getattr(n, "attr", None)
             for n in ast.walk(tree)
             if isinstance(n, (ast.Name, ast.Attribute))]
    names += [a.name for n in ast.walk(tree)
              if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names]
    assert "_logistic" not in names


# the frame loops: module -> functions whose loops make numpy calls per
# step; ``_conditional`` is one chain step and ``cd_step`` runs once per
# batch, so their whole bodies count
FRAME_LOOPS = {
    "rbm": ("_cd_chain", "_conditional", "cd_step"),
    "rnn_rbm": ("unroll", "_chain_through_state", "_mean_field_marginals"),
    "rnn_dbn": ("sample_sequence_deep",),
}
WHOLE_BODY = ("_conditional", "cd_step")
SLOW = ("moveaxis", "dot")  # np.moveaxis and np.dot run Python first


def slow_call_forms(source: str, functions) -> list:
    """``(function, line, form)`` for every ``out=`` keyword inside a loop
    of ``functions`` (anywhere in a :data:`WHOLE_BODY` one) and every
    ``np.moveaxis`` or ``np.dot`` that they name."""
    found = []
    for fn in ast.parse(source).body:
        if not isinstance(fn, ast.FunctionDef) or fn.name not in functions:
            continue
        loops = [fn] if fn.name in WHOLE_BODY else [
            n for n in ast.walk(fn) if isinstance(n, (ast.For, ast.While))]
        found += sorted({(fn.name, k.value.lineno, "out=")
                         for loop in loops for n in ast.walk(loop)
                         if isinstance(n, ast.Call)
                         for k in n.keywords if k.arg == "out"})
        found += [(fn.name, n.lineno, f"np.{n.attr}") for n in ast.walk(fn)
                  if isinstance(n, ast.Attribute) and n.attr in SLOW
                  and isinstance(n.value, ast.Name) and n.value.id == "np"]
    return found


@pytest.mark.parametrize("module", sorted(FRAME_LOOPS))
def test_frame_loops_pass_outputs_positionally(module):
    """The frame loops' per-step calls keep to numpy's per-call floor:
    an output passed positionally, not parsed from ``out=``, products
    by ``ndarray.dot`` or ``np.matmul`` and transposes by view."""
    source = (PACKAGE / f"{module}.py").read_text()
    assert slow_call_forms(source, FRAME_LOOPS[module]) == []


def test_call_form_scan_flags_slow_forms():
    source = ("def unroll(a, b, c):\n"
              "    np.add(a, b, out=c)\n"
              "    dot = np.dot\n"
              "    for t in range(3):\n"
              "        np.add(a, np.moveaxis(b, 0, 1), c)\n"
              "        a.sum(axis=0, out=c)\n"
              "def _conditional(x, M, out):\n"
              "    np.matmul(x, M, out=out)\n"
              "def other(a, c):\n"
              "    for t in range(3):\n"
              "        np.dot(a, a, out=c)\n")
    assert slow_call_forms(source, ("unroll", "_conditional")) == [
        ("unroll", 6, "out="), ("unroll", 3, "np.dot"),
        ("unroll", 5, "np.moveaxis"), ("_conditional", 8, "out=")]


def test_readme_library_sketch_imports_run():
    readme = (ROOT / "README.md").read_text()
    sketch = readme.split("## Library sketch", 1)[1]
    block = re.search(r"```python\n(.*?)```", sketch, flags=re.S).group(1)
    imports = [line for line in block.splitlines()
               if line.startswith(("import ", "from "))]
    assert len(imports) >= 5
    exec("\n".join(imports), {})
