import ast
import dataclasses
from pathlib import Path

import pytest

import symdisk
from symdisk.config import DEFAULT, Tolerances, with_overrides
from symdisk.errors import InputError

SRC = Path(symdisk.__file__).resolve().parent


def test_every_tolerance_field_is_read():
    # a field that no module reads is a knob that --tol-<name> accepts and ignores
    text = "".join(path.read_text() for path in sorted(SRC.glob("*.py"))
                   if path.name != "config.py")
    unread = [f.name for f in dataclasses.fields(Tolerances) if f".{f.name}" not in text]
    assert unread == []


def _defined_names(node):
    """Names a module-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_every_private_helper_is_referenced():
    # a module-level _name that nothing in the package uses outside its own
    # definition is dead code that a simplification left behind
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = []   # (module, line, name) of every name read or imported
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((module, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                uses.append((module, node.lineno, node.attr))
            elif isinstance(node, ast.alias):
                uses.append((module, node.lineno, node.name))
    orphans = []
    for module, tree in trees.items():
        for node in tree.body:
            for name in _defined_names(node):
                if not name.startswith("_") or name.startswith("__"):
                    continue
                if not any(n == name and not (m == module and
                                              node.lineno <= line <= node.end_lineno)
                           for m, line, n in uses):
                    orphans.append(f"{module}:{name}")
    assert orphans == []


@pytest.mark.parametrize("field, value", [
    ("n_theta", 0), ("n_steps", 0),
    ("tol_nu", float("nan")), ("tol_nu", float("inf")), ("tol_mod", -1.0),
    ("tol_memb", 0.0), ("dist_guard", 1.0), ("dist_guard", 1.5),
])
def test_bad_tolerance_values_rejected(field, value):
    with pytest.raises(InputError, match=f"bad tolerance value: {field}"):
        Tolerances(**{field: value})
    with pytest.raises(InputError, match=f"bad tolerance value: {field}"):
        with_overrides(DEFAULT, **{field: value})


def test_smallest_valid_values_accepted():
    cfg = with_overrides(DEFAULT, n_theta=1, n_steps=1, dist_guard=0.99, tol_memb=5e-324)
    assert (cfg.n_theta, cfg.n_steps) == (1, 1)
