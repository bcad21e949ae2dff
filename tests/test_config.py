import ast
import dataclasses
import runpy
from pathlib import Path

import pytest

import symdisk
from symdisk.config import DEFAULT, Tolerances, with_overrides
from symdisk.errors import InputError

SRC = Path(symdisk.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent


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


def _uses(trees):
    """(module, line, name) of every name read or imported in the parsed modules."""
    uses = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((module, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                uses.append((module, node.lineno, node.attr))
            elif isinstance(node, ast.alias):
                uses.append((module, node.lineno, node.name))
    return uses


def _unreferenced(trees, uses, wanted):
    """module:name of each module-level name that ``wanted`` selects and that no
    use outside its own definition reads."""
    orphans = []
    for module, tree in trees.items():
        for node in tree.body:
            for name in _defined_names(node):
                if not wanted(node, name):
                    continue
                if not any(n == name and not (m == module and
                                              node.lineno <= line <= node.end_lineno)
                           for m, line, n in uses):
                    orphans.append(f"{module}:{name}")
    return orphans


def _package_trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_every_private_helper_is_referenced():
    # a module-level _name that nothing in the package uses outside its own
    # definition is dead code that a simplification left behind
    trees = _package_trees()
    orphans = _unreferenced(trees, _uses(trees), lambda node, name:
                            name.startswith("_") and not name.startswith("__"))
    assert orphans == []


def test_every_public_name_has_a_caller():
    # a public function or class that neither the package nor a script reaches
    # is surface that only its own tests keep alive; the re-export in
    # __init__ does not count as a caller
    trees = _package_trees()
    callers = {name: tree for name, tree in trees.items() if name != "__init__.py"}
    callers.update({f"scripts/{path.name}": ast.parse(path.read_text())
                    for path in sorted((ROOT / "scripts").glob("*.py"))})
    # the benchmark's tracer wraps its layers by name, and the tests build
    # their points and matrices with these two
    exempt = {name for names in runpy.run_path(str(ROOT / "perfbench" / "tracer.py"))
              ["LAYERS"].values() for name in names}
    exempt |= {"symmetrize", "ginibre_contraction"}
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    orphans = _unreferenced(trees, _uses(callers), lambda node, name:
                            isinstance(node, definitions) and not name.startswith("_")
                            and name not in exempt)
    assert orphans == []


def test_point_arrays_are_checked_in_gamma_only():
    # one helper, gamma.point_arrays, validates and flattens (s, p) arrays
    message = '"s and p must have the same shape"'
    assert [path.name for path in sorted(SRC.glob("*.py"))
            if message in path.read_text()] == ["gamma.py"]


def test_every_cfg_parameter_is_read():
    # a function that takes cfg and never reads it ignores a user's override
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            if "cfg" not in [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]:
                continue
            if not any(isinstance(n, ast.Name) and n.id == "cfg"
                       for stmt in node.body for n in ast.walk(stmt)):
                unread.append(f"{path.name}:{node.name}")
    assert unread == []


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
