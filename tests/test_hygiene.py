"""Source hygiene: no module of the package imports a name it does not use,
the package reads every private name it defines, and only funcexpr turns
an expression into a callable itself."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "growthcalc"


def _imported(tree: ast.Module) -> dict:
    """Bound name -> line of every import, `from __future__` left out."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                names[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                names[a.asname or a.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set:
    """Names the module reads, plus the strings listed in its __all__."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_defs(tree: ast.Module) -> dict:
    """Private name -> line of every top-level function, class and constant
    of a module, and of every method of its classes."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [(node.name, node.lineno)]
            if isinstance(node, ast.ClassDef):
                names += [(item.name, item.lineno) for item in node.body
                          if isinstance(item, ast.FunctionDef)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [(n.id, node.lineno) for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        defs.update((name, line) for name, line in names if _private(name))
    return defs


def _read(tree: ast.Module) -> set:
    """Names and attributes the module loads."""
    loads = [n for n in ast.walk(tree) if isinstance(getattr(n, "ctx", None), ast.Load)]
    return ({n.id for n in loads if isinstance(n, ast.Name)}
            | {n.attr for n in loads if isinstance(n, ast.Attribute)})


def test_every_private_name_is_read():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    read = set().union(*map(_read, trees.values()))
    unread = [f"{path}:{line} {name}" for path, tree in trees.items()
              for name, line in _private_defs(tree).items() if name not in read]
    assert not unread, f"private names the package defines but never reads: {unread}"


def test_only_funcexpr_compiles():
    # one way from a function spec to a callable: the other modules build a
    # funcexpr.Fn, which compiles once, and never call compile_expr
    refs = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.name != "funcexpr.py" and "compile_expr" in _read(tree) | set(_imported(tree)):
            refs.append(path.name)
    assert not refs, f"modules that call compile_expr themselves: {refs}"
