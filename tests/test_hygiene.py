"""Source hygiene: no module of the package imports a name it does not use,
the package reads every private name it defines, each function reads every
local name it binds, only funcexpr turns an expression into a callable
itself, only lixnum reads the cutoffs of its arithmetic, and acceptance and
classify keep no memo beyond one call."""

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


_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _unread_locals(tree: ast.Module) -> set:
    """(line, name) of each name a function binds (an assignment or loop
    target, an `except ... as`, a nested def or class) that neither it nor
    a function nested in it reads; `_` and global or nonlocal names are
    left out."""
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, _FUNCS):
            continue
        bound, read = {}, {"_"}
        for node in ast.walk(fn):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                else:
                    bound.setdefault(node.id, node.lineno)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                read.add(node.target.id)  # x += 1 reads x
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                bound.setdefault(node.name, node.lineno)
            elif isinstance(node, _FUNCS + (ast.ClassDef,)) and node is not fn:
                bound.setdefault(node.name, node.lineno)
        found |= {(line, name) for name, line in bound.items() if name not in read}
    return found


def test_every_local_name_is_read():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        unread += [f"{path.name}:{line} {name}" for line, name in sorted(_unread_locals(tree))]
    assert not unread, f"local names a function binds but never reads: {unread}"


def test_only_funcexpr_compiles():
    # one way from a function spec to a callable: the other modules build a
    # funcexpr.Fn, which compiles once, and never call compile_expr
    refs = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.name != "funcexpr.py" and "compile_expr" in _read(tree) | set(_imported(tree)):
            refs.append(path.name)
    assert not refs, f"modules that call compile_expr themselves: {refs}"


def test_only_lixnum_reads_the_arithmetic_cutoff():
    # where exact arithmetic ends and what a sum absorbs are lixnum's rules:
    # the other modules call its functions (neg, mul, ...) and never test
    # a level against the cutoff themselves
    cutoffs = {"EXACT_ARITH_MAX_LEVEL", "ABSORB_REL"}
    refs = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.name != "lixnum.py" and cutoffs & (_read(tree) | set(_imported(tree))):
            refs.append(path.name)
    assert not refs, f"modules that read lixnum's arithmetic cutoff: {refs}"


def _module_memos(tree: ast.Module) -> list:
    """functools.cache/lru_cache decorators anywhere in the module, and
    module-level names bound to an empty dict or written into by key."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = getattr(target, "attr", getattr(target, "id", ""))
                if name in ("cache", "lru_cache"):
                    found.append(f"{node.lineno} @{name} on {node.name}")
    top = {}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            top.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    for name, node in top.items():
        v = node.value
        empty = ((isinstance(v, ast.Dict) and not v.keys)
                 or (isinstance(v, ast.Call)
                     and getattr(v.func, "id", "") in ("dict", "defaultdict")))
        if empty:
            found.append(f"{node.lineno} {name} = an empty dict")
    for node in ast.walk(tree):
        targets = node.targets if isinstance(node, ast.Assign) else []
        for t in targets:
            if (isinstance(t, ast.Subscript) and isinstance(t.value, ast.Name)
                    and t.value.id in top):
                found.append(f"{node.lineno} {t.value.id}[...] written")
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id in top
                and node.func.attr in ("setdefault", "update", "__setitem__")):
            found.append(f"{node.lineno} {node.func.value.id}.{node.func.attr}")
    return found


@pytest.mark.parametrize("name", ["acceptance.py", "classify.py"])
def test_no_cross_call_memo(name):
    # repro and table share work inside one call only: a cache that
    # outlived the call would make repeated passes free
    memos = _module_memos(ast.parse((SRC / name).read_text(), filename=name))
    assert not memos, f"{name}: module-level memos {memos}"
