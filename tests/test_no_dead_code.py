"""Every function, method and class in the package is referenced from it,
and every module-level import is referenced in its module.

A definition counts as referenced when its name appears as a ``Name`` or an
``Attribute`` somewhere in ``src/ncspheres/*.py`` outside the definition's
own body.  Dunder methods are exempt, since the language calls them.  A
definition that only tests reach fails here: delete it, or give the
verifier a use for it.  An import counts as referenced when the name it
binds appears as a ``Name`` in the module that imports it; ``from
__future__ import annotations`` binds no name and is exempt.  Every
parameter of a function, method or lambda is read in its body; ``self``,
``cls`` and names that start with ``_`` are exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ncspheres"


def _definitions(body, prefix):
    """(qualified name, node) of every function, method and class in body."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{prefix}{node.name}", node
            yield from _definitions(node.body, f"{prefix}{node.name}.")


def unreferenced_definitions() -> list:
    """Qualified names of the package's definitions that nothing references."""
    refs = {}  # name -> ids of the Name/Attribute nodes that mention it
    defs = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, set()).add(id(node))
        defs.extend(_definitions(tree.body, f"{path.stem}."))
    dead = []
    for qualname, node in defs:
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        inside = {id(n) for n in ast.walk(node)}
        if not refs.get(node.name, set()) - inside:
            dead.append(qualname)
    return dead


def test_every_definition_is_referenced_by_the_package():
    assert unreferenced_definitions() == []


def unused_imports() -> list:
    """module: name for each module-level import of the package whose name
    its own module never reads."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read:
                        unused.append(f"{path.stem}: {name}")
    return unused


def test_every_module_level_import_is_referenced_in_its_module():
    assert unused_imports() == []


def unused_parameters() -> list:
    """module:line name for each parameter of a package function, method or
    lambda that its body never reads."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            unused.extend(f"{path.stem}:{node.lineno} {p.arg}" for p in params
                          if p.arg not in ("self", "cls") and not p.arg.startswith("_")
                          and p.arg not in read)
    return unused


def test_every_parameter_is_read_in_its_body():
    assert unused_parameters() == []
