"""No production code that only tests use: every public name that a module
of eqsolve defines is read by production code under src/ or perfbench/."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "eqsolve"


def _bound(statement):
    """Names a module-level def, class or assignment binds."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, ast.Assign):
        return {t.id for t in statement.targets if isinstance(t, ast.Name)}
    if isinstance(statement, ast.AnnAssign) and \
            isinstance(statement.target, ast.Name):
        return {statement.target.id}
    return set()


def _read(statement):
    """Names a statement reads: loaded names and attributes, and strings
    that are identifiers (perfbench rebinds eqsolve functions by name)."""
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and \
                isinstance(node.value, str) and node.value.isidentifier():
            names.add(node.value)
    return names


def unread_public_names(package, readers):
    """(module, name) for every public module-level name that a module of
    package defines and that no statement of the reader files reads, apart
    from the statement defining it.  The reader files include package's own
    modules; its __init__.py only re-exports, so it neither defines nor
    reads."""
    bodies = {path: ast.parse(path.read_text()).body for path in readers
              if path.name != "__init__.py"}
    reads = [(statement, _read(statement))
             for body in bodies.values() for statement in body]
    unread = []
    for path, body in bodies.items():
        if path.parent != package:
            continue
        for statement in body:
            unread += [(path.stem, name)
                       for name in sorted(_bound(statement))
                       if not name.startswith("_")
                       and not any(name in names for other, names in reads
                                   if other is not statement)]
    return unread


def test_public_names_are_read_in_production():
    readers = sorted(PACKAGE.glob("*.py")) + \
        sorted((ROOT / "perfbench").rglob("*.py"))
    assert len(readers) > 10
    assert unread_public_names(PACKAGE, readers) == []
