"""No production code that only tests use: every public name that a module
of eqsolve defines, and every public member of its classes, is read by
production code under src/ or perfbench/.  No production code builds a
group or ring descriptor outside the make_* function that interns it.  And
a structure's slots are read in the few scopes that SLOT_READERS names."""

import ast
from collections import Counter
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


def _read_at(node, bare=True):
    """The name one node reads, or None: a loaded attribute, a string that
    is an identifier (perfbench rebinds eqsolve functions and methods by
    name) and, if bare, a loaded name."""
    if bare and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str) \
            and node.value.isidentifier():
        return node.value
    return None


def _reads(tree, bare=True) -> Counter:
    """How often tree reads each name."""
    return Counter(name for node in ast.walk(tree)
                   if (name := _read_at(node, bare)))


def _read(statement):
    """Names a statement reads."""
    return set(_reads(statement))


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


# Read by callers outside the program: the position of a parse error and the
# payloads of a pattern or guard error.
EXCEPTION_PAYLOADS = {("ParseError", "line"), ("ParseError", "col"),
                      ("PatternError", "triple"), ("GuardExceeded", "space"),
                      ("GuardExceeded", "guard")}


def _members(cls):
    """(name, defining node) for each member of a class: methods and
    properties, class attributes and dataclass fields, and the self.x
    attributes __init__ sets."""
    for statement in cls.body:
        if isinstance(statement, ast.FunctionDef):
            yield statement.name, statement
            if statement.name == "__init__":
                yield from ((node.attr, node) for node in ast.walk(statement)
                            if isinstance(node, ast.Attribute)
                            and isinstance(node.ctx, ast.Store)
                            and isinstance(node.value, ast.Name)
                            and node.value.id == "self")
        else:
            yield from ((name, statement) for name in _bound(statement))


def unread_public_members(package, readers):
    """(class, member) for every public member of a class that a module of
    package defines and that no statement of the reader files reads, apart
    from the member's own definition; __init__.py counts neither way, as in
    unread_public_names.  A read is a loaded attribute or an identifier
    string, not a bare name, and reads are matched by name alone: a member
    that shares its name with another class's member passes if either is
    read."""
    trees = {path: ast.parse(path.read_text()) for path in readers
             if path.name != "__init__.py"}
    reads = sum((_reads(tree, bare=False) for tree in trees.values()),
                Counter())
    unread = []
    for path, tree in trees.items():
        if path.parent != package:
            continue
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            unread += [(cls.name, name) for name, node in _members(cls)
                       if not name.startswith("_")
                       and (cls.name, name) not in EXCEPTION_PAYLOADS
                       and reads[name] == _reads(node, bare=False)[name]]
    return unread


def _readers():
    return sorted(PACKAGE.glob("*.py")) + \
        sorted((ROOT / "perfbench").rglob("*.py"))


def test_public_names_are_read_in_production():
    readers = _readers()
    assert len(readers) > 10
    assert unread_public_names(PACKAGE, readers) == []


def test_public_members_are_read_in_production():
    """Exception payloads that callers outside the program read are exempt;
    a member whose name another class's read member shares passes."""
    assert unread_public_members(PACKAGE, _readers()) == []


# The one function that builds each descriptor class, from its table of one
# descriptor per value; descriptors compare by identity, so a descriptor
# built anywhere else would equal none of the table's.
BUILDERS = {"SemipatternGroup": "make_group",
            "NilpotentMatrixRing": "make_ring"}


def descriptor_calls(tree):
    """(class, enclosing function or None) for each call of a BUILDERS
    class in tree, by bare name or attribute."""
    def visit(node, function):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        if isinstance(node, ast.Call) and _read_at(node.func) in BUILDERS:
            yield _read_at(node.func), function
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    return set(visit(tree, None))


def test_descriptors_are_built_only_by_their_make_function():
    calls = set()
    for path in _readers():
        calls |= descriptor_calls(ast.parse(path.read_text()))
    assert calls == set(BUILDERS.items())


# The scopes that read a structure's slots: MatrixStructure turns them into
# its order, base element, membership check, enumeration and the unknowns'
# records, and the ring lays them out as its additive basis.  slot_entries
# is read in domains alone.
SLOT_READERS = {("domains", "MatrixStructure"),
                ("ringexpr", "NilpotentMatrixRing")}


def slot_reads(package):
    """(module, outermost def or class, name) for each loaded .slots
    attribute and each read of slot_entries in package's modules."""
    reads = set()
    for path in sorted(package.glob("*.py")):
        for statement in ast.parse(path.read_text()).body:
            where = getattr(statement, "name", None)
            for node in ast.walk(statement):
                name = _read_at(node)
                if name == "slot_entries" or (
                        name == "slots" and isinstance(node, ast.Attribute)):
                    reads.add((path.stem, where, name))
    return reads


def test_slots_are_read_in_one_place():
    reads = slot_reads(PACKAGE)
    assert {(module, where) for module, where, name in reads
            if name == "slots"} - SLOT_READERS == set()
    assert {module for module, _, name in reads
            if name == "slot_entries"} == {"domains"}
