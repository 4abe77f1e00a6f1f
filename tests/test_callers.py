"""Every public library function and method has a caller outside the tests,
and every name a file imports is read in it.

A function that only unit tests reach adds API surface, envelope rows and
test rows, and serves no caller; such a function belongs in the tests as a
helper, or nowhere.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "raygrowth").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
IMPORTERS = LIBRARY + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def _foreign_modules(tree):
    """Names a file binds to modules outside the package, such as np or mp:
    mp.gegenbauer names mpmath's function, not the package's."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.asname or a.name.split(".")[0] for a in node.names
                      if not a.name.startswith("raygrowth")}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if not node.module.startswith("raygrowth"):
                names |= {a.asname or a.name for a in node.names}
    return names


def _read_names(node, foreign):
    """Names that ``node`` reads, as a name or as an attribute of a name
    that is not a foreign module."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
            if isinstance(sub, ast.Name) or isinstance(sub, ast.Attribute)
            and not (isinstance(sub.value, ast.Name) and sub.value.id in foreign)}


def _statements(tree):
    """(owner, node) for each top-level statement, each method of a
    top-level class a statement of its own: the owner is a function's name,
    a method's "Class.method", or None."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            yield (node.name if isinstance(node, ast.FunctionDef) else None), node
            continue
        for part in node.body:
            yield (f"{node.name}.{part.name}" if isinstance(part, ast.FunctionDef) else None), part
        for part in node.decorator_list + node.bases + node.keywords:
            yield None, part


def test_every_public_function_has_a_caller():
    # (file, owner, names read there) for each statement of _statements
    reads = []
    for path in CALLERS:
        tree = ast.parse(path.read_text(), str(path))
        foreign = _foreign_modules(tree)
        reads += [(path, owner, _read_names(node, foreign)) for owner, node in _statements(tree)]
    uncalled = [
        f"{path.stem}.{owner}" for path, owner, _ in reads
        if path in LIBRARY and owner and not any(part.startswith("_") for part in owner.split("."))
        # a function's own body, recursion included, does not call it
        and not any(owner.split(".")[-1] in names
                    for where, by, names in reads if (where, by) != (path, owner))
    ]
    assert not uncalled, f"public functions and methods that only tests reach: {uncalled}"


def test_every_import_is_read():
    unread = []
    for path in IMPORTERS:
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                read |= {elt.value for elt in node.value.elts}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unread += [f"{path.relative_to(ROOT)}: {name}" for name in
                           (a.asname or a.name.split(".")[0] for a in node.names) if name not in read]
    assert not unread, f"imports never read: {unread}"
