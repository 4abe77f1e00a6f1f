"""Every public library function has a caller outside the tests.

A function that only unit tests reach adds API surface, envelope rows and
test rows, and serves no caller; such a function belongs in the tests as a
helper, or nowhere.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "raygrowth").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))

# legendre_p_cut backs acceptance criterion 05 (the plane-case reduction,
# degree symmetry and order recurrence of the Legendre function on the cut),
# which only that test calls
ALLOWED = {"legendre_p_cut"}

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


def test_every_public_function_has_a_caller():
    # (file, top-level function or None, names read there) for each top-level statement
    reads = []
    for path in CALLERS:
        tree = ast.parse(path.read_text(), str(path))
        foreign = _foreign_modules(tree)
        reads += [(path, node.name if isinstance(node, ast.FunctionDef) else None,
                   _read_names(node, foreign)) for node in tree.body]
    uncalled = [
        f"{path.stem}.{owner}" for path, owner, _ in reads
        if path in LIBRARY and owner and not owner.startswith("_") and owner not in ALLOWED
        # a function's own body, recursion included, does not call it
        and not any(owner in names for where, by, names in reads if (where, by) != (path, owner))
    ]
    assert not uncalled, f"public functions that only tests reach: {uncalled}"
