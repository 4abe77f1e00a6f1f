"""The benchmark's names for library functions still resolve.

``bench/spans.py`` wraps twelve functions by module and name for
``--trace 1``, and ``bench/workloads.py`` and ``bench/run.py`` import
functions of the package directly.  A rename or deletion in the library
would break those runs without failing any other test, so each name is
checked here.  ``spans.py`` is loaded from its path; the other two are only
parsed, since they import benchmark-local modules.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_spans().TARGETS


def _raygrowth_imports(path):
    """(module, name) for every ``from raygrowth... import name`` and
    (module, None) for every ``import raygrowth...`` in a source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "raygrowth":
            found.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend((alias.name, None) for alias in node.names
                         if alias.name.split(".")[0] == "raygrowth")
    return found


def test_twelve_span_targets():
    assert len(TARGETS) == 12


@pytest.mark.parametrize("module,name,arg", TARGETS, ids=[f"{m}.{f}" for m, f, _ in TARGETS])
def test_span_target_exists(module, name, arg):
    fn = getattr(importlib.import_module(f"raygrowth.{module}"), name)
    assert callable(fn)
    if arg is not None:
        # the tracer reads the point count from this positional argument
        pos, key = arg
        assert list(inspect.signature(fn).parameters)[pos] == key


@pytest.mark.parametrize("script", ["workloads.py", "run.py"])
def test_bench_imports_resolve(script):
    imports = _raygrowth_imports(BENCH / script)
    assert imports
    for module, name in imports:
        mod = importlib.import_module(module)
        if name is not None:
            assert hasattr(mod, name), f"{script} imports {module}.{name}"
