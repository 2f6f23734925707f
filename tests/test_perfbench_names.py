"""The benchmark tracer wraps package functions by name and the worker
calls them; every name either uses must still resolve, and every call
the worker makes must still bind to its function's signature, so that
renaming a function or changing its parameters fails here rather than
breaking a benchmark run."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKER = PERFBENCH / "worker.py"


@pytest.fixture(scope="module")
def tracing():
    if not TRACING.exists():
        pytest.skip("perfbench/ is not part of this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(package: str, modname: str, fname: str):
    module = importlib.import_module(f"{package}.{modname}")
    return getattr(module, fname, None)


def test_wrapped_names_resolve(tracing):
    missing = [f"{m}.{f}" for m, names in tracing.WRAPPED.items() for f in names
               if not callable(_resolve(tracing.PACKAGE, m, f))]
    assert not missing, f"tracer names no longer in the package: {missing}"


def test_attr_keys_resolve(tracing):
    missing = [key for key in tracing._ATTR
               if not callable(_resolve(tracing.PACKAGE, *key.split(".", 1)))]
    assert not missing, f"tracer attribute keys no longer in the package: {missing}"


def _worker_uses():
    """(line, dotted name, object, args) for each use in the worker of a
    package name bound by `from zeta_explicit[.module] import ...`: args
    is (positional count, keyword names) where the use is a call, None
    where the name is only read (a function the worker passes on and
    calls under another name is resolved, not bound)."""
    tree = ast.parse(WORKER.read_text(encoding="utf-8"))
    bound = {}   # local name -> (dotted name, package module or object)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("zeta_explicit"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                bound[alias.asname or alias.name] = (name, getattr(module, alias.name, None)
                                                     if node.module != "zeta_explicit"
                                                     else importlib.import_module(name))
    calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and inspect.ismodule(bound.get(node.value.id, (0, 0))[1]):
            name, module = bound[node.value.id]
            name, obj = f"{name}.{node.attr}", getattr(module, node.attr, None)
        elif isinstance(node, ast.Name) and node.id in bound \
                and not inspect.ismodule(bound[node.id][1]):
            name, obj = bound[node.id]
        else:
            continue
        call = calls.get(id(node))
        uses.append((node.lineno, name, obj, call and (
            len(call.args), [k.arg for k in call.keywords])))
    return uses


def test_worker_calls_bind():
    if not WORKER.exists():
        pytest.skip("perfbench/ is not part of this checkout")
    uses = _worker_uses()
    assert any(n.endswith(".verify_identity") and args for _, n, _, args in uses)
    bad = []
    for line, name, obj, args in uses:
        if obj is None:
            bad.append(f"line {line}: {name} is no longer in the package")
        elif args is not None:
            npos, keywords = args
            try:
                inspect.signature(obj).bind(*[None] * npos, **dict.fromkeys(keywords))
            except TypeError as exc:
                bad.append(f"line {line}: {name}: {exc}")
    assert not bad, "worker uses that no longer resolve or bind:\n" + "\n".join(bad)
