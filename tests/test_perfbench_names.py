"""The benchmark tracer wraps package functions by name and the worker
calls them; every name either uses must still resolve, and every call
the worker makes must still bind to its function's signature, so that
renaming a function or changing its parameters fails here rather than
breaking a benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from package_uses import package_uses, unbound

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


def test_worker_calls_bind():
    if not WORKER.exists():
        pytest.skip("perfbench/ is not part of this checkout")
    uses = package_uses(WORKER)
    assert any(n.endswith(".verify_identity") and args for _, n, _, args in uses)
    bad = unbound(uses)
    assert not bad, "worker uses that no longer resolve or bind:\n" + "\n".join(bad)
