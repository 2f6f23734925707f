"""The benchmark tracer wraps package functions by name; every name it
lists must still resolve, so that renaming or deleting one fails here
rather than breaking a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
