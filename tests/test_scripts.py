"""Every script under scripts/ imports, and every package call it makes
binds to the function's signature: a script that reads a package name
the package no longer has, or passes parameters it no longer takes, fails
here rather than on its next run.  Each is loaded by path with src/ and
scripts/ on sys.path, as running it would; their work sits under
`if __name__ == "__main__"`, so importing runs none of it."""

import importlib.util
from pathlib import Path

import pytest

from package_uses import package_uses, unbound

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.stem for p in SCRIPTS])
def test_script_imports(monkeypatch, path):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.stem for p in SCRIPTS])
def test_script_calls_bind(path):
    bad = unbound(package_uses(path))
    assert not bad, f"{path.name} uses that no longer resolve or bind:\n" + "\n".join(bad)
