"""Every script under scripts/ imports: a script that reads a package name
the package no longer has fails here rather than on its next run.  Each
is loaded by path with src/ and scripts/ on sys.path, as running it
would; their work sits under `if __name__ == "__main__"`, so importing
runs none of it."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.stem for p in SCRIPTS])
def test_script_imports(monkeypatch, path):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
