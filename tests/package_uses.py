"""Each use a source file makes of a package name, and the uses that no
longer resolve or bind: the benchmark worker and every script are read
this way, so that renaming a package function or changing its parameters
fails the tests rather than the next run that calls it."""

import ast
import importlib
import inspect
from pathlib import Path


def package_uses(path: Path) -> list:
    """(line, dotted name, object, args) for each use in the file of a
    package name bound by `from zeta_explicit[.module] import ...`: args
    is (positional count, keyword names) where the use is a call, None
    where the name is only read (a function the file passes on and
    calls under another name is resolved, not bound) or where the call
    unpacks *args or **kwargs, whose count no reading of the file fixes."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
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
        if call and (any(isinstance(a, ast.Starred) for a in call.args)
                     or any(k.arg is None for k in call.keywords)):
            call = None
        uses.append((node.lineno, name, obj, call and (
            len(call.args), [k.arg for k in call.keywords])))
    return uses


def unbound(uses: list) -> list[str]:
    """One line for each use whose name is gone or whose call no longer
    binds to the function's signature."""
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
    return bad
