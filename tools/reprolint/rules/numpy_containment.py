"""numpy-containment: NumPy stays behind the kernel/frame/index/store planes.

The pure-Python fallback is a hard product requirement (the CI matrix runs
every suite without NumPy), so:

* Only modules in :data:`ALLOWED_PREFIXES` — the kernel, frame (columnar
  data/delta), index and store planes — may import ``numpy`` at all.  Everything else routes array work through those
  planes (e.g. ``EncodedFrame`` ordering helpers, kernel bulk calls).
* Inside the allowlist, a module-scope ``import numpy`` must be *guarded*
  (``try: ... except ImportError`` or ``if TYPE_CHECKING``) so importing the
  module never fails on a NumPy-less checkout.  Function-scope imports are
  fine: they only run on NumPy-enabled code paths.
* :data:`NUMPY_REQUIRED` modules (the NumPy kernel, the flat R-tree) may
  import NumPy unguarded at module scope — but then *nothing outside that
  set may import them at module scope* either; they are loaded lazily behind
  the kernel/index registries' availability probes.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from reprolint.engine import Finding, Module, Rule

#: Modules that exist only on the NumPy path and are imported lazily behind a
#: registry availability probe; unguarded module-scope `import numpy` is fine.
NUMPY_REQUIRED = frozenset({"repro.kernels.numpy_kernel", "repro.index.flat"})

#: Plane prefixes allowed to import numpy (guarded at module scope).
ALLOWED_PREFIXES = (
    "repro.kernels",
    "repro.data",
    "repro.delta",
    "repro.store",
    "repro.index",
    # Frame-plane extensions: the TSS mapping and virtual R-tree build their
    # coordinate matrices columnar-side, and the dynamic group splitter is
    # the delta plane's columnar builder.
    "repro.core.mapping",
    "repro.core.virtual_rtree",
    "repro.dynamic.groups",
)

_IMPORT_ERRORS = frozenset({"ImportError", "ModuleNotFoundError", "Exception"})


def _allowed(name: str) -> bool:
    return any(
        name == prefix or name.startswith(prefix + ".") for prefix in ALLOWED_PREFIXES
    )


def _is_import_guard(node: ast.Try) -> bool:
    for handler in node.handlers:
        names: tuple[ast.expr, ...]
        if handler.type is None:
            return True
        if isinstance(handler.type, ast.Tuple):
            names = tuple(handler.type.elts)
        else:
            names = (handler.type,)
        for expr in names:
            if isinstance(expr, ast.Name) and expr.id in _IMPORT_ERRORS:
                return True
    return False


def _is_type_checking_if(node: ast.If) -> bool:
    test = node.test
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _imports(node: ast.stmt) -> list[str]:
    """Top-level dotted names imported by an Import/ImportFrom statement."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
        return [node.module]
    return []


def _walk(body: Iterable[ast.stmt], *, guarded: bool, in_function: bool):
    """Yield ``(stmt, guarded, in_function)`` for every statement, tracking
    try/except-ImportError and TYPE_CHECKING guards and function scope."""
    for stmt in body:
        yield stmt, guarded, in_function
        if isinstance(stmt, ast.Try):
            inner = guarded or _is_import_guard(stmt)
            yield from _walk(stmt.body, guarded=inner, in_function=in_function)
            for handler in stmt.handlers:
                yield from _walk(handler.body, guarded=guarded, in_function=in_function)
            yield from _walk(stmt.orelse, guarded=guarded, in_function=in_function)
            yield from _walk(stmt.finalbody, guarded=guarded, in_function=in_function)
        elif isinstance(stmt, ast.If):
            inner = guarded or _is_type_checking_if(stmt)
            yield from _walk(stmt.body, guarded=inner, in_function=in_function)
            yield from _walk(stmt.orelse, guarded=guarded, in_function=in_function)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _walk(stmt.body, guarded=guarded, in_function=True)
        elif isinstance(stmt, (ast.ClassDef, ast.With, ast.AsyncWith)):
            yield from _walk(stmt.body, guarded=guarded, in_function=in_function)
        elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            yield from _walk(stmt.body, guarded=guarded, in_function=in_function)
            yield from _walk(stmt.orelse, guarded=guarded, in_function=in_function)


def check(module: Module) -> Iterable[Finding]:
    if module.name in NUMPY_REQUIRED:
        return
    allowed = _allowed(module.name)
    for stmt, guarded, in_function in _walk(
        module.tree.body, guarded=False, in_function=False
    ):
        targets = _imports(stmt)
        for target in targets:
            if target.split(".", 1)[0] == "numpy":
                if not allowed:
                    yield module.finding(
                        RULE.name,
                        stmt,
                        f"numpy import in {module.name} — outside the "
                        "kernel/frame/index/store allowlist; route array work "
                        "through those planes",
                    )
                elif not guarded and not in_function:
                    yield module.finding(
                        RULE.name,
                        stmt,
                        "unguarded module-scope numpy import — wrap in "
                        "try/except ImportError so pure-Python checkouts "
                        "import cleanly",
                    )
            elif (
                target in NUMPY_REQUIRED
                and not guarded
                and not in_function
            ):
                yield module.finding(
                    RULE.name,
                    stmt,
                    f"module-scope import of NumPy-required module {target} — "
                    "load it lazily behind the registry availability probe",
                )


RULE = Rule(
    name="numpy-containment",
    description="numpy imports only in allowlisted planes, always guarded",
    check=check,
)
