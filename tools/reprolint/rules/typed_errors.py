"""typed-errors: every plane raises its own typed ``ReproError`` subclass.

Callers dispatch on the exception hierarchy (``StoreError`` names the file
and format version, resolver errors name their ``REPRO_*`` variable, the
service maps error classes onto protocol error payloads), so a generic
``ValueError``/``RuntimeError``/bare ``ReproError`` from inside a plane
breaks that contract.  The rule enforces, per package prefix, the set of
error classes that plane is allowed to raise — plus, repo-wide:

* bare ``except:`` is banned outright;
* ``except Exception:`` (or ``BaseException``) whose body is only
  ``pass``/``...`` is banned — swallowing everything hides real failures
  (suppress explicitly on the rare interpreter-shutdown guard).

Always allowed anywhere: re-raising (``raise`` with no operand or raising a
caught/lowercase variable), ``NotImplementedError``, ``AssertionError``,
``SystemExit`` in CLI entry modules, and the mapping/iterator protocol
exceptions (``KeyError``/``IndexError``/``StopIteration``) inside the dunder
or ``pop``-family methods that implement those protocols.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from reprolint.engine import Finding, Module, Rule

#: Input-shape errors any *consumer* plane may surface while validating what
#: it was handed: they describe the caller's data/order spec, not the plane.
#: The producing planes themselves (store/service/index/...) keep strict sets.
CROSS_CUTTING = frozenset(
    {"SchemaError", "DatasetError", "PartialOrderError", "UnknownValueError",
     "CycleError"}
)

#: package prefix -> error class names that plane may raise.
PLANE_ERRORS: dict[str, frozenset[str]] = {
    "repro.store": frozenset({"StoreError"}),
    "repro.delta": frozenset({"StoreError", "QueryError"}) | CROSS_CUTTING,
    "repro.data": frozenset(
        {"DatasetError", "SchemaError", "ExperimentError", "PartialOrderError",
         "UnknownValueError"}
    ),
    "repro.order": frozenset(
        {"PartialOrderError", "CycleError", "UnknownValueError", "SchemaError"}
    ),
    "repro.index": frozenset({"IndexError_"}),
    # QueryError: malformed query payloads; ServiceError (and its
    # RetryExhaustedError subclass): transport/server; DeadlineExceededError:
    # the typed answer of an expired per-request deadline.
    "repro.service": frozenset(
        {"ServiceError", "QueryError", "RetryExhaustedError",
         "DeadlineExceededError"}
    ),
    "repro.engine": frozenset(
        {"QueryError", "ExperimentError", "StoreError", "DeadlineExceededError"}
    )
    | CROSS_CUTTING,
    "repro.parallel": frozenset(
        {"QueryError", "ExperimentError", "DeadlineExceededError"}
    )
    | CROSS_CUTTING,
    # InjectedFaultError: the default error of a tripped fault point;
    # ExperimentError: malformed REPRO_FAULTS specs (config-shaped input).
    "repro.faults": frozenset({"InjectedFaultError", "ExperimentError"}),
    "repro.skyline": frozenset({"QueryError"}) | CROSS_CUTTING,
    "repro.core": frozenset({"QueryError"}) | CROSS_CUTTING,
    "repro.dynamic": frozenset({"QueryError", "IndexError_"}) | CROSS_CUTTING,
    "repro.baselines": frozenset({"QueryError", "IndexError_"}) | CROSS_CUTTING,
    "repro.bench": frozenset({"ExperimentError"}) | CROSS_CUTTING,
    "repro.kernels": frozenset({"ExperimentError"}),
    "repro.config": frozenset({"ExperimentError"}),
    "repro.api": frozenset({"ExperimentError", "StoreError", "QueryError"})
    | CROSS_CUTTING,
}

ALWAYS_ALLOWED = frozenset({"NotImplementedError", "AssertionError"})
CLI_MODULES = frozenset({"repro.cli", "repro.__main__"})

#: methods implementing a container/iterator protocol where the matching
#: builtin exception *is* the contract.
PROTOCOL_METHODS: dict[str, frozenset[str]] = {
    "KeyError": frozenset(
        {"__getitem__", "__delitem__", "__missing__", "pop", "popitem"}
    ),
    "IndexError": frozenset({"__getitem__", "__delitem__", "pop"}),
    "StopIteration": frozenset({"__next__"}),
    "StopAsyncIteration": frozenset({"__anext__"}),
}

#: Known-generic raises that are flagged even where no plane mapping exists.
GENERIC_ERRORS = frozenset(
    {"Exception", "BaseException", "RuntimeError", "ValueError", "TypeError",
     "KeyError", "IndexError", "OSError", "IOError", "ReproError"}
)


def _plane_for(name: str) -> frozenset[str] | None:
    best: str | None = None
    for prefix in PLANE_ERRORS:
        if (name == prefix or name.startswith(prefix + ".")) and (
            best is None or len(prefix) > len(best)
        ):
            best = prefix
    return PLANE_ERRORS[best] if best is not None else None


def _raised_class(node: ast.Raise) -> str | None:
    """The raised class name, or None for re-raise / variable / dynamic raise."""
    exc = node.exc
    if exc is None:
        return None
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Attribute):
        return exc.attr if exc.attr[:1].isupper() else None
    if isinstance(exc, ast.Name):
        return exc.id if exc.id[:1].isupper() else None
    return None


def _body_only_passes(body: list[ast.stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring or `...`
        return False
    return True


def _walk_with_method(tree: ast.Module):
    """Yield ``(node, enclosing_function_name)`` for every node."""

    def visit(node: ast.AST, func: str | None):
        for child in ast.iter_child_nodes(node):
            inner = func
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            yield child, inner
            yield from visit(child, inner)

    yield from visit(tree, None)


def check(module: Module) -> Iterable[Finding]:
    plane = _plane_for(module.name)
    is_cli = module.name in CLI_MODULES
    for node, func in _walk_with_method(module.tree):
        if isinstance(node, ast.ExceptHandler):
            if node.type is None:
                yield module.finding(
                    RULE.name,
                    node,
                    "bare except: — catch a concrete exception class",
                )
            elif (
                isinstance(node.type, ast.Name)
                and node.type.id in ("Exception", "BaseException")
                and _body_only_passes(node.body)
            ):
                yield module.finding(
                    RULE.name,
                    node,
                    f"except {node.type.id}: pass swallows every failure — "
                    "catch the concrete error or handle it explicitly",
                )
            continue
        if not isinstance(node, ast.Raise):
            continue
        raised = _raised_class(node)
        if raised is None or raised in ALWAYS_ALLOWED:
            continue
        if is_cli and raised == "SystemExit":
            continue
        protocol = PROTOCOL_METHODS.get(raised)
        if protocol is not None and func in protocol:
            continue
        if plane is not None:
            if raised in plane:
                continue
            allowed = ", ".join(sorted(plane))
            yield module.finding(
                RULE.name,
                node,
                f"raise {raised} in {module.name} — this plane raises "
                f"{allowed}",
            )
        elif raised in GENERIC_ERRORS:
            yield module.finding(
                RULE.name,
                node,
                f"raise {raised} — use the plane's typed ReproError subclass",
            )


RULE = Rule(
    name="typed-errors",
    description="planes raise their typed errors; broad excepts banned",
    check=check,
)
