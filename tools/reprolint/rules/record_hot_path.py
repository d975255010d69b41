"""no-record-hot-path: columnar hot paths never materialize Record objects.

The columnar planes carry data as contiguous typed columns end to end
(encode once, stream zero-copy blocks); one stray ``dataset.records`` walk
or per-record ``Record(...)`` construction silently reintroduces the
O(rows) Python-object path the plane exists to avoid — the benchmarks gate
the speedup but not *where* it came from.  Modules on the hot path
(:data:`HOT_MODULES`) therefore must not touch ``.records`` / ``.record``
attributes or name the ``Record`` class at all.

The one sanctioned crossing — the ingest boundary where records are encoded
into a frame exactly once — carries a line-level suppression naming this
rule, so it is visible and justified in the source.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from reprolint.engine import Finding, Module, Rule

#: module names / package prefixes on the columnar hot path.
HOT_MODULES = (
    "repro.kernels",
    "repro.data.columns",
    "repro.engine.prefilter",
    "repro.engine.groups",
    "repro.parallel.executor",
    "repro.skyline.bnl",
    "repro.skyline.less",
    "repro.skyline.sfs",
)

RECORD_ATTRIBUTES = frozenset({"records", "record"})


def _hot(name: str) -> bool:
    return any(
        name == prefix or name.startswith(prefix + ".") for prefix in HOT_MODULES
    )


def check(module: Module) -> Iterable[Finding]:
    if not _hot(module.name):
        return
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Attribute) and node.attr in RECORD_ATTRIBUTES:
            yield module.finding(
                RULE.name,
                node,
                f".{node.attr} on the columnar hot path — stream frame "
                "columns/row views instead of per-record objects",
            )
        elif isinstance(node, ast.Name) and node.id == "Record":
            yield module.finding(
                RULE.name,
                node,
                "Record on the columnar hot path — hot-path modules must "
                "not construct or type against per-record objects",
            )


RULE = Rule(
    name="no-record-hot-path",
    description="hot-path modules never touch .records / Record",
    check=check,
)
