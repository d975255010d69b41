"""reprolint — architectural-invariant static analysis for the repro codebase.

A stdlib-``ast`` linter that machine-checks the cross-plane invariants the
repository's correctness rests on (see ``README.md`` §"Static analysis &
invariants"):

``env-gateway``
    Every ``os.environ`` / ``os.getenv`` read lives in ``repro/config.py``.
``numpy-containment``
    ``import numpy`` stays behind the kernel/frame/store allowlist and
    is always guarded, so pure-Python checkouts import cleanly.
``typed-errors``
    Each plane raises its own typed :class:`~repro.exceptions.ReproError`
    subclass; bare ``except:`` and ``except Exception: pass`` are banned.
``no-record-hot-path``
    Columnar hot-path modules never touch ``.records`` or build per-record
    Python structures.
``lock-order``
    The lock-acquisition graph across the concurrent modules is cycle-free
    and state locks are not held across blocking calls.

Findings on a specific line can be waived with an explicit suppression
comment naming the rule::

    risky_line()  # reprolint: disable=rule-name -- justification

Use ``reprolint.run_paths`` programmatically, ``python -m reprolint`` or
``repro lint`` from a checkout.
"""

from __future__ import annotations

from reprolint.engine import Finding, LintReport, Module, lint_modules, load_modules
from reprolint.rules import ALL_RULES, get_rules

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintReport",
    "Module",
    "get_rules",
    "lint_modules",
    "load_modules",
    "run_paths",
]


def run_paths(paths, rules=None) -> LintReport:
    """Lint ``paths`` (files or directories) with ``rules`` (default: all)."""
    modules = load_modules(paths)
    return lint_modules(modules, get_rules(rules))
