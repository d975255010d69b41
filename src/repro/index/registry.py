"""Spatial index backends (pointer reference vs array-backed flat).

Every static (bulk-loaded, read-only) R-tree in the library — the data trees
of BBS/sTSS, the baselines' transformed-space trees and the main-memory tree
of virtual skyline points — is built through a backend named here.  An
explicit ``index`` argument to the consuming algorithm wins (tests and the
index benchmark use it to run the pointer reference next to ``flat``);
otherwise the backend follows the environment: ``flat`` when NumPy is
importable, else ``pointer``.

``pointer`` is the reference :class:`~repro.index.rtree.RTree` (always
available, and the only backend supporting inserts/deletes — the dynamic
algorithms keep it unconditionally).  ``flat`` is the structure-of-arrays
:class:`~repro.index.flat.FlatRTree`, bulk-loaded with a fully vectorized
STR and traversed without per-entry Python objects; it requires NumPy.
"""

from __future__ import annotations

import functools

from repro.exceptions import ExperimentError

__all__ = [
    "available_indexes",
    "resolve_index",
]

_BACKENDS = ("pointer", "flat")


@functools.cache
def _numpy_available() -> bool:
    # Probed once per process: every query thread resolves the default, and
    # the answer cannot change while the process runs.
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def available_indexes() -> tuple[str, ...]:
    """Names of the backends usable in this environment."""
    return _BACKENDS if _numpy_available() else _BACKENDS[:1]


def resolve_index(name: str | None = None) -> str:
    """The backend name for ``name``; ``None`` means ``flat`` iff NumPy imports.

    Raises :class:`~repro.exceptions.ExperimentError` for an unknown name or
    for ``flat`` in an environment without NumPy.
    """
    if name is None:
        return "flat" if _numpy_available() else "pointer"
    if name not in _BACKENDS:
        raise ExperimentError(
            f"unknown index backend {name!r}; known: {', '.join(_BACKENDS)}"
        )
    if name == "flat" and not _numpy_available():
        raise ExperimentError("the 'flat' index backend requires NumPy")
    return name
