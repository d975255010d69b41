"""Pluggable spatial index backends (pointer reference vs array-backed flat).

Every static (bulk-loaded, read-only) R-tree in the library — the data trees
of BBS/sTSS, the baselines' transformed-space trees and the main-memory tree
of virtual skyline points — is built through a backend selected here,
mirroring the dominance-kernel registry in :mod:`repro.kernels`:

1. an explicit ``index`` argument passed to the consuming algorithm,
2. a process-wide override installed with :func:`set_default_index`
   (the CLI's ``--index`` flag uses this),
3. the ``REPRO_INDEX`` environment variable,
4. automatic: ``flat`` when NumPy is importable, else ``pointer``.

``pointer`` is the reference :class:`~repro.index.rtree.RTree` (always
available, and the only backend supporting inserts/deletes — the dynamic
algorithms keep it unconditionally).  ``flat`` is the structure-of-arrays
:class:`~repro.index.flat.FlatRTree`, bulk-loaded with a fully vectorized
STR and traversed without per-entry Python objects; it requires NumPy.
"""

from __future__ import annotations

from repro.config import env_index_name
from repro.exceptions import ExperimentError

__all__ = [
    "available_indexes",
    "resolve_index",
    "set_default_index",
]

_ALIASES = {
    "pointer": "pointer",
    "rtree": "pointer",
    "flat": "flat",
    "array": "flat",
}

_default_override: str | None = None


def _numpy_available() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def available_indexes() -> tuple[str, ...]:
    """Canonical names of the backends usable in this environment."""
    names = ["pointer"]
    if _numpy_available():
        names.append("flat")
    return tuple(names)


def _canonical(name: str) -> str:
    try:
        return _ALIASES[name.strip().lower()]
    except KeyError:
        raise ExperimentError(
            f"unknown index backend {name!r}; known: {sorted(set(_ALIASES))}"
        ) from None


def resolve_index(name: str | None = None) -> str:
    """The canonical backend name for ``name`` (or the process default).

    Raises :class:`~repro.exceptions.ExperimentError` when the flat backend
    is requested (explicitly, via the override or via ``REPRO_INDEX``) in an
    environment without NumPy.
    """
    if name is None:
        if _default_override is not None:
            name = _default_override
        else:
            name = env_index_name() or (
                "flat" if _numpy_available() else "pointer"
            )
    canonical = _canonical(name)
    if canonical == "flat" and not _numpy_available():
        raise ExperimentError(
            "the 'flat' index backend requires NumPy; install the [numpy] "
            "extra or select REPRO_INDEX=pointer"
        )
    return canonical


def set_default_index(name: str | None) -> None:
    """Install (or clear, with ``None``) a process-wide backend override."""
    global _default_override
    _default_override = None if name is None else _canonical(name)
