"""Pluggable dominance kernels (pure-Python reference and NumPy).

Every hot dominance path in the library — tuple dominance in the scan
algorithms, t-dominance in sTSS/dTSS, m-dominance and cross-examination in
the baselines — dispatches through a :class:`~repro.kernels.base.DominanceKernel`
obtained from :func:`get_kernel`.

Backend selection, in decreasing priority:

1. an explicit ``name`` argument (or a kernel instance passed straight to the
   consuming algorithm),
2. a process-wide override installed with :func:`set_default_kernel`
   (the CLI's ``--kernel`` flag uses this),
3. the ``REPRO_KERNEL`` environment variable,
4. automatic: ``numpy`` when NumPy is importable, else ``purepython``.

NumPy is an optional dependency; the pure-Python backend is always
available and defines the semantics the NumPy backend must reproduce.
"""

from __future__ import annotations

from repro.config import env_kernel_name
from repro.exceptions import ExperimentError
from repro.kernels.base import (
    DominanceKernel,
    RecordStore,
    TDominanceStore,
    TODominanceGraph,
    VectorStore,
)
from repro.kernels.purepython import PurePythonKernel
from repro.kernels.tables import PreferenceTable, RecordTables, TDominanceTables

__all__ = [
    "DominanceKernel",
    "PreferenceTable",
    "PurePythonKernel",
    "RecordStore",
    "RecordTables",
    "TDominanceStore",
    "TDominanceTables",
    "TODominanceGraph",
    "VectorStore",
    "available_kernels",
    "get_kernel",
    "resolve_kernel",
    "set_default_kernel",
]

_ALIASES = {
    "purepython": "purepython",
    "python": "purepython",
    "pure": "purepython",
    "numpy": "numpy",
    "np": "numpy",
}

_instances: dict[str, DominanceKernel] = {}
_default_override: str | None = None


def _numpy_imports() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def available_kernels() -> tuple[str, ...]:
    """Canonical names of the backends usable in this environment."""
    if _numpy_imports():
        return ("purepython", "numpy")
    return ("purepython",)


def _canonical(name: str) -> str:
    try:
        return _ALIASES[name.strip().lower()]
    except KeyError:
        raise ExperimentError(
            f"unknown dominance kernel {name!r}; known: {sorted(set(_ALIASES))}"
        ) from None


def _build(name: str) -> DominanceKernel:
    if name == "purepython":
        return PurePythonKernel()
    if name == "numpy":
        if not _numpy_imports():
            raise ExperimentError(
                "the 'numpy' dominance kernel requires NumPy; install the "
                "[numpy] extra or select REPRO_KERNEL=purepython"
            )
        from repro.kernels.numpy_kernel import NumpyKernel

        return NumpyKernel()
    raise ExperimentError(f"unknown dominance kernel {name!r}")  # pragma: no cover


def get_kernel(name: str | None = None) -> DominanceKernel:
    """The kernel instance for ``name`` (or the process default, see above)."""
    if name is None:
        if _default_override is not None:
            name = _default_override
        else:
            name = env_kernel_name() or (
                "numpy" if _numpy_imports() else "purepython"
            )
    canonical = _canonical(name)
    instance = _instances.get(canonical)
    if instance is None:
        instance = _instances[canonical] = _build(canonical)
    return instance


def resolve_kernel(kernel: DominanceKernel | str | None) -> DominanceKernel:
    """Coerce an algorithm's ``kernel`` argument (instance, name or None)."""
    if isinstance(kernel, DominanceKernel):
        return kernel
    return get_kernel(kernel)


def set_default_kernel(name: str | None) -> None:
    """Install (or clear, with ``None``) a process-wide backend override."""
    global _default_override
    _default_override = None if name is None else _canonical(name)
