"""Persistent single-file storage for encoded datasets.

``pack_dataset`` writes a dataset's encoded artifacts (frame and prefilter
survivors) into one page-aligned, checksummed file; ``DatasetStore`` opens it and reconstructs zero-copy
``np.memmap`` views (or tuple-backed columns without NumPy).  See
:mod:`repro.store.format` for the byte layout.
"""

from repro.exceptions import StoreError
from repro.store.format import FORMAT_VERSION, MAGIC, PAGE_SIZE
from repro.store.reader import DatasetStore
from repro.store.writer import pack_dataset

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "PAGE_SIZE",
    "DatasetStore",
    "StoreError",
    "pack_dataset",
]
