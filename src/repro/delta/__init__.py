"""The columnar delta plane: LSM-style live updates over an immutable base.

The static planes of the library are read-optimized and immutable — an
:class:`~repro.data.columns.EncodedFrame` encoded once, a bulk-loaded
R-tree, a packed :class:`~repro.store.reader.DatasetStore`.  This package
adds the write path of the batch engine
(:class:`~repro.engine.batch.BatchQueryEngine`, its only consumer) without
giving any of that up, the way LSM trees do.  The dynamic-skyline plane
(:mod:`repro.dynamic`) does not use it: the paper's dynamic queries change
preferences over fixed data, so it reads record datasets only.

* :class:`DeltaFrame` (``frame.py``) — append-only insert blocks in the same
  canonical column layout as the base frame, plus a tombstone id-set for
  deletes, layered over the immutable base.  :meth:`DeltaFrame.frame` puts
  base rows and inserts in one row space (base rows first).  Record ids are
  *stable*: base rows keep their ids, inserts get fresh monotonically
  increasing ids, and compaction preserves both.
* :class:`BaseCandidateTracker` (``candidates.py``) — the engine's
  candidate set as per-PO-group TO-Pareto fronts over that row space,
  maintained per touched group: inserts fold into their
  group's front, deleting a front row recomputes its group (which may
  resurrect rows the front was masking).
* :func:`cross_examine` (``merge.py``) — the insert fold: one group's front
  against its new rows, one batched ``pareto_mask`` over both.
* :class:`~repro.store.delta.DeltaLog` (``repro.store.delta``) — the
  crash-safe sidecar persisting mutations next to a packed store until
  compaction folds them into a new base.

Queries read the tracked fronts the same way whether or not the data
changed, so a mutated engine answers exactly what a from-scratch rebuild
over the live rows answers — pinned by the hypothesis suite in
``tests/delta/``.
"""

from repro.delta.candidates import BaseCandidateTracker
from repro.delta.frame import DeltaFrame, dataset_from_frame
from repro.delta.merge import cross_examine

__all__ = [
    "BaseCandidateTracker",
    "DeltaFrame",
    "cross_examine",
    "dataset_from_frame",
]
