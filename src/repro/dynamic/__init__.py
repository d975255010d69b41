"""Dynamic skyline queries over PO domains (Section V of the paper).

A dynamic skyline query *specifies* the partial order of each PO attribute.
The data does not change between queries, so dTSS pre-partitions the points
into groups (one per PO value combination) with a small R-tree per group and,
per query, only needs a fresh topological sort / interval labelling before
processing groups in topological order against a global main-memory R-tree.

* :mod:`~repro.dynamic.groups` — the reusable per-group structures (group
  partitioning, per-group R-trees, optional local-skyline pre-computation).
* :mod:`~repro.dynamic.dtss` — the dTSS query processor.
* :mod:`~repro.dynamic.sdc_dynamic` — the dynamic adaptation of SDC+ used as
  the baseline: it must re-map every point and rebuild all index structures
  for each query (charged as extra passes over the data).
* :mod:`~repro.dynamic.fully_dynamic` — queries that also specify an ideal
  value per TO attribute, answered by sTSS over distances to those values.
* :mod:`~repro.dynamic.cache` — caching of past dynamic query results keyed
  by the resolved partial orders' topology key (plus a fully dynamic
  query's ideal values).

Every entry point reads a query's partial orders through
:func:`~repro.engine.encodings.resolve_query_dags`, as the batch engine and
the service do: a name → DAG mapping (omitted attributes keep the schema's
DAG) or one DAG per PO attribute in schema order, each DAG holding its
attribute's whole domain.  An invalid specification raises
:class:`~repro.exceptions.QueryError` with the same message everywhere.
Every entry point reads a record :class:`~repro.data.dataset.Dataset` and
nothing else; an encoded frame or a live delta raises
:class:`~repro.exceptions.QueryError`.  Record ids in the answers are the
dataset's record positions.
"""

from repro.dynamic.cache import DynamicQueryCache
from repro.dynamic.dtss import DTSSIndex, dtss_skyline
from repro.dynamic.fully_dynamic import FullyDynamicEngine, fully_dynamic_skyline
from repro.dynamic.groups import GroupedDataset, GroupPoint
from repro.dynamic.sdc_dynamic import sdc_plus_dynamic_skyline

__all__ = [
    "GroupedDataset",
    "GroupPoint",
    "DTSSIndex",
    "dtss_skyline",
    "sdc_plus_dynamic_skyline",
    "fully_dynamic_skyline",
    "FullyDynamicEngine",
    "DynamicQueryCache",
]
