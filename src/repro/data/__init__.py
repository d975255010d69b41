"""Data substrate: schemas, datasets and synthetic workload generators.

* :mod:`~repro.data.schema` — attribute specifications (totally ordered with a
  min/max preference, or partially ordered with a preference DAG) and the
  :class:`Schema` that ties a relation's attributes together.
* :mod:`~repro.data.dataset` — an in-memory relation (:class:`Dataset`) of
  records conforming to a schema.
* :mod:`~repro.data.generator` — synthetic data generators reproducing the
  Independent / Correlated / Anti-correlated distributions of the skyline
  literature (the paper uses the first and last).
* :mod:`~repro.data.io` — CSV loading/saving for datasets and preference DAGs.
* :mod:`~repro.data.columns` — the columnar data plane: datasets encoded once
  as contiguous per-attribute columns (:class:`EncodedFrame`) that stream
  through the vectorized kernels, mapping construction and shard shipping.
* :mod:`~repro.data.workloads` — the paper's experimental parameter grid
  expressed as named, reproducible workload specifications.
"""

from repro.data.columns import EncodedFrame
from repro.data.dataset import Dataset, Record
from repro.data.generator import generate_dataset
from repro.data.io import (
    load_csv_dataset,
    load_preference_edges,
    save_csv_dataset,
    save_preference_edges,
)
from repro.data.schema import PartialOrderAttribute, Schema, TotalOrderAttribute
from repro.data.workloads import WorkloadSpec, paper_defaults

__all__ = [
    "Dataset",
    "EncodedFrame",
    "Record",
    "Schema",
    "TotalOrderAttribute",
    "PartialOrderAttribute",
    "generate_dataset",
    "load_csv_dataset",
    "save_csv_dataset",
    "load_preference_edges",
    "save_preference_edges",
    "WorkloadSpec",
    "paper_defaults",
]
