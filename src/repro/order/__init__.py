"""Partial-order substrate: DAGs, their topological order, interval encodings.

This subpackage implements everything the TSS framework needs to reason about
partially ordered (PO) domains:

* :class:`~repro.order.dag.PartialOrderDAG` — a Hasse-diagram style DAG over a
  finite domain of values, with reachability (the ground-truth preference
  relation).
* :mod:`~repro.order.toposort` — ordinals in, and validity of, a topological
  order; the one order itself is
  :meth:`PartialOrderDAG.topological_order
  <repro.order.dag.PartialOrderDAG.topological_order>` (Kahn's algorithm,
  smallest insertion index first), cached on the DAG.
* :mod:`~repro.order.spanning_tree` — the spanning forest (each value's
  first predecessor is its parent) and the ``[minpost, post]`` postorder
  interval labelling of Agrawal et al.
* :mod:`~repro.order.intervals` — closed integer intervals and interval sets
  with merging / subsumption, and their bitmask form.
* :mod:`~repro.order.propagation` — propagation of intervals along non-tree
  edges so that the final encoding captures *all* preferences (exactness).
* :mod:`~repro.order.encoding` — :class:`DomainEncoding`, the per-domain
  artefact used by TSS (ordinal in a topological sort + interval-set mask
  per value).
* :mod:`~repro.order.uncovered` — uncovered levels used by the SDC/SDC+
  baselines to stratify data.
* :mod:`~repro.order.lattice` — the subset-containment lattice generator with
  the height/density controls used in the paper's experiments.
* :mod:`~repro.order.builders` — convenience constructors (chains, antichains,
  trees, random DAGs, explicit preference lists).
"""

from repro.order.builders import (
    antichain,
    chain,
    dag_from_edges,
    dag_from_preferences,
    diamond,
    random_dag,
    tree_order,
)
from repro.order.dag import PartialOrderDAG
from repro.order.encoding import DomainEncoding, encode_domain
from repro.order.intervals import Interval, IntervalSet
from repro.order.lattice import subset_lattice, lattice_domain
from repro.order.spanning_tree import SpanningTree, extract_spanning_tree
from repro.order.uncovered import uncovered_levels

__all__ = [
    "PartialOrderDAG",
    "DomainEncoding",
    "encode_domain",
    "Interval",
    "IntervalSet",
    "SpanningTree",
    "extract_spanning_tree",
    "uncovered_levels",
    "subset_lattice",
    "lattice_domain",
    "chain",
    "antichain",
    "diamond",
    "tree_order",
    "random_dag",
    "dag_from_edges",
    "dag_from_preferences",
]
