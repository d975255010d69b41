"""Helpers over the topological order of a partial-order DAG.

The TSS framework maps a partially ordered domain :math:`A_{PO}` to a totally
ordered integer domain :math:`A_{TO}` by assigning to each value its ordinal
number in a topological sort of the DAG (Section III-B of the paper).  Any
admissible order works; the library uses one,
:meth:`PartialOrderDAG.topological_order
<repro.order.dag.PartialOrderDAG.topological_order>` (Kahn's algorithm,
smallest insertion index first), cached on the DAG.  This module turns an
order into ordinals and checks that an order is topological.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

from repro.order.dag import PartialOrderDAG

Value = Hashable


def ordinal_map(order: Sequence[Value], *, start: int = 1) -> dict[Value, int]:
    """Map each value to its 1-based ordinal in ``order`` (the ``A_TO`` value)."""
    return {value: start + position for position, value in enumerate(order)}


def is_topological(dag: PartialOrderDAG, order: Sequence[Value]) -> bool:
    """Check that ``order`` is a valid topological order of ``dag``.

    Every value must appear exactly once and every edge must point forward.
    """
    if len(order) != len(dag) or set(order) != set(dag.values):
        return False
    position = {value: i for i, value in enumerate(order)}
    return all(position[better] < position[worse] for better, worse in dag.edges)
