"""The base x delta cross-examination: one batched kernel call per direction.

Skylines distribute over set union: ``SKY(B ∪ D) = survivors of SKY(B) x
SKY(D)`` — a row of one side's skyline belongs to the merged skyline iff no
row of the *other* side's skyline strictly dominates it (the same
divide-and-conquer identity the sharded executor's merge rests on).
Strict dominance makes equal rows across the two sides harmless: neither
dominates the other, both survive, exactly as in a from-scratch run over the
union.  Both directions are decided columnar through
:meth:`record_block_dominated_columns
<repro.kernels.base.DominanceKernel.record_block_dominated_columns>` under
the query's effective schema.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.data.columns import EncodedFrame
from repro.kernels import resolve_kernel
from repro.kernels.tables import RecordTables


def tables_blocks(
    frame: EncodedFrame, rows: Sequence[int] | None, tables: RecordTables
):
    """``(to_block, code_block)`` of the frame rows, in ``tables``'s code space.

    The frame's canonical codes are remapped into the (possibly overridden)
    query schema's :class:`RecordTables` space — the same translation
    ``_sfs_frame`` performs — so the blocks feed ground-truth dominance calls
    directly.
    """
    to_block = frame.gather_to(rows)
    code_block = frame.remap_codes(
        [table.code_of for table in tables.attributes], rows
    )
    return to_block, code_block


def cross_examine(
    kernel,
    tables: RecordTables,
    base_block,
    delta_block,
    counter=None,
) -> tuple[list[bool], list[bool]]:
    """Mutual survival masks of two partial skylines.

    ``base_block`` / ``delta_block`` are ``(to_block, code_block)`` pairs in
    ``tables``'s code space.  Returns ``(keep_base, keep_delta)``: per row of
    each side, whether no row of the other side strictly dominates it.
    """
    base_to, base_codes = base_block
    delta_to, delta_codes = delta_block
    num_base = len(base_to)
    num_delta = len(delta_to)
    if not num_base or not num_delta:
        return [True] * num_base, [True] * num_delta
    kern = resolve_kernel(kernel)
    base_dominated = kern.record_block_dominated_columns(
        tables, delta_to, delta_codes, base_to, base_codes, counter=counter
    )
    delta_dominated = kern.record_block_dominated_columns(
        tables, base_to, base_codes, delta_to, delta_codes, counter=counter
    )
    return (
        [not dominated for dominated in base_dominated],
        [not dominated for dominated in delta_dominated],
    )
