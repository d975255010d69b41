"""Bitset-packed dominance closures for partially ordered domains.

A :class:`~repro.kernels.tables.PreferenceTable` answers "is value ``i``
preferred over or equal to value ``j``" with one boolean-matrix lookup.  For
kernel hot loops the same relation packs into ``uint64`` *bitset rows*: row
``i`` holds ``cardinality`` bits, bit ``j`` set iff ``i`` is
preferred-or-equal to ``j``.  A t-dominance test over ``d`` PO attributes is
then ``d`` shift-AND-compare word operations on a structure 8x smaller than
the boolean matrix (cache-resident even for large domains); the NumPy
kernel gathers them as one ``uint64`` word array per attribute.

Bitsets are built once per table from the DAG-reachability closure the
table already carries (``pref_or_equal`` rows) and cached on the tables'
``scratch`` dict, so every store built over the same tables shares them.
The module itself is dependency-free; the NumPy packings are produced by
helpers whose imports stay function-scope (pure-Python checkouts import
this module cleanly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.kernels.tables import PreferenceTable, RecordTables, TDominanceTables

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

#: Bits per packed word (the rows are ``uint64`` words).
WORD_BITS = 64

_WORD_MASK = (1 << WORD_BITS) - 1


@dataclass(frozen=True)
class DominanceBitset:
    """The dominance closure of one PO domain as packed ``uint64`` rows."""

    cardinality: int
    #: Words per row — ``ceil(cardinality / 64)``, at least one.
    num_words: int
    #: ``rows[i][w]`` — word ``w`` of value ``i``'s preferred-or-equal row.
    rows: tuple[tuple[int, ...], ...]

    @classmethod
    def from_table(cls, table: PreferenceTable) -> "DominanceBitset":
        """Pack one table's reachability closure into bitset rows."""
        cardinality = table.cardinality
        num_words = max(1, (cardinality + WORD_BITS - 1) // WORD_BITS)
        rows = []
        for prefs in table.pref_or_equal:
            packed = 0
            for worse, flag in enumerate(prefs):
                if flag:
                    packed |= 1 << worse
            rows.append(
                tuple(
                    (packed >> (WORD_BITS * word)) & _WORD_MASK
                    for word in range(num_words)
                )
            )
        return cls(cardinality=cardinality, num_words=num_words, rows=tuple(rows))

    def test(self, better: int, worse: int) -> bool:
        """Is ``better`` preferred-or-equal to ``worse``?  One shift-AND."""
        return bool((self.rows[better][worse >> 6] >> (worse & 63)) & 1)


def dominance_bitsets(
    tables: RecordTables | TDominanceTables,
) -> tuple[DominanceBitset, ...]:
    """Per-attribute bitsets of one tables object (cached on ``scratch``)."""
    cached = tables.scratch.get("bitsets")
    if cached is None:
        cached = tuple(
            DominanceBitset.from_table(table) for table in tables.attributes
        )
        tables.scratch["bitsets"] = cached
    return cached


def attribute_word_arrays(
    tables: RecordTables | TDominanceTables,
) -> "list[np.ndarray]":
    """Per-attribute ``(cardinality, num_words)`` uint64 arrays (NumPy stores).

    Cached on ``scratch`` like the boolean preference matrices; requires
    NumPy (only the vectorized backends call this).
    """
    cached = tables.scratch.get("numpy_bitset_rows")
    if cached is None:
        import numpy as np

        cached = [
            np.array(bitset.rows, dtype=np.uint64).reshape(
                bitset.cardinality, bitset.num_words
            )
            for bitset in dominance_bitsets(tables)
        ]
        tables.scratch["numpy_bitset_rows"] = cached
    return cached
