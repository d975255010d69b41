"""Unit tests for the bitset-packed PO-code dominance closure."""

from __future__ import annotations

import pytest

from repro.data.schema import PartialOrderAttribute, Schema, TotalOrderAttribute
from repro.kernels.bitsets import (
    WORD_BITS,
    DominanceBitset,
    dominance_bitsets,
)
from repro.kernels.tables import PreferenceTable, RecordTables, TDominanceTables
from repro.order.dag import PartialOrderDAG
from repro.order.encoding import encode_domain


def _chain(size: int) -> PartialOrderDAG:
    values = [f"c{i}" for i in range(size)]
    return PartialOrderDAG(values, list(zip(values, values[1:])))


def _antichain(size: int) -> PartialOrderDAG:
    return PartialOrderDAG([f"a{i}" for i in range(size)])


def _diamond() -> PartialOrderDAG:
    return PartialOrderDAG(
        ["top", "left", "right", "bottom"],
        [("top", "left"), ("top", "right"), ("left", "bottom"), ("right", "bottom")],
    )


def _assert_matches_table(bitset: DominanceBitset, table: PreferenceTable) -> None:
    size = len(table.values)
    for better in range(size):
        for worse in range(size):
            assert bitset.test(better, worse) == table.pref_or_equal[better][worse], (
                better,
                worse,
            )


class TestDominanceBitset:
    @pytest.mark.parametrize(
        "dag",
        [_chain(1), _chain(5), _antichain(4), _diamond()],
        ids=["singleton", "chain", "antichain", "diamond"],
    )
    def test_packs_exactly_the_preference_table(self, dag):
        table = PreferenceTable.from_dag(dag)
        bitset = DominanceBitset.from_table(table)
        assert bitset.cardinality == len(dag.values)
        assert bitset.num_words == 1
        _assert_matches_table(bitset, table)

    @pytest.mark.parametrize("size", [64, 65, 130])
    def test_multi_word_domains(self, size):
        """Domains past one machine word split across multiple uint64 words."""
        table = PreferenceTable.from_dag(_chain(size))
        bitset = DominanceBitset.from_table(table)
        assert bitset.num_words == (size + WORD_BITS - 1) // WORD_BITS
        assert all(len(row) == bitset.num_words for row in bitset.rows)
        _assert_matches_table(bitset, table)
        # Spot the word boundary explicitly: a chain's head dominates its
        # tail, so bit 64+ of row 0 must be set while the reverse is clear.
        assert bitset.test(0, size - 1)
        assert not bitset.test(size - 1, 0)

    def test_every_word_fits_uint64(self):
        bitset = DominanceBitset.from_table(PreferenceTable.from_dag(_chain(100)))
        for row in bitset.rows:
            for word in row:
                assert 0 <= word < (1 << WORD_BITS)

    def test_reflexive_bits_always_set(self):
        for dag in (_chain(3), _antichain(3), _diamond(), _chain(70)):
            bitset = DominanceBitset.from_table(PreferenceTable.from_dag(dag))
            for code in range(bitset.cardinality):
                assert bitset.test(code, code)


class TestDominanceBitsetsCache:
    def test_cached_per_tables_instance(self):
        schema = Schema(
            [
                TotalOrderAttribute("price"),
                PartialOrderAttribute("airline", _diamond()),
                PartialOrderAttribute("hotel", _chain(4)),
            ]
        )
        tables = RecordTables.from_schema(schema)
        first = dominance_bitsets(tables)
        assert len(first) == 2
        assert dominance_bitsets(tables) is first
        for bitset, table in zip(first, tables.attributes):
            _assert_matches_table(bitset, table)

    def test_tdominance_tables_use_exact_closure(self):
        encoding = encode_domain(_diamond())
        tables = TDominanceTables.from_encodings(1, [encoding])
        (bitset,) = dominance_bitsets(tables)
        _assert_matches_table(bitset, tables.attributes[0])


class TestNumpyWordArrays:
    def test_word_arrays_match_python_rows(self):
        numpy = pytest.importorskip("numpy")
        from repro.kernels.bitsets import attribute_word_arrays

        schema = Schema(
            [
                TotalOrderAttribute("price"),
                PartialOrderAttribute("big", _chain(70)),
                PartialOrderAttribute("small", _diamond()),
            ]
        )
        tables = RecordTables.from_schema(schema)
        arrays = attribute_word_arrays(tables)
        bitsets = dominance_bitsets(tables)
        assert len(arrays) == len(bitsets) == 2
        for words, bitset in zip(arrays, bitsets):
            assert words.dtype == numpy.uint64
            assert words.shape == (bitset.cardinality, bitset.num_words)
            assert [tuple(int(w) for w in row) for row in words] == list(bitset.rows)
        assert attribute_word_arrays(tables) is arrays
