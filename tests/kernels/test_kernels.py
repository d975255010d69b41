"""Unit tests for the kernel registry, tables and reference backend."""

from __future__ import annotations

import pytest

from repro.data.schema import PartialOrderAttribute, Schema, TotalOrderAttribute
from repro.exceptions import ExperimentError
from repro.kernels import (
    PurePythonKernel,
    RecordTables,
    TDominanceTables,
    available_kernels,
    get_kernel,
    resolve_kernel,
    set_default_kernel,
)
from repro.order.builders import paper_example_dag
from repro.order.encoding import encode_domain
from repro.order.intervals import IntervalSet
from repro.skyline.base import SkylineStats


class TestRegistry:
    def test_purepython_always_available(self):
        assert "purepython" in available_kernels()
        assert isinstance(get_kernel("purepython"), PurePythonKernel)

    def test_aliases(self):
        assert get_kernel("python") is get_kernel("purepython")
        assert get_kernel("pure") is get_kernel("purepython")

    def test_unknown_name_rejected(self):
        with pytest.raises(ExperimentError):
            get_kernel("fortran")

    def test_resolve_accepts_instances_names_and_none(self):
        kernel = get_kernel("purepython")
        assert resolve_kernel(kernel) is kernel
        assert resolve_kernel("purepython") is kernel
        assert resolve_kernel(None).name in available_kernels()

    def test_default_override(self):
        try:
            set_default_kernel("purepython")
            assert get_kernel().name == "purepython"
        finally:
            set_default_kernel(None)

    def test_instances_are_cached(self):
        assert get_kernel("purepython") is get_kernel("purepython")


class TestBackends:
    def test_only_purepython_and_numpy_exist(self):
        try:
            import numpy  # noqa: F401

            expected = ("purepython", "numpy")
        except ImportError:
            expected = ("purepython",)
        assert available_kernels() == expected

    @pytest.mark.parametrize("name", ["jit", "numba"])
    def test_removed_backend_names_are_unknown(self, name):
        with pytest.raises(ExperimentError, match="unknown dominance kernel"):
            get_kernel(name)


class TestRecordTables:
    def test_matrix_matches_dag_preference(self):
        dag = paper_example_dag()
        schema = Schema(
            [TotalOrderAttribute("x"), PartialOrderAttribute("airline", dag)]
        )
        tables = RecordTables.from_schema(schema)
        table = tables.attributes[0]
        for i, better in enumerate(table.values):
            for j, worse in enumerate(table.values):
                expected = better == worse or dag.is_preferred(better, worse)
                assert table.pref_or_equal[i][j] == expected

    def test_encode_po_roundtrip(self):
        dag = paper_example_dag()
        tables = RecordTables.from_encodings(0, [encode_domain(dag)])
        for value in dag.values:
            code = tables.encode_po((value,))[0]
            assert tables.attributes[0].values[code] == value


class TestTDominanceTables:
    def test_mbi_bounds_cover_interval_sets(self):
        encoding = encode_domain(paper_example_dag())
        tables = TDominanceTables.from_encodings(1, [encoding])
        for code, mask in enumerate(tables.masks[0]):
            assert mask == encoding.reach_mask(encoding.order[code])
            mbi = IntervalSet.from_mask(mask).bounding_interval()
            assert tables.mbi_low[0][code] == mbi.low
            assert tables.mbi_high[0][code] == mbi.high


class TestCounters:
    def test_vector_store_charges_counter(self):
        kernel = get_kernel("purepython")
        store = kernel.vector_store(2)
        for vector in [(0, 1), (1, 0), (2, 2)]:
            store.append(vector)
        stats = SkylineStats()
        store.any_dominates((3, 3), counter=stats)
        assert stats.dominance_checks >= 1

    def test_record_store_compress(self):
        schema = Schema(
            [TotalOrderAttribute("x"), PartialOrderAttribute("p", paper_example_dag())]
        )
        tables = RecordTables.from_schema(schema)
        for kernel_name in available_kernels():
            store = get_kernel(kernel_name).record_store(tables)
            store.append((1.0,), (0,))
            store.append((2.0,), (0,))
            store.append((3.0,), (0,))
            store.compress([True, False, True])
            assert len(store) == 2
            # (2.0, same PO) was removed, so it is no longer dominated... but
            # (1.0,) still dominates everything weaker.
            assert store.any_dominates((4.0,), (0,))


class TestBoundingIntervals:
    def test_bounding_interval_of_set(self):
        interval_set = IntervalSet([(1, 2), (5, 9)])
        assert (
            interval_set.bounding_interval().low,
            interval_set.bounding_interval().high,
        ) == (1, 9)
