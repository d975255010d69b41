"""Property suite: every algorithm that walks the pointer R-tree answers the
brute-force skyline, reads one page per expanded node, and walks the same
tree the same way under every dominance kernel (hypothesis).

The kernels only change how a dominance verdict is computed, never the
verdict, so the traversal (discovery order, nodes expanded, points examined)
must not depend on the backend.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.index
from repro.baselines.bbs_plus import bbs_plus_skyline
from repro.baselines.sdc import sdc_skyline
from repro.baselines.sdc_plus import sdc_plus_skyline
from repro.baselines.transform import BaselineMapping
from repro.core.mapping import TSSMapping
from repro.core.stss import stss_skyline
from repro.core.virtual_rtree import VirtualPointIndex
from repro.data.columns import EncodedFrame
from repro.data.dataset import Dataset
from repro.data.schema import Schema, TotalOrderAttribute
from repro.index.pager import DiskSimulator
from repro.kernels import available_kernels
from repro.skyline.bbs import bbs_skyline
from repro.skyline.bruteforce import brute_force_skyline
from tests.conftest import (
    AVAILABLE_FRAME_BACKINGS,
    INFINITE_TO_VALUES,
    ROUNDING_TIE_TO_VALUES,
    assert_backing,
    frame_backing_of,
    mixed_dataset_strategy,
    rounding_tie_dataset,
    to_value_strategy,
)

KERNELS = available_kernels()


def _stss_virtual(dataset, **options):
    return stss_skyline(dataset, use_virtual_rtree=True, **options)


#: Entry points over mixed TO/PO datasets, keyed by their test id.
MIXED_ALGORITHMS = {
    "stss": stss_skyline,
    "stss-virtual": _stss_virtual,
    "bbs+": bbs_plus_skyline,
    "sdc": sdc_skyline,
    "sdc+": sdc_plus_skyline,
}


@st.composite
def to_dataset_strategy(draw, max_rows: int = 60, to_values=None):
    """Random TO-only datasets across 2-4 dimensions (classical BBS input);
    ``to_values`` as in :func:`~tests.conftest.mixed_dataset_strategy`."""
    dims = draw(st.integers(min_value=2, max_value=4))
    schema = Schema([TotalOrderAttribute(f"to{i}") for i in range(dims)])
    num_rows = draw(st.integers(min_value=0, max_value=max_rows))
    rows = [
        tuple(draw(to_value_strategy(to_values)) for _ in range(dims))
        for _ in range(num_rows)
    ]
    return Dataset(schema, rows)


def _truth(dataset):
    return frozenset(brute_force_skyline(dataset).skyline_ids)


def _assert_reads_match_expansions(result, disk):
    assert result.stats.io_reads == disk.stats.reads == result.stats.nodes_expanded


def _traversal(result):
    stats = result.stats
    return tuple(result.skyline_ids), stats.nodes_expanded, stats.points_examined


class TestPointerAnswers:
    @pytest.mark.parametrize("kernel", KERNELS)
    @given(dataset=to_dataset_strategy())
    @settings(max_examples=40, deadline=None)
    def test_classical_bbs(self, kernel, dataset):
        disk = DiskSimulator()
        result = bbs_skyline(dataset, kernel=kernel, disk=disk)
        assert frozenset(result.skyline_ids) == _truth(dataset)
        assert len(result.skyline_ids) == len(set(result.skyline_ids))
        _assert_reads_match_expansions(result, disk)

    @pytest.mark.parametrize("kernel", KERNELS)
    @given(
        dataset=mixed_dataset_strategy(max_rows=40),
        backing=st.sampled_from(AVAILABLE_FRAME_BACKINGS),
    )
    @settings(max_examples=40, deadline=None)
    def test_stss(self, kernel, dataset, backing):
        disk = DiskSimulator()
        with frame_backing_of(backing):
            frame = EncodedFrame.from_dataset(dataset)
            result = stss_skyline(dataset, kernel=kernel, frame=frame, disk=disk)
        assert_backing(frame, backing)
        assert frozenset(result.skyline_ids) == _truth(dataset)
        _assert_reads_match_expansions(result, disk)

    @pytest.mark.parametrize("kernel", KERNELS)
    @given(dataset=mixed_dataset_strategy(max_rows=30))
    @settings(max_examples=25, deadline=None)
    def test_stss_with_virtual_point_index(self, kernel, dataset):
        plain = stss_skyline(dataset, kernel=kernel)
        virtual = _stss_virtual(dataset, kernel=kernel)
        assert frozenset(virtual.skyline_ids) == _truth(dataset)
        # The virtual-point index answers the same t-dominance verdicts as
        # the skyline-list scan, so the traversal is the same.
        assert _traversal(virtual) == _traversal(plain)

    @pytest.mark.parametrize("kernel", KERNELS)
    @given(dataset=mixed_dataset_strategy(max_rows=30))
    @settings(max_examples=25, deadline=None)
    def test_baselines(self, kernel, dataset):
        truth = _truth(dataset)
        for algorithm in (bbs_plus_skyline, sdc_skyline, sdc_plus_skyline):
            disk = DiskSimulator()
            result = algorithm(dataset, kernel=kernel, disk=disk)
            assert frozenset(result.skyline_ids) == truth, algorithm.__name__
            _assert_reads_match_expansions(result, disk)


class TestInfiniteToValues:
    """±inf TO values make mindist sums tie (+inf, -inf) or NaN (+inf plus
    -inf); the traversal must still visit every dominator first."""

    @pytest.mark.parametrize("kernel", KERNELS)
    @given(dataset=to_dataset_strategy(to_values=INFINITE_TO_VALUES))
    @settings(max_examples=40, deadline=None)
    def test_classical_bbs(self, kernel, dataset):
        assert frozenset(bbs_skyline(dataset, kernel=kernel).skyline_ids) == _truth(dataset)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("name", sorted(MIXED_ALGORITHMS))
    @given(dataset=mixed_dataset_strategy(max_rows=30, to_values=INFINITE_TO_VALUES))
    @settings(max_examples=25, deadline=None)
    def test_mixed(self, kernel, name, dataset):
        result = MIXED_ALGORITHMS[name](dataset, kernel=kernel)
        assert frozenset(result.skyline_ids) == _truth(dataset)


class TestRoundingTieToValues:
    """1e17 + 1 rounds to 1e17, so a point's mindist can equal that of a
    point it dominates; the traversal must still pop the dominator first."""

    @pytest.mark.parametrize("kernel", KERNELS)
    @given(dataset=to_dataset_strategy(to_values=ROUNDING_TIE_TO_VALUES))
    @example(dataset=rounding_tie_dataset(with_po=False))
    @settings(max_examples=40, deadline=None)
    def test_classical_bbs(self, kernel, dataset):
        assert frozenset(bbs_skyline(dataset, kernel=kernel).skyline_ids) == _truth(dataset)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("name", sorted(MIXED_ALGORITHMS))
    @given(dataset=mixed_dataset_strategy(max_rows=30, to_values=ROUNDING_TIE_TO_VALUES))
    @example(dataset=rounding_tie_dataset())
    @settings(max_examples=25, deadline=None)
    def test_mixed(self, kernel, name, dataset):
        truth = _truth(dataset)
        for backing in AVAILABLE_FRAME_BACKINGS:
            with frame_backing_of(backing):
                result = MIXED_ALGORITHMS[name](dataset, kernel=kernel)
            assert frozenset(result.skyline_ids) == truth, backing


@pytest.mark.skipif(len(KERNELS) < 2, reason="needs a second dominance kernel")
class TestKernelsWalkTheSameTree:
    @given(dataset=to_dataset_strategy())
    @settings(max_examples=30, deadline=None)
    def test_classical_bbs(self, dataset):
        traversals = {_traversal(bbs_skyline(dataset, kernel=k)) for k in KERNELS}
        assert len(traversals) == 1

    @pytest.mark.parametrize("name", sorted(MIXED_ALGORITHMS))
    @given(dataset=mixed_dataset_strategy(max_rows=30))
    @settings(max_examples=20, deadline=None)
    def test_mixed(self, name, dataset):
        algorithm = MIXED_ALGORITHMS[name]
        traversals = {_traversal(algorithm(dataset, kernel=k)) for k in KERNELS}
        assert len(traversals) == 1


class TestOneIndex:
    """The pointer tree is the only index: no entry point takes ``index=``."""

    @pytest.mark.parametrize(
        "algorithm",
        [stss_skyline, bbs_plus_skyline, sdc_skyline, sdc_plus_skyline],
        ids=["stss", "bbs+", "sdc", "sdc+"],
    )
    @pytest.mark.parametrize("index", ["pointer", "flat"])
    def test_skyline_entry_points_reject_index(self, flight_dataset, algorithm, index):
        with pytest.raises(TypeError):
            algorithm(flight_dataset, index=index)

    def test_bbs_rejects_index(self):
        dataset = Dataset(Schema([TotalOrderAttribute("a"), TotalOrderAttribute("b")]), [(1, 2)])
        with pytest.raises(TypeError):
            bbs_skyline(dataset, index="pointer")

    @pytest.mark.parametrize(
        "mapping_class", [TSSMapping, BaselineMapping], ids=["tss", "baseline"]
    )
    def test_mapping_build_rtree_rejects_index(self, flight_dataset, mapping_class):
        mapping = mapping_class(flight_dataset)
        assert len(mapping.build_rtree().all_entries()) == len(mapping.points)
        with pytest.raises(TypeError):
            mapping.build_rtree(index="pointer")

    def test_virtual_point_index_rejects_index(self, flight_dataset):
        mapping = TSSMapping(flight_dataset)
        with pytest.raises(TypeError):
            VirtualPointIndex(mapping.num_total_order, mapping.encodings, index="pointer")

    def test_index_package_exports_no_registry(self):
        for name in ("available_indexes", "resolve_index", "FlatRTree"):
            assert not hasattr(repro.index, name)
