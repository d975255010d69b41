"""Property-based end-to-end tests: random datasets, random preference DAGs."""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines import bbs_plus_skyline, sdc_plus_skyline, sdc_skyline
from repro.core import stss_skyline
from repro.dynamic import dtss_skyline
from repro.kernels import available_kernels
from repro.order.dag import PartialOrderDAG
from repro.skyline import bnl_skyline, brute_force_skyline, sfs_skyline

from tests.conftest import (
    ROUNDING_TIE_TO_VALUES,
    default_kernel,
    mixed_dataset_strategy,
    rounding_tie_dataset,
)

COMMON_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: One-PO datasets for the dTSS property, by TO value set.
DTSS_DATASETS = {
    "integer-to": mixed_dataset_strategy(max_po=1),
    "rounding-tie-to": st.one_of(
        st.just(rounding_tie_dataset()),
        mixed_dataset_strategy(max_po=1, to_values=ROUNDING_TIE_TO_VALUES),
    ),
}


@settings(**COMMON_SETTINGS)
@given(dataset=mixed_dataset_strategy())
def test_stss_matches_brute_force(dataset):
    truth = frozenset(brute_force_skyline(dataset).skyline_ids)
    for options in ({}, {"use_virtual_rtree": False}, {"use_dyadic_cache": False, "max_entries": 4}):
        assert frozenset(stss_skyline(dataset, **options).skyline_ids) == truth


@settings(**COMMON_SETTINGS)
@given(dataset=mixed_dataset_strategy())
def test_baselines_match_brute_force(dataset):
    truth = frozenset(brute_force_skyline(dataset).skyline_ids)
    assert frozenset(bbs_plus_skyline(dataset).skyline_ids) == truth
    assert frozenset(sdc_skyline(dataset).skyline_ids) == truth
    assert frozenset(sdc_plus_skyline(dataset).skyline_ids) == truth


@settings(**COMMON_SETTINGS)
@given(dataset=mixed_dataset_strategy())
def test_scan_based_algorithms_match_brute_force(dataset):
    truth = frozenset(brute_force_skyline(dataset).skyline_ids)
    assert frozenset(bnl_skyline(dataset, window_size=5).skyline_ids) == truth
    assert frozenset(sfs_skyline(dataset).skyline_ids) == truth


@pytest.mark.parametrize("kernel", available_kernels())
@pytest.mark.parametrize("to_values", sorted(DTSS_DATASETS))
@settings(**COMMON_SETTINGS)
@given(data=st.data())
def test_dtss_matches_static_recomputation_for_random_queries(kernel, to_values, data):
    dataset = data.draw(DTSS_DATASETS[to_values])
    seed = data.draw(st.integers(min_value=0, max_value=1000))
    schema = dataset.schema
    attribute = schema.partial_order_attributes[0]
    values = list(attribute.dag.values)
    rng = random.Random(seed)
    shuffled = values[:]
    rng.shuffle(shuffled)
    edges = [
        (shuffled[i], shuffled[j])
        for i in range(len(shuffled))
        for j in range(i + 1, len(shuffled))
        if rng.random() < 0.3
    ]
    query = {attribute.name: PartialOrderDAG(values, edges)}
    static_schema = schema.replace_partial_order(query)
    truth = frozenset(brute_force_skyline(dataset.with_schema(static_schema, validate=False)).skyline_ids)
    with default_kernel(kernel):
        assert frozenset(dtss_skyline(dataset, query).skyline_ids) == truth
        local = dtss_skyline(dataset, query, use_local_skylines=True)
        assert frozenset(local.skyline_ids) == truth


@settings(**COMMON_SETTINGS)
@given(dataset=mixed_dataset_strategy())
def test_skyline_is_minimal_and_complete(dataset):
    """Every record is either in the skyline or dominated by a skyline record."""
    from repro.skyline.dominance import dominates_records

    schema = dataset.schema
    truth = frozenset(brute_force_skyline(dataset).skyline_ids)
    for record in dataset:
        if record.id in truth:
            assert not any(
                dominates_records(schema, other, record) for other in dataset if other.id != record.id
            )
        else:
            assert any(dominates_records(schema, dataset[s], record) for s in truth)
