"""Every query entry point reads preferences the same way.

The batch engine, a service request and the Section V dynamic plane (dTSS,
SDC+ dynamic, fully dynamic, the result cache) all resolve a query's partial
orders through ``resolve_query_dags``: an invalid specification raises the
same :class:`QueryError` message everywhere, and a DAG that widens the domain
gives the same skyline everywhere.
"""

import asyncio
import json
import random

import pytest

from repro.data.dataset import Dataset
from repro.data.schema import PartialOrderAttribute, Schema, TotalOrderAttribute
from repro.dynamic import (
    DynamicQueryCache,
    FullyDynamicEngine,
    dtss_skyline,
    fully_dynamic_skyline,
    sdc_plus_dynamic_skyline,
)
from repro.engine.batch import BatchQuery, BatchQueryEngine
from repro.exceptions import QueryError
from repro.order.dag import PartialOrderDAG
from repro.service import QueryService
from repro.service.protocol import encode_overrides
from repro.skyline.bruteforce import brute_force_skyline

#: The schema's domain holds "d", which no row uses.
BASE_DAG = PartialOrderDAG("abcd", [("a", "b"), ("a", "c"), ("c", "d")])

INVALID_SPECS = {
    "unknown-attribute": (
        {"color": BASE_DAG, "nope": BASE_DAG},
        "query names unknown PO attributes: ['nope']",
    ),
    "lacks-unused-domain-value": (
        {"color": PartialOrderDAG("abc", [("b", "a")])},
        "partial order for 'color' is missing domain values: ['d']",
    ),
    "lacks-data-value": (
        {"color": PartialOrderDAG("bcd", [("b", "c")])},
        "partial order for 'color' is missing domain values: ['a']",
    ),
    "wrong-sequence-count": (
        [BASE_DAG, BASE_DAG],
        "query gives 2 partial orders, schema has 1 PO attributes",
    ),
}

#: A DAG over the domain plus a value outside it.
WIDER_DAG = PartialOrderDAG("zabcd", [("z", "b"), ("c", "a"), ("b", "d")])


@pytest.fixture(scope="module")
def dataset():
    rng = random.Random(31)
    schema = Schema(
        [TotalOrderAttribute("price"), PartialOrderAttribute("color", BASE_DAG)]
    )
    rows = [(float(rng.randrange(60)), rng.choice("abc")) for _ in range(120)]
    return Dataset(schema, rows)


@pytest.fixture(scope="module")
def service(dataset):
    service = QueryService(dataset)
    loop = asyncio.new_event_loop()

    def request(payload):
        line = json.dumps(payload).encode("utf-8")
        return loop.run_until_complete(service._dispatch_line(line))

    yield request
    loop.run_until_complete(loop.shutdown_default_executor())
    loop.close()
    service.engine.close()


def service_query(service, spec):
    response = service({"op": "query", "overrides": encode_overrides(spec)})
    if not response["ok"]:
        raise QueryError(response["error"])
    return response["skyline_ids"]


ENTRY_POINTS = {
    "engine": lambda ds, svc, spec: BatchQueryEngine(ds).run_query(
        BatchQuery("q", spec)
    ).skyline_ids,
    "service": lambda ds, svc, spec: service_query(svc, spec),
    "dtss": lambda ds, svc, spec: dtss_skyline(ds, spec).skyline_ids,
    "sdc-plus-dynamic": lambda ds, svc, spec: sdc_plus_dynamic_skyline(ds, spec).skyline_ids,
    "fully-dynamic": lambda ds, svc, spec: fully_dynamic_skyline(ds, spec, [0.0]).skyline_ids,
    "fully-dynamic-engine": lambda ds, svc, spec: FullyDynamicEngine(ds).query(
        spec, [0.0]
    ).skyline_ids,
    "cache": lambda ds, svc, spec: DynamicQueryCache().get(
        spec, ds.schema.partial_order_attributes
    ),
}


def matrix(entry_points, specs):
    """Every (entry point, spec) pair; the wire protocol carries overrides
    as a name -> DAG object only, so the service takes no sequence."""
    return [
        (entry_point, name)
        for entry_point in entry_points
        for name, spec in specs.items()
        if entry_point != "service" or isinstance(spec[0], dict)
    ]


@pytest.mark.parametrize(("entry_point", "case"), matrix(sorted(ENTRY_POINTS), INVALID_SPECS))
def test_an_invalid_spec_gives_one_message_everywhere(dataset, service, entry_point, case):
    spec, message = INVALID_SPECS[case]
    with pytest.raises(QueryError) as raised:
        ENTRY_POINTS[entry_point](dataset, service, spec)
    assert str(raised.value) == message


WIDER_SPECS = {"mapping": ({"color": WIDER_DAG},), "sequence": ([WIDER_DAG],)}


@pytest.mark.parametrize(
    ("entry_point", "form"),
    matrix(["engine", "service", "dtss", "sdc-plus-dynamic", "fully-dynamic"], WIDER_SPECS),
)
def test_a_dag_outside_the_domain_gives_one_skyline(dataset, service, entry_point, form):
    (spec,) = WIDER_SPECS[form]
    widened = dataset.with_schema(dataset.schema.replace_partial_order({"color": WIDER_DAG}))
    truth = frozenset(brute_force_skyline(widened).skyline_ids)
    assert frozenset(ENTRY_POINTS[entry_point](dataset, service, spec)) == truth
