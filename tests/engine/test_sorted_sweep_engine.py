"""The group path's edge schemas and the oracle differential once more,
on the level sweep, with every NumPy t-dominance block test taking the
sorted sweep.

At the default ``GRAPH_PAIRS_PER_CANDIDATE`` these small candidate sets are
answered from the TO-dominance graph, and at the default
``SINGLE_PASS_PAIRS`` their blocks fit one comparison pass, so the sweep
would otherwise go unexercised here; with both budgets at 0 the engine takes
the level path and each level after the first is swept in TO-sum order.
The tests themselves are the ones in ``test_group_path`` and
``test_oracle_differential``, collected again under this module's patches.
"""

from __future__ import annotations

from unittest import mock

import pytest

pytest.importorskip("numpy")

from repro.engine import groups  # noqa: E402
from repro.kernels.numpy_kernel import NumpyTDominanceStore  # noqa: E402
from tests.engine import test_group_path  # noqa: E402
from tests.engine.test_oracle_differential import (  # noqa: E402, F401
    test_engine_matches_brute_force_over_live_rows,
    test_store_engine_matches_brute_force_across_reopen,
    test_workers_store_engine_matches_brute_force,
)


@pytest.fixture(autouse=True, scope="module")
def _sweep_every_block():
    # Module scope (not monkeypatch): the hypothesis tests reject
    # function-scoped fixtures.
    with mock.patch.object(NumpyTDominanceStore, "SINGLE_PASS_PAIRS", 0), mock.patch.object(
        groups, "GRAPH_PAIRS_PER_CANDIDATE", 0
    ):
        yield


@pytest.mark.usefixtures("frame_backing")
class TestEdgeSchemasSwept(test_group_path.TestEdgeSchemas):
    pass


def test_every_block_is_swept():
    assert NumpyTDominanceStore.SINGLE_PASS_PAIRS == 0
    assert groups.GRAPH_PAIRS_PER_CANDIDATE == 0
