"""Oracle suite: the paper algorithms over encoded frames answer the
brute-force skyline on every frame backing and dominance kernel.

sTSS, SFS, LESS and BNL (single pass and with a finite window) read the
dataset's :class:`~repro.data.columns.EncodedFrame` only: NumPy arrays when
NumPy imports, tuples otherwise.  For random mixed TO/PO datasets — integer
TO values and values holding both infinities — each must return the
brute-force skyline id-set, and the two backings must walk the same scan:
identical skyline ids in discovery order and identical dominance-check
counts.  TO values whose sums round into ties (``1e17 + 1 == 1e17``) check
that every sweep still visits a dominator before the points it dominates.
(The engine's oracle check lives in
``tests/engine/test_oracle_differential.py``.)
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stss import stss_skyline
from repro.kernels import available_kernels
from repro.skyline.bnl import bnl_skyline
from repro.skyline.bruteforce import brute_force_skyline
from repro.skyline.less import less_skyline
from repro.skyline.sfs import sfs_skyline
from tests.conftest import (
    AVAILABLE_FRAME_BACKINGS,
    INFINITE_TO_VALUES,
    ROUNDING_TIE_TO_VALUES,
    frame_backing_of,
    mixed_dataset_strategy,
    rounding_tie_dataset,
)

KERNELS = available_kernels()

ALGORITHMS = {
    "stss": stss_skyline,
    "sfs": sfs_skyline,
    "less": less_skyline,
    "bnl": bnl_skyline,
    "bnl-window3": lambda dataset, kernel: bnl_skyline(dataset, window_size=3, kernel=kernel),
}

DATASETS = {
    "integer-to": mixed_dataset_strategy(max_rows=30, min_to=0),
    "infinite-to": mixed_dataset_strategy(max_rows=30, to_values=INFINITE_TO_VALUES),
    "rounding-tie-to": st.one_of(
        st.just(rounding_tie_dataset()),
        mixed_dataset_strategy(max_rows=30, to_values=ROUNDING_TIE_TO_VALUES),
    ),
}


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("values", sorted(DATASETS))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_paper_algorithms_answer_the_oracle_on_every_backing(kernel, values, data):
    dataset = data.draw(DATASETS[values])
    truth = frozenset(brute_force_skyline(dataset).skyline_ids)
    for name, algorithm in ALGORITHMS.items():
        runs = {}
        for backing in AVAILABLE_FRAME_BACKINGS:
            with frame_backing_of(backing):
                result = algorithm(dataset, kernel=kernel)
            assert frozenset(result.skyline_ids) == truth, (name, backing)
            runs[backing] = (tuple(result.skyline_ids), result.stats.dominance_checks)
        assert len(set(runs.values())) == 1, (name, runs)
