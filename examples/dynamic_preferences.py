#!/usr/bin/env python3
"""Dynamic skylines: per-user preference specifications answered from one index.

The partial order over a categorical attribute is rarely universal — every
user ranks airlines, brands or vendors differently.  dTSS (Section V) builds
its per-group R-trees once and answers each user's preference specification
with only a fresh topological sort, while the SDC+ baseline has to re-map the
data and rebuild its indexes per query.

Run with:  python examples/dynamic_preferences.py
"""

import random
import time

from repro import (
    Dataset,
    DTSSIndex,
    PartialOrderAttribute,
    PartialOrderDAG,
    Schema,
    TotalOrderAttribute,
    sdc_plus_dynamic_skyline,
)
from repro.dynamic.cache import DynamicQueryCache
from repro.index.pager import DiskSimulator

VENDORS = ["acme", "globex", "initech", "umbrella", "wayne", "stark"]


def build_dataset(size=3000, seed=11):
    # The data-side DAG is irrelevant for dynamic queries: every query brings
    # its own preferences.  An antichain (no preferences) is the natural spec.
    vendors = PartialOrderDAG(VENDORS, [])
    schema = Schema(
        [
            TotalOrderAttribute("price"),
            TotalOrderAttribute("delivery_days"),
            TotalOrderAttribute("defect_rate"),
            PartialOrderAttribute("vendor", vendors),
        ]
    )
    rng = random.Random(seed)
    rows = []
    for _ in range(size):
        price = int(rng.gauss(120, 40))
        delivery = rng.randint(1, 14)
        defects = round(abs(rng.gauss(0.02, 0.02)), 4)
        rows.append((max(price, 5), delivery, defects, rng.choice(VENDORS)))
    return Dataset(schema, rows)


def user_preferences() -> dict[str, PartialOrderDAG]:
    """Three users with very different (and conflicting) vendor preferences."""
    return {
        "quality-first": PartialOrderDAG(
            VENDORS, [("stark", "acme"), ("stark", "globex"), ("wayne", "umbrella"), ("acme", "initech")]
        ),
        "anyone-but-umbrella": PartialOrderDAG(
            VENDORS, [(v, "umbrella") for v in VENDORS if v != "umbrella"]
        ),
        "strict-ranking": PartialOrderDAG(
            VENDORS, list(zip(["acme", "globex", "initech", "wayne", "stark", "umbrella"],
                              ["globex", "initech", "wayne", "stark", "umbrella", "acme"][:-1])),
        ),
    }


def main() -> None:
    dataset = build_dataset()
    index = DTSSIndex(dataset, precompute_local_skylines=True)
    cache = DynamicQueryCache(capacity=16)
    attributes = dataset.schema.partial_order_attributes

    print(f"Catalogue: {len(dataset)} offers from {len(VENDORS)} vendors; "
          f"{index.grouped.num_groups} pre-built vendor groups.\n")

    for user, preference in user_preferences().items():
        cached = cache.get({"vendor": preference}, attributes)
        started = time.perf_counter()
        if cached is None:
            result = index.query({"vendor": preference}, use_local_skylines=True)
            cache.put({"vendor": preference}, attributes, result)
        else:
            result = cached
        elapsed = time.perf_counter() - started

        baseline_disk = DiskSimulator()
        baseline = sdc_plus_dynamic_skyline(dataset, {"vendor": preference}, disk=baseline_disk)

        print(f"user '{user}':")
        print(f"  dTSS      : {len(result):4d} skyline offers in {elapsed * 1000:6.1f} ms "
              f"({'cache hit' if cached is not None else 'computed'})")
        print(f"  SDC+ redo : {len(baseline):4d} skyline offers, "
              f"{baseline.stats.total_ios} IOs charged -> "
              f"{baseline.stats.total_seconds:6.3f} s simulated total time")
        assert frozenset(result.skyline_ids) == frozenset(baseline.skyline_ids)

    # Asking the same question twice is free.
    repeat = user_preferences()["quality-first"]
    assert cache.get({"vendor": repeat}, attributes) is not None
    print("\nRepeated preference specifications are answered from the cache.")


if __name__ == "__main__":
    main()
