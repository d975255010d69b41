"""Crash matrix: injected faults on every side of the delta-plane fsyncs.

Driven by the deterministic fault registry (:mod:`repro.faults`) instead of
hand monkeypatching: one parametrized matrix covers the append path (before
the write, a corrupted write, and after the fsync) and both sides of the
compaction commit point (the atomic ``os.replace``).  Every cell closes the
engine mid-failure and proves the on-disk state reopens to a well-defined
answer:

* append ``pre``   -> nothing durable; reopen matches the baseline.
* append ``write`` -> torn tail; the entry is silently dropped on reload.
* append ``post``  -> durable despite the caller-visible error (the
  at-least-once window idempotency tokens exist for).
* compact ``pre``  -> old store + old log survive; mutations replay.
* compact ``post`` -> new store wins; the stale-generation log is fenced
  off, so mutations are NOT applied twice.
"""

from __future__ import annotations

import pytest

from repro.api import pack
from repro.data.workloads import WorkloadSpec
from repro.engine.batch import BatchQuery, BatchQueryEngine
from repro.exceptions import InjectedFaultError, StoreError
from repro.faults import registry as faults_registry
from repro.store.delta import DeltaLog, delta_log_path


@pytest.fixture(autouse=True)
def clean_fault_registry(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    faults_registry.reset()
    yield
    faults_registry.reset()


@pytest.fixture
def packed(tmp_path):
    spec = WorkloadSpec(
        name="crash-test",
        cardinality=150,
        num_total_order=2,
        num_partial_order=1,
        dag_height=3,
        dag_density=0.8,
        to_domain_size=30,
        seed=7,
    )
    _, dataset = spec.build()
    path = str(tmp_path / "catalog.rpro")
    pack(dataset, path)
    return path, dataset


def _dominant_row(dataset):
    row = list(dataset.records[0].values)
    row[0] = -1.0
    row[1] = -1.0
    return tuple(row)


def _baseline(path):
    with BatchQueryEngine(path, compact_threshold=0) as engine:
        return engine.run_query(BatchQuery("base")).skyline_ids


def _pending(engine):
    delta = engine.summary()["delta"]
    return 0 if delta is None else delta["pending_mutations"]


class TestAppendCrashMatrix:
    @pytest.mark.parametrize("op", ["insert", "delete"])
    @pytest.mark.parametrize(
        "stage, durable",
        [("pre", False), ("post", True)],
        ids=["before-write", "after-fsync"],
    )
    def test_append_fault_durability(self, packed, op, stage, durable):
        path, dataset = packed
        baseline = _baseline(path)
        victim = baseline[0]

        faults_registry.install(
            f"delta.log_append:raise:stage={stage},times=1"
        )
        with BatchQueryEngine(path, compact_threshold=0) as engine:
            with pytest.raises(StoreError, match="injected fault"):
                if op == "insert":
                    engine.insert([_dominant_row(dataset)])
                else:
                    engine.delete([victim])
        faults_registry.uninstall()

        with BatchQueryEngine(path, compact_threshold=0) as reopened:
            skyline = reopened.run_query(BatchQuery("base")).skyline_ids
            if durable:
                # After the fsync the mutation is on disk even though the
                # caller saw an error: it replays on reopen.
                assert _pending(reopened) == 1
                if op == "insert":
                    assert skyline != baseline
                else:
                    assert victim not in skyline
            else:
                # Before the write nothing reached the file: the reopened
                # store answers exactly the baseline.
                assert _pending(reopened) == 0
                assert skyline == baseline

    @pytest.mark.parametrize("op", ["insert", "delete"])
    @pytest.mark.parametrize("stage", ["pre", "post"])
    def test_append_fault_then_compaction_persists_the_live_rows(
        self, packed, op, stage
    ):
        # The delta keeps the mutation whatever the append did, and
        # compaction writes the tracker's candidates as the store's
        # survivors: the tracker must follow the delta past the fault, or
        # the rewritten store would miss (or misnumber) a candidate.
        path, dataset = packed
        victim = _baseline(path)[0]
        faults_registry.install(f"delta.log_append:raise:stage={stage},times=1")
        with BatchQueryEngine(path, compact_threshold=0) as engine:
            with pytest.raises(StoreError, match="injected fault"):
                if op == "insert":
                    engine.insert([_dominant_row(dataset)])
                else:
                    engine.delete([victim])
            faults_registry.uninstall()
            expected = engine.run_query(BatchQuery("base")).skyline_ids
            if op == "insert":
                assert len(dataset) in expected
            else:
                assert victim not in expected
            assert engine.compact()["compacted"]
            live = engine.dataset

        fresh = BatchQueryEngine(live, compact_threshold=0)
        with BatchQueryEngine(path, compact_threshold=0) as reopened:
            assert _pending(reopened) == 0
            assert reopened._tracker.fronts == fresh._tracker.fronts
            assert reopened._tracker.candidates() == fresh._tracker.candidates()
            ids = reopened._delta.base_ids
            rows = fresh.run_query(BatchQuery("base")).skyline_ids
            assert reopened.run_query(BatchQuery("base")).skyline_ids == expected
            assert sorted(ids[row] for row in rows) == sorted(expected)

    def test_corrupted_write_becomes_a_torn_tail(self, packed):
        # stage=write flips a payload byte *after* the frame checksum was
        # computed — a bad disk write.  The append itself succeeds, but the
        # entry fails its CRC at EOF on reload and is dropped as a torn
        # tail: at-most-once, never a silently wrong replay.
        path, dataset = packed
        baseline = _baseline(path)
        faults_registry.install("delta.log_append:corrupt:stage=write,times=1")
        with BatchQueryEngine(path, compact_threshold=0) as engine:
            new_id = engine.insert([_dominant_row(dataset)])[0]
            in_session = engine.run_query(BatchQuery("base")).skyline_ids
            assert new_id in in_session
        faults_registry.uninstall()

        with BatchQueryEngine(path, compact_threshold=0) as reopened:
            assert _pending(reopened) == 0
            assert reopened.run_query(BatchQuery("base")).skyline_ids == baseline


class TestCompactionCrashMatrix:
    @pytest.fixture
    def mutated(self, packed):
        """An engine with one insert + one delete pending, plus a crash spec."""
        path, dataset = packed
        engine = BatchQueryEngine(path, compact_threshold=0)
        new_id = engine.insert([_dominant_row(dataset)])[0]
        engine.delete([0])
        expected = engine.run_query(BatchQuery("base")).skyline_ids
        yield path, engine, new_id, expected
        engine.close()

    def test_crash_before_swap_keeps_old_store_and_log(self, mutated):
        path, engine, new_id, expected = mutated
        faults_registry.install("delta.compact_replace:raise:stage=pre,times=1")
        with pytest.raises(InjectedFaultError):
            engine.compact()
        faults_registry.uninstall()
        engine.close()

        # The old store (generation 0) and its log are untouched: a fresh
        # open replays the two logged mutations and answers identically.
        with BatchQueryEngine(path, compact_threshold=0) as reopened:
            assert reopened.summary()["store"]["generation"] == 0
            assert _pending(reopened) == 2
            assert reopened.run_query(BatchQuery("base")).skyline_ids == expected
            assert new_id in expected

    def test_crash_after_swap_fences_stale_log(self, mutated):
        path, engine, _, expected = mutated
        faults_registry.install(
            "delta.compact_replace:raise:stage=post,times=1"
        )
        with pytest.raises(InjectedFaultError):
            engine.compact()
        faults_registry.uninstall()
        engine.close()

        # The swap happened: the new-generation store is on disk, while the
        # log still carries generation-0 entries.  The loader must discard
        # them — replaying would apply the folded mutations a second time.
        stale = DeltaLog.load(delta_log_path(path))
        assert stale is not None and stale.generation == 0 and stale.entries

        with BatchQueryEngine(path, compact_threshold=0) as reopened:
            assert reopened.summary()["store"]["generation"] == 1
            assert reopened.summary()["delta"] is None
            assert reopened.run_query(BatchQuery("base")).skyline_ids == expected
            # The first mutation after the reopen must land in a fresh
            # generation-1 log — never appended behind the stale entries.
            extra = reopened.delete([expected[0]])

        fresh = DeltaLog.load(delta_log_path(path))
        assert fresh.generation == 1
        assert fresh.entries == [("delete", extra)]
