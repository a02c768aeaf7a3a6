"""Tests for the observability layer (repro.obs).

Covers registry counter/timer semantics, span nesting, the
worker-to-parent metric merge (jobs=1 and jobs=N must report identical
counters), and manifest JSON round-tripping — plus the TileCache
persistence hardening that rides on the same PR.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
import threading

import pytest

from repro.obs import (
    Histogram,
    MetricsRegistry,
    RunManifest,
    TimerStat,
    Tracer,
    get_registry,
    set_registry,
    span,
)
from repro.parallel import TileCache


@pytest.fixture
def registry():
    """A fresh enabled registry installed process-wide for the test."""
    fresh = MetricsRegistry(enabled=True)
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


class TestCounters:
    def test_inc_defaults_to_one(self, registry):
        registry.inc("a")
        registry.inc("a")
        assert registry.counter("a") == 2

    def test_inc_by_n(self, registry):
        registry.inc("a", 5)
        registry.inc("a", -2)
        assert registry.counter("a") == 3

    def test_unknown_counter_reads_zero(self, registry):
        assert registry.counter("nope") == 0

    def test_disabled_registry_records_nothing(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.gauge("g", 1.0)
        reg.observe("t", 0.5)
        reg.observe_hist("h", 0.5)
        snap = reg.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["timers"] == {}
        assert snap["histograms"] == {}

    def test_reset_clears_data_keeps_enabled(self, registry):
        registry.inc("a")
        registry.reset()
        assert registry.counter("a") == 0
        assert registry.enabled

    def test_concurrent_inc_is_exact(self, registry):
        # A tiny switch interval forces thread switches inside the
        # read-modify-write; an unlocked counter loses increments.
        threads, per_thread = 4, 200_000

        def work():
            for _ in range(per_thread):
                registry.inc("x")

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=work) for _ in range(threads)]
            for t in pool:
                t.start()
            for t in pool:
                t.join()
        finally:
            sys.setswitchinterval(previous)
        assert registry.counter("x") == threads * per_thread


class TestTimers:
    def test_observe_aggregates(self, registry):
        for seconds in (0.2, 0.1, 0.4):
            registry.observe("t", seconds)
        stat = registry.timer_stat("t")
        assert stat.count == 3
        assert stat.total == pytest.approx(0.7)
        assert stat.min == pytest.approx(0.1)
        assert stat.max == pytest.approx(0.4)
        assert stat.mean == pytest.approx(0.7 / 3)

    def test_timer_context_manager_times_body(self, registry):
        with registry.timer("t"):
            pass
        stat = registry.timer_stat("t")
        assert stat.count == 1
        assert stat.total >= 0.0

    def test_disabled_timer_is_noop_singleton(self):
        reg = MetricsRegistry()
        t1 = reg.timer("a")
        t2 = reg.timer("b")
        assert t1 is t2  # the shared null timer: no allocation when off
        with t1:
            pass
        assert reg.snapshot()["timers"] == {}

    def test_timerstat_merge(self):
        a = TimerStat()
        a.observe(0.1)
        a.observe(0.3)
        b = TimerStat()
        b.observe(0.05)
        a.merge(b)
        assert a.count == 3
        assert a.min == pytest.approx(0.05)
        assert a.max == pytest.approx(0.3)
        assert a.total == pytest.approx(0.45)


class TestGaugesAndHistograms:
    def test_gauge_last_write_wins(self, registry):
        registry.gauge("g", 1.0)
        registry.gauge("g", 7.5)
        assert registry.gauge_value("g") == 7.5

    def test_histogram_buckets(self):
        hist = Histogram(bounds=(1.0, 10.0))
        for value in (0.5, 1.0, 2.0, 100.0):
            hist.observe(value)
        # bounds are upper-inclusive; the extra bucket is the overflow
        assert hist.counts == [2, 1, 1]

    def test_histogram_via_registry(self, registry):
        registry.observe_hist("h", 0.5, bounds=(1.0, 10.0))
        registry.observe_hist("h", 5.0, bounds=(1.0, 10.0))
        snap = registry.snapshot()["histograms"]["h"]
        assert snap["counts"] == [1, 1, 0]


class TestSnapshotMerge:
    def test_snapshot_is_json_able_and_sorted(self, registry):
        registry.inc("b")
        registry.inc("a")
        registry.observe("t", 0.1)
        snap = registry.snapshot()
        json.dumps(snap)  # must not raise
        assert list(snap["counters"]) == ["a", "b"]

    def test_merge_adds_counters_and_timers(self, registry):
        registry.inc("a", 2)
        registry.observe("t", 0.2)
        other = MetricsRegistry(enabled=True)
        other.inc("a", 3)
        other.inc("b")
        other.observe("t", 0.1)
        registry.merge(other.snapshot())
        assert registry.counter("a") == 5
        assert registry.counter("b") == 1
        stat = registry.timer_stat("t")
        assert stat.count == 2
        assert stat.min == pytest.approx(0.1)

    def test_merge_histograms_elementwise(self, registry):
        a = MetricsRegistry(enabled=True)
        a.observe_hist("h", 0.5, bounds=(1.0,))
        registry.observe_hist("h", 2.0, bounds=(1.0,))
        registry.merge(a.snapshot())
        assert registry.snapshot()["histograms"]["h"]["counts"] == [1, 1]


class TestSpans:
    def test_span_nesting_builds_tree(self, registry):
        tracer = Tracer(enabled=True)
        with span("outer", registry=registry, tracer=tracer):
            with span("inner", registry=registry, tracer=tracer):
                pass
            with span("inner2", registry=registry, tracer=tracer):
                pass
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.name == "outer"
        assert [child.name for child in root.children] == ["inner", "inner2"]
        assert root.seconds >= sum(c.seconds for c in root.children) >= 0.0

    def test_span_records_registry_timer(self, registry):
        tracer = Tracer()  # tracing off: timers must still land
        with span("stage", registry=registry, tracer=tracer):
            pass
        assert registry.timer_stat("stage").count == 1
        assert tracer.roots == []

    def test_span_disabled_everywhere_yields_none(self):
        reg = MetricsRegistry()
        tracer = Tracer()
        with span("stage", registry=reg, tracer=tracer) as node:
            assert node is None
        assert reg.snapshot()["timers"] == {}

    def test_render_and_to_dict(self, registry):
        tracer = Tracer(enabled=True)
        with span("a", registry=registry, tracer=tracer):
            with span("b", registry=registry, tracer=tracer):
                pass
        text = tracer.render()
        assert "a" in text and "b" in text
        tree = tracer.to_dict()
        assert tree[0]["name"] == "a"
        assert tree[0]["children"][0]["name"] == "b"


class TestWorkerMergeDeterminism:
    @pytest.fixture(scope="class")
    def scan_inputs(self, tech45, small_block):
        from repro.litho import LithoModel

        model = LithoModel(tech45.litho)
        m1 = small_block.top.region(tech45.layers.metal1)
        return model, m1, tech45.metal_width // 2

    def _counters(self, jobs, scan_inputs):
        from repro.litho import scan_full_chip

        model, m1, limit = scan_inputs
        fresh = MetricsRegistry(enabled=True)
        previous = set_registry(fresh)
        try:
            report = scan_full_chip(model, m1, tile_nm=2000, pinch_limit=limit, jobs=jobs)
        finally:
            set_registry(previous)
        return report, fresh.snapshot()

    def test_jobs4_counters_identical_to_jobs1(self, scan_inputs):
        serial_report, serial = self._counters(1, scan_inputs)
        parallel_report, parallel = self._counters(4, scan_inputs)
        assert serial["counters"] == parallel["counters"]
        assert serial["counters"]["scan.tiles_simulated"] == serial_report.tiles
        # timer event counts match too; only the seconds may differ
        assert {k: v["count"] for k, v in serial["timers"].items()} == {
            k: v["count"] for k, v in parallel["timers"].items()
        }
        assert parallel_report.hotspots == serial_report.hotspots

    def test_drc_counters_identical_across_jobs(self, tech45, small_block):
        from repro.drc import run_drc

        deck = tech45.rules.minimum()
        snaps = []
        for jobs in (1, 3):
            fresh = MetricsRegistry(enabled=True)
            previous = set_registry(fresh)
            try:
                run_drc(small_block.top, deck, jobs=jobs, tile_nm=2000)
            finally:
                set_registry(previous)
            snaps.append(fresh.snapshot()["counters"])
        assert snaps[0] == snaps[1]


class TestRunManifest:
    def test_collect_and_round_trip(self, registry):
        registry.inc("scan.tiles", 4)
        registry.observe("scan.compute", 1.25)
        tracer = Tracer(enabled=True)
        with span("scan", registry=registry, tracer=tracer):
            pass
        manifest = RunManifest.collect(
            command="scan",
            argv=["scan", "x.gds"],
            args={"seed": 7, "jobs": 2, "func": print},
            registry=registry,
            tracer=tracer,
            elapsed_seconds=2.0,
            workers=2,
        )
        assert manifest.seed == 7
        assert manifest.workers == 2
        assert "func" not in manifest.args
        assert manifest.counters["scan.tiles"] == 4
        assert manifest.trace[0]["name"] == "scan"

        back = RunManifest.from_json(manifest.to_json())
        assert back.to_dict() == manifest.to_dict()

    def test_write_creates_parents_and_loads(self, registry, tmp_path):
        manifest = RunManifest.collect(command="drc", registry=registry)
        target = tmp_path / "runs" / "deep" / "m.json"
        manifest.write(target)
        assert target.exists()
        assert RunManifest.load(target).command == "drc"
        # atomic write leaves no temp droppings behind
        assert list(target.parent.iterdir()) == [target]

    def test_non_jsonable_args_are_stringified(self, registry):
        manifest = RunManifest.collect(
            command="x", args={"obj": object()}, registry=registry
        )
        json.dumps(manifest.to_dict())  # must not raise


class TestTileCachePersistence:
    def test_save_creates_parent_directory(self, tmp_path):
        cache = TileCache()
        cache.put("k", [1, 2])
        target = tmp_path / "runs" / "nested" / "cache.pkl"
        cache.save(target)  # must not raise FileNotFoundError
        loaded = TileCache.load(target)
        assert loaded.get("k") == [1, 2]

    def test_save_is_atomic_no_temp_left(self, tmp_path):
        cache = TileCache()
        cache.put("k", "v")
        target = tmp_path / "cache.pkl"
        cache.save(target)
        cache.save(target)  # overwrite goes through rename too
        assert [p.name for p in tmp_path.iterdir()] == ["cache.pkl"]

    def test_truncated_file_degrades_to_empty_cache(self, tmp_path):
        target = tmp_path / "cache.pkl"
        blob = pickle.dumps({"k": "v"})
        target.write_bytes(blob[: len(blob) // 2])  # simulate a killed save
        loaded = TileCache.load(target)
        assert len(loaded) == 0

    def test_cache_counters_reach_registry(self, tmp_path):
        fresh = MetricsRegistry(enabled=True)
        previous = set_registry(fresh)
        try:
            cache = TileCache()
            cache.put("k", 1)
            assert cache.get("k") == 1
            assert cache.get("missing") is None
        finally:
            set_registry(previous)
        assert fresh.counter("tilecache.hits") == 1
        assert fresh.counter("tilecache.misses") == 1


class TestGlobalRegistryDefaultState:
    def test_global_registry_disabled_by_default(self):
        # instrumentation must be free for library users who never opt in
        assert get_registry().enabled is False

    def test_instrumented_path_records_nothing_when_disabled(self, tech45, small_block):
        from repro.litho import LithoModel, scan_full_chip

        model = LithoModel(tech45.litho)
        m1 = small_block.top.region(tech45.layers.metal1)
        before = get_registry().snapshot()
        scan_full_chip(model, m1, tile_nm=4000, pinch_limit=tech45.metal_width // 2)
        assert get_registry().snapshot() == before


def _has_os_fork() -> bool:
    return hasattr(os, "fork")


class TestObsInPool:
    def test_pool_fallback_keeps_metrics(self, monkeypatch):
        """If the pool cannot start, the serial fallback still records."""
        from repro.parallel import TileExecutor
        from repro.parallel import pool as pool_mod

        def boom(*a, **k):
            raise OSError("no semaphores here")

        monkeypatch.setattr(TileExecutor, "_make_pool", boom)
        assert pool_mod  # the fallback lives in TileExecutor now
        fresh = MetricsRegistry(enabled=True)
        previous = set_registry(fresh)
        try:
            out = TileExecutor(jobs=4).map(_count_item, None, list(range(8)))
        finally:
            set_registry(previous)
        assert out == [0, 1, 2, 3, 4, 5, 6, 7]
        assert fresh.counter("pool.items") == 8
        assert fresh.gauge_value("pool_fallback") == 1


def _count_item(payload, item):
    get_registry().inc("pool.items")
    return item
