"""Out-of-core layout store: streaming ingest, mmapped windows, parity.

The tentpole contract: a scan or DRC fed rects from the mmapped
``layoutstore-v1`` file produces bit-identical reports and
interchangeable tile-cache entries vs. the in-RAM flatten, at
``jobs=1`` and ``jobs=4``; worker payloads shrink to ``(path, offset,
count, digest)`` handles — for in-RAM input too, through a run-scoped
store that never outlives its run; and service sessions backed by a
store directory survive restarts without re-parsing the GDSII.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from repro.designgen import LogicBlockSpec, generate_logic_block
from repro.gdsii import write_gds
from repro.geometry import Rect, Region
from repro.layout import Cell, Layout
from repro.layout.store import (
    LayoutStoreError,
    LayoutStoreVersionError,
    StoreRects,
    ensure_store,
    ingest,
    open_store,
    write_store,
)
from repro.litho import LithoModel, scan_full_chip
from repro.obs import MetricsRegistry, names, sample_peak_rss, set_registry
from repro.parallel import AbortRun, FaultPlan, TileCache, TileExecutor


@pytest.fixture
def registry():
    fresh = MetricsRegistry(enabled=True)
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


@pytest.fixture(scope="module")
def store_setup(tmp_path_factory, tech45, stdlib45):
    """A routed block on disk as GDSII plus its ingested store."""
    spec = LogicBlockSpec(rows=1, row_width_nm=5000, net_count=5, seed=11, weak_spots=4)
    block = generate_logic_block(tech45, spec, stdlib45)
    d = tmp_path_factory.mktemp("store")
    gds = str(d / "block.gds")
    write_gds(block.layout, gds)
    view = ensure_store(gds, str(d / "block.lstore"))
    return block, gds, view


class TestStoreRoundTrip:
    def test_layers_match_in_ram_flatten(self, store_setup, tech45):
        block, _, view = store_setup
        for layer in (tech45.layers.metal1, tech45.layers.poly):
            ram = block.top.region(layer)
            stored = view.layer_for(layer)
            assert stored.rects() == list(ram.rects())
            assert stored.region() == ram
            assert stored.digest() == ram.digest()
            assert stored.bbox == ram.bbox

    def test_extent_is_top_cell_bbox(self, store_setup):
        block, _, view = store_setup
        assert view.extent == block.top.bbox

    def test_absent_layer_digest_matches_empty_region(self, store_setup):
        _, _, view = store_setup
        missing = view.layer(240, 0)
        assert missing.is_empty
        assert missing.digest() == Region().digest()
        assert missing.region() == Region()

    def test_window_matches_brute_force(self, store_setup, tech45):
        block, _, view = store_setup
        layer = tech45.layers.metal1
        rects = list(block.top.region(layer).rects())
        stored = view.layer_for(layer)
        bbox = view.extent
        windows = [
            Rect(bbox.x0, bbox.y0, (bbox.x0 + bbox.x1) // 2, (bbox.y0 + bbox.y1) // 2),
            Rect(bbox.x1 // 3, bbox.y0, bbox.x1 // 2, bbox.y1),
            Rect(bbox.x1 + 10, bbox.y1 + 10, bbox.x1 + 500, bbox.y1 + 500),
            bbox,
        ]
        for window in windows:
            expect = [r for r in rects if r.touches(window)]
            assert stored.window(window) == expect

    def test_handle_pickles_as_three_scalars(self, store_setup, tech45):
        _, _, view = store_setup
        handle = view.layer_for(tech45.layers.metal1).handle()
        wire = pickle.dumps(handle)
        assert len(wire) < 200  # path + two ints, not geometry
        clone = pickle.loads(wire)
        assert isinstance(clone, StoreRects)
        assert clone.rects() == handle.rects()
        assert clone.digest() == handle.digest()


class TestStoreFile:
    def test_reuse_without_reingest(self, store_setup, registry, tmp_path):
        _, gds, _ = store_setup
        path = str(tmp_path / "reuse.lstore")
        ingest(gds, path)
        registry.reset()
        ensure_store(gds, path)
        assert registry.counter(names.LAYOUTSTORE_REUSED) == 1

    def test_stale_source_triggers_reingest(self, store_setup, registry, tmp_path):
        _, gds, _ = store_setup
        src = str(tmp_path / "copy.gds")
        with open(gds, "rb") as f:
            data = f.read()
        with open(src, "wb") as f:
            f.write(data)
        path = str(tmp_path / "stale.lstore")
        ensure_store(src, path)
        os.utime(src, ns=(1, 1))  # same bytes, different stat signature
        registry.reset()
        ensure_store(src, path)
        assert registry.counter(names.LAYOUTSTORE_INGESTS) == 1

    def test_version_sentinel_round_trip(self, store_setup, registry, tmp_path):
        """A future-versioned store is a typed version error, and
        ensure_store counts the mismatch and rebuilds in place."""
        _, gds, _ = store_setup
        path = str(tmp_path / "ver.lstore")
        before = ingest(gds, path)
        digests = {k: before.layer(*k).digest() for k in before.layer_keys}
        with open(path, "r+b") as f:
            f.write(b"layoutstore-v9\n\x00")
        with pytest.raises(LayoutStoreVersionError):
            open_store(path, refresh=True)
        registry.reset()
        after = ensure_store(gds, path)
        assert registry.counter(names.LAYOUTSTORE_VERSION_MISMATCH) == 1
        assert {k: after.layer(*k).digest() for k in after.layer_keys} == digests

    def test_not_a_store_is_an_error(self, tmp_path):
        path = str(tmp_path / "noise.lstore")
        with open(path, "wb") as f:
            f.write(b"\x00" * 256)
        with pytest.raises(LayoutStoreError):
            open_store(path, refresh=True)

    def test_truncated_store_is_an_error(self, store_setup, tmp_path):
        _, gds, _ = store_setup
        path = str(tmp_path / "trunc.lstore")
        ingest(gds, path)
        with open(path, "rb") as f:
            data = f.read()
        with open(path, "wb") as f:
            f.write(data[: len(data) - 64])
        with pytest.raises(LayoutStoreError):
            open_store(path, refresh=True)


class TestScanEquivalence:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_store_matches_in_ram(self, store_setup, tech45, jobs):
        block, _, view = store_setup
        model = LithoModel(tech45.litho)
        layer = tech45.layers.metal1
        limit = tech45.metal_width // 2
        kwargs = dict(tile_nm=1500, pinch_limit=limit, jobs=jobs)
        ram = scan_full_chip(model, block.top.region(layer), **kwargs)
        stored = scan_full_chip(model, view.layer_for(layer), **kwargs)
        assert stored.hotspots == ram.hotspots
        assert stored.tiles == ram.tiles

    @pytest.mark.parametrize("writer_store", [True, False])
    def test_tile_caches_are_interchangeable(self, store_setup, tech45, writer_store):
        block, _, view = store_setup
        model = LithoModel(tech45.litho)
        layer = tech45.layers.metal1
        limit = tech45.metal_width // 2
        kwargs = dict(tile_nm=1500, pinch_limit=limit, jobs=2)
        sources = [view.layer_for(layer), block.top.region(layer)]
        if not writer_store:
            sources.reverse()
        cache = TileCache()
        first = scan_full_chip(model, sources[0], cache=cache, **kwargs)
        second = scan_full_chip(model, sources[1], cache=cache, **kwargs)
        assert first.tiles_computed == first.tiles
        assert second.tiles_computed == 0
        assert second.cache_hit_rate == 1.0
        assert second.hotspots == first.hotspots

    def test_store_payload_is_tiny(self, store_setup, tech45, registry):
        block, _, view = store_setup
        model = LithoModel(tech45.litho)
        layer = tech45.layers.metal1
        limit = tech45.metal_width // 2
        kwargs = dict(tile_nm=1500, pinch_limit=limit, jobs=2)
        scan_full_chip(model, view.layer_for(layer), **kwargs)
        store_bytes = registry.gauge_value(names.POOL_PAYLOAD_BYTES)
        registry.reset()
        # an in-RAM pooled run ships handles into a run-scoped store
        region = block.top.region(layer)
        scan_full_chip(model, region, **kwargs)
        in_ram_bytes = registry.gauge_value(names.POOL_PAYLOAD_BYTES)
        pickled_bytes = len(pickle.dumps(list(region.rects())))
        assert store_bytes is not None and in_ram_bytes is not None
        # the whole wire payload is a handle and scan params, not rects
        for wire_bytes in (store_bytes, in_ram_bytes):
            assert wire_bytes < 2048
            assert wire_bytes < pickled_bytes

    def test_pooled_scan_beyond_int32_matches_serial(self, store_setup, tech45, caplog):
        # a run-scoped store cannot hold these coordinates: the pooled
        # run ships the in-RAM payload pickled, with one warning
        block, _, _ = store_setup
        model = LithoModel(tech45.litho)
        far = block.top.region(tech45.layers.metal1).translated(2**32, 0)
        kwargs = dict(tile_nm=1500, pinch_limit=tech45.metal_width // 2)
        serial = scan_full_chip(model, far, jobs=1, **kwargs)
        with caplog.at_level("WARNING", logger="repro.layout.store"):
            pooled = scan_full_chip(model, far, jobs=2, **kwargs)
        assert pooled.hotspots == serial.hotspots
        assert pooled.tiles == serial.tiles > 1
        assert serial.hotspots
        warnings = [r for r in caplog.records if "run-scoped" in r.getMessage()]
        assert len(warnings) == 1

    def test_warm_pool_never_serves_a_rewritten_store(self, tech45, tmp_path):
        """Re-ingesting a store in place with the same rect count must
        retire a persistent executor's warm pool: the handles name the
        layer digest, so the wire payload changes with the content."""
        width = tech45.metal_width
        m1 = tech45.layers.metal1

        def lines(narrow: bool) -> Layout:
            cell = Cell("TOP")
            for i in range(12):
                y = i * tech45.metal_pitch * 2
                h = width // 3 if narrow and i == 5 else width
                cell.add_rect(m1, Rect(0, y, 3000, y + h))
            layout = Layout("LIB")
            layout.add_cell(cell)
            return layout

        gds, path = str(tmp_path / "lines.gds"), str(tmp_path / "lines.lstore")
        model = LithoModel(tech45.litho)
        kwargs = dict(tile_nm=2000, pinch_limit=width // 2, jobs=2)
        write_gds(lines(False), gds)
        with TileExecutor(2, persistent=True) as executor:
            a = scan_full_chip(
                model, ingest(gds, path).layer_for(m1), executor=executor, **kwargs
            )
            write_gds(lines(True), gds)
            view = ingest(gds, path)
            assert view.layer_for(m1).count == 12  # same slot, new content
            b = scan_full_chip(
                model, view.layer_for(m1), executor=executor, **kwargs
            )
        fresh = scan_full_chip(model, view.layer_for(m1), **{**kwargs, "jobs": 1})
        assert len(a.hotspots) == 24
        assert b.hotspots == fresh.hotspots
        assert len(b.hotspots) == 23

    def test_handle_of_a_rewritten_layer_is_an_error(self, tmp_path):
        path = str(tmp_path / "rw.lstore")
        region = Region([Rect(0, 0, 100, 100)])
        handle = write_store({(1, 0): region}, path).layer(1, 0).handle()
        write_store({(1, 0): Region([Rect(0, 0, 100, 50)])}, path)
        clone = pickle.loads(pickle.dumps(handle))
        with pytest.raises(LayoutStoreError):
            clone.rects()


class TestWriteStore:
    def test_round_trips_regions_with_digests(self, store_setup, tech45, tmp_path):
        block, _, _ = store_setup
        layers = {
            (10, 0): block.top.region(tech45.layers.metal1),
            (2, 0): block.top.region(tech45.layers.poly),
            (7, 0): Region(),
        }
        view = write_store(layers, str(tmp_path / "w.lstore"))
        for key, region in layers.items():
            stored = view.layer(*key)
            assert stored.rects() == list(region.rects())
            assert stored.digest() == region.digest()
        assert view.layer(7, 0).is_empty
        assert not glob.glob(str(tmp_path / "*.tmp"))

    def test_int32_overflow_is_a_typed_error(self, tmp_path):
        with pytest.raises(LayoutStoreError):
            write_store({(1, 0): Region([Rect(0, 0, 2**40, 10)])}, str(tmp_path / "x"))
        assert os.listdir(tmp_path) == []


class TestRunScopedStoreLifecycle:
    """A pooled in-RAM run's transport file never outlives the run."""

    @pytest.fixture
    def tmpdir_lstores(self, tmp_path, monkeypatch):
        """Lists ``*.lstore*`` left in the temp dir, after checking that
        the run really wrote a transport store there."""
        from repro.layout import store as store_mod

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        written: list[str] = []
        real_write = store_mod.write_store

        def recording_write(layers, path):
            written.append(os.fspath(path))
            return real_write(layers, path)

        monkeypatch.setattr(store_mod, "write_store", recording_write)

        def leftovers() -> list[str]:
            assert written and all(p.startswith(str(tmp_path)) for p in written)
            return sorted(glob.glob(str(tmp_path / "*.lstore*")))

        return leftovers

    @pytest.fixture(scope="class")
    def m1(self, small_block, tech45):
        return small_block.top.region(tech45.layers.metal1)

    def _scan(self, tech45, m1, **kwargs):
        model = LithoModel(tech45.litho)
        limit = tech45.metal_width // 2
        return scan_full_chip(model, m1, tile_nm=2000, pinch_limit=limit, jobs=2, **kwargs)

    def test_success(self, tech45, m1, tmpdir_lstores):
        report = self._scan(tech45, m1)
        assert report.tiles_computed == report.tiles > 1
        assert tmpdir_lstores() == []

    def test_drc_success(self, small_block, tech45, tmpdir_lstores):
        from repro.drc import run_drc

        report = run_drc(small_block.top, tech45.rules.minimum(), jobs=2, tile_nm=2500)
        assert report.tiles_computed == report.tiles
        assert tmpdir_lstores() == []

    def test_quarantine(self, tech45, m1, tmpdir_lstores):
        plan = FaultPlan.parse("tile:0:fail")
        report = self._scan(tech45, m1, fault_plan=plan, max_retries=0)
        assert len(report.quarantined) == 1
        assert tmpdir_lstores() == []

    def test_abort(self, tech45, m1, tmpdir_lstores):
        with pytest.raises(AbortRun):
            self._scan(tech45, m1, fault_plan=FaultPlan.parse("tile:1:abort"))
        assert tmpdir_lstores() == []

    def test_timeout_recreates_pool(self, tech45, m1, tmpdir_lstores, registry):
        # the timeout sits far above one tile's compute (~0.2 s), so on
        # a loaded host only the hung chunk can reach it
        plan = FaultPlan.parse("chunk:0:hang:60")
        report = self._scan(tech45, m1, fault_plan=plan, timeout=5.0, max_retries=0)
        assert registry.counter(names.POOL_TIMEOUTS) == 1
        assert "timeout" in report.quarantined[0].error
        assert tmpdir_lstores() == []

    def test_session_manager_close_removes_private_dir(self, store_setup):
        from repro.service import SessionManager

        _, gds, _ = store_setup
        manager = SessionManager()
        view = manager.get(gds).store()
        private = os.path.dirname(view.path)
        assert os.path.isfile(view.path)
        manager.close()
        assert not os.path.exists(private)


class TestDrcEquivalence:
    @pytest.fixture(scope="class")
    def drc_setup(self, tmp_path_factory, small_block, tech45):
        d = tmp_path_factory.mktemp("drcstore")
        gds = str(d / "block.gds")
        write_gds(small_block.layout, gds)
        view = ensure_store(gds, str(d / "block.lstore"))
        return small_block, tech45.rules.minimum(), view

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_store_matches_in_ram(self, drc_setup, jobs):
        from repro.drc import run_drc

        block, deck, view = drc_setup
        ram = run_drc(block.top, deck, jobs=jobs, tile_nm=2500)
        stored = run_drc(None, deck, jobs=jobs, tile_nm=2500, store=view)
        assert stored.violations == ram.violations
        assert stored.tiles == ram.tiles
        assert stored.cell_name == ram.cell_name

    def test_single_pass_matches_in_ram(self, drc_setup):
        from repro.drc import run_drc

        block, deck, view = drc_setup
        ram = run_drc(block.top, deck)
        stored = run_drc(None, deck, store=view)
        assert stored.violations == ram.violations

    def test_windowed_matches_in_ram(self, drc_setup):
        from repro.drc import run_drc

        block, deck, view = drc_setup
        bbox = block.top.bbox
        window = Rect(bbox.x0, bbox.y0, (bbox.x0 + bbox.x1) // 2, bbox.y1)
        ram = run_drc(block.top, deck, window)
        stored = run_drc(None, deck, window, store=view)
        assert stored.violations == ram.violations

    def test_tile_caches_are_interchangeable(self, drc_setup):
        from repro.drc import run_drc

        block, deck, view = drc_setup
        cache = TileCache()
        first = run_drc(block.top, deck, jobs=2, tile_nm=2500, cache=cache)
        second = run_drc(None, deck, jobs=2, tile_nm=2500, cache=cache, store=view)
        assert first.tiles_computed == first.tiles
        assert second.tiles_computed == 0
        assert second.violations == first.violations

    def test_cell_and_store_both_missing_is_an_error(self, drc_setup):
        from repro.drc import run_drc

        _, deck, _ = drc_setup
        with pytest.raises(ValueError):
            run_drc(None, deck)


class TestServiceSessions:
    def _run(self, service, kind, gds):
        from repro.service.jobs import JobState

        params = {"gds": gds}
        if kind == "scan":
            params["layer"] = "M1"
        job = service.wait(service.submit(kind, params), timeout=120)
        assert job.state is JobState.DONE
        return job.result

    @pytest.mark.parametrize("kind", ["scan", "drc"])
    def test_store_backed_session_matches_in_ram(
        self, store_setup, tmp_path, kind
    ):
        from repro.service import VerificationService

        _, gds, _ = store_setup
        with VerificationService(jobs=1) as plain:
            expect = self._run(plain, kind, gds)
        with VerificationService(
            jobs=1, session_store_dir=str(tmp_path / "stores")
        ) as backed:
            assert self._run(backed, kind, gds) == expect

    def test_sessions_survive_restart(self, store_setup, registry, tmp_path):
        from repro.service import VerificationService

        _, gds, _ = store_setup
        store_dir = str(tmp_path / "stores")
        with VerificationService(jobs=1, session_store_dir=store_dir) as first:
            before = self._run(first, "drc", gds)
        registry.reset()
        # a fresh service (daemon restart) maps the same store file:
        # no GDSII parse, no re-ingest
        with VerificationService(jobs=1, session_store_dir=store_dir) as second:
            assert self._run(second, "drc", gds) == before
        assert registry.counter(names.LAYOUTSTORE_REUSED) == 1
        assert registry.counter(names.LAYOUTSTORE_INGESTS) == 0

    def test_unusable_store_falls_back_in_ram(self, store_setup, registry, tmp_path):
        from repro.service import VerificationService

        _, gds, _ = store_setup
        store_dir = tmp_path / "stores"
        store_dir.mkdir()
        name = hashlib.sha256(
            os.path.abspath(gds).encode("utf-8")
        ).hexdigest()[:16]
        # a directory where the store file should go: ingest cannot win
        (store_dir / f"{name}.lstore").mkdir()
        with VerificationService(jobs=1) as plain:
            expect = self._run(plain, "drc", gds)
        with VerificationService(jobs=1, session_store_dir=str(store_dir)) as svc:
            assert self._run(svc, "drc", gds) == expect
        assert registry.counter(names.LAYOUTSTORE_FALLBACK) == 1


class TestPeakRss:
    def test_sample_gauges_a_plausible_value(self, registry):
        peak = sample_peak_rss(registry)
        assert peak is not None and peak > 1 << 20  # a real process > 1 MiB
        assert registry.gauge_value(names.RUN_PEAK_RSS_BYTES) == peak

    def test_cli_child_does_not_inherit_parent_peak(self, tmp_path):
        # ru_maxrss survives fork+exec: a CLI child spawned from a big
        # parent would report the parent's high-water mark as its own
        ballast = b"\x01" * (256 << 20)  # written, so resident here
        manifest = tmp_path / "manifest.json"
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "generate", "--rows", "1",
                "--out", str(tmp_path / "block.gds"), "--metrics-out", str(manifest),
            ],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        del ballast
        assert proc.returncode == 0, proc.stderr[-2000:]
        gauges = json.loads(manifest.read_text(encoding="utf-8"))["gauges"]
        assert gauges[names.RUN_PEAK_RSS_BYTES] < 150 << 20
