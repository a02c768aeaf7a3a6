"""Shared-memory payload transport: workers mmap a run-scoped store.

The contract: a pooled scan/DRC run over in-RAM regions ships its
geometry as constant-size store handles — the workers map the same
file pages read-only — and produces bit-identical results and
interchangeable tile-cache entries vs. the pickled payload it falls
back to when no store can be written (a coordinate beyond int32, a
big-endian host, an unwritable temp dir).
"""

from __future__ import annotations

import glob
import logging
import os
import pickle
import tempfile

import pytest

from repro.designgen import LogicBlockSpec, generate_logic_block
from repro.geometry import Rect, Region
from repro.layout import store as store_mod
from repro.layout.store import LayoutStoreError, StoreRects, run_store, write_store
from repro.litho import LithoModel, scan_full_chip
from repro.obs import MetricsRegistry, names, set_registry
from repro.parallel import TileCache


@pytest.fixture
def registry():
    fresh = MetricsRegistry(enabled=True)
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


@pytest.fixture(scope="module")
def scan_setup(tech45, stdlib45):
    spec = LogicBlockSpec(rows=1, row_width_nm=5000, net_count=5, seed=11, weak_spots=4)
    block = generate_logic_block(tech45, spec, stdlib45)
    model = LithoModel(tech45.litho)
    m1 = block.top.region(tech45.layers.metal1)
    return tech45, model, m1


@pytest.fixture
def store_usable(monkeypatch):
    """``store_usable(False)`` makes every run-scoped store fail as on a
    big-endian host, so a pooled run ships its payload pickled;
    ``store_usable(True)`` restores the real host check."""
    real_check = store_mod._check_host

    def refuse() -> None:
        raise LayoutStoreError("layout stores require a little-endian host")

    def toggle(usable: bool) -> None:
        monkeypatch.setattr(store_mod, "_check_host", real_check if usable else refuse)

    return toggle


RECTS_A = [Rect(0, 0, 100, 50), Rect(0, 50, 40, 90), Rect(200, 0, 260, 30)]


class TestArenaAndHandles:
    def test_unpickled_handle_reattaches_with_plain_ints(self, tmp_path):
        region = Region([Rect(i * 100, 0, i * 100 + 50, 50 + i) for i in range(40)])
        view = write_store({(1, 0): region}, str(tmp_path / "h.lstore"))
        handle = view.layer(1, 0).handle()
        assert isinstance(handle, StoreRects)
        wire = pickle.dumps(handle)
        # the wire form is the (path, offset, count, digest) handle only —
        # far smaller than the pickled rect list itself
        assert len(wire) < len(pickle.dumps(list(region.rects())))
        clone = pickle.loads(wire)
        assert clone._layer is None  # lazily mapped
        rebuilt = clone.rects()
        assert rebuilt == list(region.rects())
        for r in rebuilt:
            assert type(r.x0) is int and type(r.y1) is int

    def test_region_from_canonical_rects_roundtrip(self, tmp_path):
        region = Region([Rect(0, 0, 300, 100), Rect(0, 50, 100, 400), Rect(250, 80, 420, 130)])
        rebuilt = Region.from_canonical_rects(list(region.rects()))
        assert rebuilt == region
        assert rebuilt.digest() == region.digest()
        # the rects a worker reads back from the store rebuild it too
        view = write_store({(1, 0): region}, str(tmp_path / "c.lstore"))
        mapped = Region.from_canonical_rects(view.layer(1, 0).rects())
        assert mapped == region
        assert mapped.digest() == region.digest()


class TestFallbacks:
    def test_int32_overflow_falls_back(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with caplog.at_level(logging.WARNING, logger="repro.layout.store"):
            with run_store({(0, 0): Region([Rect(0, 0, 2**40, 10)])}) as view:
                assert view is None
        warnings = [r for r in caplog.records if "run-scoped" in r.getMessage()]
        assert len(warnings) == 1
        assert glob.glob(os.path.join(str(tmp_path), "*.lstore*")) == []
        # geometry that fits still gets a store
        with run_store({(0, 0): Region(RECTS_A)}) as view:
            assert view is not None

    def test_scan_without_shared_memory_matches_serial(
        self, scan_setup, registry, store_usable, caplog
    ):
        # a pooled scan on a host that cannot map a store must ship the
        # payload pickled (with one warning) and stay bit-identical
        tech, model, m1 = scan_setup
        limit = tech.metal_width // 2
        store_usable(False)
        serial = scan_full_chip(model, m1, tile_nm=1500, pinch_limit=limit, jobs=1)
        with caplog.at_level(logging.WARNING, logger="repro.layout.store"):
            pooled = scan_full_chip(model, m1, tile_nm=1500, pinch_limit=limit, jobs=2)
        assert pooled.hotspots == serial.hotspots
        assert pooled.tiles == serial.tiles
        warnings = [r for r in caplog.records if "run-scoped" in r.getMessage()]
        assert len(warnings) == 1
        pickled_bytes = registry.gauge_value(names.POOL_PAYLOAD_BYTES)
        assert pickled_bytes is not None
        assert pickled_bytes > len(pickle.dumps(list(m1.rects())))


class TestScanEquivalence:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_shm_matches_pickled_payload(self, scan_setup, jobs, store_usable):
        tech, model, m1 = scan_setup
        limit = tech.metal_width // 2
        kwargs = dict(tile_nm=1500, pinch_limit=limit, jobs=jobs)
        with_shm = scan_full_chip(model, m1, **kwargs)
        store_usable(False)
        pickled = scan_full_chip(model, m1, **kwargs)
        assert with_shm.hotspots == pickled.hotspots
        assert with_shm.tiles == pickled.tiles

    @pytest.mark.parametrize("writer_shm", [True, False])
    def test_tile_caches_are_interchangeable(
        self, scan_setup, writer_shm, store_usable
    ):
        # keys are computed parent-side from the same geometry either
        # way: a cache written over the store transport replays warm
        # under the pickled payload and vice versa
        tech, model, m1 = scan_setup
        limit = tech.metal_width // 2
        kwargs = dict(tile_nm=1500, pinch_limit=limit, jobs=2)
        cache = TileCache()
        store_usable(writer_shm)
        first = scan_full_chip(model, m1, cache=cache, **kwargs)
        store_usable(not writer_shm)
        second = scan_full_chip(model, m1, cache=cache, **kwargs)
        assert first.tiles_computed == first.tiles
        assert second.tiles_computed == 0
        assert second.cache_hit_rate == 1.0
        assert second.hotspots == first.hotspots

    def test_wire_payload_is_smaller_with_shm(self, scan_setup, registry, store_usable):
        tech, model, m1 = scan_setup
        limit = tech.metal_width // 2
        scan_full_chip(model, m1, tile_nm=1500, pinch_limit=limit, jobs=2)
        shm_bytes = registry.gauge_value(names.POOL_PAYLOAD_BYTES)
        registry.reset()
        store_usable(False)
        scan_full_chip(model, m1, tile_nm=1500, pinch_limit=limit, jobs=2)
        pickled_bytes = registry.gauge_value(names.POOL_PAYLOAD_BYTES)
        assert shm_bytes is not None and pickled_bytes is not None
        assert shm_bytes < pickled_bytes


class TestDrcEquivalence:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_shm_matches_pickled_payload(self, small_block, tech45, jobs, store_usable):
        from repro.drc import run_drc

        deck = tech45.rules.minimum()
        with_shm = run_drc(small_block.top, deck, jobs=jobs, tile_nm=2500)
        store_usable(False)
        pickled = run_drc(small_block.top, deck, jobs=jobs, tile_nm=2500)
        assert with_shm.violations == pickled.violations
        assert with_shm.tiles == pickled.tiles

    def test_tile_caches_are_interchangeable(self, small_block, tech45, store_usable):
        from repro.drc import run_drc

        deck = tech45.rules.minimum()
        cache = TileCache()
        first = run_drc(small_block.top, deck, jobs=2, tile_nm=2500, cache=cache)
        store_usable(False)
        second = run_drc(small_block.top, deck, jobs=2, tile_nm=2500, cache=cache)
        assert first.tiles_computed == first.tiles
        assert second.tiles_computed == 0
        assert second.violations == first.violations
