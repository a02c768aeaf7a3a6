"""Equivalence and regression tests for the aerial-image fast path.

The whole fast path — SimCache condition reuse, indexed geometry
windowing, vectorized rasterization — is sold on one promise: results
are *bit-identical* to the straightforward per-condition, whole-chip
engine.  These tests pin that promise at every layer, plus the two bug
fixes that rode along (tile-key stability on cache hits, and
``_min_feature_width`` deflation under slab slicing).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.designgen import LogicBlockSpec, generate_logic_block
from repro.geometry import Rect, Region
from repro.litho import (
    HotspotKind,
    ProcessWindow,
    find_hotspots,
    pv_bands,
    rasterize,
    scan_full_chip,
)
from repro.litho.fullchip import _ScanGeometry, _ScanPayload, _scan_params, _tile_key
from repro.litho.hotspots import _DrawnContext, _min_feature_width
from repro.parallel import TileCache, tile_grid


@pytest.fixture(scope="module")
def fastpath_setup(tech45, stdlib45):
    spec = LogicBlockSpec(rows=1, row_width_nm=4000, net_count=5, seed=9, weak_spots=4)
    block = generate_logic_block(tech45, spec, stdlib45)
    from repro.litho import LithoModel

    model = LithoModel(tech45.litho)
    m1 = block.top.region(tech45.layers.metal1)
    return tech45, model, m1


class TestSimCacheEquivalence:
    """SimCache results must be byte-identical to the uncached model."""

    @pytest.mark.parametrize("defocus", [0.0, 40.0, 80.0])
    def test_aerial_image_identical(self, fastpath_setup, defocus):
        _, model, m1 = fastpath_setup
        window = Rect(500, 0, 2500, 1200)
        sim = model.sim_cache(m1, window, defocus_hint=[0.0, 40.0, 80.0])
        direct = model.aerial_image(m1, window, defocus)
        cached = sim.aerial_image(defocus)
        assert cached.shape == direct.shape
        assert np.array_equal(cached, direct)  # bitwise, not approx

    def test_sliced_raster_serves_smaller_halo_exactly(self, fastpath_setup):
        # the raster is kept at the 80 nm-defocus halo; the 0-defocus
        # image is computed from a centred slice of it and must match
        # the independently-rasterized image bit for bit
        _, model, m1 = fastpath_setup
        window = Rect(0, 0, 2000, 1000)
        sim = model.sim_cache(m1, window, defocus_hint=[80.0])
        assert np.array_equal(sim.aerial_image(0.0), model.aerial_image(m1, window, 0.0))

    def test_unhinted_cache_regrows_raster(self, fastpath_setup):
        # ask for the narrow halo first, then the wide one: the cache
        # must re-rasterize bigger and still match both conditions
        _, model, m1 = fastpath_setup
        window = Rect(0, 0, 1500, 900)
        sim = model.sim_cache(m1, window)
        assert np.array_equal(sim.aerial_image(0.0), model.aerial_image(m1, window, 0.0))
        assert np.array_equal(
            sim.aerial_image(80.0), model.aerial_image(m1, window, 80.0)
        )

    @pytest.mark.parametrize("grid", [4, 8])
    def test_print_contour_identical_across_grids(self, fastpath_setup, grid):
        _, model, m1 = fastpath_setup
        window = Rect(250, 0, 2250, 1100)
        corners = ProcessWindow().corners()
        sim = model.sim_cache(
            m1, window, grid, defocus_hint=[c.defocus_nm for c in corners]
        )
        for c in corners:
            assert sim.print_contour(c.dose, c.defocus_nm) == model.print_contour(
                m1, window, c.dose, c.defocus_nm, grid
            )

    def test_plus_minus_defocus_share_one_blur(self, fastpath_setup):
        # sigma combines defocus in quadrature, so ±d collapse to one
        # cached image — and both match their direct simulations
        _, model, m1 = fastpath_setup
        window = Rect(0, 0, 1000, 800)
        sim = model.sim_cache(m1, window, defocus_hint=[60.0, -60.0])
        a = sim.aerial_image(60.0)
        b = sim.aerial_image(-60.0)
        assert a is b
        assert np.array_equal(a, model.aerial_image(m1, window, -60.0))


class TestSweepEquivalence:
    """find_hotspots / pv_bands with the cache on vs off."""

    @pytest.mark.parametrize("jobs_grid", [None, 8])
    def test_find_hotspots_cache_on_off(self, fastpath_setup, jobs_grid):
        tech, model, m1 = fastpath_setup
        window = Rect(0, 0, 3000, 1400)
        limit = tech.metal_width // 2
        fast = find_hotspots(
            model, m1, window, pinch_limit=limit, grid=jobs_grid, use_cache=True
        )
        slow = find_hotspots(
            model, m1, window, pinch_limit=limit, grid=jobs_grid, use_cache=False
        )
        assert fast == slow

    def test_pv_bands_cache_on_off(self, fastpath_setup):
        _, model, m1 = fastpath_setup
        window = Rect(0, 0, 2500, 1200)
        assert pv_bands(model, m1, window, use_cache=True) == pv_bands(
            model, m1, window, use_cache=False
        )

    def test_pv_bands_over_process_grid_conditions(self, fastpath_setup):
        _, model, m1 = fastpath_setup
        window = Rect(0, 0, 2000, 1000)
        conditions = list(ProcessWindow().grid(n_dose=3, n_defocus=3))
        fast = pv_bands(model, m1, window, conditions=conditions, use_cache=True)
        slow = pv_bands(model, m1, window, conditions=conditions, use_cache=False)
        assert fast == slow


class TestScanFastPath:
    """scan_full_chip fast_path on vs off, serial, parallel, cached."""

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_fast_equals_legacy(self, fastpath_setup, jobs):
        tech, model, m1 = fastpath_setup
        limit = tech.metal_width // 2
        fast = scan_full_chip(
            model, m1, tile_nm=1200, pinch_limit=limit, jobs=jobs, fast_path=True
        )
        legacy = scan_full_chip(
            model, m1, tile_nm=1200, pinch_limit=limit, jobs=jobs, fast_path=False
        )
        assert fast.hotspots == legacy.hotspots
        assert fast.tiles == legacy.tiles

    @pytest.mark.parametrize("writer_fast", [True, False])
    def test_tile_caches_are_interchangeable(self, fastpath_setup, writer_fast):
        # satellite 1 regression: keys digest the *indexed local clip*,
        # which must equal the full-sweep clip's digest — so a cache
        # written by either engine replays warm under the other
        tech, model, m1 = fastpath_setup
        limit = tech.metal_width // 2
        cache = TileCache()
        first = scan_full_chip(
            model, m1, tile_nm=1200, pinch_limit=limit, cache=cache,
            fast_path=writer_fast,
        )
        second = scan_full_chip(
            model, m1, tile_nm=1200, pinch_limit=limit, cache=cache,
            fast_path=not writer_fast,
        )
        assert first.tiles_computed == first.tiles
        assert second.tiles_computed == 0
        assert second.cache_hit_rate == 1.0
        assert second.hotspots == first.hotspots

    def test_tile_key_stability(self, fastpath_setup):
        # the digest from the indexed local clip must equal the digest
        # from clipping the whole-chip region, tile by tile
        tech, model, m1 = fastpath_setup
        process = ProcessWindow()
        g = model.settings.grid_nm
        halo = max(model.halo_nm(c.defocus_nm) for c in process.corners())
        halo = -(-halo // g) * g
        limit = tech.metal_width // 2
        fast = _ScanPayload(
            model, _ScanGeometry(m1), None, process, limit, None, halo, True
        )
        legacy = _ScanPayload(model, m1, None, process, limit, None, halo, False)
        params = _scan_params(fast, limit, None)
        tiles = tile_grid(m1.bbox, 1200, 200)
        assert len(tiles) > 1
        for tile in tiles:
            assert _tile_key(fast, tile, params, halo) == _tile_key(
                legacy, tile, params, halo
            )

    def test_scan_geometry_survives_pickle(self, fastpath_setup):
        import pickle

        _, _, m1 = fastpath_setup
        geo = _ScanGeometry(m1)
        window = Rect(0, 0, 2000, 2000)
        before = sorted(r.as_tuple() for r in geo.near(window))
        clone = pickle.loads(pickle.dumps(geo))
        assert sorted(r.as_tuple() for r in clone.near(window)) == before
        assert clone.clipped(window) == geo.clipped(window)


class TestMinFeatureWidth:
    """Satellite 2: slab slicing must not deflate the estimate."""

    def test_l_shape_reports_arm_thickness(self):
        region = Region([Rect(0, 0, 300, 100), Rect(0, 0, 100, 400)])
        assert _min_feature_width(region) == 100

    def test_neighbour_edges_do_not_deflate_a_bar(self):
        # the canonical slab cuts of B (x=480) and C (x=500) slice the
        # 1000-wide bar into a 20-wide fragment; the raw-rect minimum
        # reported 20 where no feature is narrower than 100
        bar = Rect(0, 0, 1000, 100)
        b = Rect(480, 300, 580, 400)
        c = Rect(500, 500, 600, 600)
        region = Region([bar, b, c])
        # the slicing really happens (guard against Region changes
        # silently making this test vacuous)
        assert any(r.x1 - r.x0 < 100 for r in region.rects())
        assert _min_feature_width(region) == 100

    def test_genuinely_narrow_feature_still_detected(self):
        region = Region([Rect(0, 0, 1000, 100), Rect(480, 300, 500, 400)])
        assert _min_feature_width(region) == 20

    def test_single_rect(self):
        assert _min_feature_width(Region([Rect(0, 0, 50, 200)])) == 50


def _fast_equals_reference(model, drawn, window, grid, **kwargs):
    fast = find_hotspots(model, drawn, window, grid=grid, use_cache=True, **kwargs)
    slow = find_hotspots(model, drawn, window, grid=grid, use_cache=False, **kwargs)
    assert fast == slow
    return fast


def _incidences(ctx):
    """Every (flat pixel, drawn component) pair the owner raster records."""
    owner = ctx.owner.ravel()
    single = np.flatnonzero(owner > 0)
    pairs = set(zip(single.tolist(), (owner[single] - 1).tolist()))
    return pairs | set(zip(ctx.shared_pix.tolist(), ctx.shared_own.tolist()))


class TestLabelledBridgeMissing:
    """Bridge/missing read off labelled printed pixels must match the
    reference engine's Region components and pairwise overlaps."""

    @pytest.mark.parametrize("grid", [2, 4, 5, 8])
    def test_two_line_bridges_across_pixel_boundaries(self, litho45, grid):
        shared = 0
        for gap in range(1, 2 * grid + 1):
            for shift in range(0, grid, max(1, grid // 3)):
                x = 50 + shift
                drawn = Region([Rect(0, 0, x, 160), Rect(x + gap, 0, x + gap + 50, 160)])
                window = Rect(-61, -57, x + gap + 113, 219)
                found = _fast_equals_reference(litho45, drawn, window, grid, pinch_limit=20)
                assert any(h.kind is HotspotKind.BRIDGE for h in found)
                ctx = _DrawnContext(drawn & Region(window), 50, window, grid)
                shared += len(ctx.shared_pix) > 0
        # a pixel overlaps both lines once the gap is two less than the
        # grid, so every grid but 2 puts some pairs in one pixel
        assert shared > 0 or grid == 2

    @pytest.mark.parametrize("grid", [4, 5, 8])
    def test_speck_reached_only_through_shared_pixels(self, litho45, grid):
        # a 1 nm speck whose only overlapping pixel is the line's edge
        # pixel: the printed line touches it through shared pixels alone
        bridged = 0
        for gap in range(1, grid - 1):
            for x in range(50, 50 + grid):
                drawn = Region([Rect(0, 0, x, 200), Rect(x + gap, 100, x + gap + 1, 101)])
                window = Rect(-61, -57, 130, 259)
                found = _fast_equals_reference(litho45, drawn, window, grid, pinch_limit=20)
                bridged += any(h.kind is HotspotKind.BRIDGE for h in found)
        assert bridged > 0

    @pytest.mark.parametrize("grid", [4, 5, 8])
    def test_corner_touching_squares_share_a_pixel(self, litho45, grid):
        # corner contact is not 4-connected: two drawn components whose
        # shared corner lies inside one pixel
        drawn = Region([Rect(0, 0, 61, 61), Rect(61, 61, 122, 122)])
        window = Rect(-80, -80, 200, 200)
        assert len(_DrawnContext(drawn, 61, window, grid).shared_pix) == 2
        _fast_equals_reference(litho45, drawn, window, grid)

    @pytest.mark.parametrize("grid", [4, 5, 8])
    def test_owner_raster_matches_per_component_coverage(self, grid):
        # three specks 1 nm apart in the first pixel, corner-touching
        # squares, and a plain bar
        drawn = Region(
            [
                Rect(0, 0, 1, 1), Rect(2, 0, 3, 1), Rect(0, 2, 1, 3),
                Rect(10, 10, 13, 13), Rect(13, 13, 17, 17),
                Rect(20, 0, 61, 37),
            ]
        )
        window = Rect(0, 0, 70, 45)
        ctx = _DrawnContext(drawn, _min_feature_width(drawn), window, grid)
        want = {
            (pixel, k)
            for k, comp in enumerate(ctx.components)
            for pixel in np.flatnonzero(rasterize(comp, window, grid) > 0).tolist()
        }
        assert _incidences(ctx) == want
        owners_of_first_pixel = {k for pixel, k in want if pixel == 0}
        assert len(owners_of_first_pixel) == 3
        assert ctx.owner[0, 0] == -1

    @pytest.mark.parametrize("grid", [2, 5, 8])
    def test_specks_that_fail_to_print(self, litho45, grid):
        drawn = Region(
            [
                Rect(0, 0, 12, 12), Rect(163, 7, 177, 19),  # too small to print
                Rect(300, 0, 345, 300), Rect(371, 0, 416, 300),  # a bridging pair
            ]
        )
        found = _fast_equals_reference(litho45, drawn, Rect(-150, -153, 560, 451), grid)
        kinds = [h.kind for h in found]
        assert kinds.count(HotspotKind.MISSING) == 2
        assert HotspotKind.BRIDGE in kinds

    @pytest.mark.parametrize("grid", [4, 5])
    def test_opc_mask_differs_from_drawn(self, litho45, grid):
        lines = Region([Rect(0, 0, 45, 400), Rect(120, 0, 165, 400)])
        square = Region(Rect(300, 100, 390, 190))
        drawn = lines | square
        window = Rect(-100, -100, 500, 500)
        # the exposed mask bridges the lines and drops the square
        mask = lines | Region(Rect(45, 180, 120, 230))
        found = _fast_equals_reference(litho45, drawn, window, grid, mask=mask)
        kinds = {h.kind for h in found}
        assert {HotspotKind.BRIDGE, HotspotKind.MISSING} <= kinds
        _fast_equals_reference(litho45, drawn, window, grid, mask=drawn.grown(3))

    @settings(max_examples=40, deadline=None)
    @given(
        grid=st.sampled_from([2, 4, 5, 8]),
        boxes=st.lists(
            st.tuples(
                st.integers(0, 200), st.integers(0, 200),
                st.integers(1, 90), st.integers(1, 90),
            ),
            min_size=1,
            max_size=8,
        ),
        dx=st.integers(-7, 7),
        dy=st.integers(-7, 7),
    )
    def test_random_layouts(self, litho45, grid, boxes, dx, dy):
        drawn = Region([Rect(x, y, x + w, y + h) for x, y, w, h in boxes])
        window = Rect(-40 + dx, -40 + dy, 260 + dx, 260 + dy)
        _fast_equals_reference(litho45, drawn, window, grid)
