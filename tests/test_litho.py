"""Unit tests for the litho stack: rasterization, aerial image physics,
CD metrology, process windows, and hotspot detection."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.ndimage import gaussian_filter
from scipy.ndimage._filters import _gaussian_kernel1d

from repro.geometry import Point, Rect, Region
from repro.litho import (
    Cutline,
    HotspotKind,
    LithoModel,
    ProcessCondition,
    ProcessWindow,
    find_hotspots,
    measure_cd,
    pv_bands,
    raster_to_region,
    rasterize,
    simulate,
)
from repro.litho.cd import line_end_pullback, measure_space, subpixel_cd
from repro.litho.model import _GEMM_CAP, _gaussian_band, _pass_plan
from repro.litho.process import pv_band_area
from repro.tech import NODE_32, NODE_45, NODE_65


class TestRaster:
    def test_full_pixel_coverage(self):
        img = rasterize(Region(Rect(0, 0, 10, 10)), Rect(0, 0, 10, 10), 5)
        assert img.shape == (2, 2)
        assert np.allclose(img, 1.0)

    def test_fractional_coverage(self):
        img = rasterize(Region(Rect(0, 0, 5, 10)), Rect(0, 0, 10, 10), 10)
        assert img.shape == (1, 1)
        assert img[0, 0] == pytest.approx(0.5)

    def test_subpixel_rect(self):
        img = rasterize(Region(Rect(2, 2, 4, 4)), Rect(0, 0, 10, 10), 10)
        assert img[0, 0] == pytest.approx(0.04)

    def test_area_conservation(self):
        region = Region([Rect(3, 7, 47, 23), Rect(60, 0, 95, 55)])
        window = Rect(0, 0, 100, 60)
        img = rasterize(region, window, 7)
        # sum of coverage * pixel area equals geometric area (interior window)
        assert img.sum() * 49 == pytest.approx(region.area, rel=0.02)

    def test_clipping_outside(self):
        img = rasterize(Region(Rect(-100, -100, -50, -50)), Rect(0, 0, 10, 10), 5)
        assert img.sum() == 0

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            rasterize(Region(), Rect(0, 0, 10, 10), 0)

    def test_raster_to_region_roundtrip(self):
        region = Region([Rect(0, 0, 20, 10), Rect(40, 0, 60, 10)])
        window = Rect(0, 0, 100, 20)
        mask = rasterize(region, window, 5) >= 0.5
        back = raster_to_region(mask, window, 5)
        assert back == region


def _row_run_region(mask, window, grid):
    """The bitmap as a Region of its row runs, one rect per run, built
    through the general rectangle sweep (the construction that
    ``raster_to_region`` replaces)."""
    rects = []
    for j, row in enumerate(mask.tolist()):
        i = 0
        while i < len(row):
            if not row[i]:
                i += 1
                continue
            stop = i
            while stop < len(row) and row[stop]:
                stop += 1
            rects.append(
                Rect(
                    window.x0 + i * grid,
                    window.y0 + j * grid,
                    min(window.x0 + stop * grid, window.x1),
                    min(window.y0 + (j + 1) * grid, window.y1),
                )
            )
            i = stop
    return Region(rects)


@st.composite
def _bitmaps(draw):
    grid = draw(st.sampled_from([2, 4, 5, 8]))
    w, h = draw(st.integers(1, 70)), draw(st.integers(1, 70))
    x0, y0 = draw(st.integers(-100, 100)), draw(st.integers(-100, 100))
    nx, ny = -(-w // grid), -(-h // grid)
    kind = draw(st.sampled_from(["random", "empty-columns", "all", "single"]))
    if kind == "all":
        mask = np.ones((ny, nx), dtype=bool)
    elif kind == "single":
        mask = np.zeros((ny, nx), dtype=bool)
        mask[draw(st.integers(0, ny - 1)), draw(st.integers(0, nx - 1))] = True
    else:
        bits = draw(st.lists(st.booleans(), min_size=nx * ny, max_size=nx * ny))
        mask = np.array(bits, dtype=bool).reshape(ny, nx)
        if kind == "empty-columns":
            mask[:, draw(st.lists(st.integers(0, nx - 1), max_size=nx))] = False
    return mask, Rect(x0, y0, x0 + w, y0 + h), grid


class TestRasterToRegionProperties:
    @settings(max_examples=300, deadline=None)
    @given(_bitmaps())
    def test_equals_row_run_construction(self, case):
        mask, window, grid = case
        got = raster_to_region(mask, window, grid)
        want = _row_run_region(mask, window, grid)
        assert got == want
        assert got.digest() == want.digest()

    def test_partial_last_column_and_row_are_clipped(self):
        mask = np.ones((3, 3), dtype=bool)
        window = Rect(0, 0, 13, 11)  # neither side a multiple of 5
        assert raster_to_region(mask, window, 5) == Region(window)


class TestAerialImage:
    def test_clear_field_prints_one(self, litho45):
        big = Region(Rect(-2000, -2000, 2000, 2000))
        image = litho45.aerial_image(big, Rect(-100, -100, 100, 100))
        assert image.mean() == pytest.approx(1.0, abs=0.02)

    def test_empty_field_zero(self, litho45):
        image = litho45.aerial_image(Region(), Rect(0, 0, 100, 100))
        assert np.allclose(image, 0.0)

    def test_straight_edge_at_half(self, litho45):
        # a long straight edge images at intensity 0.5 exactly at the edge
        half_plane = Region(Rect(-5000, -5000, 0, 5000))
        image = litho45.aerial_image(half_plane, Rect(-20, -20, 20, 20), grid=2)
        mid_col = image[:, image.shape[1] // 2]
        # the pixel at x=0 straddles the edge
        assert 0.4 < mid_col.mean() < 0.6

    def test_dose_scales_threshold(self, litho45):
        line = Region(Rect(0, 0, 45, 2000))
        cut = Cutline(Point(22, 1000))
        cd_low = litho45.measure_cd(line, cut, dose=0.9)
        cd_nom = litho45.measure_cd(line, cut, dose=1.0)
        cd_high = litho45.measure_cd(line, cut, dose=1.1)
        assert cd_low < cd_nom < cd_high

    def test_defocus_blurs(self, litho45):
        assert litho45.blur_sigma_nm(100) > litho45.blur_sigma_nm(0)

    def test_iso_dense_bias(self, litho45):
        dense = Region([Rect(x, 0, x + 45, 2000) for x in range(0, 1800, 90)])
        iso = Region(Rect(900, 0, 945, 2000))
        cut = Cutline(Point(922, 1000))
        cd_dense = litho45.measure_cd(dense, cut)
        cd_iso = litho45.measure_cd(iso, cut)
        assert abs(cd_dense - 45) < 3  # dense anchored near target
        assert cd_iso > cd_dense  # flare prints isolated lines fat

    def test_print_contour_region(self, litho45):
        line = Region(Rect(0, 0, 100, 1000))
        printed = litho45.print_contour(line, Rect(-100, 400, 200, 600))
        assert not printed.is_empty
        assert printed.bbox.width == pytest.approx(100, abs=15)

    def test_simulate_convenience(self, tech45):
        printed = simulate(Region(Rect(0, 0, 100, 500)), Rect(-50, 200, 150, 300), tech45.litho)
        assert not printed.is_empty

    def test_invalid_dose(self, litho45):
        with pytest.raises(ValueError):
            litho45.print_image(Region(), Rect(0, 0, 10, 10), dose=0)


SHIPPED_NODES = [NODE_65, NODE_45, NODE_32]


def _reference_blur(model, raster, sigma_px, trim):
    """The blur by ``gaussian_filter`` over the whole raster, then cropped
    to the core: the oracle for the banded products."""
    main = gaussian_filter(raster, sigma_px, mode="constant")
    wide = gaussian_filter(raster, sigma_px * model.flare_ratio, mode="constant")
    image = (1.0 + model.flare) * main - model.flare * wide
    h, w = raster.shape
    return image[trim : h - trim, trim : w - trim]


def _node_sigmas(tech, steps=4):
    """(model, sigma_px, trim) from defocus 0 to the node's max defocus."""
    model = LithoModel(tech.litho)
    g = model.settings.grid_nm
    for defocus in np.linspace(0.0, model.settings.max_defocus_nm, steps):
        yield model, model.blur_sigma_nm(defocus) / g, model._halo_px(defocus, g)


class TestBandedBlur:
    """``LithoModel._blur`` against ``gaussian_filter`` plus crop."""

    def _check(self, model, raster, sigma_px, trim):
        got = model._blur(raster, sigma_px, trim)
        want = _reference_blur(model, raster, sigma_px, trim)
        assert got.shape == want.shape
        if want.size:
            assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("tech", SHIPPED_NODES, ids=lambda t: t.name)
    def test_matches_oracle_over_the_focus_range(self, tech):
        rng = np.random.default_rng(tech.node_nm)
        for model, sigma_px, trim in _node_sigmas(tech):
            # non-square, and neither side a multiple of a block
            raster = rng.random((2 * trim + 70, 2 * trim + 45))
            self._check(model, raster, sigma_px, trim)

    @pytest.mark.parametrize("tech", SHIPPED_NODES, ids=lambda t: t.name)
    @pytest.mark.parametrize(
        "core", [(1, 1), (3, 17), (31, 5), (8, 160), (160, 8)], ids=lambda c: f"{c[0]}x{c[1]}"
    )
    def test_small_cores_and_measure_cd_strips(self, tech, core):
        rng = np.random.default_rng(core[0] * 1000 + core[1])
        for model, sigma_px, trim in _node_sigmas(tech, steps=2):
            raster = rng.random((core[0] + 2 * trim, core[1] + 2 * trim))
            self._check(model, raster, sigma_px, trim)

    def test_rasterized_mask_without_halo(self, litho45):
        mask = Region([Rect(0, 0, 45, 300), Rect(90, 0, 135, 300), Rect(0, 340, 300, 385)])
        raster = rasterize(mask, Rect(-20, -20, 320, 400), 5)
        self._check(litho45, raster, 4.6, 0)

    def test_empty_core(self, litho45):
        raster = np.ones((20, 30))
        assert litho45._blur(raster, 4.6, 10).shape == (0, 10)
        assert litho45._blur(raster, 4.6, 16).shape == (0, 0)

    def test_zero_sigma_is_the_identity(self, litho45):
        """``gaussian_filter`` skips an axis whose sigma is zero."""
        raster = np.random.default_rng(0).random((12, 9))
        self._check(litho45, raster, 0.0, 2)

    def test_measure_cd_strip_image(self, litho45):
        """A ``measure_cd`` window is 8 pixels across."""
        line = Region(Rect(0, 0, 45, 2000))
        g = litho45.settings.grid_nm
        for window in (Rect(-400, 980, 400, 1020), Rect(2, 600, 42, 1400)):
            trim = litho45._halo_px(0.0, g)
            big = window.expanded(trim * g)
            raster = rasterize(line, big, g)
            image = litho45.aerial_image(line, window, 0.0, g)
            want = _reference_blur(litho45, raster, litho45.blur_sigma_nm(0.0) / g, trim)
            assert np.abs(image - want).max() <= 1e-12

    @pytest.mark.parametrize("sigma_px", [0.05, 1.0, 4.575, 13.7, 20.3])
    def test_taps_equal_scipy(self, sigma_px):
        band, r = _gaussian_band(sigma_px)
        assert r == int(4.0 * sigma_px + 0.5)
        taps = _gaussian_kernel1d(sigma_px, 0, r)
        for i in range(band.shape[0]):
            assert np.array_equal(band[i, i : i + 2 * r + 1], taps)
            assert not band[i, :i].any() and not band[i, i + 2 * r + 1 :].any()


class TestBlurPlan:
    """Every product the blur runs is small enough that OpenBLAS keeps it
    on the calling thread, so pooled workers start no BLAS threads."""

    @pytest.mark.parametrize("tech", SHIPPED_NODES, ids=lambda t: t.name)
    def test_products_stay_under_the_single_thread_cap(self, tech, monkeypatch):
        model = LithoModel(tech.litho)
        g = model.settings.grid_nm
        defocus = model.settings.max_defocus_nm
        sigma_px, trim = model.blur_sigma_nm(defocus) / g, model._halo_px(defocus, g)
        products = []
        matmul = np.matmul

        def recording(a, b, **kwargs):
            products.append((a.shape[-2], a.shape[-1], b.shape[-1]))
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", recording)
        for core in [(1, 1), (8, 160), (160, 8), (33, 65), (600, 410)]:
            model._blur(np.ones((core[0] + 2 * trim, core[1] + 2 * trim)), sigma_px, trim)
        assert len(products) == 4 * 5  # two passes per kernel, two kernels
        # the flare kernel at max defocus is the widest any node plans
        assert max(k for _, k, _ in products) > 2 * int(4.0 * sigma_px * model.flare_ratio)
        assert all(m * k * n <= _GEMM_CAP for m, k, n in products)

    def test_plan_caps_every_radius(self):
        for r in (0, 1, 18, 55, 81, 300, 2100, 50_000):
            for n_out, n_across in ((1, 1), (7, 3000), (64, 64), (5000, 5000)):
                b, c = _pass_plan(n_out, n_across, r)
                assert 1 <= b <= n_out and 1 <= c <= n_across
                assert b * (b + 2 * r) * c <= _GEMM_CAP

    def test_band_cache_is_bounded_and_shared_read_only(self):
        assert _gaussian_band.cache_info().maxsize is not None
        for i in range(3 * _gaussian_band.cache_info().maxsize):
            band, _ = _gaussian_band(1.0 + i / 97)
            assert not band.flags.writeable
        info = _gaussian_band.cache_info()
        assert info.currsize <= info.maxsize


class TestCdMetrology:
    region = Region([Rect(0, 0, 45, 1000), Rect(145, 0, 190, 1000)])

    def test_measure_cd(self):
        assert measure_cd(self.region, Cutline(Point(22, 500))) == 45

    def test_measure_cd_missing(self):
        assert measure_cd(Region(), Cutline(Point(0, 0))) == 0

    def test_measure_cd_nearest_span(self):
        # cut point in the gap: returns nearest feature's width
        assert measure_cd(self.region, Cutline(Point(100, 500))) == 45

    def test_measure_space(self):
        assert measure_space(self.region, Cutline(Point(100, 500))) == 100
        assert measure_space(self.region, Cutline(Point(22, 500))) == 0

    def test_vertical_cut(self):
        region = Region(Rect(0, 0, 1000, 45))
        assert measure_cd(region, Cutline(Point(500, 22), horizontal=False)) == 45

    def test_pullback(self, litho45):
        line = Region(Rect(0, 200, 45, 800))
        printed = litho45.print_contour(line, Rect(-100, 100, 145, 900))
        pb = line_end_pullback(printed, line, Cutline(Point(22, 500), horizontal=False))
        assert 0 < pb < 30

    def test_pullback_vanished_line(self):
        line = Region(Rect(0, 0, 45, 100))
        assert line_end_pullback(Region(), line, Cutline(Point(22, 50), horizontal=False)) == 100

    def test_subpixel_cd_precision(self, litho45):
        line = Region(Rect(0, 0, 45, 2000))
        window = Rect(-200, 900, 245, 1100)
        image = litho45.aerial_image(line, window, grid=4)
        cd = subpixel_cd(image, window, 4, Cutline(Point(22, 1000)), 0.5)
        assert cd == pytest.approx(45, abs=8)

    def test_subpixel_cd_not_printing(self, litho45):
        window = Rect(-100, -100, 100, 100)
        image = litho45.aerial_image(Region(), window, grid=4)
        assert subpixel_cd(image, window, 4, Cutline(Point(0, 0)), 0.5) == 0.0


class TestProcessWindow:
    def test_corners(self):
        pw = ProcessWindow(0.95, 1.05, 80)
        corners = pw.corners()
        assert len(corners) == 5
        assert ProcessCondition(1.0, 0.0) in corners

    def test_grid(self):
        pw = ProcessWindow()
        points = list(pw.grid(3, 2))
        assert len(points) == 6

    def test_pv_bands_ordering(self, litho45):
        mask = Region(Rect(0, 0, 60, 2000))
        window = Rect(-150, 800, 210, 1200)
        inner, outer = pv_bands(litho45, mask, window, grid=2)
        assert outer.covers(inner)
        assert (outer - inner).area > 0

    def test_pv_band_area_smaller_for_wider_line(self, litho45):
        window = Rect(-200, 800, 400, 1200)
        narrow = pv_band_area(litho45, Region(Rect(0, 0, 50, 2000)), window, grid=2)
        wide = pv_band_area(litho45, Region(Rect(0, 0, 200, 2000)), window, grid=2)
        # PV band scales with perimeter, roughly equal here; but the
        # narrow line's relative variability dominates: compare per-area
        assert narrow / 50 >= wide / 200


class TestHotspots:
    def test_tight_gap_bridges(self, litho45):
        region = Region([Rect(0, 0, 100, 500), Rect(0, 522, 100, 1000)])
        hotspots = find_hotspots(litho45, region, Rect(-100, -100, 200, 1100))
        kinds = {h.kind for h in hotspots}
        assert HotspotKind.BRIDGE in kinds

    def test_line_ends_pinch(self, litho45):
        region = Region([Rect(0, 0, 45, 500), Rect(0, 560, 45, 1000)])
        hotspots = find_hotspots(litho45, region, Rect(-100, -100, 200, 1100))
        assert hotspots
        assert all(h.kind is HotspotKind.PINCH for h in hotspots)

    def test_clean_wide_pattern(self, litho45):
        region = Region(Rect(0, 0, 400, 2000))
        hotspots = find_hotspots(litho45, region, Rect(-100, 500, 500, 1500))
        assert hotspots == []

    def test_missing_feature(self, litho45):
        # a tiny isolated speck fails to print at all
        region = Region(Rect(0, 0, 12, 12))
        hotspots = find_hotspots(
            litho45, region, Rect(-150, -150, 150, 150), pinch_limit=4
        )
        assert any(h.kind is HotspotKind.MISSING for h in hotspots)

    def test_empty_window(self, litho45):
        assert find_hotspots(litho45, Region(), Rect(0, 0, 100, 100)) == []

    def test_mask_parameter(self, litho45):
        drawn = Region([Rect(0, 0, 45, 400), Rect(0, 445, 45, 800)])
        window = Rect(-100, -100, 150, 900)
        base = find_hotspots(litho45, drawn, window)
        ext = Region([Rect(0, 400, 45, 408), Rect(0, 437, 45, 445)])
        fixed = find_hotspots(litho45, drawn, window, mask=drawn | ext)
        assert len(fixed) < len(base)

    def test_severity_ordering(self, litho45):
        region = Region([Rect(0, 0, 100, 500), Rect(0, 522, 100, 1000)])
        hotspots = find_hotspots(litho45, region, Rect(-100, -100, 200, 1100))
        severities = [h.severity for h in hotspots]
        assert severities == sorted(severities, reverse=True)
