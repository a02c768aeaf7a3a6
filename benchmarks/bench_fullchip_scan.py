"""A3 (ablation/validation) — tiled full-chip scanning.

The full-chip scan must report the same hotspot population regardless of
the tiling, and its cost must track simulated area.  On top of the
tiling sweep, this bench tracks the parallel + incremental engine: a
``jobs=4`` scan must return the identical population at a wall-clock
speedup that scales with available cores, and an unedited re-scan
against a warm tile cache must re-simulate zero tiles.

Expected shape: tile sizes 2, 3, and 6 um agree on the hotspot count to
within seam-merge jitter (a couple of markers), runtime per simulated
area stays flat, and the incremental row shows a 100% hit rate.  The
``parallel_speedup_x4`` / ``incremental_hit_rate`` values land in the
benchmark JSON (``extra_info``) so the perf trajectory is tracked in
``BENCH_*.json`` across PRs.
"""

import os
import time

from repro.analysis import ExperimentRecord, Table
from repro.litho import LithoModel, scan_full_chip
from repro.parallel import TileCache

from conftest import run_once


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _experiment(tech, block):
    model = LithoModel(tech.litho)
    m1 = block.top.region(tech.layers.metal1)
    rows = []
    for tile in (6000, 3000, 2000):
        t0 = time.perf_counter()
        report = scan_full_chip(
            model, m1, tile_nm=tile, pinch_limit=tech.metal_width // 2
        )
        rows.append((f"serial {tile}", report, time.perf_counter() - t0))

    # parallel fan-out at the 6000 nm tiling
    t0 = time.perf_counter()
    par = scan_full_chip(
        model, m1, tile_nm=6000, pinch_limit=tech.metal_width // 2, jobs=4
    )
    rows.append(("jobs=4 6000", par, time.perf_counter() - t0))

    # incremental: cold fill, then an unedited re-scan (must be all hits)
    cache = TileCache()
    t0 = time.perf_counter()
    cold = scan_full_chip(
        model, m1, tile_nm=6000, pinch_limit=tech.metal_width // 2, cache=cache
    )
    rows.append(("incr cold 6000", cold, time.perf_counter() - t0))
    t0 = time.perf_counter()
    warm = scan_full_chip(
        model, m1, tile_nm=6000, pinch_limit=tech.metal_width // 2, cache=cache
    )
    rows.append(("incr warm 6000", warm, time.perf_counter() - t0))
    return rows


def test_a3_fullchip_tiling(benchmark, tech45, bench_block, obs_registry):
    rows = run_once(benchmark, lambda: _experiment(tech45, bench_block))

    table = Table(
        "A3: full-chip scan vs tile size / engine mode",
        ["mode", "tiles", "hotspots", "time (s)"],
    )
    for mode, report, seconds in rows:
        table.add_row(mode, float(report.tiles), float(len(report.hotspots)), seconds)
    print()
    print(table.render())

    by_mode = {mode: (report, seconds) for mode, report, seconds in rows}
    serial_report, serial_s = by_mode["serial 6000"]
    par_report, par_s = by_mode["jobs=4 6000"]
    warm_report, _ = by_mode["incr warm 6000"]

    counts = [len(report.hotspots) for mode, report, _ in rows if mode.startswith("serial")]
    speedup = serial_s / par_s if par_s > 0 else 0.0
    benchmark.extra_info["parallel_speedup_x4"] = round(speedup, 3)
    benchmark.extra_info["incremental_hit_rate"] = warm_report.cache_hit_rate
    benchmark.extra_info["cpus"] = _cpus()

    record = ExperimentRecord("A3", "hotspot population is tiling-invariant")
    record.record("max_count", max(counts))
    record.record("min_count", min(counts))
    record.record("parallel_speedup_x4", speedup)
    record.record("incremental_hit_rate", warm_report.cache_hit_rate)
    holds = max(counts) - min(counts) <= max(3, int(0.05 * max(counts)))
    record.conclude(holds)
    print(record.render())
    assert holds

    # parallel returns the identical population, not merely the same count
    assert par_report.hotspots == serial_report.hotspots
    # unedited re-scan re-simulates nothing
    assert warm_report.tiles_computed == 0
    assert warm_report.cache_hit_rate == 1.0
    assert warm_report.hotspots == serial_report.hotspots
    # wall-clock speedup needs physical cores to show up
    if _cpus() >= 4:
        assert speedup >= 1.5  # only 2 tiles here; see test_a3p for the fan-out


def test_a3f_fastpath_ablation(benchmark, tech45, stdlib45, obs_registry):
    """Before/after rows for the aerial-image fast path.

    ``fast_path=False`` is the reference engine — whole-chip sweep per
    tile, one independent simulation per corner, pairwise detection and
    merge loops — the "before" of the PR that introduced SimCache
    condition reuse and indexed geometry windowing (the vectorized
    rasterizer serves both engines, so the old-code baseline was slower
    still).  Both engines must report the identical hotspot population;
    the speedup, the raster-reuse rate, and the per-tile cache-key cost
    land in ``extra_info`` so ``BENCH_*.json`` tracks the fast path
    across PRs.  The block is the wide a3p one: geometry windowing only
    shows its O(chip) -> O(tile) win when the chip is many tiles wide.
    """
    from repro.designgen import LogicBlockSpec, generate_logic_block
    from repro.geometry import GridIndex, Rect
    from repro.litho import ProcessWindow
    from repro.litho.fullchip import _ScanGeometry, _ScanPayload, _scan_params, _tile_key
    from repro.parallel import tile_grid

    spec = LogicBlockSpec(rows=3, row_width_nm=26000, net_count=24, seed=7, weak_spots=16)
    block = generate_logic_block(tech45, spec, stdlib45)
    model = LithoModel(tech45.litho)
    m1 = block.top.region(tech45.layers.metal1)
    limit = tech45.metal_width // 2

    def _run():
        t0 = time.perf_counter()
        legacy = scan_full_chip(
            model, m1, tile_nm=6000, pinch_limit=limit, fast_path=False
        )
        t_legacy = time.perf_counter() - t0
        t0 = time.perf_counter()
        fast = scan_full_chip(
            model, m1, tile_nm=6000, pinch_limit=limit, fast_path=True
        )
        t_fast = time.perf_counter() - t0

        # cache-key cost: digesting every tile's influence clip from the
        # whole-chip region (legacy, O(chip) per tile) vs from the
        # spatial index (O(local)) — this is the entire per-tile cost of
        # a warm incremental re-scan, measured at a fine 2000 nm tiling
        # where a production scan has many tiles
        process = ProcessWindow()
        g = model.settings.grid_nm
        halo = max(model.halo_nm(c.defocus_nm) for c in process.corners())
        halo = -(-halo // g) * g
        pay_fast = _ScanPayload(
            model, _ScanGeometry(m1), None, process, limit, None, halo, True
        )
        pay_legacy = _ScanPayload(model, m1, None, process, limit, None, halo, False)
        params = _scan_params(pay_fast, limit, None)
        tiles = tile_grid(m1.bbox, 2000, 200)
        pay_fast.drawn.near(m1.bbox)  # build the index outside the timer
        t_key_legacy = t_key_fast = float("inf")
        keys_legacy: list = []
        keys_fast: list = []
        for _ in range(5):  # min-of-5: the keys take milliseconds
            t0 = time.perf_counter()
            keys_legacy = [_tile_key(pay_legacy, t, params, halo) for t in tiles]
            t_key_legacy = min(t_key_legacy, time.perf_counter() - t0)
            t0 = time.perf_counter()
            keys_fast = [_tile_key(pay_fast, t, params, halo) for t in tiles]
            t_key_fast = min(t_key_fast, time.perf_counter() - t0)
        assert keys_fast == keys_legacy  # caches stay interchangeable

        # micro-bench: allocation-free query_into vs allocating query on
        # the scan's own geometry and tiling
        index: GridIndex[Rect] = GridIndex(cell_size=2048)
        for r in m1.rects():
            index.insert(r, r)
        windows = [t.window.expanded(halo) for t in tiles] * 200
        buf: list[Rect] = []
        t0 = time.perf_counter()
        for w in windows:
            index.query(w)
        t_query = time.perf_counter() - t0
        t0 = time.perf_counter()
        for w in windows:
            index.query_into(w, buf)
        t_query_into = time.perf_counter() - t0

        return (
            legacy, t_legacy, fast, t_fast,
            t_key_legacy, t_key_fast, t_query, t_query_into, len(tiles),
        )

    (
        legacy, t_legacy, fast, t_fast,
        t_key_legacy, t_key_fast, t_query, t_query_into, n_tiles,
    ) = run_once(benchmark, _run)

    table = Table(
        "A3f: fast path before/after, 6000 nm tiling",
        ["engine", "tiles", "hotspots", "time (s)", "tiles/s"],
    )
    table.add_row("legacy", float(legacy.tiles), float(len(legacy.hotspots)), t_legacy,
                  legacy.tiles / t_legacy if t_legacy > 0 else 0.0)
    table.add_row("fast", float(fast.tiles), float(len(fast.hotspots)), t_fast,
                  fast.tiles / t_fast if t_fast > 0 else 0.0)
    print()
    print(table.render())

    counters = obs_registry.snapshot()["counters"]
    reuse = counters.get("sim.raster_reuse", 0)
    # the fast engine rasterizes once per simulated tile and touches the
    # raster once per unique blur sigma (two here: defocus 0 and 80 nm),
    # so every second access is a reuse hit
    reuse_rate = reuse / max(reuse + fast.tiles_computed, 1)
    speedup = t_legacy / t_fast if t_fast > 0 else 0.0

    benchmark.extra_info["fastpath_speedup"] = round(speedup, 3)
    benchmark.extra_info["tiles_per_s_legacy"] = round(legacy.tiles / t_legacy, 3)
    benchmark.extra_info["tiles_per_s_fast"] = round(fast.tiles / t_fast, 3)
    benchmark.extra_info["raster_reuse_rate"] = round(reuse_rate, 4)
    benchmark.extra_info["tile_key_s_legacy"] = round(t_key_legacy, 6)
    benchmark.extra_info["tile_key_s_indexed"] = round(t_key_fast, 6)
    benchmark.extra_info["query_into_speedup"] = round(
        t_query / t_query_into if t_query_into > 0 else 0.0, 3
    )

    record = ExperimentRecord("A3f", "fast path is faster and bit-identical")
    record.record("speedup", speedup)
    record.record("raster_reuse_rate", reuse_rate)
    record.record("tile_key_speedup", t_key_legacy / t_key_fast if t_key_fast > 0 else 0.0)
    record.record("query_into_speedup", t_query / t_query_into if t_query_into > 0 else 0.0)
    identical = fast.hotspots == legacy.hotspots
    record.conclude(identical and speedup >= 2.0)
    print(record.render())

    assert identical
    assert speedup >= 2.0  # the PR's acceptance floor, single-job
    assert reuse_rate >= 0.5  # 2 unique sigmas -> 1 raster + 1 reuse per tile


def test_a3z_payload_bytes(benchmark, tech45, stdlib45, obs_registry):
    """Payload bytes vs chip size: the constant-size transport row.

    A pooled in-RAM scan writes its geometry to a run-scoped layout
    store and ships workers ``(path, offset, count, digest)`` handles,
    so ``pool.payload_bytes`` must stay ~constant as the chip grows
    (the acceptance bar: within 2x of the smallest chip while area
    grows >= 4x), where the pickled rect list — the geometry itself —
    grows linearly with the rect count.
    """
    import pickle

    from repro.designgen import LogicBlockSpec, generate_logic_block
    from repro.obs import names

    model = LithoModel(tech45.litho)
    limit = tech45.metal_width // 2
    scales = {
        "x1": LogicBlockSpec(rows=1, row_width_nm=13000, net_count=12, seed=7, weak_spots=6),
        "x4": LogicBlockSpec(rows=1, row_width_nm=54000, net_count=12, seed=7, weak_spots=6),
    }

    def _run():
        bytes_by_mode: dict = {}
        areas: dict = {}
        for label, spec in scales.items():
            block = generate_logic_block(tech45, spec, stdlib45)
            m1 = block.top.region(tech45.layers.metal1)
            areas[label] = m1.bbox.area
            scan_full_chip(model, m1, tile_nm=6000, pinch_limit=limit, jobs=2)
            bytes_by_mode[f"store_{label}"] = obs_registry.gauge_value(
                names.POOL_PAYLOAD_BYTES
            )
            bytes_by_mode[f"pickled_{label}"] = len(
                pickle.dumps(list(m1.rects()), pickle.HIGHEST_PROTOCOL)
            )
        return bytes_by_mode, areas

    bytes_by_mode, areas = run_once(benchmark, _run)

    table = Table(
        "A3z: per-worker payload bytes vs chip size, jobs=2",
        ["chip", "area (um^2)", "store-handle bytes", "pickled rect list bytes"],
    )
    for label in scales:
        table.add_row(
            label,
            areas[label] / 1e6,
            bytes_by_mode[f"store_{label}"],
            bytes_by_mode[f"pickled_{label}"],
        )
    print()
    print(table.render())

    benchmark.extra_info["payload_bytes"] = {
        key: float(value) for key, value in bytes_by_mode.items()
    }

    record = ExperimentRecord("A3z", "store-handle payload stays flat as the chip grows")
    record.record("area_growth", areas["x4"] / areas["x1"])
    record.record("store_growth", bytes_by_mode["store_x4"] / bytes_by_mode["store_x1"])
    record.record(
        "pickled_growth",
        bytes_by_mode["pickled_x4"] / bytes_by_mode["pickled_x1"],
    )
    flat = bytes_by_mode["store_x4"] <= 2 * bytes_by_mode["store_x1"]
    record.conclude(flat)
    print(record.render())

    # the chip really grows >= 4x while the handle payload stays within 2x
    assert areas["x4"] >= 4 * areas["x1"]
    assert flat
    # the pickled geometry is the linear-growth baseline never shipped
    assert bytes_by_mode["pickled_x4"] > 2 * bytes_by_mode["pickled_x1"]
    assert bytes_by_mode["store_x1"] < bytes_by_mode["pickled_x1"]


def test_a4_out_of_core_rss(benchmark, tech45, tmp_path):
    """A4 — out-of-core substrate: peak RSS and payload bytes vs chip area.

    The acceptance row for the layout store: scanning a fixed window of
    a growing SRAM array, the in-RAM path (parse + flatten the whole
    chip to build the drawn region) grows its peak RSS ~linearly with
    chip area, while the store-backed path (mmap the ingested store,
    window the rects per tile) grows sublinearly — and its per-worker
    payload stays ~constant because workers receive a ``(path, offset,
    count)`` handle instead of geometry.  Both paths must print the
    identical scan summary at every scale.

    Peak RSS is a per-process high-water mark, so each (scale,
    mode) runs as its own CLI subprocess and reports through its
    ``--metrics-out`` manifest.
    """
    import json
    import subprocess
    import sys

    from repro.designgen.arrays import generate_sram_array
    from repro.gdsii import write_gds

    scales = {"x1": (128, 128), "x2": (128, 256), "x4": (256, 256)}
    extent = "0,0,6000,6000"

    def _scan(gds, out, store=None):
        cmd = [sys.executable, "-m", "repro", "scan", gds,
               "--extent", extent, "--jobs", "2", "--limit", "0",
               "--no-fail", "--metrics-out", out]
        if store is not None:
            cmd += ["--store", store]
        proc = subprocess.run(
            cmd, check=True, capture_output=True, text=True
        )
        gauges = json.loads(open(out).read())["gauges"]
        return proc.stdout.splitlines()[0], gauges

    def _run():
        rss: dict = {}
        payload: dict = {}
        area: dict = {}
        for label, (rows, cols) in scales.items():
            lib = generate_sram_array(tech45, rows=rows, cols=cols)
            area[label] = lib.top_cell().bbox.area
            gds = str(tmp_path / f"sram_{label}.gds")
            write_gds(lib, gds)
            store = str(tmp_path / f"sram_{label}.lstore")
            subprocess.run(
                [sys.executable, "-m", "repro", "ingest", gds, "--out", store],
                check=True, capture_output=True,
            )
            ram_summary, ram = _scan(gds, str(tmp_path / f"ram_{label}.json"))
            store_summary, stored = _scan(
                gds, str(tmp_path / f"store_{label}.json"), store=store
            )
            assert store_summary == ram_summary  # identical populations
            rss[f"ram_{label}"] = ram["run.peak_rss_bytes"]
            rss[f"store_{label}"] = stored["run.peak_rss_bytes"]
            payload[f"ram_{label}"] = ram["pool.payload_bytes"]
            payload[f"store_{label}"] = stored["pool.payload_bytes"]
        return rss, payload, area

    rss, payload, area = run_once(benchmark, _run)

    table = Table(
        "A4: fixed-window scan of a growing chip, jobs=2",
        ["chip", "area (um^2)", "ram RSS (MB)", "store RSS (MB)", "store payload (B)"],
    )
    for label in scales:
        table.add_row(
            label,
            area[label] / 1e6,
            rss[f"ram_{label}"] / 1e6,
            rss[f"store_{label}"] / 1e6,
            payload[f"store_{label}"],
        )
    print()
    print(table.render())

    ram_growth = rss["ram_x4"] / rss["ram_x1"]
    store_growth = rss["store_x4"] / rss["store_x1"]
    benchmark.extra_info["rss_bytes"] = {k: float(v) for k, v in rss.items()}
    benchmark.extra_info["payload_bytes"] = {k: float(v) for k, v in payload.items()}
    benchmark.extra_info["ram_rss_growth_x4"] = round(ram_growth, 3)
    benchmark.extra_info["store_rss_growth_x4"] = round(store_growth, 3)

    record = ExperimentRecord("A4", "store scan RSS is sublinear in chip area")
    record.record("area_growth", area["x4"] / area["x1"])
    record.record("ram_rss_growth", ram_growth)
    record.record("store_rss_growth", store_growth)
    record.record("store_rss_over_ram_x4", rss["store_x4"] / rss["ram_x4"])
    holds = (
        store_growth < ram_growth
        and rss["store_x4"] < 0.5 * rss["ram_x4"]
        and payload["store_x4"] <= 2 * payload["store_x1"]
    )
    record.conclude(holds)
    print(record.render())

    # the chip really grows 4x while the store handle payload stays put
    assert area["x4"] >= 4 * area["x1"]
    assert payload["store_x4"] <= 2 * payload["store_x1"]
    # the out-of-core acceptance bar: sublinear growth, < half the
    # in-RAM peak at the largest chip
    assert store_growth < ram_growth
    assert rss["store_x4"] < 0.5 * rss["ram_x4"]


def test_a3p_parallel_speedup(benchmark, tech45, stdlib45):
    """Parallel speedup on a block wide enough to fill a 4-worker pool
    at the 6000 nm tiling (the acceptance row for the parallel engine)."""
    from repro.designgen import LogicBlockSpec, generate_logic_block

    spec = LogicBlockSpec(rows=3, row_width_nm=26000, net_count=24, seed=7, weak_spots=16)
    block = generate_logic_block(tech45, spec, stdlib45)
    model = LithoModel(tech45.litho)
    m1 = block.top.region(tech45.layers.metal1)
    limit = tech45.metal_width // 2

    def _run():
        t0 = time.perf_counter()
        serial = scan_full_chip(model, m1, tile_nm=6000, pinch_limit=limit, jobs=1)
        t_serial = time.perf_counter() - t0
        t0 = time.perf_counter()
        parallel = scan_full_chip(model, m1, tile_nm=6000, pinch_limit=limit, jobs=4)
        t_parallel = time.perf_counter() - t0
        return serial, t_serial, parallel, t_parallel

    serial, t_serial, parallel, t_parallel = run_once(benchmark, _run)

    table = Table("A3p: parallel speedup, 6000 nm tiling", ["mode", "tiles", "hotspots", "time (s)"])
    table.add_row("jobs=1", float(serial.tiles), float(len(serial.hotspots)), t_serial)
    table.add_row("jobs=4", float(parallel.tiles), float(len(parallel.hotspots)), t_parallel)
    print()
    print(table.render())

    speedup = t_serial / t_parallel if t_parallel > 0 else 0.0
    benchmark.extra_info["parallel_speedup_x4"] = round(speedup, 3)
    benchmark.extra_info["tiles"] = serial.tiles
    benchmark.extra_info["cpus"] = _cpus()

    record = ExperimentRecord("A3p", "jobs=4 scan is identical and faster")
    record.record("speedup", speedup)
    record.record("tiles", serial.tiles)
    record.record("cpus", _cpus())
    identical = parallel.hotspots == serial.hotspots
    record.conclude(identical and (speedup >= 2.0 or _cpus() < 4))
    print(record.render())

    assert identical
    if _cpus() >= 4:
        assert speedup >= 2.0
