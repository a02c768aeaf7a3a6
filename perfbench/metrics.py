"""Every metric the benchmark emits, with its unit.

``END_TO_END`` is what a run with ``--trace 0`` reports; ``PER_LAYER``
is what a run with ``--trace 1`` reports.  Every workload emits every
name: the end-to-end metrics are defined per workload (see README.md),
and a per-layer metric of a layer a workload does not exercise reads 0.
``BENCHMARK.json`` declares the same names and units; the smoke test
holds the two in step.
"""

from __future__ import annotations

END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "p50_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER: dict[str, str] = {
    # gdsii, layout
    "gdsii.read_s": "s",
    "layout.flatten_s": "s",
    # litho, through its full-chip scan
    "scan.plan_s": "s",
    "scan.compute_s": "s",
    "scan.merge_s": "s",
    "scan.tile_busy_s": "s",
    "scan.clip_candidates": "count",
    "scan.hotspots_raw": "count",
    "scan.hotspots": "count",
    # litho, replayed serially per tile or window
    "litho.rasterize_s": "s",
    "litho.blur_s": "s",
    "litho.contour_s": "s",
    "litho.find_hotspots_s": "s",
    "litho.classify_s": "s",
    "sim.raster_reuse": "count",
    "sim.blur_unique": "count",
    # parallel
    "parallel.spawn_s": "s",
    "parallel.busy_ratio": "ratio",
    "parallel.tail_ratio": "ratio",
    "parallel.payload_bytes": "bytes",
    "parallel.retries": "count",
    # drc
    "drc.flatten_s": "s",
    "drc.key_s": "s",
    "drc.compute_s": "s",
    "drc.check_s": "s",
    "drc.task_busy_s": "s",
    "drc.violations": "count",
    "drc.kind.width_s": "s",
    "drc.kind.spacing_s": "s",
    "drc.kind.enclosure_s": "s",
    "drc.kind.area_s": "s",
    "drc.kind.density_s": "s",
    "drc.kind.extension_s": "s",
    # service
    "service.rtt_ms": "ms",
    "service.wait_ms": "ms",
    "service.service_ms": "ms",
    "service.wire_ms": "ms",
    "service.tiles_computed": "count",
    "service.tile_reuse_share": "ratio",
    "service.store_hit_rate": "ratio",
    "service.sessions_reloaded": "count",
    "service.cold_fill_s": "s",
    # matrix, dpt
    "matrix.enumerate_s": "s",
    "matrix.execute_s": "s",
    "matrix.store_hit_rate": "ratio",
    "matrix.windows_unique": "count",
    "matrix.dedup_share": "ratio",
    "dpt.conflict_graph_s": "s",
    "dpt.decompose_s": "s",
    # tracing coverage
    "unaccounted_s": "s",
    "unaccounted_share": "ratio",
}

# the traced value minus the untraced one, per end-to-end metric
OVERHEAD_PREFIX = "overhead."

PER_LAYER.update({OVERHEAD_PREFIX + k: u for k, u in END_TO_END.items()})
