"""Canonical registry of every metric name the package emits.

A typo'd counter name silently forks a series: ``scan.tiles_computd``
would accumulate next to ``scan.tiles_computed`` and every dashboard,
manifest diff, and CI assertion keyed on the real name would quietly
read zero.  This module is the single source of truth — instrumented
code imports constants (or the helpers for dynamic families) instead of
spelling names inline, and the ``RL003`` lint rule
(:mod:`tools.repro_lint`) rejects string literals at emission sites.

Constants are grouped by subsystem prefix.  The *values* are the wire
format: they appear verbatim in run manifests, ``--metrics-out`` files,
and benchmark ``extra_info`` blocks, so changing a value is a breaking
change for every stored manifest — add a new name instead.

Dynamic families (per-rule DRC task counters, per-verdict scorecard
counters) go through the helper functions at the bottom; their prefixes
are declared in :data:`DYNAMIC_PREFIXES` so tooling can recognize
members of a family.
"""

from __future__ import annotations

# -- tile cache (repro.parallel.cache) --------------------------------
TILECACHE_HITS = "tilecache.hits"
TILECACHE_MISSES = "tilecache.misses"
TILECACHE_VERSION_MISMATCH = "tilecache.version_mismatch"

# -- worker pool (repro.parallel.pool) --------------------------------
POOL_RETRIES = "pool.retries"
POOL_TIMEOUTS = "pool.timeouts"
POOL_BISECTIONS = "pool.bisections"
POOL_QUARANTINED = "pool.quarantined"
POOL_PAYLOAD_BYTES = "pool.payload_bytes"
# Incremented when a persistent executor serves a run from its warm
# worker pool instead of forking a fresh one (service mode).
POOL_WARM_REUSE = "pool.warm_reuse"
# Legacy dotless spelling, kept byte-identical: manifests written since
# PR 2 key the serial-fallback gauge on this exact string.
POOL_FALLBACK = "pool_fallback"

# -- verification service (repro.service) -----------------------------
SERVICE_JOBS_SUBMITTED = "service.jobs_submitted"
SERVICE_JOBS_COMPLETED = "service.jobs_completed"
SERVICE_JOBS_FAILED = "service.jobs_failed"
SERVICE_JOBS_CANCELLED = "service.jobs_cancelled"
SERVICE_JOBS_TIMEOUT = "service.jobs_timeout"
SERVICE_SHED = "service.shed"
SERVICE_QUEUE_DEPTH = "service.queue_depth"
SERVICE_WAIT_SECONDS_HIST = "service.wait_seconds"
SERVICE_SERVICE_SECONDS_HIST = "service.service_seconds"
SERVICE_P50_MS = "service.p50_ms"
SERVICE_P99_MS = "service.p99_ms"
SERVICE_SESSIONS_LOADED = "service.sessions_loaded"
SERVICE_SESSIONS_REUSED = "service.sessions_reused"
SERVICE_SESSIONS_RELOADED = "service.sessions_reloaded"
SERVICE_SESSIONS_EVICTED = "service.sessions_evicted"
SERVICE_REQUESTS = "service.requests"
SERVICE_BATCHES = "service.batches"
SERVICE_BATCH_JOBS = "service.batch_jobs"
SERVICE_BATCH_REJECTED = "service.batch_rejected"

# -- cross-run result store (repro.service.store) ---------------------
STORE_HITS = "store.hits"
STORE_MISSES = "store.misses"
STORE_EVICTIONS = "store.evictions"
STORE_VERSION_MISMATCH = "store.version_mismatch"

# -- out-of-core layout store (repro.layout.store) --------------------
LAYOUTSTORE_INGESTS = "layoutstore.ingests"
LAYOUTSTORE_REUSED = "layoutstore.reused"
LAYOUTSTORE_VERSION_MISMATCH = "layoutstore.version_mismatch"
# Counted when a session's configured store dir could not hold its
# store and the session fell back to its private store dir.
LAYOUTSTORE_FALLBACK = "layoutstore.fallback"
LAYOUTSTORE_RECTS = "layoutstore.rects"
LAYOUTSTORE_BYTES = "layoutstore.bytes"

# -- whole-process run accounting (repro.obs.process) -----------------
# Peak resident set size of the driving process, sampled once just
# before the run manifest is collected.
RUN_PEAK_RSS_BYTES = "run.peak_rss_bytes"

# -- full-chip litho scan (repro.litho.fullchip) ----------------------
SCAN_RUNS = "scan.runs"
SCAN_TILES = "scan.tiles"
SCAN_TILES_COMPUTED = "scan.tiles_computed"
SCAN_TILES_CACHED = "scan.tiles_cached"
SCAN_TILES_RESUMED = "scan.tiles_resumed"
SCAN_TILES_QUARANTINED = "scan.tiles_quarantined"
SCAN_TILES_SIMULATED = "scan.tiles_simulated"
SCAN_HOTSPOTS = "scan.hotspots"
SCAN_HOTSPOTS_RAW = "scan.hotspots_raw"
SCAN_HOTSPOTS_OWNED = "scan.hotspots_owned"
SCAN_CLIP_CANDIDATES = "scan.clip_candidates"
SCAN_TILE_TIMER = "scan.tile"
SCAN_TILE_SECONDS_HIST = "scan.tile_seconds"

# -- aerial-image simulation (repro.litho.model) ----------------------
SIM_RASTER_REUSE = "sim.raster_reuse"
SIM_BLUR_UNIQUE = "sim.blur_unique"

# -- DRC engine (repro.drc.engine) ------------------------------------
DRC_RUNS = "drc.runs"
DRC_RULES_RUN = "drc.rules_run"
DRC_VIOLATIONS = "drc.violations"
DRC_VIOLATIONS_OWNED = "drc.violations_owned"
DRC_TASK_TIMER = "drc.task"
DRC_TASK_SECONDS_HIST = "drc.task_seconds"
DRC_TILES = "drc.tiles"
DRC_TILES_COMPUTED = "drc.tiles_computed"
DRC_TILES_CACHED = "drc.tiles_cached"
DRC_TILES_RESUMED = "drc.tiles_resumed"
DRC_TILES_QUARANTINED = "drc.tiles_quarantined"

# -- OPC (repro.opc.modelbased) ---------------------------------------
OPC_RUNS = "opc.runs"
OPC_FRAGMENTS = "opc.fragments"
OPC_ITERATIONS = "opc.iterations"
OPC_ITERATION_TIMER = "opc.iteration"
OPC_SIMULATE_TIMER = "opc.simulate"
OPC_FINAL_RMS_EPE_NM = "opc.final_rms_epe_nm"

# -- double patterning (repro.dpt.decompose) --------------------------
DPT_FEATURES = "dpt.features"
DPT_CONFLICT_EDGES = "dpt.conflict_edges"
DPT_CONFLICT_GRAPH_TIMER = "dpt.conflict_graph"
DPT_DECOMPOSE_TIMER = "dpt.decompose"
DPT_ODD_CYCLES = "dpt.odd_cycles"
DPT_CONFLICT_FEATURES = "dpt.conflict_features"

# -- compliance matrix (repro.matrix) ---------------------------------
MATRIX_RUNS = "matrix.runs"
MATRIX_SCENARIOS = "matrix.scenarios"
MATRIX_SCENARIOS_EXECUTED = "matrix.scenarios_executed"
MATRIX_SCENARIOS_CACHED = "matrix.scenarios_cached"
MATRIX_WINDOWS_UNIQUE = "matrix.windows_unique"
MATRIX_FINDINGS = "matrix.findings"

# -- CMP dummy fill (repro.cmp.fill) ----------------------------------
CMP_FILL_TIMER = "cmp.fill"
CMP_FILL_RUNS = "cmp.fill_runs"
CMP_FILL_SHAPES = "cmp.fill_shapes"
CMP_FILL_TILES = "cmp.fill_tiles"

# -- design measurement (repro.core.metrics) --------------------------
MEASURE_RUNS = "measure.runs"
MEASURE_HOTSPOTS = "measure.hotspots"
MEASURE_VIA_SITES = "measure.via_sites"
MEASURE_DESIGN_TIMER = "measure.design"

# -- scorecard (repro.core.scorecard) ---------------------------------
SCORECARD_ROWS = "scorecard.rows"

# Prefixes of the dynamic name families below; tooling uses these to
# recognize family members without enumerating them.
DYNAMIC_PREFIXES: tuple[str, ...] = (
    "drc.tasks.",
    "scorecard.verdict.",
)


def drc_task(tag: str) -> str:
    """Per-task-kind DRC counter (``drc.tasks.tile``, ``drc.tasks.global``)."""
    return f"drc.tasks.{tag}"


def scorecard_verdict(verdict: str) -> str:
    """Per-verdict scorecard counter (``scorecard.verdict.hit``, ...)."""
    return f"scorecard.verdict.{verdict}"


# Every registered static name, for tooling and tests.
ALL_NAMES: frozenset[str] = frozenset(
    value
    for key, value in dict(globals()).items()
    if key.isupper() and isinstance(value, str) and not key.startswith("_")
)
