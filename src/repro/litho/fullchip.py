"""Tiled full-chip litho verification.

Hotspot detection simulates a raster whose cost grows with window area,
so full-chip scans tile the layout into windows with an optical halo —
every pixel inside a tile sees its true neighbourhood, and hotspots are
deduplicated across tile seams.  This is the "layout printability
verification" flow run at tape-out.

The tile loop is built on :mod:`repro.parallel`: tiles fan out across a
worker pool (``jobs``) and, when a :class:`~repro.parallel.TileCache`
is supplied, each tile's result is cached under a content hash of the
geometry inside its optical influence window — so a re-scan after a
local edit re-simulates only the dirty tiles, which is what makes
in-design (rather than tape-out-only) full-chip scanning affordable.

The loop is fault-tolerant: a tile that keeps failing is quarantined
(recorded on the report) instead of killing the scan, hung chunks can
be timed out, and ``checkpoint_file``/``resume`` let an interrupted
scan pick up from its last checkpoint with byte-identical results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.core.report import BaseReport, deprecated_alias
from repro.geometry import GridIndex, Rect, Region
from repro.layout.store import StoreLayer, StoreRects, run_store
from repro.litho.hotspots import Hotspot, _merge_across_corners, find_hotspots
from repro.litho.model import LithoModel
from repro.litho.process import ProcessWindow
from repro.obs import get_registry, names, span
from repro.parallel import (
    Checkpoint,
    FaultPlan,
    QuarantinedTile,
    Tile,
    TileCache,
    TileExecutor,
    digest_parts,
    tile_grid,
)


@dataclass
class FullChipScanReport(BaseReport):
    tiles: int = 0
    simulated_area_nm2: int = 0
    hotspots: list[Hotspot] = field(default_factory=list)
    tiles_computed: int = 0
    tiles_cached: int = 0
    tiles_resumed: int = 0
    quarantined: list[QuarantinedTile] = field(default_factory=list)
    compute_s: float = 0.0
    elapsed_s: float = 0.0

    # legacy spellings (pre-BaseReport), kept as warning aliases
    compute_seconds = deprecated_alias("compute_seconds", "compute_s")
    elapsed_seconds = deprecated_alias("elapsed_seconds", "elapsed_s")

    @property
    def findings(self) -> list[Hotspot]:
        return self.hotspots

    @property
    def cache_hit_rate(self) -> float:
        return self.tiles_cached / self.tiles if self.tiles else 0.0

    def by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for h in self.hotspots:
            out[h.kind.value] = out.get(h.kind.value, 0) + 1
        return out

    def summary(self) -> str:
        kinds = ", ".join(f"{k}: {n}" for k, n in sorted(self.by_kind().items()))
        line = (
            f"full-chip scan: {self.tiles} tiles, {len(self.hotspots)} hotspots "
            f"({kinds or 'clean'})"
        )
        if self.tiles_cached:
            line += (
                f" [incremental: {self.tiles_cached}/{self.tiles} cached, "
                f"{self.cache_hit_rate:.0%} hit rate]"
            )
        if self.tiles_resumed:
            line += f" [resumed: {self.tiles_resumed} tiles from checkpoint]"
        if self.quarantined:
            line += f" [QUARANTINED: {len(self.quarantined)} tiles failed]"
        return line


class _ScanGeometry:
    """One layer's canonical rects, queried per tile window.

    Every per-tile operation — window clipping, cache-key digesting —
    goes through :meth:`near`, so it touches only the geometry near the
    tile instead of sweeping the full chip.  The rect source is one of
    two shapes: the flat list itself (in-process runs), indexed by a
    lazily-built :class:`~repro.geometry.GridIndex`; or a
    :class:`~repro.layout.store.StoreRects` handle (store-backed and
    pooled runs), which pickles as ``(path, offset, count, digest)`` and
    answers window queries straight from the mmapped store without ever
    materializing the layer.  Both preserve canonical rect order and
    the closed-touches window contract, so clips and digests are
    identical either way.
    """

    __slots__ = ("_source", "cell_nm", "_index", "_buf")

    def __init__(self, region: "Region | StoreLayer", cell_nm: int = 2048):
        self._source: list[Rect] | StoreRects
        if isinstance(region, StoreLayer):
            # an empty layer has no rect run to hand out
            self._source = [] if region.is_empty else region.handle()
        else:
            self._source = list(region.rects())
        self.cell_nm = cell_nm
        self._index: GridIndex[Rect] | None = None
        self._buf: list[Rect] = []

    def __getstate__(self):
        return (self._source, self.cell_nm)

    def __setstate__(self, state):
        self._source, self.cell_nm = state
        self._index = None
        self._buf = []

    def near(self, window: Rect) -> list[Rect]:
        """Canonical rects whose bbox touches ``window`` (a shared
        buffer, valid until the next call in this process)."""
        source = self._source
        if isinstance(source, StoreRects):
            return source.window(window)
        if self._index is None:
            self._index = GridIndex(cell_size=self.cell_nm)
            for r in source:
                self._index.insert(r, r)
        return self._index.query_into(window, self._buf)

    def clipped(self, window: Rect) -> Region:
        """``region & Region(window)`` computed from local rects only.

        Exact: canonical rects are disjoint, and rects not touching the
        window contribute nothing to the intersection, so the local
        point set (hence the canonical form and digest) is identical to
        the full-chip sweep's.

        The local rects are fragments of the source region's canonical
        slabs — rects sharing an x-range belong to one slab, distinct
        x-ranges never partially overlap — so sorting restores canonical
        iteration order and the slab list is rebuilt by grouping instead
        of a from-scratch plane sweep; only the window intersection pays
        for a sweep.
        """
        local = Region.from_canonical_rects(
            sorted(self.near(window), key=lambda r: (r.x0, r.y0))
        )
        return local & Region(window)


@dataclass(frozen=True, slots=True)
class _ScanPayload:
    """Read-only per-scan state shipped to each worker once.

    On the fast path (the default) ``drawn``/``mask`` are
    :class:`_ScanGeometry` indexes and ``halo_nm`` is the widest corner
    halo (pixel-aligned): each tile simulates from the geometry inside
    its influence window only.  With ``fast_path=False`` they are the
    whole-chip regions and every tile re-sweeps the full chip — the
    legacy path, kept as the verification baseline.
    """

    model: LithoModel
    drawn: "_ScanGeometry | Region"
    mask: "_ScanGeometry | Region | None"
    process: ProcessWindow
    pinch_limit: int | None
    grid: int | None
    halo_nm: int = 0
    fast_path: bool = True


def _scan_tile(payload: _ScanPayload, tile: Tile) -> tuple[list[Hotspot], float]:
    """Detect hotspots over one tile window and keep the owned ones."""
    registry = get_registry()
    t0 = time.perf_counter()
    if payload.fast_path:
        # geometry local to the tile's optical influence window; exact
        # because rects beyond it cannot affect the rasterized halo
        influence = tile.window.expanded(payload.halo_nm)
        drawn_local = payload.drawn.near(influence)
        registry.inc(names.SCAN_CLIP_CANDIDATES, len(drawn_local))
        drawn = Region(drawn_local)
        mask = None
        if payload.mask is not None:
            mask_local = payload.mask.near(influence)
            registry.inc(names.SCAN_CLIP_CANDIDATES, len(mask_local))
            mask = Region(mask_local)
    else:
        drawn = payload.drawn
        mask = payload.mask
    found = find_hotspots(
        payload.model,
        drawn,
        tile.window,
        process=payload.process,
        pinch_limit=payload.pinch_limit,
        grid=payload.grid,
        mask=mask,
        use_cache=payload.fast_path,
    )
    owned = [
        h for h in found if tile.owns(h.marker.center.x, h.marker.center.y)
    ]
    seconds = time.perf_counter() - t0
    registry.inc(names.SCAN_TILES_SIMULATED)
    registry.inc(names.SCAN_HOTSPOTS_RAW, len(found))
    registry.inc(names.SCAN_HOTSPOTS_OWNED, len(owned))
    registry.observe(names.SCAN_TILE_TIMER, seconds)
    registry.observe_hist(names.SCAN_TILE_SECONDS_HIST, seconds)
    return owned, seconds


def _clip_influence(geometry: "_ScanGeometry | Region", influence: Rect) -> Region:
    if isinstance(geometry, _ScanGeometry):
        return geometry.clipped(influence)
    return geometry & Region(influence)


def _tile_key(payload: _ScanPayload, tile: Tile, params: str, halo_nm: int) -> str:
    """Content hash of everything that can change this tile's result.

    The geometry is clipped to the tile window expanded by the optical
    halo — the full influence region rasterized by the aerial-image
    model — so any edit outside that window leaves the key (and the
    cached result) valid.  The clip is computed from the spatial index
    (local geometry only), which keeps cache-hit tiles O(local area)
    instead of O(full chip); the digest — hence the key — is identical
    to the full-sweep clip's, so caches written by either path replay
    under the other.
    """
    influence = tile.window.expanded(halo_nm)
    parts = [
        "scan-v1",
        params,
        tile.core.as_tuple(),
        tile.window.as_tuple(),
        tile.x_edge,
        tile.y_edge,
        _clip_influence(payload.drawn, influence).digest(),
    ]
    if payload.mask is not None:
        parts.append(_clip_influence(payload.mask, influence).digest())
    return digest_parts(*parts)


def _scan_params(payload: _ScanPayload, pinch_limit: int | None, grid: int | None) -> str:
    model = payload.model
    return digest_parts(
        model.settings,
        model.flare,
        model.flare_ratio,
        tuple(payload.process.corners()),
        pinch_limit,
        grid,
    )


def scan_full_chip(
    model: LithoModel,
    drawn: "Region | StoreLayer",
    extent: Rect | None = None,
    tile_nm: int = 4000,
    process: ProcessWindow | None = None,
    pinch_limit: int | None = None,
    mask: "Region | StoreLayer | None" = None,
    grid: int | None = None,
    overlap_nm: int = 200,
    jobs: int = 1,
    cache: TileCache | None = None,
    timeout: float | None = None,
    max_retries: int = 2,
    fault_plan: FaultPlan | None = None,
    checkpoint_file: str | None = None,
    resume: bool = False,
    fast_path: bool = True,
    executor: TileExecutor | None = None,
) -> FullChipScanReport:
    """Scan an entire layout tile by tile.

    Tiles are detected over a window expanded by ``overlap_nm`` (so
    geometry clipped at a seam is seen whole by the tile that owns it)
    and each hotspot is attributed to the tile that owns its marker
    centre (see :meth:`repro.parallel.Tile.owns`) — the combination
    that makes the result tiling-invariant.  The optical halo itself is
    handled inside :func:`find_hotspots`.

    ``jobs > 1`` fans tiles out over a process pool; results are
    reassembled in tile order, so the hotspot population is identical
    to a serial scan.  Passing a :class:`~repro.parallel.TileCache`
    makes the scan incremental: clean tiles replay their cached result
    and only dirty tiles are re-simulated.

    Execution is fault-tolerant (see :meth:`TileExecutor.run
    <repro.parallel.TileExecutor.run>`): a tile failing more than
    ``max_retries`` times is quarantined on ``report.quarantined``
    rather than aborting the scan, ``timeout`` bounds each chunk's wall
    time, and ``checkpoint_file`` (+ ``resume``) persists completed
    tiles so an interrupted scan restarts where it left off.  The
    checkpoint is signature-guarded: it is only replayed against the
    same geometry and scan parameters, and is deleted once the scan
    completes.

    ``fast_path`` (the default) runs the layered aerial-image fast path:
    geometry is pre-binned into a spatial index so each tile touches only
    the rects inside its optical influence window, and each tile's corner
    sweep reuses one mask raster and one blur per unique defocus (see
    :class:`~repro.litho.model.SimCache`).  ``fast_path=False`` runs the
    legacy whole-chip-sweep-per-tile engine; both produce bit-identical
    reports and interchangeable tile-cache entries.

    ``executor`` lets a long-lived caller (the verification service)
    supply its own — typically persistent — :class:`TileExecutor`
    instead of a per-run one; its ``jobs`` takes precedence.

    ``drawn`` (and ``mask``) may be a
    :class:`~repro.layout.store.StoreLayer` instead of a region: the
    scan then runs out of core — workers mmap the layout store
    read-only and window it per tile — and hotspots, counters, and
    tile-cache keys are bit-identical to the in-RAM path because the
    store serves the same canonical rects and digests.  A pooled run
    (``jobs > 1`` or a ``timeout``) over in-RAM regions takes the same
    route through a run-scoped store (:func:`~repro.layout.store.run_store`),
    so workers receive constant-size handles, never geometry.
    """
    t_start = time.perf_counter()
    report = FullChipScanReport()
    if not fast_path:
        # the legacy whole-chip-sweep baseline works on materialized
        # regions only; a store input is hydrated once up front
        if isinstance(drawn, StoreLayer):
            drawn = drawn.region()
        if isinstance(mask, StoreLayer):
            mask = mask.region()
    if extent is None:
        bb = drawn.bbox
        if bb is None:
            return report
        extent = bb
    process = process or ProcessWindow()
    g = grid or model.settings.grid_nm
    halo = max(model.halo_nm(c.defocus_nm) for c in process.corners())
    halo = -(-halo // g) * g  # pixel-grid round-up, as in aerial_image
    if fast_path:
        payload = _ScanPayload(
            model,
            _ScanGeometry(drawn),
            _ScanGeometry(mask) if mask is not None else None,
            process,
            pinch_limit,
            grid,
            halo,
            True,
        )
    else:
        payload = _ScanPayload(
            model, drawn, mask, process, pinch_limit, grid, halo, False
        )
    checkpoint: Checkpoint | None = None
    with span("scan.plan"):
        tiles = tile_grid(extent, tile_nm, overlap_nm)
        report.tiles = len(tiles)
        report.simulated_area_nm2 = sum(t.window.area for t in tiles)

        if checkpoint_file is not None:
            signature = digest_parts(
                "scan-ckpt-v1",
                _scan_params(payload, pinch_limit, grid),
                extent.as_tuple(),
                tile_nm,
                overlap_nm,
                drawn.digest(),
                mask.digest() if mask is not None else None,
            )
            checkpoint = Checkpoint.open(checkpoint_file, signature, resume=resume)

        owned_by_tile: dict[int, list[Hotspot]] = {}
        pending: list[Tile] = tiles
        keys: dict[int, str] = {}
        if cache is not None:
            params = _scan_params(payload, pinch_limit, grid)
            pending = []
            for tile in tiles:
                key = _tile_key(payload, tile, params, halo)
                keys[tile.index] = key
                hit = cache.get(key)
                if hit is None:
                    pending.append(tile)
                else:
                    owned_by_tile[tile.index] = hit

    with span("scan.compute"):
        # only a pooled run pays the pickle wire, so only it moves
        # in-RAM geometry into a run-scoped store.  Cache keys were
        # already computed above from the in-process payload and are
        # bit-identical either way.
        tile_executor = executor if executor is not None else TileExecutor(jobs)
        in_ram: dict[tuple[int, int], Region] = {}
        if pending and fast_path and (tile_executor.jobs > 1 or timeout is not None):
            in_ram = {
                key: region
                for key, region in (((0, 0), drawn), ((1, 0), mask))
                if isinstance(region, Region)
            }
        with run_store(in_ram) as view:
            exec_payload = payload
            if view is not None:
                stored = {key: _ScanGeometry(view.layer(*key)) for key in in_ram}
                exec_payload = replace(
                    payload,
                    drawn=stored.get((0, 0), payload.drawn),
                    mask=stored.get((1, 0), payload.mask),
                )
            outcome = tile_executor.run(
                _scan_tile,
                exec_payload,
                pending,
                keys=[t.index for t in pending],
                timeout=timeout,
                max_retries=max_retries,
                fault_plan=fault_plan,
                checkpoint=checkpoint,
            )
    for tile, value in zip(pending, outcome.results):
        if value is None:  # quarantined: no result for this tile
            continue
        owned, seconds = value
        owned_by_tile[tile.index] = owned
        if tile.index in outcome.resumed_keys:
            continue  # replayed from checkpoint; costs belong to the prior run
        report.compute_s += seconds
        if cache is not None:
            cache.put(keys[tile.index], owned)

    report.quarantined = outcome.quarantined
    report.tiles_resumed = len(outcome.resumed_keys)
    report.tiles_computed = outcome.computed
    report.tiles_cached = report.tiles - len(pending)
    with span("scan.merge"):
        raw = [h for tile in tiles for h in owned_by_tile.get(tile.index, [])]
        # residual duplicates (markers straddling a seam) merge here
        report.hotspots = _merge_across_corners(raw)
    report.elapsed_s = time.perf_counter() - t_start
    if checkpoint is not None:
        # the run completed (quarantine included): nothing left to resume
        checkpoint.clear()
    registry = get_registry()
    registry.inc(names.SCAN_RUNS)
    registry.inc(names.SCAN_TILES, report.tiles)
    registry.inc(names.SCAN_TILES_COMPUTED, report.tiles_computed)
    registry.inc(names.SCAN_TILES_CACHED, report.tiles_cached)
    registry.inc(names.SCAN_TILES_RESUMED, report.tiles_resumed)
    registry.inc(names.SCAN_TILES_QUARANTINED, len(report.quarantined))
    registry.inc(names.SCAN_HOTSPOTS, len(report.hotspots))
    return report
