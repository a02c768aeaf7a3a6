"""The rule-deck runner.

Two execution modes share one rule dispatcher:

* the classic single-pass mode (``run_drc_regions``) — every rule over
  the whole extent, unchanged default;
* a tiled parallel + incremental mode (``run_drc_tiled``) — *local*
  rules (width, spacing, extension), whose interaction distance is
  bounded by the rule value, fan out per tile over a worker pool with a
  halo window and seam-ownership filtering, while *global* rules
  (enclosure, area, density), which reason about whole connected
  components or the whole extent, fan out one task per rule.  With a
  :class:`~repro.parallel.TileCache`, every task is keyed by a content
  hash of the geometry it can see, so a re-run after a local edit
  re-checks only dirty tiles.

Tiled mode reports the same violation *population* as single-pass mode,
except that a violation spanning a tile seam is reported per owning
tile (markers split at seams) — the standard tiled-DRC contract.  For a
fixed tiling, serial and parallel runs are identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable

from repro.drc import checks
from repro.drc.violations import DrcReport, Violation
from repro.geometry import Rect, Region
from repro.layout import Cell, Layer
from repro.layout.store import StoreRects, StoreView, run_store
from repro.obs import get_registry, names, span
from repro.parallel import (
    Checkpoint,
    FaultPlan,
    Tile,
    TileCache,
    TileExecutor,
    digest_parts,
    tile_grid,
)
from repro.tech.rules import (
    AreaRule,
    DensityRule,
    EnclosureRule,
    ExtensionRule,
    Rule,
    RuleDeck,
    SpacingRule,
    WidthRule,
)

# Rules whose result at a point depends only on geometry within the rule
# value of that point: safe to evaluate on halo-clipped tiles.
_LOCAL_KINDS = (WidthRule, SpacingRule, ExtensionRule)

_EMPTY = Region()
_EMPTY_DIGEST = _EMPTY.digest()


def _rule_layers(rule: Rule) -> list[Layer]:
    out = []
    for attr in ("layer", "other", "inner", "outer"):
        layer = getattr(rule, attr, None)
        if layer is not None:
            out.append(layer)
    return out


def _rule_reach(rule: Rule) -> int:
    """Interaction distance of a local rule."""
    if isinstance(rule, WidthRule):
        return rule.min_width
    if isinstance(rule, SpacingRule):
        return rule.min_space
    if isinstance(rule, ExtensionRule):
        return rule.min_extension
    return 0


def _check_rule(
    rule: Rule, get: Callable[[Layer], Region], extent: Rect
) -> list[Violation]:
    if isinstance(rule, WidthRule):
        return checks.check_width(get(rule.layer), rule)
    if isinstance(rule, SpacingRule):
        if rule.other is None:
            return checks.check_spacing(get(rule.layer), rule)
        return checks.check_layer_spacing(get(rule.layer), get(rule.other), rule)
    if isinstance(rule, EnclosureRule):
        return checks.check_enclosure(get(rule.inner), get(rule.outer), rule)
    if isinstance(rule, AreaRule):
        return checks.check_area(get(rule.layer), rule)
    if isinstance(rule, DensityRule):
        return checks.check_density(get(rule.layer), rule, extent)
    if isinstance(rule, ExtensionRule):
        return checks.check_extension(get(rule.layer), get(rule.other), rule)
    raise TypeError(f"no check implemented for {type(rule).__name__}")  # pragma: no cover


def run_drc(
    cell: Cell | None,
    deck: RuleDeck,
    window: Rect | None = None,
    *,
    jobs: int = 1,
    tile_nm: int | None = None,
    cache: TileCache | None = None,
    timeout: float | None = None,
    max_retries: int = 2,
    fault_plan: FaultPlan | None = None,
    checkpoint_file: str | None = None,
    resume: bool = False,
    executor: TileExecutor | None = None,
    store: StoreView | None = None,
) -> DrcReport:
    """Flatten ``cell`` per layer and run every rule in ``deck``.

    ``window`` restricts checking (and flattening) to a clip region, the
    standard way to DRC a block out of a larger chip.  ``jobs``,
    ``tile_nm``, ``cache``, or any fault-tolerance option switches to
    the tiled parallel/incremental engine (see :func:`run_drc_tiled`);
    the default stays the classic single-pass run.

    Fault tolerance follows :meth:`TileExecutor.run
    <repro.parallel.TileExecutor.run>`: tasks failing more than
    ``max_retries`` times are quarantined on ``report.quarantined``,
    ``timeout`` bounds each chunk's wall time, and ``checkpoint_file``
    (+ ``resume``) lets an interrupted run restart where it left off.

    ``executor`` reuses a caller-owned — typically persistent —
    :class:`TileExecutor` (as in :func:`repro.litho.fullchip.scan_full_chip`),
    leaving results and cache keys byte-identical.

    ``store`` runs the deck against an out-of-core layout store instead
    of flattening ``cell`` (which may then be ``None``): tile tasks
    window their rects straight out of the mmapped file, workers get
    ``(path, offset, count)`` handles instead of geometry, and the
    report, cache keys and checkpoint signature stay bit-identical to
    the in-RAM run over the same layout.
    """
    if cell is None and store is None:
        raise ValueError("run_drc needs a cell or a store")
    layers_needed: set[Layer] = set()
    for rule in deck:
        layers_needed.update(_rule_layers(rule))
    regions: "dict[Layer, Region] | _StoreLayerRegions"
    if store is not None:
        store_regions = _StoreLayerRegions.from_view(store, layers_needed)
        if window is None:
            # no up-front flatten: tile tasks window rects straight out
            # of the store; global rules materialize their layers lazily
            regions = store_regions
        else:
            with span("drc.flatten"):
                regions = {
                    layer: store_regions.clipped(layer, window)
                    for layer in layers_needed
                }
    else:
        with span("drc.flatten"):
            regions = {layer: cell.region(layer, window) for layer in layers_needed}
    if window is not None:
        extent = window
    else:
        bbox = cell.bbox if cell is not None else store.extent
        extent = bbox or Rect(0, 0, 1, 1)
    fault_tolerant = (
        timeout is not None
        or fault_plan is not None
        or checkpoint_file is not None
    )
    tiled = (
        jobs > 1
        or tile_nm is not None
        or cache is not None
        or fault_tolerant
        or executor is not None
    )
    with span("drc.check"):
        if not tiled:
            report = run_drc_regions(regions, deck, extent)
        else:
            report = run_drc_tiled(
                regions,
                deck,
                extent,
                jobs=jobs,
                tile_nm=tile_nm or 4000,
                cache=cache,
                timeout=timeout,
                max_retries=max_retries,
                fault_plan=fault_plan,
                checkpoint_file=checkpoint_file,
                resume=resume,
                executor=executor,
            )
    report.cell_name = cell.name if cell is not None else store.cell_name
    registry = get_registry()
    registry.inc(names.DRC_RUNS)
    registry.inc(names.DRC_RULES_RUN, report.rules_run)
    registry.inc(names.DRC_VIOLATIONS, len(report.violations))
    return report


def run_drc_regions(
    regions: "dict[Layer, Region] | _StoreLayerRegions",
    deck: RuleDeck,
    extent: Rect,
) -> DrcReport:
    """Run a deck against pre-extracted per-layer regions (single pass)."""
    report = DrcReport(rules_run=len(deck))

    def get(layer: Layer) -> Region:
        return regions.get(layer, _EMPTY)

    for rule in deck:
        report.extend(_check_rule(rule, get, extent))
    return report


class _StoreLayerRegions:
    """Layer→Region mapping backed by a layout store.

    It pickles as ``{layer: StoreRects}`` handles (whose pickled state
    already carries each layer's digest) plus the deck layers the store
    holds nothing for, and workers mmap the store read-only.  Tile
    tasks go through :meth:`clipped`, which materializes only the rects
    whose bbox touches the tile window — a worker's resident geometry
    is bounded by its tile, not the chip.  ``get`` (full
    materialization) is kept for global rules and the single-pass
    engine.

    Digests come from the store directory, where they were computed
    slab-by-slab while writing with the exact ``Region.digest()``
    packing — cache keys and checkpoint signatures are interchangeable
    with the in-RAM path.
    """

    __slots__ = ("_handles", "_empty", "_regions")

    def __init__(
        self, handles: dict[Layer, StoreRects], empty: tuple[Layer, ...]
    ) -> None:
        self._handles = handles
        self._empty = empty
        self._regions: dict[Layer, Region] = {}

    @classmethod
    def from_view(cls, view: StoreView, layers: "set[Layer]") -> "_StoreLayerRegions":
        handles: dict[Layer, StoreRects] = {}
        empty: list[Layer] = []
        for layer in layers:
            store_layer = view.layer_for(layer)
            if store_layer.is_empty:
                empty.append(layer)
            else:
                handles[layer] = store_layer.handle()
        return cls(handles, tuple(empty))

    def __getstate__(self) -> tuple[dict[Layer, StoreRects], tuple[Layer, ...]]:
        return (self._handles, self._empty)

    def __setstate__(
        self, state: tuple[dict[Layer, StoreRects], tuple[Layer, ...]]
    ) -> None:
        self._handles, self._empty = state
        self._regions = {}

    def get(self, layer: Layer, default: Region | None = None) -> Region | None:
        region = self._regions.get(layer)
        if region is None:
            handle = self._handles.get(layer)
            if handle is None:
                return _EMPTY if layer in self._empty else default
            region = Region.from_canonical_rects(handle.rects())
            self._regions[layer] = region
        return region

    def clipped(self, layer: Layer, window: Rect) -> Region:
        """``full_layer & Region(window)`` from windowed candidates only.

        Exact: canonical rects not touching the window contribute
        nothing to the intersection, and the candidates arrive in
        canonical order, so the clipped region (hence its digest) is
        bit-identical to intersecting the materialized layer.
        """
        handle = self._handles.get(layer)
        if handle is None:
            return _EMPTY
        local = Region.from_canonical_rects(handle.window(window))
        return local & Region(window)

    def digest(self, layer: Layer) -> str:
        """``Region.digest()`` of the full layer, from the directory."""
        handle = self._handles.get(layer)
        return handle.digest() if handle is not None else _EMPTY_DIGEST

    def signature_items(self) -> tuple[tuple[Layer, str], ...]:
        """(layer, digest) pairs in the checkpoint-signature order."""
        layers = [*self._handles, *self._empty]
        return tuple(
            (layer, self.digest(layer)) for layer in sorted(layers, key=repr)
        )


def _clip_layer(
    regions: "dict[Layer, Region] | _StoreLayerRegions",
    layer: Layer,
    window: Rect,
) -> Region:
    """One layer clipped to a tile window, whatever backs the mapping."""
    if isinstance(regions, _StoreLayerRegions):
        return regions.clipped(layer, window)
    return regions.get(layer, _EMPTY) & Region(window)


def _layer_digest(
    regions: "dict[Layer, Region] | _StoreLayerRegions",
    layer: Layer,
) -> str:
    """Full-layer digest without materializing store-backed layers."""
    if isinstance(regions, _StoreLayerRegions):
        return regions.digest(layer)
    region = regions.get(layer, _EMPTY)
    return region.digest()


@dataclass(frozen=True)
class _DrcPayload:
    """Read-only per-run state shipped to each worker once.

    ``regions`` is either the plain per-layer dict (in-process runs) or
    a :class:`_StoreLayerRegions` mapping (store-backed and pooled
    runs) that serves windowed clips straight from the mmapped layout
    store.  Both expose the same ``get`` access the tasks use.
    """

    regions: "dict[Layer, Region] | _StoreLayerRegions"
    local_rules: tuple[Rule, ...]
    global_rules: tuple[Rule, ...]
    extent: Rect


# A task is ("tile", Tile) for the local deck over one tile window, or
# ("rule", i) for global_rules[i] over the full extent.
_Task = tuple[str, "Tile | int"]


def _drc_task(payload: _DrcPayload, task: _Task) -> tuple[list[Violation], float]:
    registry = get_registry()
    t0 = time.perf_counter()
    tag, obj = task
    if tag == "tile":
        tile: Tile = obj
        clipped: dict[Layer, Region] = {}

        def get(layer: Layer) -> Region:
            if layer not in clipped:
                clipped[layer] = _clip_layer(payload.regions, layer, tile.window)
            return clipped[layer]

        found: list[Violation] = []
        for rule in payload.local_rules:
            found.extend(_check_rule(rule, get, tile.window))
        out = [v for v in found if tile.owns(v.marker.center.x, v.marker.center.y)]
    else:
        rule = payload.global_rules[obj]
        out = _check_rule(
            rule, lambda layer: payload.regions.get(layer, _EMPTY), payload.extent
        )
    seconds = time.perf_counter() - t0
    registry.inc(names.drc_task(tag))
    registry.inc(names.DRC_VIOLATIONS_OWNED, len(out))
    registry.observe(names.DRC_TASK_TIMER, seconds)
    registry.observe_hist(names.DRC_TASK_SECONDS_HIST, seconds)
    return out, seconds


def _task_key(payload: _DrcPayload, task: _Task) -> str:
    tag, obj = task
    if tag == "tile":
        tile: Tile = obj
        layers = sorted(
            {l for rule in payload.local_rules for l in _rule_layers(rule)},
            key=repr,
        )
        return digest_parts(
            "drc-tile-v1",
            tuple(repr(r) for r in payload.local_rules),
            tile.core.as_tuple(),
            tile.window.as_tuple(),
            tile.x_edge,
            tile.y_edge,
            tuple(
                _clip_layer(payload.regions, l, tile.window).digest()
                for l in layers
            ),
        )
    rule = payload.global_rules[obj]
    return digest_parts(
        "drc-rule-v1",
        repr(rule),
        payload.extent.as_tuple(),
        tuple(_layer_digest(payload.regions, l) for l in _rule_layers(rule)),
    )


def run_drc_tiled(
    regions: "dict[Layer, Region] | _StoreLayerRegions",
    deck: RuleDeck,
    extent: Rect,
    *,
    tile_nm: int = 4000,
    jobs: int = 1,
    cache: TileCache | None = None,
    timeout: float | None = None,
    max_retries: int = 2,
    fault_plan: FaultPlan | None = None,
    checkpoint_file: str | None = None,
    resume: bool = False,
    executor: TileExecutor | None = None,
) -> DrcReport:
    """Tiled parallel/incremental deck run over per-layer regions.

    Local rules run per tile with a halo window of twice the largest
    rule reach (clip artefacts hug the window boundary, so ownership
    filtering by marker centre discards them); global rules run as one
    whole-extent task each.  The report's ``tiles*`` counters cover all
    tasks — geometry tiles plus whole-extent rule tasks.

    Fault tolerance is the executor's (:meth:`TileExecutor.run
    <repro.parallel.TileExecutor.run>`): exhausted tasks land on
    ``report.quarantined`` instead of raising, and ``checkpoint_file``
    (+ ``resume``) persists completed tasks for interrupted runs.
    """
    t_start = time.perf_counter()
    local = tuple(r for r in deck if isinstance(r, _LOCAL_KINDS))
    global_rules = tuple(r for r in deck if not isinstance(r, _LOCAL_KINDS))
    payload = _DrcPayload(regions, local, global_rules, extent)

    halo = max((_rule_reach(r) for r in local), default=0) * 2
    halo = max(-(-halo // 64) * 64, 64)
    tiles = tile_grid(extent, tile_nm, halo) if local else []
    tasks: list[_Task] = [("tile", t) for t in tiles]
    tasks += [("rule", i) for i in range(len(global_rules))]

    report = DrcReport(rules_run=len(deck), tiles=len(tasks))
    results: dict[int, list[Violation]] = {}
    pending: list[tuple[int, _Task]] = list(enumerate(tasks))
    keys: dict[int, str] = {}
    if cache is not None:
        with span("drc.key"):
            pending = []
            for i, task in enumerate(tasks):
                key = _task_key(payload, task)
                keys[i] = key
                hit = cache.get(key)
                if hit is None:
                    pending.append((i, task))
                else:
                    results[i] = hit

    checkpoint: Checkpoint | None = None
    if checkpoint_file is not None:
        if isinstance(regions, _StoreLayerRegions):
            digest_items = regions.signature_items()
        else:
            digest_items = tuple(
                (layer, region.digest())
                for layer, region in sorted(regions.items(), key=lambda kv: repr(kv[0]))
            )
        signature = digest_parts(
            "drc-ckpt-v1",
            tuple(repr(r) for r in deck),
            extent.as_tuple(),
            tile_nm,
            digest_items,
        )
        checkpoint = Checkpoint.open(checkpoint_file, signature, resume=resume)

    with span("drc.compute"):
        # only a pooled run pays the pickle wire, so only it moves
        # in-RAM layers into a run-scoped store; task keys above were
        # computed from the plain payload and are identical
        tile_executor = executor if executor is not None else TileExecutor(jobs)
        in_ram: dict[tuple[int, int], Region] = {}
        if (
            pending
            and not isinstance(regions, _StoreLayerRegions)
            and (tile_executor.jobs > 1 or timeout is not None)
        ):
            in_ram = {(l.gds_layer, l.gds_datatype): r for l, r in regions.items()}
        with run_store(in_ram) as view:
            exec_payload = payload
            if view is not None:
                stored = _StoreLayerRegions.from_view(view, set(regions))
                exec_payload = replace(payload, regions=stored)
            outcome = tile_executor.run(
                _drc_task,
                exec_payload,
                [t for _, t in pending],
                keys=[i for i, _ in pending],
                timeout=timeout,
                max_retries=max_retries,
                fault_plan=fault_plan,
                checkpoint=checkpoint,
            )
    for (i, _), value in zip(pending, outcome.results):
        if value is None:  # quarantined: no result for this task
            continue
        violations, seconds = value
        results[i] = violations
        if i in outcome.resumed_keys:
            continue  # replayed from checkpoint; costs belong to the prior run
        report.compute_s += seconds
        if cache is not None:
            cache.put(keys[i], violations)

    report.quarantined = outcome.quarantined
    report.tiles_resumed = len(outcome.resumed_keys)
    report.tiles_computed = outcome.computed
    report.tiles_cached = report.tiles - len(pending)
    for i in range(len(tasks)):
        report.extend(results.get(i, []))
    report.elapsed_s = time.perf_counter() - t_start
    if checkpoint is not None:
        # the run completed (quarantine included): nothing left to resume
        checkpoint.clear()
    registry = get_registry()
    registry.inc(names.DRC_TILES, report.tiles)
    registry.inc(names.DRC_TILES_COMPUTED, report.tiles_computed)
    registry.inc(names.DRC_TILES_CACHED, report.tiles_cached)
    registry.inc(names.DRC_TILES_RESUMED, report.tiles_resumed)
    registry.inc(names.DRC_TILES_QUARANTINED, len(report.quarantined))
    return report
