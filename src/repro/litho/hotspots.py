"""Model-based hotspot detection: pinching, bridging, and CD failures.

A hotspot is a location where the printed image departs from the drawn
intent badly enough to threaten yield:

* **PINCH** — drawn metal whose printed image locally necks below the
  pinch limit (open-circuit risk).
* **BRIDGE** — printed material in the gap between distinct drawn
  features (short-circuit risk).
* **MISSING** — a drawn feature that failed to print at all.

Detection runs at the worst process corners so marginal sites are caught.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import ndimage

from repro.geometry import GridIndex, Rect, Region
from repro.litho.model import LithoModel
from repro.litho.process import ProcessCondition, ProcessWindow, sweep_contours
from repro.litho.raster import raster_to_region


class HotspotKind(Enum):
    PINCH = "pinch"
    BRIDGE = "bridge"
    MISSING = "missing"


@dataclass(frozen=True, slots=True)
class Hotspot:
    kind: HotspotKind
    marker: Rect
    severity: float  # violation area in nm^2 (bigger = worse)
    condition: ProcessCondition

    def __str__(self) -> str:
        return (
            f"{self.kind.value} @ {self.marker.as_tuple()} "
            f"severity={self.severity:g} [{self.condition}]"
        )


def find_hotspots(
    model: LithoModel,
    drawn: Region,
    window: Rect,
    process: ProcessWindow | None = None,
    pinch_limit: int | None = None,
    grid: int | None = None,
    mask: Region | None = None,
    min_severity: float = 50.0,
    use_cache: bool = True,
) -> list[Hotspot]:
    """Detect pinch/bridge/missing hotspots over the process corners.

    ``pinch_limit`` defaults to half the smallest drawn feature width in
    the window (estimated from the drawn region).  Bridging is defined by
    connectivity: a printed component touching two or more distinct drawn
    features shorts them.  ``mask`` is what gets exposed (defaults to the
    drawn layer itself — i.e. no OPC); hotspots are always judged against
    the drawn intent.

    ``min_severity`` drops sub-threshold detections (area in nm^2):
    contour micro-necks at the raster noise floor are metrology noise,
    and filtering them keeps results window- and tiling-invariant.

    The corner sweep runs through a :class:`~repro.litho.model.SimCache`
    (one rasterization, one blur per unique defocus) and classifies each
    corner's printed bitmap directly: bridge and missing come from its
    ``scipy.ndimage.label`` components read against the drawn-owner
    raster of :class:`_DrawnContext`, and only the pinch check (nm-exact
    morphology on ``printed & drawn``) converts the bitmap to a Region.
    ``use_cache=False`` runs the *reference engine* instead —
    one independent simulation per corner, pairwise detection and merge
    loops — an independent implementation that must produce identical
    results, kept as the verification baseline (and the before/after
    "before" row in the full-chip bench).
    """
    process = process or ProcessWindow()
    g = grid or model.settings.grid_nm
    exposed = mask if mask is not None else drawn
    drawn_in_window = drawn & Region(window)
    if drawn_in_window.is_empty:
        return []
    min_width = _min_feature_width(drawn_in_window)
    pinch_limit = pinch_limit if pinch_limit is not None else max(min_width // 2, g)

    raw: list[Hotspot] = []
    corners = process.corners()
    if use_cache:
        sim = model.sim_cache(
            exposed, window, g, defocus_hint=[c.defocus_nm for c in corners]
        )
        # everything derived from the drawn layer alone is corner-invariant:
        # compute it once here instead of once per corner
        ctx = _DrawnContext(drawn_in_window, min_width, window, g)
        for condition in corners:
            # the printed bitmap is passed, not kept: the callee frees it
            # as soon as it is classified
            found = _hotspots_at_condition(
                sim.print_image(condition.dose, condition.defocus_nm),
                drawn_in_window,
                condition,
                pinch_limit,
                ctx,
            )
            raw.extend(h for h in found if h.severity >= min_severity)
        return _merge_across_corners(raw)
    contours = sweep_contours(model, exposed, window, corners, g, use_cache=False)
    for condition, printed in contours:
        raw.extend(
            h
            for h in _hotspots_at_condition_reference(printed, drawn_in_window, condition, pinch_limit)
            if h.severity >= min_severity
        )
    return _merge_across_corners_reference(raw)


def _merge_across_corners(raw: list[Hotspot]) -> list[Hotspot]:
    """Coalesce hotspots of the same kind whose markers overlap or touch
    (the same physical site seen at several corners); keep the worst.

    Clustering is the closure of "touches the cluster's growing bounding
    box (expanded by 1)" — a bbox-indexed frontier walk, so merging n
    markers costs near-linear index queries instead of the O(n²)
    pairwise rescans the naive loop needs.
    """
    out: list[Hotspot] = []
    by_kind: dict[HotspotKind, list[Hotspot]] = {}
    for h in raw:
        by_kind.setdefault(h.kind, []).append(h)
    buf: list[int] = []
    for kind, group in by_kind.items():
        index: GridIndex[int] = GridIndex(cell_size=512)
        for i, h in enumerate(group):
            index.insert(h.marker, i)
        claimed = [False] * len(group)
        for seed in range(len(group)):
            if claimed[seed]:
                continue
            claimed[seed] = True
            cluster = [group[seed]]
            marker = group[seed].marker
            changed = True
            while changed:
                changed = False
                # query == "bbox touches the probe window", exactly the
                # old absorption test, so the closure is identical
                for j in index.query_into(marker.expanded(1), buf):
                    if not claimed[j]:
                        claimed[j] = True
                        cluster.append(group[j])
                        marker = marker.union_bbox(group[j].marker)
                        changed = True
            worst = max(cluster, key=lambda h: h.severity)
            out.append(Hotspot(kind, marker, worst.severity, worst.condition))
    out.sort(key=lambda h: (-h.severity, h.marker.as_tuple()))
    return out


def _merge_across_corners_reference(raw: list[Hotspot]) -> list[Hotspot]:
    """The original pairwise-rescan merge: every absorption rescans the
    whole remaining list.  O(n²) — kept as the independent reference for
    :func:`_merge_across_corners`, which must produce identical output.
    """
    out: list[Hotspot] = []
    by_kind: dict[HotspotKind, list[Hotspot]] = {}
    for h in raw:
        by_kind.setdefault(h.kind, []).append(h)
    for kind, group in by_kind.items():
        remaining = list(group)
        while remaining:
            seed = remaining.pop(0)
            cluster = [seed]
            marker = seed.marker
            changed = True
            while changed:
                changed = False
                for other in list(remaining):
                    if marker.expanded(1).touches(other.marker):
                        cluster.append(other)
                        remaining.remove(other)
                        marker = marker.union_bbox(other.marker)
                        changed = True
            worst = max(cluster, key=lambda h: h.severity)
            out.append(Hotspot(kind, marker, worst.severity, worst.condition))
    out.sort(key=lambda h: (-h.severity, h.marker.as_tuple()))
    return out


def _hotspots_at_condition_reference(
    printed: Region,
    drawn: Region,
    condition: ProcessCondition,
    pinch_limit: int,
    boundary_tol: int = 6,
) -> list[Hotspot]:
    """The original single-condition detector: plain pairwise loops, no
    index, no cross-corner reuse.  An independent implementation of
    :func:`_hotspots_at_condition` (same fixed ``_min_feature_width``),
    kept as the verification baseline the fast path is tested against.
    """
    out: list[Hotspot] = []
    drawn_components = drawn.components()

    # pinch (identical formulation to the indexed engine)
    printed_on_drawn = printed & drawn
    doubled = printed_on_drawn.scaled(2)
    necked = doubled - doubled.opened(max(pinch_limit - 1, 1))
    core = drawn.grown(-min(boundary_tol, _min_feature_width(drawn) // 2 - 1)).scaled(2) if not drawn.is_empty else Region()
    for comp in necked.components():
        if (comp & core).is_empty:
            continue
        bb = comp.bbox
        marker = Rect(bb.x0 // 2, bb.y0 // 2, -(-bb.x1 // 2), -(-bb.y1 // 2))
        out.append(Hotspot(HotspotKind.PINCH, marker, comp.area / 4.0, condition))

    # bridge: every (printed, drawn) component pair pays an exact test
    for comp in printed.components():
        touched = [d for d in drawn_components if comp.overlaps(d)]
        if len(touched) >= 2:
            gap_fill = comp - drawn
            marker_src = gap_fill if not gap_fill.is_empty else comp
            out.append(
                Hotspot(HotspotKind.BRIDGE, marker_src.bbox, marker_src.area, condition)
            )

    # missing: an entire drawn component printed nothing
    for comp in drawn_components:
        if (printed & comp).is_empty:
            out.append(Hotspot(HotspotKind.MISSING, comp.bbox, comp.area, condition))
    return out


def _min_feature_width(region: Region) -> int:
    """Smallest drawn feature width in the region.

    The canonical slab decomposition slices wide features at every x
    coordinate where *any* feature's boundary changes, so the raw rect
    list understates widths (a 1000-wide bar crossed by another
    feature's edges decomposes into arbitrarily narrow slab rects).
    Re-merge x-adjacent rects that carry an identical y-interval — the
    pieces of one horizontal run — and take the min caliper of the
    merged extents instead.
    """
    best: int | None = None
    run: tuple[int, int, int, int] | None = None  # (x0, y0, x1, y1)
    for r in sorted(region.rects(), key=lambda r: (r.y0, r.y1, r.x0)):
        if run is not None and r.y0 == run[1] and r.y1 == run[3] and r.x0 == run[2]:
            run = (run[0], run[1], r.x1, run[3])  # continues the current run
        else:
            if run is not None:
                w = min(run[2] - run[0], run[3] - run[1])
                best = w if best is None else min(best, w)
            run = (r.x0, r.y0, r.x1, r.y1)
    assert run is not None  # callers guard against empty regions
    w = min(run[2] - run[0], run[3] - run[1])
    return w if best is None else min(best, w)


class _DrawnContext:
    """Corner-invariant precomputation for one drawn window.

    The corner sweep calls :func:`_hotspots_at_condition` once per
    process corner with the *same* drawn region, so everything derived
    from it alone is computed once per window here:

    * ``components`` — the drawn 4-connected components, in
      :meth:`~repro.geometry.Region.components` order;
    * ``owner`` — the drawn-owner raster on the printed image's pixel
      grid: ``k + 1`` where a pixel overlaps exactly one drawn component
      ``k`` with positive area (the :meth:`Region.overlaps
      <repro.geometry.Region.overlaps>` test), ``-1`` where it overlaps
      several, ``0`` where it overlaps none;
    * ``shared_pix`` / ``shared_own`` — every (flat pixel, component)
      incidence of the ``-1`` pixels, which occur where two components
      are closer than a pixel, so those stay exact too;
    * ``core`` — the pinch core (drawn shrunk by the boundary
      tolerance) in the doubled lattice.
    """

    __slots__ = ("components", "window", "grid", "owner", "shared_pix", "shared_own", "core")

    def __init__(
        self, drawn: Region, min_width: int, window: Rect, grid: int, boundary_tol: int = 6
    ):
        self.components = drawn.components()
        self.window = window
        self.grid = grid
        self.owner, self.shared_pix, self.shared_own = self._owner_raster()
        self.core = drawn.grown(-min(boundary_tol, min_width // 2 - 1)).scaled(2)

    def _owner_raster(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        w, g = self.window, self.grid
        nx = -(-(w.x1 - w.x0) // g)
        ny = -(-(w.y1 - w.y0) // g)
        owner = np.zeros((ny, nx), dtype=np.int32)
        # the pixels a rect overlaps with positive area form one block;
        # painting every block leaves the last painter on a shared pixel
        blocks = []
        for k, comp in enumerate(self.components, 1):
            for xa, xb, ys in comp.slabs():
                c0, c1 = (xa - w.x0) // g, -(-(xb - w.x0) // g)
                for y0, y1 in ys:
                    r0, r1 = (y0 - w.y0) // g, -(-(y1 - w.y0) // g)
                    owner[r0:r1, c0:c1] = k
                    blocks.append((r0, r1, c0, c1, k))
        # every other component on a shared pixel finds it painted over
        pairs: set[tuple[int, int]] = set()
        for r0, r1, c0, c1, k in blocks:
            painted = owner[r0:r1, c0:c1]
            lost = painted != k
            if lost.any():
                rows, cols = np.nonzero(lost)
                pixels = ((rows + r0) * nx + cols + c0).tolist()
                for pixel, other in zip(pixels, painted[lost].tolist()):
                    pairs.update(((pixel, k - 1), (pixel, other - 1)))
        shared = sorted(pairs)
        shared_pix = np.array([p for p, _ in shared], dtype=np.int64)
        shared_own = np.array([k for _, k in shared], dtype=np.int64)
        owner.ravel()[shared_pix] = -1
        return owner, shared_pix, shared_own


def _hotspots_at_condition(
    image: np.ndarray,
    drawn: Region,
    condition: ProcessCondition,
    pinch_limit: int,
    ctx: _DrawnContext,
) -> list[Hotspot]:
    printed = raster_to_region(image, ctx.window, ctx.grid)
    shorts = _bridge_and_missing(image, drawn, condition, ctx)
    # the bitmap is no longer needed: freeing it before the morphology
    # below keeps it from pinning heap memory (peak RSS)
    del image
    out: list[Hotspot] = []

    # pinch: printed image of drawn features necks below the limit.
    # Work in the doubled lattice for parity-free opening.  Necks that
    # never reach the feature core (drawn shrunk by the tolerance) are
    # contour staircase artefacts at the boundary, not electrical necks.
    printed_on_drawn = printed & drawn
    doubled = printed_on_drawn.scaled(2)
    necked = doubled - doubled.opened(max(pinch_limit - 1, 1))
    core = ctx.core
    for comp in necked.components():
        if not comp.overlaps(core):
            continue
        bb = comp.bbox
        marker = Rect(bb.x0 // 2, bb.y0 // 2, -(-bb.x1 // 2), -(-bb.y1 // 2))
        out.append(Hotspot(HotspotKind.PINCH, marker, comp.area / 4.0, condition))
    return out + shorts


def _bridge_and_missing(
    image: np.ndarray, drawn: Region, condition: ProcessCondition, ctx: _DrawnContext
) -> list[Hotspot]:
    """Bridge and missing hotspots from the labelled printed pixels.

    The default cross structure of ``ndimage.label`` is 4-connectivity,
    the same as :meth:`Region.components <repro.geometry.Region.components>`,
    and a printed component overlaps a drawn one exactly when one of its
    pixels is owned by it: every (label, owner) incidence is read off
    the owner raster plus the shared-pixel table of ``ctx``.
    """
    out: list[Hotspot] = []
    window, g = ctx.window, ctx.grid
    labels, n_labels = ndimage.label(image)
    flat = labels.ravel()
    owner = ctx.owner.ravel()
    hit = (flat > 0) & (owner > 0)
    lab = np.concatenate((flat[hit], flat[ctx.shared_pix]))
    own = np.concatenate((owner[hit] - 1, ctx.shared_own))
    on = lab > 0
    lab, own = lab[on], own[on]
    printed_any = np.zeros(len(ctx.components), dtype=bool)
    printed_any[own] = True
    # a label touches >= 2 drawn components exactly when one of its
    # incidences disagrees with the owner kept for it
    kept = np.zeros(n_labels + 1, dtype=own.dtype)
    kept[lab] = own
    bridging = np.unique(lab[kept[lab] != own]).tolist()
    if bridging:
        objects = ndimage.find_objects(labels)
        found = []
        for b in bridging:
            rows, cols = objects[b - 1]
            pixels = labels[rows, cols] == b
            # Region.components order: leftmost column, then lowest row in it
            order = (cols.start, rows.start + int(np.argmax(pixels[:, 0])))
            box = Rect(
                window.x0 + cols.start * g,
                window.y0 + rows.start * g,
                min(window.x0 + cols.stop * g, window.x1),
                min(window.y0 + rows.stop * g, window.y1),
            )
            found.append((order, raster_to_region(pixels, box, g)))
        found.sort(key=lambda item: item[0])
        for _, comp in found:
            gap_fill = comp - drawn
            marker_src = gap_fill if not gap_fill.is_empty else comp
            out.append(
                Hotspot(HotspotKind.BRIDGE, marker_src.bbox, marker_src.area, condition)
            )

    # missing: an entire drawn component printed nothing
    for i in np.flatnonzero(~printed_any).tolist():
        comp = ctx.components[i]
        out.append(Hotspot(HotspotKind.MISSING, comp.bbox, comp.area, condition))
    return out
