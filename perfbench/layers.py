"""Per-layer probes, all measured from outside the program.

Each probe times calls into public functions (a serial litho replay,
one DRC run per rule kind, a cold worker pool) or reads what the
program already records: the registry's span timers and counters, a
daemon's run manifest.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterable

from repro import api
from repro.geometry import Rect, Region
from repro.layout import Cell
from repro.litho import LithoModel, find_hotspots
from repro.litho.process import ProcessCondition
from repro.litho.raster import rasterize
from repro.parallel import TileExecutor
from repro.tech.rules import RuleDeck, RuleKind


class Counters:
    """Read access to a registry snapshot or a run manifest: timers
    (``timers`` in a snapshot, ``stages`` in a manifest), counters and
    gauges."""

    def __init__(self, data: dict[str, Any]):
        self.timers = data.get("timers", data.get("stages", {}))
        self.counters = data.get("counters", {})
        self.gauges = data.get("gauges", {})

    def total(self, name: str) -> float:
        return float(self.timers.get(name, {}).get("total", 0.0))

    def count(self, name: str) -> int:
        return int(self.counters.get(name, 0))

    def gauge(self, name: str) -> float:
        return float(self.gauges.get(name, 0.0))

    def tail_ratio(self, name: str) -> float:
        """Slowest observation of timer ``name`` over its mean."""
        stat = self.timers.get(name)
        if not stat or not stat.get("count"):
            return 0.0
        mean = stat["total"] / stat["count"]
        return stat["max"] / mean if mean else 0.0

    def minus(self, other: "Counters") -> "Counters":
        """Timer totals and counters of this one less ``other``'s (gauges
        and timer maxima are this one's)."""
        timers = {}
        for name, stat in self.timers.items():
            before = other.timers.get(name, {})
            timers[name] = dict(
                stat,
                total=stat["total"] - before.get("total", 0.0),
                count=stat["count"] - before.get("count", 0),
            )
        counters = {
            name: n - other.counters.get(name, 0) for name, n in self.counters.items()
        }
        return Counters({"timers": timers, "counters": counters, "gauges": self.gauges})


def stage_metrics(c: Counters, scan_runs: int, drc_runs: int) -> dict[str, float]:
    """The program's own scan/DRC spans and counters, per scan or DRC run."""
    per_scan = 1.0 / scan_runs if scan_runs else 0.0
    per_drc = 1.0 / drc_runs if drc_runs else 0.0
    return {
        "scan.plan_s": c.total("scan.plan") * per_scan,
        "scan.compute_s": c.total("scan.compute") * per_scan,
        "scan.merge_s": c.total("scan.merge") * per_scan,
        "scan.clip_candidates": c.count("scan.clip_candidates") * per_scan,
        "scan.hotspots_raw": c.count("scan.hotspots_raw") * per_scan,
        "scan.hotspots": c.count("scan.hotspots") * per_scan,
        "sim.raster_reuse": c.count("sim.raster_reuse") * per_scan,
        "sim.blur_unique": c.count("sim.blur_unique") * per_scan,
        "drc.flatten_s": c.total("drc.flatten") * per_drc,
        "drc.key_s": c.total("drc.key") * per_drc,
        "drc.compute_s": c.total("drc.compute") * per_drc,
        "drc.check_s": c.total("drc.check") * per_drc,
        "parallel.payload_bytes": c.gauge("pool.payload_bytes"),
        "parallel.retries": float(c.count("pool.retries")),
    }


def scan_parallel_metrics(c: Counters, jobs: int) -> dict[str, float]:
    """Tile busy time over the pool's capacity during ``scan.compute``,
    and the slowest tile over the mean tile."""
    compute = c.total("scan.compute")
    busy = c.total("scan.tile")
    return {
        "parallel.busy_ratio": busy / (jobs * compute) if compute else 0.0,
        "parallel.tail_ratio": c.tail_ratio("scan.tile"),
    }


@dataclass(frozen=True)
class LithoWindow:
    """One tile or window to replay: the model, drawn geometry, the
    window, the process corners and the pinch limit the program used."""

    model: LithoModel
    drawn: Region
    window: Rect
    corners: tuple[ProcessCondition, ...]
    pinch_limit: int


class _Corners:
    """A process window of explicit corners (``find_hotspots`` only
    calls ``corners()``)."""

    def __init__(self, corners: Iterable[ProcessCondition]):
        self._corners = list(corners)

    def corners(self) -> list[ProcessCondition]:
        return self._corners


def litho_replay(windows: Iterable[LithoWindow]) -> dict[str, float]:
    """Serial replay of the litho stages over each window.

    Times ``rasterize`` of the halo window, the simulation cache's aerial
    image per unique defocus (which rasterizes once more: blur is that
    time less the rasterization), its printed contour per corner, and a
    full ``find_hotspots``.  ``classify_s`` is derived: the find time
    less the three stages before it.
    """
    raster = blur = contour = find = 0.0
    for w in windows:
        model, g = w.model, w.model.settings.grid_nm
        defocus = sorted({c.defocus_nm for c in w.corners})
        halo = max(-(-model.halo_nm(d) // g) for d in defocus) * g
        t0 = time.perf_counter()
        rasterize(w.drawn, w.window.expanded(halo), g)
        t1 = time.perf_counter()
        sim = model.sim_cache(w.drawn, w.window, defocus_hint=defocus)
        for d in defocus:
            sim.aerial_image(d)
        t2 = time.perf_counter()
        for c in w.corners:
            sim.print_contour(c.dose, c.defocus_nm)
        t3 = time.perf_counter()
        find_hotspots(
            model, w.drawn, w.window, process=_Corners(w.corners), pinch_limit=w.pinch_limit
        )
        t4 = time.perf_counter()
        raster += t1 - t0
        blur += (t2 - t1) - (t1 - t0)
        contour += t3 - t2
        find += t4 - t3
    return {
        "litho.rasterize_s": raster,
        "litho.blur_s": blur,
        "litho.contour_s": contour,
        "litho.find_hotspots_s": find,
        "litho.classify_s": find - raster - blur - contour,
    }


def drc_kind_seconds(cell: Cell, deck: RuleDeck, jobs: int, tile_nm: int) -> dict[str, float]:
    """Wall time of a tiled ``run_drc`` with only the rules of each kind."""
    out = {}
    for kind in RuleKind:
        t0 = time.perf_counter()
        api.run_drc(cell, deck.of_kind(kind), jobs=jobs, tile_nm=tile_nm)
        out[f"drc.kind.{kind.value}_s"] = time.perf_counter() - t0
    return out


def _noop(payload: None, item: int) -> int:
    return item


def spawn_seconds(jobs: int, repeats: int = 3) -> float:
    """Median wall time of a cold ``TileExecutor(jobs).run`` of a no-op
    over ``jobs`` tasks: standing a pool up and tearing it down."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        TileExecutor(jobs).run(_noop, None, list(range(jobs)))
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]
