"""Parallel, incremental, and fault-tolerant verification.

The shared machinery behind the full-chip litho scan
(:func:`repro.litho.scan_full_chip`) and tiled DRC
(:func:`repro.drc.run_drc`), exposed on the command line as
``--jobs`` / ``--incremental`` / ``--timeout`` / ``--resume``:

* :func:`tile_grid` / :class:`Tile` — cut an extent into core tiles
  with halo windows.  Seam ownership is half-open on interior high
  edges and closed on the extent's high edges, so every point
  (including the extreme corner) has exactly one owning tile and tiled
  results are independent of the tiling.
* :class:`TileExecutor` — deterministic chunked fan-out of tile work
  over a ``multiprocessing`` pool.  Results are reassembled in tile
  order, so a ``jobs=N`` run is byte-identical to ``jobs=1``.
  :meth:`TileExecutor.run` adds the fault-tolerant contract: per-chunk
  timeouts, bounded retry with exponential backoff, poison-tile
  quarantine (:class:`QuarantinedTile`), and checkpoint/resume.
* :class:`TileCache` — incremental result cache.  Each tile's entry is
  keyed by a content hash (:meth:`repro.geometry.Region.digest`) of
  the geometry clipped to the tile's *halo window* — the full region
  that can influence the tile's result (optical influence radius for
  litho, rule reach for DRC) — plus the engine parameters.  An edit
  therefore invalidates exactly the tiles whose halo window it
  touches: a re-scan after a local edit re-verifies only dirty tiles,
  and an unedited re-scan re-verifies nothing (100% hit rate).  Hashes
  are taken over canonical-form geometry, so rebuilding the same point
  set differently still hits.
* :class:`Checkpoint` — signature-guarded persistence of completed tile
  results, so an interrupted run resumes instead of starting over.
* :class:`FaultPlan` — deterministic fault injection (``fail`` /
  ``hang`` / ``abort`` at exact tiles), driven programmatically or via
  ``$REPRO_FAULT_SPEC``, so the retry/timeout/quarantine matrix is
  testable in CI.
* Geometry transport — the engines never pickle whole-chip geometry
  to workers.  A pooled run ships
  :class:`~repro.layout.store.StoreRects` handles
  (``(path, offset, count, digest)``) into a ``layoutstore-v1`` file:
  the caller's own store, or for in-RAM input a run-scoped one
  (:func:`repro.layout.store.run_store`) unlinked when the run ends.
  ``pool.payload_bytes`` therefore stays flat as the chip grows.
"""

from repro.parallel.cache import TileCache, digest_parts
from repro.parallel.checkpoint import Checkpoint
from repro.parallel.faults import (
    AbortRun,
    FaultPlan,
    FaultRule,
    InjectedAbort,
    InjectedFault,
    QuarantinedTile,
)
from repro.parallel.pool import (
    ExecutionOutcome,
    TileExecutor,
    WorkerFailure,
    resolve_jobs,
)
from repro.parallel.tiles import Tile, tile_grid

__all__ = [
    "Tile",
    "tile_grid",
    "TileExecutor",
    "ExecutionOutcome",
    "WorkerFailure",
    "resolve_jobs",
    "TileCache",
    "digest_parts",
    "Checkpoint",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "InjectedAbort",
    "AbortRun",
    "QuarantinedTile",
]
