"""Stable, high-level entry points — the supported programmatic API.

Everything the command line can do is callable from here with the same
semantics, and this module is the compatibility contract: function
names, positional parameters, and result types are stable across
releases; new capabilities arrive as new keyword-only options with
defaults that preserve old behavior.  Internal modules
(:mod:`repro.drc.engine`, :mod:`repro.litho.fullchip`, ...) may
reorganize freely underneath it.

Every verification entry point returns a
:class:`repro.core.report.BaseReport` subclass, so callers can rely on
``report.ok``, ``report.findings_count``, ``report.summary()`` and
``report.to_dict()`` / ``to_json()`` uniformly.

The fault-tolerance options (``timeout``, ``max_retries``,
``fault_plan``, ``checkpoint_file``, ``resume``) are shared by
:func:`run_drc` and :func:`scan_full_chip` and documented on
:meth:`repro.parallel.TileExecutor.run`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.drc.engine import run_drc as _run_drc
from repro.dpt.decompose import decompose_dpt
from repro.dpt.stitch import decompose_with_stitches
from repro.litho.fullchip import scan_full_chip as _scan_full_chip
from repro.litho.model import LithoModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.scorecard import Scorecard
    from repro.core.techniques import DFMTechnique
    from repro.dpt.decompose import DecompositionResult
    from repro.dpt.stitch import Stitch
    from repro.drc.violations import DrcReport
    from repro.geometry import Rect, Region
    from repro.layout import Cell
    from repro.layout.store import StoreLayer, StoreView
    from repro.litho.fullchip import FullChipScanReport
    from repro.matrix import LibraryComplianceReport
    from repro.litho.process import ProcessWindow
    from repro.parallel import FaultPlan, TileCache, TileExecutor
    from repro.service import VerificationService
    from repro.tech.rules import RuleDeck
    from repro.tech.technology import Technology

__all__ = [
    "run_drc",
    "scan_full_chip",
    "decompose",
    "scorecard",
    "ingest_store",
    "make_service",
    "run_compliance_matrix",
]


def run_drc(
    cell: "Cell | None",
    deck: "RuleDeck",
    *,
    window: "Rect | None" = None,
    jobs: int = 1,
    tile_nm: int | None = None,
    cache: "TileCache | None" = None,
    timeout: float | None = None,
    max_retries: int = 2,
    fault_plan: "FaultPlan | None" = None,
    checkpoint_file: str | None = None,
    resume: bool = False,
    executor: "TileExecutor | None" = None,
    store: "StoreView | None" = None,
) -> "DrcReport":
    """Run every rule in ``deck`` against ``cell``.

    Defaults to the classic single-pass run; ``jobs``/``tile_nm``/
    ``cache`` or any fault-tolerance option selects the tiled
    parallel + incremental engine.  Returns a
    :class:`~repro.drc.violations.DrcReport`; ``report.ok`` is False
    when violations were found *or* tasks were quarantined.

    ``executor`` lets a long-lived caller (see :func:`make_service`)
    supply its own — typically persistent — tile executor whose warm
    worker pool is reused across calls; results are identical either
    way.

    ``store`` (see :func:`ingest_store`) runs the deck out-of-core
    against an mmapped layout store instead of flattening ``cell``
    (which may then be ``None``): workers window their tile's rects
    straight from the file, and the report and cache keys stay
    bit-identical to the in-RAM run.
    """
    return _run_drc(
        cell,
        deck,
        window,
        jobs=jobs,
        tile_nm=tile_nm,
        cache=cache,
        timeout=timeout,
        max_retries=max_retries,
        fault_plan=fault_plan,
        checkpoint_file=checkpoint_file,
        resume=resume,
        executor=executor,
        store=store,
    )


def scan_full_chip(
    model: "LithoModel | Technology",
    drawn: "Region | StoreLayer",
    *,
    extent: "Rect | None" = None,
    tile_nm: int = 4000,
    process: "ProcessWindow | None" = None,
    pinch_limit: int | None = None,
    mask: "Region | None" = None,
    grid: int | None = None,
    overlap_nm: int = 200,
    jobs: int = 1,
    cache: "TileCache | None" = None,
    timeout: float | None = None,
    max_retries: int = 2,
    fault_plan: "FaultPlan | None" = None,
    checkpoint_file: str | None = None,
    resume: bool = False,
    executor: "TileExecutor | None" = None,
) -> "FullChipScanReport":
    """Tiled full-chip litho hotspot scan of ``drawn``.

    ``model`` accepts a :class:`~repro.litho.model.LithoModel` or a
    :class:`~repro.tech.technology.Technology` (whose litho settings
    build one).  Returns a
    :class:`~repro.litho.fullchip.FullChipScanReport`; ``report.ok`` is
    False when hotspots were found *or* tiles were quarantined.

    ``executor`` lets a long-lived caller (see :func:`make_service`)
    supply its own — typically persistent — tile executor whose warm
    worker pool is reused across calls; results are identical either
    way.

    ``drawn`` also accepts a :class:`~repro.layout.store.StoreLayer`
    (one layer of an :func:`ingest_store` store): the scan then runs
    out-of-core — workers mmap the store read-only and window each
    tile's rects on demand — with bit-identical hotspots and cache
    keys.
    """
    if not isinstance(model, LithoModel):
        model = LithoModel(model.litho)
    return _scan_full_chip(
        model,
        drawn,
        extent=extent,
        tile_nm=tile_nm,
        process=process,
        pinch_limit=pinch_limit,
        mask=mask,
        grid=grid,
        overlap_nm=overlap_nm,
        jobs=jobs,
        cache=cache,
        timeout=timeout,
        max_retries=max_retries,
        fault_plan=fault_plan,
        checkpoint_file=checkpoint_file,
        resume=resume,
        executor=executor,
    )


def decompose(
    region: "Region",
    same_mask_space: int,
    *,
    stitches: bool = True,
    stitch_overlap: int = 20,
    max_rounds: int = 4,
) -> "tuple[DecompositionResult, list[Stitch]]":
    """Double-patterning decomposition of one layer.

    With ``stitches`` (the default) conflicting features may be split at
    stitch points to rescue an odd cycle; without it the plain two-
    coloring runs and the stitch list is always empty.  Returns
    ``(result, stitches)`` in both modes so callers need one code path.
    """
    if stitches:
        return decompose_with_stitches(
            region,
            same_mask_space,
            stitch_overlap=stitch_overlap,
            max_rounds=max_rounds,
        )
    return decompose_dpt(region, same_mask_space), []


def scorecard(
    cell: "Cell",
    tech: "Technology",
    *,
    techniques: "list[DFMTechnique] | None" = None,
    d0_per_cm2: float | None = None,
    hotspot_window: "Rect | None" = None,
) -> "Scorecard":
    """The paper's hit-or-hype evaluation: run every DFM technique on
    ``cell`` and score cost against benefit.  Returns a
    :class:`~repro.core.scorecard.Scorecard` (render with
    ``card.render()``)."""
    from repro.core import evaluate_techniques

    return evaluate_techniques(
        cell,
        tech,
        techniques=techniques,
        d0_per_cm2=d0_per_cm2,
        hotspot_window=hotspot_window,
    )


def run_compliance_matrix(
    *,
    nodes: "tuple[int, ...] | list[int]" = (45,),
    cells: "tuple[str, ...] | list[str] | None" = None,
    corners: int = 2,
    checks: "tuple[str, ...] | list[str]" = ("litho", "dpt"),
    flips: "tuple[bool, ...] | list[bool]" = (False, True),
    window_nm: int | None = None,
    jobs: int = 1,
    client: "object | None" = None,
    store: "object | None" = None,
) -> "LibraryComplianceReport":
    """Run the standard-cell compliance matrix at library scale.

    Enumerates every ordered cell-pair abutment (both flips) per node —
    plus each cell standalone — and checks each window for litho
    hotspots at ``corners`` process corners and for DPT two-
    colorability, deduplicating identical abutment windows through the
    content-addressed result store.  Returns a
    :class:`~repro.matrix.LibraryComplianceReport` with per-cell
    standalone vs. in-abutment verdicts, the weak-pair ranking, and the
    fix-priority ordering.

    ``cells=None`` runs the whole generated library.  ``client`` (a
    :class:`~repro.service.ServiceClient` or
    :class:`~repro.service.SocketClient`) routes the scenarios through a
    verification service as one batched submit on the background band;
    otherwise they run in process over ``jobs`` workers.  The report is
    identical either way.
    """
    from repro.matrix import MatrixSpec, run_matrix

    spec = MatrixSpec(
        nodes=tuple(nodes),
        cells=tuple(cells) if cells is not None else None,
        corners=corners,
        checks=tuple(checks),
        flips=tuple(flips),
        window_nm=window_nm,
    )
    return run_matrix(spec, jobs=jobs, client=client, store=store)


def ingest_store(
    gds_path: str,
    store_path: str,
    *,
    cell: str | None = None,
    force: bool = False,
) -> "StoreView":
    """Stream a GDSII into an out-of-core layout store and map it.

    Parses record-by-record — the hierarchy is never materialized — and
    writes each layer's canonical rects to ``store_path`` as an
    mmap-able flat-quad file, reusing an existing file when it already
    matches this exact GDSII version (``force`` rebuilds
    unconditionally).  The returned
    :class:`~repro.layout.store.StoreView` serves whole layers
    (:meth:`~repro.layout.store.StoreView.layer`) or windowed rect
    queries without touching cold pages, and plugs into
    :func:`scan_full_chip` and :func:`run_drc`.
    """
    from repro.layout.store import ensure_store

    return ensure_store(gds_path, store_path, cell=cell, force=force)


def make_service(
    *,
    jobs: int = 1,
    node: int = 45,
    max_depth: int = 256,
    max_sessions: int = 4,
    store_entries: int = 100_000,
    session_store_dir: str | None = None,
) -> "VerificationService":
    """A long-lived in-process verification service.

    The service keeps layouts resident, the worker pool warm, and a
    content-addressed result store shared across runs, so repeated
    verification of an evolving layout costs only the dirty tiles.
    Drive it through :class:`repro.service.ServiceClient` (or serve it
    over a socket with ``repro serve``), and ``close()`` it — it is a
    context manager — when done.

    Every session serves requests from an out-of-core layout store
    (see :func:`ingest_store`) instead of a parsed layout.
    ``session_store_dir`` chooses where those stores persist, so
    sessions survive service restarts; without it they live in a
    private temp dir removed by ``close()``.
    """
    from repro.service import VerificationService

    return VerificationService(
        jobs=jobs,
        node=node,
        max_depth=max_depth,
        max_sessions=max_sessions,
        store_entries=store_entries,
        session_store_dir=session_store_dir,
    )
