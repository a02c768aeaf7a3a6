"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate``  — write a synthetic logic block to GDSII
* ``info``      — summarize a GDSII library
* ``ingest``    — stream a GDSII into an out-of-core layout store
* ``drc``       — run minimum-rule DRC on a GDSII cell
* ``scan``      — tiled full-chip litho hotspot scan
* ``dpt``       — double-patterning decomposition of one layer
* ``scorecard`` — the hit-or-hype evaluation on a generated block
* ``matrix``    — library compliance matrix: every cell-pair abutment
* ``serve``     — run the verification service daemon (see docs/SERVICE.md)
* ``submit``    — submit a job to a running daemon

Exit-code contract (what CI gates on): ``0`` on success, and for the
verification commands (``drc``, ``scan``, ``dpt``) ``1`` when findings
are reported — violations, hotspots, or coloring conflicts.  Pass
``--no-fail`` to get exit 0 regardless of findings (report-only mode).
Quarantined tiles (tasks that kept failing and were excluded — see
``--max-retries``) also exit ``1``, *even with* ``--no-fail``: a
quarantine means the verification is incomplete, not that the layout is
clean.  Usage errors exit ``2`` via argparse; an interrupted run whose
state was checkpointed (resume with ``--resume``) exits ``3``.

``submit`` extends the contract for daemon-side outcomes: ``0`` clean,
``1`` findings or quarantine (as above), ``2`` usage/protocol errors or
a failed job, ``3`` job cancelled or timed out, ``4`` request shed by a
full queue, ``5`` daemon unreachable.  ``matrix`` follows the same
contract (``1`` on any failing scenario; with ``--daemon``, codes
``4``/``5`` as for ``submit``).

Every command accepts ``--metrics-out FILE`` (write a JSON run manifest
with per-stage timings and counters) and ``--trace`` (print the nested
wall-time span tree after the run) — see :mod:`repro.obs`.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.analysis import Table
from repro.designgen import LogicBlockSpec, generate_logic_block
from repro.gdsii import read_gds, write_gds
from repro.layout import Layer
from repro.parallel import AbortRun
from repro.tech import make_node

# The engine-backed modules (``repro.api``, ``repro.dpt``) are imported
# inside the handlers that use them: ``serve`` and ``submit`` start
# without numpy, scipy or networkx.


def _add_node(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--node", type=int, default=45, help="process node in nm (default 45)")


def _add_obs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="write a JSON run manifest (per-stage timings, counters) to FILE",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="print the nested wall-time span tree after the run",
    )


def _add_no_fail(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-fail", action="store_true",
        help="exit 0 even when findings are reported (report-only mode)",
    )


def _findings_rc(args, found: bool, report=None) -> int:
    """Exit code for a verification command: findings fail unless opted out.

    A quarantined tile always fails — the run is *incomplete*, which
    ``--no-fail`` (a statement about findings, not about coverage) does
    not excuse.
    """
    if report is not None and getattr(report, "quarantined", None):
        return 1
    if getattr(args, "no_fail", False):
        return 0
    return 1 if found else 0


def _add_parallel(parser: argparse.ArgumentParser, default_cache: str) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the tiled engine (0 = all CPUs, default 1)",
    )
    parser.add_argument(
        "--incremental", action="store_true",
        help="reuse per-tile results cached from a previous run; only tiles "
             "whose geometry changed are re-verified",
    )
    parser.add_argument(
        "--cache-file", default=default_cache,
        help="where --incremental persists the tile cache between runs",
    )


def _add_faults(parser: argparse.ArgumentParser, default_checkpoint: str) -> None:
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="kill and retry a work chunk running longer than this "
             "(default: no timeout)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=2,
        help="retries per tile before it is quarantined (default 2)",
    )
    parser.add_argument(
        "--checkpoint-file", default=None, metavar="FILE",
        help="periodically checkpoint completed tiles to FILE "
             f"(default with --resume: {default_checkpoint})",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume from the checkpoint file, recomputing only unfinished "
             "tiles (stale/mismatched checkpoints are ignored)",
    )
    parser.set_defaults(default_checkpoint=default_checkpoint)


def _checkpoint_file(args) -> str | None:
    """The checkpoint path: explicit flag, or the default when resuming."""
    if args.checkpoint_file:
        return args.checkpoint_file
    return args.default_checkpoint if args.resume else None


def _print_quarantine(report) -> None:
    for q in getattr(report, "quarantined", ()):
        print(f"  QUARANTINED {q}", file=sys.stderr)


def _load_cache(args):
    from repro.parallel import TileCache

    if not args.incremental:
        return None
    return TileCache.load(args.cache_file)


def _finish_cache(args, cache, report) -> None:
    if cache is None:
        return
    cache.save(args.cache_file)
    print(
        f"incremental: {report.tiles_cached}/{report.tiles} tiles cached "
        f"({report.cache_hit_rate:.0%} hit rate), "
        f"{report.tiles_computed} re-verified, cache -> {args.cache_file}"
    )


def _resolve_cell(layout, name: str | None):
    if name:
        return layout.cell(name)
    return layout.top_cell()


def _add_store(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store", metavar="FILE", default=None,
        help="run out-of-core from this layout store file (built from the "
             "GDSII on first use, reused while the GDSII is unchanged)",
    )


def _open_store(args):
    """Build-or-map the layout store named by ``--store``."""
    from repro import api
    from repro.layout.store import LayoutStoreError

    try:
        return api.ingest_store(args.gds, args.store, cell=args.cell or None)
    except LayoutStoreError as exc:
        raise SystemExit(f"layout store error: {exc}") from exc


def _parse_extent(text: str | None):
    if text is None:
        return None
    from repro.geometry import Rect

    try:
        x0, y0, x1, y1 = (int(v) for v in text.split(","))
        return Rect(x0, y0, x1, y1)
    except ValueError as exc:
        raise SystemExit(
            f"bad --extent {text!r} (expected x0,y0,x1,y1 in nm)"
        ) from exc


def _resolve_layer(tech, name: str) -> Layer:
    from dataclasses import fields

    for f in fields(tech.layers):
        layer = getattr(tech.layers, f.name)
        if isinstance(layer, Layer) and layer.name == name:
            return layer
    raise SystemExit(f"unknown layer {name!r} (try M1, M2, M3, V1, V2, POLY, ...)")


def cmd_generate(args) -> int:
    tech = make_node(args.node)
    spec = LogicBlockSpec(
        rows=args.rows,
        row_width_nm=args.width,
        net_count=args.nets,
        seed=args.seed,
        weak_spots=args.weak_spots,
    )
    block = generate_logic_block(tech, spec)
    write_gds(block.layout, args.out)
    print(
        f"wrote {args.out}: {block.cell_count} cells, {block.net_count} nets, "
        f"bbox {block.top.bbox.as_tuple()}"
    )
    return 0


def cmd_info(args) -> int:
    layout = read_gds(args.gds)
    print(f"library {layout.name!r}: {len(layout)} cells, dbu {layout.dbu_nm:g} nm")
    table = Table("cells", ["name", "shapes", "refs", "layers"])
    for cell in layout:
        table.add_row(
            cell.name,
            float(cell.shape_count()),
            float(len(cell.references)),
            float(len({(l.gds_layer, l.gds_datatype) for l in cell.layers})),
        )
    print(table.render())
    tops = [c.name for c in layout.top_cells()]
    print(f"top cells: {', '.join(tops) or '(none)'}")
    return 0


def cmd_drc(args) -> int:
    from repro import api

    tech = make_node(args.node)
    if args.store:
        store = _open_store(args)
        cell = None
    else:
        store = None
        layout = read_gds(args.gds)
        cell = _resolve_cell(layout, args.cell)
    deck = tech.rules.minimum()
    cache = _load_cache(args)
    checkpoint_file = _checkpoint_file(args)
    tiled = (
        args.jobs != 1
        or cache is not None
        or args.timeout is not None
        or checkpoint_file is not None
    )
    report = api.run_drc(
        cell,
        deck,
        jobs=args.jobs,
        tile_nm=args.tile if tiled else None,
        cache=cache,
        timeout=args.timeout,
        max_retries=args.max_retries,
        checkpoint_file=checkpoint_file,
        resume=args.resume,
        store=store,
    )
    print(report.summary())
    _finish_cache(args, cache, report)
    _print_quarantine(report)
    return _findings_rc(args, bool(report.violations), report)


def cmd_scan(args) -> int:
    from repro import api

    tech = make_node(args.node)
    layer = _resolve_layer(tech, args.layer)
    if args.store:
        region = _open_store(args).layer_for(layer)
    else:
        layout = read_gds(args.gds)
        cell = _resolve_cell(layout, args.cell)
        region = cell.region(layer)
    cache = _load_cache(args)
    report = api.scan_full_chip(
        tech,
        region,
        extent=_parse_extent(args.extent),
        tile_nm=args.tile,
        pinch_limit=tech.metal_width // 2,
        jobs=args.jobs,
        cache=cache,
        timeout=args.timeout,
        max_retries=args.max_retries,
        checkpoint_file=_checkpoint_file(args),
        resume=args.resume,
    )
    print(report.summary())
    _finish_cache(args, cache, report)
    _print_quarantine(report)
    # --limit 0 means "summary only": print no listing and no tail
    if args.limit > 0:
        for hotspot in report.hotspots[: args.limit]:
            print(f"  {hotspot}")
        remaining = len(report.hotspots) - args.limit
        if remaining > 0:
            print(f"  ... and {remaining} more")
    return _findings_rc(args, bool(report.hotspots), report)


def cmd_dpt(args) -> int:
    from repro import api
    from repro.dpt import score_decomposition

    tech = make_node(args.node)
    layout = read_gds(args.gds)
    cell = _resolve_cell(layout, args.cell)
    layer = _resolve_layer(tech, args.layer)
    region = cell.region(layer)
    result, stitches = api.decompose(region, args.space)
    score = score_decomposition(result, stitches)
    print(result.summary())
    print(f"stitches: {len(stitches)}")
    print(score.summary())
    if args.out:
        from repro.layout import Layout

        out = Layout(f"DPT_{cell.name}")
        top = out.new_cell("TOP")
        top.add_region(layer.with_datatype(1), result.mask_a)
        top.add_region(layer.with_datatype(2), result.mask_b)
        write_gds(out, args.out)
        print(f"wrote masks to {args.out}")
    return _findings_rc(args, not result.ok)


def cmd_ingest(args) -> int:
    from repro import api
    from repro.layout.store import LayoutStoreError

    out = args.out or (args.gds + ".lstore")
    try:
        view = api.ingest_store(args.gds, out, cell=args.cell, force=args.force)
    except LayoutStoreError as exc:
        raise SystemExit(f"layout store error: {exc}") from exc
    extent = view.extent.as_tuple() if view.extent is not None else None
    print(
        f"store {out}: cell {view.cell_name!r}, "
        f"{len(view.layer_keys)} layers, {view.total_rects} rects, "
        f"extent {extent}"
    )
    return 0


def cmd_serve(args) -> int:
    from repro.service import ServiceDaemon, VerificationService

    service = VerificationService(
        jobs=args.jobs,
        node=args.node,
        max_depth=args.max_depth,
        max_sessions=args.max_sessions,
        store_entries=args.store_entries,
        session_store_dir=args.session_store_dir,
    )
    daemon = ServiceDaemon(
        service, host=args.host, port=args.port, state_file=args.state_file
    )
    host, port = daemon.address
    print(f"repro service on {host}:{port} (state file {args.state_file})")
    sys.stdout.flush()
    daemon.serve_until_shutdown()
    print("repro service stopped")
    return 0


# submit ops that name a job id rather than a layout
_SUBMIT_JOB_OPS = ("status", "cancel")
_SUBMIT_PLAIN_OPS = ("ping", "metrics", "shutdown")


def _submit_job_rc(args, job: dict) -> int:
    """Map a finished job snapshot onto the submit exit-code contract."""
    state = job.get("state")
    if state in ("cancelled", "timeout"):
        print(f"job {job.get('id')} {state}: {job.get('error', '')}", file=sys.stderr)
        return 3
    if state == "failed":
        print(f"job {job.get('id')} failed: {job.get('error', '')}", file=sys.stderr)
        return 2
    result = job.get("result") or {}
    for line in result.get("listing", ()):
        print(f"  {line}")
    if result.get("summary"):
        print(result["summary"])
    if result.get("quarantined"):
        return 1
    if getattr(args, "no_fail", False):
        return 0
    return 1 if result.get("findings") else 0


def cmd_submit(args) -> int:
    import json as _json

    from repro.service import (
        BadRequestError,
        DaemonUnreachableError,
        QueueFullError,
        ServiceError,
        SocketClient,
    )

    try:
        client = SocketClient.from_state_file(
            path=args.state_file, timeout=args.socket_timeout
        )
        if args.op in _SUBMIT_PLAIN_OPS:
            response = client.request(args.op)
            response.pop("schema", None)
            print(_json.dumps(response, indent=2, sort_keys=True))
            return 0
        if args.op in _SUBMIT_JOB_OPS:
            if args.id is None:
                print(f"submit {args.op} requires --id", file=sys.stderr)
                return 2
            job = getattr(client, args.op)(args.id)
            print(_json.dumps(job, indent=2, sort_keys=True))
            return 0
        # scan / drc
        if not args.gds:
            print(f"submit {args.op} requires a GDS path", file=sys.stderr)
            return 2
        params = {"gds": args.gds, "tile": args.tile, "node": args.node,
                  "limit": args.limit}
        if args.cell:
            params["cell"] = args.cell
        if args.op == "scan":
            params["layer"] = args.layer
        job = client.submit(
            args.op,
            params,
            client=args.client,
            priority=args.priority,
            timeout_s=args.job_timeout,
            wait=not args.async_submit,
        )
        if args.async_submit:
            print(_json.dumps(job, indent=2, sort_keys=True))
            return 0
        return _submit_job_rc(args, job)
    except DaemonUnreachableError as exc:
        print(f"daemon unreachable: {exc}", file=sys.stderr)
        return 5
    except QueueFullError as exc:
        print(f"request shed: {exc}", file=sys.stderr)
        return 4
    except BadRequestError as exc:
        print(f"bad request: {exc}", file=sys.stderr)
        return 2
    except ServiceError as exc:
        print(f"service error ({exc.code}): {exc}", file=sys.stderr)
        return 2


def cmd_matrix(args) -> int:
    from repro import api
    from repro.service import (
        BadRequestError,
        DaemonUnreachableError,
        QueueFullError,
        ServiceError,
        SocketClient,
    )

    nodes = tuple(int(n) for n in args.nodes.split(","))
    cells = tuple(args.cells.split(",")) if args.cells else None
    checks = tuple(args.checks.split(","))
    try:
        if args.daemon:
            with SocketClient.from_state_file(
                path=args.state_file, timeout=args.socket_timeout
            ) as client:
                report = api.run_compliance_matrix(
                    nodes=nodes, cells=cells, corners=args.corners,
                    checks=checks, window_nm=args.window, client=client,
                )
        else:
            report = api.run_compliance_matrix(
                nodes=nodes, cells=cells, corners=args.corners,
                checks=checks, window_nm=args.window, jobs=args.jobs,
            )
    except DaemonUnreachableError as exc:
        print(f"daemon unreachable: {exc}", file=sys.stderr)
        return 5
    except QueueFullError as exc:
        print(f"request shed: {exc}", file=sys.stderr)
        return 4
    except BadRequestError as exc:
        print(f"bad request: {exc}", file=sys.stderr)
        return 2
    except ServiceError as exc:
        print(f"service error ({exc.code}): {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"bad matrix spec: {exc}", file=sys.stderr)
        return 2

    print(report.summary())
    table = Table("per-cell verdicts", ["cell", "standalone", "abutment"])
    for cell, verdict in report.cell_verdicts.items():
        table.add_row(
            cell,
            1.0 if verdict["standalone_ok"] else 0.0,
            1.0 if verdict["abutment_ok"] else 0.0,
        )
    print(table.render())
    for pair in report.weak_pairs[: args.limit]:
        print(
            f"  weak pair {pair['pair'][0]}|{pair['pair'][1]}: "
            f"{pair['findings']} findings over {pair['scenarios']} scenarios"
        )
    if report.fix_priority:
        print(f"fix priority: {', '.join(report.fix_priority)}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json(indent=2))
            fh.write("\n")
        print(f"wrote report to {args.out}")
    return _findings_rc(args, not report.ok)


def cmd_scorecard(args) -> int:
    from repro import api

    tech = make_node(args.node)
    spec = LogicBlockSpec(
        rows=args.rows,
        row_width_nm=args.width,
        net_count=args.nets,
        seed=args.seed,
        weak_spots=args.weak_spots,
    )
    block = generate_logic_block(tech, spec)
    card = api.scorecard(block.top, tech, d0_per_cm2=args.d0)
    print(card.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DFM in practice: hit or hype? - CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic logic block to GDSII")
    _add_node(p)
    p.add_argument("--rows", type=int, default=3)
    p.add_argument("--width", type=int, default=8000)
    p.add_argument("--nets", type=int, default=16)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--weak-spots", type=int, default=0)
    p.add_argument("--out", default="block.gds")
    _add_obs(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("info", help="summarize a GDSII library")
    p.add_argument("gds")
    _add_obs(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser(
        "ingest", help="stream a GDSII into an out-of-core layout store"
    )
    p.add_argument("gds")
    p.add_argument("--out", default=None,
                   help="store file to write (default: GDS path + .lstore)")
    p.add_argument("--cell",
                   help="cell to flatten (default: the single top cell)")
    p.add_argument("--force", action="store_true",
                   help="rebuild even when an up-to-date store exists")
    _add_obs(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("drc", help="run minimum-rule DRC on a cell")
    _add_node(p)
    p.add_argument("gds")
    p.add_argument("--cell")
    p.add_argument("--tile", type=int, default=4000,
                   help="tile size (nm) for the parallel/incremental engine")
    _add_store(p)
    _add_parallel(p, ".repro_drc_cache.pkl")
    _add_faults(p, ".repro_drc_ckpt.pkl")
    _add_obs(p)
    _add_no_fail(p)
    p.set_defaults(func=cmd_drc)

    p = sub.add_parser("scan", help="tiled full-chip litho hotspot scan")
    _add_node(p)
    p.add_argument("gds")
    p.add_argument("--cell")
    p.add_argument("--layer", default="M1")
    p.add_argument("--tile", type=int, default=4000)
    p.add_argument("--limit", type=int, default=10,
                   help="hotspots to list (0 = summary only)")
    p.add_argument("--extent", default=None, metavar="X0,Y0,X1,Y1",
                   help="scan extent in nm (default: the drawn bbox)")
    _add_store(p)
    _add_parallel(p, ".repro_scan_cache.pkl")
    _add_faults(p, ".repro_scan_ckpt.pkl")
    _add_obs(p)
    _add_no_fail(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("dpt", help="double-patterning decomposition of one layer")
    _add_node(p)
    p.add_argument("gds")
    p.add_argument("--cell")
    p.add_argument("--layer", default="M1")
    p.add_argument("--space", type=int, required=True, help="same-mask spacing limit (nm)")
    p.add_argument("--out", help="write the two masks to this GDSII file")
    _add_obs(p)
    _add_no_fail(p)
    p.set_defaults(func=cmd_dpt)

    p = sub.add_parser("serve", help="run the verification service daemon")
    _add_node(p)
    p.add_argument("--host", default="127.0.0.1",
                   help="listen address (localhost only by design)")
    p.add_argument("--port", type=int, default=0,
                   help="listen port (0 = pick a free one; see the state file)")
    p.add_argument("--state-file", default=".repro_service.json",
                   help="where to publish the daemon's host/port/pid")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the persistent executor "
                        "(0 = all CPUs, default 1)")
    p.add_argument("--max-depth", type=int, default=256,
                   help="queued jobs before new submissions are shed")
    p.add_argument("--max-sessions", type=int, default=4,
                   help="resident layouts kept loaded (LRU beyond this)")
    p.add_argument("--store-entries", type=int, default=100000,
                   help="tile results kept in the shared store (LRU beyond this)")
    p.add_argument("--session-store-dir", default=None, metavar="DIR",
                   help="persist session layout stores in DIR so they survive "
                        "daemon restarts (default: a private temp dir)")
    _add_obs(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("submit", help="submit a job to a running daemon")
    p.add_argument("op", choices=["scan", "drc", "ping", "metrics", "status",
                                  "cancel", "shutdown"],
                   help="verification kind or control operation")
    p.add_argument("gds", nargs="?", help="layout path (scan/drc only)")
    _add_node(p)
    p.add_argument("--state-file", default=".repro_service.json",
                   help="state file published by `repro serve`")
    p.add_argument("--cell", help="cell to verify (default: top cell)")
    p.add_argument("--layer", default="M1", help="layer for scan jobs")
    p.add_argument("--tile", type=int, default=4000)
    p.add_argument("--limit", type=int, default=10,
                   help="findings to list in the result (0 = summary only)")
    p.add_argument("--client", default="cli",
                   help="client name used for queue fairness accounting")
    p.add_argument("--priority", default="interactive",
                   choices=["interactive", "batch", "background"])
    p.add_argument("--job-timeout", type=float, default=None, metavar="SECONDS",
                   help="cancel the job if it runs longer than this")
    p.add_argument("--socket-timeout", type=float, default=None, metavar="SECONDS",
                   help="socket timeout per request (default: wait forever)")
    p.add_argument("--async", dest="async_submit", action="store_true",
                   help="return the job id immediately instead of waiting")
    p.add_argument("--id", type=int, help="job id for status/cancel")
    _add_obs(p)
    _add_no_fail(p)
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser(
        "matrix",
        help="standard-cell compliance matrix: every abutment x node x corner",
    )
    p.add_argument("--nodes", default="45",
                   help="comma-separated process nodes in nm (default 45)")
    p.add_argument("--cells", default=None,
                   help="comma-separated cell names (default: whole library)")
    p.add_argument("--corners", type=int, default=2,
                   help="litho process corners per scenario (default 2)")
    p.add_argument("--checks", default="litho,dpt",
                   help="comma-separated checks: litho, dpt (default both)")
    p.add_argument("--window", type=int, default=None, metavar="NM",
                   help="abutment window half-width (default: 2 poly pitches)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for in-process execution")
    p.add_argument("--limit", type=int, default=5,
                   help="weak pairs to list (0 = summary only)")
    p.add_argument("--daemon", action="store_true",
                   help="run through a live daemon as one batched submit")
    p.add_argument("--state-file", default=".repro_service.json",
                   help="state file published by `repro serve` (with --daemon)")
    p.add_argument("--socket-timeout", type=float, default=None, metavar="SECONDS",
                   help="socket timeout per request (with --daemon)")
    p.add_argument("--out", help="write the full JSON report to this file")
    _add_obs(p)
    _add_no_fail(p)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("scorecard", help="hit-or-hype evaluation on a generated block")
    _add_node(p)
    p.add_argument("--rows", type=int, default=3)
    p.add_argument("--width", type=int, default=8000)
    p.add_argument("--nets", type=int, default=16)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--weak-spots", type=int, default=12)
    p.add_argument("--d0", type=float, default=1.0)
    _add_obs(p)
    p.set_defaults(func=cmd_scorecard)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    from repro.obs import RunManifest, get_registry, get_tracer, span
    from repro.parallel import resolve_jobs

    metrics_out = getattr(args, "metrics_out", None)
    trace = getattr(args, "trace", False)
    registry, tracer = get_registry(), get_tracer()
    observing = bool(metrics_out or trace)
    if observing:
        registry.reset()
        registry.enable()
        tracer.reset()
        if trace:
            tracer.enable()
    t0 = time.perf_counter()
    try:
        try:
            with span(args.command):
                rc = args.func(args)
        except AbortRun as exc:
            # interrupted mid-run; completed tiles were checkpointed
            print(f"run aborted: {exc}", file=sys.stderr)
            print("completed tiles are checkpointed; rerun with --resume",
                  file=sys.stderr)
            rc = 3
        if trace:
            print(tracer.render())
        if metrics_out:
            from repro.obs import sample_peak_rss

            # one whole-process high-water mark per manifest: this is
            # the number the out-of-core path is judged by
            sample_peak_rss(registry)
            manifest = RunManifest.collect(
                command=args.command,
                argv=list(argv) if argv is not None else sys.argv[1:],
                args=vars(args),
                registry=registry,
                tracer=tracer,
                elapsed_seconds=time.perf_counter() - t0,
                workers=resolve_jobs(args.jobs) if hasattr(args, "jobs") else 1,
            )
            manifest.write(metrics_out)
            print(f"metrics -> {metrics_out}")
    finally:
        if observing:
            # main() is re-entrant (tests call it repeatedly): leave the
            # process-wide registry/tracer the way we found them
            tracer.disable()
            tracer.reset()
            registry.disable()
            registry.reset()
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
