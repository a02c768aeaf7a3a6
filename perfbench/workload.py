"""One workload run, in a fresh interpreter.

``run.py`` starts this script once per run (twice for a traced run) and
reads the JSON it writes to ``--out``.  The three workloads drive the
program only through ``repro.api`` and the ``repro serve`` daemon:

* ``chip-signoff``: batch ``read_gds`` -> scan, then ``read_gds`` -> DRC
  of a seeded logic block with seeded DRC violations;
* ``edit-churn``: closed-loop one-shape edits against ``repro serve``,
  each followed by a waiting scan or DRC request;
* ``lib-matrix``: the standard-cell compliance matrix over three nodes.

Every output is checked outside the timed region; a mismatch counts as a
failed operation.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

from repro import api, make_node, read_gds, write_gds
from repro.litho import LithoModel, ProcessWindow
from repro.litho.process import ProcessCondition
from repro.obs import get_registry, get_tracer
from repro.parallel import tile_grid
from repro.geometry import Rect, Region
from repro.service import DaemonUnreachableError, ResultStore, SocketClient

import inputs
import layers
from inputs import OVERLAP_NM, SIZES, EditStream, Size
from layers import Counters, LithoWindow
from metrics import END_TO_END, PER_LAYER
from spans import SpanRecorder

JOBS = 2
SETUP_REPEATS = 3
MIN_PASSES = 3
# the churn runs until --seconds have passed and it has made the size's
# minimum number of requests, but never longer than this
CHURN_CAP_S = 60.0
DEFAULT_SEED = 1
EXPECTED = Path(__file__).with_name("expected.json")


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] if ordered else 0.0


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def peak_rss_mb() -> float:
    """The larger ``ru_maxrss`` of this process and its reaped children."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024.0


def import_seconds() -> float:
    """Spawn to ready of a fresh interpreter that imports ``repro``."""
    code = "import repro, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"import repro failed (exit {proc.returncode})")
    return seconds


class Run:
    """State of one workload run: arguments, accounting and results."""

    def __init__(self, args: argparse.Namespace):
        self.seed: int = args.seed
        self.seconds: float = args.seconds
        self.trace: bool = bool(args.trace)
        self.size: Size = SIZES[args.size]
        self.min_requests = self.size.churn_min_requests // (2 if args.paired else 1)
        self.workdir = Path(args.workdir)
        self.spans = SpanRecorder(self.trace)
        self.tech = make_node(45)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.e2e: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.info: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def op(self, label: str, fn: Callable[[], Any]) -> Any:
        """Run one operation, counting it; a raise counts as a failure
        and returns None."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # any failure of the program under test
            self.fail(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def check(self, ok: bool, message: str) -> None:
        """An output check of an operation already counted."""
        if not ok:
            self.fail(message)

    def observe(self) -> None:
        """Turn on the program's registry and tracer for a traced run."""
        if self.trace:
            get_registry().reset()
            get_registry().enable()
            get_tracer().reset()
            get_tracer().enable()

    def snapshot(self) -> Counters:
        """The registry so far; stops recording so later probes stay out."""
        snap = Counters(get_registry().snapshot())
        get_registry().disable()
        get_tracer().disable()
        return snap

    def finish_trace(self, root: str) -> None:
        uncovered, share = self.spans.unaccounted(root)
        self.layers["unaccounted_s"] = uncovered
        self.layers["unaccounted_share"] = share
        self.layers["parallel.spawn_s"] = layers.spawn_seconds(JOBS)
        self.spans.write(str(self.workdir / "spans.json"))


def expected_digests(workload: str) -> dict[str, str] | None:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh).get(workload)


def scan_windows(tech: Any, cell: Any, tile_nm: int, which: set[int] | None = None):
    """Replay windows for the M1 scan tiles of ``cell`` (all, or the
    indices in ``which``)."""
    m1 = tech.layers.metal1
    model = LithoModel(tech.litho)
    corners = tuple(ProcessWindow().corners())
    g = model.settings.grid_nm
    halo = -(-max(model.halo_nm(c.defocus_nm) for c in corners) // g) * g
    for tile in tile_grid(cell.region(m1).bbox, tile_nm, OVERLAP_NM):
        if which is None or tile.index in which:
            drawn = cell.region(m1, tile.window.expanded(halo))
            yield LithoWindow(model, drawn, tile.window, corners, tech.metal_width // 2)


# -- chip-signoff -------------------------------------------------------
def chip_signoff(run: Run) -> None:
    size, tech = run.size, run.tech
    m1, deck = tech.layers.metal1, tech.rules.minimum()
    tile, pinch = size.signoff_tile_nm, tech.metal_width // 2
    run.e2e["setup_s"] = median([import_seconds() for _ in range(SETUP_REPEATS)])

    layout = inputs.logic_block(tech, size.signoff_rows, size.signoff_width_nm, run.seed)
    inputs.add_violations(tech, layout, size.violations, run.seed)
    gds = str(run.workdir / "block.gds")
    write_gds(layout, gds)

    spans = run.spans

    def scan_half(jobs: int):
        t0 = time.perf_counter()
        with spans.span("gdsii.read_gds"):
            cell = read_gds(gds).top_cells()[0]
        t1 = time.perf_counter()
        with spans.span("layout.region"):
            region = cell.region(m1)
        t2 = time.perf_counter()
        with spans.span("litho.scan_full_chip"):
            report = api.scan_full_chip(tech, region, tile_nm=tile, pinch_limit=pinch, jobs=jobs)
        t3 = time.perf_counter()
        return report, t1 - t0, t2 - t1, t3 - t0

    def drc_half(jobs: int):
        t0 = time.perf_counter()
        with spans.span("gdsii.read_gds"):
            cell = read_gds(gds).top_cells()[0]
        t1 = time.perf_counter()
        with spans.span("drc.run_drc"):
            report = api.run_drc(cell, deck, jobs=jobs, tile_nm=tile)
        t2 = time.perf_counter()
        return report, t1 - t0, t2 - t0

    # the jobs=1 reference every pass must match
    ref_scan = run.op("reference scan", lambda: scan_half(1))
    ref_drc = run.op("reference drc", lambda: drc_half(1))
    if ref_scan is None or ref_drc is None:
        raise RuntimeError("reference pass failed: " + "; ".join(run.problems))
    want_hot = digest([str(h) for h in ref_scan[0].hotspots])
    want_drc = digest([str(v) for v in ref_drc[0].violations])
    run.check(bool(ref_drc[0].violations), "reference DRC found no violations")
    pinned = expected_digests("chip-signoff")
    if run.seed == DEFAULT_SEED and size.name == "full" and pinned:
        run.check(pinned["hotspots"] == want_hot, "hotspots differ from the pinned digest")
        run.check(pinned["violations"] == want_drc, "violations differ from the pinned digest")

    run.observe()
    passes: list[tuple] = []
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < run.seconds or len(passes) < MIN_PASSES:
        with spans.root("pass"):
            scan = run.op("scan", lambda: scan_half(JOBS))
            drc = run.op("drc", lambda: drc_half(JOBS))
        if scan is None or drc is None:
            continue
        srep, drep = scan[0], drc[0]
        run.check(not srep.quarantined and not drep.quarantined, "tiles quarantined")
        run.check(digest([str(h) for h in srep.hotspots]) == want_hot, "scan differs from jobs=1")
        run.check(digest([str(v) for v in drep.violations]) == want_drc, "DRC differs from jobs=1")
        passes.append((scan, drc))
    if not passes:
        raise RuntimeError("no pass completed: " + "; ".join(run.problems))

    scan_tiles = passes[0][0][0].tiles
    drc_tiles = passes[0][1][0].tiles
    scan_s = [s[3] for s, _ in passes]
    drc_s = [d[2] for _, d in passes]
    pass_s = median([a + b for a, b in zip(scan_s, drc_s)])
    run.e2e["throughput_per_s"] = (scan_tiles + drc_tiles) / pass_s
    run.e2e["p50_ms"] = pass_s * 1000.0
    bbox = read_gds(gds).top_cells()[0].bbox
    run.info += [
        f"block: {bbox.width} x {bbox.height} nm, {scan_tiles} scan tiles and "
        f"{drc_tiles} DRC tiles of {tile} nm, {len(passes)} passes",
        f"scan_tiles_per_s: {scan_tiles / median(scan_s):.4f} 1/s",
        f"drc_tiles_per_s: {drc_tiles / median(drc_s):.4f} 1/s",
        f"hotspots: {len(ref_scan[0].hotspots)} (sha256 {want_hot}), "
        f"violations: {len(ref_drc[0].violations)} (sha256 {want_drc})",
    ]
    if not run.trace:
        return

    snap = run.snapshot()
    n = len(passes)
    lay = run.layers
    lay.update(layers.stage_metrics(snap, n, n))
    lay.update(layers.scan_parallel_metrics(snap, JOBS))
    lay["gdsii.read_s"] = median([s[1] + d[1] for s, d in passes])
    lay["layout.flatten_s"] = median([s[2] for s, _ in passes])
    lay["scan.tile_busy_s"] = median([s[0].compute_s for s, _ in passes])
    lay["drc.task_busy_s"] = median([d[0].compute_s for _, d in passes])
    lay["drc.violations"] = float(len(ref_drc[0].violations))
    cell = read_gds(gds).top_cells()[0]
    lay.update(layers.litho_replay(scan_windows(tech, cell, tile)))
    lay.update(layers.drc_kind_seconds(cell, deck, JOBS, tile))
    run.finish_trace("pass")


# -- edit-churn ---------------------------------------------------------
class Daemon:
    """A ``repro serve`` child: spawned, timed to its first ping reply,
    and stopped through the ``shutdown`` op."""

    def __init__(self, workdir: Path, name: str, metrics_out: Path | None):
        self.state = workdir / f"{name}.state.json"
        self.metrics_out = metrics_out
        cmd = [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--jobs", str(JOBS), "--state-file", str(self.state),
        ]
        if metrics_out is not None:
            cmd += ["--metrics-out", str(metrics_out)]
        self._log = open(workdir / f"{name}.log", "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=workdir, stdout=self._log, stderr=subprocess.STDOUT
        )
        self.client = self._connect(deadline=t0 + 60.0)
        self.ready_s = time.perf_counter() - t0

    def _connect(self, deadline: float) -> SocketClient:
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                break
            if self.state.exists():
                try:
                    client = SocketClient.from_state_file(path=str(self.state))
                    client.connect()
                    client.ping()
                    return client
                except DaemonUnreachableError:
                    pass
            time.sleep(0.002)
        self.stop()
        raise RuntimeError(f"daemon {self.state.name} did not become ready")

    def stop(self) -> None:
        client = getattr(self, "client", None)
        if client is None:  # never became ready: nothing to ask
            self.proc.kill()
        elif self.proc.poll() is None:
            try:
                client.shutdown()
            except DaemonUnreachableError:
                pass
            client.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("daemon ignored the shutdown op") from None
        finally:
            self._log.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"daemon exited {self.proc.returncode}")

    def counters(self) -> Counters:
        with open(self.metrics_out, encoding="utf-8") as fh:
            return Counters(json.load(fh))


def edit_churn(run: Run) -> None:
    size, tech = run.size, run.tech
    m1, deck = tech.layers.metal1, tech.rules.minimum()
    tile = size.churn_tile_nm
    layout = inputs.logic_block(tech, size.churn_rows, size.churn_width_nm, run.seed)
    stream = EditStream(tech, layout, tile, run.seed)
    gds = str(run.workdir / "churn.gds")
    write_gds(layout, gds)
    params = {"gds": gds, "tile": tile}

    def request(client: SocketClient, kind: str, extra: dict | None = None) -> dict:
        job = client.submit(kind, dict(params, **(extra or {})), wait=True)
        run.check(job.get("state") == "done", f"{kind} job ended {job.get('state')}: {job.get('error')}")
        result = job.get("result") or {}
        run.check(result.get("quarantined", 0) == 0, f"{kind} job quarantined tiles")
        return job

    def cold_fill(daemon: Daemon) -> float:
        t0 = time.perf_counter()
        for kind in ("scan", "drc"):
            run.op(f"cold {kind}", lambda: request(daemon.client, kind))
        return time.perf_counter() - t0

    # set-up: spawn to first ping, several times; the last daemon serves.
    # A traced run's first daemon also does the cold fill alone, so its
    # manifest can be subtracted from the serving daemon's.
    ready, baseline = [], None
    for i in range(SETUP_REPEATS):
        last = i == SETUP_REPEATS - 1
        out = run.workdir / f"daemon-{i}.json" if run.trace and (i == 0 or last) else None
        daemon = Daemon(run.workdir, f"daemon-{i}", out)
        ready.append(daemon.ready_s)
        if last:
            break
        if out is not None:
            cold_fill(daemon)
        daemon.stop()
        if out is not None:
            baseline = daemon.counters()
    run.e2e["setup_s"] = median(ready)

    client = daemon.client
    cold_fill_s = cold_fill(daemon)
    before = client.metrics()["store"]
    kinds = inputs.request_kinds(run.seed)
    records: list[dict] = []
    reads: list[tuple[float, float]] = []
    spans = run.spans
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        enough = elapsed >= run.seconds and len(records) >= run.min_requests
        if enough or elapsed >= CHURN_CAP_S:
            break
        kind = next(kinds)
        with spans.root("request"):
            stream.next()
            with spans.span("gdsii.write_gds"):
                write_gds(layout, gds)
            with spans.span("service.submit"):
                t0 = time.perf_counter()
                job = run.op(kind, lambda: request(client, kind))
                rtt = time.perf_counter() - t0
        if job is None or job.get("state") != "done":
            continue
        records.append({"kind": kind, "rtt": rtt, "job": job})
        if run.trace:
            t0 = time.perf_counter()
            cell = read_gds(gds).top_cells()[0]
            t1 = time.perf_counter()
            cell.region(m1)
            reads.append((t1 - t0, time.perf_counter() - t1))
    after = client.metrics()["store"]

    # the daemon's verdict on the final layout against a fresh jobs=1 run
    final = {
        kind: run.op(f"final {kind}", lambda: request(client, kind, {"limit": 10**9}))
        for kind in ("scan", "drc")
    }
    cell = read_gds(gds).top_cells()[0]
    ref_scan = api.scan_full_chip(
        tech, cell.region(m1), tile_nm=tile, pinch_limit=tech.metal_width // 2, jobs=1
    )
    ref_drc = api.run_drc(cell, deck, jobs=1, tile_nm=tile)
    for kind, ref in (("scan", ref_scan.hotspots), ("drc", ref_drc.violations)):
        result = (final[kind] or {}).get("result") or {}
        run.check(
            result.get("findings") == len(ref) and result.get("listing") == [str(f) for f in ref],
            f"daemon {kind} of the final layout differs from an in-process jobs=1 run",
        )
    daemon.stop()
    if not records:
        raise RuntimeError("no request completed: " + "; ".join(run.problems))

    rtts = [r["rtt"] for r in records]
    by_kind = {k: [r["rtt"] for r in records if r["kind"] == k] for k in ("scan", "drc")}
    results = [r["job"]["result"] for r in records]
    reuse = median([res["tiles_cached"] / res["tiles"] for res in results])
    scan_tiles = next(r["job"]["result"]["tiles"] for r in records if r["kind"] == "scan")
    run.e2e["throughput_per_s"] = len(rtts) / sum(rtts)
    run.e2e["p50_ms"] = median(rtts) * 1000.0
    run.info += [
        f"block: {stream.top.bbox.width} x {stream.top.bbox.height} nm, "
        f"{scan_tiles} scan tiles of {tile} nm, {len(stream.tiles)} editable",
        f"churn_scan_p50_ms: {median(by_kind['scan']) * 1000:.4f} ms "
        f"(n={len(by_kind['scan'])})",
        f"churn_drc_p50_ms: {median(by_kind['drc']) * 1000:.4f} ms "
        f"(n={len(by_kind['drc'])})",
        f"churn_p90_ms: {nearest_rank(rtts, 0.9) * 1000:.4f} ms (n={len(rtts)})",
        f"tiles reused per request (median share): {reuse:.4f}",
    ]
    if not run.trace:
        return

    served = daemon.counters()
    delta = served.minus(baseline) if baseline is not None else served
    scan_runs, drc_runs = delta.count("scan.runs"), delta.count("drc.runs")
    lay = run.layers
    lay.update(layers.stage_metrics(delta, scan_runs, drc_runs))
    lay.update(layers.scan_parallel_metrics(delta, JOBS))
    lay["scan.tile_busy_s"] = delta.total("scan.tile") / scan_runs if scan_runs else 0.0
    lay["drc.task_busy_s"] = delta.total("drc.task") / drc_runs if drc_runs else 0.0
    lay["drc.violations"] = float(len(ref_drc.violations))
    lay["gdsii.read_s"] = median([r for r, _ in reads])
    lay["layout.flatten_s"] = median([f for _, f in reads])
    waits = [r["job"]["wait_s"] for r in records]
    services = [r["job"]["service_s"] for r in records]
    lay["service.rtt_ms"] = median(rtts) * 1000.0
    lay["service.wait_ms"] = median(waits) * 1000.0
    lay["service.service_ms"] = median(services) * 1000.0
    lay["service.wire_ms"] = median([r - w - s for r, w, s in zip(rtts, waits, services)]) * 1000.0
    lay["service.tiles_computed"] = statistics.mean(res["tiles_computed"] for res in results)
    lay["service.tile_reuse_share"] = reuse
    hits, misses = after["hits"] - before["hits"], after["misses"] - before["misses"]
    lay["service.store_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    lay["service.sessions_reloaded"] = float(delta.count("service.sessions_reloaded"))
    lay["service.cold_fill_s"] = cold_fill_s
    edited = {e.tile for e in stream.seen}
    lay.update(layers.litho_replay(scan_windows(tech, cell, tile, edited)))
    lay.update(layers.drc_kind_seconds(cell, deck, JOBS, tile))
    run.finish_trace("request")


# -- lib-matrix ---------------------------------------------------------
def lib_matrix(run: Run) -> None:
    from repro.matrix import MatrixSpec, enumerate_scenarios, payload_for_nodes, run_scenario_check

    size = run.size
    run.e2e["setup_s"] = median([import_seconds() for _ in range(SETUP_REPEATS)])
    spec = dict(
        nodes=size.matrix_nodes,
        cells=size.matrix_cells,
        corners=size.matrix_corners,
        checks=("litho", "dpt"),
    )
    spans = run.spans

    def matrix_pass():
        t0 = time.perf_counter()
        with spans.span("matrix.run_compliance_matrix"):
            report = api.run_compliance_matrix(**spec, jobs=JOBS, store=ResultStore())
        return report, time.perf_counter() - t0

    def canonical(report) -> str:
        data = report.to_dict()
        data.pop("elapsed_s")
        return json.dumps(data, sort_keys=True)

    run.observe()
    passes: list[tuple] = []
    first: str | None = None
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < run.seconds or len(passes) < MIN_PASSES:
        with spans.root("pass"):
            done = run.op("matrix", matrix_pass)
        if done is None:
            continue
        text = canonical(done[0])
        first = first or text
        run.check(text == first, "matrix report differs between passes")
        passes.append(done)
    if not passes:
        raise RuntimeError("no pass completed: " + "; ".join(run.problems))
    pinned = expected_digests("lib-matrix")
    if size.name == "full" and pinned:
        run.check(pinned["report"] == digest([first]), "matrix report differs from the pinned digest")

    report = passes[0][0]
    pass_s = median([s for _, s in passes])
    run.e2e["throughput_per_s"] = report.scenario_count / pass_s
    run.e2e["p50_ms"] = pass_s * 1000.0
    dedup = report.deduped / report.scenario_count
    run.info += [
        f"matrix: {report.scenario_count} scenarios, {report.unique_windows} unique windows, "
        f"{len(passes)} passes (seed {run.seed} is recorded; the library is fixed)",
        f"matrix_scenarios_per_s: {report.scenario_count / pass_s:.4f} 1/s",
        f"deduplicated share: {dedup:.4f}, store hit rate: {report.store['hit_rate']:.4f}",
        f"report sha256 {digest([first])}",
    ]
    if not run.trace:
        return

    snap = run.snapshot()
    n = len(passes)
    lay = run.layers
    lay["sim.raster_reuse"] = snap.count("sim.raster_reuse") / n
    lay["sim.blur_unique"] = snap.count("sim.blur_unique") / n
    lay["parallel.payload_bytes"] = snap.gauge("pool.payload_bytes")
    lay["parallel.retries"] = float(snap.count("pool.retries"))
    lay["dpt.conflict_graph_s"] = snap.total("dpt.conflict_graph") / n
    lay["dpt.decompose_s"] = snap.total("dpt.decompose") / n
    matrix_spec = MatrixSpec(**spec)
    enumerate_s = []
    for _ in range(3):
        t0 = time.perf_counter()
        scenarios = enumerate_scenarios(matrix_spec)
        enumerate_s.append(time.perf_counter() - t0)
    lay["matrix.enumerate_s"] = median(enumerate_s)
    lay["matrix.execute_s"] = pass_s - lay["matrix.enumerate_s"]
    lay["matrix.store_hit_rate"] = float(report.store["hit_rate"])
    lay["matrix.windows_unique"] = float(report.unique_windows)
    lay["matrix.dedup_share"] = dedup

    unique = list({s.key: s for s in scenarios}.values())
    payload = payload_for_nodes(tuple(size.matrix_nodes))
    busy = []
    for scenario in unique:
        t0 = time.perf_counter()
        run_scenario_check(payload, scenario.item())
        busy.append(time.perf_counter() - t0)
    lay["parallel.busy_ratio"] = sum(busy) / (JOBS * lay["matrix.execute_s"])
    lay["parallel.tail_ratio"] = max(busy) / statistics.mean(busy)
    models: dict[int, LithoModel] = {}
    windows = []
    for s in unique:
        if s.check != "litho":
            continue
        litho, pinch, _ = payload.params_for(s.node)
        model = models.setdefault(s.node, LithoModel(litho))
        drawn = Region([Rect(*r) for r in s.rects])
        window = Rect(0, 0, s.window_w, s.window_h)
        windows.append(LithoWindow(model, drawn, window, (ProcessCondition(*s.corner),), pinch))
    lay.update(layers.litho_replay(windows))
    run.finish_trace("pass")


WORKLOADS: dict[str, Callable[[Run], None]] = {
    "chip-signoff": chip_signoff,
    "edit-churn": edit_churn,
    "lib-matrix": lib_matrix,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument(
        "--paired", action="store_true",
        help="one of the two runs of a traced run: the churn makes half its "
        "minimum requests, so that both runs fit the time limit",
    )
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    run = Run(args)
    WORKLOADS[args.workload](run)
    run.e2e["peak_rss_mb"] = peak_rss_mb()
    if run.trace:
        for name in PER_LAYER:
            run.layers.setdefault(name, 0.0)
    result = {
        "e2e": {k: run.e2e[k] for k in END_TO_END},
        "layers": run.layers,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "info": run.info,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
