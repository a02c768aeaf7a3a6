"""S0/S1 (service) — cold start, then daemon latency and store reuse.

S0 is the cost a short tool invocation pays before any work: spawn to
ready of a fresh interpreter running ``import repro`` (lazy: no engine,
no numpy/scipy/networkx) and ``import repro.api`` (every engine), plus
the wall time of ``python -m repro submit ping`` against a warm daemon.
It gates only on an in-run ratio — the lazy import must cost at most
half the engine import — never on absolute seconds.

S1 is the churn loop below.

The service's claim is steady-state economics: with the layout resident,
the pool warm, and the result store shared, "verify the cell I just
edited" should cost the dirty tiles, not the chip.  This bench drives a
multi-client churn loop against one :class:`VerificationService` — edit
one wire in one tile, rewrite the GDSII, resubmit from a rotating
client — and measures per-request latency (p50/p99) and the store hit
rate across the edits.

Expected shape: every post-edit rescan recomputes only the edited
tile(s); the store hit rate on an 8x8-tile block stays well above 0.8,
and p50 latency sits far below the cold first scan.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.analysis import ExperimentRecord, Table
from repro.gdsii import write_gds
from repro.geometry import Rect
from repro.layout import Layer, Layout
from repro.service import (
    JobState,
    ServiceClient,
    ServiceDaemon,
    SocketClient,
    VerificationService,
)

from conftest import run_once

TILE_NM = 2000
GRID = 8  # 8x8 tile grid
CLIENTS = 3
ROUNDS = 8

M1 = Layer(10, 0, "M1")
WIRE_W = 120

SPAWNS = 5  # S0: fresh interpreters per measurement (median taken)
SRC = str(Path(__file__).resolve().parent.parent / "src")


def _spawn_to_ready_s(statement: str) -> float:
    """Median spawn-to-ready seconds of fresh interpreters running
    ``statement`` and then writing one line."""
    code = f"{statement}; import sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(SPAWNS):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, env=env)
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - t0)
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0 and line.strip() == b"ready"
    return statistics.median(samples)


def _submit_ping_s(state_file: str) -> float:
    """Median wall seconds of ``python -m repro submit ping``."""
    cmd = [sys.executable, "-m", "repro", "submit", "ping", "--state-file", state_file]
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(SPAWNS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, timeout=60)
        samples.append(time.perf_counter() - t0)
        assert proc.returncode == 0, proc.stderr
    return statistics.median(samples)


def _cold_start(state_file: str) -> dict[str, float]:
    daemon = ServiceDaemon(VerificationService(jobs=1), state_file=state_file)
    thread = threading.Thread(target=daemon.serve_until_shutdown, daemon=True)
    thread.start()
    try:
        SocketClient.from_state_file(path=state_file).ping()  # warm
        ping_s = _submit_ping_s(state_file)
    finally:
        SocketClient.from_state_file(path=state_file).shutdown()
        thread.join(timeout=60)
    return {
        "import_repro_s": _spawn_to_ready_s("import repro"),
        "import_repro_api_s": _spawn_to_ready_s("import repro.api"),
        "submit_ping_s": ping_s,
    }


def test_s0_cold_start(benchmark, tmp_path):
    row = run_once(benchmark, lambda: _cold_start(str(tmp_path / "svc.json")))
    ratio = row["import_repro_s"] / row["import_repro_api_s"]

    table = Table(f"S0: spawn to ready, median of {SPAWNS}", ["path", "seconds"])
    for name, seconds in row.items():
        table.add_row(name, seconds)
    print()
    print(table.render())

    for name, seconds in row.items():
        benchmark.extra_info[name] = round(seconds, 4)
    benchmark.extra_info["import_ratio"] = round(ratio, 4)

    record = ExperimentRecord(
        "S0", "import repro loads no engine: at most half the engine import"
    )
    record.record("import_ratio", ratio)
    record.record("submit_ping_s", row["submit_ping_s"])
    holds = ratio <= 0.5
    record.conclude(holds)
    print(record.render())
    assert holds


def _build_layout(edit_round: int) -> Layout:
    """A GRIDxGRID-tile block of tile-local wires, plus one extra wire
    whose position encodes ``edit_round`` — geometry stays >= 400 nm
    from every tile boundary so an edit dirties exactly one tile window.
    """
    lib = Layout("CHURN")
    cell = lib.new_cell("TOP")
    for ty in range(GRID):
        for tx in range(GRID):
            x0 = tx * TILE_NM + 400
            y0 = ty * TILE_NM + 400
            for i in range(3):
                y = y0 + i * 400
                cell.add_rect(M1, Rect(x0, y, x0 + 1000, y + WIRE_W))
    if edit_round:
        tx = edit_round % GRID
        ty = (edit_round * 3) % GRID
        x0 = tx * TILE_NM + 400
        y = ty * TILE_NM + 1600 + (edit_round % 4) * 40
        cell.add_rect(M1, Rect(x0, y, x0 + 800, y + WIRE_W))
    return lib


def _experiment(service: VerificationService, gds: str):
    clients = [ServiceClient(service, client=f"user{i}") for i in range(CLIENTS)]
    warm = clients[0].run("scan", {"gds": gds, "tile": TILE_NM})
    assert warm.state is JobState.DONE
    cold_ms = (warm.wait_s + warm.service_s) * 1000.0
    latencies, hit_rates = [], []
    for round_no in range(1, ROUNDS + 1):
        write_gds(_build_layout(round_no), gds)
        job = clients[round_no % CLIENTS].run("scan", {"gds": gds, "tile": TILE_NM})
        assert job.state is JobState.DONE
        latencies.append((job.wait_s + job.service_s) * 1000.0)
        hit_rates.append(job.result["tiles_cached"] / job.result["tiles"])
    return warm.result["tiles"], cold_ms, latencies, hit_rates


def test_s1_service_churn(benchmark, obs_registry, tmp_path):
    gds = str(tmp_path / "churn.gds")
    write_gds(_build_layout(0), gds)
    service = VerificationService(jobs=1)
    try:
        tiles, cold_ms, latencies, hit_rates = run_once(
            benchmark, lambda: _experiment(service, gds)
        )
        metrics = service.metrics()
    finally:
        service.close()

    table = Table(
        f"S1: {ROUNDS} one-tile edits, {CLIENTS} clients, {tiles} tiles",
        ["round", "latency ms", "store hit rate"],
    )
    for i, (ms, rate) in enumerate(zip(latencies, hit_rates), start=1):
        table.add_row(str(i), ms, rate)
    print()
    print(table.render())

    churn_hit_rate = sum(hit_rates) / len(hit_rates)
    p50 = metrics["latency_ms"]["p50"]
    p99 = metrics["latency_ms"]["p99"]
    benchmark.extra_info["tiles"] = tiles
    benchmark.extra_info["cold_ms"] = round(cold_ms, 3)
    benchmark.extra_info["p50_ms"] = p50
    benchmark.extra_info["p99_ms"] = p99
    benchmark.extra_info["store_hit_rate"] = round(churn_hit_rate, 4)
    benchmark.extra_info["store_lifetime_hit_rate"] = metrics["store"]["hit_rate"]

    record = ExperimentRecord(
        "S1", "resident service recomputes only the edited tile"
    )
    record.record("store_hit_rate", churn_hit_rate)
    record.record("p50_ms", p50)
    record.record("p99_ms", p99)
    holds = churn_hit_rate > 0.8 and metrics["jobs"]["failed"] == 0
    record.conclude(holds)
    print(record.render())
    assert holds
