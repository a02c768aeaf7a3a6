"""Repository benchmark: three seeded workloads, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload chip-signoff --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload twice, untraced and then traced, and prints the per-layer
metrics plus the tracing overhead of each end-to-end metric.  Each run
happens in a fresh interpreter started in its own session; afterwards
this script checks that no process of that session and no new
``/dev/shm`` segment is left behind.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, OVERHEAD_PREFIX, PER_LAYER  # noqa: E402

WORKLOADS = ("chip-signoff", "edit-churn", "lib-matrix")
# every run must end within this, whatever --seconds asks for
DEADLINE_S = 170.0
SHM = Path("/dev/shm")
# how long a workload's helper processes may take to exit after it
ORPHAN_GRACE_S = 5.0


def _shm_entries() -> set[str]:
    return set(os.listdir(SHM)) if SHM.is_dir() else set()


def _session_pids(sid: int) -> list[int]:
    """Live processes whose session id is ``sid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                stat = fh.read()
        except OSError:
            continue
        # fields after the parenthesised command: state ppid pgrp session ...
        fields = stat.rsplit(")", 1)[1].split()
        if fields[0] != "Z" and int(fields[3]) == sid:
            pids.append(int(entry))
    return pids


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read().replace(b"\0", b" ").decode(errors="replace").strip()
    except OSError:
        return "?"


def _reap_session(sid: int, grace_s: float) -> list[str]:
    """Wait up to ``grace_s`` for session ``sid`` to empty (a helper such
    as multiprocessing's resource tracker exits on its own shortly after
    its parent), then kill what is left and wait until it is gone.
    Returns a description of each process that had to be killed."""
    deadline = time.monotonic() + grace_s
    while _session_pids(sid) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = _session_pids(sid)
    described = [f"{pid} ({_cmdline(pid)})" for pid in left]
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 10.0
    while _session_pids(sid) and time.monotonic() < deadline:
        time.sleep(0.05)
    return described


def run_child(args: argparse.Namespace, trace: int, workdir: Path, budget: float) -> dict:
    """One workload run in a fresh interpreter; returns its result with
    the hygiene problems found after it added."""
    out = workdir / f"result-trace{trace}.json"
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--size", args.size, "--workdir", str(workdir), "--out", str(out),
    ]
    if args.trace:
        cmd.append("--paired")
    shm_before = _shm_entries()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        proc.wait(timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        _reap_session(proc.pid, 0.0)
        raise SystemExit(f"{args.workload}: run exceeded {budget:.0f} s") from None
    left = _reap_session(proc.pid, ORPHAN_GRACE_S)
    if proc.returncode != 0 or not out.exists():
        raise SystemExit(f"{args.workload}: workload process exited {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    if left:
        result["failed"] += 1
        result["problems"].append(f"orphan processes left behind: {left}")
    new_shm = sorted(_shm_entries() - shm_before)
    if new_shm:
        result["failed"] += 1
        result["problems"].append(f"/dev/shm segments left behind: {new_shm}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input size; 'tiny' is for the smoke test only",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    runs_dir = ROOT / ".perfbench_run"
    workdir = runs_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        results = [run_child(args, 0, workdir, DEADLINE_S / (1 + args.trace))]
        if args.trace:
            budget = DEADLINE_S - (time.monotonic() - started)
            results.append(run_child(args, 1, workdir, budget))
    finally:
        # keep the spans and daemon manifests, drop the layouts
        for gds in workdir.glob("*.gds"):
            gds.unlink()

    plain = results[0]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if args.trace:
        traced = results[1]
        values = {name: traced["layers"][name] for name in PER_LAYER if name in traced["layers"]}
        for name in END_TO_END:
            values[OVERHEAD_PREFIX + name] = traced["e2e"][name] - plain["e2e"][name]
        units = PER_LAYER
    else:
        values = plain["e2e"]
        units = END_TO_END

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for line in plain["info"]:
        print(f"  {line}")
    print(f"  error_rate: {failed / attempted:.6f} ({failed} of {attempted} operations failed)")
    for result in results:
        for problem in result["problems"]:
            print(f"  FAILED: {problem}")
    for name, unit in units.items():
        print(f"  {name}: {values[name]:.6g} {unit}")
    print(f"  spans and manifests: {workdir.relative_to(ROOT)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
