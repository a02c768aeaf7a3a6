"""Distill a pytest-benchmark JSON into a compact perf snapshot.

Usage:
    python tools/bench_snapshot.py
    python tools/bench_snapshot.py --out BENCH_42.json
    python tools/bench_snapshot.py --from-json bench-fullchip.json --out BENCH_42.json

Without ``--from-json`` the tool runs the perf-tracked benches itself
(the full-chip scan bench and the verification-service churn bench) and
then distills the result.  The snapshot keeps one entry per bench —
wall time plus every ``extra_info`` scalar or flat numeric dict the
bench recorded (tiles/s, fast-path speedup, raster-reuse rate,
cache-key timings, engine counters, the A3z ``payload_bytes`` rows
guarding the constant-size payload path, and the S1 service p50/p99 and
store-hit-rate rows) — so the perf trajectory can be diffed run over
run without hauling the full pytest-benchmark payload around.

The output name is not fixed: ``--out`` wins, else ``$GITHUB_RUN_NUMBER``
derives ``BENCH_<run>.json`` (what CI uploads), else ``BENCH_local.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DEFAULT_BENCHES = (
    "benchmarks/bench_fullchip_scan.py",
    "benchmarks/bench_service.py",
    "benchmarks/bench_matrix.py",
)


def default_out() -> str:
    """Snapshot name for this run: numbered in CI, 'local' elsewhere."""
    run = os.environ.get("GITHUB_RUN_NUMBER", "").strip()
    return f"BENCH_{run}.json" if run else "BENCH_local.json"


def run_bench(benches: list[str], json_path: Path) -> None:
    cmd = [
        sys.executable,
        "-m",
        "pytest",
        *benches,
        "-q",
        "--benchmark-only",
        f"--benchmark-json={json_path}",
    ]
    env = {**os.environ, "PYTHONPATH": "src"}
    result = subprocess.run(cmd, cwd=REPO, env=env)
    if result.returncode != 0:
        raise SystemExit(f"bench run failed with exit code {result.returncode}")


def distill(raw: dict) -> dict:
    machine = raw.get("machine_info", {})
    snapshot = {
        "source": "pytest-benchmark",
        "python": machine.get("python_version"),
        "cpu_count": machine.get("cpu", {}).get("count") if isinstance(machine.get("cpu"), dict) else None,
        "benchmarks": {},
    }
    for bench in raw.get("benchmarks", []):
        entry = {"wall_s": round(bench["stats"]["mean"], 4)}
        for key, value in sorted(bench.get("extra_info", {}).items()):
            # keep scalars and flat counter dicts; drop anything deeper
            if isinstance(value, (int, float, str, bool)):
                entry[key] = value
            elif isinstance(value, dict) and all(
                isinstance(v, (int, float)) for v in value.values()
            ):
                entry[key] = value
        snapshot["benchmarks"][bench["name"]] = entry
    return snapshot


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=None,
        help="snapshot output path (default: BENCH_$GITHUB_RUN_NUMBER.json "
        "in CI, BENCH_local.json elsewhere)",
    )
    parser.add_argument(
        "--from-json",
        default=None,
        help="existing pytest-benchmark JSON to distill (skips running the bench)",
    )
    parser.add_argument(
        "--bench",
        action="append",
        default=None,
        help="bench file to run; repeatable "
        f"(default: {', '.join(DEFAULT_BENCHES)})",
    )
    args = parser.parse_args()

    if args.from_json:
        raw_path = Path(args.from_json)
    else:
        raw_path = Path(tempfile.mkdtemp()) / "bench.json"
        run_bench(args.bench or list(DEFAULT_BENCHES), raw_path)

    raw = json.loads(raw_path.read_text())
    snapshot = distill(raw)
    out = Path(args.out or default_out())
    out.write_text(json.dumps(snapshot, indent=2, sort_keys=False) + "\n")
    names = ", ".join(snapshot["benchmarks"]) or "none"
    print(f"wrote {out} ({names})")


if __name__ == "__main__":
    main()
