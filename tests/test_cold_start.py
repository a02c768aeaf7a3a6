"""Cold start: ``import repro`` and the daemon load no engine dependency.

The top-level package resolves its exports on first access, and the CLI
and the service import the engines inside the handlers that run them.
So a fresh ``import repro``, ``repro submit`` and ``repro serve`` up to
its first reply load none of numpy, scipy or networkx.  The engine
modules keep their heavy imports at module level: a parent that has
called an engine holds them before its pool forks, and its workers
inherit them.

Every check runs in a fresh interpreter, since this one has long since
imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import Any

import pytest

from repro.gdsii import read_gds, write_gds
from repro.geometry import Rect

REPO_ROOT = Path(__file__).resolve().parent.parent

HEAVY = ("numpy", "scipy", "networkx")


def _fresh(code: str, *args: str) -> Any:
    """Run ``code`` in a fresh interpreter; its last output line is JSON."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "module", ["repro", "repro.cli", "repro.service.daemon", "repro.service.client"]
)
def test_start_up_paths_load_no_engine_dependency(module):
    loaded = _fresh(
        f"""
        import json, sys
        import {module}
        print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))
        """
    )
    assert loaded == []


def test_exports_resolve_to_their_defining_objects():
    out = _fresh(
        """
        import importlib, json
        import repro

        wrong = []
        for name in repro.__all__:
            home = importlib.import_module(repro._LAZY[name])
            want = home if home.__name__ == f"repro.{name}" else getattr(home, name)
            if getattr(repro, name) is not want:
                wrong.append(name)
        print(json.dumps(wrong))
        """
    )
    assert out == []


def test_dir_lists_every_export_before_first_access():
    out = _fresh(
        """
        import json
        import repro

        listed = set(dir(repro))
        print(json.dumps({
            "missing": [n for n in repro.__all__ if n not in listed],
            "unique": len(set(repro.__all__)) == len(repro.__all__),
        }))
        """
    )
    assert out == {"missing": [], "unique": True}


def test_star_import_binds_every_name():
    out = _fresh(
        """
        import json
        import repro

        scope = {}
        exec("from repro import *", scope)
        print(json.dumps([n for n in repro.__all__ if n not in scope]))
        """
    )
    assert out == []


def test_unknown_attribute_names_the_module():
    out = _fresh(
        """
        import json
        import repro

        try:
            repro.no_such_name
        except AttributeError as exc:
            print(json.dumps(str(exc)))
        """
    )
    assert "'repro'" in out and "no_such_name" in out


def test_engines_import_their_dependencies_eagerly():
    """Pooled workers inherit what the parent holds when the pool forks,
    so the engine modules must not defer their own heavy imports."""
    probe = """
        import json, sys
        import {module}
        print(json.dumps(sorted(
            m for m in ("scipy.ndimage", "networkx") if m in sys.modules
        )))
    """
    assert _fresh(probe.format(module="repro.litho.fullchip")) == ["scipy.ndimage"]
    assert _fresh(probe.format(module="repro.matrix.engine")) == [
        "networkx",
        "scipy.ndimage",
    ]


def test_daemon_answers_before_engines_load_and_matches_oneshot(
    tmp_path, small_block, tech45
):
    """In-process one-shot (jobs=1) and the daemon (jobs=2), both in a
    fresh interpreter whose daemon pinged before any engine loaded."""
    gds = str(tmp_path / "block.gds")
    write_gds(small_block.layout, gds)
    # the block is DRC-clean: add one isolated sub-minimum-width sliver
    layout = read_gds(gds)
    w, box = tech45.metal_width, layout.top_cell().bbox
    sliver = Rect(box.x0, box.y0 - 10 * w, box.x0 + 6 * w, box.y0 - 10 * w + w // 2)
    layout.top_cell().add_rect(tech45.layers.metal1, sliver)
    write_gds(layout, gds)
    out = _fresh(
        """
        import json, sys, threading
        from repro.service import ServiceDaemon, SocketClient, VerificationService

        gds, tile = sys.argv[1], 2000
        daemon = ServiceDaemon(VerificationService(jobs=2), port=0)
        thread = threading.Thread(target=daemon.serve_until_shutdown, daemon=True)
        thread.start()
        host, port = daemon.address
        with SocketClient(host, port) as client:
            pong = client.ping()["pong"]
            scipy_at_ping = "scipy" in sys.modules
            served = {
                kind: client.submit(kind, {"gds": gds, "tile": tile, "limit": 10**6})
                for kind in ("scan", "drc")
            }
            client.shutdown()
        thread.join(timeout=60)

        from repro import api
        from repro.gdsii import read_gds
        from repro.tech import make_node

        tech = make_node(45)
        cell = read_gds(gds).top_cell()
        scan = api.scan_full_chip(
            tech, cell.region(tech.layers.metal1), tile_nm=tile,
            pinch_limit=tech.metal_width // 2, jobs=1,
        )
        drc = api.run_drc(cell, tech.rules.minimum(), jobs=1, tile_nm=tile)
        print(json.dumps({
            "pong": pong,
            "scipy_at_ping": scipy_at_ping,
            "ndimage_after_jobs": "scipy.ndimage" in sys.modules,
            "states": [job["state"] for job in served.values()],
            "served": {k: job["result"]["listing"] for k, job in served.items()},
            "oneshot": {
                "scan": [str(h) for h in scan.hotspots],
                "drc": [str(v) for v in drc.violations],
            },
        }))
        """,
        gds,
    )
    assert out["pong"] is True
    assert out["scipy_at_ping"] is False
    assert out["ndimage_after_jobs"] is True
    assert out["states"] == ["done", "done"]
    assert out["oneshot"]["scan"] and out["oneshot"]["drc"]
    assert out["served"] == out["oneshot"]
