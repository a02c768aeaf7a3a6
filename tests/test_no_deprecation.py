"""No engine path may touch the deprecated report aliases.

PR 4 kept ``is_clean`` / ``passed`` / ``*_seconds`` alive as warning
aliases for external callers; PR 8 swept the last internal call sites.
This test pins the sweep: importing the package and running every
engine must stay silent under ``-W error::DeprecationWarning``, so a
reintroduced alias use fails tier-1 instead of warning quietly.
"""

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path

from repro import api
from repro.matrix import MatrixSpec, enumerate_scenarios, run_matrix
from repro.service import ServiceClient, VerificationService

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_import_is_warning_free():
    """A subprocess import with DeprecationWarning promoted to an error:
    module-level alias use anywhere in the package would fail it."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [
            sys.executable,
            "-W",
            "error::DeprecationWarning",
            "-c",
            # the top-level names load lazily: resolve every one so each
            # engine module is imported under the warning filter
            "import repro, repro.api, repro.cli, repro.matrix, repro.service; "
            "[getattr(repro, name) for name in repro.__all__]",
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr


def test_engines_run_warning_free(tech45, small_block, tmp_path):
    """Every engine end to end with DeprecationWarning as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)

        drc = api.run_drc(small_block.top, tech45.rules)
        assert drc.to_dict()["report"]

        scan = api.scan_full_chip(
            tech45, small_block.top.region(tech45.layers.metal1), tile_nm=4000
        )
        assert scan.to_dict()["report"]

        result, stitches = api.decompose(
            small_block.top.region(tech45.layers.metal1),
            2 * tech45.metal_space,
        )
        assert result.to_dict()["report"]

        matrix = run_matrix(
            MatrixSpec(nodes=(45,), cells=("INV_X1",), corners=1)
        )
        assert matrix.to_dict()["report"]

        scenario = enumerate_scenarios(
            MatrixSpec(nodes=(45,), cells=("INV_X1",), corners=1, checks=("dpt",))
        )[0]
        with VerificationService(jobs=1) as service:
            events = list(
                ServiceClient(service).submit_batch(
                    [{"kind": "matrix", "params": scenario.item()}]
                )
            )
            assert events[0]["job"]["state"] == "done"
