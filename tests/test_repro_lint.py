"""Self-tests for ``tools.repro_lint``: every rule gets a violating
fixture, a clean twin, and a pragma-suppressed variant, plus the JSON
output schema and the meta-test that the repo's own tree lints clean."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT))

from tools.repro_lint import (  # noqa: E402
    PARSE_ERROR_ID,
    PROJECT_RULES,
    RULES,
    LintConfig,
    lint_paths,
    parse_pragmas,
)


def lint_source(tmp_path: Path, source: str, *, name: str = "mod.py", config=None):
    """Write ``source`` to a scratch file and lint it."""
    target = tmp_path / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    return lint_paths([target], config)


def rules_hit(result) -> set[str]:
    return {v.rule for v in result.violations}


# ---------------------------------------------------------------------------
# RL001 — integer-nm geometry


class TestRL001:
    def test_float_literal_into_ctor(self, tmp_path):
        result = lint_source(tmp_path, "r = Rect(0, 0, 10.5, 20)\n")
        assert rules_hit(result) == {"RL001"}

    def test_true_division_into_ctor(self, tmp_path):
        result = lint_source(tmp_path, "p = Point(w / 2, h // 2)\n")
        assert rules_hit(result) == {"RL001"}
        assert len(result.violations) == 1  # only the / argument

    def test_keyword_argument_checked(self, tmp_path):
        result = lint_source(tmp_path, "r = Rect(x0=0, y0=0, x1=w / 2, y1=h)\n")
        assert rules_hit(result) == {"RL001"}

    def test_taint_through_local(self, tmp_path):
        src = "def f(w):\n    half = w / 2\n    return Point(half, 0)\n"
        result = lint_source(tmp_path, src)
        assert rules_hit(result) == {"RL001"}

    def test_clean_floor_division_and_int(self, tmp_path):
        src = (
            "def f(w, h):\n"
            "    r = Rect(0, 0, w // 2, int(h / 2))\n"
            "    return Rect.from_center(Point(0, 0), w // 2, h // 2)\n"
        )
        result = lint_source(tmp_path, src)
        assert result.ok

    def test_float_ok_outside_geometry(self, tmp_path):
        result = lint_source(tmp_path, "score = hits / total\nx = 0.5 * score\n")
        assert result.ok

    def test_pragma_suppresses(self, tmp_path):
        src = "r = Rect(0, 0, 10.5, 20)  # repro-lint: disable=RL001\n"
        result = lint_source(tmp_path, src)
        assert result.ok


# ---------------------------------------------------------------------------
# RL002 — worker determinism (opt-in via the worker-code marker)

WORKER = "# repro-lint: worker-code\n"


class TestRL002:
    def test_wall_clock(self, tmp_path):
        result = lint_source(tmp_path, WORKER + "import time\nt = time.time()\n")
        assert rules_hit(result) == {"RL002"}

    def test_global_random(self, tmp_path):
        src = WORKER + "import random\nj = random.randint(0, 4)\n"
        result = lint_source(tmp_path, src)
        assert rules_hit(result) == {"RL002"}

    def test_from_import_random(self, tmp_path):
        src = WORKER + "from random import choice\nx = choice(items)\n"
        result = lint_source(tmp_path, src)
        assert rules_hit(result) == {"RL002"}

    def test_id_keyed_dict(self, tmp_path):
        src = WORKER + "cache = {id(obj): 1}\nv = table[id(obj)]\n"
        result = lint_source(tmp_path, src)
        assert len([v for v in result.violations if v.rule == "RL002"]) == 2

    def test_set_iteration(self, tmp_path):
        src = WORKER + "for x in {1, 2, 3}:\n    pass\n"
        result = lint_source(tmp_path, src)
        assert rules_hit(result) == {"RL002"}

    def test_clean_deterministic_worker(self, tmp_path):
        src = WORKER + (
            "import time, random\n"
            "def work(payload, item):\n"
            "    t0 = time.perf_counter()\n"
            "    rng = random.Random(1234)\n"
            "    for x in sorted({1, 2, 3}):\n"
            "        pass\n"
            "    return time.perf_counter() - t0\n"
        )
        result = lint_source(tmp_path, src)
        assert result.ok

    def test_not_worker_code_not_checked(self, tmp_path):
        result = lint_source(tmp_path, "import time\nt = time.time()\n")
        assert result.ok

    def test_worker_path_opts_in(self, tmp_path):
        src = "import time\nt = time.time()\n"
        result = lint_source(tmp_path, src, name="repro/parallel/w.py")
        assert rules_hit(result) == {"RL002"}

    def test_pragma_suppresses(self, tmp_path):
        src = WORKER + "import time\nt = time.time()  # repro-lint: disable=RL002\n"
        result = lint_source(tmp_path, src)
        assert result.ok


# ---------------------------------------------------------------------------
# RL003 — metric names from the registry

REGISTRY = (
    'POOL_CHUNKS = "pool.chunks"\n'
    'DYNAMIC_PREFIXES = ("drc.tasks.",)\n'
    "def drc_task(tag):\n"
    '    return f"drc.tasks.{tag}"\n'
)


def lint_with_registry(tmp_path: Path, source: str):
    (tmp_path / "repro" / "obs").mkdir(parents=True)
    (tmp_path / "repro" / "obs" / "names.py").write_text(REGISTRY)
    (tmp_path / "mod.py").write_text(source)
    return lint_paths([tmp_path])


class TestRL003:
    def test_registered_literal_flagged(self, tmp_path):
        result = lint_with_registry(tmp_path, 'registry.inc("pool.chunks")\n')
        assert rules_hit(result) == {"RL003"}
        assert "single source of truth" in result.violations[0].message

    def test_unregistered_literal_flagged(self, tmp_path):
        result = lint_with_registry(tmp_path, 'registry.inc("pool.chunkz")\n')
        assert rules_hit(result) == {"RL003"}
        assert "unregistered" in result.violations[0].message

    def test_fstring_flagged(self, tmp_path):
        result = lint_with_registry(tmp_path, 'registry.inc(f"drc.tasks.{tag}")\n')
        assert rules_hit(result) == {"RL003"}

    def test_unknown_names_attribute_flagged(self, tmp_path):
        result = lint_with_registry(tmp_path, "registry.inc(names.POOL_CHUNKZ)\n")
        assert rules_hit(result) == {"RL003"}

    def test_bad_import_flagged(self, tmp_path):
        src = "from repro.obs.names import POOL_CHUNKZ\n"
        result = lint_with_registry(tmp_path, src)
        assert rules_hit(result) == {"RL003"}

    def test_clean_constant_and_helper(self, tmp_path):
        src = (
            "from repro.obs.names import POOL_CHUNKS, drc_task\n"
            "registry.inc(names.POOL_CHUNKS)\n"
            "registry.inc(drc_task(tag))\n"
        )
        result = lint_with_registry(tmp_path, src)
        assert result.ok

    def test_read_side_also_checked(self, tmp_path):
        result = lint_with_registry(tmp_path, 'n = registry.counter("pool.chunks")\n')
        assert rules_hit(result) == {"RL003"}

    def test_non_registry_receiver_ignored(self, tmp_path):
        result = lint_with_registry(tmp_path, 'counterbox.inc("whatever")\n')
        assert result.ok

    def test_pragma_suppresses(self, tmp_path):
        src = 'registry.inc("pool.chunks")  # repro-lint: disable=RL003\n'
        result = lint_with_registry(tmp_path, src)
        assert result.ok


# ---------------------------------------------------------------------------
# RL004 — blanket except discipline


class TestRL004:
    def test_swallowed_exception_flagged(self, tmp_path):
        src = "try:\n    work()\nexcept Exception:\n    pass\n"
        result = lint_source(tmp_path, src)
        assert rules_hit(result) == {"RL004"}

    def test_bare_except_flagged(self, tmp_path):
        src = "try:\n    work()\nexcept:\n    pass\n"
        result = lint_source(tmp_path, src)
        assert rules_hit(result) == {"RL004"}

    def test_blanket_in_tuple_flagged(self, tmp_path):
        src = "try:\n    work()\nexcept (ValueError, Exception):\n    pass\n"
        result = lint_source(tmp_path, src)
        assert rules_hit(result) == {"RL004"}

    def test_reraise_is_clean(self, tmp_path):
        src = "try:\n    work()\nexcept Exception:\n    log()\n    raise\n"
        result = lint_source(tmp_path, src)
        assert result.ok

    def test_quarantine_routing_is_clean(self, tmp_path):
        src = "try:\n    work()\nexcept Exception as exc:\n    quarantine_tile(exc)\n"
        result = lint_source(tmp_path, src)
        assert result.ok

    def test_narrow_except_is_clean(self, tmp_path):
        src = "try:\n    work()\nexcept (OSError, ValueError):\n    pass\n"
        result = lint_source(tmp_path, src)
        assert result.ok

    def test_pragma_suppresses(self, tmp_path):
        src = (
            "try:\n"
            "    work()\n"
            "except Exception:  # repro-lint: disable=RL004\n"
            "    pass\n"
        )
        result = lint_source(tmp_path, src)
        assert result.ok


# ---------------------------------------------------------------------------
# RL005 — the BaseReport contract


class TestRL005:
    def test_report_without_base_flagged(self, tmp_path):
        src = "class FooReport:\n    pass\n"
        result = lint_source(tmp_path, src)
        assert rules_hit(result) == {"RL005"}

    def test_deprecated_member_flagged(self, tmp_path):
        src = (
            "class FooReport(BaseReport):\n"
            "    @property\n"
            "    def is_clean(self):\n"
            "        return True\n"
        )
        result = lint_source(tmp_path, src)
        assert rules_hit(result) == {"RL005"}

    def test_seconds_field_flagged(self, tmp_path):
        src = "class FooReport(BaseReport):\n    elapsed_seconds: float = 0.0\n"
        result = lint_source(tmp_path, src)
        assert rules_hit(result) == {"RL005"}

    def test_deprecated_read_flagged(self, tmp_path):
        result = lint_source(tmp_path, "if report.is_clean:\n    pass\n")
        assert rules_hit(result) == {"RL005"}

    def test_alias_definition_is_clean(self, tmp_path):
        src = (
            "class FooReport(BaseReport):\n"
            '    is_clean = deprecated_alias("is_clean", "ok")\n'
        )
        result = lint_source(tmp_path, src)
        assert result.ok

    def test_inheriting_report_is_clean(self, tmp_path):
        src = (
            "class FooReport(BaseReport):\n"
            "    elapsed_s: float = 0.0\n"
            "class RichFooReport(FooReport):\n"
            "    pass\n"
        )
        result = lint_source(tmp_path, src)
        assert result.ok

    def test_pragma_suppresses(self, tmp_path):
        src = "class FooReport:  # repro-lint: disable=RL005\n    pass\n"
        result = lint_source(tmp_path, src)
        assert result.ok


# ---------------------------------------------------------------------------
# RL006 — keyword-only public API (opt-in via the public-api marker)

PUBLIC = "# repro-lint: public-api\n"


class TestRL006:
    def test_positional_default_flagged(self, tmp_path):
        src = PUBLIC + "def run(cell, deck, jobs=1):\n    pass\n"
        result = lint_source(tmp_path, src)
        assert rules_hit(result) == {"RL006"}
        assert "jobs" in result.violations[0].message

    def test_keyword_only_is_clean(self, tmp_path):
        src = PUBLIC + "def run(cell, deck, *, jobs=1, cache=None):\n    pass\n"
        result = lint_source(tmp_path, src)
        assert result.ok

    def test_private_function_ignored(self, tmp_path):
        src = PUBLIC + "def _helper(x, limit=3):\n    pass\n"
        result = lint_source(tmp_path, src)
        assert result.ok

    def test_non_api_file_ignored(self, tmp_path):
        result = lint_source(tmp_path, "def run(cell, deck, jobs=1):\n    pass\n")
        assert result.ok

    def test_pragma_suppresses(self, tmp_path):
        src = PUBLIC + (
            "def run(cell, deck, jobs=1):  # repro-lint: disable=RL006\n    pass\n"
        )
        result = lint_source(tmp_path, src)
        assert result.ok


# ---------------------------------------------------------------------------
# RL007 — keyword-only client surface (opt-in via the client-api marker)

CLIENT = "# repro-lint: client-api\n"


class TestRL007:
    def test_method_positional_default_flagged(self, tmp_path):
        src = CLIENT + (
            "class SocketClient:\n"
            "    def submit(self, kind, wait=True):\n"
            "        pass\n"
        )
        result = lint_source(tmp_path, src)
        assert rules_hit(result) == {"RL007"}
        assert "wait" in result.violations[0].message

    def test_init_positional_default_flagged(self, tmp_path):
        src = CLIENT + (
            "class SocketClient:\n"
            "    def __init__(self, host, timeout=None):\n"
            "        pass\n"
        )
        result = lint_source(tmp_path, src)
        assert rules_hit(result) == {"RL007"}

    def test_module_function_flagged_in_client_file(self, tmp_path):
        src = CLIENT + "def connect(host, timeout=None):\n    pass\n"
        result = lint_source(tmp_path, src)
        assert rules_hit(result) == {"RL007"}

    def test_classmethod_positional_default_flagged(self, tmp_path):
        src = CLIENT + (
            "class SocketClient:\n"
            "    @classmethod\n"
            "    def from_state_file(cls, path='x.json'):\n"
            "        pass\n"
        )
        result = lint_source(tmp_path, src)
        assert rules_hit(result) == {"RL007"}

    def test_keyword_only_is_clean(self, tmp_path):
        src = CLIENT + (
            "class SocketClient:\n"
            "    def __init__(self, host, port, *, timeout=None):\n"
            "        pass\n"
            "    def submit(self, kind, params, *, wait=True):\n"
            "        pass\n"
            "    @property\n"
            "    def connected(self):\n"
            "        return True\n"
            "    def _read(self, limit=1):\n"
            "        pass\n"
        )
        result = lint_source(tmp_path, src)
        assert result.ok

    def test_methods_of_public_classes_in_api_files(self, tmp_path):
        # RL007 extends RL006 into class bodies of public-api files too
        src = PUBLIC + (
            "class Facade:\n"
            "    def run(self, cell, jobs=1):\n"
            "        pass\n"
        )
        result = lint_source(tmp_path, src)
        assert rules_hit(result) == {"RL007"}

    def test_private_class_ignored(self, tmp_path):
        src = CLIENT + (
            "class _Internal:\n"
            "    def submit(self, kind, wait=True):\n"
            "        pass\n"
        )
        result = lint_source(tmp_path, src)
        assert result.ok

    def test_non_client_file_ignored(self, tmp_path):
        src = (
            "class SocketClient:\n"
            "    def submit(self, kind, wait=True):\n"
            "        pass\n"
        )
        result = lint_source(tmp_path, src)
        assert result.ok


# ---------------------------------------------------------------------------
# RL008 — lock discipline (file half) and lock order (project half)

LOCKED_STORE = (
    "import threading\n"
    "class Store:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self.items = {}\n"
    "    def put(self, k, v):\n"
    "        with self._lock:\n"
    "            self.items[k] = v\n"
)


class TestRL008:
    def test_unlocked_read_flagged(self, tmp_path):
        src = LOCKED_STORE + (
            "    def peek(self, k):\n"
            "        return self.items.get(k)\n"
        )
        result = lint_source(tmp_path, src)
        assert rules_hit(result) == {"RL008"}
        assert "peek" in result.violations[0].message

    def test_unlocked_write_flagged(self, tmp_path):
        src = LOCKED_STORE + (
            "    def clear(self):\n"
            "        self.items = {}\n"
        )
        result = lint_source(tmp_path, src)
        assert rules_hit(result) == {"RL008"}

    def test_locked_access_is_clean(self, tmp_path):
        src = LOCKED_STORE + (
            "    def peek(self, k):\n"
            "        with self._lock:\n"
            "            return self.items.get(k)\n"
        )
        assert lint_source(tmp_path, src).ok

    def test_helper_called_only_under_lock_is_credited(self, tmp_path):
        src = LOCKED_STORE + (
            "    def drop(self, k):\n"
            "        with self._lock:\n"
            "            self._del(k)\n"
            "    def _del(self, k):\n"
            "        self.items.pop(k, None)\n"
        )
        assert lint_source(tmp_path, src).ok

    def test_public_method_never_credited(self, tmp_path):
        # same shape, but the helper is public: external callers can
        # invoke it without the lock, so the unlocked write stands
        src = LOCKED_STORE + (
            "    def drop(self, k):\n"
            "        with self._lock:\n"
            "            self.remove(k)\n"
            "    def remove(self, k):\n"
            "        self.items.pop(k, None)\n"
        )
        result = lint_source(tmp_path, src)
        assert rules_hit(result) == {"RL008"}

    def test_closure_is_a_fresh_unlocked_context(self, tmp_path):
        src = LOCKED_STORE + (
            "    def getter(self):\n"
            "        def read(k):\n"
            "            return self.items.get(k)\n"
            "        return read\n"
        )
        result = lint_source(tmp_path, src)
        assert rules_hit(result) == {"RL008"}

    def test_closure_taking_the_lock_is_clean(self, tmp_path):
        src = LOCKED_STORE + (
            "    def getter(self):\n"
            "        def read(k):\n"
            "            with self._lock:\n"
            "                return self.items.get(k)\n"
            "        return read\n"
        )
        assert lint_source(tmp_path, src).ok

    def test_init_and_del_exempt(self, tmp_path):
        src = LOCKED_STORE + (
            "    def __del__(self):\n"
            "        self.items.clear()\n"
        )
        assert lint_source(tmp_path, src).ok

    def test_condition_aliases_the_lock(self, tmp_path):
        # Condition(self._lock) shares the underlying lock: holding
        # either guards the attribute
        src = (
            "import threading\n"
            "class Queue:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._ready = threading.Condition(self._lock)\n"
            "        self.depth = 0\n"
            "    def push(self):\n"
            "        with self._lock:\n"
            "            self.depth += 1\n"
            "    def pop(self):\n"
            "        with self._ready:\n"
            "            self.depth -= 1\n"
        )
        assert lint_source(tmp_path, src).ok

    def test_lockless_class_ignored(self, tmp_path):
        src = (
            "class Plain:\n"
            "    def __init__(self):\n"
            "        self.items = {}\n"
            "    def put(self, k, v):\n"
            "        self.items[k] = v\n"
        )
        assert lint_source(tmp_path, src).ok

    def test_pragma_suppresses(self, tmp_path):
        src = LOCKED_STORE + (
            "    def peek(self, k):\n"
            "        return self.items.get(k)  # repro-lint: disable=RL008\n"
        )
        assert lint_source(tmp_path, src).ok

    def test_lock_order_cycle_flagged(self, tmp_path):
        src = (
            "import threading\n"
            "class A:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._b = B()\n"
            "    def step(self):\n"
            "        with self._lock:\n"
            "            self._b.poke()\n"
            "class B:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._a = A()\n"
            "    def poke(self):\n"
            "        with self._lock:\n"
            "            self._a.step()\n"
        )
        result = lint_source(tmp_path, src)
        assert rules_hit(result) == {"RL008"}
        assert len(result.violations) == 1  # one cycle, reported once
        assert "lock-order cycle" in result.violations[0].message

    def test_one_directional_nesting_is_clean(self, tmp_path):
        src = (
            "import threading\n"
            "class A:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._b = B()\n"
            "    def step(self):\n"
            "        with self._lock:\n"
            "            self._b.poke()\n"
            "class B:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.count = 0\n"
            "    def poke(self):\n"
            "        with self._lock:\n"
            "            self.count += 1\n"
        )
        assert lint_source(tmp_path, src).ok

    def test_lock_order_pragma_suppresses(self, tmp_path):
        src = (
            "import threading\n"
            "class A:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._b = B()\n"
            "    def step(self):\n"
            "        with self._lock:\n"
            "            self._b.poke()  # repro-lint: disable=RL008\n"
            "class B:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._a = A()\n"
            "    def poke(self):\n"
            "        with self._lock:\n"
            "            self._a.step()  # repro-lint: disable=RL008\n"
        )
        assert lint_source(tmp_path, src).ok


# ---------------------------------------------------------------------------
# RL009 — resource lifecycle


class TestRL009:
    def test_exception_path_leak_flagged(self, tmp_path):
        # a segment created, then a later statement in the same try
        # fails and the handler forgets it
        src = (
            "def pack(data):\n"
            "    try:\n"
            "        seg = SharedMemory(create=True, size=len(data))\n"
            "        seg.buf[: len(data)] = data\n"
            "    except OSError:\n"
            "        return None\n"
            "    return seg\n"
        )
        result = lint_source(tmp_path, src)
        assert rules_hit(result) == {"RL009"}
        assert "exception path" in result.violations[0].message

    def test_handler_cleanup_is_clean(self, tmp_path):
        src = (
            "def pack(data):\n"
            "    seg = None\n"
            "    try:\n"
            "        seg = SharedMemory(create=True, size=len(data))\n"
            "        seg.buf[: len(data)] = data\n"
            "    except OSError:\n"
            "        if seg is not None:\n"
            "            seg.close()\n"
            "            seg.unlink()\n"
            "        return None\n"
            "    return seg\n"
        )
        assert lint_source(tmp_path, src).ok

    def test_never_released_flagged(self, tmp_path):
        src = (
            "import socket\n"
            "def probe(host):\n"
            "    sock = socket.socket()\n"
            "    sock.connect((host, 9000))\n"
        )
        result = lint_source(tmp_path, src)
        assert rules_hit(result) == {"RL009"}
        assert "never reaches a release" in result.violations[0].message

    def test_success_path_only_release_flagged(self, tmp_path):
        src = (
            "import socket\n"
            "def probe(host):\n"
            "    sock = socket.create_connection((host, 9000))\n"
            "    sock.sendall(b'ping')\n"
            "    sock.close()\n"
        )
        result = lint_source(tmp_path, src)
        assert rules_hit(result) == {"RL009"}
        assert "success path" in result.violations[0].message

    def test_finally_release_is_clean(self, tmp_path):
        src = (
            "import socket\n"
            "def probe(host):\n"
            "    sock = socket.create_connection((host, 9000))\n"
            "    try:\n"
            "        sock.sendall(b'ping')\n"
            "    finally:\n"
            "        sock.close()\n"
        )
        assert lint_source(tmp_path, src).ok

    def test_with_managed_is_clean(self, tmp_path):
        src = (
            "from contextlib import closing\n"
            "import socket\n"
            "def probe(host):\n"
            "    sock = socket.create_connection((host, 9000))\n"
            "    with closing(sock):\n"
            "        sock.sendall(b'ping')\n"
        )
        assert lint_source(tmp_path, src).ok

    def test_ownership_transfer_is_clean(self, tmp_path):
        # returning (or storing) the handle makes the receiver the owner
        src = (
            "def attach(name):\n"
            "    seg = SharedMemory(name=name)\n"
            "    return Wrapper(seg)\n"
        )
        assert lint_source(tmp_path, src).ok

    def test_pragma_suppresses(self, tmp_path):
        src = (
            "import socket\n"
            "def probe(host):\n"
            "    sock = socket.socket()  # repro-lint: disable=RL009\n"
            "    sock.connect((host, 9000))\n"
        )
        assert lint_source(tmp_path, src).ok


# ---------------------------------------------------------------------------
# RL010 — interprocedural worker determinism


def lint_worker_tree(tmp_path: Path, helper_src: str, worker_src: str):
    (tmp_path / "repro" / "parallel").mkdir(parents=True)
    (tmp_path / "repro" / "util.py").write_text(helper_src)
    (tmp_path / "repro" / "parallel" / "work.py").write_text(worker_src)
    return lint_paths([tmp_path])


class TestRL010:
    WORKER_CALLS_HELPER = (
        "from repro.util import stamp\n"
        "def run(tile):\n"
        "    return stamp(tile)\n"
    )

    def test_taint_in_reachable_helper_flagged(self, tmp_path):
        helper = (
            "import time\n"
            "def stamp(tile):\n"
            "    return (tile, time.time())\n"
        )
        result = lint_worker_tree(tmp_path, helper, self.WORKER_CALLS_HELPER)
        assert rules_hit(result) == {"RL010"}
        violation = result.violations[0]
        assert violation.path.endswith("repro/util.py")
        assert "reachable from worker code" in violation.message
        assert "run -> stamp" in violation.message

    def test_taint_propagates_through_intermediate_helper(self, tmp_path):
        helper = (
            "import time\n"
            "def stamp(tile):\n"
            "    return _now(tile)\n"
            "def _now(tile):\n"
            "    return (tile, time.time())\n"
        )
        result = lint_worker_tree(tmp_path, helper, self.WORKER_CALLS_HELPER)
        assert rules_hit(result) == {"RL010"}
        assert "stamp -> _now" in result.violations[0].message

    def test_method_taint_via_typed_local_flagged(self, tmp_path):
        helper = (
            "import random\n"
            "class Jitter:\n"
            "    def draw(self):\n"
            "        return random.random()\n"
        )
        worker = (
            "from repro.util import Jitter\n"
            "def run(tile):\n"
            "    j = Jitter()\n"
            "    return j.draw()\n"
        )
        result = lint_worker_tree(tmp_path, helper, worker)
        assert rules_hit(result) == {"RL010"}

    def test_deterministic_helper_is_clean(self, tmp_path):
        helper = (
            "def stamp(tile):\n"
            "    return (tile, hash(tile))\n"
        )
        result = lint_worker_tree(tmp_path, helper, self.WORKER_CALLS_HELPER)
        assert result.ok

    def test_unreachable_taint_not_flagged(self, tmp_path):
        # the helper module has a taint, but worker code never calls it
        helper = (
            "import time\n"
            "def unrelated():\n"
            "    return time.time()\n"
        )
        worker = "def run(tile):\n    return tile\n"
        result = lint_worker_tree(tmp_path, helper, worker)
        assert result.ok

    def test_taint_in_worker_file_left_to_rl002(self, tmp_path):
        # inside a worker file RL002 reports it; RL010 must not duplicate
        helper = "def stamp(tile):\n    return tile\n"
        worker = (
            "import time\n"
            "def run(tile):\n"
            "    return time.time()\n"
        )
        result = lint_worker_tree(tmp_path, helper, worker)
        assert rules_hit(result) == {"RL002"}

    def test_pragma_suppresses_at_the_hazard(self, tmp_path):
        helper = (
            "import time\n"
            "def stamp(tile):\n"
            "    return (tile, time.time())  # repro-lint: disable=RL010\n"
        )
        result = lint_worker_tree(tmp_path, helper, self.WORKER_CALLS_HELPER)
        assert result.ok


# ---------------------------------------------------------------------------
# RL011 — wire-protocol consistency


SERVICE_PROTOCOL = 'OPS = ("ping", "status")\nSTREAM_OPS = ()\n'
SERVICE_DAEMON = (
    "def dispatch(request):\n"
    "    op = request.get('op')\n"
    "    if op == 'ping':\n"
    "        return {}\n"
    "    if op == 'status':\n"
    "        return {}\n"
)
SERVICE_CLIENT = (
    "class SocketClient:\n"
    "    def ping(self):\n"
    "        return self.request('ping')\n"
)
SERVICE_ERRORS = 'QUEUE_FULL = "queue-full"\n'
SERVICE_DOC = "ops: `ping`, `status`; codes: `queue-full`\n"


def lint_service_tree(tmp_path: Path, **overrides: str):
    sources = {
        "protocol.py": SERVICE_PROTOCOL,
        "daemon.py": SERVICE_DAEMON,
        "client.py": SERVICE_CLIENT,
        "errors.py": SERVICE_ERRORS,
    }
    sources.update(overrides)
    service = tmp_path / "repro" / "service"
    service.mkdir(parents=True)
    for name, src in sources.items():
        if src is not None:
            (service / name).write_text(src)
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "SERVICE.md").write_text(
        overrides.get("doc", SERVICE_DOC)
    )
    return lint_paths([tmp_path])


class TestRL011:
    def test_consistent_tree_is_clean(self, tmp_path):
        assert lint_service_tree(tmp_path).ok

    def test_undeclared_op_flagged(self, tmp_path):
        client = SERVICE_CLIENT + (
            "    def boom(self):\n"
            "        return self.request('frobnicate')\n"
        )
        result = lint_service_tree(tmp_path, **{"client.py": client})
        assert rules_hit(result) == {"RL011"}
        violation = result.violations[0]
        assert violation.path.endswith("client.py")
        assert "frobnicate" in violation.message
        assert "protocol.OPS" in violation.message

    def test_unhandled_op_flagged(self, tmp_path):
        # declared and documented, but the daemon never dispatches it
        client = SERVICE_CLIENT + (
            "    def status(self):\n"
            "        return self.request('status')\n"
        )
        daemon = (
            "def dispatch(request):\n"
            "    op = request.get('op')\n"
            "    if op == 'ping':\n"
            "        return {}\n"
        )
        result = lint_service_tree(
            tmp_path, **{"client.py": client, "daemon.py": daemon}
        )
        assert rules_hit(result) == {"RL011"}
        assert "never dispatched" in result.violations[0].message

    def test_dict_literal_op_also_counts_as_sent(self, tmp_path):
        client = SERVICE_CLIENT + (
            "    def stream(self):\n"
            "        return self.send({'op': 'batch-run'})\n"
        )
        result = lint_service_tree(tmp_path, **{"client.py": client})
        assert rules_hit(result) == {"RL011"}
        assert "batch-run" in result.violations[0].message

    def test_undocumented_op_flagged(self, tmp_path):
        result = lint_service_tree(tmp_path, doc="ops: `ping`; codes: `queue-full`\n")
        assert rules_hit(result) == {"RL011"}
        violation = result.violations[0]
        assert violation.path.endswith("protocol.py")
        assert "status" in violation.message

    def test_error_code_literal_flagged(self, tmp_path):
        jobs = (
            "class QueueFullError(Exception):\n"
            "    code = 'queue-full'\n"
        )
        result = lint_service_tree(tmp_path, **{"jobs.py": jobs})
        assert rules_hit(result) == {"RL011"}
        assert "repro.service.errors" in result.violations[0].message

    def test_unknown_code_constant_flagged(self, tmp_path):
        jobs = (
            "from repro.service import errors\n"
            "class QueueFullError(Exception):\n"
            "    code = errors.QUEUE_FULLZ\n"
        )
        result = lint_service_tree(tmp_path, **{"jobs.py": jobs})
        assert rules_hit(result) == {"RL011"}
        assert "QUEUE_FULLZ" in result.violations[0].message

    def test_registry_constant_reference_is_clean(self, tmp_path):
        jobs = (
            "from repro.service import errors\n"
            "class QueueFullError(Exception):\n"
            "    code = errors.QUEUE_FULL\n"
        )
        assert lint_service_tree(tmp_path, **{"jobs.py": jobs}).ok

    def test_duplicate_registry_code_flagged(self, tmp_path):
        errors_src = 'QUEUE_FULL = "queue-full"\nSHED = "queue-full"\n'
        result = lint_service_tree(tmp_path, **{"errors.py": errors_src})
        assert rules_hit(result) == {"RL011"}
        assert "registered twice" in result.violations[0].message

    def test_undocumented_registry_code_flagged(self, tmp_path):
        errors_src = SERVICE_ERRORS + 'SHED = "load-shed"\n'
        result = lint_service_tree(tmp_path, **{"errors.py": errors_src})
        assert rules_hit(result) == {"RL011"}
        assert "load-shed" in result.violations[0].message

    def test_no_service_layer_is_silent(self, tmp_path):
        result = lint_source(tmp_path, "x = 1\n")
        assert result.ok

    def test_pragma_suppresses(self, tmp_path):
        client = SERVICE_CLIENT + (
            "    def boom(self):\n"
            "        return self.request('frobnicate')  # repro-lint: disable=RL011\n"
        )
        assert lint_service_tree(tmp_path, **{"client.py": client}).ok


# ---------------------------------------------------------------------------
# the content-hash cache and --changed-only


class TestCache:
    def test_cold_then_warm(self, tmp_path):
        (tmp_path / "a.py").write_text("r = Rect(0, 0, 10.5, 20)\n")
        (tmp_path / "b.py").write_text("x = 1\n")
        cache = tmp_path / "cache.json"
        cold = lint_paths([tmp_path], cache_path=cache)
        assert (cold.cache_hits, cold.cache_misses) == (0, 2)
        warm = lint_paths([tmp_path], cache_path=cache)
        assert (warm.cache_hits, warm.cache_misses) == (2, 0)
        assert [v.to_dict() for v in warm.violations] == [
            v.to_dict() for v in cold.violations
        ]

    def test_edited_file_misses_others_hit(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "b.py").write_text("y = 2\n")
        cache = tmp_path / "cache.json"
        lint_paths([tmp_path], cache_path=cache)
        (tmp_path / "a.py").write_text("r = Rect(0, 0, 10.5, 20)\n")
        result = lint_paths([tmp_path], cache_path=cache)
        assert (result.cache_hits, result.cache_misses) == (1, 1)
        assert rules_hit(result) == {"RL001"}

    def test_config_change_invalidates(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        cache = tmp_path / "cache.json"
        lint_paths([tmp_path], cache_path=cache)
        result = lint_paths(
            [tmp_path],
            LintConfig(disable=frozenset({"RL001"})),
            cache_path=cache,
        )
        assert (result.cache_hits, result.cache_misses) == (0, 1)

    def test_project_rules_run_from_cached_facts(self, tmp_path):
        # a warm run re-parses nothing, yet cross-file rules still fire
        client = SERVICE_CLIENT + (
            "    def boom(self):\n"
            "        return self.request('frobnicate')\n"
        )
        service = tmp_path / "repro" / "service"
        service.mkdir(parents=True)
        (service / "protocol.py").write_text(SERVICE_PROTOCOL)
        (service / "daemon.py").write_text(SERVICE_DAEMON)
        (service / "client.py").write_text(client)
        cache = tmp_path / "cache.json"
        cold = lint_paths([service], cache_path=cache)
        warm = lint_paths([service], cache_path=cache)
        assert warm.cache_misses == 0 and warm.cache_hits == 3
        assert rules_hit(cold) == rules_hit(warm) == {"RL011"}

    def test_corrupt_cache_is_cold(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        cache = tmp_path / "cache.json"
        cache.write_text("{ not json")
        result = lint_paths([tmp_path], cache_path=cache)
        assert (result.cache_hits, result.cache_misses) == (0, 1)

    def test_warm_run_is_faster(self, tmp_path):
        import time as _time

        body = "".join(
            f"def f{i}(x):\n    return Rect(0, 0, x + {i}, x)\n"
            for i in range(40)
        )
        for i in range(25):
            (tmp_path / f"m{i}.py").write_text(body)
        cache = tmp_path / "cache.json"
        t0 = _time.perf_counter()
        cold = lint_paths([tmp_path], cache_path=cache)
        t_cold = _time.perf_counter() - t0
        t0 = _time.perf_counter()
        warm = lint_paths([tmp_path], cache_path=cache)
        t_warm = _time.perf_counter() - t0
        assert cold.cache_misses == 25 and warm.cache_hits == 25
        assert warm.violations == cold.violations == []
        assert t_warm < t_cold


class TestChangedOnly:
    @staticmethod
    def git(tmp_path: Path, *argv: str) -> None:
        subprocess.run(
            [
                "git",
                "-c", "user.email=lint@test",
                "-c", "user.name=lint",
                *argv,
            ],
            cwd=tmp_path,
            check=True,
            capture_output=True,
        )

    def run_lint(self, tmp_path: Path, *argv: str) -> subprocess.CompletedProcess:
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT))
        return subprocess.run(
            [sys.executable, "-m", "tools.repro_lint", *argv],
            cwd=tmp_path,
            capture_output=True,
            text=True,
            env=env,
        )

    def test_only_changed_files_reported(self, tmp_path):
        (tmp_path / "old.py").write_text("r = Rect(0, 0, 10.5, 20)\n")
        self.git(tmp_path, "init", "-q")
        self.git(tmp_path, "add", ".")
        self.git(tmp_path, "commit", "-q", "-m", "seed")
        (tmp_path / "new.py").write_text("p = Point(1.5, 2)\n")
        proc = self.run_lint(tmp_path, ".", "--changed-only")
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "new.py" in proc.stdout
        assert "old.py" not in proc.stdout

    def test_modified_tracked_file_reported(self, tmp_path):
        (tmp_path / "old.py").write_text("x = 1\n")
        self.git(tmp_path, "init", "-q")
        self.git(tmp_path, "add", ".")
        self.git(tmp_path, "commit", "-q", "-m", "seed")
        (tmp_path / "old.py").write_text("r = Rect(0, 0, 10.5, 20)\n")
        proc = self.run_lint(tmp_path, ".", "--changed-only")
        assert proc.returncode == 1
        assert "old.py" in proc.stdout

    def test_outside_git_exits_2(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT), GIT_CEILING_DIRECTORIES=str(tmp_path.parent))
        proc = subprocess.run(
            [sys.executable, "-m", "tools.repro_lint", ".", "--changed-only"],
            cwd=tmp_path,
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 2


# ---------------------------------------------------------------------------
# engine behavior: pragmas, config, output, exit codes


class TestEngine:
    def test_file_wide_pragma(self, tmp_path):
        src = "# repro-lint: disable-file=RL001\nr = Rect(0, 0, 10.5, 20)\n"
        assert lint_source(tmp_path, src).ok

    def test_disable_all(self, tmp_path):
        src = (
            "# repro-lint: disable-file=all\n"
            "r = Rect(0, 0, 10.5, 20)\n"
            "class FooReport:\n    pass\n"
        )
        assert lint_source(tmp_path, src).ok

    def test_pragma_parse_markers_and_rules(self):
        pragmas = parse_pragmas("# repro-lint: disable=RL001, RL004 worker-code\n")
        assert pragmas.line_disabled[1] == {"RL001", "RL004"}
        assert pragmas.markers == {"worker-code"}

    def test_pragma_inside_string_is_inert(self, tmp_path):
        src = 's = "# repro-lint: disable-file=all"\nr = Rect(0, 0, 10.5, 20)\n'
        result = lint_source(tmp_path, src)
        assert rules_hit(result) == {"RL001"}

    def test_config_disable(self, tmp_path):
        config = LintConfig(disable=frozenset({"RL001"}))
        result = lint_source(tmp_path, "r = Rect(0, 0, 10.5, 20)\n", config=config)
        assert result.ok

    def test_config_enable_subset(self, tmp_path):
        config = LintConfig(enable=frozenset({"RL004"}))
        src = "r = Rect(0, 0, 10.5, 20)\ntry:\n    f()\nexcept Exception:\n    pass\n"
        result = lint_source(tmp_path, src, config=config)
        assert rules_hit(result) == {"RL004"}

    def test_syntax_error_reported_as_rl000(self, tmp_path):
        result = lint_source(tmp_path, "def broken(:\n")
        assert rules_hit(result) == {PARSE_ERROR_ID}

    def test_json_schema(self, tmp_path):
        result = lint_source(tmp_path, "r = Rect(0, 0, 10.5, 20)\n")
        doc = json.loads(result.to_json())
        assert doc["version"] == 2
        assert doc["ok"] is False
        assert doc["files_checked"] == 1
        assert doc["cache"] == {"hits": 0, "misses": 1}
        assert doc["counts"] == {"RL001": 1}
        violation = doc["violations"][0]
        assert set(violation) == {"rule", "path", "line", "col", "message"}
        assert violation["rule"] == "RL001"
        assert violation["line"] == 1

    def test_every_rule_has_fixture_coverage(self):
        tested = {
            "RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007",
            "RL008", "RL009",
        }
        assert set(RULES) == tested
        assert set(PROJECT_RULES) == {"RL008", "RL010", "RL011"}


# ---------------------------------------------------------------------------
# CLI contract and the meta-test over the repo's own tree


def run_cli(*argv: str, cwd: Path = REPO_ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "tools.repro_lint", *argv],
        cwd=cwd,
        capture_output=True,
        text=True,
    )


class TestCli:
    def test_repo_tree_is_clean(self):
        """The meta-test: the repo's own code must satisfy its invariants."""
        proc = run_cli("src", "tools", "examples", "benchmarks")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_violations_exit_1(self, tmp_path):
        (tmp_path / "bad.py").write_text("r = Rect(0, 0, 10.5, 20)\n")
        proc = run_cli(str(tmp_path))
        assert proc.returncode == 1
        assert "RL001" in proc.stdout

    def test_no_fail_exits_0(self, tmp_path):
        (tmp_path / "bad.py").write_text("r = Rect(0, 0, 10.5, 20)\n")
        proc = run_cli(str(tmp_path), "--no-fail")
        assert proc.returncode == 0

    def test_usage_error_exits_2(self):
        proc = run_cli("src", "--disable", "RL999")
        assert proc.returncode == 2

    def test_missing_path_exits_2(self):
        proc = run_cli("no/such/path")
        assert proc.returncode == 2

    def test_json_output(self, tmp_path):
        (tmp_path / "bad.py").write_text("r = Rect(0, 0, 10.5, 20)\n")
        proc = run_cli(str(tmp_path), "--format", "json")
        doc = json.loads(proc.stdout)
        assert doc["counts"] == {"RL001": 1}

    def test_list_rules(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        for rule_id in (
            "RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007",
            "RL008", "RL009", "RL010", "RL011",
        ):
            assert rule_id in proc.stdout
