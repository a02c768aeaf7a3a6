"""Resident layout sessions: ingest a GDSII once, serve many requests.

The one-shot CLI pays the full cost — parse the GDSII, flatten the
hierarchy, canonicalize each layer — on *every* invocation, which
dwarfs the incremental tile work the cache makes cheap.  A
:class:`LayoutSession` pays it once: the first request for a (file,
cell) streams the GDSII into an out-of-core layout store
(:mod:`repro.layout.store`), and every request after that windows
rects straight out of the mmapped file.  Pool workers receive
``(path, offset, count, digest)`` handles into the same file, so the
warm worker pool is reused while the layout is unchanged and retired
as soon as an edit changes a layer's digest.

Where the stores live: with a ``store_dir`` (``repro serve
--session-store-dir``) the files persist there, named by a hash of the
layout path (and cell), so a restarted daemon re-maps them —
``layoutstore.reused`` — instead of re-ingesting.  Without one, or when
the configured dir is unusable (counted as ``layoutstore.fallback``),
the :class:`SessionManager` ingests into a private temp dir it removes
on :meth:`~SessionManager.close`.

Staleness is stat-based: :class:`SessionManager` re-stats the file per
request and reloads when size or mtime changed — an edited layout gets
a fresh session, re-ingested on its next request (hence new digests,
and new cache keys for dirty tiles).
"""

from __future__ import annotations

import hashlib
import logging
import os
import shutil
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Any

from repro.gdsii.records import GdsFormatError
from repro.layout import Layer
from repro.layout.store import LayoutStoreError, StoreView, close_store, ensure_store
from repro.obs import get_registry, names
from repro.service.jobs import BadRequestError

log = logging.getLogger("repro.service")


def resolve_layer(tech: Any, name: str) -> Layer:
    """Look up a tech layer by name, with a typed error for the wire."""
    for f in fields(tech.layers):
        layer = getattr(tech.layers, f.name)
        if isinstance(layer, Layer) and layer.name == name:
            return layer
    raise BadRequestError(f"unknown layer {name!r} for this tech node")


@dataclass(frozen=True)
class SessionKey:
    """Identity of a loaded layout file: path plus stat signature."""

    path: str
    mtime_ns: int
    size: int

    @classmethod
    def stat(cls, path: str) -> "SessionKey":
        try:
            st = os.stat(path)
        except OSError as exc:
            raise BadRequestError(f"cannot stat layout {path!r}: {exc}") from exc
        return cls(path=os.path.abspath(path), mtime_ns=st.st_mtime_ns, size=st.st_size)


class LayoutSession:
    """One resident layout: one mapped layout store per requested cell.

    Stores go to ``store_dir`` when set and usable, otherwise to the
    manager's ``private_dir``.
    """

    def __init__(self, key: SessionKey, store_dir: str | None, private_dir: str) -> None:
        self.key = key
        self._store_dir = store_dir
        self._private_dir = private_dir
        self._lock = threading.Lock()
        self._stores: dict[str | None, StoreView] = {}
        self._private: list[str] = []

    def store(self, cell: str | None = None) -> StoreView:
        """The mapped store for ``cell`` (the top cell when ``None``),
        ingested on first use.

        The store holds every layer of the cell, so its extent is the
        cell's bbox — the same tile grid the in-RAM engines would cut.
        A malformed file or an unknown cell is a :class:`BadRequestError`.
        """
        with self._lock:
            view = self._stores.get(cell)
            if view is None:
                try:
                    view = self._ingest(cell)
                except GdsFormatError as exc:
                    raise BadRequestError(
                        f"cannot load layout {self.key.path!r}: {exc}"
                    ) from exc
                self._stores[cell] = view
            return view

    def _ingest(self, cell: str | None) -> StoreView:
        ident = self.key.path if cell is None else f"{self.key.path}\0{cell}"
        name = hashlib.sha256(ident.encode("utf-8")).hexdigest()[:16] + ".lstore"
        if self._store_dir is not None:
            try:
                os.makedirs(self._store_dir, exist_ok=True)
                return ensure_store(
                    self.key.path, os.path.join(self._store_dir, name), cell=cell
                )
            except (LayoutStoreError, OSError) as exc:
                get_registry().inc(names.LAYOUTSTORE_FALLBACK)
                log.warning(
                    "layout store dir %s unusable for %s (%s); using a private store",
                    self._store_dir,
                    self.key.path,
                    exc,
                )
        path = os.path.join(self._private_dir, name)
        self._private.append(path)
        return ensure_store(self.key.path, path, cell=cell)

    def close(self) -> None:
        """Unmap this session's stores and delete its private ones
        (idempotent); stores in a configured dir persist."""
        with self._lock:
            views, self._stores = list(self._stores.values()), {}
            private, self._private = self._private, []
        for view in views:
            close_store(view)
        for path in private:
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass


class SessionManager:
    """LRU-bounded pool of resident sessions with stat-based reload.

    ``store_dir`` is where session stores persist, keyed by a hash of
    the layout path, across manager — and daemon — restarts.  Without
    it they go to a private temp dir that :meth:`close` removes.
    """

    def __init__(self, max_sessions: int = 4, store_dir: str | None = None) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        self.max_sessions = max_sessions
        self.store_dir = store_dir
        self._sessions: OrderedDict[str, LayoutSession] = OrderedDict()
        self._lock = threading.Lock()
        self._private_dir: str | None = None

    def _private(self) -> str:
        """The private store dir, created on first use."""
        with self._lock:
            if self._private_dir is None:
                self._private_dir = tempfile.mkdtemp(prefix="repro-sessions-")
            return self._private_dir

    def get(self, path: str) -> LayoutSession:
        """The resident session for ``path``, loading or reloading as
        needed (reload when the file's stat signature changed)."""
        key = SessionKey.stat(path)
        registry = get_registry()
        stale: LayoutSession | None = None
        with self._lock:
            session = self._sessions.get(key.path)
            if session is not None:
                if session.key == key:
                    self._sessions.move_to_end(key.path)
                    registry.inc(names.SERVICE_SESSIONS_REUSED)
                    return session
                stale = self._sessions.pop(key.path)
        if stale is not None:
            stale.close()
            registry.inc(names.SERVICE_SESSIONS_RELOADED)
            log.info("reloading changed layout %s", key.path)
        else:
            registry.inc(names.SERVICE_SESSIONS_LOADED)
            log.info("loading layout %s", key.path)
        session = LayoutSession(key, self.store_dir, self._private())
        evicted: list[LayoutSession] = []
        with self._lock:
            self._sessions[key.path] = session
            self._sessions.move_to_end(key.path)
            while len(self._sessions) > self.max_sessions:
                _, old = self._sessions.popitem(last=False)
                evicted.append(old)
        for old in evicted:
            old.close()
            registry.inc(names.SERVICE_SESSIONS_EVICTED)
        return session

    def close(self) -> None:
        """Close every session and remove the private store dir."""
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
            private, self._private_dir = self._private_dir, None
        for session in sessions:
            session.close()
        if private is not None:
            shutil.rmtree(private, ignore_errors=True)
