"""The verification service: resident sessions + warm pool + shared store.

:class:`VerificationService` is the in-process heart of the daemon (the
socket front end in :mod:`repro.service.daemon` is a thin wrapper).  It
owns four long-lived pieces and wires every job through all of them:

* a :class:`~repro.service.session.SessionManager` of resident layouts,
  so a request against a warm session skips GDSII parse, flatten, and
  canonicalization entirely;
* one persistent :class:`~repro.parallel.TileExecutor` whose worker
  pool stays warm across requests (the ``pool.warm_reuse`` counter
  proves it);
* a :class:`~repro.service.store.ResultStore` shared across runs and
  clients, so any client's re-verify after an edit recomputes only the
  dirty tiles — whoever computed the clean ones;
* a :class:`~repro.service.queue.PriorityJobQueue` dispatched by a
  single background thread: strict priority bands, round-robin across
  clients within a band, bounded depth with typed shed.

Jobs run one at a time on the dispatcher thread — the parallelism is
*inside* a job (the executor's worker pool), which keeps results
deterministic and the warm pool's payload residency coherent.  Per-job
``timeout_s`` and :meth:`~VerificationService.cancel` reuse the
executor's cooperative abort machinery: the run raises
:class:`~repro.parallel.AbortRun` at the next tile boundary and any
checkpoint is flushed, exactly like an operator interrupt.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from typing import TYPE_CHECKING, Any

from repro import __version__
from repro.obs import get_registry, names
from repro.parallel import AbortRun, TileExecutor
from repro.service.jobs import (
    VERIFY_KINDS,
    BadRequestError,
    Job,
    JobState,
    Priority,
    QueueFullError,
    ServiceClosedError,
    ServiceError,
    UnknownJobError,
)
from repro.service.queue import PriorityJobQueue
from repro.service.session import SessionManager, resolve_layer
from repro.service.store import ResultStore
from repro.tech import make_node

if TYPE_CHECKING:
    from repro.litho.model import LithoModel

# Terminal jobs kept for status queries before the history is trimmed.
_JOB_HISTORY = 1024


def _percentile(sorted_ms: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted latency list."""
    if not sorted_ms:
        return 0.0
    return sorted_ms[min(len(sorted_ms) - 1, int(q * (len(sorted_ms) - 1) + 0.5))]


class VerificationService:
    """Long-lived verification engine serving many requests.

    ``autostart=False`` leaves the dispatcher thread unstarted — jobs
    queue up until :meth:`start` — which tests use to observe and
    reorder the queue deterministically.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        node: int = 45,
        max_depth: int = 256,
        max_sessions: int = 4,
        store_entries: int = 100_000,
        latency_window: int = 2048,
        autostart: bool = True,
        session_store_dir: str | None = None,
    ) -> None:
        self.default_node = node
        self.executor = TileExecutor(jobs, persistent=True)
        self.sessions = SessionManager(
            max_sessions=max_sessions, store_dir=session_store_dir
        )
        self.store = ResultStore(max_entries=store_entries)
        self.queue = PriorityJobQueue(max_depth=max_depth)
        self._jobs: OrderedDict[int, Job] = OrderedDict()
        self._lock = threading.Lock()
        self._latencies_ms: deque[float] = deque(maxlen=latency_window)
        self._techs: dict[int, Any] = {}
        self._models: dict[int, LithoModel] = {}
        self.counters = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
            "timeout": 0,
            "shed": 0,
        }
        self._closing = threading.Event()
        self._dispatcher: threading.Thread | None = None
        if autostart:
            self.start()

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Start the dispatcher thread (idempotent)."""
        if self._dispatcher is not None or self._closing.is_set():
            return
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-service-dispatch", daemon=True
        )
        self._dispatcher.start()

    def close(self) -> None:
        """Stop accepting work, cancel queued jobs, release resources.

        The in-flight job (if any) finishes first — cancel it explicitly
        beforehand for a faster stop.  Idempotent.
        """
        if self._closing.is_set():
            return
        self._closing.set()
        self.queue.close()
        # drain what never got dispatched
        while True:
            job = self.queue.pop(timeout=0)
            if job is None:
                break
            self._finish_cancelled(job, "service shut down before dispatch")
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=60.0)
        self.executor.close()
        self.sessions.close()

    def __enter__(self) -> "VerificationService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- client surface -------------------------------------------------
    def submit(
        self,
        kind: str,
        params: dict[str, Any] | None = None,
        *,
        client: str = "local",
        priority: "Priority | str | int" = Priority.INTERACTIVE,
        timeout_s: float | None = None,
    ) -> Job:
        """Queue a verification job; returns the live :class:`Job`.

        Raises :class:`BadRequestError` for an unknown kind,
        :class:`QueueFullError` when the queue sheds the request, and
        :class:`ServiceClosedError` after :meth:`close`.
        """
        if self._closing.is_set():
            raise ServiceClosedError("service is shutting down")
        if kind not in VERIFY_KINDS:
            raise BadRequestError(
                f"unknown job kind {kind!r} (expected one of {', '.join(VERIFY_KINDS)})"
            )
        job = Job(
            client=client,
            kind=kind,
            params=dict(params or {}),
            priority=Priority.from_name(priority),
            timeout_s=timeout_s,
        )
        job.submitted_monotonic = time.monotonic()
        registry = get_registry()
        with self._lock:
            self._jobs[job.id] = job
            while len(self._jobs) > _JOB_HISTORY:
                oldest = next(iter(self._jobs.values()))
                if not oldest.state.terminal:
                    break
                del self._jobs[oldest.id]
        try:
            self.queue.push(job)
        except QueueFullError:
            with self._lock:
                self.counters["shed"] += 1
                del self._jobs[job.id]
            registry.inc(names.SERVICE_SHED)
            raise
        with self._lock:
            self.counters["submitted"] += 1
        registry.inc(names.SERVICE_JOBS_SUBMITTED)
        registry.gauge(names.SERVICE_QUEUE_DEPTH, len(self.queue))
        return job

    def submit_batch(
        self,
        items: "list[dict[str, Any]]",
        *,
        client: str = "local",
        priority: "Priority | str | int" = Priority.BACKGROUND,
        timeout_s: float | None = None,
    ) -> "list[Job | ServiceError]":
        """Queue many jobs at once with partial-failure semantics.

        Each item is ``{"kind": ..., "params": {...}}``.  The returned
        list is aligned with ``items``: a live :class:`Job` where the
        submit succeeded, the typed :class:`ServiceError` (not raised)
        where that one item was rejected — a malformed item or a shed
        request never aborts the rest of the batch.  Only a service
        already shut down fails the whole call.

        Defaults to the ``background`` band so a batch never starves
        interactive submits.
        """
        if self._closing.is_set():
            raise ServiceClosedError("service is shutting down")
        registry = get_registry()
        registry.inc(names.SERVICE_BATCHES)
        out: list[Job | ServiceError] = []
        for item in items:
            try:
                if not isinstance(item, dict):
                    raise BadRequestError("batch item must be a JSON object")
                kind = item.get("kind")
                if not isinstance(kind, str):
                    raise BadRequestError("batch item missing 'kind'")
                params = item.get("params") or {}
                if not isinstance(params, dict):
                    raise BadRequestError("batch item 'params' must be a JSON object")
                out.append(
                    self.submit(
                        kind,
                        params,
                        client=client,
                        priority=priority,
                        timeout_s=timeout_s,
                    )
                )
                registry.inc(names.SERVICE_BATCH_JOBS)
            except ServiceError as exc:
                registry.inc(names.SERVICE_BATCH_REJECTED)
                out.append(exc)
        return out

    def wait(self, job: Job, timeout: float | None = None) -> Job:
        """Block until ``job`` is terminal (or ``timeout`` elapses)."""
        job.done.wait(timeout=timeout)
        return job

    def job(self, job_id: int) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"no job with id {job_id}")
        return job

    def status(self, job_id: int) -> dict[str, Any]:
        return self.job(job_id).snapshot()

    def cancel(self, job_id: int) -> dict[str, Any]:
        """Cancel a job: immediately if still queued, cooperatively (at
        the next tile boundary) if running.  Terminal jobs are left
        alone."""
        job = self.job(job_id)
        if job.state.terminal:
            return job.snapshot()
        job.cancel_event.set()
        if self.queue.remove(job_id) is not None:
            self._finish_cancelled(job, "cancelled while queued")
        return job.snapshot()

    def metrics(self) -> dict[str, Any]:
        """Live service metrics, independent of the obs registry state."""
        with self._lock:
            counters = dict(self.counters)
            latencies = sorted(self._latencies_ms)
        return {
            "version": __version__,
            "jobs": counters,
            "queue": {"depth": len(self.queue), **self.queue.snapshot()},
            "store": {
                "entries": len(self.store),
                "hits": self.store.hits,
                "misses": self.store.misses,
                "hit_rate": round(self.store.hit_rate, 4),
                "evictions": self.store.evictions,
            },
            "latency_ms": {
                "count": len(latencies),
                "p50": round(_percentile(latencies, 0.50), 3),
                "p99": round(_percentile(latencies, 0.99), 3),
            },
        }

    # -- dispatch -------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            job = self.queue.pop(timeout=0.25)
            if job is None:
                if self._closing.is_set():
                    return
                continue
            self._run_job(job)

    def _finish_cancelled(self, job: Job, reason: str) -> None:
        job.fail(reason, JobState.CANCELLED)
        job.finished_monotonic = time.monotonic()
        with self._lock:
            self.counters["cancelled"] += 1
        get_registry().inc(names.SERVICE_JOBS_CANCELLED)
        job.done.set()

    def _run_job(self, job: Job) -> None:
        if job.cancel_event.is_set() or job.done.is_set():
            if not job.done.is_set():
                self._finish_cancelled(job, "cancelled while queued")
            return
        registry = get_registry()
        job.started_monotonic = time.monotonic()
        job.state = JobState.RUNNING
        timed_out = threading.Event()
        timer: threading.Timer | None = None
        if job.timeout_s is not None:

            def _expire() -> None:
                timed_out.set()
                job.cancel_event.set()

            timer = threading.Timer(job.timeout_s, _expire)
            timer.daemon = True
            timer.start()
        self.executor.cancel_event = job.cancel_event
        outcome = "completed"
        try:
            job.report, job.result = self._execute(job)
            job.state = JobState.DONE
        except AbortRun:
            if timed_out.is_set():
                job.fail(f"timed out after {job.timeout_s:g}s", JobState.TIMEOUT)
                outcome = "timeout"
            else:
                job.fail("cancelled while running", JobState.CANCELLED)
                outcome = "cancelled"
        except ServiceError as exc:
            job.fail(f"{exc.code}: {exc}")
            outcome = "failed"
        except Exception as exc:
            # the daemon must outlive any single bad job
            job.fail(f"{type(exc).__name__}: {exc}")
            outcome = "failed"
        finally:
            if timer is not None:
                timer.cancel()
            self.executor.cancel_event = None
            job.finished_monotonic = time.monotonic()
            with self._lock:
                self.counters[outcome] += 1
                total_ms = (job.wait_s + job.service_s) * 1000.0
                self._latencies_ms.append(total_ms)
                latencies = sorted(self._latencies_ms)
            registry.inc(
                {
                    "completed": names.SERVICE_JOBS_COMPLETED,
                    "failed": names.SERVICE_JOBS_FAILED,
                    "cancelled": names.SERVICE_JOBS_CANCELLED,
                    "timeout": names.SERVICE_JOBS_TIMEOUT,
                }[outcome]
            )
            registry.observe_hist(names.SERVICE_WAIT_SECONDS_HIST, job.wait_s)
            registry.observe_hist(names.SERVICE_SERVICE_SECONDS_HIST, job.service_s)
            registry.gauge(names.SERVICE_P50_MS, round(_percentile(latencies, 0.50), 3))
            registry.gauge(names.SERVICE_P99_MS, round(_percentile(latencies, 0.99), 3))
            registry.gauge(names.SERVICE_QUEUE_DEPTH, len(self.queue))
            job.done.set()

    # -- execution ------------------------------------------------------
    def _tech(self, node: int) -> Any:
        tech = self._techs.get(node)
        if tech is None:
            tech = self._techs[node] = make_node(node)
        return tech

    def _model(self, node: int) -> LithoModel:
        model = self._models.get(node)
        if model is None:
            from repro.litho.model import LithoModel

            model = self._models[node] = LithoModel(self._tech(node).litho)
        return model

    def _execute(self, job: Job) -> tuple[Any, dict[str, Any]]:
        params = job.params
        registry = get_registry()
        registry.inc(names.SERVICE_REQUESTS)
        if job.kind == "matrix":
            # a self-contained scenario item: no layout file, no session
            # — the shared store deduplicates identical windows across
            # jobs, batches, and clients
            from repro.matrix.engine import execute_matrix_job

            try:
                result = execute_matrix_job(params, store=self.store)
            except ValueError as exc:
                raise BadRequestError(str(exc)) from exc
            return None, result
        # The engines load on the first verify job, not at daemon start,
        # so the daemon answers before numpy and scipy are imported.  Both
        # load together, whichever kind comes first: the warm pool forks
        # inside that job, and its workers inherit what the parent holds.
        from repro.drc.engine import run_drc
        from repro.litho.fullchip import scan_full_chip

        gds = params.get("gds")
        if not gds:
            raise BadRequestError("missing required parameter 'gds'")
        node = int(params.get("node", self.default_node))
        tile_nm = int(params.get("tile", 4000))
        chunk_timeout = params.get("chunk_timeout")
        limit = int(params.get("limit", 10))
        session = self.sessions.get(gds)
        tech = self._tech(node)
        # every session is store-backed: requests window rects straight
        # out of the mmapped store file, workers get constant-size
        # handles, and tile cache keys match the in-RAM one-shot path
        layout_store = session.store(params.get("cell") or None)
        if job.kind == "scan":
            layer = resolve_layer(tech, params.get("layer", "M1"))
            view = self.store.view(
                self.store.namespace("scan", __version__, node)
            )
            report = scan_full_chip(
                self._model(node),
                layout_store.layer_for(layer),
                tile_nm=tile_nm,
                pinch_limit=tech.metal_width // 2,
                jobs=self.executor.jobs,
                cache=view,
                timeout=chunk_timeout,
                executor=self.executor,
            )
            listing = [str(h) for h in report.hotspots[:limit]]
        elif job.kind == "drc":
            deck = tech.rules.minimum()
            view = self.store.view(
                self.store.namespace(
                    "drc", __version__, node, tuple(repr(r) for r in deck)
                )
            )
            report = run_drc(
                None,
                deck,
                None,
                jobs=self.executor.jobs,
                tile_nm=tile_nm,
                cache=view,
                timeout=chunk_timeout,
                executor=self.executor,
                store=layout_store,
            )
            listing = [str(v) for v in report.violations[:limit]]
        else:  # unreachable: submit() validates the kind
            raise BadRequestError(f"unknown job kind {job.kind!r}")
        result = {
            "ok": report.ok,
            "findings": report.findings_count,
            "tiles": report.tiles,
            "tiles_computed": report.tiles_computed,
            "tiles_cached": report.tiles_cached,
            "cache_hit_rate": round(report.cache_hit_rate, 4),
            "quarantined": len(report.quarantined),
            "summary": report.summary(),
            "listing": listing,
        }
        return report, result

