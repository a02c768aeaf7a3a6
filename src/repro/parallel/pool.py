"""Worker-pool tile executor.

A thin deterministic fan-out layer over :mod:`multiprocessing`: the
shared read-only payload (litho model, layout-store geometry handles,
rule deck) is shipped to each worker exactly once via the pool initializer,
work items travel in contiguous chunks, and results come back flattened
in submission order — so a parallel run produces byte-identical output
to a serial one.

Workers are *processes*, not threads: the geometry kernel is pure
Python, so threads would serialize on the GIL.  ``jobs <= 1`` (the
default everywhere) runs inline with zero pool overhead.  If the host
cannot stand a pool up at all (restricted sandboxes without semaphores,
missing fork support), *construction* degrades to the serial path with
a logged warning and a ``pool_fallback`` gauge — but an exception
raised by worker code mid-run propagates; it is never silently
re-run serially.

Two entry points:

* :meth:`TileExecutor.map` — the plain fan-out: any failure propagates.
* :meth:`TileExecutor.run` — the fault-tolerant fan-out used by the
  long-running engines: per-chunk timeouts, bounded retry with
  exponential backoff, poison-tile quarantine (a chunk that exhausts
  its retries is bisected down to the failing tile, which is recorded
  as a :class:`~repro.parallel.faults.QuarantinedTile` instead of
  killing the run), periodic checkpointing via
  :class:`~repro.parallel.checkpoint.Checkpoint`, and deterministic
  fault injection via :class:`~repro.parallel.faults.FaultPlan`.

Observability: when the parent's :class:`~repro.obs.MetricsRegistry` is
enabled, workers enable their own process registry, reset it at each
chunk boundary, and ship the chunk's metric snapshot back alongside the
results.  The parent merges snapshots in submission order, so counters
(and gauge last-writes) from a ``jobs=N`` run are identical to a serial
run — only wall-clock timings differ.  The fault-tolerant path
additionally maintains ``pool.retries``, ``pool.timeouts``,
``pool.bisections``, and ``pool.quarantined`` counters in the parent.
"""

from __future__ import annotations

import logging
import multiprocessing
import multiprocessing.pool
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro.obs import get_registry, names
from repro.parallel.checkpoint import Checkpoint
from repro.parallel.faults import (
    AbortRun,
    FaultPlan,
    InjectedAbort,
    QuarantinedTile,
)

log = logging.getLogger("repro.parallel")

Item = TypeVar("Item")
Result = TypeVar("Result")

# Failure modes of standing up a process pool (sandboxes without
# semaphores, missing _multiprocessing, fork restrictions).  Only pool
# *construction* is guarded by these — see TileExecutor.map/run.
_POOL_ERRORS = (OSError, ImportError, PermissionError)

# How many completed-tile records may accumulate before the checkpoint
# is flushed to disk on the inline path (the pooled path flushes at
# every chunk boundary).
_CHECKPOINT_FLUSH_EVERY = 8

# Per-worker shared payload + fault plan, installed by the initializer.
_PAYLOAD: Any = None
_FAULTS: FaultPlan | None = None


def _init_worker(
    payload: Any, obs_enabled: bool = False, faults: FaultPlan | None = None
) -> None:
    global _PAYLOAD, _FAULTS
    # fork inherits whatever SIGTERM handler the parent installed (e.g.
    # the service daemon's graceful-shutdown trap); restore the default
    # so Pool.terminate() reliably kills workers instead of racing a
    # handler that only sets a parent-side event
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):
        pass  # non-main thread or exotic platform; terminate() may lag
    _PAYLOAD = payload
    _FAULTS = faults
    if obs_enabled:
        get_registry().enable()


def _run_chunk(
    fn: Callable[[Any, Any], Any], chunk: Sequence[Any]
) -> tuple[list[Any], dict | None]:
    """Run one chunk; return (results, metric snapshot or None).

    The worker registry is reset at the chunk boundary so the snapshot
    covers exactly this chunk's work — every event is merged into the
    parent exactly once, whichever worker ran the chunk.
    """
    registry = get_registry()
    if registry.enabled:
        registry.reset()
    results = [fn(_PAYLOAD, item) for item in chunk]
    snapshot = registry.snapshot() if registry.enabled else None
    return results, snapshot


class WorkerFailure(Exception):
    """An item inside a chunk raised; carries the failing tile's key."""

    def __init__(self, key: Any, message: str) -> None:
        super().__init__(key, message)
        self.key = key
        self.message = message

    def __str__(self) -> str:
        return self.message


def _run_chunk_ft(
    fn: Callable[[Any, Any], Any],
    chunk_id: int,
    chunk_attempt: int,
    entries: Sequence[tuple[Any, int, Any]],
) -> tuple[list[tuple[Any, Any]], dict | None]:
    """Fault-aware chunk body: ``entries`` is ``[(key, attempt, item)]``.

    An item failure is wrapped in :class:`WorkerFailure` (carrying the
    failing key, so the parent can bisect straight to it); an injected
    abort propagates unchanged.
    """
    registry = get_registry()
    if registry.enabled:
        registry.reset()
    if _FAULTS is not None:
        _FAULTS.fire("chunk", chunk_id, chunk_attempt)
    out: list[tuple[Any, Any]] = []
    for key, attempt, item in entries:
        try:
            if _FAULTS is not None:
                _FAULTS.fire("tile", key, attempt)
            out.append((key, fn(_PAYLOAD, item)))
        except InjectedAbort:
            raise
        except Exception as exc:
            # `from None`: the cause must not travel back through the
            # pool's pickler (arbitrary worker exceptions may not pickle)
            raise WorkerFailure(key, f"{type(exc).__name__}: {exc}") from None
    snapshot = registry.snapshot() if registry.enabled else None
    return out, snapshot


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a jobs request: ``None``/``0`` means all available CPUs."""
    if jobs is None or jobs <= 0:
        try:
            return max(len(os.sched_getaffinity(0)), 1)
        except AttributeError:  # pragma: no cover - non-Linux
            return os.cpu_count() or 1
    return jobs


@dataclass
class ExecutionOutcome:
    """What :meth:`TileExecutor.run` produced.

    ``results`` aligns index-for-index with the submitted items; a
    quarantined item's slot holds ``None``.  ``resumed_keys`` are the
    keys replayed from the checkpoint rather than computed.
    """

    results: list[Any]
    quarantined: list[QuarantinedTile] = field(default_factory=list)
    resumed_keys: frozenset = frozenset()
    retries: int = 0
    timeouts: int = 0
    bisections: int = 0

    @property
    def computed(self) -> int:
        """Items actually executed this run (not resumed, not quarantined)."""
        return len(self.results) - len(self.resumed_keys) - len(self.quarantined)


@dataclass
class _Chunk:
    """Parent-side unit of pooled work: ``items`` is ``[(key, item)]``."""

    id: int
    items: list[tuple[Any, Any]]
    attempt: int = 0
    not_before: float = 0.0
    # submission-order rank of the chunk's first item, for deterministic
    # metric-snapshot merging however retries/bisections reorder completion
    rank: int = 0


class TileExecutor:
    """Deterministic chunked fan-out of ``fn(payload, item)`` calls.

    ``fn`` must be a module-level function (it is sent to workers by
    reference) and the payload must be picklable.  Results are returned
    in the order of ``items`` regardless of which worker finished first.

    One-shot by default: every ``map``/``run`` call stands its own pool
    up and tears it down.  ``persistent=True`` keeps the pool warm
    between calls instead — a following call whose wire payload (and
    fault plan) is byte-identical reuses the already-initialized
    workers, which is what lets a long-lived verification service serve
    many requests against a resident layout without re-forking per
    request (counted by ``pool.warm_reuse``).  A persistent executor
    must be released with :meth:`close` (or used as a context manager);
    a payload change, timeout kill, or mid-run failure retires the warm
    pool automatically.

    ``cancel_event`` (a :class:`threading.Event`) cooperatively cancels
    an in-flight :meth:`run` between chunks: the run flushes its
    checkpoint and raises :class:`AbortRun`, exactly like an injected
    abort — the seam the service's per-job cancel and deadline reuse.
    """

    def __init__(
        self,
        jobs: int | None = 1,
        chunk_size: int | None = None,
        *,
        persistent: bool = False,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.chunk_size = chunk_size
        self.persistent = persistent
        self.cancel_event: threading.Event | None = None
        self._pool: multiprocessing.pool.Pool | None = None
        self._pool_key: tuple[bytes, bool] | None = None

    # -- lifetime -------------------------------------------------------
    def close(self) -> None:
        """Tear down the warm pool, if any (idempotent).

        One-shot executors never hold a pool between calls, so this is
        only needed (but is always safe) in ``persistent`` mode.
        """
        pool, self._pool, self._pool_key = self._pool, None, None
        if pool is not None:
            pool.terminate()
            pool.join()

    def __enter__(self) -> "TileExecutor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _cancelled(self) -> bool:
        event = self.cancel_event
        return event is not None and event.is_set()

    # -- shared plumbing ------------------------------------------------
    def _resolve_chunk(self, n_items: int) -> int:
        # ~4 chunks per worker balances scheduling slack against IPC cost
        return self.chunk_size or max(1, -(-n_items // (self.jobs * 4)))

    @staticmethod
    def _wire_bytes(payload: Any, faults: FaultPlan | None) -> bytes | None:
        """The initializer arguments as pickled bytes, or None when the
        payload cannot be pickled (it then fails loudly at submission)."""
        try:
            import pickle

            return pickle.dumps((payload, faults), pickle.HIGHEST_PROTOCOL)
        except Exception:  # repro-lint: disable=RL004
            return None

    def _make_pool(
        self,
        payload: Any,
        faults: FaultPlan | None,
        workers: int,
        wire: bytes | None = None,
    ) -> multiprocessing.pool.Pool:
        """Stand up a worker pool; raises ``_POOL_ERRORS`` when the host
        cannot (``multiprocessing.Pool`` spawns its workers eagerly, so
        construction failures surface here, not mid-run)."""
        registry = get_registry()
        if registry.enabled:
            # the shared payload is pickled once per worker: track its
            # wire size so payload regressions (e.g. shipping whole-chip
            # geometry where an index would do) show up in the manifest
            try:
                import pickle

                size = (
                    len(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
                    if wire is None
                    else len(wire)
                )
                registry.gauge(names.POOL_PAYLOAD_BYTES, float(size))
            # the gauge is advisory; an unpicklable payload fails later,
            # loudly, at submission time
            except Exception:  # repro-lint: disable=RL004
                pass
        return multiprocessing.get_context().Pool(
            processes=workers,
            initializer=_init_worker,
            initargs=(payload, get_registry().enabled, faults),
        )

    def _obtain_pool(
        self, payload: Any, faults: FaultPlan | None, workers: int
    ) -> multiprocessing.pool.Pool:
        """A pool whose workers hold ``payload``: warm when possible.

        In persistent mode the pool is created at full ``jobs`` width
        (so a later, larger request can still reuse it) and kept for the
        next call when its initializer arguments — payload and fault
        plan, compared as pickled bytes, plus the registry flag — are
        identical; anything else retires the old pool first.
        """
        if not self.persistent:
            return self._make_pool(payload, faults, workers)
        wire = self._wire_bytes(payload, faults)
        key = (wire, get_registry().enabled) if wire is not None else None
        if self._pool is not None and key is not None and key == self._pool_key:
            get_registry().inc(names.POOL_WARM_REUSE)
            return self._pool
        self.close()
        pool = self._make_pool(payload, faults, self.jobs, wire)
        self._pool, self._pool_key = pool, key
        return pool

    def _retire_pool(self, pool: multiprocessing.pool.Pool, broken: bool) -> None:
        """Give a pool back after a call: keep it warm or tear it down.

        A ``broken`` pool (timeout kill, propagating failure — workers
        may be wedged mid-chunk) is never kept.
        """
        if self.persistent and not broken and pool is self._pool:
            return
        if pool is self._pool:
            self._pool, self._pool_key = None, None
        pool.terminate()
        pool.join()

    @staticmethod
    def _fallback(exc: BaseException) -> None:
        log.warning(
            "process pool unavailable (%s: %s); falling back to serial execution",
            type(exc).__name__,
            exc,
        )
        get_registry().gauge(names.POOL_FALLBACK, 1)

    # -- plain fan-out --------------------------------------------------
    def map(
        self,
        fn: Callable[[Any, Item], Result],
        payload: Any,
        items: Iterable[Item],
    ) -> list[Result]:
        """Fan ``fn(payload, item)`` out over the pool; failures propagate.

        Only *standing the pool up* degrades to the serial path (with a
        warning and the ``pool_fallback`` gauge); an exception raised by
        ``fn`` mid-run propagates to the caller on every path.
        """
        work = list(items)
        if self.jobs <= 1 or len(work) <= 1:
            return [fn(payload, item) for item in work]
        registry = get_registry()
        chunk = self._resolve_chunk(len(work))
        chunks = [work[i : i + chunk] for i in range(0, len(work), chunk)]
        try:
            pool = self._obtain_pool(payload, None, min(self.jobs, len(chunks)))
        except _POOL_ERRORS as exc:
            self._fallback(exc)
            return [fn(payload, item) for item in work]
        broken = True
        try:
            parts = pool.map(partial(_run_chunk, fn), chunks, chunksize=1)
            broken = False
        finally:
            self._retire_pool(pool, broken)
        # merge worker metric snapshots in submission order: counters and
        # timers are order-independent, gauges become last-write-wins in
        # the same order a serial run would have written them
        for _, snapshot in parts:
            if snapshot is not None:
                registry.merge(snapshot)
        return [result for part, _ in parts for result in part]

    # -- fault-tolerant fan-out -----------------------------------------
    def run(
        self,
        fn: Callable[[Any, Item], Result],
        payload: Any,
        items: Iterable[Item],
        *,
        keys: Sequence[Any] | None = None,
        timeout: float | None = None,
        max_retries: int = 2,
        backoff_s: float = 0.05,
        fault_plan: FaultPlan | None = None,
        checkpoint: Checkpoint | None = None,
    ) -> ExecutionOutcome:
        """Fault-tolerant fan-out: retry, quarantine, checkpoint, resume.

        ``keys`` are stable per-item identities (tile indices); they name
        items in checkpoints, quarantine records, and fault plans, and
        default to positions.  Failing chunks are retried up to
        ``max_retries`` times with exponential backoff, then bisected
        down to the failing tile, which is quarantined (its result slot
        stays ``None``) instead of killing the run.  ``timeout`` bounds
        each chunk attempt's wall time; a hung chunk's workers are killed
        and the chunk is retried like any failure (timeouts need the
        pool, so ``jobs=1`` with a timeout still runs one worker).

        ``fault_plan`` (or ``$REPRO_FAULT_SPEC``) injects deterministic
        failures for testing.  ``checkpoint`` replays already-completed
        keys and persists new completions periodically; on an abort the
        checkpoint is flushed before :class:`AbortRun` is raised.
        """
        work = list(items)
        item_keys = list(keys) if keys is not None else list(range(len(work)))
        if len(item_keys) != len(work):
            raise ValueError("keys must align one-to-one with items")
        faults = fault_plan if fault_plan is not None else FaultPlan.from_env()
        registry = get_registry()

        results: dict[Any, Any] = {}
        resumed: set[Any] = set()
        if checkpoint is not None:
            for key in item_keys:
                if key in checkpoint:
                    results[key] = checkpoint.get(key)
                    resumed.add(key)
        pending = [(k, item) for k, item in zip(item_keys, work) if k not in resumed]

        outcome = ExecutionOutcome(results=[], resumed_keys=frozenset(resumed))
        state = _RunState(
            results=results,
            outcome=outcome,
            registry=registry,
            faults=faults,
            checkpoint=checkpoint,
            max_retries=max_retries,
            backoff_s=backoff_s,
        )
        try:
            if pending:
                use_pool = self.jobs > 1 or timeout is not None
                pooled = False
                if use_pool:
                    pooled = self._run_pooled(fn, payload, pending, timeout, state)
                if not pooled:
                    self._run_inline(fn, payload, pending, state)
        except InjectedAbort as exc:
            if checkpoint is not None:
                checkpoint.flush()
            raise AbortRun(str(exc)) from exc
        except BaseException:
            # real interrupts (Ctrl-C, SIGTERM via KeyboardInterrupt/
            # SystemExit) keep their checkpoint too
            if checkpoint is not None:
                checkpoint.flush()
            raise
        if checkpoint is not None:
            checkpoint.flush()
        outcome.results = [results.get(key) for key in item_keys]
        registry.inc(names.POOL_RETRIES, outcome.retries)
        registry.inc(names.POOL_TIMEOUTS, outcome.timeouts)
        registry.inc(names.POOL_BISECTIONS, outcome.bisections)
        registry.inc(names.POOL_QUARANTINED, len(outcome.quarantined))
        return outcome

    def _run_inline(
        self,
        fn: Callable[[Any, Any], Any],
        payload: Any,
        pending: list[tuple[Any, Any]],
        state: "_RunState",
    ) -> None:
        """Serial fault-tolerant path (no timeout support — nothing can
        interrupt an in-process hang; pass a timeout to force the pool)."""
        unflushed = 0
        for key, item in pending:
            if self._cancelled():
                raise AbortRun("run cancelled")
            failures = 0
            while True:
                attempt = state.execs.get(key, 0)
                state.execs[key] = attempt + 1
                try:
                    if state.faults is not None:
                        state.faults.fire("tile", key, attempt)
                    value = fn(payload, item)
                except InjectedAbort:
                    raise
                except Exception as exc:
                    failures += 1
                    if failures > state.max_retries:
                        state.quarantine(key, f"{type(exc).__name__}: {exc}", failures)
                        break
                    state.outcome.retries += 1
                    if state.backoff_s:
                        time.sleep(state.backoff_s * (2 ** (failures - 1)))
                    continue
                state.results[key] = value
                if state.checkpoint is not None:
                    state.checkpoint.record(key, value)
                    unflushed += 1
                    if unflushed >= _CHECKPOINT_FLUSH_EVERY:
                        state.checkpoint.flush()
                        unflushed = 0
                break

    def _run_pooled(
        self,
        fn: Callable[[Any, Any], Any],
        payload: Any,
        pending: list[tuple[Any, Any]],
        timeout: float | None,
        state: "_RunState",
    ) -> bool:
        """Pooled fault-tolerant path; False when no pool is available."""
        chunk = self._resolve_chunk(len(pending))
        queue: deque[_Chunk] = deque()
        rank_of = {key: i for i, (key, _) in enumerate(pending)}
        for i in range(0, len(pending), chunk):
            items = pending[i : i + chunk]
            queue.append(_Chunk(len(queue), items, rank=rank_of[items[0][0]]))
        state.next_chunk_id = len(queue)
        state.rank_of = rank_of
        workers = max(min(self.jobs, len(queue)), 1)
        try:
            pool = self._obtain_pool(payload, state.faults, workers)
        except _POOL_ERRORS as exc:
            self._fallback(exc)
            return False

        # [chunk, AsyncResult, deadline] triples for in-flight chunks.
        # Submission is throttled to the worker count so a chunk starts
        # executing (and its timeout clock meaningfully begins) roughly
        # when submitted.
        active: list[list[Any]] = []
        snapshots: list[tuple[int, dict]] = []
        broken = True
        try:
            while queue or active:
                if self._cancelled():
                    # cooperative cancel between drain iterations: the
                    # caller's except-path flushes the checkpoint, and
                    # the (possibly mid-chunk) pool is retired as broken
                    raise AbortRun("run cancelled")
                now = time.monotonic()
                while queue and len(active) < workers:
                    eligible = next((c for c in queue if c.not_before <= now), None)
                    if eligible is None:
                        break
                    queue.remove(eligible)
                    wire = []
                    for key, item in eligible.items:
                        attempt = state.execs.get(key, 0)
                        state.execs[key] = attempt + 1
                        wire.append((key, attempt, item))
                    ar = pool.apply_async(
                        _run_chunk_ft, (fn, eligible.id, eligible.attempt, wire)
                    )
                    # the deadline clock starts at actual submission, not
                    # at the (possibly stale) top-of-loop timestamp
                    deadline = (
                        time.monotonic() + timeout if timeout is not None else None
                    )
                    active.append([eligible, ar, deadline])
                progressed = False
                for slot in list(active):
                    chunk_obj, ar, deadline = slot
                    if ar.ready():
                        active.remove(slot)
                        progressed = True
                        try:
                            part, snapshot = ar.get()
                        except InjectedAbort:
                            raise
                        except WorkerFailure as exc:
                            state.fail(chunk_obj, str(exc), queue, failing_key=exc.key)
                        except Exception as exc:
                            # worker died mid-chunk (OOM-kill, segfault):
                            # same treatment as an in-chunk failure
                            state.fail(
                                chunk_obj, f"{type(exc).__name__}: {exc}", queue
                            )
                        else:
                            for key, value in part:
                                state.results[key] = value
                                if state.checkpoint is not None:
                                    state.checkpoint.record(key, value)
                            if state.checkpoint is not None:
                                state.checkpoint.flush()
                            if snapshot is not None:
                                snapshots.append((chunk_obj.rank, snapshot))
                    elif deadline is not None and time.monotonic() > deadline:
                        # hung chunk: kill every worker (the only way to
                        # stop runaway C-level or sleeping code), requeue
                        # innocents unpenalized, charge the hung chunk.
                        # `time.monotonic()` is re-read here — the loop's
                        # `now` predates submission and slow ar.get()
                        # drains, so comparing against it could fire a
                        # full drain-iteration late.
                        progressed = True
                        state.outcome.timeouts += 1
                        self._retire_pool(pool, broken=True)
                        for other in active:
                            if other is not slot:
                                # unpenalized also means the execution
                                # ordinals bumped at submission are rolled
                                # back: the tiles never ran, and fault
                                # plans must see the same per-tile attempt
                                # sequence a serial run produces
                                for key, _ in other[0].items:
                                    state.execs[key] -= 1
                                other[0].not_before = 0.0
                                queue.append(other[0])
                        active.clear()
                        state.fail(chunk_obj, f"timeout after {timeout:g}s", queue)
                        pool = self._obtain_pool(payload, state.faults, workers)
                        break
                if not progressed:
                    time.sleep(0.005)
            broken = False
        finally:
            self._retire_pool(pool, broken)
        for _, snapshot in sorted(snapshots, key=lambda pair: pair[0]):
            state.registry.merge(snapshot)
        return True


@dataclass
class _RunState:
    """Mutable bookkeeping shared by the inline and pooled runners."""

    results: dict[Any, Any]
    outcome: ExecutionOutcome
    registry: Any
    faults: FaultPlan | None
    checkpoint: Checkpoint | None
    max_retries: int
    backoff_s: float
    # per-key execution ordinals (drives deterministic fault injection)
    execs: dict[Any, int] = field(default_factory=dict)
    next_chunk_id: int = 0
    rank_of: dict[Any, int] = field(default_factory=dict)

    def quarantine(self, key: Any, error: str, attempts: int) -> None:
        self.outcome.quarantined.append(QuarantinedTile(key, error, attempts))
        log.warning("quarantined tile %s after %d attempts: %s", key, attempts, error)

    def _new_chunk(self, items: list[tuple[Any, Any]]) -> _Chunk:
        chunk = _Chunk(self.next_chunk_id, items, rank=self.rank_of[items[0][0]])
        self.next_chunk_id += 1
        return chunk

    def fail(
        self,
        chunk: _Chunk,
        error: str,
        queue: deque,
        failing_key: Any = None,
    ) -> None:
        """Retry, bisect, or quarantine a failed chunk attempt."""
        chunk.attempt += 1
        if chunk.attempt <= self.max_retries:
            self.outcome.retries += 1
            if self.backoff_s:
                chunk.not_before = time.monotonic() + self.backoff_s * (
                    2 ** (chunk.attempt - 1)
                )
            queue.append(chunk)
            return
        if len(chunk.items) == 1:
            self.quarantine(chunk.items[0][0], error, chunk.attempt)
            return
        # retries exhausted on a multi-tile chunk: isolate the poison.
        # A known failing key splits off directly; a hang (no key)
        # bisects — each half gets a fresh retry budget.
        self.outcome.bisections += 1
        if failing_key is not None and any(k == failing_key for k, _ in chunk.items):
            halves = (
                [(k, it) for k, it in chunk.items if k == failing_key],
                [(k, it) for k, it in chunk.items if k != failing_key],
            )
        else:
            mid = len(chunk.items) // 2
            halves = (chunk.items[:mid], chunk.items[mid:])
        for half in halves:
            if half:
                queue.append(self._new_chunk(half))
