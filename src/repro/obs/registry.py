"""Process-wide metrics registry: counters, gauges, timers, histograms.

The registry is the accounting half of the observability layer (the
tracing half lives in :mod:`repro.obs.trace`).  Design constraints, in
order:

* **Cheap when disabled.**  Every pipeline hot path is instrumented
  unconditionally, so a disabled registry must cost one attribute check
  per event — ``inc``/``gauge``/``observe`` return immediately and
  :meth:`MetricsRegistry.timer` hands back a shared no-op context
  manager.  Nothing is allocated until the registry is enabled.
* **Deterministic under parallelism.**  Worker processes accumulate
  into their own process-global registry; the pool ships each chunk's
  snapshot back with the results and the parent merges them **in
  submission order** (see :meth:`merge`).  Counter merging is integer
  addition and timer merging is (count, total, min, max) — both
  order-independent — so a ``jobs=N`` run reports counter values
  identical to ``jobs=1``.  Only wall-clock *timings* may differ.
* **JSON-able snapshots.**  :meth:`snapshot` returns plain sorted
  dicts, ready for a :class:`~repro.obs.manifest.RunManifest` or a
  benchmark's ``extra_info``.
* **Exact under threads.**  The daemon records from its dispatcher and
  request-handler threads at once, so every enabled read-modify-write,
  every read, and :meth:`merge`/:meth:`snapshot`/:meth:`reset` run
  under one lock.  The disabled early return comes first and never
  takes it.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

# Default histogram bucket upper bounds (seconds when timing, but the
# scale is generic): roughly base-sqrt(10) steps from 1 ms to 100 s.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0,
)


@dataclass
class TimerStat:
    """Aggregate of observed durations: count/total/min/max (+ mean)."""

    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    def merge(self, other: "TimerStat | dict") -> None:
        if isinstance(other, dict):
            other = TimerStat(
                count=other["count"], total=other["total"],
                min=other["min"], max=other["max"],
            )
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def to_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max,
        }


@dataclass
class Histogram:
    """Fixed-bound bucket counts; the last bucket is the overflow."""

    bounds: tuple[float, ...] = DEFAULT_BUCKETS
    counts: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def merge(self, counts: list[int]) -> None:
        for i, n in enumerate(counts):
            self.counts[i] += n

    def to_dict(self) -> dict[str, Any]:
        return {"bounds": list(self.bounds), "counts": list(self.counts)}


class _NullTimer:
    """Shared do-nothing context manager for the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_TIMER = _NullTimer()


class _Timer:
    __slots__ = ("_registry", "_name", "_t0")

    def __init__(self, registry: "MetricsRegistry", name: str):
        self._registry = registry
        self._name = name

    def __enter__(self) -> "_Timer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        self._registry.observe(self._name, time.perf_counter() - self._t0)
        return False


class MetricsRegistry:
    """Named counters, gauges, timers, and histograms for one process."""

    def __init__(self, enabled: bool = False):
        self._enabled = enabled
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._timers: dict[str, TimerStat] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> "MetricsRegistry":
        self._enabled = True
        return self

    def disable(self) -> "MetricsRegistry":
        self._enabled = False
        return self

    def reset(self) -> None:
        """Drop all recorded data (the enabled flag is unchanged)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._timers.clear()
            self._histograms.clear()

    # -- recording ------------------------------------------------------
    def inc(self, name: str, n: int = 1) -> None:
        if not self._enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        if not self._enabled:
            return
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, seconds: float) -> None:
        if not self._enabled:
            return
        with self._lock:
            stat = self._timers.get(name)
            if stat is None:
                stat = self._timers[name] = TimerStat()
            stat.observe(seconds)

    def observe_hist(
        self, name: str, value: float, bounds: tuple[float, ...] | None = None
    ) -> None:
        if not self._enabled:
            return
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram(bounds or DEFAULT_BUCKETS)
            hist.observe(value)

    def timer(self, name: str) -> "_Timer | _NullTimer":
        """Context manager timing its body into timer ``name``."""
        if not self._enabled:
            return _NULL_TIMER
        return _Timer(self, name)

    # -- reading --------------------------------------------------------
    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def gauge_value(self, name: str) -> float | None:
        with self._lock:
            return self._gauges.get(name)

    def timer_stat(self, name: str) -> TimerStat | None:
        with self._lock:
            return self._timers.get(name)

    def timer_names(self) -> Iterator[str]:
        with self._lock:
            return iter(sorted(self._timers))

    def snapshot(self) -> dict[str, Any]:
        """A plain, JSON-able, deterministically ordered copy."""
        with self._lock:
            return {
                "counters": {k: self._counters[k] for k in sorted(self._counters)},
                "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
                "timers": {k: self._timers[k].to_dict() for k in sorted(self._timers)},
                "histograms": {k: self._histograms[k].to_dict() for k in sorted(self._histograms)},
            }

    def merge(self, snapshot: dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` (e.g. from a pool worker) into this
        registry.

        Counters and histograms add; timers merge (count, total, min,
        max); gauges are last-write-wins, so callers must merge worker
        snapshots in submission order for gauge determinism.  Merging is
        unconditional — the parent decided to collect the snapshot, so
        it lands even if this registry is currently disabled.
        """
        with self._lock:
            for name, n in snapshot.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + n
            self._gauges.update(snapshot.get("gauges", {}))
            for name, stats in snapshot.get("timers", {}).items():
                stat = self._timers.get(name)
                if stat is None:
                    stat = self._timers[name] = TimerStat()
                stat.merge(stats)
            for name, hist in snapshot.get("histograms", {}).items():
                mine = self._histograms.get(name)
                if mine is None:
                    mine = self._histograms[name] = Histogram(tuple(hist["bounds"]))
                mine.merge(hist["counts"])


# The process-wide registry every instrumented module records into.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry (disabled until someone enables it)."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one.

    Mostly for tests that want an isolated registry without mutating
    the shared instance's state.
    """
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous
