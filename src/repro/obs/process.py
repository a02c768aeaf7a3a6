"""Whole-process resource accounting.

Peak resident set size is the one number the out-of-core work is
judged by: the mmap-backed store path must hold RSS roughly flat while
the chip area grows, where the in-RAM path grows linearly.  The gauge
is sampled once, just before the run manifest is collected, so every
``--metrics-out`` manifest (and every bench ``extra_info``) carries it.

The peak is a high-water mark for the whole process lifetime —
comparisons between code paths must run each path in its own process
(the benches and the CI smoke drive the CLI as subprocesses for exactly
this reason).  On Linux it is read from ``VmHWM`` in
``/proc/self/status``, which belongs to the current program image:
``ru_maxrss`` carries the parent's high-water mark across fork+exec, so
a small CLI child of a large parent would report the parent's peak.
"""

from __future__ import annotations

import sys

from repro.obs import names
from repro.obs.registry import MetricsRegistry, get_registry


def peak_rss_bytes() -> int | None:
    """Peak resident set size of this process, in bytes.

    Reads ``VmHWM`` from ``/proc/self/status`` where that file exists,
    and falls back to the stdlib ``resource`` module elsewhere, whose
    ``ru_maxrss`` unit is kilobytes on Linux and bytes on macOS.
    Returns ``None`` where neither is available (non-POSIX platforms).
    """
    try:
        with open("/proc/self/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) * 1024  # reported in kB
    except OSError:
        pass
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX only
        return None
    peak = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        return peak
    return peak * 1024


def sample_peak_rss(registry: MetricsRegistry | None = None) -> int | None:
    """Gauge this process's peak RSS into the registry.

    Returns the sampled value (bytes), or ``None`` — and gauges
    nothing — on platforms without ``resource``.
    """
    peak = peak_rss_bytes()
    if peak is not None:
        (registry or get_registry()).gauge(names.RUN_PEAK_RSS_BYTES, peak)
    return peak
