"""DFM verification as a service: resident layouts, warm pools, shared
results.

The one-shot CLI re-pays layout parse, flatten, canonicalization,
worker-pool spin-up, and cache warm-up on every invocation.  This
package keeps all of that resident in a long-lived daemon: layouts stay
loaded (:mod:`~repro.service.session`), the worker pool stays warm
(:class:`~repro.parallel.TileExecutor` in persistent mode), and
per-tile results accumulate in a content-addressed store shared across
runs and clients (:mod:`~repro.service.store`) — so the steady-state
cost of "verify the cell I just edited" is the dirty tiles, not the
chip.

Entry points:

* ``repro serve`` / ``repro submit`` — the CLI daemon and client;
* :class:`VerificationService` + :class:`ServiceClient` — the same
  engine in-process, no socket (see :func:`repro.api.make_service`);
* :class:`SocketClient` — programmatic access to a running daemon.

Every name resolves on first access (PEP 562), like the top-level
package: a pure client (``repro submit``, :class:`SocketClient`) loads
the wire and its typed errors, not the engine, the worker pool or the
layout store that only the daemon side uses.
"""

from importlib import import_module

# Lazy exports: name -> module it is re-exported from.  Resolved on first
# attribute access, after which the value is cached in module globals.
_LAZY = {
    "errors": "repro.service.errors",
    **dict.fromkeys(
        ("DEFAULT_STATE_FILE", "DaemonUnreachableError", "ServiceClient", "SocketClient"),
        "repro.service.client",
    ),
    "VerificationService": "repro.service.core",
    "ServiceDaemon": "repro.service.daemon",
    **dict.fromkeys(
        (
            "BadRequestError",
            "Job",
            "JobState",
            "Priority",
            "QueueFullError",
            "ServiceClosedError",
            "ServiceError",
            "UnknownJobError",
        ),
        "repro.service.jobs",
    ),
    "PriorityJobQueue": "repro.service.queue",
    **dict.fromkeys(("LayoutSession", "SessionKey", "SessionManager"), "repro.service.session"),
    **dict.fromkeys(("ResultStore", "StoreView"), "repro.service.store"),
}

__all__ = [*_LAZY]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(module_name)
    # a submodule export (``errors``) is the module itself
    value = module if module_name == f"{__name__}.{name}" else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
