"""Shared flow analyses for the project-wide rules (RL008–RL010).

Three walkers live here, all pure-AST (the analyzed code is never
imported), all deliberately path-*insensitive* except where the rule
demands otherwise:

* **Determinism taints** — the RL002 source catalogue (wall clock,
  process-global ``random``, ``id()``-keyed lookups, bare set
  iteration) factored out of the rule so :mod:`tools.repro_lint.project`
  can record the same taints per function and RL010 can propagate them
  through the call graph.
* **Class concurrency walker** — for a class that constructs a
  ``threading`` lock, every ``self.<attr>`` access and every call is
  recorded together with whether a ``with self.<lock>`` block was held
  at that point.  RL008 consumes the events; the facts extractor
  serializes the subset the cross-class deadlock check needs.
* **Resource acquire/release walker** — a path-sensitive look at
  ``x = SharedMemory(...)``-style acquisitions: safe when with-managed,
  released in a ``finally``, or ownership-transferred (returned, stored,
  passed along); otherwise RL009 flags the leaking path.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

# ---------------------------------------------------------------------------
# determinism taints (the RL002 source catalogue)

WALL_CLOCK = frozenset({"time", "time_ns"})
DATETIME_NOW = frozenset({"now", "utcnow", "today"})
GLOBAL_RANDOM = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "getrandbits",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "normalvariate",
        "expovariate",
        "betavariate",
        "triangular",
    }
)


def names_imported_from(tree: ast.AST, module: str) -> frozenset[str]:
    """Local names bound by ``from <module> import ...`` anywhere in ``tree``."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            out.update(alias.asname or alias.name for alias in node.names)
    return frozenset(out)


def is_id_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
    )


def is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"set", "frozenset"}
    )


@dataclass(frozen=True)
class Taint:
    """One determinism hazard: where, what kind, and the human message."""

    node: ast.AST
    kind: str  # wall-clock | global-random | id-key | set-iteration
    message: str


def iter_taints(root: ast.AST, random_imports: frozenset[str]) -> Iterator[Taint]:
    """Every RL002-class determinism taint in ``root`` (full subtree walk).

    The messages are the canonical RL002 wording; RL010 appends the
    interprocedural chain that made a non-worker function reachable.
    """
    for node in ast.walk(root):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                module, attr = func.value.id, func.attr
                if module == "time" and attr in WALL_CLOCK:
                    yield Taint(
                        node,
                        "wall-clock",
                        f"time.{attr}() reads the wall clock in worker code; "
                        "results must not depend on when a tile ran "
                        "(time.perf_counter() durations fed to timers are fine)",
                    )
                elif module in {"datetime", "date"} and attr in DATETIME_NOW:
                    yield Taint(
                        node,
                        "wall-clock",
                        f"{module}.{attr}() reads the wall clock in worker code",
                    )
                elif module == "random" and attr in GLOBAL_RANDOM:
                    yield Taint(
                        node,
                        "global-random",
                        f"random.{attr}() uses the process-global generator, "
                        "which is seeded per worker; pass a seeded "
                        "random.Random instead",
                    )
            elif isinstance(func, ast.Name) and func.id in random_imports:
                yield Taint(
                    node,
                    "global-random",
                    f"{func.id}() from the random module uses the "
                    "process-global generator; pass a seeded random.Random "
                    "instead",
                )
        elif isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None and is_id_call(key):
                    yield Taint(
                        key,
                        "id-key",
                        "id()-keyed dict is address-dependent and differs "
                        "between workers; key by a stable identity",
                    )
        elif isinstance(node, ast.DictComp):
            if is_id_call(node.key):
                yield Taint(
                    node.key,
                    "id-key",
                    "id()-keyed dict is address-dependent and differs "
                    "between workers; key by a stable identity",
                )
        elif isinstance(node, ast.Compare):
            if is_id_call(node.left) and any(
                isinstance(op, (ast.In, ast.NotIn)) for op in node.ops
            ):
                yield Taint(
                    node.left,
                    "id-key",
                    "id()-keyed membership test is address-dependent and "
                    "differs between workers; key by a stable identity",
                )
        elif isinstance(node, ast.Subscript):
            if is_id_call(node.slice):
                yield Taint(
                    node.slice,
                    "id-key",
                    "id()-keyed lookup is address-dependent and differs "
                    "between workers; key by a stable identity",
                )
        elif isinstance(node, (ast.For, ast.comprehension)):
            if is_set_expr(node.iter):
                yield Taint(
                    node.iter,
                    "set-iteration",
                    "iteration over a set has no deterministic order; "
                    "wrap in sorted(...) before iterating in worker code",
                )


# ---------------------------------------------------------------------------
# class concurrency walker (RL008)

#: ``self.X = threading.<factory>(...)`` makes X a lock attribute.
LOCK_FACTORIES = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
)

#: receiver-method calls that mutate a container in place; a call
#: ``self.X.append(...)`` counts as a *write* to X.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "add",
        "extend",
        "insert",
        "remove",
        "discard",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "move_to_end",
        "appendleft",
        "popleft",
        "sort",
        "reverse",
    }
)

#: methods whose unlocked accesses are always fine: construction and
#: teardown run before/after the object is shared between threads.
EXEMPT_METHODS = frozenset({"__init__", "__post_init__", "__del__"})


@dataclass(frozen=True)
class AttrEvent:
    """One ``self.<attr>`` access inside a method (or nested closure)."""

    attr: str
    write: bool
    locked: bool
    method: str
    node: ast.AST


@dataclass(frozen=True)
class CallEvent:
    """One call inside a method, with the lock state at the call site.

    ``kind`` mirrors :class:`tools.repro_lint.project.CallSite`:
    ``self`` (``self.m()``), ``selfattr`` (``self.x.m()``), ``typed``
    (``v.m()`` where ``v = ClassName(...)`` locally), ``name``
    (``f()``), ``dotted`` (``mod.f()``).
    """

    kind: str
    target: str
    attr: str
    locked: bool
    method: str
    node: ast.AST


@dataclass
class ClassLockInfo:
    """Everything RL008 needs to know about one lock-owning class."""

    node: ast.ClassDef
    name: str
    lock_attrs: set[str] = field(default_factory=set)
    attr_types: dict[str, str] = field(default_factory=dict)
    methods: set[str] = field(default_factory=set)
    #: methods whose body acquires one of the class's own locks
    locking_methods: set[str] = field(default_factory=set)
    events: list[AttrEvent] = field(default_factory=list)
    calls: list[CallEvent] = field(default_factory=list)

    def guarded_attrs(self) -> set[str]:
        """Attributes ever *written* under the lock (outside ``__init__``)."""
        return {
            e.attr
            for e in self.events
            if e.write and e.locked and e.attr not in self.lock_attrs
        }

    def locked_helper_methods(self) -> set[str]:
        """Private methods that only ever run with the lock already held.

        A method qualifies when every intra-class ``self.m()`` call site
        is under the lock (directly or inside another qualifying
        helper).  Computed to a fixed point so helpers calling helpers
        resolve.  Public methods never qualify: an external caller can
        always invoke them unlocked.
        """
        sites: dict[str, list[CallEvent]] = {}
        for call in self.calls:
            if call.kind == "self" and call.target in self.methods:
                sites.setdefault(call.target, []).append(call)
        helpers = {
            name
            for name in sites
            if name.startswith("_") and not name.startswith("__")
        }
        locked = set(helpers)
        changed = True
        while changed:
            changed = False
            for name in list(locked):
                ok = all(
                    c.locked or c.method in locked for c in sites[name]
                )
                if not ok:
                    locked.discard(name)
                    changed = True
        return locked


def _is_self_attr(node: ast.expr) -> str | None:
    """``self.X`` -> ``"X"``, anything else -> None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _lock_factory_call(node: ast.expr) -> bool:
    """Is this expression a ``threading.Lock()``-style constructor call?"""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in LOCK_FACTORIES
    if isinstance(func, ast.Attribute):
        return func.attr in LOCK_FACTORIES
    return False


def class_name_call(node: ast.expr | None) -> str | None:
    """``ClassName(...)`` / ``mod.ClassName(...)`` -> ``"ClassName"``."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    name = None
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    if name and name[:1].isupper():
        return name
    return None


def single_assignment(
    node: ast.AST,
) -> tuple[ast.expr | None, ast.expr | None]:
    """(target, value) for a one-target Assign or a valued AnnAssign."""
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        return node.targets[0], node.value
    if isinstance(node, ast.AnnAssign) and node.value is not None:
        return node.target, node.value
    return None, None


def analyze_class(node: ast.ClassDef) -> ClassLockInfo | None:
    """Run the concurrency walker over one class.

    Returns None when the class constructs no lock — RL008 has nothing
    to say about it.  Nested (non-method) functions are walked as
    separate contexts starting *unlocked*: a closure captured by another
    thread must take the lock itself, and gets credit when it does.
    """
    info = ClassLockInfo(node=node, name=node.name)
    methods = [
        item
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    info.methods = {m.name for m in methods}

    # pass 1: lock attributes and attribute types, from every method
    for method in methods:
        for sub in ast.walk(method):
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(sub, ast.Assign):
                targets, value = list(sub.targets), sub.value
            elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                targets, value = [sub.target], sub.value
            for target in targets:
                attr = _is_self_attr(target)
                if attr is None or value is None:
                    continue
                if _lock_factory_call(value):
                    info.lock_attrs.add(attr)
                else:
                    cls_name = class_name_call(value)
                    if cls_name is not None:
                        info.attr_types.setdefault(attr, cls_name)
    if not info.lock_attrs:
        return None

    # pass 2: lock-state walk of every method body
    for method in methods:
        local_types: dict[str, str] = {}
        for sub in ast.walk(method):
            target, value = single_assignment(sub)
            if isinstance(target, ast.Name):
                cls_name = class_name_call(value)
                if cls_name is not None:
                    local_types[target.id] = cls_name
        _walk_lock_context(
            method.body, info, method.name, local_types, locked=False
        )
    return info


def _acquires_own_lock(item: ast.withitem, info: ClassLockInfo) -> bool:
    attr = _is_self_attr(item.context_expr)
    return attr is not None and attr in info.lock_attrs


def _walk_lock_context(
    body: list[ast.stmt],
    info: ClassLockInfo,
    method: str,
    local_types: dict[str, str],
    locked: bool,
) -> None:
    for stmt in body:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            now_locked = locked or any(
                _acquires_own_lock(item, info) for item in stmt.items
            )
            if now_locked and not locked:
                info.locking_methods.add(method)
            for item in stmt.items:
                _record_expr(item.context_expr, info, method, local_types, locked)
            _walk_lock_context(stmt.body, info, method, local_types, now_locked)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # a closure: separate execution context, starts unlocked
            _walk_lock_context(stmt.body, info, method, local_types, locked=False)
        elif isinstance(stmt, ast.If):
            _record_expr(stmt.test, info, method, local_types, locked)
            _walk_lock_context(stmt.body, info, method, local_types, locked)
            _walk_lock_context(stmt.orelse, info, method, local_types, locked)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            _record_expr(stmt.iter, info, method, local_types, locked)
            _record_store_target(stmt.target, info, method, locked)
            _walk_lock_context(stmt.body, info, method, local_types, locked)
            _walk_lock_context(stmt.orelse, info, method, local_types, locked)
        elif isinstance(stmt, ast.While):
            _record_expr(stmt.test, info, method, local_types, locked)
            _walk_lock_context(stmt.body, info, method, local_types, locked)
            _walk_lock_context(stmt.orelse, info, method, local_types, locked)
        elif isinstance(stmt, ast.Try):
            _walk_lock_context(stmt.body, info, method, local_types, locked)
            for handler in stmt.handlers:
                _walk_lock_context(handler.body, info, method, local_types, locked)
            _walk_lock_context(stmt.orelse, info, method, local_types, locked)
            _walk_lock_context(stmt.finalbody, info, method, local_types, locked)
        else:
            for sub in ast.walk(stmt):
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    _walk_lock_context(
                        sub.body, info, method, local_types, locked=False
                    )
            _record_stmt(stmt, info, method, local_types, locked)


def _record_stmt(
    stmt: ast.stmt,
    info: ClassLockInfo,
    method: str,
    local_types: dict[str, str],
    locked: bool,
) -> None:
    for node in _shallow_walk(stmt):
        if isinstance(node, ast.Attribute):
            attr = _is_self_attr(node)
            if attr is not None:
                write = isinstance(node.ctx, (ast.Store, ast.Del))
                info.events.append(
                    AttrEvent(attr, write, locked, method, node)
                )
        elif isinstance(node, ast.Subscript):
            # self.X[k] = v mutates X even though X itself is a Load
            attr = _is_self_attr(node.value)
            if attr is not None and isinstance(node.ctx, (ast.Store, ast.Del)):
                info.events.append(AttrEvent(attr, True, locked, method, node))
        elif isinstance(node, ast.Call):
            _record_call(node, info, method, local_types, locked)


def _record_expr(
    expr: ast.expr,
    info: ClassLockInfo,
    method: str,
    local_types: dict[str, str],
    locked: bool,
) -> None:
    _record_stmt(ast.Expr(value=expr), info, method, local_types, locked)


def _record_store_target(
    target: ast.expr, info: ClassLockInfo, method: str, locked: bool
) -> None:
    for node in ast.walk(target):
        if isinstance(node, ast.Attribute):
            attr = _is_self_attr(node)
            if attr is not None:
                info.events.append(AttrEvent(attr, True, locked, method, node))


def _shallow_walk(stmt: ast.stmt) -> Iterator[ast.AST]:
    """Walk a statement without descending into nested function bodies
    (those are walked separately with a fresh, unlocked context)."""
    stack: list[ast.AST] = [stmt]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _record_call(
    node: ast.Call,
    info: ClassLockInfo,
    method: str,
    local_types: dict[str, str],
    locked: bool,
) -> None:
    func = node.func
    if isinstance(func, ast.Name):
        info.calls.append(
            CallEvent("name", func.id, "", locked, method, node)
        )
        return
    if not isinstance(func, ast.Attribute):
        return
    value = func.value
    if isinstance(value, ast.Name):
        if value.id == "self":
            info.calls.append(
                CallEvent("self", func.attr, "", locked, method, node)
            )
            # a mutator call on self.X would be self.X.m(); handled below
        elif value.id in local_types:
            info.calls.append(
                CallEvent(
                    "typed", func.attr, local_types[value.id], locked, method, node
                )
            )
        else:
            info.calls.append(
                CallEvent("dotted", func.attr, value.id, locked, method, node)
            )
        return
    attr = _is_self_attr(value)
    if attr is not None:
        # self.X.m(...): a call through an attribute; a mutator method
        # is also a write event on X
        info.calls.append(
            CallEvent("selfattr", func.attr, attr, locked, method, node)
        )
        if func.attr in MUTATOR_METHODS:
            info.events.append(AttrEvent(attr, True, locked, method, node))


# ---------------------------------------------------------------------------
# resource acquire/release walker (RL009)

#: constructor-call names whose result owns an OS resource
ACQUIRE_CALLS = frozenset(
    {
        "SharedMemory",
        "mmap",
        "Pool",
        "create_connection",
        "socket",
        "socketpair",
        "fdopen",
        "open",
    }
)

#: receiver methods that count as releasing the resource
RELEASE_METHODS = frozenset(
    {"close", "unlink", "terminate", "shutdown", "release"}
)


@dataclass(frozen=True)
class ResourceLeak:
    """One acquisition that fails to reach a release on some path."""

    node: ast.AST
    var: str
    factory: str
    reason: str  # exception-path | success-path-only | never-released


def _call_factory(node: ast.expr) -> str | None:
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name) and func.id in ACQUIRE_CALLS:
        return func.id
    if isinstance(func, ast.Attribute) and func.attr in ACQUIRE_CALLS:
        return func.attr
    return None


def _names_in(node: ast.AST | None) -> set[str]:
    if node is None:
        return set()
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _build_parents(root: ast.AST) -> dict[ast.AST, ast.AST]:
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(root):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _ancestors(
    node: ast.AST, parents: dict[ast.AST, ast.AST]
) -> Iterator[ast.AST]:
    while node in parents:
        node = parents[node]
        yield node


def _in_body(stmts: list[ast.stmt], node: ast.AST) -> bool:
    for stmt in stmts:
        for sub in ast.walk(stmt):
            if sub is node:
                return True
    return False


def find_resource_leaks(scope: ast.AST) -> Iterator[ResourceLeak]:
    """Path-check every local ``x = <factory>(...)`` acquisition in one
    function scope (nested functions are separate scopes — pass each).

    The verdicts, in priority order:

    * with-managed (``with x`` / ``with closing(x)``) — safe;
    * acquired inside a ``try`` with handlers, with more work after the
      acquisition in the same ``try`` body, and no release in any
      handler or ``finally`` — the exception path leaks even when the
      success path transfers ownership (a shared-memory segment
      created, then filled by a statement that raises);
    * released in a ``finally`` — safe;
    * ownership escapes (returned, yielded, stored into an attribute or
      container, passed to another call) — the new owner releases;
    * released only in straight-line code — the success path is covered
      but any exception in between leaks;
    * never released at all.
    """
    parents = _build_parents(scope)
    acquisitions: list[tuple[str, str, ast.Assign]] = []
    for node in _walk_scope_only(scope):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            factory = _call_factory(node.value)
            if factory is not None:
                acquisitions.append((node.targets[0].id, factory, node))

    for var, factory, assign in acquisitions:
        managed = False
        escaped = False
        releases: list[ast.Call] = []
        for node in _walk_scope_only(scope):
            if node is assign:
                continue
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Name) and expr.id == var:
                        managed = True
                    elif isinstance(expr, ast.Call) and var in _names_in(expr):
                        managed = True
            elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                if var in _names_in(getattr(node, "value", None)):
                    escaped = True
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == var
                ):
                    if func.attr in RELEASE_METHODS:
                        releases.append(node)
                    continue
                arg_names: set[str] = set()
                for arg in node.args:
                    arg_names |= _names_in(arg)
                for kw in node.keywords:
                    arg_names |= _names_in(kw.value)
                if var in arg_names:
                    escaped = True
            elif isinstance(node, ast.Assign) and node is not assign:
                if var in _names_in(node.value):
                    escaped = True

        if managed:
            continue

        released_in_finally = False
        released_in_handler = False
        for rel in releases:
            for anc in _ancestors(rel, parents):
                if isinstance(anc, ast.Try):
                    if _in_body(anc.finalbody, rel):
                        released_in_finally = True
                    if any(_in_body(h.body, rel) for h in anc.handlers):
                        released_in_handler = True

        # the exception-path check: acquired inside a guarded try with
        # more statements following, and no cleanup on the error paths
        for anc in _ancestors(assign, parents):
            if not isinstance(anc, ast.Try) or not anc.handlers:
                continue
            if not _in_body(anc.body, assign):
                continue
            holder = next(
                (s for s in anc.body if _in_body([s], assign)), None
            )
            has_more = holder is not None and anc.body.index(holder) < len(anc.body) - 1
            handler_releases = released_in_handler or any(
                _release_of(var, h.body) for h in anc.handlers
            )
            finally_releases = released_in_finally or _release_of(
                var, anc.finalbody
            )
            if has_more and not handler_releases and not finally_releases:
                yield ResourceLeak(
                    assign,
                    var,
                    factory,
                    "exception-path",
                )
                break
        else:
            if released_in_finally:
                continue
            if escaped:
                continue
            if releases:
                yield ResourceLeak(assign, var, factory, "success-path-only")
            else:
                yield ResourceLeak(assign, var, factory, "never-released")


def _release_of(var: str, stmts: list[ast.stmt]) -> bool:
    for stmt in stmts:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == var
                and node.func.attr in RELEASE_METHODS
            ):
                return True
    return False


def _walk_scope_only(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk one function scope without entering nested functions."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
