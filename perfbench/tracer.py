"""Spans and work counters recorded from outside the program.

:class:`Tracer` wraps the public entry point of each layer at every
attribute its callers look it up through: a function imported by name
into another module is wrapped there too, and a method is wrapped on its
class.  ``repro`` itself is not edited.  Each wrapper records one span
(name, thread, request id, start, end, self time) on a per-thread parent
stack, so a layer's self time is its duration minus the time its child
spans cover on the same thread.  Spans stay in memory until
:meth:`Tracer.dump`.

Counters come from public objects only: the router's ``n_searched`` /
``n_replayed`` around ``route_design``, and the optional ``stats=`` dicts
of ``anneal_placement`` and ``repair_for_die`` (passed only when the
caller passed none).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict

from repro.netlist import canonical
from repro.pnr import defects, emit, flow, incremental, partition, place, techmap, timing
from repro.pnr.parallel import TaskPool
from repro.pnr.route import Router
from repro.service.session import EditSession
from repro.service.service import CompileService
from repro.service.store import ArtifactStore

#: Functions traced, as (span name, defining module, attribute).
FUNCTIONS = (
    ("netlist.canonical_hash", canonical, "canonical_hash"),
    ("pnr.techmap.map_netlist", techmap, "map_netlist"),
    ("pnr.place.initial_placement", place, "initial_placement"),
    ("pnr.place.anneal_placement", place, "anneal_placement"),
    ("pnr.timing.analyze_timing", timing, "analyze_timing"),
    ("pnr.emit.emit_design", emit, "emit_design"),
    ("pnr.partition.partition_design", partition, "partition_design"),
    ("pnr.partition.compile_sharded", partition, "compile_sharded"),
    ("pnr.flow.compile_to_fabric", flow, "compile_to_fabric"),
    ("pnr.flow.verify_equivalence", flow, "verify_equivalence"),
    ("pnr.incremental.compile_incremental", incremental, "compile_incremental"),
    ("pnr.defects.repair_for_die", defects, "repair_for_die"),
)

#: Methods traced, as (span name, class, attribute).
METHODS = (
    ("pnr.route.route_design", Router, "route_design"),
    ("pnr.flow.verify_equivalence", partition.ShardedPnrResult, "verify"),
    ("service.store.get", ArtifactStore, "get"),
    ("service.store.put", ArtifactStore, "put"),
    ("service.submit", CompileService, "submit"),
    ("service.submit", CompileService, "submit_for_die"),
    ("service.submit", CompileService, "recompile"),
    # ``compile`` is ``submit(...).result()``: its self time is the wait
    # for a pool job, kept out of the self time of the caller around it.
    ("service.compile.wait", CompileService, "compile"),
    ("service.session.apply", EditSession, "apply"),
)


class Tracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- request identity ----------------------------------------------
    def set_request(self, request_id) -> None:
        """Tag the spans this thread records from now on."""
        self._local.request = request_id

    def _request(self):
        return getattr(self._local, "request", None)

    # -- spans ----------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self._stack().append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        name, start, child = frame
        duration = end - start
        if stack:
            stack[-1][2] += duration
        parent = stack[-1][0] if stack else None
        with self._lock:
            self.self_s[name] += duration - child
            self.calls[name] += 1
            self.spans.append((
                name, parent, threading.get_ident(), self._request(),
                start - self._t0, end - self._t0, duration - child,
            ))

    def count(self, name: str, by: float = 1) -> None:
        with self._lock:
            self.counts[name] += by

    def _wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            after = hook(tracer, args, kwargs) if hook is not None else None
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                tracer._exit(frame)
                if after is not None:
                    after(None, e)
                raise
            tracer._exit(frame)
            if after is not None:
                after(result, None)
            return result

        return traced

    # -- installation ---------------------------------------------------
    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> Tracer:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "repro" or n.startswith("repro.")]
        for name, module, attr in FUNCTIONS:
            original = getattr(module, attr)
            traced = self._wrap(name, original, _HOOKS.get(name))
            # Every module that imported the function by name looks it
            # up in its own namespace: wrap it there as well.
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, traced)
        for name, cls, attr in METHODS:
            self._patch(cls, attr, self._wrap(name, cls.__dict__[attr], _HOOKS.get(name)))
        # Pool jobs inherit the submitting thread's request id, so spans
        # a job records on a worker thread belong to its request.
        self._patch(TaskPool, "submit", _propagating_submit(self, TaskPool.submit))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ---------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write every span (and the counters) as one JSON document."""
        fields = ("name", "parent", "thread", "request", "start_s", "end_s", "self_s")
        doc = {
            "fields": fields,
            "spans": self.spans,
            "counts": dict(self.counts),
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _propagating_submit(tracer: Tracer, submit):
    @functools.wraps(submit)
    def traced_submit(pool, fn, *args, **kwargs):
        request = tracer._request()

        def run(*a, **kw):
            tracer.set_request(request)
            return fn(*a, **kw)

        return submit(pool, run, *args, **kwargs)

    return traced_submit


# -- counter hooks: called before the span, return an after-callback ----
def _anneal_hook(tracer, args, kwargs):
    if kwargs.get("stats") is not None:
        return None
    stats = kwargs["stats"] = {}

    def after(result, error):
        tracer.count("pnr.place.anneal_placement.moves_evaluated", stats.get("evaluated", 0))
        tracer.count("pnr.place.anneal_placement.moves_accepted", stats.get("accepted", 0))

    return after


def _route_hook(tracer, args, kwargs):
    router = args[0]
    searched, replayed = router.n_searched, router.n_replayed

    def after(result, error):
        tracer.count("pnr.route.route_design.nets_searched", router.n_searched - searched)
        tracer.count("pnr.route.route_design.nets_replayed", router.n_replayed - replayed)

    return after


def _repair_hook(tracer, args, kwargs):
    stats = None
    if kwargs.get("stats") is None:
        stats = kwargs["stats"] = {}

    def after(result, error):
        if isinstance(error, defects.RepairFallback):
            tracer.count("pnr.defects.repair_for_die.fallbacks")
        elif error is None and stats is not None:
            tracer.count("pnr.defects.repair_for_die.gates_moved", stats.get("moved", 0))

    return after


def _incremental_hook(tracer, args, kwargs):
    def after(result, error):
        if isinstance(error, incremental.IncrementalFallback):
            tracer.count("pnr.incremental.compile_incremental.fallbacks")

    return after


def _blob_hook(tracer, args, kwargs):
    store, key = args[0], args[1]

    def after(result, error):
        # get returns None on a miss; put returns the evicted keys.
        if error is None and result is not None:
            try:
                tracer.count("service.store.blob_bytes", store.path_of(key).stat().st_size)
            except OSError:
                pass  # the blob is gone: refused as oversize, or evicted since

    return after


_HOOKS = {
    "pnr.place.anneal_placement": _anneal_hook,
    "pnr.route.route_design": _route_hook,
    "pnr.defects.repair_for_die": _repair_hook,
    "pnr.incremental.compile_incremental": _incremental_hook,
    "service.store.get": _blob_hook,
    "service.store.put": _blob_hook,
}
