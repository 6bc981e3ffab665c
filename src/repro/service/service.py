"""The compile service: queue, worker pool, cache, delta recompiles.

:class:`CompileService` turns the one-shot compile entry points
(:func:`repro.pnr.compile_to_fabric` / the sharded flow it dispatches
to) into a served system, the client/server split of circuit_training's
placement server re-imagined for this fabric:

* **content-addressed cache** — jobs are keyed on
  ``(canonical_hash(netlist), options.key())``
  (:mod:`repro.netlist.canonical`): two clients submitting the same
  circuit under different spellings share one compiled artifact, with a
  port map translated back to each client's own names;
* **persisted artifact store** — with ``store=`` set, a second,
  on-disk tier (:class:`repro.service.store.ArtifactStore`) under the
  in-memory cache: lookups go memory → store → compile, every compiled
  artifact is published to disk, and a restarted or sibling service on
  the same directory serves it byte-identically with zero recompiles;
* **single-flight coalescing** — concurrent submissions of one key run
  one compile; the duplicates wait on the same future and count as
  coalesced, not as compiles;
* **worker pool** — jobs fan out on a persistent
  :class:`repro.pnr.parallel.TaskPool`; each job's compile runs
  *serial inside* (``workers=0``), so results are a pure function of
  (netlist, options) and byte-identical for any pool width;
* **incremental recompiles** — :meth:`CompileService.recompile` routes
  an edited netlist through
  :func:`repro.pnr.incremental.compile_incremental` against a cached
  base, falling back to a cold compile whenever the delta path
  declines (:class:`repro.pnr.incremental.IncrementalFallback`);
  :meth:`CompileService.open_session` chains this across a whole
  *sequence* of edits, each step warm-starting from the previous
  step's artifact (:class:`repro.service.session.EditSession`);
* **per-die repair** — :meth:`CompileService.submit_for_die` compiles
  a design once (the **golden** artifact, shared through the normal
  cache) and adapts it to each defective die with
  :func:`repro.pnr.defects.repair_for_die`, falling back to a cold
  defect-aware compile when the die is too broken
  (:class:`repro.pnr.defects.RepairFallback`).  Die artifacts are
  cached under ``(netlist, options, defect-map digest)``, so one
  golden compile serves a whole wafer's worth of distinct dies.

Determinism contract (proven in ``tests/test_service.py``): a cache
*miss* compiles cold and is byte-identical to calling
``compile_to_fabric`` yourself; a cache *hit* returns the bytes of the
entry's original cold compile (if you hit with a renamed-but-isomorphic
netlist, you get those bytes with your port names mapped on top — the
circuit is the same, the spelling of its pins is yours); an
*incremental* recompile is deterministic and dual-backend equivalent
but placed from the cached base, so its bytes legitimately differ from
a cold compile's.  See ``docs/compile-service.md``.

**Resilience** (PR 10, proven in ``tests/test_resilience.py`` and the
chaos suite): every submission path passes named fault points
(``service.submit`` / ``service.run`` / ``service.settle``) so a
:class:`repro.service.resilience.FaultPlan` can interrogate the
hardening — per-job deadlines cooperatively cancel stuck compiles
(:class:`repro.pnr.parallel.CompileTimeout`), transient store IO and
worker loss retry under a seeded :class:`~repro.service.resilience.RetryPolicy`,
dead workers are respawned with their jobs resubmitted exactly once,
a bounded admission queue sheds overload
(:class:`~repro.service.resilience.ServiceOverloaded`), and
``compile_for_die`` degrades to serving the golden artifact (marked
``degraded=True``, never cached) when repair exhausts its budget under
pressure.  The byte-identity contract extends to all of it: whatever
faults fire, a served artifact is byte-identical to the fault-free
reference or explicitly marked degraded.  See ``docs/resilience.md``.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from concurrent.futures import Future, wait
from dataclasses import dataclass
from pathlib import Path

from repro.netlist.canonical import CANONICAL_HASH_VERSION, canonical_hash
from repro.netlist.ir import Netlist
from repro.pnr.defects import DefectMap, RepairFallback, repair_for_die
from repro.pnr.flow import PnrResult, compile_to_fabric
from repro.pnr.incremental import IncrementalFallback, compile_incremental
from repro.pnr.parallel import (
    CompileTimeout,
    ProcessWorkerPool,
    TaskPool,
    TransientFault,
    WorkerCrash,
    WorkerLost,
    active_fault_plan,
    current_deadline,
    deadline_scope,
    fault_point,
    inject_faults,
)
from repro.service.cache import ResultCache
from repro.service.resilience import (
    RetryPolicy,
    ServiceOverloaded,
    is_transient,
)
from repro.service.store import ArtifactStore

__all__ = ["CompileOptions", "CompileService", "ServiceResult"]


@dataclass(frozen=True)
class CompileOptions:
    """The result-affecting knobs of a compile, as one hashable value.

    Mirrors the :func:`repro.pnr.compile_to_fabric` keywords that
    change *what gets built* (seed, anneal schedule, timing target,
    sharding).  Pool-shape knobs (``workers``) are deliberately absent:
    by the repo's determinism contract they never change results, so
    they must not split the cache.
    """

    seed: int = 0
    anneal_steps: int | None = None
    max_attempts: int = 6
    target_period: int | None = None
    shards: int | None = None
    max_side: int | None = None
    replicas: int = 1
    #: Wall-clock budget (seconds) for this job; ``None`` = unbounded.
    #: The compile loops check it cooperatively and raise
    #: :class:`repro.pnr.parallel.CompileTimeout` when it expires.
    #: Like ``workers``, a deadline never changes *what* gets built —
    #: it only bounds how long we try — so it is deliberately excluded
    #: from :meth:`key` (same artifact, same cache slot, any deadline)
    #: and from :meth:`compile_kwargs`.
    deadline: float | None = None

    def key(self) -> tuple:
        """The options' contribution to the cache key."""
        return (
            "opts",
            CANONICAL_HASH_VERSION,
            self.seed,
            self.anneal_steps,
            self.max_attempts,
            self.target_period,
            self.shards,
            self.max_side,
            self.replicas,
        )

    def compile_kwargs(self) -> dict:
        """Keyword arguments for :func:`compile_to_fabric`."""
        return {
            "seed": self.seed,
            "anneal_steps": self.anneal_steps,
            "max_attempts": self.max_attempts,
            "target_period": self.target_period,
            "shards": self.shards,
            "max_side": self.max_side,
            "replicas": self.replicas,
            # Jobs parallelise across the service pool, never inside a
            # compile: serial inner compiles keep tracebacks flat and
            # make every artifact a pure function of (netlist, options).
            "workers": 0,
        }


@dataclass(frozen=True)
class _CacheEntry:
    """What the cache stores: the artifact plus its netlist's port order."""

    result: object  # PnrResult | ShardedPnrResult
    input_ports: tuple[str, ...]
    output_ports: tuple[str, ...]
    incremental: bool = False
    repaired: bool = False
    #: Degraded entries (golden served in place of an exhausted die
    #: repair) are handed to the submitter but never cached/persisted.
    degraded: bool = False


@dataclass(frozen=True)
class ServiceResult:
    """One submission's view of a compiled artifact.

    The underlying ``result`` may have been compiled from a *different
    spelling* of the same circuit (content-addressing coalesces
    isomorphic netlists); ``input_wires`` / ``output_wires`` are keyed
    by **this submission's** port names, mapped positionally onto the
    artifact's ports.  ``cached``/``coalesced``/``incremental`` say how
    the artifact was obtained — ``bitstreams()`` is byte-identical for
    every submission that shares the same cache key.
    """

    key: tuple
    result: object  # PnrResult | ShardedPnrResult
    input_wires: dict
    output_wires: dict
    cached: bool
    coalesced: bool
    incremental: bool
    #: True when the artifact was produced by warm per-die repair of a
    #: golden compile rather than a from-scratch compile.
    repaired: bool = False
    #: True when the artifact was loaded from the persisted
    #: :class:`repro.service.store.ArtifactStore` rather than compiled
    #: (or memory-cached) in this process — typically a compile some
    #: *other* service instance, or an earlier life of this one, paid
    #: for.  The bytes are identical either way.
    from_store: bool = False
    #: True when the service served a *stand-in* under pressure: the
    #: golden artifact in place of a per-die repair whose budget was
    #: exhausted (see ``docs/resilience.md``).  A degraded result is
    #: correct for the defect-free fabric but NOT adapted to this die's
    #: defects; it is never cached, so a calmer resubmission gets the
    #: real repair.
    degraded: bool = False

    def bitstreams(self) -> list[bytes]:
        """Configuration bitstream(s) as bytes: one per array, shard order.

        The flow's ``to_bitstream`` returns the frame array; a served
        artifact serialises to actual wire bytes, so clients (and the
        byte-identity tests) compare with plain ``==``.
        """
        if isinstance(self.result, PnrResult):
            streams = [self.result.to_bitstream()]
        else:
            streams = self.result.to_bitstreams()
        return [s.tobytes() for s in streams]


@dataclass(frozen=True)
class _Await:
    """A producer's answer when it needs another job's result first.

    The pipeline runs ``then(value)`` as a further pool stage of the
    same job once ``future`` resolves to ``value``; a failed ``future``
    fails the job with its error.  No pool slot blocks in between —
    this is how a die job waits for its golden compile.
    """

    future: Future
    then: Callable


def _view(
    key: tuple,
    entry: _CacheEntry,
    ports: tuple[tuple[str, ...], tuple[str, ...]],
    *,
    cached: bool,
    coalesced: bool,
    from_store: bool,
) -> ServiceResult:
    """One submission's view of an entry, in its own port names.

    Content-addressing guarantees the requester's netlist has the same
    port *structure* (count and position) as the entry's; names may
    differ, so pin maps are translated positionally.  Wires for ports
    the flow never routed (dead inputs) are absent from both sides.
    """

    def remap(names, own, wires) -> dict:
        return {name: wires[o] for name, o in zip(names, own) if o in wires}

    res = entry.result
    return ServiceResult(
        key=key,
        result=res,
        input_wires=remap(ports[0], entry.input_ports, res.input_wires),
        output_wires=remap(ports[1], entry.output_ports, res.output_wires),
        cached=cached,
        coalesced=coalesced,
        incremental=entry.incremental,
        repaired=entry.repaired,
        from_store=from_store,
        degraded=entry.degraded,
    )


def _isolated_compile(netlist, kwargs, deadline, plan, token, attempt):
    """One compile inside a crash-isolated subprocess worker.

    Module-level so it pickles.  Re-installs the parent's fault plan
    and the *remaining* deadline in the child, so injected faults and
    timeouts behave identically under both isolation modes.  An
    injected worker death (:class:`WorkerCrash`) becomes a real
    ``os._exit`` — the parent sees ``BrokenProcessPool``, exercising
    the genuine crash-recovery path, not a simulation of it.
    """
    import contextlib
    import os

    from repro.pnr import parallel as _parallel

    # A forked worker inherits the parent's installed plan; clear it so
    # re-installing the shipped copy (or running plan-free) is clean.
    _parallel._ACTIVE_PLAN = None
    cm = inject_faults(plan) if plan is not None else contextlib.nullcontext()
    try:
        with cm, deadline_scope(deadline):
            fault_point("pool.worker", token=f"proc:{token}:{attempt}")
            return compile_to_fabric(netlist, **kwargs)
    except WorkerCrash:
        os._exit(3)


class CompileService:
    """A concurrent compile server over a content-addressed cache.

    Parameters
    ----------
    workers:
        Pool width for concurrent jobs, under the repo convention
        (``None`` auto, ``0``/``1`` serial-inline, ``N`` threads).
    cache_capacity:
        LRU entry budget of the result cache (0 disables caching).
    store:
        The persisted tier: an
        :class:`repro.service.store.ArtifactStore`, or a directory path
        to open one on (``None`` = in-memory only).  Lookups go memory
        → store → compile; every compiled, repaired or incremental
        artifact is published to the store, so a restarted or sibling
        service on the same directory serves it byte-identically with
        zero recompiles (see ``docs/artifact-store.md``).
    retry:
        The :class:`repro.service.resilience.RetryPolicy` applied to
        transient faults on the store path (IO errors retry with
        seeded backoff, then degrade: a failed load is a miss, a
        failed publish is counted and the compile still served).
        ``None`` installs the default policy.
    max_pending:
        Bounded admission: with ``N`` set, a submission arriving while
        ``N`` or more are already pending is *shed* —
        :class:`~repro.service.resilience.ServiceOverloaded` (carrying
        the queue depth and a retry-after hint) instead of an unbounded
        queue.  ``None`` (default) admits everything.
    isolation:
        ``"thread"`` (default) runs compiles on the thread pool;
        ``"process"`` runs each cold compile in a crash-isolated
        subprocess — a worker death (real or injected) is survived by
        respawning the worker and resubmitting the job exactly once
        (``worker_restarts`` in :meth:`stats`), and only a second
        death surfaces (:class:`repro.pnr.parallel.WorkerLost`).

    Under pressure, :meth:`compile_for_die` serves the golden artifact
    marked ``degraded=True`` instead of erroring when per-die repair
    exhausts its budget (see ``docs/resilience.md``).

    Use as a context manager or call :meth:`close` to release workers
    (the store needs no closing — its whole point is to outlive this).
    Closing drains: every already-accepted future settles before
    :meth:`close` returns, and later submissions raise ``RuntimeError``.
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        cache_capacity: int = 64,
        store: ArtifactStore | str | Path | None = None,
        retry: RetryPolicy | None = None,
        max_pending: int | None = None,
        isolation: str = "thread",
    ) -> None:
        if isolation not in ("thread", "process"):
            raise ValueError(
                f"isolation must be 'thread' or 'process', got {isolation!r}"
            )
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.cache = ResultCache(cache_capacity)
        self.store = (
            ArtifactStore(store) if isinstance(store, (str, Path)) else store
        )
        self._pool = TaskPool(workers)
        self._retry = retry if retry is not None else RetryPolicy()
        self._max_pending = max_pending
        self._isolation = isolation
        self._procs = (
            ProcessWorkerPool(workers=1) if isolation == "process" else None
        )
        self._closed = False
        self._lock = threading.Lock()
        self._inflight: dict[tuple, Future] = {}
        self._stats_lock = threading.Lock()
        self._pending = 0
        self._counters = {
            "submissions": 0,
            "compiles": 0,
            "coalesced": 0,
            "store_hits": 0,
            "store_errors": 0,
            "incremental_compiles": 0,
            "incremental_fallbacks": 0,
            "repairs": 0,
            "repair_fallbacks": 0,
            # Resilience books (see docs/resilience.md).  Identity:
            # submissions == settled + shed + pending, at every instant.
            "settled": 0,
            "shed": 0,
            "timeouts": 0,
            "retries": 0,
            "worker_restarts": 0,
            "degraded": 0,
        }

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Drain outstanding jobs and stop the workers.

        Every already-accepted future settles (with its result or its
        job's exception) before this returns — a waiter can never hang
        on a closed service.  In-flight jobs drain while the pool is
        still open, so a job can still launch its later stages (a die
        job's golden compile, then its repair); once none is left,
        submitting raises ``RuntimeError``.  Idempotent.
        """
        while True:
            with self._lock:
                jobs = list(self._inflight.values())
                if not jobs:
                    self._closed = True
                    break
            wait(jobs)
        self._pool.close()
        if self._procs is not None:
            self._procs.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "CompileService is closed; jobs can no longer be submitted"
            )

    def __enter__(self) -> CompileService:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- accounting -----------------------------------------------------
    def _bump(self, counter: str, by: int = 1) -> None:
        with self._stats_lock:
            self._counters[counter] += by

    def stats(self) -> dict:
        """Service + cache (+ store, when attached) counters, one snapshot.

        The resilience identity — ``submissions == settled + shed +
        pending`` — holds at every instant (chaos-tested): every
        admitted submission's future is counted settled exactly once,
        shed ones never got a future, and ``pending`` gauges the rest.
        """
        with self._stats_lock:
            out = dict(self._counters)
            out["pending"] = self._pending
        out["cache"] = self.cache.stats()
        out["store"] = self.store.stats() if self.store is not None else None
        out["workers"] = self._pool.workers
        if self._procs is not None:
            out["process_restarts"] = self._procs.restarts
        return out

    def _track(self, future: Future) -> Future:
        """Count one admitted submission: pending now, settled at done.

        Attached to *every* future the service hands out (immediate
        cache hits included — their callback fires synchronously), so
        the ``submissions == settled + shed + pending`` identity is a
        property of the code shape, not of any particular path.
        """
        with self._stats_lock:
            self._pending += 1

        def _done(_: Future) -> None:
            with self._stats_lock:
                self._pending -= 1
                self._counters["settled"] += 1

        future.add_done_callback(_done)
        return future

    def _admit(self) -> None:
        """Bounded admission: shed when the pending queue is full.

        Cache hits never reach here (they cost nothing to serve); a
        real job arriving at a full queue raises
        :class:`ServiceOverloaded` with the depth and a retry-after
        hint sized to the backlog.
        """
        if self._max_pending is None:
            return
        with self._stats_lock:
            depth = self._pending
            if depth < self._max_pending:
                return
            self._counters["shed"] += 1
        raise ServiceOverloaded(
            queue_depth=depth,
            max_pending=self._max_pending,
            retry_after=max(0.05, 0.05 * (depth - self._max_pending + 1)),
        )

    def _under_pressure(self) -> bool:
        """Saturated right now?  (Admission-full, with a bound set.)"""
        if self._max_pending is None:
            return False
        with self._stats_lock:
            return self._pending >= self._max_pending

    # -- the persisted tier ---------------------------------------------
    def _store_get(self, key: tuple) -> _CacheEntry | None:
        """Probe the persisted tier (miss when no store is attached).

        A hit is counted under ``store_hits``; the pipeline then
        publishes it to the in-memory cache, so the next lookup of this
        key is a plain memory hit.  Store-side integrity failures
        surface here as misses by the store's own contract; transient
        IO trouble retries under the service policy and then *degrades
        to a miss* (counted under ``store_errors``) — a flaky disk
        costs a recompile, never a failed job.  A deadline expiring
        mid-retry still surfaces: timing out is the job's contract, not
        the store's.
        """
        if self.store is None:
            return None
        try:
            entry = self._retry.call(
                lambda: self.store.get(key),
                token=str(key),
                on_retry=lambda: self._bump("retries"),
            )
        except CompileTimeout:
            raise
        except (TransientFault, OSError):
            self._bump("store_errors")
            return None
        if entry is not None:
            self._bump("store_hits")
        return entry

    def _store_put(self, key: tuple, entry: _CacheEntry) -> None:
        """Publish an artifact; disk trouble must not fail the compile.

        Transient failures retry, then degrade: a full or read-only
        disk shrinks the store, and a deadline expiring during publish
        backoff is swallowed too (counted under both books) — the
        compile that produced this artifact already succeeded, so it
        is served regardless.
        """
        if self.store is None:
            return
        try:
            self._retry.call(
                lambda: self.store.put(key, entry),
                token=str(key),
                on_retry=lambda: self._bump("retries"),
            )
        except CompileTimeout:
            self._bump("timeouts")
            self._bump("store_errors")
        except (TransientFault, OSError):
            self._bump("store_errors")

    # -- the job pipeline -----------------------------------------------
    def _serve(
        self,
        key: tuple,
        netlist: Netlist,
        options: CompileOptions,
        token: str,
        produce: Callable[[], _CacheEntry | _Await],
        *,
        admit: bool = True,
    ) -> Future:
        """The one job pipeline behind every submission path.

        key → memory → admission → coalesce → (on the pool) store →
        ``produce()`` → publish → settle.  Memory hits resolve here, in
        the caller's thread, and are never shed.  A miss either joins
        the key's in-flight job or starts one; the job probes the
        persisted store on the pool and calls ``produce`` only on a
        store miss.  ``produce`` returns the new entry, or an
        :class:`_Await` to continue once another job settles.

        ``admit=False`` skips admission for a job an already admitted
        one depends on (a die's golden compile): shedding it would fail
        work the service has accepted.
        """
        self._check_open()
        fault_point("service.submit", token=token)
        self._bump("submissions")
        # Snapshot the requester's port spelling now — the netlist is
        # the caller's object and this future may resolve much later.
        ports = (tuple(netlist.inputs), tuple(netlist.outputs))
        job: Future = Future()
        inflight = None
        entry = self.cache.get(key)
        if entry is None:
            if admit:
                self._admit()
            with self._lock:
                # Re-check under the lock: a racing job may have
                # published (cache.put, then the in-flight pop) since
                # the probe above.  peek, not get — that probe already
                # charged this submission its miss.
                entry = self.cache.peek(key)
                inflight = self._inflight.get(key)
                if entry is None and inflight is None:
                    self._inflight[key] = job
        if entry is not None:
            job.set_result((entry, False))
            return self._waiter(job, key, ports, cached=True, coalesced=False)
        if inflight is not None:
            self._bump("coalesced")
            return self._waiter(
                inflight, key, ports, cached=True, coalesced=True
            )

        def probe():
            fault_point("service.run", token=token)
            hit = self._store_get(key)
            return (hit, True) if hit is not None else (produce(), False)

        waiter = self._waiter(job, key, ports, cached=False, coalesced=False)
        self._launch(
            key, job, lambda: self._run(key, job, options, token, probe)
        )
        return waiter

    def _waiter(
        self, job: Future, key: tuple, ports: tuple, *,
        cached: bool, coalesced: bool,
    ) -> Future:
        """One submission's tracked future, settled from its job's."""
        out = self._track(Future())

        def _settle(done: Future) -> None:
            err = done.exception()
            if err is not None:
                out.set_exception(err)
                return
            entry, from_store = done.result()
            out.set_result(_view(
                key, entry, ports, cached=cached or from_store,
                coalesced=coalesced, from_store=from_store,
            ))

        job.add_done_callback(_settle)
        return out

    def _run(self, key, job: Future, options, token: str, stage) -> None:
        """Run one pool stage of ``job``; publish and settle it.

        ``stage()`` returns ``(entry, from_store)`` or ``(_Await,
        False)``.  A finished entry is published to the memory tier
        and, unless it came from there, the store — a degraded
        stand-in to neither — then passes ``service.settle``.  Never
        raises: every outcome settles ``job``.
        """
        try:
            with deadline_scope(options.deadline):
                out, from_store = stage()
                if not isinstance(out, _Await):
                    if not out.degraded:
                        self.cache.put(key, out)
                        if not from_store:
                            self._store_put(key, out)
                    fault_point("service.settle", token=token)
        except CompileTimeout as e:
            self._bump("timeouts")
            self._finish(key, job, error=e)
        except BaseException as e:  # noqa: BLE001 - the future carries it
            self._finish(key, job, error=e)
        else:
            if not isinstance(out, _Await):
                self._finish(key, job, (out, from_store))
                return

            def resume(dep: Future) -> None:
                err = dep.exception()
                if err is not None:
                    self._finish(key, job, error=err)
                    return
                def then():
                    return out.then(dep.result()), False

                self._launch(
                    key, job, lambda: self._run(key, job, options, token, then)
                )

            out.future.add_done_callback(resume)

    def _finish(self, key, job: Future, outcome=None, error=None) -> None:
        """Settle ``job``: leave the in-flight table, then wake waiters."""
        with self._lock:
            self._inflight.pop(key, None)
        if error is not None:
            job.set_exception(error)
        else:
            job.set_result(outcome)

    def _launch(self, key: tuple, job: Future, run) -> None:
        """Put ``run`` on the pool, supervised against worker death.

        ``run`` itself never raises (it settles ``job``), so an
        exception on the *pool-level* future means the worker died
        before ``run`` executed — an injected ``pool.worker`` fault, in
        practice.  The supervisor resubmits exactly once
        (``worker_restarts``); a second death, or a pool that refuses
        the job, settles ``job`` with the error, so waiters always
        settle, never hang.
        """
        resubmitted = False

        def _supervise(pool_future: Future) -> None:
            nonlocal resubmitted
            err = pool_future.exception()
            if err is None or job.done():
                return
            if is_transient(err) and not resubmitted:
                resubmitted = True
                self._bump("worker_restarts")
                try:
                    self._pool.submit(run).add_done_callback(_supervise)
                    return
                except RuntimeError:
                    err = WorkerLost(
                        "worker died and the pool closed before the job "
                        "could be resubmitted"
                    )
            elif is_transient(err):
                err = WorkerLost(
                    "worker died twice running one job; giving up"
                )
            self._finish(key, job, error=err)

        try:
            self._pool.submit(run).add_done_callback(_supervise)
        except RuntimeError as e:  # the pool closed under a later stage
            self._finish(key, job, error=e)

    # -- the producers --------------------------------------------------
    def _compile_cold(
        self,
        netlist: Netlist,
        options: CompileOptions,
        *,
        token: str,
        defect_map: DefectMap | None = None,
    ) -> _CacheEntry:
        """One cold compile under the configured isolation mode.

        Thread mode calls :func:`compile_to_fabric` in place (the
        deadline scope of the job covers it).  Process mode ships the
        job — with the *remaining* deadline and the active fault plan —
        into a crash-isolated subprocess: if the worker dies mid-job
        (``os._exit``, a segfault, an injected crash) it is respawned
        and the job resubmitted exactly once (``worker_restarts``); a
        second death raises :class:`WorkerLost`.  Results are
        byte-identical across modes and across restarts — a compile is
        a pure function of (netlist, options), so re-running it is safe
        by construction.
        """
        self._bump("compiles")
        ports = (tuple(netlist.inputs), tuple(netlist.outputs))
        kwargs = options.compile_kwargs()
        if defect_map is not None:
            kwargs["defect_map"] = defect_map
        if self._procs is None:
            return _CacheEntry(compile_to_fabric(netlist, **kwargs), *ports)
        deadline = current_deadline()
        remaining = deadline.remaining() if deadline is not None else None
        plan = active_fault_plan()
        for attempt in range(2):
            try:
                return _CacheEntry(self._procs.run(
                    _isolated_compile,
                    netlist, kwargs, remaining, plan, token, attempt,
                ), *ports)
            except WorkerCrash:
                if attempt == 0:
                    self._bump("worker_restarts")
                    continue
                raise WorkerLost(
                    f"compile worker died twice on job {token}; giving up"
                ) from None

    def job_key(self, netlist: Netlist, options: CompileOptions) -> tuple:
        """The content-addressed cache key of one submission."""
        return (canonical_hash(netlist), options.key())

    def submit(
        self, netlist: Netlist, options: CompileOptions | None = None
    ) -> Future:
        """Enqueue one compile; returns a Future of a ServiceResult.

        Cache hits resolve immediately; concurrent duplicate keys
        coalesce onto the one in-flight job.  A memory miss probes the
        persisted store *inside* the job (single-flight is preserved
        across tiers: duplicates coalesce whether the key resolves from
        disk or from a compile) and only compiles on a store miss.  The
        returned future is *per-submission*: its ``ServiceResult``
        carries pin maps in this submission's port names even when the
        artifact was compiled from an isomorphic sibling.

        Resilience semantics: with ``options.deadline`` set, the job's
        compile loops cooperatively cancel on expiry and the future
        carries :class:`CompileTimeout` — within 2x the deadline, never
        hanging the pool; with ``max_pending`` set, a full queue sheds
        the submission *synchronously*
        (:class:`ServiceOverloaded` — cache hits are never shed); after
        :meth:`close`, ``RuntimeError``.  However a job ends — result,
        timeout, worker death, injected fault — an admitted future
        settles exactly once.
        """
        return self._submit(netlist, options or CompileOptions())

    def _submit(
        self, netlist: Netlist, options: CompileOptions, *, admit: bool = True
    ) -> Future:
        key = self.job_key(netlist, options)
        token = key[0][:12]
        return self._serve(
            key, netlist, options, token,
            lambda: self._compile_cold(netlist, options, token=token),
            admit=admit,
        )

    def compile(
        self, netlist: Netlist, options: CompileOptions | None = None
    ) -> ServiceResult:
        """Blocking :meth:`submit`."""
        return self.submit(netlist, options).result()

    # -- per-die repair ---------------------------------------------------
    def die_key(
        self,
        netlist: Netlist,
        options: CompileOptions,
        defect_map: DefectMap,
    ) -> tuple:
        """Cache key of one die's artifact: the golden key + die digest.

        Composes the content-addressed job key with the defect map's
        digest, so two isomorphic netlists targeting the same die share
        one repaired artifact while distinct dies never collide.
        """
        return (
            canonical_hash(netlist),
            options.key(),
            ("die", defect_map.digest()),
        )

    def submit_for_die(
        self,
        netlist: Netlist,
        defect_map: DefectMap,
        options: CompileOptions | None = None,
    ) -> Future:
        """Enqueue a defect-adaptive compile for one die.

        Compiles the design once (the **golden** artifact, obtained
        through the normal cached path, so a fleet of dies shares one
        cold compile) and then adapts it to this die's defects with
        :func:`repro.pnr.defects.repair_for_die` on the pool.  When the
        die is too broken for the warm path
        (:class:`repro.pnr.defects.RepairFallback`), the job falls back
        to a full defect-aware cold compile — an unroutable die
        surfaces as the compile error on the returned future.

        Die artifacts cache under :meth:`die_key` and go through the
        same pipeline as :meth:`submit`: hits resolve immediately,
        concurrent submissions of one die coalesce, and the job probes
        the persisted store on the pool — a die another process
        repaired is served from disk without touching the golden.  On
        a store miss the job submits the golden (one more counted
        submission, never shed: the die was already admitted) and
        repairs in a later pool stage once it resolves, so no pool slot
        ever waits on another job.

        Graceful degradation: when repair declines
        (:class:`RepairFallback`) while the service is saturated, or
        the job's deadline/worker budget is exhausted, the future
        resolves to the **golden** artifact marked ``degraded=True``
        instead of erroring — correct for the defect-free fabric, not
        adapted to this die, and never cached, so a calmer
        resubmission performs the real repair.
        """
        options = options or CompileOptions()
        if options.shards is not None or options.max_side is not None:
            raise ValueError(
                "per-die compiles are single-array; drop shards/max_side"
            )
        key = self.die_key(netlist, options, defect_map)
        token = f"{key[0][:12]}:die:{defect_map.digest()[:12]}"

        def repair(golden: ServiceResult) -> _CacheEntry:
            try:
                try:
                    result = repair_for_die(
                        golden.result,
                        defect_map,
                        target_period=options.target_period,
                        seed=options.seed,
                    )
                    self._bump("repairs")
                    # The repaired artifact keeps the *golden* netlist's
                    # port spelling (repair reuses the golden source,
                    # which may be an isomorphic sibling of this
                    # submission); each view remaps it to the requester.
                    return _CacheEntry(
                        result=result,
                        input_ports=tuple(result.source.inputs),
                        output_ports=tuple(result.source.outputs),
                        repaired=True,
                    )
                except RepairFallback:
                    self._bump("repair_fallbacks")
                    # Repair declined.  With the queue full, a cold
                    # defect-aware compile now would stall everyone
                    # behind it: serve the stand-in below instead.
                    if not self._under_pressure():
                        return self._compile_cold(
                            netlist, options,
                            token=token, defect_map=defect_map,
                        )
            except (CompileTimeout, TransientFault) as e:
                # The job's time or worker budget is spent — the golden
                # stand-in beats erroring the die.
                if isinstance(e, CompileTimeout):
                    self._bump("timeouts")
            self._bump("degraded")
            return _CacheEntry(
                result=golden.result,
                input_ports=tuple(golden.result.source.inputs),
                output_ports=tuple(golden.result.source.outputs),
                degraded=True,
            )

        def golden_then_repair() -> _Await:
            golden = self._submit(netlist, options, admit=False)
            return _Await(golden, repair)

        return self._serve(key, netlist, options, token, golden_then_repair)

    def compile_for_die(
        self,
        netlist: Netlist,
        defect_map: DefectMap,
        options: CompileOptions | None = None,
    ) -> ServiceResult:
        """Blocking :meth:`submit_for_die`."""
        return self.submit_for_die(netlist, defect_map, options).result()

    # -- incremental recompiles -----------------------------------------
    def recompile(
        self,
        netlist: Netlist,
        base: ServiceResult | PnrResult,
        options: CompileOptions | None = None,
    ) -> ServiceResult:
        """Recompile an edited netlist, warm-starting from ``base``.

        Takes the delta path (:func:`compile_incremental`) when the
        edit is small enough; otherwise the same job falls back to a
        full cold compile.  Either way the result is cached under the
        *edited* netlist's content key — in memory and in the persisted
        store — so submitting the same edit again (from this service or
        a sibling on the same store) is a plain hit.

        A blocking call over the same pipeline as :meth:`submit`:
        concurrent recompiles of one edit coalesce onto one job, a full
        queue sheds it (:class:`ServiceOverloaded`), ``options.deadline``
        bounds the job, and after :meth:`close` it raises
        ``RuntimeError``.  A fallback is one submission and one compile.
        """
        options = options or CompileOptions()
        key = self.job_key(netlist, options)
        token = key[0][:12]
        base_result = base.result if isinstance(base, ServiceResult) else base

        def delta() -> _CacheEntry:
            try:
                result = compile_incremental(
                    netlist,
                    base_result,
                    target_period=options.target_period,
                    seed=options.seed,
                )
            except IncrementalFallback:
                self._bump("incremental_fallbacks")
                return self._compile_cold(netlist, options, token=token)
            self._bump("incremental_compiles")
            return _CacheEntry(
                result=result,
                input_ports=tuple(netlist.inputs),
                output_ports=tuple(netlist.outputs),
                incremental=True,
            )

        return self._serve(key, netlist, options, token, delta).result()

    def open_session(
        self, netlist: Netlist, options: CompileOptions | None = None
    ):
        """Open a multi-edit incremental session against ``netlist``.

        Compiles (or serves) the base through the normal tiered path,
        then returns an :class:`repro.service.session.EditSession`
        whose :meth:`~repro.service.session.EditSession.apply` chains
        each edit's recompile off the **previous step's** artifact —
        a whole edit chain without ever re-cold-compiling, every
        intermediate cached and persisted under its own content key.
        """
        from repro.service.session import EditSession

        options = options or CompileOptions()
        base = self.compile(netlist, options)
        return EditSession(self, base, options)
