"""Concurrency, caching and accounting proofs for the compile service.

The ISSUE 7 contract, stated as tests:

* every service-produced bitstream — cold, cached, coalesced, or
  concurrent — is **byte-identical** to the corresponding cold serial
  ``compile_to_fabric`` of the entry's netlist;
* duplicate submissions coalesce onto **one** compile (exact counter
  accounting, not "at most a few");
* results are invariant under the worker count;
* the LRU cache evicts in recency order under capacity pressure, its
  counters are exact, and evicted entries recompile correctly;
* isomorphic-but-renamed submissions hit the cache and get pin maps
  translated to their own port names.
"""

import threading

import pytest

from repro.datapath.adder import ripple_carry_netlist
from repro.datapath.multiplier import array_multiplier_netlist
from repro.netlist import Netlist
from repro.pnr import compile_to_fabric
from repro.pnr.parallel import TaskPool
from repro.service import (
    CompileOptions,
    CompileService,
    FaultPlan,
    ResultCache,
)


def cold_bytes(netlist, options=None):
    """The reference artifact: one cold serial compile."""
    kwargs = (options or CompileOptions()).compile_kwargs()
    result = compile_to_fabric(netlist, **kwargs)
    if hasattr(result, "to_bitstreams"):
        return [s.tobytes() for s in result.to_bitstreams()]
    return [result.to_bitstream().tobytes()]


def renamed_rca(n, prefix):
    """rca-n with every port, net and cell bijectively renamed."""
    base = ripple_carry_netlist(n)
    mapping = {}
    for i, p in enumerate(list(base.inputs) + list(base.outputs)):
        mapping[p] = f"{prefix}{i}"

    def m(net):
        return mapping.get(net, f"{prefix}_{net}")

    out = Netlist("renamed")
    for p in base.inputs:
        out.add_input(m(p))
    for p in base.outputs:
        out.add_output(m(p))
    for c in base.cells:
        out.add(c.kind, f"{prefix}.{c.name}", [m(i) for i in c.inputs],
                m(c.output), delay=c.delay, **dict(c.params))
    return out


# ---------------------------------------------------------------------------
# ResultCache: eviction order and exact accounting
# ---------------------------------------------------------------------------


def test_cache_lru_order_under_capacity_pressure():
    cache = ResultCache(capacity=3)
    for k in "abc":
        cache.put(k, k.upper())
    assert cache.keys() == ["a", "b", "c"]
    cache.get("a")  # bump
    assert cache.keys() == ["b", "c", "a"]
    evicted = cache.put("d", "D")
    assert evicted == ["b"]
    assert cache.keys() == ["c", "a", "d"]
    assert cache.get("b") is None
    # refreshing an existing key evicts nothing and re-ranks it
    assert cache.put("c", "C2") == []
    assert cache.keys() == ["a", "d", "c"]


def test_cache_counters_are_exact():
    cache = ResultCache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.get("a")
    cache.get("missing")
    cache.put("c", 3)  # evicts b
    cache.get("b")
    s = cache.stats()
    assert s == {
        "capacity": 2,
        "size": 2,
        "hits": 1,
        "misses": 2,
        "lookups": 3,
        "evictions": 1,
        "insertions": 3,
    }
    assert s["lookups"] == s["hits"] + s["misses"]


def test_cache_peek_and_contains_do_not_disturb():
    cache = ResultCache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.peek("a") == 1
    assert "a" in cache
    # neither call bumped recency or counters
    assert cache.keys() == ["a", "b"]
    assert cache.stats()["lookups"] == 0


def test_cache_capacity_zero_disables():
    cache = ResultCache(capacity=0)
    cache.put("a", 1)
    assert len(cache) == 0
    assert cache.get("a") is None
    assert cache.stats()["misses"] == 1


def test_cache_rejects_negative_capacity():
    with pytest.raises(ValueError):
        ResultCache(capacity=-1)


def test_cache_is_thread_safe_under_hammering():
    cache = ResultCache(capacity=8)
    errors = []

    def worker(base):
        try:
            for i in range(300):
                k = (base + i) % 16
                cache.put(k, k)
                cache.get((base + i * 7) % 16)
        except Exception as e:  # pragma: no cover - only on failure
            errors.append(e)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    s = cache.stats()
    assert s["size"] <= 8
    assert s["lookups"] == s["hits"] + s["misses"] == 1800
    assert s["insertions"] == 1800


# ---------------------------------------------------------------------------
# TaskPool
# ---------------------------------------------------------------------------


def test_taskpool_serial_runs_inline():
    with TaskPool(workers=0) as pool:
        assert pool.serial
        thread_ids = []
        fut = pool.submit(lambda: thread_ids.append(threading.get_ident()))
        assert fut.done()
        assert thread_ids == [threading.get_ident()]


def test_taskpool_propagates_errors_in_both_modes():
    def boom():
        raise RuntimeError("kaput")

    for workers in (0, 2):
        with TaskPool(workers=workers) as pool:
            with pytest.raises(RuntimeError, match="kaput"):
                pool.submit(boom).result()


def test_taskpool_parallel_runs_off_thread():
    with TaskPool(workers=2) as pool:
        assert not pool.serial
        ident = pool.submit(threading.get_ident).result()
        assert isinstance(ident, int)


# ---------------------------------------------------------------------------
# CompileService: byte-identity, coalescing, determinism
# ---------------------------------------------------------------------------


def test_cold_compile_matches_direct_flow():
    nl = ripple_carry_netlist(4)
    with CompileService(workers=0, cache_capacity=4) as svc:
        got = svc.compile(ripple_carry_netlist(4))
    assert not got.cached and not got.incremental
    assert got.bitstreams() == cold_bytes(nl)


def test_cache_hit_returns_identical_bytes_and_counts():
    with CompileService(workers=0, cache_capacity=4) as svc:
        first = svc.compile(ripple_carry_netlist(4))
        second = svc.compile(ripple_carry_netlist(4))
        assert not first.cached and second.cached
        assert first.bitstreams() == second.bitstreams()
        s = svc.stats()
        assert s["compiles"] == 1
        assert s["submissions"] == 2
        assert s["cache"]["hits"] == 1


def test_concurrency_stress_duplicates_coalesce_to_one_compile():
    """N clients, duplicate + distinct jobs, full byte-identity audit."""
    designs = {
        "rca2": ripple_carry_netlist(2),
        "rca4": ripple_carry_netlist(4),
        "mul2": array_multiplier_netlist(2),
    }
    reference = {name: cold_bytes(nl) for name, nl in designs.items()}
    # 18 submissions over 3 distinct circuits, from 6 client threads.
    plan = (["rca2", "rca4", "mul2"] * 6)[:18]

    with CompileService(workers=4, cache_capacity=8) as svc:
        futures = [None] * len(plan)
        barrier = threading.Barrier(6)

        def client(idx_range):
            barrier.wait()  # maximise overlap: all clients burst at once
            for i in idx_range:
                futures[i] = svc.submit(designs[plan[i]])

        threads = [
            threading.Thread(target=client, args=(range(t, 18, 6),))
            for t in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        results = [f.result() for f in futures]
        stats = svc.stats()

    for name, result in zip(plan, results):
        assert result.bitstreams() == reference[name], f"{name} diverged"
    # exactly one compile per distinct circuit; every duplicate was
    # either coalesced onto an in-flight job or served from cache
    assert stats["compiles"] == 3
    assert stats["submissions"] == 18
    assert stats["coalesced"] + stats["cache"]["hits"] == 15


def test_warm_second_wave_of_a_mix_is_all_hits():
    """A burst then a repeat of the same mix: one compile per distinct
    circuit, and every other submission coalesces or hits the cache."""
    makers = [
        lambda: ripple_carry_netlist(2),
        lambda: ripple_carry_netlist(4),
        lambda: array_multiplier_netlist(2),
    ]
    jobs = [makers[i % 3]() for i in range(18)]
    with CompileService(workers=4, cache_capacity=16) as svc:
        for _ in range(2):
            for f in [svc.submit(nl) for nl in jobs]:
                f.result()
        stats = svc.stats()
    assert stats["compiles"] == 3
    assert stats["coalesced"] + stats["cache"]["hits"] == 2 * len(jobs) - 3


def test_results_are_invariant_under_worker_count():
    plan = [2, 4, 2, 4, 2]
    outcomes = []
    for workers in (0, 2, 4):
        with CompileService(workers=workers, cache_capacity=8) as svc:
            futs = [svc.submit(ripple_carry_netlist(n)) for n in plan]
            outcomes.append([f.result().bitstreams() for f in futs])
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_renamed_isomorphic_submission_hits_with_remapped_ports():
    original = ripple_carry_netlist(4)
    renamed = renamed_rca(4, "p")
    with CompileService(workers=0, cache_capacity=4) as svc:
        first = svc.compile(ripple_carry_netlist(4))
        second = svc.compile(renamed_rca(4, "p"))
        assert second.cached
        assert svc.stats()["compiles"] == 1
    # same artifact bytes...
    assert first.bitstreams() == second.bitstreams()
    # ...with each client's own port spelling mapped positionally
    for a, b in zip(original.inputs, renamed.inputs):
        assert first.input_wires.get(a) == second.input_wires.get(b)
    for a, b in zip(original.outputs, renamed.outputs):
        assert first.output_wires.get(a) == second.output_wires.get(b)


def test_distinct_options_do_not_share_entries():
    with CompileService(workers=0, cache_capacity=4) as svc:
        a = svc.compile(ripple_carry_netlist(2), CompileOptions(seed=0))
        b = svc.compile(ripple_carry_netlist(2), CompileOptions(seed=3))
        assert svc.stats()["compiles"] == 2
        assert a.key != b.key
    assert a.bitstreams() == cold_bytes(ripple_carry_netlist(2))
    assert b.bitstreams() == cold_bytes(
        ripple_carry_netlist(2), CompileOptions(seed=3)
    )


def test_evicted_entries_recompile_correctly():
    with CompileService(workers=0, cache_capacity=1) as svc:
        first = svc.compile(ripple_carry_netlist(2))
        svc.compile(ripple_carry_netlist(4))  # evicts rca2
        assert svc.stats()["cache"]["evictions"] == 1
        again = svc.compile(ripple_carry_netlist(2))  # miss, recompiles
        stats = svc.stats()
    assert not again.cached
    assert stats["compiles"] == 3
    assert again.bitstreams() == first.bitstreams() == cold_bytes(
        ripple_carry_netlist(2)
    )


def test_compile_errors_propagate_and_are_not_cached():
    nl = Netlist("broken")
    nl.add("celement", "c1", ["x", "fb"], "m")
    nl.add("not", "g", ["m"], "fb")  # cell-level feedback: uncompilable
    nl.add_input("x")
    nl.add_output("m")
    with CompileService(workers=0, cache_capacity=4) as svc:
        with pytest.raises(Exception):
            svc.compile(nl)
        with pytest.raises(Exception):
            svc.compile(nl)  # still raises: failures were not cached
        s = svc.stats()
        assert s["compiles"] == 2
        assert s["cache"]["size"] == 0


def test_sharded_options_serve_sharded_artifacts():
    nl = ripple_carry_netlist(8)
    opts = CompileOptions(shards=2)
    with CompileService(workers=0, cache_capacity=4) as svc:
        got = svc.compile(ripple_carry_netlist(8), opts)
        hit = svc.compile(ripple_carry_netlist(8), opts)
    assert len(got.bitstreams()) == 2
    assert got.bitstreams() == cold_bytes(nl, opts)
    assert hit.cached and hit.bitstreams() == got.bitstreams()


def test_service_recompile_delta_and_fallback_accounting():
    nl = ripple_carry_netlist(8)
    with CompileService(workers=0, cache_capacity=8) as svc:
        base = svc.compile(ripple_carry_netlist(8))

        edited = Netlist(nl.name)
        for p in nl.inputs:
            edited.add_input(p)
        for p in nl.outputs:
            edited.add_output(p)
        flip = next(c for c in nl.cells if c.kind == "and").name
        for c in nl.cells:
            kind = "or" if c.name == flip else c.kind
            edited.add(kind, c.name, list(c.inputs), c.output,
                       delay=c.delay, **dict(c.params))
        inc = svc.recompile(edited, base)
        assert inc.incremental and not inc.cached

        # resubmitting the same edit is a plain content hit
        again = svc.submit(edited).result()
        assert again.cached
        assert again.bitstreams() == inc.bitstreams()

        # a totally different netlist through recompile() falls back
        other = svc.recompile(array_multiplier_netlist(2), base)
        stats = svc.stats()
    assert not other.incremental
    assert other.bitstreams() == cold_bytes(array_multiplier_netlist(2))
    assert stats["incremental_compiles"] == 1
    assert stats["incremental_fallbacks"] == 1


def _flip_first_and(nl: Netlist) -> Netlist:
    """and->or on the first and-gate: a one-gate edit, same ports."""
    flip = next(c for c in nl.cells if c.kind == "and").name
    out = Netlist(nl.name)
    for p in nl.inputs:
        out.add_input(p)
    for p in nl.outputs:
        out.add_output(p)
    for c in nl.cells:
        kind = "or" if c.name == flip else c.kind
        out.add(kind, c.name, list(c.inputs), c.output,
                delay=c.delay, **dict(c.params))
    return out


def test_concurrent_recompiles_of_one_edit_run_one_delta():
    edited = _flip_first_and(ripple_carry_netlist(8))
    # The stall keeps the first job in flight while the second caller
    # arrives, so the race cannot resolve as a plain memory hit.
    plan = FaultPlan.from_specs([("service.run", "stall", {"delay": 0.3})])
    results = [None, None]
    with CompileService(workers=2) as svc:
        base = svc.compile(ripple_carry_netlist(8))
        barrier = threading.Barrier(2)

        def client(i):
            barrier.wait()
            results[i] = svc.recompile(edited, base)

        threads = [threading.Thread(target=client, args=(i,)) for i in (0, 1)]
        with plan.activate():
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        stats = svc.stats()
    assert stats["incremental_compiles"] == 1
    assert stats["coalesced"] == 1
    assert results[0].bitstreams() == results[1].bitstreams()
    assert sorted(r.coalesced for r in results) == [False, True]
    assert all(r.incremental for r in results)


def test_service_exposes_no_delta_budget_knobs():
    # Delta budgets change incremental artifacts but are not part of
    # the cache key, so the service leaves them at compile_incremental's
    # defaults instead of letting two services disagree under one key.
    for knob in ("max_delta_frac", "release_budget_frac"):
        with pytest.raises(TypeError):
            CompileService(workers=0, **{knob: 0.5})
