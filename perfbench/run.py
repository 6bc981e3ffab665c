#!/usr/bin/env python3
"""The repo's benchmark: one CompileService under a closed loop of clients.

Run from the repository root::

    python3 perfbench/run.py --workload cold_mix --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` first runs the same untraced phase, then sets the service
up afresh, wraps each layer's entry points (``tracer.py``) and replays
exactly the request list the untraced phase completed; it reports the
per-layer metrics, the tracing overhead, and fails if any artifact's
bytes differ between the two phases.

A human-readable report (per serving path, each percentile beside its
sample count) goes to stdout, followed by one JSON line with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full report
and, for traced runs, every span are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: A run also continues until this many requests completed, so the p90
#: always has at least ten samples beyond it.
MIN_REQUESTS = 100
#: A percentile is printed only with at least this many samples beyond it.
TAIL_SAMPLES = 10


def import_repro() -> None:
    """Put this checkout's ``src`` first on the path and prove it is used."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src):
        raise ImportError(f"repro resolved to {repro.__file__}, not under {src}")


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------

def _segment(wl, out, first: int, stop: int, tracer) -> float:
    """Send jobs ``first .. stop - 1`` with CLIENTS threads; wall seconds."""
    from workloads import CLIENTS

    lock = threading.Lock()
    state = {"next": first}

    def client() -> None:
        while True:
            with lock:
                index = state["next"]
                if index >= stop:
                    return
                state["next"] = index + 1
            if tracer is not None:
                tracer.set_request(index)
            try:
                wl.run_job(index, wl.job(index), out)
            except Exception as e:  # noqa: BLE001 - a failed job is counted, not fatal
                out.errors.append(f"job {index}: {type(e).__name__}: {e}")

    threads = [threading.Thread(target=client, name=f"client-{k}") for k in range(CLIENTS)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.perf_counter() - start


def closed_loop(wl, out, *, seconds: float | None = None, n_jobs: int | None = None,
                tracer=None, digest: bool = False, verify: bool = True) -> tuple[int, float]:
    """Drive ``wl`` in timed segments; return (jobs sent, timed seconds).

    With ``seconds`` segments continue, a whole block at a time, until
    the timed total reaches it and at least MIN_REQUESTS requests
    completed; with ``n_jobs`` they send exactly jobs ``0 .. n_jobs - 1``.
    After each segment the untimed check proves that segment's
    artifacts (``verify``) and drops them; with ``digest`` it also
    records each artifact's bitstream digest.
    """
    sent, timed, k = 0, 0.0, 0
    while True:
        if n_jobs is not None:
            if sent >= n_jobs:
                break
        elif (sent % wl.block == 0 and timed >= seconds
              and len(out.requests) >= MIN_REQUESTS):
            break
        stop = sent + wl.segments[k % len(wl.segments)]
        if n_jobs is not None:
            stop = min(stop, n_jobs)
        k += 1
        part = type(out)()
        timed += _segment(wl, part, sent, stop, tracer)
        if tracer is not None:
            tracer.set_request("check")
        wl.check(part.requests, digest, verify)
        for req in part.requests:
            req.payload = ()
        out.requests += part.requests
        out.errors += part.errors
        sent = stop
    return sent, timed


def run_setups(wl) -> float:
    """Set the workload up SETUPS times; the last one is kept."""
    times = []
    for _ in range(SETUPS):
        gc.collect()
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def percentile(samples: list[float], p: float) -> float | None:
    """Linear-interpolated percentile, or None with too thin a tail."""
    n = len(samples)
    if n == 0 or n - math.ceil(p / 100 * n) < TAIL_SAMPLES:
        return None
    xs = sorted(samples)
    pos = (n - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def geomean(values: list[float]) -> float:
    # fsum is exact, so the result does not depend on the order in which
    # the two clients happened to complete their requests.
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def quality(out) -> tuple[float, float, int]:
    """Geomean cycle time and wirelength over the distinct artifacts served."""
    distinct = {q[0]: q[1:] for q in (r.quality for r in out.requests) if q is not None}
    return (geomean([ct for ct, _ in distinct.values()]),
            geomean([w for _, w in distinct.values()]), len(distinct))


def digests(out) -> dict:
    """Each served artifact's digest, keyed by ``(job, n-th request of it)``.

    One client thread appends a job's requests in order, so the key names
    the same request in any replay of the same jobs.
    """
    found, seen = {}, {}
    for req in out.requests:
        n = seen[req.index] = seen.get(req.index, -1) + 1
        if req.digest is not None:
            found[(req.index, n)] = req.digest
    return found


def die_yield(out) -> float | None:
    """Share of dies served a defect-clean, non-degraded artifact."""
    dies = [r for r in out.requests if r.kind == "die"]
    if not dies:
        return None
    clean = sum(1 for r in dies if r.error is None and r.path not in ("scrapped", "degraded"))
    return clean / len(dies)


def latency_rows(requests) -> list[tuple]:
    """``(group, n, p50, p90, p99)`` rows, latencies in ms."""
    groups: dict[str, list[float]] = {"all": []}
    for req in requests:
        if req.error is None:
            ms = req.latency_s * 1e3
            groups["all"].append(ms)
            groups.setdefault(f"path={req.path}", []).append(ms)
            groups.setdefault(f"kind={req.kind}", []).append(ms)
    return [
        (g, len(xs), *(percentile(xs, p) for p in (50, 90, 99)))
        for g, xs in groups.items()
    ]


def print_latency_table(rows) -> None:
    print(f"  {'requests':22} {'n':>6} {'p50 ms':>10} {'p90 ms':>10} {'p99 ms':>10}")
    for group, n, *ps in rows:
        cells = [f"{p:10.2f}" if p is not None else f"{'-':>10}" for p in ps]
        print(f"  {group:22} {n:6d} {' '.join(cells)}")
    print(f"  (-: withheld, fewer than {TAIL_SAMPLES} samples beyond that percentile)")


def path_p50(rows, group: str):
    for g, n, p50, _, _ in rows:
        if g == group:
            return p50, n
    return None, 0


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------

def end_to_end(out, setup_s, sent, elapsed) -> tuple[dict, list[str], list]:
    """The untraced metrics plus the report lines for path-specific ones."""
    served = [r for r in out.requests if r.error is None]
    rows = latency_rows(out.requests)
    latencies = [r.latency_s * 1e3 for r in served]
    cycle_time, wirelength, n_artifacts = quality(out)
    metrics = {
        "setup_s": (setup_s, "s"),
        "requests_per_s": (len(out.requests) / elapsed, "1/s"),
        "latency_p50_ms": (percentile(latencies, 50), "ms"),
        "latency_p90_ms": (percentile(latencies, 90), "ms"),
        "cycle_time_geomean": (cycle_time, "delay"),
        "wirelength_geomean": (wirelength, "wires"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = []
    p99 = percentile(latencies, 99)
    notes.append(
        f"latency_p99_ms = {p99:.3f} ms (n={len(latencies)})" if p99 is not None
        else f"latency_p99_ms withheld: n={len(latencies)} leaves fewer than "
             f"{TAIL_SAMPLES} samples beyond p99"
    )
    for name, group in (("memory_hit_p50_ms", "path=memory"), ("disk_hit_p50_ms", "path=disk"),
                        ("edit_p50_ms", "kind=edit"), ("repair_p50_ms", "kind=die")):
        p50, n = path_p50(rows, group)
        if p50 is not None:
            notes.append(f"{name} = {p50:.3f} ms (n={n})")
        elif n:
            notes.append(f"{name} withheld: n={n} leaves fewer than {TAIL_SAMPLES} beyond p50")
    dies = sum(1 for r in out.requests if r.kind == "die")
    if dies:
        notes.append(f"die_yield = {die_yield(out):.4f} (dies={dies})")
    failed = sum(1 for r in out.requests if r.error) + len(out.errors)
    notes.append(f"error_rate = {failed / max(1, len(out.requests) + len(out.errors)):.4f}")
    notes.append(f"jobs sent = {sent}, requests = {len(out.requests)}, "
                 f"timed phase = {elapsed:.2f} s, distinct artifacts in the geomeans = {n_artifacts}")
    return metrics, notes, rows


#: Per-layer self-time spans, reported as ``<span>.self_ms``.
SELF_SPANS = (
    "netlist.canonical_hash",
    "pnr.techmap.map_netlist",
    "pnr.place.initial_placement",
    "pnr.place.anneal_placement",
    "pnr.route.route_design",
    "pnr.timing.analyze_timing",
    "pnr.emit.emit_design",
    "pnr.partition.partition_design",
    "pnr.partition.compile_sharded",
    "pnr.flow.compile_to_fabric",
    "pnr.flow.verify_equivalence",
    "pnr.incremental.compile_incremental",
    "pnr.defects.repair_for_die",
    "service.store.get",
    "service.store.put",
    "service.submit",
    "service.session.apply",
)


def per_layer(tracer, before: dict, after: dict, n: int, overhead: float) -> dict:
    """Per-layer metrics of a traced phase, per completed request."""
    per = max(n, 1)
    c = tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    def delta(*path):
        x, y = after, before
        for p in path:
            x, y = x[p], y[p]
        return x - y

    metrics = {f"{s}.self_ms": (tracer.self_s.get(s, 0.0) * 1e3 / per, "ms") for s in SELF_SPANS}
    evaluated = c.get("pnr.place.anneal_placement.moves_evaluated", 0)
    searched = c.get("pnr.route.route_design.nets_searched", 0)
    replayed = c.get("pnr.route.route_design.nets_replayed", 0)
    metrics.update({
        "pnr.flow.compile_to_fabric.calls": (tracer.calls.get("pnr.flow.compile_to_fabric", 0) / per, "count"),
        "pnr.place.anneal_placement.moves_evaluated": (evaluated / per, "count"),
        "pnr.place.anneal_placement.accept_ratio": (
            ratio(c.get("pnr.place.anneal_placement.moves_accepted", 0), evaluated), "ratio"),
        "pnr.route.route_design.nets_searched": (searched / per, "count"),
        "pnr.route.route_design.nets_replayed": (replayed / per, "count"),
        "pnr.route.route_design.replay_ratio": (ratio(replayed, replayed + searched), "ratio"),
        "pnr.incremental.compile_incremental.fallbacks": (
            c.get("pnr.incremental.compile_incremental.fallbacks", 0) / per, "count"),
        "pnr.defects.repair_for_die.fallbacks": (c.get("pnr.defects.repair_for_die.fallbacks", 0) / per, "count"),
        "pnr.defects.repair_for_die.gates_moved": (
            c.get("pnr.defects.repair_for_die.gates_moved", 0) / per, "count"),
        "service.cache.hit_ratio": (ratio(delta("cache", "hits"), delta("cache", "lookups")), "ratio"),
        "service.store.hit_ratio": (ratio(delta("store", "hits"), delta("store", "lookups")), "ratio"),
        "service.store.blob_bytes": (c.get("service.store.blob_bytes", 0) / per, "B"),
        "service.store.evictions": (delta("store", "evictions") / per, "count"),
        "service.store.dir_syncs": (delta("store", "dir_syncs") / per, "count"),
        "service.coalesced_ratio": (ratio(delta("coalesced"), delta("submissions")), "ratio"),
        "service.compiles_per_request": (delta("compiles") / per, "count"),
        "trace.overhead_ratio": (overhead, "ratio"),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_repro()
    except ImportError as e:
        print(f"perfbench: cannot import this checkout's repro package: {e}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work = OUT / "work"
    work.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, str(work))
    try:
        return run(wl, args)
    finally:
        wl.cleanup()


def pin_to_one_cpu() -> int:
    """Run every thread of this process on one CPU; return that CPU.

    The service is bound by the interpreter lock, so a second CPU adds
    little throughput.  On a shared virtual machine it adds noise: when
    the lock passes to a thread whose virtual CPU the host has paused,
    both threads stall.  On a shared 2-vCPU virtual machine, unpinned,
    one seed's requests per second moved by 45% between runs minutes
    apart while a single-threaded compile slowed by only 10%.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run(wl, args) -> int:
    from workloads import Outcome

    cpu = pin_to_one_cpu()
    print(f"== {wl.name}  seed={args.seed}  seconds={args.seconds:g}  "
          f"trace={args.trace}  cpu={cpu} ==")
    setup_s = run_setups(wl)
    out = Outcome()
    gc.collect()
    cpu0 = time.process_time()
    # A traced run proves its artifacts in the traced phase, which must
    # reproduce this phase's bytes exactly; here it only takes digests.
    traced_run = args.trace == 1
    sent, elapsed = closed_loop(wl, out, seconds=args.seconds,
                                digest=traced_run, verify=not traced_run)
    errors = list(out.errors) + wl.final_errors()
    metrics, notes, rows = end_to_end(out, setup_s, sent, elapsed)
    # On a shared host, wall time grows when the host pauses this CPU and
    # process time does not, so a slow run with normal process time points
    # at the host.
    notes.append(f"process CPU time from the first request to the last check: "
                 f"{time.process_time() - cpu0:.2f} s")
    print_latency_table(rows)
    for line in notes:
        print(f"  {line}")
    report = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "jobs": sent, "end_to_end": {k: v[0] for k, v in metrics.items()},
              "notes": notes,
              "latency": [dict(zip(("group", "n", "p50", "p90", "p99"), r)) for r in rows]}
    if args.trace == 1:
        from tracer import Tracer

        untraced_rps = metrics["requests_per_s"][0]
        wl.setup()
        traced = Outcome()
        before = wl.svc.stats()
        tracer = Tracer().install()
        try:
            gc.collect()
            _, traced_elapsed = closed_loop(wl, traced, n_jobs=sent, tracer=tracer, digest=True)
        finally:
            tracer.uninstall()
        after = wl.svc.stats()
        errors += list(traced.errors) + wl.final_errors()
        first, second = digests(out), digests(traced)
        if first != second:
            differ = sum(first.get(k) != v for k, v in second.items())
            errors.append(f"traced artifacts differ from untraced ones ({differ} of {len(second)})")
        overhead = (len(traced.requests) / traced_elapsed) / untraced_rps
        metrics = per_layer(tracer, before, after, len(traced.requests), overhead)
        tracer.dump(str(OUT / f"trace-{wl.name}-{args.seed}.json"))
        busy = sum(tracer.self_s.values())
        print("  per-layer self time (traced replay of the same jobs, checks included):")
        for name, secs in sorted(tracer.self_s.items(), key=lambda kv: -kv[1]):
            print(f"  {name:40} {secs * 1e3 / max(1, len(traced.requests)):10.3f} ms/req "
                  f"{secs / busy:7.1%}  calls={tracer.calls[name]}")
        out = traced
        report["per_layer"] = {k: v[0] for k, v in metrics.items()}
    errors += [f"request {r.index} ({r.kind}/{r.path}): {r.error}" for r in out.requests if r.error]
    for line in errors[:20]:
        print(f"  ERROR {line}")
    report["errors"] = errors
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{wl.name}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str))
    failed = sum(1 for r in out.requests if r.error) + len(out.errors)
    attempted = max(1, len(out.requests) + len(out.errors))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
