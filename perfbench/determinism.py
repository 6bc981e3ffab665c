#!/usr/bin/env python3
"""Determinism self-test: one seed, run twice, must give the same answers.

Each workload sends a fixed list of jobs twice, each time on a fresh
set-up and with the tracer installed.  The two runs must agree exactly
on ``cycle_time_geomean``, ``wirelength_geomean`` and ``die_yield``, and
on ``cold_mix`` also on the work counts ``moves_evaluated``,
``nets_searched``, ``nets_replayed`` and ``blob_bytes``.  Exits 1 on a
mismatch.

    python3 perfbench/determinism.py [--seed N]
"""

from __future__ import annotations

import argparse
import sys

from run import OUT, closed_loop, die_yield, import_repro, quality

#: Jobs per workload: one block each, two of ``hot_repeat``.
JOBS = {"cold_mix": 32, "hot_repeat": 100, "edit_repair": 32}
COLD_COUNTS = (
    "pnr.place.anneal_placement.moves_evaluated",
    "pnr.route.route_design.nets_searched",
    "pnr.route.route_design.nets_replayed",
    "service.store.blob_bytes",
)


def answers(name: str, seed: int) -> dict:
    from tracer import Tracer
    from workloads import WORKLOADS, Outcome

    work = OUT / "work"
    work.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[name](seed, str(work))
    try:
        wl.setup()
        out = Outcome()
        tracer = Tracer().install()
        try:
            closed_loop(wl, out, n_jobs=JOBS[name], tracer=tracer)
        finally:
            tracer.uninstall()
        if out.errors or any(r.error for r in out.requests):
            raise SystemExit(f"{name}: requests failed: {out.errors[:3]}")
        cycle_time, wirelength, _ = quality(out)
        found = {
            "cycle_time_geomean": cycle_time,
            "wirelength_geomean": wirelength,
            "die_yield": die_yield(out),
        }
        if name == "cold_mix":
            found.update({k: tracer.counts.get(k, 0) for k in COLD_COUNTS})
        return found
    finally:
        wl.cleanup()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    import_repro()
    ok = True
    for name in JOBS:
        first, second = answers(name, args.seed), answers(name, args.seed)
        for key, value in first.items():
            same = value == second[key]
            ok &= same
            print(f"{name:12} {key:45} {value!s:>22} {'same' if same else f'DIFFERS: {second[key]}'}")
    print("deterministic" if ok else "NOT deterministic")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
