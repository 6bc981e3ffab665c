#!/usr/bin/env python
"""CI benchmark-regression gate over ``BENCH_results.json``.

Compares a freshly generated trajectory against the committed baseline
and fails (exit code 1) when any *pinned* design regresses beyond the
tolerance on a gated metric.  Pinned designs are the stable PnR quality
rows whose numbers are deterministic for a seed — compile wall times
are machine-dependent and deliberately not gated:

* ``fig10_adder_slice`` (the paper's fa1 slice), ``rca8``,
  ``mul2_array``, ``mul3_array``;
* metrics: ``cycle_time`` and ``wirelength`` (higher = worse), each
  allowed to drift up by at most ``TOLERANCE`` (10%).

``compile_s`` is *recorded* for every pinned design (printed in the
drift table so the perf trajectory is visible in the CI artifact and
log) but never gated — wall time is machine-dependent.

A design or metric missing from the fresh results is itself a failure
(the bench silently dropping a row must not pass the gate); a design
missing from the *baseline* is skipped, so adding new rows never blocks.

Usage (what the CI example-smoke job runs)::

    cp benchmarks/BENCH_results.json /tmp/bench-baseline.json
    python benchmarks/run_all.py
    python benchmarks/check_regressions.py \
        --baseline /tmp/bench-baseline.json \
        --fresh benchmarks/BENCH_results.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Designs whose quality rows are gated, and the gated metrics.
PINNED_DESIGNS: tuple[str, ...] = (
    "fig10_adder_slice",
    "rca8",
    "mul2_array",
    "mul3_array",
)
METRICS: tuple[str, ...] = ("cycle_time", "wirelength")

#: Metrics shown in the drift table but never gated (machine-dependent).
REPORT_ONLY_METRICS: tuple[str, ...] = ("compile_s",)


#: Die yield from ``microbench.defects`` is shown, never gated: it is a
#: property of the sampled lot, not of the code under test.
def defects_table(results: dict) -> dict:
    """The ``microbench.defects`` rows of one trajectory (may be {})."""
    return results.get("microbench", {}).get("defects", {}) or {}


#: Resilience rows from ``microbench.resilience`` shown (never gated):
#: recovery overhead and serve latencies are machine-dependent, and the
#: degraded rate is a property of the bench's pressure mix —
#: ``tests/test_resilience.py`` pins the functional contract.
RESILIENCE_REPORT_METRICS: dict[str, tuple[str, ...]] = {
    "crash": ("recovery_overhead", "clean_s", "crashed_s"),
    "degraded": ("degraded_rate", "degraded_ms", "repair_ms"),
    "retry": ("retried_call_ms", "fault_point_no_plan_ns"),
}


def resilience_table(results: dict) -> dict:
    """The ``microbench.resilience`` rows of one trajectory (may be {})."""
    return results.get("microbench", {}).get("resilience", {}) or {}


def defect_yield_rows(results: dict) -> dict:
    """The yield-vs-density rows, keyed by ``cell_fail_*`` (may be {})."""
    curve = defects_table(results).get("yield_curve", {}) or {}
    return {k: v for k, v in curve.items() if k.startswith("cell_fail_")}

#: Allowed relative drift upward (worse) before the gate fails.
TOLERANCE: float = 0.10


def quality_table(results: dict) -> dict:
    """The per-design PnR quality rows of one trajectory (may be {})."""
    return (
        results.get("microbench", {}).get("pnr", {}).get("quality", {}) or {}
    )


def drift_line(
    label: str, metric: str, b, f, *,
    widths: tuple[int, int] = (20, 9), gated: bool = False,
) -> str:
    """One ``baseline -> fresh  drift`` row of the drift table."""
    drift = (
        f"{(f - b) / b:+.1%}" if b not in (None, 0) and f is not None
        else "n/a"
    )
    note = "" if gated else "  (recorded, not gated)"
    m, v = widths
    return f"  {label} {metric:<{m}} {b!s:>{v}} -> {f!s:>{v}}  {drift}{note}"


def check(
    baseline: dict,
    fresh: dict,
    designs: tuple[str, ...] = PINNED_DESIGNS,
    metrics: tuple[str, ...] = METRICS,
    tolerance: float = TOLERANCE,
) -> list[str]:
    """Violation messages for ``fresh`` against ``baseline`` (empty = pass)."""
    base_q = quality_table(baseline)
    fresh_q = quality_table(fresh)
    violations: list[str] = []
    if not fresh_q:
        return ["fresh results carry no microbench.pnr.quality table"]
    for design in designs:
        base_row = base_q.get(design)
        if base_row is None:
            continue  # new design: nothing to gate against yet
        fresh_row = fresh_q.get(design)
        if fresh_row is None:
            violations.append(f"{design}: missing from fresh results")
            continue
        for metric in metrics:
            base_val = base_row.get(metric)
            if base_val is None:
                continue
            fresh_val = fresh_row.get(metric)
            if fresh_val is None:
                violations.append(f"{design}.{metric}: missing from fresh results")
                continue
            limit = base_val * (1.0 + tolerance)
            if fresh_val > limit:
                violations.append(
                    f"{design}.{metric}: {fresh_val} exceeds baseline "
                    f"{base_val} by more than {tolerance:.0%} "
                    f"(limit {limit:.1f})"
                )
    return violations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", type=Path, required=True,
        help="committed trajectory to gate against (save it before run_all)",
    )
    parser.add_argument(
        "--fresh", type=Path, required=True,
        help="freshly generated trajectory to check",
    )
    parser.add_argument(
        "--tolerance", type=float, default=TOLERANCE,
        help="allowed relative drift (default %(default)s)",
    )
    args = parser.parse_args(argv)
    if args.baseline.resolve() == args.fresh.resolve():
        # Comparing a file against itself always passes — refuse the
        # silent no-op (run_all overwrites in place; copy the baseline
        # aside first, as the CI job does).
        print(
            f"benchmark gate: baseline and fresh are the same file "
            f"({args.fresh}); save the baseline aside before run_all"
        )
        return 2
    baseline = json.loads(args.baseline.read_text())
    fresh = json.loads(args.fresh.read_text())
    violations = check(baseline, fresh, tolerance=args.tolerance)
    base_q, fresh_q = quality_table(baseline), quality_table(fresh)
    print(f"benchmark gate: {len(PINNED_DESIGNS)} pinned designs, "
          f"tolerance {args.tolerance:.0%}")
    for design in PINNED_DESIGNS:
        for metric in METRICS + REPORT_ONLY_METRICS:
            print(drift_line(
                f"{design:<20}", metric,
                base_q.get(design, {}).get(metric),
                fresh_q.get(design, {}).get(metric),
                widths=(12, 8), gated=metric in METRICS,
            ))
    base_r, fresh_r = resilience_table(baseline), resilience_table(fresh)
    for row, r_metrics in RESILIENCE_REPORT_METRICS.items():
        for metric in r_metrics:
            b = base_r.get(row, {}).get(metric)
            f = fresh_r.get(row, {}).get(metric)
            if b is not None or f is not None:
                print(drift_line(f"resilience.{row:<9}", metric, b, f))
    base_y, fresh_y = defect_yield_rows(baseline), defect_yield_rows(fresh)
    for row in sorted(set(base_y) | set(fresh_y)):
        b = base_y.get(row, {}).get("die_yield")
        f = fresh_y.get(row, {}).get("die_yield")
        if b is not None or f is not None:
            print(drift_line(f"defects.{row:<12}", "die_yield", b, f))
    if violations:
        print("REGRESSIONS:")
        for v in violations:
            print(f"  {v}")
        return 1
    print("ok: no pinned metric regressed beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
