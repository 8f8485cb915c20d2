#!/usr/bin/env python3
"""Diff fresh ``BENCH_*.json`` artifacts against the committed baselines.

The benchmark suite writes machine-readable artifacts to ``benchmarks/out/``
*in place*, so after a local ``make bench-smoke`` the working tree holds the
fresh numbers while the committed baseline is only reachable through git.
This script compares the two:

* every shared numeric quantity must agree within ``--tolerance`` relative
  (deterministic outputs — energies, objectives, counters, ratios — are
  expected to agree exactly; the tolerance absorbs intentional re-baselines
  of statistical quantities);
* wall-clock-derived quantities (``wall_clock_s``, overhead ratios) are
  skipped — they vary with the host — EXCEPT the one-sided gates: the
  supervisor's no-fault
  ``supervised_overhead`` must stay at or below ``--max-overhead`` (1.05,
  the robustness layer's 5% ceiling); the sharded path's
  ``shard_pool_speedup_largest`` must stay at or above
  ``--min-shard-speedup`` (the pool beats serial shard execution) and its
  ``shard_recovery_overhead`` at or below ``--max-recovery-overhead``;
  the streaming trace verifier's ``trace_peak_mb`` must stay at or below
  ``--max-trace-peak-mb`` and its ``trace_peak_ratio`` (peak at 10^6 vs
  10^4 events) at or below ``--max-trace-peak-ratio`` — bounded-memory
  verification of million-event traces; the service's mixed-load
  ``service_p99_ms`` must stay at or below ``--max-service-p99-ms``
  (99th-percentile request latency through the in-process ASGI stack,
  bench_service_load); the durable service's ``journal_overhead`` (p99
  of a journaled service over its unjournaled twin, paired mixed load,
  bench_service_recovery) must stay at or below
  ``--max-journal-overhead`` (1.10 — write-ahead durability may cost at
  most 10% at the tail) and its ``restore_100_sessions_ms`` (cold
  crash-recovery of 100 journaled sessions) at or below
  ``--max-restore-ms``;
* quantities present on only one side are reported (new benchmarks are fine;
  silently vanished ones are not).

Baselines come from ``git show <ref>:benchmarks/out/<name>`` by default
(``--baseline-ref HEAD``), or from a directory via ``--baseline-dir`` when
comparing two checkouts.  Used by the CI ``bench-smoke`` job and ``make ci``.

Exit status: 0 clean, 1 on any regression, 2 on usage/IO errors.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Iterator

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = REPO_ROOT / "benchmarks" / "out"

#: Host-dependent keys: never diffed against the baseline.
TIMING_KEYS = frozenset(
    {
        "wall_clock_s",
        "null_overhead",
        "memory_overhead",
        "supervised_overhead",
        "shard_pool_speedup",
        "shard_pool_speedup_largest",
        "shard_recovery_overhead",
        "scalar_wall_s",
        "fast_wall_s",
        "scale_speedup",
        "events_per_s",
        "trace_peak_mb",
        "in_memory_peak_mb",
        "trace_peak_ratio",
        "ru_maxrss_mb",
        "requests_per_s",
        "service_p50_ms",
        "service_p99_ms",
        "p50_ms",
        "p99_ms",
        "mean_ms",
        "journal_overhead",
        "p50_plain_ms",
        "p50_journal_ms",
        "p99_plain_ms",
        "p99_journal_ms",
        "submit_p99_plain_ms",
        "submit_p99_journal_ms",
        "restore_100_sessions_ms",
        "restore_per_session_ms",
    }
)
#: Timing-derived key with an acceptance *ceiling*: the no-fault supervised
#: run may cost at most 5% over the unsupervised baseline.
OVERHEAD_KEY = "supervised_overhead"
#: Sharded-execution gates (bench_shard_scale): the worker pool must beat
#: shard-at-a-time serial execution at the largest grid point, and
#: recovering a SIGKILLed worker must stay under the ceiling relative to a
#: clean pool run.
SHARD_SPEEDUP_KEY = "shard_pool_speedup_largest"
SHARD_RECOVERY_KEY = "shard_recovery_overhead"
#: Array-core gate (bench_scale): the fast shadow loop must beat the legacy
#: scalar loop by at least this factor wherever both are timed.
SCALE_SPEEDUP_KEY = "scale_speedup"
#: Streaming-verification gates (bench_trace_scale): the one-pass report
#: over a >= 10^6-event trace must fit a fixed heap ceiling, and its peak
#: may not grow with the event count (10^6 vs 10^4 events ratio).
TRACE_PEAK_KEY = "trace_peak_mb"
TRACE_PEAK_RATIO_KEY = "trace_peak_ratio"
#: Service load gate (bench_service_load): the mixed-load 99th-percentile
#: request latency through the in-process ASGI stack must stay under a
#: committed ceiling.
SERVICE_P99_KEY = "service_p99_ms"
#: Durable-service gates (bench_service_recovery): the write-ahead journal
#: may cost at most 10% at the paired mixed-load p99, and a cold restore of
#: 100 journaled sessions must stay under the ceiling — recovery time is
#: part of the availability budget.
JOURNAL_OVERHEAD_KEY = "journal_overhead"
RESTORE_MS_KEY = "restore_100_sessions_ms"
DEFAULT_MAX_OVERHEAD = 1.05
DEFAULT_MIN_SHARD_SPEEDUP = 1.0
DEFAULT_MAX_RECOVERY_OVERHEAD = 4.0
DEFAULT_MIN_SCALE_SPEEDUP = 20.0
DEFAULT_MAX_TRACE_PEAK_MB = 8.0
DEFAULT_MAX_TRACE_PEAK_RATIO = 2.0
DEFAULT_MAX_SERVICE_P99_MS = 25.0
DEFAULT_MAX_JOURNAL_OVERHEAD = 1.10
DEFAULT_MAX_RESTORE_MS = 5000.0
DEFAULT_TOLERANCE = 1e-6


def flatten(obj: Any, path: str = "") -> Iterator[tuple[str, float]]:
    """Yield ``(dotted.path, value)`` for every numeric leaf, skipping
    host-dependent timing keys."""
    if isinstance(obj, dict):
        for key, value in sorted(obj.items()):
            if key in TIMING_KEYS:
                continue
            yield from flatten(value, f"{path}.{key}" if path else str(key))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from flatten(value, f"{path}[{i}]")
    elif isinstance(obj, bool):
        return
    elif isinstance(obj, (int, float)):
        yield path, float(obj)


def collect_key(obj: Any, wanted: str, path: str = "") -> Iterator[tuple[str, float]]:
    """Every numeric ``wanted`` leaf in a payload, with its dotted path."""
    if isinstance(obj, dict):
        for key, value in sorted(obj.items()):
            sub = f"{path}.{key}" if path else str(key)
            if key == wanted and isinstance(value, (int, float)):
                yield sub, float(value)
            else:
                yield from collect_key(value, wanted, sub)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from collect_key(value, wanted, f"{path}[{i}]")


def load_baseline(
    name: str, baseline_dir: Path | None, baseline_ref: str
) -> dict[str, Any] | None:
    if baseline_dir is not None:
        path = baseline_dir / name
        if not path.exists():
            return None
        return json.loads(path.read_text())
    proc = subprocess.run(
        ["git", "show", f"{baseline_ref}:benchmarks/out/{name}"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout)


def compare_file(
    name: str,
    fresh: dict[str, Any],
    baseline: dict[str, Any],
    tolerance: float,
) -> list[str]:
    problems = []
    fresh_vals = dict(flatten(fresh))
    base_vals = dict(flatten(baseline))
    for path in sorted(base_vals.keys() - fresh_vals.keys()):
        problems.append(f"{name}: {path} vanished (baseline had {base_vals[path]:g})")
    for path in sorted(fresh_vals.keys() & base_vals.keys()):
        a, b = fresh_vals[path], base_vals[path]
        if abs(a - b) > tolerance * max(1.0, abs(a), abs(b)):
            problems.append(
                f"{name}: {path} = {a:.9g}, baseline {b:.9g} "
                f"(rel diff {abs(a - b) / max(1.0, abs(a), abs(b)):.3g} > {tolerance:g})"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fresh-dir",
        type=Path,
        default=OUT_DIR,
        help="directory holding the freshly produced BENCH_*.json",
    )
    parser.add_argument(
        "--baseline-ref",
        default="HEAD",
        help="git ref to read the committed baselines from (default HEAD)",
    )
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=None,
        help="read baselines from a directory instead of git",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="relative tolerance for deterministic quantities",
    )
    parser.add_argument(
        "--max-overhead",
        type=float,
        default=DEFAULT_MAX_OVERHEAD,
        help="acceptance ceiling for every fresh 'supervised_overhead' value",
    )
    parser.add_argument(
        "--min-shard-speedup",
        type=float,
        default=DEFAULT_MIN_SHARD_SPEEDUP,
        help="acceptance floor for 'shard_pool_speedup_largest' (pool must "
        "beat serial shard execution)",
    )
    parser.add_argument(
        "--max-recovery-overhead",
        type=float,
        default=DEFAULT_MAX_RECOVERY_OVERHEAD,
        help="acceptance ceiling for 'shard_recovery_overhead' (price of a "
        "SIGKILLed worker vs a clean pool run)",
    )
    parser.add_argument(
        "--min-scale-speedup",
        type=float,
        default=DEFAULT_MIN_SCALE_SPEEDUP,
        help="acceptance floor for every fresh 'scale_speedup' value (fast "
        "shadow loop vs the legacy scalar loop, bench_scale)",
    )
    parser.add_argument(
        "--max-trace-peak-mb",
        type=float,
        default=DEFAULT_MAX_TRACE_PEAK_MB,
        help="acceptance ceiling for every fresh 'trace_peak_mb' value (peak "
        "heap of one-pass trace verification, bench_trace_scale)",
    )
    parser.add_argument(
        "--max-trace-peak-ratio",
        type=float,
        default=DEFAULT_MAX_TRACE_PEAK_RATIO,
        help="acceptance ceiling for 'trace_peak_ratio' (streaming peak at "
        "10^6 events over 10^4 events — must stay ~flat)",
    )
    parser.add_argument(
        "--max-service-p99-ms",
        type=float,
        default=DEFAULT_MAX_SERVICE_P99_MS,
        help="acceptance ceiling for 'service_p99_ms' (99th-percentile "
        "request latency of the in-process service load, bench_service_load)",
    )
    parser.add_argument(
        "--max-journal-overhead",
        type=float,
        default=DEFAULT_MAX_JOURNAL_OVERHEAD,
        help="acceptance ceiling for 'journal_overhead' (journaled over "
        "unjournaled mixed-load p99, bench_service_recovery)",
    )
    parser.add_argument(
        "--max-restore-ms",
        type=float,
        default=DEFAULT_MAX_RESTORE_MS,
        help="acceptance ceiling for 'restore_100_sessions_ms' (cold "
        "crash-recovery of 100 journaled sessions, bench_service_recovery)",
    )
    args = parser.parse_args(argv)

    fresh_files = sorted(args.fresh_dir.glob("BENCH_*.json"))
    if not fresh_files:
        print(f"error: no BENCH_*.json under {args.fresh_dir}", file=sys.stderr)
        return 2

    problems: list[str] = []
    checked = 0
    for path in fresh_files:
        fresh = json.loads(path.read_text())
        for spath, value in collect_key(fresh, OVERHEAD_KEY):
            if value > args.max_overhead:
                problems.append(
                    f"{path.name}: {spath} = {value:.3f} above the "
                    f"{args.max_overhead:g}x supervised-overhead ceiling"
                )
        for spath, value in collect_key(fresh, SHARD_SPEEDUP_KEY):
            if value < args.min_shard_speedup:
                problems.append(
                    f"{path.name}: {spath} = {value:.3f} below the "
                    f"{args.min_shard_speedup:g}x shard-pool floor (pool "
                    f"slower than serial shard execution)"
                )
        for spath, value in collect_key(fresh, SCALE_SPEEDUP_KEY):
            if value < args.min_scale_speedup:
                problems.append(
                    f"{path.name}: {spath} = {value:.1f} below the "
                    f"{args.min_scale_speedup:g}x array-core floor"
                )
        for spath, value in collect_key(fresh, SHARD_RECOVERY_KEY):
            if value > args.max_recovery_overhead:
                problems.append(
                    f"{path.name}: {spath} = {value:.3f} above the "
                    f"{args.max_recovery_overhead:g}x shard-recovery ceiling"
                )
        for spath, value in collect_key(fresh, TRACE_PEAK_KEY):
            if value > args.max_trace_peak_mb:
                problems.append(
                    f"{path.name}: {spath} = {value:.2f} MB above the "
                    f"{args.max_trace_peak_mb:g} MB streaming-verification ceiling"
                )
        for spath, value in collect_key(fresh, TRACE_PEAK_RATIO_KEY):
            if value > args.max_trace_peak_ratio:
                problems.append(
                    f"{path.name}: {spath} = {value:.2f} above the "
                    f"{args.max_trace_peak_ratio:g}x peak-growth ceiling "
                    f"(streaming memory is growing with the event count)"
                )
        for spath, value in collect_key(fresh, SERVICE_P99_KEY):
            if value > args.max_service_p99_ms:
                problems.append(
                    f"{path.name}: {spath} = {value:.2f} ms above the "
                    f"{args.max_service_p99_ms:g} ms service-latency ceiling"
                )
        for spath, value in collect_key(fresh, JOURNAL_OVERHEAD_KEY):
            if value > args.max_journal_overhead:
                problems.append(
                    f"{path.name}: {spath} = {value:.3f} above the "
                    f"{args.max_journal_overhead:g}x journaling-overhead "
                    f"ceiling (write-ahead durability tax at the mixed p99)"
                )
        for spath, value in collect_key(fresh, RESTORE_MS_KEY):
            if value > args.max_restore_ms:
                problems.append(
                    f"{path.name}: {spath} = {value:.1f} ms above the "
                    f"{args.max_restore_ms:g} ms crash-recovery ceiling "
                    f"(100-session cold restore)"
                )
        baseline = load_baseline(path.name, args.baseline_dir, args.baseline_ref)
        if baseline is None:
            print(f"  {path.name}: no baseline (new benchmark) — skipped diff")
            continue
        problems.extend(compare_file(path.name, fresh, baseline, args.tolerance))
        checked += 1

    if problems:
        print(f"BENCH REGRESSION: {len(problems)} problem(s)")
        for p in problems:
            print(f"  {p}")
        return 1
    print(f"bench regression check: OK ({checked} baseline(s) diffed, "
          f"{len(fresh_files)} artifact(s), tolerance {args.tolerance:g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
