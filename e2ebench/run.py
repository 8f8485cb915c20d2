"""The repository benchmark: one command, two seeded workloads.

    python3 e2ebench/run.py --workload solve_score --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` prints the
per-layer table instead (see README.md).  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
line before it carries run details that are not metrics (host-speed
readings, unscaled figures, sample counts).  Any failed check makes
the command exit nonzero.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import statistics
import sys
import time

from harness import (
    MIN_BEYOND,
    SRC,
    WORK,
    BenchError,
    Spans,
    host_reading_ms,
    host_scale,
    host_speed_ms,
    load_spec,
    metric_units,
    percentile,
    result_line,
    run_child,
    vm_hwm_mb,
)
from inputs import POOLS, WORKLOADS, digest, instance_pool

#: setup_s is the median of this many fresh-interpreter set-ups
SETUP_PROBES = 3
#: enough ops that p90 has MIN_BEYOND samples beyond it
MIN_OPS = 10 * MIN_BEYOND
#: tracing-overhead pairs (untraced op, traced op) at least
MIN_PAIRS = 10

#: modules a fresh interpreter imports before a library workload can run
IMPORTS = {
    "solve_score": ("repro.algorithms", "repro.core.metrics"),
    "cluster_dispatch": ("repro.parallel",),
}
ALL_IMPORTS = ("repro.algorithms", "repro.core.metrics", "repro.parallel", "repro.core.tracing",
               "repro.analysis.trace_report", "repro.service.app", "repro.service.asgi")


def setup_probe(workload: str, seed: int) -> None:
    """Body of one set-up child: imports plus input generation."""
    import importlib

    for name in IMPORTS[workload]:
        importlib.import_module(name)
    print(digest(workload, seed))


def run_library(workload: str, seed: int, seconds: float) -> tuple[dict, dict, int, int]:
    from library import OPS

    setups, setup_scales = [], []
    want = digest(workload, seed)
    for _ in range(SETUP_PROBES):
        wall, out, readings = run_child([__file__, "--setup-probe", "--workload", workload, "--seed", str(seed), "--seconds", "0"])
        setup_scales.append(host_scale(readings))
        if out.strip() != want:
            raise BenchError(f"set-up child generated other inputs ({out.strip()[:16]} != {want[:16]})")
        setups.append(wall)

    pool = instance_pool(workload, seed)
    op = OPS[workload]
    op(pool[-1])  # lazy set-up inside the library is paid once, untimed
    host_before = host_speed_ms()
    results, readings, errors = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(results) < MIN_OPS:
        readings.append(host_reading_ms())
        res = op(pool[len(results) % len(pool)])
        results.append(res)
        if res.error is not None:
            errors.append(f"op {len(results)}: {res.error}")
    readings.append(host_reading_ms())
    host_after = host_speed_ms()
    # Op k sits between readings k and k + 1; scale it by the readings of
    # the ops around it, so a host that changes speed mid-run is followed.
    scales = [host_scale(readings[max(k - 2, 0) : k + 4]) for k in range(len(results))]
    acks = [r.ack_s * f for r, f in zip(results, scales)]
    reads = [r.read_s * f for r, f in zip(results, scales)]
    ops = [a + b for a, b in zip(acks, reads)]
    k = len(results)
    metrics = {
        "setup_s": statistics.median(w * f for w, f in zip(setups, setup_scales)),
        "peak_rss_mb": vm_hwm_mb(),
        "ok_share": 1.0 - len(errors) / k,
        "jobs_per_s": sum(r.jobs for r in results) / sum(ops),
        "op_p50_ms": statistics.median(ops) * 1e3,
        "op_tail_ms": percentile(ops, 0.90) * 1e3,
        "ack_p50_ms": statistics.median(acks) * 1e3,
        "ack_tail_ms": percentile(acks, 0.90) * 1e3,
        "read_p50_ms": statistics.median(reads) * 1e3,
        "read_tail_ms": percentile(reads, 0.90) * 1e3,
    }
    raw_ops = [r.ack_s + r.read_s for r in results]
    detail = {
        "host.speed_before_ms": host_before,
        "host.speed_after_ms": host_after,
        "host.scale_median": statistics.median(scales),
        "raw.setup_s": statistics.median(setups),
        "raw.op_p50_ms": statistics.median(raw_ops) * 1e3,
        "raw.op_tail_ms": percentile(raw_ops, 0.90) * 1e3,
        "tail_percentile": 90,
        "samples": {"op": k},
        "jobs_per_op": POOLS[workload]["n"],
        "errors": errors[:10],
    }
    return metrics, detail, k, len(errors)


def import_seconds() -> float:
    """Import time of every module the benchmark's layers live in, measured
    inside a fresh interpreter (median of three)."""
    code = (
        "import importlib, time; t = time.perf_counter()\n"
        f"for m in {ALL_IMPORTS!r}: importlib.import_module(m)\n"
        "print(time.perf_counter() - t)"
    )
    return statistics.median(float(run_child(["-c", code])[1]) for _ in range(3))


def run_traced(workload: str, seed: int, seconds: float) -> tuple[dict, dict, int, int]:
    """Per-layer table: every layer probed on inputs from this seed, then
    interleaved (untraced, traced) pairs of the workload's own op."""
    from library import OPS, probe_cluster, probe_solve, probe_trace
    from serve import probe_service

    deadline = time.perf_counter() + seconds
    metrics = {"setup.import_s": import_seconds()}
    metrics.update(probe_solve(instance_pool("solve_score", seed)[:12], seed))
    metrics.update(probe_cluster(instance_pool("cluster_dispatch", seed)[:10], seed))
    metrics.update(probe_trace(instance_pool("trace", seed), seed))
    metrics.update(probe_service(seed))

    inputs = instance_pool(workload, seed)
    op = OPS[workload]
    plain, traced, errors = [], [], []
    k = 0
    while time.perf_counter() < deadline or k < MIN_PAIRS:
        arg = inputs[k % len(inputs)]
        order = (False, True) if k % 2 == 0 else (True, False)
        for with_spans in order:
            t0 = time.perf_counter()
            res = op(arg, Spans() if with_spans else None)
            (traced if with_spans else plain).append(time.perf_counter() - t0)
            if res.error is not None:
                errors.append(res.error)
        k += 1
    diff = statistics.median(t - p for t, p in zip(traced, plain))
    metrics["trace.overhead_ms"] = diff * 1e3
    metrics["trace.overhead_pct"] = 100.0 * diff / statistics.median(plain)
    return metrics, {"overhead_pairs": k, "errors": errors[:10]}, 2 * k, len(errors)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the package under test is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    units = metric_units(load_spec(), bool(args.trace))
    shutil.rmtree(WORK, ignore_errors=True)  # left by a killed run with this pid
    WORK.mkdir(parents=True)
    try:
        if args.trace:
            metrics, detail, attempted, failed = run_traced(args.workload, args.seed, args.seconds)
        else:
            metrics, detail, attempted, failed = run_library(args.workload, args.seed, args.seconds)
        line = result_line(metrics, units, attempted=attempted, failed=failed)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.parent.rmdir()  # only when no other run is using it
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, "detail": detail}))
    print(line)
    if failed:
        print(f"error: {failed} of {attempted} operations failed: {detail.get('errors')}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
