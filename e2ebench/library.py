"""The library workloads and the library layers' probes.

An op is one instance through the user's path, split into the part that
produces schedules ("ack") and the part that reads them back to score or
verify them ("read").  Every op checks its output against the paper:

* Theorem 1 — Algorithm C's energy equals its fractional flow;
* Lemmas 3 and 4 — NC's energy equals C's, and NC's fractional flow equals
  C's divided by ``1 - 1/alpha``;
* Lemma 20 — NC-PAR and C-PAR produce the same assignments;
* the ``repro trace`` pipeline's replayed report is ``ok`` (trace probe).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable

from harness import WORK, BenchError, Spans, loglog_slope
from inputs import ALPHA, POOLS, ladder_instance

REL_TOL = 1e-9


def _direct(name: str, fn: Callable, *args, **kwargs):
    return fn(*args, **kwargs)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


@dataclass
class OpResult:
    ack_s: float
    read_s: float
    jobs: int
    error: str | None = None


def _power():
    from repro.core.power import PowerLaw

    return PowerLaw(ALPHA)


def check_pair(c_rep, nc_rep) -> str | None:
    """Theorem 1 and Lemmas 3/4 on the two cost reports of one instance."""
    if not _close(c_rep.energy, c_rep.fractional_flow):
        return f"Theorem 1: energy(C)={c_rep.energy!r} != flow(C)={c_rep.fractional_flow!r}"
    if not _close(nc_rep.energy, c_rep.energy):
        return f"Lemma 3: energy(NC)={nc_rep.energy!r} != energy(C)={c_rep.energy!r}"
    want = c_rep.fractional_flow / (1.0 - 1.0 / ALPHA)
    if not _close(nc_rep.fractional_flow, want):
        return f"Lemma 4: flow(NC)={nc_rep.fractional_flow!r} != {want!r}"
    return None


def solve_score_op(inst, spans: Spans | None = None) -> OpResult:
    """C and NC on one instance, both schedules scored by ``evaluate``
    (untraced: the default NullRecorder)."""
    from repro.algorithms import simulate_clairvoyant, simulate_nc_uniform
    from repro.core.metrics import evaluate

    call = spans.call if spans is not None else _direct
    power = _power()
    t0 = time.perf_counter()
    c = call("shadow.c", simulate_clairvoyant, inst, power)
    nc = call("algorithms.nc", simulate_nc_uniform, inst, power)
    t1 = time.perf_counter()
    c_rep = call("metrics.evaluate", evaluate, c.schedule, inst, power)
    nc_rep = call("metrics.evaluate", evaluate, nc.schedule, inst, power)
    t2 = time.perf_counter()
    return OpResult(t1 - t0, t2 - t1, len(inst), check_pair(c_rep, nc_rep))


def cluster_dispatch_op(inst, spans: Spans | None = None) -> OpResult:
    """NC-PAR and C-PAR on one instance plus both per-machine cost reports."""
    from repro.parallel import simulate_c_par, simulate_nc_par

    call = spans.call if spans is not None else _direct
    power = _power()
    machines = POOLS["cluster_dispatch"]["machines"]
    t0 = time.perf_counter()
    nc = call("parallel.nc_par", simulate_nc_par, inst, power, machines)
    c = call("parallel.c_par", simulate_c_par, inst, power, machines)
    t1 = time.perf_counter()
    nc_rep = call("parallel.report", nc.report)
    c_rep = call("parallel.report", c.report)
    t2 = time.perf_counter()
    error = None
    if nc.assignments != c.assignments:
        error = "Lemma 20: NC-PAR and C-PAR assignments differ"
    elif not (nc_rep.energy > 0.0 and c_rep.energy > 0.0):
        error = "cluster report has no energy"
    return OpResult(t1 - t0, t2 - t1, len(inst), error)


def _record_pair(inst, recorder) -> None:
    """C and NC on ``inst`` into ``recorder``, after the self-describing
    ``run_meta`` header, exactly as ``repro trace`` records them."""
    from repro.algorithms import simulate_clairvoyant, simulate_nc_uniform
    from repro.core.shadow import SimulationContext

    power = _power()
    context = SimulationContext(power, recorder=recorder)
    context.emit(
        "run_meta",
        0.0,
        "harness",
        alpha=ALPHA,
        instance=[[j.job_id, j.release, j.volume, j.density] for j in inst],
        algorithms=["C", "NC"],
    )
    simulate_clairvoyant(inst, power, context=context)
    simulate_nc_uniform(inst, power, context=context)


def _emit_trace(inst, path: str):
    """The ``repro trace`` emit step: C and NC into a gzip JsonlRecorder."""
    from repro.core.tracing import JsonlRecorder

    with JsonlRecorder(path, sink="gzip") as recorder:
        _record_pair(inst, recorder)
    return recorder


def _check_report(report) -> str | None:
    if not report.ok:
        return f"trace report not ok: {[c.name for c in report.checks if not c.holds]} {report.order_violations[:3]}"
    if len(report.checks) < 2:
        return f"trace report checked {len(report.checks)} lemmas, expected Lemma 3 and Lemma 4"
    return None


OPS = {
    "solve_score": solve_score_op,
    "cluster_dispatch": cluster_dispatch_op,
}


# -- traced run: per-layer probes ---------------------------------------------


def _ladder_slope(kind: str, sizes: list[int], seed: int, prepare: Callable, timed: Callable, rate: float = 1.0) -> float:
    seconds = []
    for n in sizes:
        arg = prepare(ladder_instance(kind, n, seed, rate))
        t0 = time.perf_counter()
        timed(arg)
        seconds.append(time.perf_counter() - t0)
    return loglog_slope(sizes, seconds)


def probe_solve(pool: list, seed: int) -> dict[str, float]:
    """Algorithm C's shadow loop, NC and ``evaluate`` on solve_score inputs."""
    from repro.algorithms import simulate_clairvoyant, simulate_nc_uniform
    from repro.core.metrics import evaluate
    from repro.core.shadow import SimulationContext

    power = _power()
    spans = Spans()
    counts = {"events": 0, "advances": 0, "inserts": 0}
    for inst in pool:
        context = SimulationContext(power)
        c = spans.call("c", simulate_clairvoyant, inst, power, context=context)
        for name in counts:
            counts[name] += getattr(context.counters, name)
        nc = spans.call("nc", simulate_nc_uniform, inst, power)
        spans.call("evaluate", evaluate, c.schedule, inst, power)
        spans.call("evaluate", evaluate, nc.schedule, inst, power)

    def prepare(inst):
        return inst, simulate_clairvoyant(inst, power).schedule

    slope = _ladder_slope("evaluate", [500, 1000, 2000], seed, prepare, lambda a: evaluate(a[1], a[0], power))
    return {
        "shadow.c_ms": spans.median_ms("c"),
        "shadow.events": counts["events"],
        "shadow.advances": counts["advances"],
        "shadow.inserts": counts["inserts"],
        "algorithms.nc_ms": spans.median_ms("nc"),
        "metrics.evaluate_ms": spans.median_ms("evaluate"),
        "metrics.evaluate_slope": slope,
    }


def probe_cluster(pool: list, seed: int) -> dict[str, float]:
    """NC-PAR, C-PAR (with its Algorithm C calls counted) and the reports."""
    import repro.parallel.c_par as c_par_module
    from repro.parallel import simulate_c_par, simulate_nc_par

    power = _power()
    cfg = POOLS["cluster_dispatch"]
    machines = cfg["machines"]
    spans = Spans()
    calls = 0
    inner = c_par_module.simulate_clairvoyant

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return inner(*args, **kwargs)

    for inst in pool:
        nc = spans.call("nc_par", simulate_nc_par, inst, power, machines)
        c_par_module.simulate_clairvoyant = counted
        try:
            c = spans.call("c_par", simulate_c_par, inst, power, machines)
        finally:
            c_par_module.simulate_clairvoyant = inner
        spans.call("report", nc.report)
        spans.call("report", c.report)
    slope = _ladder_slope(
        "c_par", [64, 128, 256], seed, lambda inst: inst, lambda inst: simulate_c_par(inst, power, machines), cfg["rate"]
    )
    return {
        "parallel.nc_par_ms": spans.median_ms("nc_par"),
        "parallel.c_par_ms": spans.median_ms("c_par"),
        "parallel.c_par_slope": slope,
        "parallel.c_par_c_calls": calls,
        "parallel.report_ms": spans.median_ms("report"),
    }


def probe_trace(pool: list, seed: int) -> dict[str, float]:
    """Trace emit against its untraced twin, then the read and replay halves
    of the streaming verifier, separately."""
    from repro.algorithms import simulate_clairvoyant, simulate_nc_uniform
    from repro.analysis.trace_report import build_report
    from repro.core.tracing import MemoryRecorder, iter_trace

    power = _power()
    spans = Spans()
    events = 0
    size = 0
    path = str(WORK / "probe_trace.jsonl.gz")

    def untraced(inst):
        simulate_clairvoyant(inst, power)
        simulate_nc_uniform(inst, power)

    for inst in pool:
        spans.call("twin", untraced, inst)
        recorder = spans.call("emit", _emit_trace, inst, path)
        events += recorder.count
        trace = spans.call("read", lambda: list(iter_trace(recorder.paths)))
        # Uncompressed event bytes with the wall clock zeroed: exact for a
        # given input, unlike the gzip size or the wall_time digits.
        size += sum(len(replace(e, wall_time=0.0).to_json()) + 1 for e in trace)
        problem = _check_report(spans.call("replay", build_report, trace))
        if problem is not None:
            raise BenchError(problem)

    def prepare(inst):
        recorder = MemoryRecorder()
        _record_pair(inst, recorder)
        return list(recorder)

    slope = _ladder_slope("replay", [300, 600, 1200], seed, prepare, build_report)
    return {
        "tracing.emit_ms": spans.median_ms("emit") - spans.median_ms("twin"),
        "tracing.events": events,
        "tracing.bytes": size,
        "streaming.read_ms": spans.median_ms("read"),
        "streaming.replay_ms": spans.median_ms("replay"),
        "streaming.replay_slope": slope,
    }
