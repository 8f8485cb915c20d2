"""Measurement helpers shared by every workload of the repository benchmark.

Nothing here imports :mod:`repro`: the helpers must load (and the self-tests
must run) even where the package under test is absent.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
#: scratch space for traces, journals and server state, one per process;
#: inside the checkout (the benchmark reads and writes nowhere else) and
#: removed after each run.
WORK = HERE / ".work" / str(os.getpid())

#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10
#: iterations of the host-speed loop, and its time at the reference speed
#: (this benchmark's two-core host in its slower, more common state)
HOST_LOOP = 50_000
REFERENCE_MS = 5.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-quantile (0 < q < 1) of ``samples``, linearly interpolated.

    Refuses when fewer than :data:`MIN_BEYOND` samples lie beyond it: a p99
    of 300 samples is three samples, which is noise, not a tail.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    n = len(samples)
    if n * (1.0 - q) < MIN_BEYOND - 1e-9:
        raise BenchError(
            f"p{q * 100:g} of {n} samples has fewer than {MIN_BEYOND} samples beyond it"
        )
    ordered = sorted(samples)
    pos = q * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def loglog_slope(sizes: list[float], seconds: list[float]) -> float:
    """Least-squares slope of log(seconds) against log(size): the scaling
    exponent (1 for linear work, 2 for quadratic)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in seconds]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


def host_reading_ms() -> float:
    """One timing of a fixed pure-Python loop (about 5 ms here)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(HOST_LOOP):
        acc += i * i
    return (time.perf_counter() - t0) * 1e3


def host_speed_ms(readings: int = 9) -> float:
    """Median of several host readings: the host-speed reading printed
    before and after each workload, so that two run sets that disagree can
    be traced to the host rather than to the program."""
    return statistics.median(host_reading_ms() for _ in range(readings))


def host_scale(readings: list[float]) -> float:
    """Factor that brings a time measured beside ``readings`` to the
    reference host speed (:data:`REFERENCE_MS` per host loop)."""
    return REFERENCE_MS / statistics.median(readings)


def vm_hwm_mb() -> float:
    """Peak resident set size (``VmHWM``) of this process, in MiB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM in /proc/self/status")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], timeout: float = 60.0) -> tuple[float, str, list[float]]:
    """Run a fresh interpreter to completion; returns (wall seconds, stdout,
    host readings taken while it ran).  The parent takes host readings
    instead of sleeping, so the child's time can be scaled to the reference
    host speed."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        env=child_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    readings = []
    try:
        while proc.poll() is None:
            if time.perf_counter() - t0 > timeout:
                raise BenchError(f"child {args[:3]} still running after {timeout:.0f}s")
            readings.append(host_reading_ms())
        wall = time.perf_counter() - t0
    finally:
        if proc.poll() is None:
            proc.kill()
        out, err = proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"child {args[:3]} exited {proc.returncode}: {err.strip()[-400:]}")
    return wall, out, readings


class Spans:
    """Benchmark-side spans: wall time of each call into a layer, by name."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.samples.setdefault(name, []).append(time.perf_counter() - t0)

    def median_ms(self, name: str) -> float:
        return statistics.median(self.samples[name]) * 1e3


def load_spec(path: Path = SPEC_PATH) -> dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def metric_units(spec: dict[str, Any], trace: bool) -> dict[str, str]:
    """``name -> unit`` of the metrics a run in this mode must print."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(
    values: dict[str, float],
    units: dict[str, str],
    *,
    attempted: int,
    failed: int,
) -> str:
    """The one-line JSON result; refuses a metric set that differs from the
    spec's, so the printed table and ``BENCHMARK.json`` cannot drift apart."""
    if set(values) != set(units):
        missing = sorted(set(units) - set(values))
        extra = sorted(set(values) - set(units))
        raise BenchError(f"metric set differs from BENCHMARK.json: missing {missing}, extra {extra}")
    for name, value in values.items():
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            raise BenchError(f"metric {name} is not a finite number: {value!r}")
    if attempted < 1:
        raise BenchError("no operation was attempted")
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
        }
    )
