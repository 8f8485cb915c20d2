"""E16 — simulator throughput (library performance, not a paper artifact).

pytest-benchmark timings for the core simulators across instance sizes.  The
analytic paths are event-driven: Algorithm C's shadow keeps its active jobs in
a heap and its remaining weight in a running accumulator, and the prefix
shadows behind NC, NC-PAR and C-PAR only ever advance forward in time.  On
the default array backends each event costs O(log n), so a 200-job stream
should simulate in milliseconds — this bench is the regression guard for
that.
"""

from __future__ import annotations

import pytest

from repro import PowerLaw
from repro.algorithms import simulate_clairvoyant, simulate_nc_uniform
from repro.core import evaluate
from repro.parallel import simulate_c_par, simulate_nc_par
from repro.workloads import random_instance

POWER = PowerLaw(3.0)


@pytest.mark.parametrize("n", [50, 200])
def test_clairvoyant_throughput(benchmark, n):
    inst = random_instance(n, seed=5, rate=2.0)
    result = benchmark(lambda: simulate_clairvoyant(inst, POWER))
    assert result.schedule.end_time > 0


@pytest.mark.parametrize("n", [50, 200])
def test_nc_uniform_throughput(benchmark, n):
    inst = random_instance(n, seed=5, rate=2.0)
    result = benchmark(lambda: simulate_nc_uniform(inst, POWER))
    assert result.schedule.end_time > 0


def test_evaluate_throughput(benchmark):
    inst = random_instance(200, seed=5, rate=2.0)
    sched = simulate_clairvoyant(inst, POWER).schedule
    rep = benchmark(lambda: evaluate(sched, inst, POWER))
    assert rep.energy > 0


def test_nc_par_throughput(benchmark):
    inst = random_instance(100, seed=5, rate=2.0)
    run = benchmark(lambda: simulate_nc_par(inst, POWER, 8))
    assert run.machines == 8


def test_c_par_throughput(benchmark):
    inst = random_instance(100, seed=5, rate=2.0)
    run = benchmark(lambda: simulate_c_par(inst, POWER, 8))
    assert run.machines == 8
