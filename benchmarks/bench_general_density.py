"""E6 — §4/§5: Algorithm NC-general on non-uniform densities.

Measures, per suite instance: the fractional ratio of NC-general against a
certified OPT lower bound, the same after the §5 conversion for the integral
objective (Theorem 16), and the ratio against Algorithm C (the constant the
paper proves is 2^{O(alpha)}).

A second experiment times the incremental clairvoyant-shadow layer on larger
instances (n >= 50) and archives wall-clock, shadow counters and objective
values to ``out/BENCH_general_density.json``.  Its gate is on deterministic
counters, not on the host's clock: shadow events stay within twice the
queries (a per-query re-simulation would replay O(n) events each), and
epoch rebuilds within twice the job count (an epoch only restarts at a
release or a completion).
"""

from __future__ import annotations

import gc
import time

from repro import PowerLaw
from repro.algorithms import convert, simulate_clairvoyant, simulate_nc_general
from repro.analysis import format_table, nonuniform_suite
from repro.core import evaluate
from repro.offline import opt_fractional_lower_bound, opt_integral_lower_bound
from repro.workloads import random_instance

from conftest import emit, emit_json

ALPHA = 3.0
#: (jobs, seed) pairs for the shadow-layer timing experiment.
SPEED_CASES = ((50, 301), (80, 301))
_TIMING_ROUNDS = 5


def _run():
    power = PowerLaw(ALPHA)
    rows = []
    for name, inst in nonuniform_suite(n=6, seeds=(1, 2), alpha=ALPHA):
        run = simulate_nc_general(inst, power, max_step=2e-2)
        rep = evaluate(run.schedule, inst, power)
        conv = convert(run.schedule, inst, power, epsilon=0.5)
        rep_c = evaluate(simulate_clairvoyant(inst, power).schedule, inst, power)
        lb_f = opt_fractional_lower_bound(inst, power, slots=250, iterations=1000)
        lb_i = opt_integral_lower_bound(inst, power, slots=250, iterations=1000)
        rows.append(
            [
                name,
                len(inst),
                rep.fractional_objective / lb_f.value,
                conv.integral_report.integral_objective / lb_i.value,
                rep.fractional_objective / rep_c.fractional_objective,
            ]
        )
    return rows


def _time_shadow():
    """Best-of-N wall-clock of the incremental shadow layer per case."""
    power = PowerLaw(ALPHA)
    records = []
    for n, seed in SPEED_CASES:
        inst = random_instance(n, seed=seed, volume="uniform", density="loguniform")
        best = float("inf")
        # GC paused so collector pauses do not land inside the timed runs.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(_TIMING_ROUNDS):
                t0 = time.perf_counter()
                run = simulate_nc_general(inst, power, max_step=2e-2)
                best = min(best, time.perf_counter() - t0)
        finally:
            if gc_was_enabled:
                gc.enable()
        rep = evaluate(run.schedule, inst, power)
        records.append(
            {
                "jobs": n,
                "seed": seed,
                # Nested under "incremental" so the archived keys stay
                # diffable against earlier baselines.
                "modes": {
                    "incremental": {
                        "wall_clock_s": best,
                        "engine_steps": run.engine_steps,
                        "counters": run.counters.as_dict(),
                        "energy": rep.energy,
                        "fractional_flow": rep.fractional_flow,
                        "fractional_objective": rep.fractional_objective,
                    }
                },
            }
        )
    return records


def test_general_density(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    table = format_table(
        ["instance", "jobs", "frac ratio vs OPT_lb", "int ratio vs OPT_lb (Thm16)", "vs C"],
        rows,
        title=f"§4 NC-general (alpha={ALPHA}, default eta/beta); constants are 2^O(alpha)",
        floatfmt=".3f",
    )

    speed = _time_shadow()
    speed_rows = [
        [
            f"n={r['jobs']} seed={r['seed']}",
            r["modes"]["incremental"]["wall_clock_s"],
            r["modes"]["incremental"]["counters"]["queries"],
            r["modes"]["incremental"]["counters"]["events"],
            r["modes"]["incremental"]["counters"]["rebuilds"],
        ]
        for r in speed
    ]
    table += "\n" + format_table(
        ["case", "wall [s]", "queries", "events", "rebuilds"],
        speed_rows,
        title=f"incremental shadow layer (best of {_TIMING_ROUNDS})",
        floatfmt=".3f",
    )
    emit("general_density", table)
    emit_json(
        "general_density",
        {
            "alpha": ALPHA,
            "competitive_rows": [
                {
                    "instance": row[0],
                    "jobs": row[1],
                    "frac_ratio_vs_opt_lb": row[2],
                    "int_ratio_vs_opt_lb": row[3],
                    "ratio_vs_c": row[4],
                }
                for row in rows
            ],
            "shadow_speed": speed,
        },
    )

    for row in rows:
        # Constant-competitive: generous 2^{O(alpha)} cap, far below any
        # load-dependent blow-up.
        assert row[2] < 200.0
        assert row[3] < 400.0
        assert row[4] < 100.0
    for r in speed:
        counters = r["modes"]["incremental"]["counters"]
        # A query replays only the events since the epoch base; re-simulating
        # I(t) per query would cost O(n) events each.
        assert counters["events"] <= 2 * counters["queries"], counters
        # An epoch only restarts at a release or a completion.
        assert counters["rebuilds"] <= 2 * r["jobs"], counters
