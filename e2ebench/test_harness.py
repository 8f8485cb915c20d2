"""Self-tests of the benchmark's own code.

    python3 -m pytest e2ebench/test_harness.py

The last two tests run the command end to end (about a minute together).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from harness import MIN_BEYOND, BenchError, load_spec, loglog_slope, metric_units, percentile, result_line  # noqa: E402
from inputs import WORKLOADS, digest, serve_plan  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    assert digest(workload, 7) == digest(workload, 7)
    assert digest(workload, 7) != digest(workload, 8)


def test_service_probe_plan_is_byte_identical_for_a_seed():
    def dump(seed):
        return json.dumps([[r.kind, r.session, r.body, r.final] for r in serve_plan(seed, 1500)[0]])

    assert dump(3) == dump(3)
    assert dump(3) != dump(4)


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    with pytest.raises(BenchError):
        percentile([float(i) for i in range(99)], 0.90)
    with pytest.raises(BenchError):
        percentile([float(i) for i in range(999)], 0.99)
    assert percentile([float(i) for i in range(100)], 0.90) == pytest.approx(89.1)
    assert percentile([float(i) for i in range(1000)], 0.99) == pytest.approx(989.01)
    assert MIN_BEYOND == 10


def test_loglog_slope_recovers_the_exponent():
    sizes = [100, 200, 400, 800]
    assert loglog_slope(sizes, [3e-7 * n**2 for n in sizes]) == pytest.approx(2.0)
    assert loglog_slope(sizes, [5e-4 * n for n in sizes]) == pytest.approx(1.0)


def test_spec_is_well_formed():
    spec = load_spec()
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in spec[group]]
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_result_line_refuses_a_metric_set_other_than_the_spec():
    units = metric_units(load_spec(), trace=False)
    values = {name: 1.0 for name in units}
    assert json.loads(result_line(values, units, attempted=1, failed=0))["correct"] is True
    with pytest.raises(BenchError):
        result_line({**values, "extra_ms": 1.0}, units, attempted=1, failed=0)
    with pytest.raises(BenchError):
        result_line({k: v for k, v in values.items() if k != "setup_s"}, units, attempted=1, failed=0)


def _run(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cluster_dispatch", "--seed", "5", "--seconds", "0", "--trace", str(trace)],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_the_spec_by_name_and_unit(trace):
    result = _run(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == metric_units(load_spec(), trace=bool(trace))
