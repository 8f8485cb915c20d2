"""Differential tests for the one-pass streaming report pipeline.

`repro.analysis.streaming` reimplements `build_report_in_memory` as a
single forward pass with memory bounded by the number of jobs.  The
contract is **bit-identity**, not approximation: on every trace the two
paths must return `==` TraceReports, and on every invalid trace they must
raise the *same* ScheduleError with the *same* message.  These tests pin
that contract on the golden corpus (all file encodings: list, plain JSONL,
gzip, rotated segments), across supervisor retry boundaries, with shard
lifecycle events mixed in, on the capped (C_capped, NC_capped) pair, and
on every error class the replayer distinguishes.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.algorithms.clairvoyant import simulate_clairvoyant
from repro.algorithms.nc_uniform import simulate_nc_uniform
from repro.analysis.streaming import (
    IncrementalScheduleReplayer,
    StreamingReportBuilder,
    StreamOrderError,
    build_report_streaming,
)
from repro.analysis.trace_report import (
    REL_TOL,
    build_report,
    build_report_in_memory,
)
from repro.core.errors import ScheduleError
from repro.core.job import Instance, Job
from repro.core.metrics import evaluate
from repro.core.power import PowerLaw
from repro.core.schedule import ConstantSegment, Schedule
from repro.core.shadow import SimulationContext
from repro.core.tracing import (
    JsonlRecorder,
    MemoryRecorder,
    TraceEvent,
    iter_jsonl,
    iter_trace,
    read_jsonl,
)
from repro.extensions.bounded_speed import (
    CappedPowerLaw,
    simulate_clairvoyant_capped,
    simulate_nc_uniform_capped,
)
from repro.workloads import random_instance

CORPUS_PATH = pathlib.Path(__file__).parent / "data" / "golden_corpus.json"


def _corpus_cases() -> list[tuple[str, Instance, float]]:
    corpus = json.loads(CORPUS_PATH.read_text())
    out = []
    for key in sorted(k for k in corpus if k.startswith("nc_uniform/")):
        entry = corpus[key]
        inst = Instance([Job(int(j), r, v, d) for j, r, v, d in entry["instance"]])
        out.append((key, inst, float(entry["alpha"])))
    return out


def _traced_pair(inst: Instance, alpha: float) -> list[TraceEvent]:
    """Record a run_meta header plus a full traced (C, NC) pair."""
    rec = MemoryRecorder()
    power = PowerLaw(alpha)
    context = SimulationContext(power, recorder=rec)
    context.emit(
        "run_meta",
        0.0,
        "harness",
        alpha=alpha,
        instance=[[j.job_id, j.release, j.volume, j.density] for j in inst],
    )
    simulate_clairvoyant(inst, power, context=context)
    simulate_nc_uniform(inst, power, context=context)
    return list(rec)


def _retry(component: str) -> TraceEvent:
    return TraceEvent(
        kind="retry", sim_time=0.0, wall_time=0.0, component=component,
        payload={"reason": "test"},
    )


def _assert_parity(events: list[TraceEvent]):
    """Streaming and in-memory reports must be `==` (bit-identical floats)."""
    streamed = build_report_streaming(iter(events), rel_tol=REL_TOL)
    batch = build_report_in_memory(events)
    assert streamed == batch
    return streamed


def _assert_error_parity(events: list[TraceEvent]) -> None:
    with pytest.raises(ScheduleError) as stream_exc:
        build_report_streaming(iter(events), rel_tol=REL_TOL)
    with pytest.raises(ScheduleError) as batch_exc:
        build_report_in_memory(events)
    assert str(stream_exc.value) == str(batch_exc.value)


class TestGoldenCorpusDifferential:
    @pytest.mark.parametrize(
        "key,inst,alpha", _corpus_cases(), ids=[k for k, _, _ in _corpus_cases()]
    )
    def test_streaming_matches_in_memory(self, key, inst, alpha):
        events = _traced_pair(inst, alpha)
        report = _assert_parity(events)
        assert report.ok
        assert any(c.name.startswith("Lemma 3") for c in report.checks)
        assert any(c.name.startswith("Lemma 4") for c in report.checks)

    def test_all_file_encodings_identical(self, tmp_path):
        """One trace, four sources — list, plain file, gzip, rotated segments —
        must all produce the same report (rotation headers are transparent)."""
        _, inst, alpha = _corpus_cases()[0]
        events = _traced_pair(inst, alpha)
        reference = build_report_in_memory(events)

        sinks = {"plain": "p.jsonl", "gzip": "g.jsonl.gz", "rotate:16": "r.jsonl"}
        for spec, name in sinks.items():
            with JsonlRecorder(tmp_path / name, sink=spec) as rec:
                for e in events:
                    rec.emit(e.kind, e.sim_time, e.component, **e.payload)
            streamed = build_report(
                iter_trace(rec.paths), rel_tol=REL_TOL
            )
            # wall_time differs between recordings, so compare everything else.
            assert streamed.n_events == reference.n_events
            assert streamed.checks == reference.checks
            assert streamed.energies == reference.energies
            assert streamed.order_violations == reference.order_violations
            assert [
                (c.component, c.events, c.by_kind) for c in streamed.components
            ] == [(c.component, c.events, c.by_kind) for c in reference.components]

    def test_capped_pair_parity(self):
        inst = random_instance(8, seed=11, volume="exponential", density="unit")
        rec = MemoryRecorder()
        capped = CappedPowerLaw(3.0, 1.2)
        context = SimulationContext(capped, recorder=rec)
        context.emit(
            "run_meta", 0.0, "harness", alpha=3.0,
            instance=[[j.job_id, j.release, j.volume, j.density] for j in inst],
        )
        simulate_clairvoyant_capped(inst, capped, context=context)
        simulate_nc_uniform_capped(inst, capped, context=context)
        report = _assert_parity(list(rec))
        capped_checks = [c for c in report.checks if "capped" in c.name]
        assert capped_checks and all(c.holds for c in capped_checks)


class TestRetryBoundaries:
    def test_failed_attempt_discarded_identically(self):
        """A garbled first attempt followed by per-component retries and a
        clean attempt verifies — and matches the batch replay exactly."""
        _, inst, alpha = _corpus_cases()[0]
        clean = _traced_pair(inst, alpha)
        garbled = [
            e for e in clean[: len(clean) // 2] if e.kind == "kernel_eval"
        ]
        events = (
            clean[:1]  # run_meta
            + garbled
            + [_retry("C"), _retry("NC")]
            + clean[1:]
        )
        report = _assert_parity(events)
        assert report.ok

    def test_retry_resets_overlap_but_not_builder_poison(self):
        """A builder-clock violation (t0 before the builder clock) poisons the
        whole component even across a retry — matching replay_schedule, which
        scans every attempt through one builder per reset."""
        _, inst, alpha = _corpus_cases()[0]
        clean = _traced_pair(inst, alpha)
        bad = TraceEvent(
            kind="kernel_eval", sim_time=0.0, wall_time=0.0, component="C",
            payload={"profile": "const", "t0": -5.0, "t1": -4.0, "job": 0,
                     "speed": 1.0},
        )
        # Poison *after* the retry boundary: both paths must report it.
        events = clean + [_retry("C"), bad]
        _assert_error_parity(events)

    def test_shard_lifecycle_events_ride_along(self):
        _, inst, alpha = _corpus_cases()[0]
        clean = _traced_pair(inst, alpha)
        lifecycle = [
            TraceEvent(kind="worker_lost", sim_time=0.0, wall_time=0.0,
                       component="pool", payload={"worker": 1}),
            TraceEvent(kind="shard_redispatch", sim_time=0.0, wall_time=0.0,
                       component="pool", payload={"shard": 0, "to": 2}),
        ]
        events = clean[:5] + lifecycle + clean[5:]
        report = _assert_parity(events)
        assert report.ok
        pool = [c for c in report.components if c.component == "pool"]
        assert pool and pool[0].by_kind == {"shard_redispatch": 1, "worker_lost": 1}


class TestErrorParity:
    def test_missing_volume_message_identical(self):
        _, inst, alpha = _corpus_cases()[0]
        events = _traced_pair(inst, alpha)
        # Drop all NC kernel pieces for the last job: validate must fail with
        # the exact same "processed volume" message on both paths.
        last = max(j.job_id for j in inst)
        dropped = [
            e for e in events
            if not (
                e.kind == "kernel_eval"
                and e.component == "NC"
                and int(e.payload["job"]) == last
            )
        ]
        _assert_error_parity(dropped)

    def test_builder_clock_poison_message_identical(self):
        _, inst, alpha = _corpus_cases()[0]
        events = _traced_pair(inst, alpha)
        events.append(
            TraceEvent(
                kind="kernel_eval", sim_time=0.0, wall_time=0.0, component="NC",
                payload={"profile": "const", "t0": -1.0, "t1": 0.5, "job": 0,
                         "speed": 2.0},
            )
        )
        _assert_error_parity(events)

    def test_no_meta_and_bare_meta_parity(self):
        _, inst, alpha = _corpus_cases()[0]
        events = _traced_pair(inst, alpha)
        no_meta = [e for e in events if e.kind != "run_meta"]
        report = _assert_parity(no_meta)
        assert report.checks == [] and report.energies == {}
        bare = TraceEvent(
            kind="run_meta", sim_time=0.0, wall_time=0.0, component="harness",
            payload={"note": "no instance"},
        )
        report2 = _assert_parity([bare] + no_meta)
        assert report2.checks == []

    def test_order_violations_reported_identically(self):
        _, inst, alpha = _corpus_cases()[0]
        events = _traced_pair(inst, alpha)
        events.append(
            TraceEvent(
                kind="release", sim_time=-3.0, wall_time=0.0, component="harness",
                payload={"job": 0},
            )
        )
        events.append(
            TraceEvent(
                kind="release", sim_time=-4.0, wall_time=0.0, component="harness",
                payload={"job": 1},
            )
        )
        streamed = build_report_streaming(iter(events), rel_tol=REL_TOL)
        batch = build_report_in_memory(events)
        assert streamed.order_violations == batch.order_violations
        assert len(streamed.order_violations) == 1


class TestStreamOrderError:
    def test_swapped_kernel_events_fail_identically(self):
        """A hard t0 regression trips the builder-clock check in *both* paths
        (ScheduleBuilder.append enforces the same clock), so the contract here
        is error parity, not refusal."""
        _, inst, alpha = _corpus_cases()[0]
        events = _traced_pair(inst, alpha)
        kernel_idx = [
            i for i, e in enumerate(events)
            if e.kind == "kernel_eval" and e.component == "C"
        ]
        i, j = kernel_idx[1], kernel_idx[2]
        events[i], events[j] = events[j], events[i]
        _assert_error_parity(events)

    def test_tolerance_sliver_regression_refused(self):
        """A t0 regression *inside* the builder-clock tolerance passes the
        batch path's append (which then re-sorts in Schedule.__init__) — the
        one-pass replayer cannot mirror that and must refuse loudly."""
        inst = Instance([Job(0, 0.0, 10.0, 1.0)])
        replayer = IncrementalScheduleReplayer("C", inst, PowerLaw(3.0))
        replayer.feed(
            {"profile": "const", "t0": 1.0, "t1": 1.0 + 5e-10, "job": 0,
             "speed": 1.0}
        )
        with pytest.raises(StreamOrderError, match="re-sort"):
            replayer.feed(
                {"profile": "const", "t0": 1.0 - 2e-10, "t1": 2.0, "job": 0,
                 "speed": 1.0}
            )

    def test_pre_meta_buffer_bounded(self):
        """kernel_eval events arriving before any run_meta are buffered only
        up to a fixed cap — unbounded buffering would defeat the point."""
        flood = [
            TraceEvent(
                kind="kernel_eval", sim_time=float(k), wall_time=0.0,
                component="C",
                payload={"profile": "const", "t0": float(k), "t1": k + 1.0,
                         "job": 0, "speed": 1.0},
            )
            for k in range(70_000)
        ]
        builder = StreamingReportBuilder(rel_tol=REL_TOL)
        with pytest.raises(StreamOrderError, match="before any run_meta"):
            for e in flood:
                builder.feed(e)


class TestBoundedMemory:
    def test_replayer_retires_completed_jobs(self):
        """The incremental replayer's live-job dict must shrink as jobs
        complete — that is the bounded-memory claim in miniature."""
        inst = random_instance(12, seed=4, volume="exponential", density="unit")
        power = PowerLaw(3.0)
        rec = MemoryRecorder()
        context = SimulationContext(power, recorder=rec)
        simulate_clairvoyant(inst, power, context=context)
        replayer = IncrementalScheduleReplayer("C", inst, power)
        for e in rec:
            if e.kind == "kernel_eval" and e.component == "C":
                replayer.feed(e.payload)
        # Every job completes in a clairvoyant run, so all are retired from
        # the active integral set before finalize.
        assert len(replayer._active) == 0
        replayer.finalize_replay()
        energy, _ = replayer.finalize_eval()
        assert energy > 0

    def test_generator_source_single_pass(self, tmp_path):
        """build_report consumes a generator exactly once (no list() inside)."""
        _, inst, alpha = _corpus_cases()[0]
        events = _traced_pair(inst, alpha)
        pulls = 0

        def gen():
            nonlocal pulls
            for e in events:
                pulls += 1
                yield e

        report = build_report(gen())
        assert pulls == len(events)
        assert report.n_events == len(events)
        assert report.ok


def _const(t0: float, t1: float, job: int) -> dict:
    """A unit-speed ``kernel_eval`` payload."""
    return {"profile": "const", "t0": t0, "t1": t1, "job": job, "speed": 1.0}


class TestReleaseOrderAdmission:
    """The replayer only advances the integrals of released jobs."""

    def test_integral_steps_linear_in_segments(self):
        """Jobs released at 0, 2, 4, ... each run at once: every segment
        advances one job's integral, not every job's."""
        n = 60
        inst = Instance([Job(k, 2.0 * k, 1.0, 1.0) for k in range(n)])
        segments = [_const(2.0 * k, 2.0 * k + 1.0, k) for k in range(n)]
        steps = 0
        replayer = IncrementalScheduleReplayer("C", inst, PowerLaw(3.0))
        advance = replayer._advance_integral

        def counted(js, seg):
            nonlocal steps
            steps += 1
            return advance(js, seg)

        replayer._advance_integral = counted
        for payload in segments:
            replayer.feed(payload)
        assert steps == n

    def test_job_completed_before_its_release_within_tolerance(self):
        """A job whose only segment ends inside the 1e-9 early-start slack
        before its release never joins the update set, exactly as the batch
        integral skips it."""
        start = 1.0 - 5e-10
        inst = Instance([Job(0, 0.0, start, 1.0), Job(1, 1.0, 4e-10, 1.0), Job(2, 0.5, 1.0, 1.0)])
        segments = [
            _const(0.0, start, 0),
            _const(start, start + 4e-10, 1),
            _const(start + 4e-10, start + 4e-10 + 1.0, 2),
        ]
        replayer = IncrementalScheduleReplayer("C", inst, PowerLaw(3.0))
        for payload in segments:
            replayer.feed(payload)
        replayer.finalize_replay()
        energy, flow = replayer.finalize_eval()
        schedule = Schedule(ConstantSegment(p["t0"], p["t1"], p["job"], 1.0) for p in segments)
        report = evaluate(schedule, inst, PowerLaw(3.0))
        assert energy == report.energy
        assert flow == report.fractional_flow
        assert report.fractional_flow_by_job[1] == 0.0
