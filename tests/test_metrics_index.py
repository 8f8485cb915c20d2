"""Differential and op-count tests for the per-job segment index.

`Schedule` answers per-job and per-time queries from an index built once
per schedule, and `metrics.evaluate` visits only each job's flow window.
The contract is **bit-identity** with the full linear scans they replaced:
the reference implementations below are those scans, kept here verbatim,
and every comparison is `==`, never approximate.

The op-count guard at the end pins the complexity: `evaluate` walks the
full segment tuple a constant number of times, not once per job.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.baselines import (
    simulate_active_count,
    simulate_constant_speed_fifo,
    simulate_round_robin,
)
from repro.algorithms.clairvoyant import simulate_clairvoyant
from repro.algorithms.integral_conversion import to_integral_schedule
from repro.algorithms.nc_general import simulate_nc_general
from repro.algorithms.nc_uniform import simulate_nc_uniform
from repro.core.errors import ScheduleError
from repro.core.job import Instance, Job
from repro.core.metrics import CostReport, evaluate
from repro.core.power import PowerLaw
from repro.core.schedule import (
    ConstantSegment,
    IdleSegment,
    Schedule,
    Segment,
)
from repro.parallel import simulate_nc_par
from repro.workloads import random_instance

# -- the linear scans the index replaced (reference) ---------------------------


def ref_job_segments(schedule: Schedule, job_id: int) -> tuple[Segment, ...]:
    return tuple(s for s in schedule.segments if s.job_id == job_id)


def ref_processed_volume(schedule: Schedule, job_id: int) -> float:
    return sum(s.volume() for s in ref_job_segments(schedule, job_id))


def ref_processed_volume_until(schedule: Schedule, job_id: int, t: float) -> float:
    total = 0.0
    for s in schedule.segments:
        if s.job_id != job_id:
            continue
        if s.t1 <= t:
            total += s.volume()
        elif s.t0 < t:
            total += s.volume_until(t - s.t0)
    return total


def ref_completion_time(schedule: Schedule, job_id: int, volume: float) -> float:
    remaining = volume
    last_end: float | None = None
    for s in schedule.segments:
        if s.job_id != job_id:
            continue
        v = s.volume()
        if v >= remaining * (1 - 1e-9):
            return s.t0 + s.time_to_volume(min(remaining, v))
        remaining -= v
        last_end = s.t1
    if last_end is not None and remaining <= 1e-6 * max(1.0, volume):
        return last_end
    raise ScheduleError(
        f"job {job_id} never accumulates volume {volume} "
        f"(processed {ref_processed_volume(schedule, job_id)})"
    )


def ref_speed_at(schedule: Schedule, t: float) -> float:
    for s in schedule.segments:
        if s.t0 <= t <= s.t1:
            return s.speed_at(t)
    return 0.0


def ref_job_at(schedule: Schedule, t: float) -> int | None:
    answer: int | None = None
    for s in schedule.segments:
        if s.t0 <= t < s.t1:
            answer = s.job_id
    return answer


def ref_remaining_volume_integral(
    schedule: Schedule, job_id: int, release: float, completion: float, volume: float
) -> float:
    total = 0.0
    remaining = volume
    cursor = release
    for seg in schedule.segments:
        if seg.t1 <= cursor or seg.t0 >= completion:
            continue
        a = max(seg.t0, cursor)
        b = min(seg.t1, completion)
        if b <= a:
            continue
        if a > cursor:
            total += remaining * (a - cursor)
        if seg.job_id != job_id:
            total += remaining * (b - a)
        else:
            la, lb = a - seg.t0, b - seg.t0
            v_la = seg.volume_until(la)
            v_lb = seg.volume_until(lb)
            inner = (seg.flow_integral(lb) - seg.flow_integral(la)) - v_la * (lb - la)
            total += remaining * (lb - la) - inner
            remaining = max(remaining - (v_lb - v_la), 0.0)
        cursor = b
    if cursor < completion:
        total += remaining * (completion - cursor)
    return total


def ref_validate_schedule(schedule: Schedule, instance: Instance) -> None:
    for seg in schedule.segments:
        if seg.job_id is None:
            continue
        if seg.job_id not in instance:
            raise ScheduleError(f"segment references unknown job {seg.job_id}")
        release = instance[seg.job_id].release
        if seg.t0 < release - 1e-9 * max(1.0, release):
            raise ScheduleError(
                f"job {seg.job_id} processed at {seg.t0} before release {release}"
            )
    for job in instance:
        got = ref_processed_volume(schedule, job.job_id)
        if abs(got - job.volume) > 1e-6 * max(1.0, job.volume):
            raise ScheduleError(
                f"job {job.job_id} processed volume {got}, requires {job.volume}"
            )


def ref_evaluate(
    schedule: Schedule, instance: Instance, power: PowerLaw, *, validate: bool = True
) -> CostReport:
    if validate:
        ref_validate_schedule(schedule, instance)
    energy = sum(seg.energy(power) for seg in schedule.segments)
    completions: dict[int, float] = {}
    frac: dict[int, float] = {}
    integ: dict[int, float] = {}
    for job in instance:
        c = ref_completion_time(schedule, job.job_id, job.volume)
        completions[job.job_id] = c
        integ[job.job_id] = job.weight * (c - job.release)
        frac[job.job_id] = job.density * ref_remaining_volume_integral(
            schedule, job.job_id, job.release, c, job.volume
        )
    return CostReport(
        energy=energy,
        fractional_flow_by_job=frac,
        integral_flow_by_job=integ,
        completion_times=completions,
    )


# -- comparison helpers ---------------------------------------------------------


def _grid(schedule: Schedule) -> list[float]:
    """Every segment boundary, its float neighbours, every midpoint, and
    points before and after the schedule."""
    points = {-1.0, 0.0, schedule.end_time + 1.0}
    for s in schedule.segments:
        for t in (s.t0, s.t1):
            points.update((t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf)))
        points.add(0.5 * (s.t0 + s.t1))
    return sorted(points)


def assert_reports_identical(schedule: Schedule, instance: Instance, power: PowerLaw) -> None:
    got = evaluate(schedule, instance, power)
    want = ref_evaluate(schedule, instance, power)
    assert got.energy == want.energy
    assert got.completion_times == want.completion_times
    assert got.fractional_flow_by_job == want.fractional_flow_by_job
    assert got.integral_flow_by_job == want.integral_flow_by_job
    # Same insertion order too, so every downstream sum adds in the same order.
    assert list(got.fractional_flow_by_job) == list(want.fractional_flow_by_job)


def assert_queries_identical(schedule: Schedule, instance: Instance) -> None:
    grid = _grid(schedule)
    for t in grid:
        assert schedule.speed_at(t) == ref_speed_at(schedule, t), t
        assert schedule.job_at(t) == ref_job_at(schedule, t), t
    for job in instance:
        jid = job.job_id
        assert schedule.job_segments(jid) == ref_job_segments(schedule, jid)
        assert schedule.processed_volume(jid) == ref_processed_volume(schedule, jid)
        c = schedule.completion_time(jid, job.volume)
        assert c == ref_completion_time(schedule, jid, job.volume)
        for t in grid[:: max(1, len(grid) // 25)]:
            assert schedule.processed_volume_until(jid, t) == ref_processed_volume_until(
                schedule, jid, t
            )


# -- the schedules under test ----------------------------------------------------

CUBE = PowerLaw(3.0)


def _fallback_case() -> tuple[Schedule, Instance]:
    """Job 0 is processed in three thirds that each fall just short, so its
    completion comes from the accumulated-shortfall rule (its last touch)."""
    third = 0.3333333
    inst = Instance([Job(0, 0.0, 1.0, 1.0), Job(1, 0.2, 0.5, 1.0)])
    segs = [
        ConstantSegment(0.0, third, 0, 1.0),
        ConstantSegment(third, third + 0.5, 1, 1.0),
        IdleSegment(third + 0.5, 1.0),
        ConstantSegment(1.0, 1.0 + third, 0, 1.0),
        ConstantSegment(1.5, 1.5 + third / 2, 0, 2.0),
    ]
    return Schedule(segs), inst


def _sliver_case() -> tuple[Schedule, Instance]:
    """Segments overlapping within the 1e-9 tolerance, so end times are not
    monotone: job 0's segment ends after job 1's, and job 2 is released
    between the two ends."""
    a1 = 1.0 + 5e-10
    segs = [
        ConstantSegment(0.0, a1, 0, 1.0),
        ConstantSegment(1.0 + 1e-10, 1.0 + 3e-10, 1, 1.0),
        ConstantSegment(1.0 + 4e-10, 2.0, 2, 1.0),
    ]
    inst = Instance(
        [
            Job(0, 0.0, a1, 1.0),
            Job(1, 1.0 + 1e-10, 2e-10, 1.0),
            Job(2, 1.0 + 4e-10, 2.0 - (1.0 + 4e-10), 1.0),
        ]
    )
    return Schedule(segs), inst


def _cases() -> list[tuple[str, Schedule, Instance, PowerLaw]]:
    out = []
    for seed, family, alpha in ((1, "exponential", 3.0), (2, "pareto", 2.5), (3, "bimodal", 2.0)):
        inst = random_instance(40, seed, volume=family, density="unit")
        power = PowerLaw(alpha)
        c = simulate_clairvoyant(inst, power).schedule
        nc = simulate_nc_uniform(inst, power).schedule
        out.append((f"C/{family}", c, inst, power))
        out.append((f"NC/{family}", nc, inst, power))
        out.append((f"int-C/{family}", to_integral_schedule(c, inst, 0.5), inst, power))
        out.append((f"int-NC/{family}", to_integral_schedule(nc, inst, 0.25), inst, power))
    general = random_instance(5, 7, volume="uniform", density="loguniform")
    out.append(
        ("NC-general", simulate_nc_general(general, CUBE, max_step=3e-2).schedule, general, CUBE)
    )
    # Releases far apart: FIFO at speed 2 leaves idle gaps between jobs.
    sparse = random_instance(30, 11, rate=0.2, volume="exponential", density="unit")
    out.append(("fifo-gaps", simulate_constant_speed_fifo(sparse, 2.0), sparse, CUBE))
    out.append(("active-count", simulate_active_count(sparse, CUBE), sparse, CUBE))
    small = random_instance(8, 5, volume="uniform", density="unit")
    out.append(("round-robin", simulate_round_robin(small, CUBE, quantum=0.1), small, CUBE))
    out.append(("fallback", *_fallback_case(), CUBE))
    out.append(("sliver", *_sliver_case(), CUBE))
    return out


CASES = _cases()
IDS = [name for name, *_ in CASES]


class TestDifferential:
    @pytest.mark.parametrize("name,schedule,inst,power", CASES, ids=IDS)
    def test_evaluate_bit_identical(self, name, schedule, inst, power):
        assert_reports_identical(schedule, inst, power)

    @pytest.mark.parametrize("name,schedule,inst,power", CASES, ids=IDS)
    def test_queries_bit_identical(self, name, schedule, inst, power):
        assert_queries_identical(schedule, inst)

    def test_cases_cover_every_segment_kind(self):
        kinds = {type(s).__name__ for _, sched, _, _ in CASES for s in sched.segments}
        assert {"Constant", "Decay", "Growth", "Idle", "Scaled"} == {
            kind.removesuffix("Segment") for kind in kinds
        }

    def test_fallback_case_uses_the_shortfall_rule(self):
        schedule, inst = _fallback_case()
        assert ref_processed_volume(schedule, 0) < 1.0
        assert schedule.completion_time(0, 1.0) == schedule.job_segments(0)[-1].t1

    def test_sliver_case_has_non_monotone_ends(self):
        schedule, _ = _sliver_case()
        ends = [s.t1 for s in schedule.segments]
        assert ends != sorted(ends)
        # Job 2's window must still contain job 0's segment, which ends after
        # job 2's release although the segment before job 2 ends before it.
        assert schedule.segments[0] in schedule.window(1.0 + 4e-10, 2.0)

    def test_boundary_conventions(self):
        s = Schedule([ConstantSegment(0.0, 1.0, 1, 1.0), ConstantSegment(1.0, 2.0, 2, 2.0)])
        assert s.speed_at(1.0) == 1.0  # closed intervals: the earlier wins
        assert s.job_at(1.0) == 2  # half-open: the later wins
        assert s.speed_at(2.0) == 2.0 and s.job_at(2.0) is None
        assert s.speed_at(2.5) == 0.0 and s.job_at(-0.5) is None
        empty = Schedule([])
        assert empty.speed_at(0.0) == 0.0 and empty.job_at(0.0) is None
        assert empty.job_segments(0) == () and empty.window(0.0, 1.0) == ()


class TestErrorMessages:
    """Every ScheduleError evaluate raises keeps its exact message."""

    inst = Instance([Job(0, 0.0, 1.0, 1.0), Job(1, 2.0, 1.0, 1.0)])

    def _both(self, schedule: Schedule, *, validate: bool = True) -> None:
        with pytest.raises(ScheduleError) as got:
            evaluate(schedule, self.inst, CUBE, validate=validate)
        with pytest.raises(ScheduleError) as want:
            ref_evaluate(schedule, self.inst, CUBE, validate=validate)
        assert str(got.value) == str(want.value)

    def test_unknown_job(self):
        self._both(Schedule([ConstantSegment(0.0, 1.0, 0, 1.0), ConstantSegment(2.0, 3.0, 9, 1.0)]))

    def test_early_start(self):
        self._both(Schedule([ConstantSegment(0.0, 1.0, 0, 1.0), ConstantSegment(1.5, 2.5, 1, 1.0)]))

    def test_volume_mismatch(self):
        self._both(Schedule([ConstantSegment(0.0, 1.0, 0, 1.0), ConstantSegment(2.0, 2.5, 1, 1.0)]))

    def test_never_completes(self):
        short = Schedule([ConstantSegment(0.0, 1.0, 0, 1.0), ConstantSegment(2.0, 2.5, 1, 1.0)])
        self._both(short, validate=False)
        with pytest.raises(ScheduleError, match="never accumulates volume 1.0"):
            evaluate(short, self.inst, CUBE, validate=False)


# -- the paper's equalities, on generated instances ---------------------------------


@st.composite
def uniform_instances(draw) -> tuple[Instance, PowerLaw]:
    n = draw(st.integers(min_value=1, max_value=7))
    density = draw(st.floats(min_value=0.25, max_value=4.0))
    jobs = [
        Job(
            k,
            draw(st.floats(min_value=0.0, max_value=5.0)),
            draw(st.floats(min_value=0.05, max_value=3.0)),
            density,
        )
        for k in range(n)
    ]
    alpha = draw(st.sampled_from([2.0, 2.5, 3.0]))
    return Instance(jobs), PowerLaw(alpha)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9)


class TestPaperEqualities:
    @settings(max_examples=60, deadline=None)
    @given(uniform_instances())
    def test_theorem1_lemma3_lemma4(self, case):
        inst, power = case
        c = simulate_clairvoyant(inst, power).schedule
        nc = simulate_nc_uniform(inst, power).schedule
        rc = evaluate(c, inst, power)
        rn = evaluate(nc, inst, power)
        assert _close(rc.energy, rc.fractional_flow)  # Theorem 1
        assert _close(rn.energy, rc.energy)  # Lemma 3
        assert _close(rn.fractional_flow, rc.fractional_flow / (1.0 - 1.0 / power.alpha))  # Lemma 4
        for schedule in (c, nc):
            assert_reports_identical(schedule, inst, power)
            assert_queries_identical(schedule, inst)


    def test_tied_releases(self):
        """Jobs released together arrive one after another in FIFO order: the
        second one's offset includes the first one's weight, so Lemma 3 holds
        on ties as it does when the releases are pulled apart."""
        inst = Instance([Job(0, 0.0, 1.0, 1.0), Job(1, 0.0, 1.0, 1.0)])
        power = PowerLaw(2.0)
        c = evaluate(simulate_clairvoyant(inst, power).schedule, inst, power)
        run = simulate_nc_uniform(inst, power)
        nc = evaluate(run.schedule, inst, power)
        assert run.offsets == {0: 0.0, 1: 1.0}
        assert _close(nc.energy, c.energy)
        assert _close(nc.fractional_flow, c.fractional_flow / (1.0 - 1.0 / power.alpha))
        # NC-PAR on one machine is NC, and already counted tied predecessors.
        single = simulate_nc_par(inst, power, 1).schedules[0]
        assert [s.x0 for s in single.segments] == [s.x0 for s in run.schedule.segments]
        apart = Instance([Job(0, 0.0, 1.0, 1.0), Job(1, 1e-12, 1.0, 1.0)])
        nc_apart = evaluate(simulate_nc_uniform(apart, power).schedule, apart, power)
        assert math.isclose(nc.energy, nc_apart.energy, rel_tol=1e-9)


# -- op-count guard -------------------------------------------------------------------


class _CountingTuple(tuple):
    """A segment tuple that counts how many segments are read from it:
    all of them per iteration, the slice length per slice, one per item."""

    def __iter__(self):
        self.visits += len(self)
        return super().__iter__()

    def __getitem__(self, key):
        item = super().__getitem__(key)
        self.visits += len(item) if isinstance(key, slice) else 1
        return item


def _visits_of_evaluate(n: int) -> tuple[int, int]:
    """Segment reads of one ``evaluate`` on an n-job FIFO schedule whose jobs
    each run right at their release, so every flow window is one segment."""
    inst = Instance(Job(k, 2.0 * k, 1.0, 1.0) for k in range(n))
    schedule = simulate_constant_speed_fifo(inst, 1.0)
    counted = _CountingTuple(schedule.segments)
    counted.visits = 0
    schedule._segments = counted  # before the first query builds the index
    evaluate(schedule, inst, CUBE)
    return counted.visits, len(counted)


class TestOpCount:
    @pytest.mark.parametrize("n", [10, 80])
    def test_evaluate_reads_each_segment_a_constant_number_of_times(self, n):
        visits, segments = _visits_of_evaluate(n)
        assert segments == n
        # Index build, energy sum, validation scan, and one window segment per
        # job; a per-job rescan would read about 3 * n * segments.
        assert visits <= 3 * segments + n

    def test_index_is_built_once_on_first_query(self):
        inst = random_instance(20, 3, volume="exponential", density="unit")
        schedule = simulate_clairvoyant(inst, CUBE).schedule
        assert "_index" not in vars(schedule)
        evaluate(schedule, inst, CUBE)
        index = vars(schedule)["_index"]
        evaluate(schedule, inst, CUBE)
        schedule.speed_at(1.0)
        assert vars(schedule)["_index"] is index
