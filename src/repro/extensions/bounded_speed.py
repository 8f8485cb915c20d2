"""Extension: speed-bounded processors.

The paper's related work (§1.3, citing Bansal–Chan–Lam–Lee [6]) studies the
same objective when the machine has a *maximum speed* ``s_max``.  This module
extends the reproduction to that model:

* :class:`CappedPowerLaw` — ``P(s) = s**alpha`` on ``[0, s_max]``; speeds
  above the cap are infeasible.
* :func:`simulate_clairvoyant_capped` — Algorithm C with the clipped speed
  rule ``s = min(P^{-1}(W), s_max)``: while the remaining weight exceeds
  ``P(s_max)`` the machine saturates at ``s_max`` (weight falls *linearly*),
  then the ordinary decay takes over.  Exact, event-driven.
* :func:`simulate_nc_uniform_capped` — Algorithm NC with the same clip on its
  growth rule ``s = min(P^{-1}(W^C(r-) + W̆), s_max)``.

A structural observation this extension demonstrates empirically (see
``benchmarks/bench_bounded_speed.py``): Lemma 3's **energy equality survives
the cap** — the clipped NC growth profile is still a time-reversed /
rearranged copy of the clipped C decay profile, both saturating at the same
level — while Lemma 4's exact flow ratio degrades gracefully as the cap
tightens (the paper's uncapped `1/(1-1/alpha)` is recovered as
``s_max -> inf``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.errors import InvalidInstanceError, InvalidPowerFunctionError, SimulationError
from ..core.job import Instance
from ..core.kernels import growth_time_between
from ..core.power import PowerLaw
from ..core.schedule import ConstantSegment, DecaySegment, GrowthSegment, Schedule, ScheduleBuilder
from ..core.shadow import ClairvoyantShadow, SimulationContext

__all__ = [
    "CappedPowerLaw",
    "CappedRun",
    "simulate_clairvoyant_capped",
    "simulate_nc_uniform_capped",
]

class CappedPowerLaw(PowerLaw):
    """``P(s) = s**alpha`` with a hard maximum speed.

    Subclasses :class:`PowerLaw` so the analytic decay/growth segments (which
    only ever exist *below* the cap) keep their closed-form energies.
    ``power`` rejects infeasible speeds; ``speed`` clips at the cap — the
    natural semantics for the power-equals-weight rule ("run as the rule says,
    but never faster than the hardware allows").
    """

    __slots__ = ("s_max",)

    def __init__(self, alpha: float, s_max: float) -> None:
        super().__init__(alpha)
        if not (s_max > 0 and math.isfinite(s_max)):
            raise InvalidPowerFunctionError(f"s_max must be finite > 0, got {s_max}")
        self.s_max = float(s_max)

    @property
    def saturation_weight(self) -> float:
        """The weight level ``P(s_max)`` above which the machine saturates."""
        return self.s_max**self.alpha

    def power(self, speed: float) -> float:
        if speed > self.s_max * (1 + 1e-9):
            raise ValueError(f"speed {speed} exceeds the cap {self.s_max}")
        return super().power(min(speed, self.s_max))

    def speed(self, power: float) -> float:
        return min(super().speed(power), self.s_max)

    def __repr__(self) -> str:
        return f"CappedPowerLaw(alpha={self.alpha}, s_max={self.s_max})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CappedPowerLaw)
            and other.alpha == self.alpha
            and other.s_max == self.s_max
        )

    def __hash__(self) -> int:
        return hash(("CappedPowerLaw", self.alpha, self.s_max))


@dataclass(frozen=True)
class CappedRun:
    """Outcome of a capped simulation."""

    instance: Instance
    power: CappedPowerLaw
    schedule: Schedule
    clock: float
    remaining: dict[int, float]

    def completion_time(self, job_id: int) -> float:
        return self.schedule.completion_time(job_id, self.instance[job_id].volume)

    def max_observed_speed(self, samples: int = 512) -> float:
        end = self.schedule.end_time
        return max(
            self.schedule.speed_at(end * k / (samples - 1)) for k in range(samples)
        )


def simulate_clairvoyant_capped(
    instance: Instance,
    power: CappedPowerLaw,
    *,
    until: float | None = None,
    context: SimulationContext | None = None,
) -> CappedRun:
    """Algorithm C with speed clipped at ``s_max`` (exact, event-driven).

    Drives the same :class:`~repro.core.shadow.ClairvoyantShadow` event loop
    as the uncapped simulator, with ``s_max`` enabling the saturated linear
    phase; the shadow's ``record`` callback reconstructs the schedule
    (``const`` pieces at the cap, ``decay`` pieces below it).
    """
    if not isinstance(power, CappedPowerLaw):
        raise TypeError("use simulate_clairvoyant for uncapped power laws")
    alpha = power.alpha
    horizon = math.inf if until is None else float(until)
    builder = ScheduleBuilder()

    def record(kind: str, t0: float, t1: float, jid: int, value: float) -> None:
        if kind == "const":
            builder.append(ConstantSegment(t0, t1, jid, value))
        else:
            builder.append(DecaySegment(t0, t1, jid, value, instance[jid].density, alpha))

    shadow = ClairvoyantShadow(
        alpha,
        s_max=power.s_max,
        record=record,
        counters=context.counters if context is not None else None,
        recorder=context.recorder if context is not None else None,
        component="C_capped",
    )
    for job in instance.jobs:
        shadow.insert_job(job.job_id, job.release, job.density, job.volume)
    shadow.advance(horizon)
    shadow.materialize()
    return CappedRun(
        instance=instance,
        power=power,
        schedule=builder.build(),
        clock=shadow.clock,
        remaining=shadow.remaining_dict(),
    )


def simulate_nc_uniform_capped(
    instance: Instance,
    power: CappedPowerLaw,
    *,
    context: SimulationContext | None = None,
) -> CappedRun:
    """Algorithm NC (uniform densities) with speed clipped at ``s_max``.

    While processing job ``j`` the driver ``U = W^C(r[j]-) + W̆[j]`` grows;
    once ``U`` exceeds ``P(s_max)`` the machine saturates and ``U`` grows
    *linearly* to the job's end.  ``W^C(r[j]-)`` is read from one capped
    incremental clairvoyant prefix run so the shadow matches the hardware.
    """
    if not isinstance(power, CappedPowerLaw):
        raise TypeError("use simulate_nc_uniform for uncapped power laws")
    if not instance.is_uniform_density():
        raise InvalidInstanceError("the §3 algorithm requires uniform densities")
    alpha = power.alpha
    u_sat = power.saturation_weight
    if context is None:
        context = SimulationContext(power)
    oracle = context.prefix_oracle(component="NC_capped.prefix")
    recorder = context.recorder
    rec = recorder if recorder.enabled else None  # zero-overhead hoist
    filt = context.volume_filter  # fault reveal channel; None when unfaulted
    jobs = list(instance.jobs)
    revealed = 0
    builder = ScheduleBuilder()
    t = 0.0
    for k, job in enumerate(jobs):  # FIFO: every job ahead of j is revealed
        start = max(t, job.release)
        rho = job.density
        while revealed < k:
            prev = jobs[revealed]
            vol = prev.volume
            if filt is not None:
                vol = filt(prev.job_id, vol)
                if not (math.isfinite(vol) and vol > 0.0):
                    raise SimulationError(
                        f"revealed volume of job {prev.job_id} corrupted to {vol}",
                        time=job.release,
                        job=prev.job_id,
                        value=vol,
                    )
            oracle.add_job(prev.job_id, prev.release, prev.density, vol)
            revealed += 1
        offset = oracle.weight_at(job.release) if revealed else 0.0

        if rec is not None:
            rec.emit(
                "release", job.release, "NC_capped", job=job.job_id, density=rho, offset=offset
            )
        u_end = offset + job.weight
        cursor = start
        if offset < u_sat:
            # Growth phase up to the cap (or the job's end).
            u_stop = min(u_end, u_sat)
            tau = growth_time_between(offset, u_stop, rho, alpha)
            if tau > 0:
                builder.append(GrowthSegment(cursor, cursor + tau, job.job_id, offset, rho, alpha))
                if rec is not None:
                    rec.emit(
                        "kernel_eval",
                        cursor,
                        "NC_capped",
                        profile="growth",
                        t0=cursor,
                        t1=cursor + tau,
                        job=job.job_id,
                        x0=offset,
                        rho=rho,
                        alpha=alpha,
                    )
                cursor += tau
            reached = u_stop
        else:
            reached = offset
        if u_end > reached:
            # Saturated phase: constant speed to the finish line.
            tau = (u_end - reached) / (rho * power.s_max)
            builder.append(ConstantSegment(cursor, cursor + tau, job.job_id, power.s_max))
            if rec is not None:
                rec.emit(
                    "kernel_eval",
                    cursor,
                    "NC_capped",
                    profile="const",
                    t0=cursor,
                    t1=cursor + tau,
                    job=job.job_id,
                    speed=power.s_max,
                    rho=rho,
                    alpha=alpha,
                )
            cursor += tau
        if cursor <= start:
            raise SimulationError(f"job {job.job_id} made no progress")
        if rec is not None:
            rec.emit("completion", cursor, "NC_capped", job=job.job_id)
        t = cursor
    return CappedRun(
        instance=instance, power=power, schedule=builder.build(), clock=t, remaining={}
    )
