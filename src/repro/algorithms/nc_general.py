"""Algorithm NC-general — non-clairvoyant scheduling with non-uniform
densities (§4).

The algorithm:

1. round every density *down* to a power of ``beta`` (``beta > 4``);
2. among active jobs, process the one with the highest rounded density,
   FIFO within a density class;
3. run at speed ``s(t) = eta * s^C_{I(t)}(t) + epsilon`` where ``I(t)`` is the
   **current instance** — every job's weight is exactly the (rounded-density)
   weight the non-clairvoyant algorithm has processed of it so far — and
   ``s^C_{I(t)}(t)`` is the speed Algorithm C would have at time ``t`` when run
   on ``I(t)`` from scratch.

``eta > 1`` is the speedup that makes the induction of §4.1 go through
(properties (A) and (B)); ``epsilon > 0`` bootstraps the recursion away from
the all-zero solution.  The extended abstract defers exact constants to the
full version, so ``eta``, ``beta`` and ``epsilon`` are parameters here
(defaults ``eta=2``, ``beta=5``, ``epsilon=1e-6``) and the ablation bench
sweeps them.

Unlike the uniform case there is no closed form — the speed at ``t`` depends
on a *shadow simulation* of Algorithm C over the evolving instance — so this
runs on the generic numeric engine.

The shadow: ``s^C_{I(t)}(t)`` comes from a live
:class:`~repro.core.shadow.ClairvoyantShadow` per *epoch* (a maximal interval
over which NC processes one job ``j*`` and no release/completion
intervenes).  Only ``j*``'s weight in ``I(t)`` changes during an epoch and
``j*`` enters C's run at its own release ``r*``, so the shadow is
checkpointed at ``r*`` once and every engine-step query is a rollback +
insert-``j*`` + advance-to-``t`` over a handful of events — no per-query
``Instance`` construction or schedule building.  This is what makes
``bench_general_density.py`` scale; ``tests/data/golden_corpus.json``
(recorded with per-query cold shadow runs) pins its completions and
objectives to 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.engine import EngineResult, NumericEngine, SchedulingPolicy
from ..core.job import Instance, Job
from ..core.power import PowerLaw
from ..core.schedule import Schedule
from ..core.shadow import ClairvoyantShadow, ShadowCheckpoint, ShadowCounters, SimulationContext
from .density_rounding import round_density_down

__all__ = ["NCGeneralRun", "NCGeneralPolicy", "simulate_nc_general", "eta_threshold"]

#: Safety margin over the single-job threshold used when ``eta`` is defaulted.
_ETA_MARGIN = 1.3


def eta_threshold(alpha: float) -> float:
    """The minimal ``eta`` for which the single-job dynamics are self-sustaining.

    While NC-general processes a lone job of density ``rho``, the processed
    weight ``w(t)`` that keeps the shadow run exactly on a self-similar curve
    ``w = (c * beta_a * rho * t)**(1/beta_a)`` (``beta_a = 1 - 1/alpha``)
    requires ``eta = c**(alpha/(alpha-1)) / (c-1)**(1/(alpha-1))``.  Minimising
    over ``c`` (at ``c = alpha/(alpha-1)``) gives

        ``eta_min = (alpha/(alpha-1))**(alpha/(alpha-1)) * (alpha-1)**(1/(alpha-1))``.

    Below this threshold no self-similar solution exists: the shadow
    clairvoyant run catches up with NC, its remaining weight hits zero, and
    the algorithm degenerates to the ``epsilon`` crawl.  Above it, the larger
    root ``c2`` of the equation is a stable attractor and the paper's
    property (A) holds with ``zeta = (c2-1)/c2``.  (The extended abstract
    defers its choice of ``eta`` to the full version; this threshold is the
    reproduction's derivation of the constraint.)
    """
    if alpha <= 1:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    q = alpha / (alpha - 1.0)
    return q**q * (alpha - 1.0) ** (1.0 / (alpha - 1.0))


class NCGeneralPolicy(SchedulingPolicy):
    """Algorithm NC-general as a policy for the numeric engine.

    Honestly non-clairvoyant: the policy sees releases/densities and the
    engine-maintained processed volumes; true volumes reach it only through
    ``on_completion``.
    """

    def __init__(
        self,
        power: PowerLaw,
        *,
        eta: float | None = None,
        beta: float = 5.0,
        epsilon: float = 1e-6,
    ) -> None:
        if not isinstance(power, PowerLaw):
            raise TypeError("NC-general's shadow simulation requires a PowerLaw")
        if eta is None:
            eta = _ETA_MARGIN * eta_threshold(power.alpha)
        if eta < 1:
            raise ValueError(f"eta must be >= 1, got {eta}")
        if beta <= 1:
            raise ValueError(f"beta must be > 1, got {beta}")
        if epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {epsilon}")
        self.power = power
        self.eta = eta
        self.beta = beta
        self.epsilon = epsilon
        self.counters = ShadowCounters()
        #: job id -> (release, rounded density); insertion order is release
        #: order because on_release fires in that order.
        self._released: dict[int, tuple[float, float]] = {}
        self._active: list[int] = []
        #: live-shadow epoch: (current job id, its release, the shadow, its
        #: base checkpoint at that release).  Each query rolls the shadow back
        #: to the base, inserts the current job with its latest processed
        #: weight and advances to the query time.
        self._epoch: tuple[int, float, ClairvoyantShadow, ShadowCheckpoint] | None = None
        #: tracing (wired by bind): hoisted recorder guard + the rounded
        #: density class of the last epoch's j*, for density_class_switch.
        self._recorder = None
        self._rec = None
        self._last_class: float | None = None

    def bind(self, context: SimulationContext) -> None:
        super().bind(context)
        self.counters = context.counters
        self._epoch = None
        self._recorder = context.recorder
        self._rec = context.recorder if context.recorder.enabled else None
        self._last_class = None

    # -- engine callbacks -----------------------------------------------------

    def on_release(self, t: float, job_id: int, density: float) -> None:
        self._released[job_id] = (t, round_density_down(density, self.beta))
        self._active.append(job_id)
        self._epoch = None  # a new arrival may change which job is processed

    def on_completion(self, t: float, job_id: int, volume: float) -> None:
        self._active.remove(job_id)
        self._epoch = None

    def select_job(self, t: float) -> int | None:
        if not self._active:
            return None
        # Highest rounded density; FIFO within a class (insertion order of
        # _active is release order, so a stable min does the tie-breaking).
        return min(self._active, key=lambda j: (-self._released[j][1], self._released[j][0], j))

    def speed(self, t: float, processed: dict[int, float]) -> float:
        shadow = self._shadow_speed(t, processed)
        return self.eta * shadow + self.epsilon

    # -- the shadow simulation -----------------------------------------------

    def current_instance(self, processed: dict[int, float]) -> Instance | None:
        """The paper's ``I(t)``: released jobs with rounded densities, each
        with volume equal to what NC has processed of it (zero-volume jobs
        drop out)."""
        jobs = [
            Job(jid, rel, processed[jid], rho)
            for jid, (rel, rho) in self._released.items()
            if processed.get(jid, 0.0) > 0.0
        ]
        return Instance(jobs) if jobs else None

    def _shadow_speed(self, t: float, processed: dict[int, float]) -> float:
        """``s^C_{I(t)}(t)`` from the live epoch shadow.

        The epoch base is C's state on the *other* jobs of ``I(t)`` (their
        processed weights are frozen while NC drives ``j*``) materialized at
        ``r*``; a query replays only ``j*``'s admission and the events in
        ``(r*, t]``, with no object construction.
        """
        epoch = self._epoch
        if epoch is None:
            # The active set only changes through on_release/on_completion,
            # which clear the epoch — while one is alive its j* stays the
            # HDF-rounded selection, so select_job need not be re-run.
            j_star = self.select_job(t)
            alpha = self.power.alpha
            r_star = self._released[j_star][0] if j_star is not None else t
            rec = self._rec
            if rec is not None:
                # The rebuild marker goes on the epoch shadow's own component
                # *before* the new shadow replays history: it is the rewind
                # boundary the ordering contract keys on.
                rec.emit(
                    "shadow_rebuild",
                    t,
                    "nc_general.shadow",
                    j_star=j_star,
                    base_time=r_star,
                )
                cls = self._released[j_star][1] if j_star is not None else None
                if cls != self._last_class:
                    rec.emit(
                        "density_class_switch",
                        t,
                        "nc_general",
                        job=j_star,
                        density_class=cls,
                        prev_class=self._last_class,
                    )
                    self._last_class = cls
            shadow = ClairvoyantShadow(
                alpha,
                counters=self.counters,
                recorder=self._recorder,
                component="nc_general.shadow",
                backend=getattr(getattr(self, "context", None), "backend", None),
            )
            for jid, (rel, rho) in self._released.items():
                if jid != j_star and processed.get(jid, 0.0) > 0.0:
                    shadow.insert_job(jid, rel, rho, processed[jid])
            shadow.advance(r_star)
            base = shadow.checkpoint()
            self.counters.rebuilds += 1
            epoch = self._epoch = (j_star, r_star, shadow, base)
        j_star, r_star, shadow, base = epoch
        if j_star is not None:
            v_star = processed.get(j_star, 0.0)
            if v_star > 0.0:
                w_rem = shadow.query_with_job(
                    base, t, j_star, r_star, self._released[j_star][1], v_star
                )
            else:
                w_rem = shadow.query_with_job(base, t, None, 0.0, 0.0, 0.0)
        else:
            w_rem = shadow.query_with_job(base, t, None, 0.0, 0.0, 0.0)
        if w_rem <= 0.0:
            return 0.0
        return self.power.speed(w_rem)


@dataclass(frozen=True)
class NCGeneralRun:
    """Outcome of an NC-general simulation."""

    instance: Instance
    power: PowerLaw
    schedule: Schedule
    eta: float
    beta: float
    epsilon: float
    engine_steps: int
    counters: ShadowCounters | None = None

    def completion_time(self, job_id: int) -> float:
        return self.schedule.completion_time(job_id, self.instance[job_id].volume)


def simulate_nc_general(
    instance: Instance,
    power: PowerLaw,
    *,
    eta: float | None = None,
    beta: float = 5.0,
    epsilon: float = 1e-6,
    max_step: float = 1e-2,
    context: SimulationContext | None = None,
) -> NCGeneralRun:
    """Run Algorithm NC-general numerically on ``instance``.

    ``eta=None`` picks ``1.3 * eta_threshold(alpha)``.  ``max_step`` is the
    engine's integration step bound; results converge as it shrinks (see
    ``benchmarks/bench_engine_accuracy.py``).  The engine's ``min_step`` is
    tied to ``epsilon**2`` so the post-release bootstrap window is resolved.
    The returned run carries the :class:`~repro.core.shadow.ShadowCounters`
    of its engine context.
    """
    policy = NCGeneralPolicy(power, eta=eta, beta=beta, epsilon=epsilon)
    min_step = min(1e-14, epsilon**2 / 16.0)
    engine = NumericEngine(
        power, max_step=max_step, min_step=max(min_step, 1e-300), context=context
    )
    result: EngineResult = engine.run(instance, policy)
    return NCGeneralRun(
        instance=instance,
        power=power,
        schedule=result.schedule,
        eta=policy.eta,
        beta=policy.beta,
        epsilon=policy.epsilon,
        engine_steps=result.steps,
        counters=result.context.counters if result.context is not None else None,
    )
