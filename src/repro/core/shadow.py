"""Incremental clairvoyant shadow oracle and the shared simulation context.

Both non-clairvoyant algorithms of the paper are defined *relative to*
Algorithm C: NC-uniform's speed offset is ``W^C(r[j]-)`` (§3) and NC-general's
speed is ``eta * s^C_{I(t)}(t) + epsilon`` where ``I(t)`` is the evolving
instance of processed amounts (§4).  Re-simulating C from scratch for every
query makes NC-general quadratic-or-worse in events.  This module maintains
Algorithm C's *live* state — the remaining volumes of its active set — and
advances it event-by-event with the closed-form decay kernel, so a query at
time ``t`` costs only the events between the previous query and ``t``:

* :class:`ClairvoyantShadow` — C's live remaining-weight state with
  ``advance(t)``, ``insert_job()`` / ``grow_weight()`` deltas and
  ``checkpoint()`` / ``rollback()`` for the speculative re-runs NC-general
  needs (its current job's weight in ``I(t)`` changes at every engine step).
* :class:`PrefixWeightOracle` — the ``W^C(r[j]-)`` prefix-offset pattern:
  one incrementally-extended C run answering a monotone stream of
  weight-at-time queries (with an automatic from-scratch rebuild when a
  query or insertion goes backwards in time).
* :class:`SimulationContext` — the shared boundary object the engine hands
  to policies via ``bind``; owns the :class:`ShadowCounters` so shadow
  activity is observable per run.

Exactness contract: the event loop below mirrors
``repro.algorithms.clairvoyant.simulate_clairvoyant`` (and its capped
variant in ``repro.extensions.bounded_speed``) operation for operation —
same admission tolerances, same HDF tie-breaking, same kernel-call argument
order, same drop-only-exact-zero rule — so a staged sequence of ``advance``
calls is bit-identical to one fresh run to the same horizon.  The only
latitude taken is *laziness*: a partial decay piece cut by a query horizon is
kept as an anchor ``(piece start, committed state)`` and re-derived on the
next ``advance`` instead of being split at the horizon, which is what makes
many small advances as cheap as one big one.  The piece is committed
("materialized") exactly where the legacy simulator would split it: at a
release event, or on :meth:`ClairvoyantShadow.materialize` /
:meth:`ClairvoyantShadow.checkpoint`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Any, Callable

from .arraykernels import KernelBackend, backend_payload, resolve_backend
from .errors import SimulationError
from .kernels import decay_time_between, decay_weight_after
from .power import PowerFunction
from .tracing import NULL_RECORDER, MetricsRegistry, TraceRecorder

__all__ = [
    "ShadowCounters",
    "ShadowCheckpoint",
    "ContextCheckpoint",
    "ClairvoyantShadow",
    "PrefixWeightOracle",
    "SimulationContext",
]

#: Same relative tie tolerance as the analytic simulators.  Relative, not
#: absolute: shadow runs legitimately operate at picosecond scales.
_TIE_TOL = 1e-12


def _counter(name: str) -> Any:
    """A :class:`ShadowCounters` attribute backed by a registry slot."""

    def _get(self: "ShadowCounters") -> int:
        return int(self.registry.values.get(name, 0))

    def _set(self: "ShadowCounters", value: int) -> None:
        self.registry.values[name] = value

    return property(_get, _set)


class ShadowCounters:
    """Observability counters shared by the engine and its shadow oracles.

    ``engine_steps`` counts integrator steps; the rest count shadow-oracle
    traffic.  ``events`` is the number of committed scheduler events inside
    shadow runs — the true cost of the incremental scheme — while ``queries``
    is how often a remaining-weight value was read.  ``rebuilds`` counts
    from-scratch reconstructions (epoch changes in NC-general, time
    regressions in prefix oracles); a rebuild-heavy run has lost the
    amortization the layer exists for.

    Since the tracing layer landed this is a *view* over a
    :class:`~repro.core.tracing.MetricsRegistry` rather than a bag of ad-hoc
    ints: ``counters.events += 1`` and ``registry.values["events"]`` read and
    write the same slot, so counters, trace events and any future metrics
    share one substrate per run.
    """

    FIELDS = (
        "engine_steps",
        "queries",
        "advances",
        "events",
        "inserts",
        "checkpoints",
        "rollbacks",
        "rebuilds",
    )

    __slots__ = ("registry",)

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        for name in self.FIELDS:
            self.registry.values.setdefault(name, 0)

    engine_steps = _counter("engine_steps")
    queries = _counter("queries")
    advances = _counter("advances")
    events = _counter("events")
    inserts = _counter("inserts")
    checkpoints = _counter("checkpoints")
    rollbacks = _counter("rollbacks")
    rebuilds = _counter("rebuilds")

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.FIELDS}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShadowCounters):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)}" for name in self.FIELDS)
        return f"ShadowCounters({inner})"


@dataclass(frozen=True)
class ShadowCheckpoint:
    """Opaque snapshot of a :class:`ClairvoyantShadow` (fully materialized).

    ``w_accum`` is the canonical total weight of ``remaining`` used by the
    array-core fast path (NaN for scalar-backend snapshots, which re-derive
    totals by summation).  Canonicalizing it at checkpoint time makes
    rollback-and-replay bit-identical to the first pass under the
    incremental-accumulator scheme.
    """

    clock: float
    remaining: tuple[tuple[int, float], ...]
    pending: tuple[tuple[float, int, float, float], ...]
    w_accum: float = math.nan


@dataclass(frozen=True)
class ContextCheckpoint:
    """Snapshot of a :class:`SimulationContext`'s mutable run state.

    Extends the shadow-layer checkpoint idea to the whole context: the
    supervisor (:mod:`repro.runtime.supervisor`) takes one before every
    attempt and restores it before a retry, so counters and metrics from the
    failed attempt do not leak into the retried run and the empty-fault-plan
    supervised path stays bit-identical to an unsupervised run.
    """

    label: str
    sim_time: float
    metrics: tuple[tuple[str, int | float], ...]


class ClairvoyantShadow:
    """Algorithm C's live state, advanced incrementally.

    ``s_max=None`` gives the pure power-law dynamics; a finite ``s_max``
    reproduces the bounded-speed variant (saturated linear phase above
    ``P(s_max)``, decay below).  ``record`` — if given — is called as
    ``record(kind, t0, t1, job_id, value)`` for every committed piece with
    ``kind`` in ``{"decay", "const"}`` and ``value`` the piece's starting
    total weight (decay) or the cap speed (const); the analytic simulators
    use it to build their schedules.

    ``recorder`` — if given and enabled — receives structured trace events
    tagged with ``component``: a ``release`` per revealed job, a
    ``kernel_eval`` per committed closed-form piece, a ``completion`` per
    job leaving the active set, and ``shadow_checkpoint`` /
    ``shadow_rollback`` markers.  All emission sites honor the
    zero-overhead-when-off contract of :mod:`repro.core.tracing`.
    """

    __slots__ = (
        "alpha",
        "s_max",
        "clock",
        "counters",
        "component",
        "backend",
        "_fast",
        "_beta",
        "_inv_beta",
        "_heap",
        "_w_accum",
        "_pending_ids",
        "_w_sat",
        "_record",
        "_rec",
        "_t_loop",
        "_remaining",
        "_pending",
        "_next",
        "_rho",
        "_rel",
        "_key",
        "_piece",
    )

    def __init__(
        self,
        alpha: float,
        *,
        s_max: float | None = None,
        counters: ShadowCounters | None = None,
        record: Callable[[str, float, float, int, float], None] | None = None,
        recorder: TraceRecorder | None = None,
        component: str = "shadow",
        backend: str | KernelBackend | None = None,
    ) -> None:
        if not alpha > 1:
            raise ValueError(f"alpha must exceed 1, got {alpha}")
        if s_max is not None and not (s_max > 0 and math.isfinite(s_max)):
            raise ValueError(f"s_max must be finite > 0, got {s_max}")
        self.alpha = float(alpha)
        self.s_max = None if s_max is None else float(s_max)
        self._w_sat = math.inf if s_max is None else self.s_max**self.alpha
        self.counters = counters if counters is not None else ShadowCounters()
        self._record = record
        self.component = component
        #: resolved kernel backend.  ``"scalar"`` runs the legacy O(n)-scan
        #: event loop verbatim (bit-identical fallback); the array backends
        #: run the fast loop: HDF argmin from a heap of precomputed keys and
        #: the total weight from an incremental accumulator, O(log n)/event.
        self.backend = resolve_backend(backend)
        self._fast = self.backend.name != "scalar"
        #: hoisted per-run kernel constants (beta = 1 - 1/alpha), so the hot
        #: loop evaluates the closed forms without per-event re-derivation.
        self._beta = 1.0 - 1.0 / self.alpha
        self._inv_beta = 1.0 / self._beta
        #: fast-path structures: min-heap of HDF keys over the active set and
        #: the incremental total fractional weight of ``_remaining``.  The
        #: accumulator is reset to exactly 0.0 whenever the active set drains
        #: and re-canonicalized (exact fsum) at every checkpoint, so replay
        #: from a checkpoint is bit-identical to the first pass.
        self._heap: list[tuple[float, float, int]] = []
        self._w_accum = 0.0
        #: fast-path pending-id set (O(1) duplicate checks); None in scalar
        #: mode, which keeps the legacy linear scan.
        self._pending_ids: set[int] | None = set() if self._fast else None
        #: hoisted zero-overhead guard: None unless tracing is actually on.
        self._rec = recorder if (recorder is not None and recorder.enabled) else None
        #: time of the last *committed* event; the anchored partial piece (if
        #: any) spans (_t_loop, clock].
        self._t_loop = 0.0
        self.clock = 0.0
        #: admitted, uncompleted jobs: id -> remaining volume, in admission
        #: order (== the legacy simulator's dict order).
        self._remaining: dict[int, float] = {}
        #: not-yet-admitted jobs as (release, id, density, volume), sorted;
        #: consumed by index so checkpoints can snapshot the tail cheaply.
        self._pending: list[tuple[float, int, float, float]] = []
        self._next = 0
        #: per-job metadata (survives completion; needed for HDF keys).
        self._rho: dict[int, float] = {}
        self._rel: dict[int, float] = {}
        #: precomputed HDF sort key per job (-density, release, id).
        self._key: dict[int, tuple[float, float, int]] = {}
        #: cache of the anchored piece, ``(current job, its density, total
        #: weight at _t_loop)``, filled at the lazy horizon cut so reads and
        #: materialization need not re-derive it.  None when state is
        #: materialized or the cache was invalidated.
        self._piece: tuple[int, float, float] | None = None

    # -- deltas ---------------------------------------------------------------

    def insert_job(self, job_id: int, release: float, density: float, volume: float) -> None:
        """Reveal a job to the shadow.

        ``release`` may lie at or before the current clock (but not before the
        last committed event minus the tie tolerance): the shadow then
        re-derives the anchored piece with the proper split at ``release``,
        exactly as a fresh run seeing the job would have.
        """
        if volume <= 0:
            raise ValueError(f"job {job_id}: volume must be > 0, got {volume}")
        if density <= 0:
            raise ValueError(f"job {job_id}: density must be > 0, got {density}")
        if release < self._t_loop * (1.0 - _TIE_TOL) - 1e-300:
            raise SimulationError(
                f"job {job_id} released at {release}, before the shadow's "
                f"committed past (t={self._t_loop}); rollback first"
            )
        pending_ids = self._pending_ids
        if job_id in self._remaining or (
            job_id in pending_ids
            if pending_ids is not None
            else any(e[1] == job_id for e in self._pending[self._next :])
        ):
            raise SimulationError(f"job {job_id} already known to the shadow")
        self._rho[job_id] = density
        self._rel[job_id] = release
        self._key[job_id] = (-density, release, job_id)
        entry = (release, job_id, density, volume)
        i = bisect_right(self._pending, entry, lo=self._next)
        self._pending.insert(i, entry)
        if pending_ids is not None:
            pending_ids.add(job_id)
        self.counters.inserts += 1
        if self._rec is not None:
            self._rec.emit(
                "release", release, self.component, job=job_id, density=density, volume=volume
            )
        if release <= self.clock * (1.0 + _TIE_TOL):
            # Catch the state up: the loop splits the anchored piece at the
            # new release and admits the job, mirroring a fresh run.
            self._run_loop(self.clock)

    def grow_weight(self, job_id: int, delta_volume: float) -> None:
        """Grow a *pending* (not yet admitted) job's volume by ``delta_volume``.

        Once a job has been admitted its past processing depends on its
        volume, so growing it would rewrite history — rollback to a
        checkpoint before its admission instead.
        """
        if delta_volume < 0:
            raise ValueError(f"delta_volume must be >= 0, got {delta_volume}")
        for i in range(self._next, len(self._pending)):
            rel, jid, rho, vol = self._pending[i]
            if jid == job_id:
                self._pending[i] = (rel, jid, rho, vol + delta_volume)
                return
        if job_id in self._remaining:
            raise SimulationError(
                f"job {job_id} is already admitted; its weight can no longer "
                "grow in place — rollback to before its admission"
            )
        raise SimulationError(f"job {job_id} is not known to the shadow")

    # -- time -----------------------------------------------------------------

    def advance(self, horizon: float) -> None:
        """Advance Algorithm C's state to ``horizon`` (monotone; may be inf)."""
        if horizon <= self.clock:
            return
        self._run_loop(horizon)

    def _admit(self, now: float) -> None:
        pending = self._pending
        fast = self._fast
        while self._next < len(pending) and pending[self._next][0] <= now * (1.0 + _TIE_TOL):
            _, jid, rho, vol = pending[self._next]
            self._remaining[jid] = vol
            if fast:
                heappush(self._heap, self._key[jid])
                self._w_accum += rho * vol
                assert self._pending_ids is not None
                self._pending_ids.discard(jid)
            self._next += 1

    def _run_loop(self, horizon: float) -> None:
        if self._fast:
            self._run_loop_fast(horizon)
        else:
            self._run_loop_scalar(horizon)

    def _run_loop_scalar(self, horizon: float) -> None:
        """The legacy event loop, verbatim, with lazy horizon cuts."""
        rem = self._remaining
        rho_of = self._rho
        key_of = self._key
        alpha = self.alpha
        s_max = self.s_max
        w_sat = self._w_sat
        record = self._record
        rec = self._rec
        comp = self.component
        counters = self.counters
        dtb = decay_time_between
        dwa = decay_weight_after
        pending = self._pending
        n_pending = len(pending)
        nxt = self._next
        counters.advances += 1
        self._piece = None
        t = self._t_loop
        if t >= self.clock:
            # Not anchored inside a piece: mirror the legacy entry admission.
            bound = t * (1.0 + _TIE_TOL)
            while nxt < n_pending and pending[nxt][0] <= bound:
                rem[pending[nxt][1]] = pending[nxt][3]
                nxt += 1
        while t < horizon and (rem or nxt < n_pending):
            if not rem:
                t = min(pending[nxt][0], horizon)
                bound = t * (1.0 + _TIE_TOL)
                while nxt < n_pending and pending[nxt][0] <= bound:
                    rem[pending[nxt][1]] = pending[nxt][3]
                    nxt += 1
                continue
            cur = min(rem, key=key_of.__getitem__)
            rho = rho_of[cur]
            w_total = sum(rho_of[j] * v for j, v in rem.items())
            if w_total <= 0:
                raise SimulationError("active set with zero weight")
            t_next = pending[nxt][0] if nxt < n_pending else math.inf
            if s_max is not None and rho * rem[cur] <= 1e-15 * w_total:
                # Underflow against the total: in the saturated branch the
                # processing time would round to zero.  Finish instantly.
                del rem[cur]
                counters.events += 1
                if rec is not None:
                    rec.emit("completion", t, comp, job=cur)
                continue
            w_end = w_total - rho * rem[cur]

            if w_total > w_sat * (1.0 + _TIE_TOL):
                # Saturated phase: constant speed s_max, weight falls linearly.
                target = max(w_sat, w_end)
                tau_phase = (w_total - target) / (rho * s_max)
                t_stop = min(t + tau_phase, t_next, horizon)
                if t_stop <= t:
                    # tau_phase underflows against t: no representable time
                    # can make progress (the legacy loop spins forever here).
                    # Apply the sliver instantly and move on.
                    rem[cur] = max(rem[cur] - (w_total - target) / rho, 0.0)
                    if rem[cur] <= 0.0:
                        del rem[cur]
                        if rec is not None:
                            rec.emit("completion", t, comp, job=cur)
                    counters.events += 1
                    continue
                if (
                    t_stop >= horizon
                    and t_stop < t + tau_phase
                    and not t_next <= horizon * (1.0 + _TIE_TOL)
                ):
                    self._t_loop = t
                    self.clock = horizon
                    self._next = nxt
                    self._piece = (cur, rho, w_total)
                    return
                tau = t_stop - t
                if tau > 0:
                    if record is not None:
                        record("const", t, t_stop, cur, s_max)
                    if rec is not None:
                        rec.emit(
                            "kernel_eval",
                            t,
                            comp,
                            profile="const",
                            t0=t,
                            t1=t_stop,
                            job=cur,
                            speed=s_max,
                            rho=rho,
                            alpha=alpha,
                        )
                    dv = s_max * tau
                    rem[cur] = max(rem[cur] - dv, 0.0)
                    if rem[cur] <= 0.0:
                        del rem[cur]
                        if rec is not None:
                            rec.emit("completion", t_stop, comp, job=cur)
                    counters.events += 1
                t = t_stop
                bound = t * (1.0 + _TIE_TOL)
                while nxt < n_pending and pending[nxt][0] <= bound:
                    rem[pending[nxt][1]] = pending[nxt][3]
                    nxt += 1
                continue

            tau_complete = dtb(w_total, max(w_end, 0.0), rho, alpha)
            t_stop = min(t + tau_complete, t_next, horizon)
            if t_stop >= t + tau_complete * (1.0 - _TIE_TOL):
                # The current job completes first.
                if record is not None:
                    record("decay", t, t + tau_complete, cur, w_total)
                if rec is not None:
                    rec.emit(
                        "kernel_eval",
                        t,
                        comp,
                        profile="decay",
                        t0=t,
                        t1=t + tau_complete,
                        job=cur,
                        x0=w_total,
                        rho=rho,
                        alpha=alpha,
                    )
                t = t + tau_complete
                del rem[cur]
                counters.events += 1
                if rec is not None:
                    rec.emit("completion", t, comp, job=cur)
            else:
                if t_stop >= horizon and not t_next <= horizon * (1.0 + _TIE_TOL):
                    # Cut only by the query horizon with no admission due:
                    # keep the piece anchored instead of splitting it here.
                    self._t_loop = t
                    self.clock = horizon
                    self._next = nxt
                    self._piece = (cur, rho, w_total)
                    return
                tau = t_stop - t
                if tau > 0:
                    w_after = dwa(w_total, rho, tau, alpha)
                    dv = (w_total - w_after) / rho
                    if record is not None:
                        record("decay", t, t_stop, cur, w_total)
                    if rec is not None:
                        rec.emit(
                            "kernel_eval",
                            t,
                            comp,
                            profile="decay",
                            t0=t,
                            t1=t_stop,
                            job=cur,
                            x0=w_total,
                            rho=rho,
                            alpha=alpha,
                        )
                    rem[cur] = max(rem[cur] - dv, 0.0)
                    # Only drop exact zeros — a 1e-15 remainder is usually the
                    # analytically correct value (see simulate_clairvoyant).
                    if rem[cur] <= 0.0:
                        del rem[cur]
                        if rec is not None:
                            rec.emit("completion", t_stop, comp, job=cur)
                    counters.events += 1
                t = t_stop
            bound = t * (1.0 + _TIE_TOL)
            while nxt < n_pending and pending[nxt][0] <= bound:
                rem[pending[nxt][1]] = pending[nxt][3]
                nxt += 1
        self._t_loop = t
        self._next = nxt
        # Natural exit: work exhausted before the horizon leaves the clock at
        # the last event, like the legacy run; an event landing at or past
        # the horizon (completion overshoot within the tie tolerance) also
        # reports that time.
        self.clock = t

    def _run_loop_fast(self, horizon: float) -> None:
        """The event loop on the array-core fast path.

        Same event structure, tie tolerances and kernel algebra as
        :meth:`_run_loop_scalar`, with the two O(n)-per-event scans replaced:
        the HDF argmin comes from a min-heap of the precomputed ``_key``
        tuples (only the minimum-key job ever completes, so pops stay aligned
        with the dict) and the total weight from an incremental accumulator
        updated by the weight each committed event removes or admits.  The
        accumulator is reset to exactly 0.0 whenever the active set drains
        and re-canonicalized at every :meth:`checkpoint`, bounding float
        drift to ~1e-15 relative per busy period (``tests/test_arraykernels``
        pins full-run agreement with the scalar loop at 1e-12).  Trace events
        are buffered per advance and flushed in emission order on exit —
        batched, but replay-equivalent for ``trace_report``.
        """
        rem = self._remaining
        rho_of = self._rho
        key_of = self._key
        alpha = self.alpha
        beta = self._beta
        inv_beta = self._inv_beta
        s_max = self.s_max
        w_sat = self._w_sat
        record = self._record
        rec = self._rec
        comp = self.component
        counters = self.counters
        heap = self._heap
        w_accum = self._w_accum
        pend_ids = self._pending_ids
        pending = self._pending
        n_pending = len(pending)
        nxt = self._next
        counters.advances += 1
        self._piece = None
        events: list[tuple[str, float, dict[str, Any]]] = []

        def flush() -> None:
            if rec is not None and events:
                emit = rec.emit
                for kind, st, payload in events:
                    emit(kind, st, comp, **payload)
                events.clear()

        t = self._t_loop
        if t >= self.clock:
            # Not anchored inside a piece: mirror the legacy entry admission.
            bound = t * (1.0 + _TIE_TOL)
            while nxt < n_pending and pending[nxt][0] <= bound:
                _, jid, rho_j, vol = pending[nxt]
                rem[jid] = vol
                heappush(heap, key_of[jid])
                w_accum += rho_j * vol
                if pend_ids is not None:
                    pend_ids.discard(jid)
                nxt += 1
        while t < horizon and (rem or nxt < n_pending):
            if not rem:
                w_accum = 0.0
                t = min(pending[nxt][0], horizon)
                bound = t * (1.0 + _TIE_TOL)
                while nxt < n_pending and pending[nxt][0] <= bound:
                    _, jid, rho_j, vol = pending[nxt]
                    rem[jid] = vol
                    heappush(heap, key_of[jid])
                    w_accum += rho_j * vol
                    if pend_ids is not None:
                        pend_ids.discard(jid)
                    nxt += 1
                continue
            cur = heap[0][2]
            rho = rho_of[cur]
            if len(rem) == 1:
                # Single-job tail: the dict sum is one product, so re-derive
                # it exactly (matching the scalar loop's per-event fsum).
                # Without this, ``w_end`` below carries the accumulator's
                # ~1e-16 residue where the true value is exactly 0, and
                # ``w_end**beta`` amplifies that into a ~1e-11 error on the
                # busy period's final completion time.
                w_accum = rho * rem[cur]
            w_total = w_accum
            if w_total <= 0:
                # Accumulator drift can momentarily dip a near-empty total
                # below zero; re-derive it exactly before declaring failure.
                w_accum = w_total = math.fsum(rho_of[j] * v for j, v in rem.items())
                if w_total <= 0:
                    raise SimulationError("active set with zero weight")
            t_next = pending[nxt][0] if nxt < n_pending else math.inf
            if s_max is not None and rho * rem[cur] <= 1e-15 * w_total:
                w_accum -= rho * rem[cur]
                del rem[cur]
                heappop(heap)
                if not rem:
                    w_accum = 0.0
                counters.events += 1
                if rec is not None:
                    events.append(("completion", t, {"job": cur}))
                continue
            w_end = w_total - rho * rem[cur]

            if w_total > w_sat * (1.0 + _TIE_TOL):
                # Saturated phase: constant speed s_max, weight falls linearly.
                target = max(w_sat, w_end)
                tau_phase = (w_total - target) / (rho * s_max)
                t_stop = min(t + tau_phase, t_next, horizon)
                if t_stop <= t:
                    old = rem[cur]
                    new_v = max(old - (w_total - target) / rho, 0.0)
                    if new_v <= 0.0:
                        del rem[cur]
                        heappop(heap)
                        w_accum = w_accum - rho * old if rem else 0.0
                        if rec is not None:
                            events.append(("completion", t, {"job": cur}))
                    else:
                        rem[cur] = new_v
                        w_accum -= rho * (old - new_v)
                    counters.events += 1
                    continue
                if (
                    t_stop >= horizon
                    and t_stop < t + tau_phase
                    and not t_next <= horizon * (1.0 + _TIE_TOL)
                ):
                    self._t_loop = t
                    self.clock = horizon
                    self._next = nxt
                    self._piece = (cur, rho, w_total)
                    self._w_accum = w_accum
                    flush()
                    return
                tau = t_stop - t
                if tau > 0:
                    if record is not None:
                        record("const", t, t_stop, cur, s_max)
                    if rec is not None:
                        events.append(
                            (
                                "kernel_eval",
                                t,
                                {
                                    "profile": "const",
                                    "t0": t,
                                    "t1": t_stop,
                                    "job": cur,
                                    "speed": s_max,
                                    "rho": rho,
                                    "alpha": alpha,
                                },
                            )
                        )
                    dv = s_max * tau
                    old = rem[cur]
                    new_v = max(old - dv, 0.0)
                    if new_v <= 0.0:
                        del rem[cur]
                        heappop(heap)
                        w_accum = w_accum - rho * old if rem else 0.0
                        if rec is not None:
                            events.append(("completion", t_stop, {"job": cur}))
                    else:
                        rem[cur] = new_v
                        w_accum -= rho * (old - new_v)
                    counters.events += 1
                t = t_stop
                bound = t * (1.0 + _TIE_TOL)
                while nxt < n_pending and pending[nxt][0] <= bound:
                    _, jid, rho_j, vol = pending[nxt]
                    rem[jid] = vol
                    heappush(heap, key_of[jid])
                    w_accum += rho_j * vol
                    if pend_ids is not None:
                        pend_ids.discard(jid)
                    nxt += 1
                continue

            # Hoisted closed forms — same float expressions as the kernels
            # with beta precomputed once per run.
            w_end_c = w_end if w_end > 0.0 else 0.0
            tau_complete = (w_total**beta - w_end_c**beta) / (rho * beta)
            if tau_complete < 0.0:
                tau_complete = 0.0
            t_stop = min(t + tau_complete, t_next, horizon)
            if t_stop >= t + tau_complete * (1.0 - _TIE_TOL):
                # The current job completes first.
                if record is not None:
                    record("decay", t, t + tau_complete, cur, w_total)
                if rec is not None:
                    events.append(
                        (
                            "kernel_eval",
                            t,
                            {
                                "profile": "decay",
                                "t0": t,
                                "t1": t + tau_complete,
                                "job": cur,
                                "x0": w_total,
                                "rho": rho,
                                "alpha": alpha,
                            },
                        )
                    )
                t = t + tau_complete
                w_accum -= rho * rem[cur]
                del rem[cur]
                heappop(heap)
                if not rem:
                    w_accum = 0.0
                counters.events += 1
                if rec is not None:
                    events.append(("completion", t, {"job": cur}))
            else:
                if t_stop >= horizon and not t_next <= horizon * (1.0 + _TIE_TOL):
                    # Cut only by the query horizon with no admission due:
                    # keep the piece anchored instead of splitting it here.
                    self._t_loop = t
                    self.clock = horizon
                    self._next = nxt
                    self._piece = (cur, rho, w_total)
                    self._w_accum = w_accum
                    flush()
                    return
                tau = t_stop - t
                if tau > 0:
                    base = w_total**beta - rho * beta * tau
                    w_after = base**inv_beta if base > 0.0 else 0.0
                    dv = (w_total - w_after) / rho
                    if record is not None:
                        record("decay", t, t_stop, cur, w_total)
                    if rec is not None:
                        events.append(
                            (
                                "kernel_eval",
                                t,
                                {
                                    "profile": "decay",
                                    "t0": t,
                                    "t1": t_stop,
                                    "job": cur,
                                    "x0": w_total,
                                    "rho": rho,
                                    "alpha": alpha,
                                },
                            )
                        )
                    old = rem[cur]
                    new_v = max(old - dv, 0.0)
                    # Only drop exact zeros — a 1e-15 remainder is usually the
                    # analytically correct value (see simulate_clairvoyant).
                    if new_v <= 0.0:
                        del rem[cur]
                        heappop(heap)
                        w_accum = w_accum - rho * old if rem else 0.0
                        if rec is not None:
                            events.append(("completion", t_stop, {"job": cur}))
                    else:
                        rem[cur] = new_v
                        w_accum -= rho * (old - new_v)
                    counters.events += 1
                t = t_stop
            bound = t * (1.0 + _TIE_TOL)
            while nxt < n_pending and pending[nxt][0] <= bound:
                _, jid, rho_j, vol = pending[nxt]
                rem[jid] = vol
                heappush(heap, key_of[jid])
                w_accum += rho_j * vol
                if pend_ids is not None:
                    pend_ids.discard(jid)
                nxt += 1
        self._t_loop = t
        self._next = nxt
        self.clock = t
        self._w_accum = w_accum
        flush()

    def materialize(self) -> None:
        """Commit the anchored partial piece (if any) at the current clock.

        After this the state equals what a fresh legacy run to ``clock``
        reports, including the split of the in-progress piece at ``clock``.
        """
        rem = self._remaining
        if self.clock <= self._t_loop or not rem:
            self._t_loop = max(self._t_loop, self.clock)
            return
        fast = self._fast
        rho_of = self._rho
        key_of = self._key
        if self._piece is not None:
            cur, rho, w_total = self._piece
        elif fast:
            cur = self._heap[0][2]
            rho = rho_of[cur]
            if len(rem) == 1:
                # Same single-job exact tail as the fast loop.
                w_total = self._w_accum = rho * rem[cur]
            else:
                w_total = self._w_accum
            if w_total <= 0:
                w_total = self._w_accum = math.fsum(
                    rho_of[j] * v for j, v in rem.items()
                )
        else:
            cur = min(rem, key=key_of.__getitem__)
            rho = rho_of[cur]
            w_total = sum(rho_of[j] * v for j, v in rem.items())
        tau = self.clock - self._t_loop
        rec = self._rec
        if self.s_max is not None and w_total > self._w_sat * (1.0 + _TIE_TOL):
            if self._record is not None:
                self._record("const", self._t_loop, self.clock, cur, self.s_max)
            if rec is not None:
                rec.emit(
                    "kernel_eval",
                    self._t_loop,
                    self.component,
                    profile="const",
                    t0=self._t_loop,
                    t1=self.clock,
                    job=cur,
                    speed=self.s_max,
                    rho=rho,
                    alpha=self.alpha,
                )
            dv = self.s_max * tau
        else:
            w_after = decay_weight_after(w_total, rho, tau, self.alpha)
            dv = (w_total - w_after) / rho
            if self._record is not None:
                self._record("decay", self._t_loop, self.clock, cur, w_total)
            if rec is not None:
                rec.emit(
                    "kernel_eval",
                    self._t_loop,
                    self.component,
                    profile="decay",
                    t0=self._t_loop,
                    t1=self.clock,
                    job=cur,
                    x0=w_total,
                    rho=rho,
                    alpha=self.alpha,
                )
        old = rem[cur]
        new_v = max(old - dv, 0.0)
        if new_v <= 0.0:
            del rem[cur]
            if fast:
                heappop(self._heap)
                self._w_accum = self._w_accum - rho * old if rem else 0.0
            if rec is not None:
                rec.emit("completion", self.clock, self.component, job=cur)
        else:
            rem[cur] = new_v
            if fast:
                self._w_accum -= rho * (old - new_v)
        self.counters.events += 1
        self._t_loop = self.clock
        self._piece = None
        self._admit(self.clock)

    # -- reads (non-destructive) ----------------------------------------------

    def _peek_current(self) -> tuple[int, float] | None:
        """The in-progress job and its would-be remaining volume at ``clock``,
        without committing the anchored piece."""
        rem = self._remaining
        if self.clock <= self._t_loop or not rem:
            return None
        rho_of = self._rho
        key_of = self._key
        if self._piece is not None:
            cur, rho, w_total = self._piece
        elif self._fast:
            cur = self._heap[0][2]
            rho = rho_of[cur]
            if len(rem) == 1:
                # Same single-job exact tail as the fast loop.
                w_total = self._w_accum = rho * rem[cur]
            else:
                w_total = self._w_accum
            if w_total <= 0:
                w_total = self._w_accum = math.fsum(
                    rho_of[j] * v for j, v in rem.items()
                )
        else:
            cur = min(rem, key=key_of.__getitem__)
            rho = rho_of[cur]
            w_total = sum(rho_of[j] * v for j, v in rem.items())
        tau = self.clock - self._t_loop
        if self.s_max is not None and w_total > self._w_sat * (1.0 + _TIE_TOL):
            dv = self.s_max * tau
        else:
            w_after = decay_weight_after(w_total, rho, tau, self.alpha)
            dv = (w_total - w_after) / rho
        return cur, max(rem[cur] - dv, 0.0)

    def remaining_weight(self) -> float:
        """``W^C(clock)`` — total remaining fractional weight, live state."""
        self.counters.queries += 1
        rho_of = self._rho
        if self._fast:
            # O(1): the committed accumulator, minus the anchored piece's
            # decay on the current job.  Clamped at 0.0 — accumulator drift
            # must never hand a negative weight to the growth kernels.
            peek = self._peek_current()
            total = self._w_accum
            if peek is not None:
                cur, val = peek
                total -= rho_of[cur] * (self._remaining[cur] - val)
            return total if total > 0.0 else 0.0
        peek = self._peek_current()
        if peek is None:
            return sum(rho_of[j] * v for j, v in self._remaining.items())
        cur, val = peek
        # Same accumulation order as a sum over the materialized dict; a
        # completed current job contributes 0.0, exactly as its deleted entry
        # would be absent from that sum.
        return sum(
            rho_of[j] * (val if j == cur else v) for j, v in self._remaining.items()
        )

    def remaining_items(self) -> list[tuple[int, float, float]]:
        """Materialized-equivalent ``(job_id, density, remaining volume)`` at
        ``clock``, in admission order, completed jobs omitted."""
        self.counters.queries += 1
        rho_of = self._rho
        peek = self._peek_current()
        out = []
        for j, v in self._remaining.items():
            if peek is not None and j == peek[0]:
                v = peek[1]
                if v <= 0.0:
                    continue
            out.append((j, rho_of[j], v))
        return out

    def remaining_dict(self) -> dict[int, float]:
        """Copy of the remaining-volume map (call :meth:`materialize` first if
        an anchored piece should be included)."""
        return dict(self._remaining)

    # -- checkpoint / rollback ------------------------------------------------

    def checkpoint(self) -> ShadowCheckpoint:
        """Materialize and snapshot the state for later :meth:`rollback`."""
        self.materialize()
        self.counters.checkpoints += 1
        if self._rec is not None:
            self._rec.emit(
                "shadow_checkpoint",
                self.clock,
                self.component,
                active=len(self._remaining),
                pending=len(self._pending) - self._next,
            )
        if self._fast:
            # Canonicalize the accumulator at the snapshot boundary: replay
            # from this checkpoint then becomes a deterministic function of
            # the committed state, bit-identical on every restore.
            rho_of = self._rho
            self._w_accum = (
                math.fsum(rho_of[j] * v for j, v in self._remaining.items())
                if self._remaining
                else 0.0
            )
        return ShadowCheckpoint(
            clock=self.clock,
            remaining=tuple(self._remaining.items()),
            pending=tuple(self._pending[self._next :]),
            w_accum=self._w_accum if self._fast else math.nan,
        )

    def rollback(self, ckpt: ShadowCheckpoint) -> None:
        """Restore a snapshot taken by :meth:`checkpoint`.

        Jobs inserted after the checkpoint vanish from the active/pending
        sets (their metadata is kept; re-inserting them is allowed)."""
        self.counters.rollbacks += 1
        if self._rec is not None:
            self._rec.emit(
                "shadow_rollback", ckpt.clock, self.component, from_time=self.clock
            )
        self.clock = ckpt.clock
        self._t_loop = ckpt.clock
        self._remaining = dict(ckpt.remaining)
        self._pending = list(ckpt.pending)
        self._next = 0
        self._piece = None
        if self._fast:
            self._restore_fast(ckpt)

    def _restore_fast(self, ckpt: ShadowCheckpoint) -> None:
        """Rebuild the fast-path structures after a snapshot restore."""
        key_of = self._key
        self._heap = [key_of[j] for j, _ in ckpt.remaining]
        heapify(self._heap)
        if math.isnan(ckpt.w_accum):
            # Snapshot taken by a scalar-backend shadow: derive the canonical
            # total the same way checkpoint() would have.
            rho_of = self._rho
            self._w_accum = (
                math.fsum(rho_of[j] * v for j, v in ckpt.remaining)
                if ckpt.remaining
                else 0.0
            )
        else:
            self._w_accum = ckpt.w_accum
        self._pending_ids = {e[1] for e in ckpt.pending}

    def query_with_job(
        self,
        base: ShadowCheckpoint,
        t: float,
        job_id: int | None,
        release: float,
        density: float,
        volume: float,
    ) -> float:
        """Speculative query: remaining weight at ``t`` starting from ``base``
        with one extra job.

        Equivalent to ``rollback(base)``, ``insert_job(...)``, ``advance(t)``,
        ``remaining_weight()`` fused into one call — the NC-general inner
        loop, where every engine step re-asks "what would C's weight be now if
        the current job's processed amount entered its run at its release".
        ``job_id=None`` skips the insertion (nothing of the job processed yet).
        """
        counters = self.counters
        counters.rollbacks += 1
        if self._rec is not None:
            self._rec.emit(
                "shadow_rollback",
                base.clock,
                self.component,
                from_time=self.clock,
                speculative=True,
            )
        self.clock = self._t_loop = base.clock
        rem = self._remaining = dict(base.remaining)
        pending = self._pending = list(base.pending)
        self._next = 0
        self._piece = None
        fast = self._fast
        if fast:
            self._restore_fast(base)
        if job_id is not None:
            self._rho[job_id] = density
            self._rel[job_id] = release
            self._key[job_id] = (-density, release, job_id)
            counters.inserts += 1
            if release <= base.clock * (1.0 + _TIE_TOL):
                # The base is materialized with no admission due, so the
                # job joins the active set directly, as _admit would place it.
                rem[job_id] = volume
                if fast:
                    heappush(self._heap, self._key[job_id])
                    self._w_accum += density * volume
            else:
                entry = (release, job_id, density, volume)
                pending.insert(bisect_right(pending, entry), entry)
                if fast:
                    assert self._pending_ids is not None
                    self._pending_ids.add(job_id)
        if t > self.clock:
            self._run_loop(t)
        return self.remaining_weight()


class PrefixWeightOracle:
    """One incrementally-extended Algorithm C run answering ``W^C(t)`` queries.

    This is the paper's ``W^C(r[j]-)`` pattern (§3, §6): the speed-rule
    offsets of NC-uniform and of the per-machine NC-PAR runs are remaining
    weights of C simulated over an ever-growing prefix of completed jobs.
    Queries and insertions are expected mostly in nondecreasing time order —
    then each query costs only the events since the previous one.  A query or
    insertion that goes backwards in time triggers a from-scratch rebuild
    (counted in :attr:`ShadowCounters.rebuilds`), which reproduces exactly
    what a fresh legacy simulation would report.
    """

    def __init__(
        self,
        alpha: float,
        *,
        s_max: float | None = None,
        counters: ShadowCounters | None = None,
        recorder: TraceRecorder | None = None,
        component: str = "shadow",
        backend: str | KernelBackend | None = None,
    ) -> None:
        self.alpha = alpha
        self.s_max = s_max
        self.counters = counters if counters is not None else ShadowCounters()
        self.component = component
        self.backend = resolve_backend(backend)
        self._recorder = recorder
        self._rec = recorder if (recorder is not None and recorder.enabled) else None
        self._jobs: list[tuple[float, int, float, float]] = []  # (release, id, rho, vol)
        self._shadow = ClairvoyantShadow(
            alpha,
            s_max=s_max,
            counters=self.counters,
            recorder=recorder,
            component=component,
            backend=self.backend,
        )
        self._dirty = False

    def add_job(self, job_id: int, release: float, density: float, volume: float) -> None:
        self._jobs.append((release, job_id, density, volume))
        if self._dirty:
            return
        if release < self._shadow._t_loop * (1.0 - _TIE_TOL) - 1e-300:
            self._dirty = True
        else:
            self._shadow.insert_job(job_id, release, density, volume)

    def _settle(self, t: float) -> ClairvoyantShadow:
        if self._dirty or t < self._shadow.clock:
            self.counters.rebuilds += 1
            if self._rec is not None:
                self._rec.emit(
                    "shadow_rebuild",
                    t,
                    self.component,
                    from_time=self._shadow.clock,
                    jobs=len(self._jobs),
                    reason="dirty" if self._dirty else "time_regression",
                )
            self._shadow = ClairvoyantShadow(
                self.alpha,
                s_max=self.s_max,
                counters=self.counters,
                recorder=self._recorder,
                component=self.component,
                backend=self.backend,
            )
            for release, jid, rho, vol in sorted(self._jobs):
                self._shadow.insert_job(jid, release, rho, vol)
            self._dirty = False
        self._shadow.advance(t)
        return self._shadow

    def weight_at(self, t: float) -> float:
        """``W^C(t)`` over the jobs added so far (left limit at releases ==
        ``t``: a job released exactly at ``t`` counts at full weight)."""
        return self._settle(t).remaining_weight()

    def remaining_items_at(self, t: float) -> list[tuple[int, float, float]]:
        """``(job_id, density, remaining volume)`` of C's live state at ``t``."""
        return self._settle(t).remaining_items()


class SimulationContext:
    """Shared boundary object between the engine and scheduling algorithms.

    Owns the power function, the per-run :class:`ShadowCounters` and (once a
    run starts) the :class:`~repro.core.oracle.VolumeOracle`.  Policies
    receive it via ``SchedulingPolicy.bind`` and obtain their shadow oracles
    from the factories below so all shadow traffic lands in one counter set.
    """

    def __init__(
        self,
        power: PowerFunction,
        *,
        counters: ShadowCounters | None = None,
        recorder: TraceRecorder | None = None,
        backend: str | KernelBackend | None = None,
    ) -> None:
        self.power = power
        self.counters = counters if counters is not None else ShadowCounters()
        #: the run's metrics substrate — counters are a view over it.
        self.metrics = self.counters.registry
        self.recorder: TraceRecorder = recorder if recorder is not None else NULL_RECORDER
        #: the kernel backend every shadow oracle built from this context
        #: runs on (``None`` defers to the ``REPRO_BACKEND`` environment
        #: variable, then the numpy default).
        self.backend: KernelBackend = resolve_backend(backend)
        if self.recorder.enabled:
            # One structured header per run: which backend was selected, its
            # vector width and whether the compiled path was available.
            self.recorder.emit(
                "backend_selected", 0.0, "context", **backend_payload(self.backend)
            )
        self.oracle = None  # set by the engine at run start
        #: fault-injection hooks, wired by :mod:`repro.faults`.  All default
        #: to inert (``None``) so an unfaulted run pays one attribute read.
        #: ``oracle_factory`` lets the engine build a (possibly faulty)
        #: oracle; ``volume_filter`` perturbs volumes revealed to analytic
        #: NC simulators; ``step_interceptor`` corrupts the engine's
        #: per-step processed volume.
        self.oracle_factory: Callable[[Any], Any] | None = None
        self.volume_filter: Callable[[int, float], float] | None = None
        self.step_interceptor: Callable[[float, int, float], float] | None = None

    def reveal_volume(self, job_id: int, volume: float) -> float:
        """Route a completed job's volume reveal through the fault filter.

        Identity when no :attr:`volume_filter` is installed — the analytic
        simulators call this at every completion, so the no-fault path must
        return ``volume`` unchanged (same float object, bit-identical)."""
        f = self.volume_filter
        return volume if f is None else f(job_id, volume)

    # -- checkpoint / restore (supervised runtime) ---------------------------

    def checkpoint(self, label: str = "", sim_time: float = 0.0) -> ContextCheckpoint:
        """Snapshot the context's metrics substrate (counters included,
        since :class:`ShadowCounters` is a view over it).  Deliberately does
        not bump any counter: taking a checkpoint must leave the run's
        observable state untouched."""
        return ContextCheckpoint(
            label=label,
            sim_time=float(sim_time),
            metrics=tuple(self.metrics.values.items()),
        )

    def restore(self, ckpt: ContextCheckpoint) -> None:
        """Restore a :meth:`checkpoint` snapshot in place (the counters view
        stays coherent because the registry dict is mutated, not replaced)."""
        self.metrics.values.clear()
        self.metrics.values.update(dict(ckpt.metrics))
        self.oracle = None

    def emit(self, kind: str, sim_time: float, component: str, **payload: Any) -> None:
        """Guarded convenience emit — a no-op when tracing is off.

        Hot loops should still hoist ``context.recorder`` themselves; this is
        for one-shot emissions (run headers, phase markers)."""
        rec = self.recorder
        if rec.enabled:
            rec.emit(kind, sim_time, component, **payload)

    def _shadow_params(self, power: PowerFunction | None = None) -> tuple[float, float | None]:
        power = self.power if power is None else power
        alpha = getattr(power, "alpha", None)
        if alpha is None:
            raise TypeError(
                f"analytic shadow oracles require a PowerLaw, got {power!r}"
            )
        return alpha, getattr(power, "s_max", None)

    def shadow(
        self,
        *,
        power: PowerFunction | None = None,
        record: Callable[[str, float, float, int, float], None] | None = None,
        component: str = "shadow",
    ) -> ClairvoyantShadow:
        """A fresh :class:`ClairvoyantShadow` wired to this context's counters
        and recorder."""
        alpha, s_max = self._shadow_params(power)
        return ClairvoyantShadow(
            alpha,
            s_max=s_max,
            counters=self.counters,
            record=record,
            recorder=self.recorder,
            component=component,
            backend=self.backend,
        )

    def prefix_oracle(
        self, *, power: PowerFunction | None = None, component: str = "shadow"
    ) -> PrefixWeightOracle:
        """A fresh :class:`PrefixWeightOracle` wired to this context's counters
        and recorder."""
        alpha, s_max = self._shadow_params(power)
        return PrefixWeightOracle(
            alpha,
            s_max=s_max,
            counters=self.counters,
            recorder=self.recorder,
            component=component,
            backend=self.backend,
        )
