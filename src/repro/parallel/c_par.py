"""Algorithm C-PAR — the clairvoyant parallel baseline (§6, after [12]).

Immediate dispatch: each arriving job is assigned, at its release instant, to
the machine whose assignment *minimises the increase in the fractional
objective*.  Lemma 19 shows this is exactly the machine with the **least
remaining fractional weight** at the release (energy-to-finish is a convex
increasing function of remaining weight, and flow equals energy for Algorithm
C).  Ties are broken by a fixed total order — machine index — matching the
assumption used by Lemma 20.  Each machine then runs Algorithm C on its own
jobs.  Theorem 18 ([12]): O(alpha)-competitive for the fractional objective.

The dispatch keeps one incremental Algorithm C shadow per machine (a
:class:`~repro.core.shadow.PrefixWeightOracle` over the jobs dispatched to it
so far).  Lemma 19 needs only each machine's remaining weight at the release,
and releases arrive in nondecreasing order, so every shadow only ever moves
forward: each arrival costs the events since the previous one instead of a
from-scratch re-simulation of every machine.
"""

from __future__ import annotations

from ..core.errors import InvalidInstanceError
from ..core.job import Instance
from ..core.power import PowerLaw
from ..core.shadow import PrefixWeightOracle
from ..algorithms.clairvoyant import simulate_clairvoyant
from .cluster import ClusterRun

__all__ = ["simulate_c_par"]


def simulate_c_par(instance: Instance, power: PowerLaw, machines: int) -> ClusterRun:
    """Run C-PAR: greedy least-remaining-weight immediate dispatch + per-machine
    Algorithm C."""
    if machines < 1:
        raise InvalidInstanceError(f"machines must be >= 1, got {machines}")
    assignments: dict[int, list[int]] = {i: [] for i in range(machines)}
    # Uncapped on purpose: the per-machine Algorithm C runs below ignore any
    # ``s_max`` a PowerLaw subclass carries, so the dispatch must too.
    oracles = [PrefixWeightOracle(power.alpha) for _ in range(machines)]
    for job in instance:  # release order; dispatch is immediate
        weights = [
            (oracles[i].weight_at(job.release) if assignments[i] else 0.0, i)
            for i in range(machines)
        ]
        _, chosen = min(weights)  # least weight, ties by machine index
        assignments[chosen].append(job.job_id)
        oracles[chosen].add_job(job.job_id, job.release, job.density, job.volume)
    schedules = {}
    for i in range(machines):
        if assignments[i]:
            sub = instance.subset(assignments[i])
            assert sub is not None
            schedules[i] = simulate_clairvoyant(sub, power).schedule
    return ClusterRun(
        instance=instance,
        power=power,
        machines=machines,
        assignments=assignments,
        schedules=schedules,
    )
