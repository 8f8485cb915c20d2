"""Seeded inputs of every workload.

All inputs are a pure function of ``--seed``: instance pools come from
:func:`repro.workloads.random_instances.random_instance` (uniform densities,
alpha = 3, volumes cycling through the exponential, pareto and bimodal
families — heavy tails are where non-clairvoyance is stressed), and the
service probes replay a fixed request plan.  The program under test only
ever sees these generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any

ALPHA = 3.0
FAMILIES = ("exponential", "pareto", "bimodal")

WORKLOADS = ("solve_score", "cluster_dispatch")

#: instance pools — one per workload, and the trace probe's — with pool
#: size, jobs per instance, release rate and machines
POOLS = {
    "solve_score": {"pool": 30, "n": 500, "rate": 1.0},
    "cluster_dispatch": {"pool": 30, "n": 128, "rate": 4.0, "machines": 4},
    "trace": {"pool": 10, "n": 200, "rate": 1.0},
}

#: the service probes' request plan: concurrent filling sessions, jobs per
#: session and in the reference session, largest arrival batch, one heavy
#: read every ``heavy_every`` requests, and the share of the filling
#: sessions' requests that are ``/speeds`` reads
SERVE = {
    "slots": 2,
    "jobs": 200,
    "reference_jobs": 120,
    "max_batch": 4,
    "heavy_every": 30,
    "speeds_share": 0.42,
}
HEAVY_ROUTES = ("metrics", "schedule", "report")


def derived_seed(seed: int, *salt: int | str) -> int:
    """A 63-bit seed derived from ``seed`` and a salt, stable across runs
    (no use of Python's randomized ``hash``)."""
    h = hashlib.sha256(json.dumps([seed, *salt]).encode()).digest()
    return int.from_bytes(h[:8], "big") >> 1


def instance(n: int, seed: int, family: str, rate: float = 1.0):
    from repro.workloads.random_instances import random_instance

    return random_instance(n, seed, rate=rate, volume=family, density="unit")


def instance_pool(workload: str, seed: int) -> list:
    """The instances of a workload (or probe) in ``POOLS``; ops cycle
    through them in order."""
    cfg = POOLS[workload]
    return [
        instance(cfg["n"], derived_seed(seed, workload, k), FAMILIES[k % 3], cfg["rate"])
        for k in range(cfg["pool"])
    ]


def ladder_instance(kind: str, n: int, seed: int, rate: float = 1.0):
    """One instance of a slope ladder (exponential volumes, fixed family so
    only ``n`` changes along the ladder)."""
    return instance(n, derived_seed(seed, "ladder", kind, n), "exponential", rate)


def job_rows(inst) -> list[list[Any]]:
    return [[j.job_id, j.release, j.volume, j.density] for j in inst]


@dataclass
class Request:
    """One planned service request."""

    kind: str  # create | jobs | speeds | metrics | schedule | report | close
    session: str
    body: dict | None = None
    #: the session's last /metrics: checked against a direct evaluate
    final: bool = False


@dataclass
class PlannedSession:
    session_id: str
    algorithm: str
    jobs: list[list[Any]] = field(default_factory=list)


REFERENCE = "bench-ref"


def _batches(rows: list[list[Any]], rng: random.Random) -> list[list[list[Any]]]:
    out, cursor = [], 0
    while cursor < len(rows):
        k = rng.randint(1, SERVE["max_batch"])
        out.append(rows[cursor : cursor + k])
        cursor += k
    return out


def _jobs_request(sid: str, rows: list[list[Any]]) -> Request:
    body = {"jobs": [{"id": r[0], "release": r[1], "volume": r[2], "density": r[3]} for r in rows]}
    return Request("jobs", sid, body)


def serve_plan(seed: int, n_requests: int) -> tuple[list[Request], dict[str, PlannedSession]]:
    """A deterministic request plan of at least ``n_requests`` requests.

    It opens with a reference session of ``reference_jobs`` jobs, streamed
    in full; the heavy reads — ``/metrics``, ``/schedule`` and ``/report``
    in turn, every ``heavy_every``-th request of the plan after that — all
    read it, so each heavy read of a kind costs the same and the tails do
    not hang on which fill level a read happened to meet.  Then ``slots``
    sessions fill round-robin, alternating algorithms C and NC; each of
    their requests is an arrival batch of 1..max_batch jobs or a
    ``/speeds`` read.  A full session gets a final ``/metrics`` and is
    deleted; its slot opens the next session.
    """
    cfg = SERVE
    slots = cfg["slots"]
    rng = random.Random(derived_seed(seed, "serve"))
    ref = PlannedSession(REFERENCE, "NC", job_rows(instance(cfg["reference_jobs"], derived_seed(seed, "reference"), "pareto")))
    sessions: dict[str, PlannedSession] = {REFERENCE: ref}
    plan = [Request("create", REFERENCE, {"session_id": REFERENCE, "algorithm": ref.algorithm, "alpha": ALPHA})]
    plan += [_jobs_request(REFERENCE, rows) for rows in _batches(ref.jobs, rng)]
    opened = len(plan)
    state: list[dict[str, Any]] = [{} for _ in range(slots)]
    heavy = 0
    while len(plan) < n_requests:
        if (len(plan) - opened) % cfg["heavy_every"] == cfg["heavy_every"] - 1:
            plan.append(Request(HEAVY_ROUTES[heavy % 3], REFERENCE))
            heavy += 1
            continue
        st = state[len(plan) % slots]
        if not st:
            made = len(sessions) - 1
            sid = f"bench-{made:05d}"
            algorithm = ("C", "NC")[made % 2]
            inst = instance(cfg["jobs"], derived_seed(seed, "session", made), FAMILIES[made % 3])
            sessions[sid] = PlannedSession(sid, algorithm, job_rows(inst))
            st.update(sid=sid, batches=_batches(sessions[sid].jobs, rng), finalized=False)
            plan.append(Request("create", sid, {"session_id": sid, "algorithm": algorithm, "alpha": ALPHA}))
        elif st["batches"]:
            # A session's first request streams jobs: reads of an empty
            # session are 409 by design.
            if st.get("started") and rng.random() < cfg["speeds_share"]:
                plan.append(Request("speeds", st["sid"]))
            else:
                st["started"] = True
                plan.append(_jobs_request(st["sid"], st["batches"].pop(0)))
        elif not st["finalized"]:
            st["finalized"] = True
            plan.append(Request("metrics", st["sid"], final=True))
        else:
            plan.append(Request("close", st["sid"]))
            st.clear()
    return plan, sessions


def digest(workload: str, seed: int) -> str:
    """SHA-256 of the workload's generated inputs, floats in hex: the same
    seed must give byte-identical inputs."""
    h = hashlib.sha256()
    for inst in instance_pool(workload, seed):
        for j in inst:
            h.update(f"{j.job_id}:{j.release.hex()}:{j.volume.hex()}:{j.density.hex()};".encode())
        h.update(b"|")
    return h.hexdigest()
