"""Probes of the service layers for the per-layer table.

The same seeded request sequence goes through the direct ``Session`` calls,
through ``asgi_call`` into ``create_app()``, and over a socket to a real
``repro serve --journal-dir`` subprocess, so each layer's share can be read
off by difference.  Every status must be the expected one, and each
session's final ``/metrics`` over the socket must match a direct
``evaluate`` of the same arrivals.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from harness import WORK, BenchError, Spans, child_env
from inputs import ALPHA, REFERENCE, Request, serve_plan

EXPECTED = {"create": 201, "jobs": 202, "speeds": 200, "metrics": 200, "schedule": 200, "report": 200, "close": 200}
#: request classes of the per-layer table (session create/close excluded)
CLASSES = {"jobs": "ack", "speeds": "speeds", "metrics": "metrics", "schedule": "schedule", "report": "report"}
REL_TOL = 1e-9


def route(req: Request) -> tuple[str, str]:
    sid = req.session
    return {
        "create": ("POST", "/sessions"),
        "jobs": ("POST", f"/sessions/{sid}/jobs"),
        "close": ("DELETE", f"/sessions/{sid}"),
    }.get(req.kind, ("GET", f"/sessions/{sid}/{req.kind}"))


# -- server process -----------------------------------------------------------


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _healthy(port: int) -> bool:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=1.0)
    try:
        conn.request("GET", "/health")
        return conn.getresponse().status == 200
    except OSError:
        return False
    finally:
        conn.close()


@dataclass
class Server:
    proc: subprocess.Popen
    port: int

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def spawn_server(journal_dir: str, timeout: float = 60.0) -> Server:
    """Start ``repro serve`` and wait until ``/health`` answers 200."""
    port = free_port()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1", "--port", str(port), "--journal-dir", journal_dir],
        env=child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    server = Server(proc, port)
    deadline = time.perf_counter() + timeout
    try:
        while not _healthy(port):
            if proc.poll() is not None:
                raise BenchError(f"repro serve exited with {proc.returncode} before answering /health")
            if time.perf_counter() > deadline:
                raise BenchError(f"repro serve not healthy within {timeout:.0f}s")
            time.sleep(0.01)
    except BaseException:
        server.stop()
        raise
    return server


async def fetch(port: int, method: str, path: str, body: dict | None = None) -> tuple[int, bytes]:
    """One HTTP/1.1 exchange on a fresh connection (the server closes it)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        payload = b"" if body is None else json.dumps(body).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\nhost: 127.0.0.1\r\ncontent-type: application/json\r\n"
            f"content-length: {len(payload)}\r\nconnection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()
        data = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    head_end = data.find(b"\r\n\r\n")
    if not data.startswith(b"HTTP/1.1 ") or head_end < 0:
        raise BenchError(f"malformed response to {method} {path}: {data[:40]!r}")
    return int(data[9:12]), data[head_end + 4 :]


# -- correctness: a session's /metrics against a direct evaluate ---------------


def check_metrics(algorithm: str, rows: list[list], body: bytes) -> str | None:
    """The session's reported costs must equal the library's own run of the
    same algorithm over the same arrivals, scored by ``evaluate``."""
    from repro.algorithms import simulate_clairvoyant, simulate_nc_uniform
    from repro.core.job import Instance, Job
    from repro.core.metrics import evaluate
    from repro.core.power import PowerLaw

    power = PowerLaw(ALPHA)
    inst = Instance(Job(int(j), r, v, d) for j, r, v, d in rows)
    simulate = simulate_clairvoyant if algorithm == "C" else simulate_nc_uniform
    want = evaluate(simulate(inst, power).schedule, inst, power)
    got = json.loads(body)
    if got["n_jobs"] != len(rows):
        return f"/metrics saw {got['n_jobs']} jobs, {len(rows)} were acknowledged"
    for key in ("energy", "fractional_flow", "integral_flow"):
        a, b = got["report"][key], getattr(want, key)
        if abs(a - b) > REL_TOL * max(abs(a), abs(b)):
            return f"/metrics {key}={a!r}, direct evaluate gives {b!r}"
    return None


# -- traced run: service layer probes -----------------------------------------


def probe_plan(seed: int) -> tuple[list[Request], dict]:
    """The reference session with its heavy reads, and two sessions (one C,
    one NC) from creation to deletion."""
    plan, sessions = serve_plan(seed, 2000)
    keep = {REFERENCE, "bench-00000", "bench-00001"}
    return [r for r in plan if r.session in keep], sessions


async def _direct_pass(plan: list[Request], journal_dir: str) -> list[float]:
    """Each request as a direct call into ``SessionManager``/``Session``."""
    from repro.core.job import Job
    from repro.service.models import SessionCreateRequest
    from repro.service.sessions import SessionManager

    manager = SessionManager(journal_dir=journal_dir)
    times = []
    for req in plan:
        t0 = time.perf_counter()
        if req.kind == "create":
            await manager.create_session(SessionCreateRequest(**req.body))
        elif req.kind == "close":
            await manager.delete_session(req.session)
        else:
            session = manager.get_session(req.session)
            if req.kind == "jobs":
                await session.submit([Job(j["id"], j["release"], j["volume"], j["density"]) for j in req.body["jobs"]])
            elif req.kind == "report":
                await session.verified_report()
            else:
                await getattr(session, req.kind)()
        times.append(time.perf_counter() - t0)
    await manager.shutdown()
    return times


async def _asgi_pass(plan: list[Request], journal_dir: str) -> list[float]:
    from repro.service import create_app
    from repro.service.asgi import asgi_call
    from repro.service.sessions import SessionManager

    app = create_app(SessionManager(journal_dir=journal_dir))
    await app.startup()
    times = []
    try:
        for req in plan:
            method, path = route(req)
            t0 = time.perf_counter()
            resp = await asgi_call(app, method, path, json_body=req.body)
            times.append(time.perf_counter() - t0)
            if resp.status_code != EXPECTED[req.kind]:
                raise BenchError(f"asgi {method} {path}: status {resp.status_code}")
    finally:
        await app.shutdown()
    return times


async def _socket_pass(plan: list[Request], sessions: dict, port: int) -> list[float]:
    times = []
    acked: dict[str, list[list]] = {}
    for req in plan:
        method, path = route(req)
        t0 = time.perf_counter()
        status, body = await fetch(port, method, path, req.body)
        times.append(time.perf_counter() - t0)
        if status != EXPECTED[req.kind]:
            raise BenchError(f"socket {method} {path}: status {status}")
        if req.kind == "jobs":
            acked.setdefault(req.session, []).extend([j["id"], j["release"], j["volume"], j["density"]] for j in req.body["jobs"])
        elif req.final:
            problem = check_metrics(sessions[req.session].algorithm, acked[req.session], body)
            if problem is not None:
                raise BenchError(f"session {req.session}: {problem}")
    return times


def _dir_bytes(path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def probe_service(seed: int) -> dict[str, float]:
    import repro.service.journal as journal_module

    plan, sessions = probe_plan(seed)
    spans = Spans()
    inner = journal_module.SessionJournal.append

    def timed_append(self, record):
        return spans.call("append", inner, self, record)

    direct_dir = WORK / "probe-direct"
    journal_module.SessionJournal.append = timed_append
    try:
        direct = asyncio.run(_direct_pass(plan, str(direct_dir)))
    finally:
        journal_module.SessionJournal.append = inner
    via_asgi = asyncio.run(_asgi_pass(plan, str(WORK / "probe-asgi")))
    server = spawn_server(str(WORK / "probe-socket"))
    try:
        via_socket = asyncio.run(_socket_pass(plan, sessions, server.port))
    finally:
        server.stop()

    out: dict[str, float] = {}
    for kind, cls in CLASSES.items():
        idx = [i for i, r in enumerate(plan) if r.kind == kind]
        name = "submit" if kind == "jobs" else kind
        out[f"sessions.{name}_ms"] = statistics.median(direct[i] for i in idx) * 1e3
        out[f"asgi.dispatch_{cls}_ms"] = statistics.median(via_asgi[i] - direct[i] for i in idx) * 1e3
        out[f"socket.overhead_{cls}_ms"] = statistics.median(via_socket[i] - via_asgi[i] for i in idx) * 1e3
    out["journal.append_ms"] = spans.median_ms("append")
    out["journal.appends"] = len(spans.samples["append"])
    out["journal.bytes"] = _dir_bytes(direct_dir)
    return out
