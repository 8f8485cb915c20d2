"""Differential suite for the array core (:mod:`repro.core.arraykernels`).

Three layers of agreement are pinned here:

* **Per-kernel** — every vectorized kernel against its scalar twin on a
  boundary-heavy grid (``w -> 0``, ``rho -> 0``, ``alpha`` in {2, 2.5, 3}).
  The elementary kernels are pure float expressions shared with the scalar
  forms and must agree to a few ulp; the flow integrals regroup terms and
  get the documented 1e-12 band.
* **Whole-run** — the fast shadow event loop against the legacy scalar loop
  on random instances (completion sequence identical, times within 1e-12),
  and the golden corpus replayed under both backends at the corpus's 1e-9
  acceptance bar.
* **Registry** — backend resolution, the ``REPRO_BACKEND`` flag, and the
  rejection of unknown names.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import arraykernels as ak
from repro.core import kernels as k
from repro.core.arraykernels import (
    BACKEND_ENV_VAR,
    ArrayPopulation,
    available_backends,
    backend_payload,
    get_backend,
    resolve_backend,
)
from repro.core.errors import KernelDomainError
from repro.core.job import Instance, Job
from repro.core.shadow import ClairvoyantShadow

ALPHAS = (2.0, 2.5, 3.0)
#: boundary-heavy 1-D probe values for weight-like and density arguments.
WEIGHTS = (0.0, 1e-300, 1e-15, 1e-9, 0.5, 1.0, 7.25, 1e6)
RHOS = (1e-12, 1e-6, 0.25, 1.0, 42.0)
TAUS = (0.0, 1e-12, 0.1, 3.0, 1e4)
#: shared-float-expression kernels: agreement to a few ulp.
TIGHT = 5e-15
#: regrouped algebra (flow integrals): the documented band.
BAND = 1e-12
#: conditioned probe grid for the flow integrals: the 1e-12 band is claimed
#: where the segment changes the weight by at least ~1% (see
#: :func:`_flow_conditioned`); below that *both* formulations cancel
#: catastrophically and neither result carries the claimed digits.
FLOW_WEIGHTS = (0.0, 1e-15, 1e-9, 0.5, 1.0, 7.25, 1e3)
FLOW_RHOS = (1e-6, 0.25, 1.0, 42.0)
FLOW_TAUS = (0.0, 1e-12, 0.1, 3.0, 100.0)


def _flow_conditioned(w: float, rho: float, tau: float, alpha: float) -> bool:
    """Whether the flow integral over ``tau`` is well-conditioned: the
    relative change of ``w**beta`` must clear ~1% (tau == 0 is exact by
    the kernels' zero-length guard)."""
    if tau == 0.0 or w == 0.0:
        return True
    beta = 1.0 - 1.0 / alpha
    return rho * beta * tau >= 1e-2 * w**beta


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _grid2():
    return [(w, rho) for w in WEIGHTS for rho in RHOS]


def _grid_pair():
    return [(hi, lo) for hi in WEIGHTS for lo in WEIGHTS if lo <= hi]


class TestPerKernelDifferential:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_speed_at(self, alpha):
        arr = ak.speed_at(np.array(WEIGHTS), alpha)
        for i, w in enumerate(WEIGHTS):
            assert _rel(float(arr[i]), k.speed_at(w, alpha)) <= TIGHT

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_decay_weight_after(self, alpha):
        for w, rho in _grid2():
            for tau in TAUS:
                got = float(ak.decay_weight_after(w, rho, tau, alpha))
                want = k.decay_weight_after(w, rho, tau, alpha)
                assert _rel(got, want) <= TIGHT, (w, rho, tau)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_decay_time_between(self, alpha):
        for w0, w1 in _grid_pair():
            for rho in RHOS:
                got = float(ak.decay_time_between(w0, w1, rho, alpha))
                want = k.decay_time_between(w0, w1, rho, alpha)
                assert _rel(got, want) <= TIGHT, (w0, w1, rho)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_decay_time_to_zero(self, alpha):
        for w, rho in _grid2():
            got = float(ak.decay_time_to_zero(w, rho, alpha))
            want = k.decay_time_to_zero(w, rho, alpha)
            assert _rel(got, want) <= TIGHT, (w, rho)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_decay_energy_between(self, alpha):
        for w0, w1 in _grid_pair():
            for rho in RHOS:
                got = float(ak.decay_energy_between(w0, w1, rho, alpha))
                want = k.decay_energy_between(w0, w1, rho, alpha)
                assert _rel(got, want) <= TIGHT, (w0, w1, rho)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_decay_flow_integral(self, alpha):
        for w in FLOW_WEIGHTS:
            for rho in FLOW_RHOS:
                for tau in FLOW_TAUS:
                    if not _flow_conditioned(w, rho, tau, alpha):
                        continue
                    got = float(ak.decay_flow_integral(w, rho, tau, alpha))
                    want = k.decay_flow_integral(w, rho, tau, alpha)
                    assert _rel(got, want) <= BAND, (w, rho, tau)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_growth_weight_after(self, alpha):
        for u, rho in _grid2():
            for tau in TAUS:
                got = float(ak.growth_weight_after(u, rho, tau, alpha))
                want = k.growth_weight_after(u, rho, tau, alpha)
                assert _rel(got, want) <= TIGHT, (u, rho, tau)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_growth_time_between(self, alpha):
        for u1, u0 in _grid_pair():
            for rho in RHOS:
                got = float(ak.growth_time_between(u0, u1, rho, alpha))
                want = k.growth_time_between(u0, u1, rho, alpha)
                assert _rel(got, want) <= TIGHT, (u0, u1, rho)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_growth_energy_between(self, alpha):
        for u1, u0 in _grid_pair():
            for rho in RHOS:
                got = float(ak.growth_energy_between(u0, u1, rho, alpha))
                want = k.growth_energy_between(u0, u1, rho, alpha)
                assert _rel(got, want) <= TIGHT, (u0, u1, rho)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_growth_flow_integral(self, alpha):
        for u in FLOW_WEIGHTS:
            for rho in FLOW_RHOS:
                for tau in FLOW_TAUS:
                    if not _flow_conditioned(u, rho, tau, alpha):
                        continue
                    got = float(ak.growth_flow_integral(u, rho, tau, alpha))
                    want = k.growth_flow_integral(u, rho, tau, alpha)
                    assert _rel(got, want) <= BAND, (u, rho, tau)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_beta_of(self, alpha):
        assert float(ak.beta_of(alpha)) == k.beta_of(alpha)

    def test_broadcasting_matches_elementwise(self):
        w = np.array(WEIGHTS)[:, None]
        rho = np.array(RHOS)[None, :]
        out = ak.decay_weight_after(w, rho, 0.25, 3.0)
        assert out.shape == (len(WEIGHTS), len(RHOS))
        # numpy may route large arrays through SIMD transcendental loops
        # whose last ulp differs from the scalar libm path, so broadcast
        # and 0-d evaluation agree to a few ulp, not bit-for-bit.
        for i, wi in enumerate(WEIGHTS):
            for j, rj in enumerate(RHOS):
                single = float(np.asarray(ak.decay_weight_after(wi, rj, 0.25, 3.0)))
                assert _rel(float(out[i, j]), single) <= TIGHT

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_backends_agree_on_grid(self, backend_name):
        """Every registered backend within the band of the scalar twins."""
        backend = get_backend(backend_name)
        fn = backend.kernel("decay_weight_after")
        for w, rho in _grid2():
            got = float(np.asarray(fn(w, rho, 0.5, 3.0)))
            want = k.decay_weight_after(w, rho, 0.5, 3.0)
            assert _rel(got, want) <= BAND, (backend_name, w, rho)


class TestDomainErrors:
    def test_scalar_kernel_context(self):
        with pytest.raises(KernelDomainError) as exc:
            k.decay_weight_after(-1.0, 2.0, 0.5, 3.0)
        assert exc.value.context == {"x": -1.0, "rho": 2.0, "t": 0.5}

    def test_scalar_kernel_is_value_error(self):
        with pytest.raises(ValueError):
            k.decay_time_to_zero(1.0, -2.0, 3.0)

    def test_array_kernel_context_first_offender(self):
        x = np.array([1.0, -3.0, -7.0])
        with pytest.raises(KernelDomainError) as exc:
            ak.decay_weight_after(x, 1.0, 0.0, 3.0)
        assert exc.value.context["x"] == -3.0
        assert exc.value.context["rho"] == 1.0

    def test_array_kernel_nan_rejected(self):
        with pytest.raises(KernelDomainError):
            ak.growth_weight_after(np.array([0.0, math.nan]), 1.0, 1.0, 3.0)

    def test_bad_alpha_rejected(self):
        with pytest.raises(KernelDomainError):
            ak.speed_at(1.0, 1.0)
        with pytest.raises(KernelDomainError):
            k.speed_at(1.0, 0.5)

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_every_backend_checks_domain(self, backend_name):
        fn = get_backend(backend_name).kernel("decay_time_to_zero")
        with pytest.raises(KernelDomainError):
            fn(-1.0, 1.0, 3.0)


def _random_rows(n: int, seed: int, *, front: bool) -> list[tuple[int, float, float, float]]:
    rng = np.random.default_rng(seed)
    vols = rng.exponential(1.0, n) + 1e-3
    dens = 10.0 ** rng.uniform(-1.0, 1.0, n)
    rels = np.zeros(n) if front else np.sort(rng.uniform(0.0, 5.0, n))
    return [(i, float(rels[i]), float(dens[i]), float(vols[i])) for i in range(n)]


def _full_run(backend: str, rows, alpha: float = 3.0):
    """Completion events ``(t, job)`` plus final clock under one backend."""
    completions: list[tuple[float, int]] = []
    segments: list[tuple[float, float, int]] = []

    def record(kind: str, t0: float, t1: float, jid: int, w0: float) -> None:
        segments.append((t0, t1, jid))

    shadow = ClairvoyantShadow(alpha, record=record, backend=backend)
    for jid, rel, rho, vol in rows:
        shadow.insert_job(jid, rel, rho, vol)
    shadow.advance(math.inf)
    shadow.materialize()
    for t0, t1, jid in segments:
        completions.append((t1, jid))
    return shadow.clock, segments


class TestShadowFullRunDifferential:
    @pytest.mark.parametrize("front", [True, False])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_fast_matches_scalar(self, front, seed):
        rows = _random_rows(200, seed, front=front)
        clock_f, seg_f = _full_run("numpy", rows)
        clock_s, seg_s = _full_run("scalar", rows)
        assert _rel(clock_f, clock_s) <= BAND
        assert len(seg_f) == len(seg_s)
        for (a0, a1, aj), (b0, b1, bj) in zip(seg_f, seg_s):
            assert aj == bj, "event sequence diverged between backends"
            assert _rel(a0, b0) <= BAND and _rel(a1, b1) <= BAND

    def test_single_job_tail_is_bit_identical(self):
        """The busy-period tail (one job left) re-derives the accumulator
        exactly, so final completion times match the scalar loop bit for
        bit — finite-difference consumers rely on this."""
        rows = [(1, 0.0, 1.0, 1.0), (2, 0.2, 1.0, 2.0 + 1e-7)]
        clock_f, _ = _full_run("numpy", rows)
        clock_s, _ = _full_run("scalar", rows)
        assert clock_f == clock_s


class TestGoldenCorpusUnderBackends:
    """The golden corpus must hold under *both* shipped backends.

    The default-backend run is ``tests/test_golden_differential.py``; this
    re-runs a corpus entry per family with ``REPRO_BACKEND=scalar`` to prove
    the fallback path clears the same 1e-9 bar.
    """

    @pytest.fixture()
    def corpus(self):
        import json
        import pathlib

        return json.loads(
            (pathlib.Path(__file__).parent / "data" / "golden_corpus.json").read_text()
        )

    @pytest.mark.parametrize("prefix", ["nc_uniform/", "nc_general/"])
    def test_scalar_backend_matches_golden(self, corpus, prefix, monkeypatch):
        from repro.algorithms.nc_general import simulate_nc_general
        from repro.algorithms.nc_uniform import simulate_nc_uniform
        from repro.core.power import PowerLaw

        monkeypatch.setenv(BACKEND_ENV_VAR, "scalar")
        key = sorted(x for x in corpus if x.startswith(prefix))[0]
        entry = corpus[key]
        inst = Instance(
            [Job(int(j), r, v, d) for j, r, v, d in entry["instance"]]
        )
        power = PowerLaw(entry["alpha"])
        if prefix == "nc_uniform/":
            run = simulate_nc_uniform(inst, power)
        else:
            run = simulate_nc_general(
                inst,
                power,
                eta=entry["eta"],
                beta=entry["beta"],
                epsilon=entry["epsilon"],
                max_step=entry["max_step"],
            )
        for jid_str, completion in entry["completions"].items():
            got = run.completion_time(int(jid_str))
            assert _rel(got, completion) <= 1e-9, f"job {jid_str} under scalar backend"


class TestArrayPopulation:
    def test_append_grow_and_views(self):
        pop = ArrayPopulation(capacity=2)
        for i in range(10):
            pop.append(i, 0.5 * i, 1.0 + i, 0.0)
        assert len(pop) == 10
        assert pop.slot_of(7) == 7
        assert pop.ids().tolist() == list(range(10))
        assert pop.releases()[3] == 1.5
        assert pop.densities()[9] == 10.0

    def test_from_jobs_and_weights(self):
        jobs = [Job(1, 0.0, 2.0, 3.0), Job(2, 1.0, 4.0, 0.5)]
        pop = ArrayPopulation.from_jobs(jobs)
        np.testing.assert_allclose(pop.weights(), [6.0, 2.0])
        assert pop.total_weight() == pytest.approx(8.0, rel=1e-15)

    def test_volume_updates_flow_into_weights(self):
        jobs = [Job(1, 0.0, 2.0, 3.0)]
        pop = ArrayPopulation.from_jobs(jobs)
        pop.volume[pop.slot_of(1)] = 1.5
        # weights() reads remaining volume = true - processed mirrors at the
        # consumer; the population itself just exposes the arrays.
        assert float(pop.volume[0]) == 1.5

    def test_hdf_order_matches_scalar_key(self):
        jobs = [Job(1, 0.0, 1.0, 2.0), Job(2, 0.0, 1.0, 5.0), Job(3, 1.0, 1.0, 5.0)]
        pop = ArrayPopulation.from_jobs(jobs)
        order = [int(pop.ids()[i]) for i in pop.hdf_order()]
        assert order == [2, 3, 1]  # highest density first, FIFO ties


class TestBackendRegistry:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert get_backend().name == "numpy"

    def test_env_flag_selects_scalar(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "scalar")
        backend = get_backend()
        assert backend.name == "scalar"
        assert backend.vector_width == 1

    def test_unknown_name_raises(self):
        for name in ("cuda", "numba"):
            with pytest.raises(ValueError, match="choose from scalar, numpy"):
                get_backend(name)

    def test_resolve_backend_passthrough(self):
        b = get_backend("scalar")
        assert resolve_backend(b) is b
        assert resolve_backend("numpy").name == "numpy"

    def test_payload_shape(self):
        payload = backend_payload(get_backend("numpy"))
        assert payload["backend"] == "numpy"
        assert set(payload) == {"backend", "vector_width"}

    def test_shadow_accepts_backend_objects_and_names(self):
        for spec in ("scalar", "numpy", get_backend("numpy")):
            shadow = ClairvoyantShadow(3.0, backend=spec)
            shadow.insert_job(1, 0.0, 1.0, 1.0)
            shadow.advance(math.inf)
            assert shadow.clock == pytest.approx(1.5, rel=1e-12)
