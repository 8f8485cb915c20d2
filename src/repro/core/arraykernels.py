"""Vectorized struct-of-arrays counterparts of the closed-form kernels.

The scalar kernels in :mod:`repro.core.kernels` evaluate one job at a time;
every function here evaluates a whole *population* in one call: all eleven
closed forms accept numpy arrays (or scalars, broadcast as usual) over
``(w0, rho, tau, alpha)`` and return ``float64`` arrays.  The algebra is
identical — ``beta = 1 - 1/alpha`` linearises both dynamics, see
:mod:`repro.core.kernels` — so the two families agree to float rounding
(``tests/test_arraykernels.py`` pins the agreement per kernel and over full
golden-corpus runs).

Two backends provide the same eleven-callable surface through a small
registry:

* ``"numpy"`` (default) — the module-level functions below; one vectorized
  expression per kernel over the whole population.
* ``"scalar"`` — elementwise loops over the scalar twins; bit-identical to
  :mod:`repro.core.kernels` per element; the reference the numpy backend
  is differentially tested against.

Selection: :func:`get_backend` honors the ``REPRO_BACKEND`` environment
variable (``scalar`` | ``numpy``); consumers that take a
``backend=`` parameter resolve it through :func:`resolve_backend`.

:class:`ArrayPopulation` is the struct-of-arrays job-population state the
shadow layer, the numeric engine and the benchmarks share: contiguous
parallel arrays for id, release, density (+ rounded density class), volume
and machine assignment, with amortized append and O(1) id->slot lookup.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Iterable, cast

import numpy as np
import numpy.typing as npt

from .errors import KernelDomainError
from .job import Job

__all__ = [
    "FloatArray",
    "KernelFn",
    "KernelBackend",
    "ArrayPopulation",
    "DEFAULT_BACKEND",
    "BACKEND_ENV_VAR",
    "available_backends",
    "get_backend",
    "resolve_backend",
    "backend_payload",
    "beta_of",
    "speed_at",
    "decay_weight_after",
    "decay_time_between",
    "decay_time_to_zero",
    "decay_energy_between",
    "decay_flow_integral",
    "growth_weight_after",
    "growth_time_between",
    "growth_energy_between",
    "growth_flow_integral",
]

FloatArray = npt.NDArray[np.float64]
KernelFn = Callable[..., FloatArray]

#: Environment variable consulted when no explicit backend is requested.
BACKEND_ENV_VAR = "REPRO_BACKEND"
#: Backend used when neither a parameter nor the environment names one.
DEFAULT_BACKEND = "numpy"


# ---------------------------------------------------------------------------
# Broadcasting + vectorized domain checks
# ---------------------------------------------------------------------------


def _broadcast(*args: npt.ArrayLike) -> tuple[FloatArray, ...]:
    arrays = [np.asarray(a, dtype=np.float64) for a in args]
    return tuple(cast("list[FloatArray]", np.broadcast_arrays(*arrays)))


def _context_at(
    i: int, x: FloatArray, rho: FloatArray, t: FloatArray | None
) -> dict[str, float | None]:
    return {
        "x": float(x.flat[i]),
        "rho": float(rho.flat[i]),
        "t": None if t is None else float(t.flat[i]),
    }


def _check_arrays(x: FloatArray, rho: FloatArray, t: FloatArray | None = None) -> None:
    """Vectorized twin of ``kernels._check``: one pass over the population,
    reporting the first offending element with its ``{x, rho, t}`` context."""
    bad = (x < 0.0) | ~np.isfinite(x)
    if bad.any():
        i = int(np.flatnonzero(bad.ravel())[0])
        raise KernelDomainError(
            f"weight must be finite and non-negative, got {x.flat[i]}",
            **_context_at(i, x, rho, t),
        )
    bad = (rho <= 0.0) | ~np.isfinite(rho)
    if bad.any():
        i = int(np.flatnonzero(bad.ravel())[0])
        raise KernelDomainError(
            f"density must be finite and positive, got {rho.flat[i]}",
            **_context_at(i, x, rho, t),
        )
    if t is not None:
        bad = (t < 0.0) | ~np.isfinite(t)
        if bad.any():
            i = int(np.flatnonzero(bad.ravel())[0])
            raise KernelDomainError(
                f"time must be finite and non-negative, got {t.flat[i]}",
                **_context_at(i, x, rho, t),
            )


def _check_alpha(alpha: FloatArray) -> None:
    bad = ~(alpha > 1.0)
    if bad.any():
        i = int(np.flatnonzero(bad.ravel())[0])
        raise KernelDomainError(
            f"alpha must exceed 1, got {alpha.flat[i]}", alpha=float(alpha.flat[i])
        )


def _check_upper(lo: FloatArray, hi: FloatArray, what: str) -> None:
    bad = (lo < 0.0) | (lo > hi * (1.0 + 1e-12))
    if bad.any():
        i = int(np.flatnonzero(bad.ravel())[0])
        raise KernelDomainError(
            f"need 0 <= {what}, got {lo.flat[i]} vs {hi.flat[i]}",
            x=float(hi.flat[i]),
            rho=None,
            t=None,
        )


# ---------------------------------------------------------------------------
# The eleven kernels, numpy-vectorized (reference array implementations)
# ---------------------------------------------------------------------------


def beta_of(alpha: npt.ArrayLike) -> FloatArray:
    """Vectorized ``beta = 1 - 1/alpha``."""
    (a,) = _broadcast(alpha)
    _check_alpha(a)
    return cast(FloatArray, 1.0 - 1.0 / a)


def speed_at(weight: npt.ArrayLike, alpha: npt.ArrayLike) -> FloatArray:
    """Vectorized power-equals-weight speed ``s = weight**(1/alpha)``."""
    w, a = _broadcast(weight, alpha)
    _check_alpha(a)
    bad = w < 0.0
    if bad.any():
        i = int(np.flatnonzero(bad.ravel())[0])
        raise KernelDomainError(
            f"weight must be non-negative, got {w.flat[i]}",
            x=float(w.flat[i]),
            rho=None,
            t=None,
        )
    return cast(FloatArray, w ** (1.0 / a))


def decay_weight_after(
    w0: npt.ArrayLike, rho: npt.ArrayLike, t: npt.ArrayLike, alpha: npt.ArrayLike
) -> FloatArray:
    """Vectorized :func:`repro.core.kernels.decay_weight_after`."""
    w0a, rhoa, ta, aa = _broadcast(w0, rho, t, alpha)
    _check_arrays(w0a, rhoa, ta)
    _check_alpha(aa)
    beta = 1.0 - 1.0 / aa
    base = w0a**beta - rhoa * beta * ta
    return cast(FloatArray, np.maximum(base, 0.0) ** (1.0 / beta))


def decay_time_between(
    w0: npt.ArrayLike, w1: npt.ArrayLike, rho: npt.ArrayLike, alpha: npt.ArrayLike
) -> FloatArray:
    """Vectorized :func:`repro.core.kernels.decay_time_between`."""
    w0a, w1a, rhoa, aa = _broadcast(w0, w1, rho, alpha)
    _check_arrays(w0a, rhoa)
    _check_upper(w1a, w0a, "w1 <= w0")
    _check_alpha(aa)
    beta = 1.0 - 1.0 / aa
    return cast(FloatArray, np.maximum(0.0, (w0a**beta - w1a**beta) / (rhoa * beta)))


def decay_time_to_zero(
    w0: npt.ArrayLike, rho: npt.ArrayLike, alpha: npt.ArrayLike
) -> FloatArray:
    """Vectorized :func:`repro.core.kernels.decay_time_to_zero`."""
    return decay_time_between(w0, 0.0, rho, alpha)


def decay_energy_between(
    w0: npt.ArrayLike, w1: npt.ArrayLike, rho: npt.ArrayLike, alpha: npt.ArrayLike
) -> FloatArray:
    """Vectorized :func:`repro.core.kernels.decay_energy_between`."""
    w0a, w1a, rhoa, aa = _broadcast(w0, w1, rho, alpha)
    _check_arrays(w0a, rhoa)
    _check_upper(w1a, w0a, "w1 <= w0")
    _check_alpha(aa)
    beta = 1.0 - 1.0 / aa
    return cast(
        FloatArray,
        np.maximum(
            0.0, (w0a ** (1.0 + beta) - w1a ** (1.0 + beta)) / (rhoa * (1.0 + beta))
        ),
    )


def decay_flow_integral(
    w0: npt.ArrayLike, rho: npt.ArrayLike, tau: npt.ArrayLike, alpha: npt.ArrayLike
) -> FloatArray:
    """Vectorized :func:`repro.core.kernels.decay_flow_integral`."""
    w0a, rhoa, taua, aa = _broadcast(w0, rho, tau, alpha)
    w_end = decay_weight_after(w0a, rhoa, taua, aa)
    energy = decay_energy_between(w0a, w_end, rhoa, aa)
    # Zero-length segments are exactly 0 (scalar twin's ulp round-trip guard).
    return cast(FloatArray, np.where(taua == 0.0, 0.0, (w0a * taua - energy) / rhoa))


def growth_weight_after(
    u0: npt.ArrayLike, rho: npt.ArrayLike, t: npt.ArrayLike, alpha: npt.ArrayLike
) -> FloatArray:
    """Vectorized :func:`repro.core.kernels.growth_weight_after`."""
    u0a, rhoa, ta, aa = _broadcast(u0, rho, t, alpha)
    _check_arrays(u0a, rhoa, ta)
    _check_alpha(aa)
    beta = 1.0 - 1.0 / aa
    return cast(FloatArray, (u0a**beta + rhoa * beta * ta) ** (1.0 / beta))


def growth_time_between(
    u0: npt.ArrayLike, u1: npt.ArrayLike, rho: npt.ArrayLike, alpha: npt.ArrayLike
) -> FloatArray:
    """Vectorized :func:`repro.core.kernels.growth_time_between`."""
    u0a, u1a, rhoa, aa = _broadcast(u0, u1, rho, alpha)
    _check_arrays(u0a, rhoa)
    _check_upper(u0a, u1a, "u0 <= u1")
    _check_alpha(aa)
    beta = 1.0 - 1.0 / aa
    return cast(FloatArray, np.maximum(0.0, (u1a**beta - u0a**beta) / (rhoa * beta)))


def growth_energy_between(
    u0: npt.ArrayLike, u1: npt.ArrayLike, rho: npt.ArrayLike, alpha: npt.ArrayLike
) -> FloatArray:
    """Vectorized :func:`repro.core.kernels.growth_energy_between`."""
    u0a, u1a, rhoa, aa = _broadcast(u0, u1, rho, alpha)
    _check_arrays(u0a, rhoa)
    _check_upper(u0a, u1a, "u0 <= u1")
    _check_alpha(aa)
    beta = 1.0 - 1.0 / aa
    return cast(
        FloatArray,
        np.maximum(
            0.0, (u1a ** (1.0 + beta) - u0a ** (1.0 + beta)) / (rhoa * (1.0 + beta))
        ),
    )


def growth_flow_integral(
    u0: npt.ArrayLike, rho: npt.ArrayLike, tau: npt.ArrayLike, alpha: npt.ArrayLike
) -> FloatArray:
    """Vectorized :func:`repro.core.kernels.growth_flow_integral`."""
    u0a, rhoa, taua, aa = _broadcast(u0, rho, tau, alpha)
    u_end = growth_weight_after(u0a, rhoa, taua, aa)
    energy = growth_energy_between(u0a, u_end, rhoa, aa)
    # Zero-length segments are exactly 0 (scalar twin's ulp round-trip guard).
    return cast(FloatArray, np.where(taua == 0.0, 0.0, (energy - u0a * taua) / rhoa))


_KERNEL_NAMES = (
    "beta_of",
    "speed_at",
    "decay_weight_after",
    "decay_time_between",
    "decay_time_to_zero",
    "decay_energy_between",
    "decay_flow_integral",
    "growth_weight_after",
    "growth_time_between",
    "growth_energy_between",
    "growth_flow_integral",
)


# ---------------------------------------------------------------------------
# ArrayPopulation — struct-of-arrays job-population state
# ---------------------------------------------------------------------------


class ArrayPopulation:
    """Contiguous struct-of-arrays state for a job population.

    Parallel arrays over slots ``[0, count)``: ``job_id``, ``release``,
    ``density``, ``density_class`` (a rounded-density class id; 0 unless the
    producer assigns classes), ``volume`` and ``machine``.  The meaning of
    ``volume`` is the producer's: the shadow layer stores *remaining*
    volumes, the numeric engine stores *processed* volumes.  Appends grow the
    arrays geometrically, so building a population job-by-job is amortized
    O(1) per job; :meth:`slot_of` is an O(1) dict lookup.
    """

    __slots__ = (
        "job_id",
        "release",
        "density",
        "density_class",
        "volume",
        "machine",
        "count",
        "_slot",
    )

    def __init__(self, capacity: int = 16) -> None:
        capacity = max(int(capacity), 1)
        self.job_id: npt.NDArray[np.int64] = np.zeros(capacity, dtype=np.int64)
        self.release: FloatArray = np.zeros(capacity, dtype=np.float64)
        self.density: FloatArray = np.zeros(capacity, dtype=np.float64)
        self.density_class: npt.NDArray[np.int64] = np.zeros(capacity, dtype=np.int64)
        self.volume: FloatArray = np.zeros(capacity, dtype=np.float64)
        self.machine: npt.NDArray[np.int64] = np.zeros(capacity, dtype=np.int64)
        self.count: int = 0
        self._slot: dict[int, int] = {}

    @classmethod
    def from_jobs(cls, jobs: Iterable[Job], *, machine: int = 0) -> "ArrayPopulation":
        """A population whose ``volume`` holds each job's full volume."""
        jobs = list(jobs)
        pop = cls(capacity=max(len(jobs), 1))
        for job in jobs:
            pop.append(job.job_id, job.release, job.density, job.volume, machine=machine)
        return pop

    def _grow(self) -> None:
        new_cap = max(2 * self.job_id.size, 16)
        for name in ("job_id", "release", "density", "density_class", "volume", "machine"):
            old = getattr(self, name)
            fresh = np.zeros(new_cap, dtype=old.dtype)
            fresh[: self.count] = old[: self.count]
            setattr(self, name, fresh)

    def append(
        self,
        job_id: int,
        release: float,
        density: float,
        volume: float,
        *,
        machine: int = 0,
        density_class: int = 0,
    ) -> int:
        """Add one job; returns its slot index."""
        if job_id in self._slot:
            raise ValueError(f"job {job_id} already in the population")
        if self.count >= self.job_id.size:
            self._grow()
        i = self.count
        self.job_id[i] = job_id
        self.release[i] = release
        self.density[i] = density
        self.density_class[i] = density_class
        self.volume[i] = volume
        self.machine[i] = machine
        self.count = i + 1
        self._slot[job_id] = i
        return i

    def __len__(self) -> int:
        return self.count

    def slot_of(self, job_id: int) -> int:
        return self._slot[job_id]

    def ids(self) -> npt.NDArray[np.int64]:
        return self.job_id[: self.count]

    def releases(self) -> FloatArray:
        return self.release[: self.count]

    def densities(self) -> FloatArray:
        return self.density[: self.count]

    def volumes(self) -> FloatArray:
        return self.volume[: self.count]

    def machines(self) -> npt.NDArray[np.int64]:
        return self.machine[: self.count]

    def active_mask(self) -> npt.NDArray[np.bool_]:
        """Slots with positive volume (remaining work, for shadow-style use)."""
        return cast("npt.NDArray[np.bool_]", self.volume[: self.count] > 0.0)

    def weights(self) -> FloatArray:
        """Per-slot fractional weight ``rho * volume``."""
        return cast(FloatArray, self.density[: self.count] * self.volume[: self.count])

    def total_weight(self) -> float:
        """``sum(rho * volume)`` over the live prefix, in one dot product."""
        return float(
            np.dot(self.density[: self.count], self.volume[: self.count])
        )

    def hdf_order(self) -> npt.NDArray[np.intp]:
        """Slot indices in highest-density-first order, FIFO tie-breaking —
        the vectorized counterpart of the per-job ``(-rho, release, id)`` key."""
        n = self.count
        return np.lexsort((self.job_id[:n], self.release[:n], -self.density[:n]))

    def speeds(self, alpha: float) -> FloatArray:
        """Power-equals-weight speeds if each slot ran alone: one
        whole-population kernel dispatch."""
        return speed_at(self.weights(), alpha)


# ---------------------------------------------------------------------------
# Backend registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelBackend:
    """One resolved kernel-evaluation backend.

    ``vector_width`` is the number of population elements a single kernel
    dispatch evaluates natively: 1 for the scalar loop, 0 meaning *unbounded*
    (whole population per call) for the array backends.  The eleven callables
    share the array-in/array-out signature of the module-level kernels.
    """

    name: str
    vector_width: int
    beta_of: KernelFn
    speed_at: KernelFn
    decay_weight_after: KernelFn
    decay_time_between: KernelFn
    decay_time_to_zero: KernelFn
    decay_energy_between: KernelFn
    decay_flow_integral: KernelFn
    growth_weight_after: KernelFn
    growth_time_between: KernelFn
    growth_energy_between: KernelFn
    growth_flow_integral: KernelFn

    def kernel(self, name: str) -> KernelFn:
        if name not in _KERNEL_NAMES:
            raise KeyError(f"unknown kernel {name!r}")
        return cast(KernelFn, getattr(self, name))


def _elementwise(fn: Callable[..., float]) -> KernelFn:
    """Lift a scalar kernel to the array signature by explicit looping —
    bit-identical to the scalar twin per element."""

    def wrapped(*args: npt.ArrayLike) -> FloatArray:
        arrays = _broadcast(*args)
        out = np.empty(arrays[0].shape, dtype=np.float64)
        flats = [a.ravel() for a in arrays]
        out_flat = out.ravel()
        for i in range(out_flat.size):
            out_flat[i] = fn(*(float(f[i]) for f in flats))
        return out

    return wrapped


def _build_scalar_backend() -> KernelBackend:
    from . import kernels as _k

    return KernelBackend(
        name="scalar",
        vector_width=1,
        beta_of=_elementwise(_k.beta_of),
        speed_at=_elementwise(_k.speed_at),
        decay_weight_after=_elementwise(_k.decay_weight_after),
        decay_time_between=_elementwise(_k.decay_time_between),
        decay_time_to_zero=_elementwise(_k.decay_time_to_zero),
        decay_energy_between=_elementwise(_k.decay_energy_between),
        decay_flow_integral=_elementwise(_k.decay_flow_integral),
        growth_weight_after=_elementwise(_k.growth_weight_after),
        growth_time_between=_elementwise(_k.growth_time_between),
        growth_energy_between=_elementwise(_k.growth_energy_between),
        growth_flow_integral=_elementwise(_k.growth_flow_integral),
    )


def _build_numpy_backend() -> KernelBackend:
    return KernelBackend(
        name="numpy",
        vector_width=0,
        beta_of=beta_of,
        speed_at=speed_at,
        decay_weight_after=decay_weight_after,
        decay_time_between=decay_time_between,
        decay_time_to_zero=decay_time_to_zero,
        decay_energy_between=decay_energy_between,
        decay_flow_integral=decay_flow_integral,
        growth_weight_after=growth_weight_after,
        growth_time_between=growth_time_between,
        growth_energy_between=growth_energy_between,
        growth_flow_integral=growth_flow_integral,
    )


_SCALAR_BACKEND = _build_scalar_backend()
_NUMPY_BACKEND = _build_numpy_backend()


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`get_backend`."""
    return ("scalar", "numpy")


def get_backend(name: str | None = None) -> KernelBackend:
    """Resolve a backend by name.

    ``None`` consults ``REPRO_BACKEND`` and falls back to
    :data:`DEFAULT_BACKEND`.  Unknown names raise :class:`ValueError`.
    """
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR, "").strip() or DEFAULT_BACKEND
    name = name.lower()
    if name == "scalar":
        return _SCALAR_BACKEND
    if name == "numpy":
        return _NUMPY_BACKEND
    raise ValueError(
        f"unknown kernel backend {name!r}; choose from {', '.join(available_backends())}"
    )


def resolve_backend(backend: "str | KernelBackend | None") -> KernelBackend:
    """Normalize a ``backend=`` parameter: pass objects through, resolve
    names (and ``None``, via the environment) through :func:`get_backend`."""
    if isinstance(backend, KernelBackend):
        return backend
    return get_backend(backend)


def backend_payload(backend: KernelBackend) -> dict[str, Any]:
    """The ``backend_selected`` trace-event payload for a resolved backend."""
    return {
        "backend": backend.name,
        "vector_width": backend.vector_width,
    }
