"""Wire format: :class:`~repro.harness.jobs.Job` <-> JSON-clean specs.

A job spec is the job's dataclass fields with nested frozen config
dataclasses encoded as plain dicts (``None`` fields omitted).  Decoding
rebuilds the exact dataclass tree, so::

    job_from_spec(job_to_spec(job)) == job

holds field-for-field — and therefore ``repr`` (the canonical form
:func:`repro.harness.parallel.job_key` hashes) round-trips too.  The
server never has to trust client-side keys: it recomputes ``job_key``
from the reconstructed job, under its *own* code fingerprint.

Type and range validation happens in the dataclass ``__post_init__``
hooks (every field declared ``int`` holds an int, and a job's ``check``
a bool); anything they raise, a kernel name the suite's registry lacks,
and a field beyond its resource cap (:data:`CAPS`, checked before the
dataclass is built) surface as :class:`ProtocolError`, which the HTTP
layer maps to a 400 before any job is queued.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass

from ..config import (
    CacheConfig,
    FaultConfig,
    MemoryConfig,
    PrefetchConfig,
    QueueConfig,
    ScalarConfig,
    SMAConfig,
    SpeculationConfig,
)
from ..errors import KernelError
from ..harness.jobs import Job
from ..kernels import get_kernel


class ProtocolError(ValueError):
    """A job spec that cannot be decoded into a valid :class:`Job`."""


#: dataclass-typed fields: (owner class, field name) -> field class.
#: Everything else round-trips as a JSON scalar / tuple.
_NESTED: dict[tuple[type, str], type] = {
    (Job, "sma_config"): SMAConfig,
    (Job, "scalar_config"): ScalarConfig,
    (Job, "memory_config"): MemoryConfig,
    (SMAConfig, "memory"): MemoryConfig,
    (SMAConfig, "queues"): QueueConfig,
    (SMAConfig, "faults"): FaultConfig,
    (SMAConfig, "speculation"): SpeculationConfig,
    (ScalarConfig, "memory"): MemoryConfig,
    (ScalarConfig, "cache"): CacheConfig,
    (ScalarConfig, "prefetch"): PrefetchConfig,
}


#: the resource caps a spec must respect: (owner class, field) -> the
#: largest value accepted.  Each sits well above the largest value in
#: use — the paper suite's ``n`` 512, ``nodes`` 8, ``buckets`` 32,
#: memory latency 32, memory size 65,536 words, 16 banks, queue depth
#: 64, 8/4/4 load/store/index queues, a 4,096-word cache and prefetch
#: degree 2, and the benchmark grids' latency 62 — so one request cannot
#: hold a pool worker for hours or exhaust its memory (a worker
#: allocates in proportion to each).  Local runs are not capped.
CAPS: dict[tuple[type, str], int] = {
    (Job, "n"): 4096,
    (Job, "nodes"): 64,
    (Job, "buckets"): 1024,
    (MemoryConfig, "latency"): 1024,
    (MemoryConfig, "size"): 1 << 20,
    (MemoryConfig, "num_banks"): 1024,
    **{(QueueConfig, f.name): 1024 for f in fields(QueueConfig)},
    (SMAConfig, "num_load_queues"): 64,
    (SMAConfig, "num_store_queues"): 64,
    (SMAConfig, "num_index_queues"): 64,
    (CacheConfig, "size_words"): 1 << 20,
    (PrefetchConfig, "degree"): 64,
}


def _encode(value):
    if is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _encode(getattr(value, f.name))
            for f in fields(value)
            if getattr(value, f.name) is not None
        }
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


def job_to_spec(job: Job) -> dict:
    """JSON-clean spec for one job (``None`` fields omitted)."""
    return _encode(job)


def _decode(cls: type, data: dict):
    if not isinstance(data, dict):
        raise ProtocolError(
            f"expected an object for {cls.__name__}, got "
            f"{type(data).__name__}"
        )
    fields_of = {f.name: f.type for f in fields(cls)}
    unknown = set(data) - set(fields_of)
    if unknown:
        raise ProtocolError(
            f"unknown {cls.__name__} field(s): {sorted(unknown)}"
        )
    kwargs = {}
    for name, value in data.items():
        nested = _NESTED.get((cls, name))
        cap = CAPS.get((cls, name))
        if nested is not None and value is not None:
            value = _decode(nested, value)
        elif nested is not None and not fields_of[name].endswith("None"):
            raise ProtocolError(
                f"invalid {cls.__name__} spec: {name} must be an object, "
                "not null"
            )
        elif isinstance(value, list):
            value = tuple(value)
        elif (cap is not None and type(value) in (int, float)
              and not value <= cap):  # NaN is refused too
            raise ProtocolError(
                f"invalid {cls.__name__} spec: {name} {value} exceeds "
                f"its cap of {cap}"
            )
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(
            f"invalid {cls.__name__} spec: {exc}"
        ) from None


def job_from_spec(spec: dict) -> Job:
    """Rebuild a :class:`Job` from its spec; :class:`ProtocolError` on
    anything malformed, including a kernel the suite does not have."""
    job = _decode(Job, spec)
    try:
        get_kernel(job.kernel)
    except (KernelError, TypeError) as exc:  # TypeError: unhashable
        raise ProtocolError(f"invalid Job spec: {exc}") from None
    return job


def jobs_from_payload(payload) -> list[Job]:
    """Decode the body of a ``POST /v1/jobs`` request."""
    if not isinstance(payload, dict) or "jobs" not in payload:
        raise ProtocolError('expected a JSON object with a "jobs" list')
    specs = payload["jobs"]
    if not isinstance(specs, list) or not specs:
        raise ProtocolError('"jobs" must be a non-empty list of specs')
    return [job_from_spec(spec) for spec in specs]
