"""Compile-once cache for program-specialized batch lane steppers.

Artifacts are keyed by everything the emitted source depends on, so a
cached stepper is reused only where it would be emitted identically —

* the **code fingerprint** of the simulator sources (the same
  :func:`repro.harness.parallel.code_fingerprint` that invalidates the
  sweep cache) — editing any simulator module invalidates every cached
  stepper;
* the full text of both **programs** — the emitter bakes opcodes,
  operands and branch targets in as literals;
* the **queue layout** tuple — literal queue ids and the SAQ/EBQ
  positions come from it.

Timing parameters (latency, bank counts, queue depths) are *not* part
of the key: they live in per-lane arrays the generated code reads at
run time, so one artifact serves every lane group of the same program —
that is what makes a 3200-point sweep one compile.

Programs the emitter cannot specialize land in a negative cache, so
emission is attempted (and the refusal logged) once per key; their lane
groups run per point (see :func:`repro.batch.dispatch.run_group`).
"""

from __future__ import annotations

import hashlib
import logging
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

#: maximum retained compiled steppers; eviction is least-recently-used
MAX_ENTRIES = 64

_LOG = logging.getLogger("repro.batch")


@dataclass
class LaneArtifact:
    """One compiled program-pair specialization of the lane loop."""

    key: str
    source: str
    fn: Callable


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    compiles: int = 0
    evictions: int = 0
    unsupported: int = 0


_CACHE: OrderedDict[str, LaneArtifact] = OrderedDict()
_UNSUPPORTED: set[str] = set()
stats = CacheStats()


def _code_fingerprint() -> str:
    """The repo-wide source fingerprint (monkeypatchable in tests to
    simulate a simulator-source edit invalidating every artifact)."""
    from ..harness.parallel import code_fingerprint

    return code_fingerprint()


def artifact_key(engine) -> str:
    """Cache key for one :class:`~repro.batch.engine.LaneEngine`'s
    program pair + queue layout (see module docstring)."""
    from ..core.checkpoint import _program_text

    qlay = engine.qlay
    h = hashlib.sha256()
    h.update(_code_fingerprint().encode())
    h.update(b"\0lane\0")
    h.update(_program_text(engine.access_program).encode())
    h.update(b"\0")
    h.update(_program_text(engine.execute_program).encode())
    h.update(b"\0")
    h.update(repr((
        qlay.num_load, qlay.num_store, qlay.num_index,
    )).encode())
    return h.hexdigest()


def clear_cache() -> None:
    """Drop every cached stepper and reset the counters (tests)."""
    _CACHE.clear()
    _UNSUPPORTED.clear()
    stats.hits = stats.misses = stats.compiles = 0
    stats.evictions = stats.unsupported = 0


def cached_artifacts() -> list[LaneArtifact]:
    """Current cache contents, least- to most-recently used."""
    return list(_CACHE.values())


def get_or_compile(engine) -> LaneArtifact | None:
    """Return the compiled lane stepper for ``engine``'s program pair,
    emitting and compiling on first use; ``None`` when the program
    cannot be specialized (its jobs then run per point)."""
    key = artifact_key(engine)
    if key in _UNSUPPORTED:
        return None
    artifact = _CACHE.get(key)
    if artifact is not None:
        stats.hits += 1
        _CACHE.move_to_end(key)
        return artifact
    stats.misses += 1
    from .emitter import LaneLoopEmitter, Unsupported

    try:
        source = LaneLoopEmitter(engine).generate()
    except Unsupported as exc:
        stats.unsupported += 1
        _UNSUPPORTED.add(key)
        _LOG.warning(
            "batch emitter refused program %s (%s); its lane groups run "
            "per point", key[:12], exc,
        )
        return None
    artifact = compile_source(key, source)
    _CACHE[key] = artifact
    while len(_CACHE) > MAX_ENTRIES:
        _CACHE.popitem(last=False)
        stats.evictions += 1
    return artifact


def compile_source(key: str, source: str) -> LaneArtifact:
    """Compile one emitted lane-stepper source into an artifact.

    The filename embeds the key prefix so cProfile attribution (and
    tracebacks) can tell generated frames apart — ``repro profile``
    folds ``<sma-batch-codegen:...>`` frames into a dedicated
    component.
    """
    from .emitter import runtime_namespace

    stats.compiles += 1
    code = compile(source, f"<sma-batch-codegen:{key[:12]}>", "exec")
    namespace = runtime_namespace()
    exec(code, namespace)
    return LaneArtifact(
        key=key, source=source, fn=namespace["__batch_lane_loop__"]
    )
