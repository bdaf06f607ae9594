"""Compile-once cache for program-specialized run loops.

Artifacts are keyed by everything the emitted source depends on:

* the **code fingerprint** of the simulator sources themselves (the same
  :func:`repro.harness.parallel.code_fingerprint` that invalidates the
  sweep cache) — editing any simulator module invalidates every cached
  artifact;
* the full text of both **programs** and the repr of the **config** —
  the same material :func:`repro.core.checkpoint.machine_fingerprint`
  hashes, because those are exactly the inputs the emitter specializes
  on (operands, queue capacities, bank counts, latencies...).

The cache is a bounded in-process LRU.  Machines the emitter cannot
specialize (exotic operand shapes the interpreters would reject at
execution time) land in a negative cache so the run loop falls back to
the event-horizon scheduler without re-attempting emission every run.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

#: maximum retained compiled artifacts; eviction is least-recently-used
MAX_ENTRIES = 64


@dataclass
class CodegenArtifact:
    """One compiled (program, config) specialization."""

    key: str
    source: str
    fn: Callable
    #: static capabilities — the run loop falls back when live machine
    #: state needs a subsystem the program provably never uses (possible
    #: only through manual state injection, never through snapshots of
    #: the same program)
    uses_engine: bool
    uses_su: bool
    uses_memory: bool


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    compiles: int = 0
    evictions: int = 0
    unsupported: int = 0


_CACHE: OrderedDict[str, CodegenArtifact] = OrderedDict()
_UNSUPPORTED: set[str] = set()
stats = CacheStats()


def _code_fingerprint() -> str:
    """The repo-wide source fingerprint (monkeypatchable in tests to
    simulate a simulator-source edit invalidating every artifact)."""
    from ..harness.parallel import code_fingerprint

    return code_fingerprint()


def artifact_key(machine) -> str:
    """Cache key for one machine (see module docstring)."""
    from ..core.checkpoint import _program_text

    h = hashlib.sha256()
    h.update(_code_fingerprint().encode())
    h.update(b"\0")
    h.update(_program_text(machine.ap.program).encode())
    h.update(b"\0")
    h.update(_program_text(machine.ep.program).encode())
    h.update(b"\0")
    h.update(repr(machine.config).encode())
    return h.hexdigest()


def clear_cache() -> None:
    """Drop every cached artifact and reset the counters (tests)."""
    _CACHE.clear()
    _UNSUPPORTED.clear()
    stats.hits = stats.misses = stats.compiles = 0
    stats.evictions = stats.unsupported = 0


def cached_artifacts() -> list[CodegenArtifact]:
    """Current cache contents, least- to most-recently used."""
    return list(_CACHE.values())


def get_or_compile(machine) -> CodegenArtifact | None:
    """Return the compiled artifact for ``machine``, emitting and
    compiling on first use; ``None`` when the program cannot be
    specialized (the caller falls back to the event-horizon loop)."""
    key = artifact_key(machine)
    if key in _UNSUPPORTED:
        return None
    artifact = _CACHE.get(key)
    if artifact is not None:
        stats.hits += 1
        _CACHE.move_to_end(key)
        return artifact
    stats.misses += 1
    from .emitter import MachineLoopEmitter, Unsupported

    try:
        emitter = MachineLoopEmitter(machine)
        source = emitter.generate()
    except Unsupported:
        stats.unsupported += 1
        _UNSUPPORTED.add(key)
        return None
    artifact = compile_source(
        key, source,
        uses_engine=emitter.has_stream,
        uses_su=emitter.has_staddr,
        uses_memory=emitter.uses_memory,
    )
    _CACHE[key] = artifact
    while len(_CACHE) > MAX_ENTRIES:
        _CACHE.popitem(last=False)
        stats.evictions += 1
    return artifact


def compile_source(
    key: str,
    source: str,
    *,
    uses_engine: bool,
    uses_su: bool,
    uses_memory: bool,
) -> CodegenArtifact:
    """Compile one emitted source body into a callable artifact.

    The filename embeds the key prefix so cProfile attribution (and
    tracebacks) can tell generated frames apart — ``repro profile``
    folds ``<sma-codegen:...>`` frames into a dedicated component.
    """
    from .runtime import runtime_namespace

    stats.compiles += 1
    code = compile(source, f"<sma-codegen:{key[:12]}>", "exec")
    namespace = runtime_namespace()
    exec(code, namespace)
    return CodegenArtifact(
        key=key, source=source, fn=namespace["__sma_codegen_loop__"],
        uses_engine=uses_engine, uses_su=uses_su, uses_memory=uses_memory,
    )
