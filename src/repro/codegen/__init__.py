"""Program-specialized codegen backend (the ``"codegen"`` scheduler).

Instead of interpreting the same predecoded instruction tuples millions
of times per sweep, this package walks a standalone machine's decoded
programs and configuration once and emits a *straight-line* Python run
loop specialized to that (program, config) pair: operands and
immediates become literals, statically impossible queue/ready checks
disappear, and the per-component ``tick_fast`` bodies are fused into a
single loop.  The source is compiled once and cached (see
:mod:`repro.codegen.cache`); :class:`repro.core.SMAMachine` runs the
compiled function through the ``"codegen"`` entry of its scheduler
registry.  A cluster asked for ``"codegen"`` runs its event-horizon
loop (:mod:`repro.core.cluster`).

Bit-identity with naive ticking — cycles, memory image, every stats
bucket — is property-tested in ``tests/test_event_horizon.py``; the
emitter contract is documented in ARCHITECTURE section 18.
"""

from .cache import (
    CodegenArtifact,
    artifact_key,
    cached_artifacts,
    clear_cache,
    get_or_compile,
    stats,
)
from .emitter import MachineLoopEmitter, Unsupported


def compiled_loop_for(machine) -> CodegenArtifact | None:
    """Compiled whole-run loop for a standalone machine (or ``None``
    when the program cannot be specialized)."""
    return get_or_compile(machine)


__all__ = [
    "CodegenArtifact",
    "MachineLoopEmitter",
    "Unsupported",
    "artifact_key",
    "cached_artifacts",
    "clear_cache",
    "compiled_loop_for",
    "get_or_compile",
    "stats",
]
