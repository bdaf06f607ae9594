"""Execution namespace for generated run loops.

A generated source body (see :mod:`repro.codegen.emitter`) is plain
Python that refers to a small, fixed set of support names — the deque
and callback shapes of the completion queue, the queue slot type, the
simulator error types and the ALU helper functions whose semantics are
defined in :mod:`repro.isa.opcodes`.  :func:`runtime_namespace` builds
a fresh globals dict providing exactly those names; everything else a
generated function touches arrives through its parameters (the machine)
or through literals baked in at emission time.

Keeping the namespace minimal is part of the emitter contract
(ARCHITECTURE section 18): a generated body may only depend on machine
state reachable from its parameters and on these process-wide-stable
helpers, so a cached artifact can be reused for any machine with the
same (program, config, code-fingerprint) key.
"""

from __future__ import annotations

import math
from collections import deque
from functools import partial

from ..errors import MemoryError_, QueueError, SimulationError
from ..isa.opcodes import _div, _mod
from ..queues.operand_queue import _Slot


def runtime_namespace() -> dict:
    """Fresh globals for ``exec``-ing one generated artifact."""
    return {
        "deque": deque,
        "partial": partial,
        "_Slot": _Slot,
        "SimulationError": SimulationError,
        "MemoryError_": MemoryError_,
        "QueueError": QueueError,
        # ALU semantics shared with the interpreters (repro.isa.opcodes)
        "_div": _div,
        "_mod": _mod,
        "_sqrt": math.sqrt,
        "_floor": math.floor,
    }
