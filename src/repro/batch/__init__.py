"""Structure-of-arrays batch simulator: thousands of machine configs
stepped in lockstep with numpy.

See :mod:`repro.batch.engine` for the lane state and its bit-exactness
contract, :mod:`repro.batch.emitter` for the program-specialized lane
stepper (the one copy of each op's lane semantics),
:mod:`repro.batch.cache` for compile-once artifacts, and
:mod:`repro.batch.dispatch` for how harness jobs are grouped into lanes
and how programs the emitter refuses go to the per-point path.
"""

from .dispatch import batch_eligible, plan_groups, run_batch, run_group
from .engine import BatchOutcome, LaneEngine, LaneStats

__all__ = [
    "BatchOutcome",
    "LaneEngine",
    "LaneStats",
    "batch_eligible",
    "plan_groups",
    "run_batch",
    "run_group",
]
