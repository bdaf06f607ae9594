#!/usr/bin/env python
"""Speculative-AP smoke for CI.

Usage::

    PYTHONPATH=src python scripts/speculation_smoke.py [--n N]

Proves the two load-bearing guarantees of the speculation subsystem end
to end, on the LOD-collapsed lowerings R-T7 uses:

* **accuracy 0 is a no-op** — a run with ``SpeculationConfig(accuracy=0)``
  must be *bit-identical* to a run with no speculation config at all:
  same cycles, same stall buckets (including ``lod_*`` accounting), and
  the same sha256 digest over the final memory image.
* **rollback is deterministic** — a coin predictor at accuracy 0.5
  rolls back constantly; two runs with the same predictor seed must
  agree exactly (cycles, stall buckets, speculation counters, memory
  digest), two different predictor seeds must still produce the same
  (correct) memory digest, and a perfect predictor must eliminate at
  least 90% of the baseline's ``lod_*`` stall cycles.
* **the default scheduler equals naive** — under the perfect and the
  coin-0.5 predictor, a run on the default (event-horizon) scheduler
  must match ``scheduler="naive"`` exactly: cycles, AP/EP stall causes,
  the stall-bucket partition, speculation counters and memory digest.
* **the default scheduler stays on the fast paths** — under both
  predictors the default run calls none of the reference
  ``AccessProcessor.step``, ``ExecuteProcessor.step``,
  ``StreamEngine.tick`` or ``StoreUnit.tick`` (the naive run must call
  them, so the count is live): a silent fall-back to the slow path,
  the speculative access processor's included, fails here.

Exit status is non-zero on any violated expectation.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from collections import Counter
from contextlib import contextmanager

try:
    from repro.config import MemoryConfig, SMAConfig, SpeculationConfig
    from repro.core.access_processor import AccessProcessor
    from repro.core.descriptors import StreamEngine
    from repro.core.execute_processor import ExecuteProcessor
    from repro.core.machine import set_fast_forward
    from repro.core.store_unit import StoreUnit
    from repro.harness.runner import run_on_sma
    from repro.kernels import get_kernel, lower_sma
except ImportError as exc:  # pragma: no cover - CI misconfiguration
    raise SystemExit(
        f"cannot import repro ({exc}); run as: "
        "PYTHONPATH=src python scripts/speculation_smoke.py"
    )

CASES = (("pic_gather", "addr"), ("tridiag", "branch"))
MEM = MemoryConfig(latency=16, bank_busy=8)
#: the reference steps only the naive loop may call
REFERENCE_STEPS = ((AccessProcessor, "step"), (ExecuteProcessor, "step"),
                   (StreamEngine, "tick"), (StoreUnit, "tick"))


def _run(name, variant, speculation, n, seed=7, metrics=False):
    kernel, inputs = get_kernel(name).instantiate(n, seed)
    lowered = lower_sma(kernel, lod_variant=variant)
    cfg = SMAConfig(memory=MEM, speculation=speculation)
    return run_on_sma(kernel, inputs, cfg, lowered=lowered, metrics=metrics)


@contextmanager
def _reference_step_calls():
    """Count the calls of every method in :data:`REFERENCE_STEPS`."""
    calls = Counter()
    saved = [(cls, method, getattr(cls, method))
             for cls, method in REFERENCE_STEPS]
    for cls, method, real in saved:
        def spy(unit, now, real=real, label=f"{cls.__name__}.{method}"):
            calls[label] += 1
            return real(unit, now)

        setattr(cls, method, spy)
    try:
        yield calls
    finally:
        for cls, method, real in saved:
            setattr(cls, method, real)


def _default_matches_naive(name, variant, speculation, n):
    """Run once on the default scheduler and once with naive made the
    default; compare everything a speculative run reports.  Returns
    the verdict and each run's reference-step calls."""
    runs = []
    calls = []
    for fast in (True, False):
        previous = set_fast_forward(fast)
        try:
            with _reference_step_calls() as counted:
                run = _run(name, variant, speculation, n, metrics=True)
        finally:
            set_fast_forward(previous)
        runs.append(_fingerprint(run) + (
            dict(run.result.ep.stall_cycles),
            run.result.stall_breakdown,
            run.result.speculation,
        ))
        calls.append(counted)
    return runs[0] == runs[1], calls[0], calls[1]


def _fingerprint(run):
    digest = hashlib.sha256()
    for name in sorted(run.outputs):
        digest.update(run.outputs[name].astype("float64").tobytes())
    return (
        run.result.cycles,
        dict(run.result.ap.stall_cycles),
        run.result.lod_events,
        digest.hexdigest(),
    )


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"  ok: {message}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int, default=64)
    args = parser.parse_args()

    for name, variant in CASES:
        print(f"{name} ({variant}):")
        plain = _run(name, variant, None, args.n)
        zero = _run(name, variant,
                    SpeculationConfig(accuracy=0.0), args.n)
        check(_fingerprint(zero) == _fingerprint(plain),
              "accuracy 0 bit-identical to no speculation "
              "(cycles, stall buckets, memory digest)")
        check(zero.result.speculation is None,
              "accuracy 0 reports no speculation counters")

        coin = SpeculationConfig(accuracy=0.5, max_depth=8, seed=3)
        first = _run(name, variant, coin, args.n)
        again = _run(name, variant, coin, args.n)
        check(first.result.speculation["rollbacks"] > 0,
              f"rollbacks exercised "
              f"({first.result.speculation['rollbacks']})")
        check(_fingerprint(again) == _fingerprint(first)
              and again.result.speculation == first.result.speculation,
              "rollback deterministic across reruns")

        other = _run(name, variant,
                     SpeculationConfig(accuracy=0.5, max_depth=8,
                                       seed=4), args.n)
        check(other.result.speculation != first.result.speculation,
              "different predictor seed takes a different path")
        check(other.outputs.keys() == first.outputs.keys() and
              _fingerprint(other)[3] == _fingerprint(first)[3],
              "different predictor seed, same (correct) outputs")

        perfect = _run(name, variant,
                       SpeculationConfig(accuracy=1.0, max_depth=16),
                       args.n)
        check(perfect.result.lod_stall_cycles
              <= 0.1 * plain.result.lod_stall_cycles,
              f"perfect predictor removes >=90% of lod stalls "
              f"({plain.result.lod_stall_cycles} -> "
              f"{perfect.result.lod_stall_cycles})")
        check(_fingerprint(perfect)[3] == _fingerprint(plain)[3],
              "perfect-predictor outputs word-exact")

        for label, speculation in (
            ("perfect", SpeculationConfig(accuracy=1.0, max_depth=16)),
            ("coin-0.5", coin),
        ):
            same, default_calls, naive_calls = _default_matches_naive(
                name, variant, speculation, args.n)
            check(same,
                  f"default scheduler == naive under the {label} "
                  "predictor (cycles, stall buckets, speculation "
                  "counters, memory digest)")
            check(not default_calls
                  and naive_calls["AccessProcessor.step"]
                  and naive_calls["ExecuteProcessor.step"],
                  f"default scheduler called no reference step under the "
                  f"{label} predictor (default: {dict(default_calls)}; "
                  f"naive: {dict(naive_calls)})")

    print("speculation smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
