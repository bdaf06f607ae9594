"""Experiment harness: runners, sweeps, tables for every figure/table.

Names are imported from their submodules on first use (see
:mod:`repro._lazy`): planning a sweep, keying its jobs and probing the
result cache load no simulator; only running a job does.
"""

from .._lazy import lazy_package

lazy_package(__name__, {
    ".experiments": ("EXPERIMENTS", "run_experiment", "run_suite"),
    ".faults": ("FaultSpec",),
    ".jobs": ("Job", "run_job"),
    ".parallel": ("HarnessPolicy", "SweepError", "SweepStats",
                  "code_fingerprint", "harness_policy", "run_jobs",
                  "set_policy"),
    ".runner": ("ComparisonRun", "KernelRun", "compare_spec",
                "run_on_scalar", "run_on_sma"),
    ".tables": ("Table",),
})

__all__ = [
    "EXPERIMENTS",
    "ComparisonRun",
    "FaultSpec",
    "HarnessPolicy",
    "Job",
    "KernelRun",
    "SweepError",
    "SweepStats",
    "Table",
    "code_fingerprint",
    "compare_spec",
    "harness_policy",
    "run_experiment",
    "run_job",
    "run_jobs",
    "run_on_scalar",
    "run_on_sma",
    "run_suite",
    "set_policy",
]
