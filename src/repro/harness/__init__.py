"""Experiment harness: runners, sweeps, tables for every figure/table."""

from .experiments import EXPERIMENTS, run_experiment, run_suite
from .faults import FaultSpec
from .jobs import Job, run_job
from .parallel import (
    HarnessPolicy,
    SweepError,
    SweepStats,
    code_fingerprint,
    harness_policy,
    run_jobs,
    set_policy,
)
from .runner import (
    ComparisonRun,
    KernelRun,
    compare_spec,
    run_on_scalar,
    run_on_sma,
    run_spec_reference,
)
from .tables import Table

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
    "run_spec_reference",
    "run_suite",
    "set_policy",
]
