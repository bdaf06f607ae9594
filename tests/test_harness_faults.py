"""Fault injection and sweep-harness recovery (repro.harness.faults).

Each test injects one of the failures the harness claims to survive —
corrupt cache entries, killed workers, a killed driver, hung jobs,
transient memory faults — and asserts the recovery contract: the sweep
completes (or resumes) with results identical to a fault-free run, and
the result cache never serves a faulty entry for a clean job.
"""

import logging
import os
import re
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.config import FaultConfig, MemoryConfig, QueueConfig, SMAConfig
from repro.errors import KernelError, SimulationError
from repro.harness import (
    Job,
    SweepError,
    harness_policy,
    run_jobs,
)
from repro.harness.faults import FaultSpec, apply_to_jobs
from repro.harness.parallel import job_key
from repro.harness.store import SUFFIX, ResultStore

REPO = Path(__file__).resolve().parent.parent


def _jobs():
    return [
        Job("sma", "daxpy", 24),
        Job("scalar", "daxpy", 24),
        Job("sma", "hydro", 24),
        Job("sma-nostream", "daxpy", 24),
    ]


class TestFaultSpec:
    def test_parse_modes(self):
        assert FaultSpec.parse("worker-kill").mode == "worker-kill"
        spec = FaultSpec.parse("mem-error:0.25")
        assert spec.mode == "mem-error" and spec.value == 0.25
        assert FaultSpec.parse("driver-kill:3").value == 3.0

    def test_parse_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown fault mode"):
            FaultSpec.parse("disk-on-fire")

    def test_parse_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec.parse("mem-error:1.5")

    def test_constructor_rejects_unparsed_text(self):
        # the bug this guards: FaultSpec("mem-error:0.1") silently
        # becoming a spec no hook recognizes
        with pytest.raises(ValueError, match="unknown fault mode"):
            FaultSpec("mem-error:0.1")


class TestCacheIntegrity:
    def test_corrupt_and_empty_entries_quarantined(self, tmp_path,
                                                   caplog):
        jobs = _jobs()
        clean = run_jobs(jobs, cache_dir=tmp_path)
        (tmp_path / f"{job_key(jobs[0])}{SUFFIX}").write_text("{trunc")
        (tmp_path / f"{job_key(jobs[1])}{SUFFIX}").write_text("")
        with caplog.at_level(logging.WARNING, logger="repro.harness"):
            with harness_policy() as stats:
                again = run_jobs(jobs, cache_dir=tmp_path)
        assert again == clean
        assert stats.quarantined == 2
        assert stats.hits == 2 and stats.executed == 2
        assert len(list(tmp_path.glob(f"*{SUFFIX}.corrupt"))) == 2
        assert sum("quarantined corrupt cache entry" in rec.message
                   for rec in caplog.records) == 2
        # quarantined entries are out of the way: a third sweep is all
        # hits again
        with harness_policy() as stats:
            run_jobs(jobs, cache_dir=tmp_path)
        assert stats.hits == len(jobs) and stats.quarantined == 0

    def test_tampered_entry_quarantined(self, tmp_path):
        # an entry that still parses but no longer holds what was
        # flushed: one digit of a cached cycle count edited in place
        jobs = _jobs()
        clean = run_jobs(jobs, cache_dir=tmp_path)
        [entry] = tmp_path.glob(f"{job_key(jobs[0])}.*")
        text = entry.read_text()
        edited = re.sub(
            r'("cycles": \d*)(\d)',
            lambda m: m[1] + str((int(m[2]) + 1) % 10), text, count=1,
        )
        assert edited != text
        entry.write_text(edited)
        with harness_policy() as stats:
            again = run_jobs(jobs, cache_dir=tmp_path)
        assert stats.quarantined == 1
        assert stats.executed == 1
        assert again == clean

    def test_flushes_are_atomic_renames(self, tmp_path):
        jobs = _jobs()
        run_jobs(jobs, cache_dir=tmp_path)
        assert not list(tmp_path.glob("*.tmp"))
        store = ResultStore(tmp_path)
        for job in jobs:
            assert store.get(job_key(job)) is not None  # every entry whole
        assert store.stats.quarantined == 0

    def test_serial_failure_keeps_earlier_flushes(self, tmp_path):
        jobs = _jobs()[:2] + [Job("sma", "no_such_kernel", 24)]
        with pytest.raises(KernelError, match="unknown kernel"):
            run_jobs(jobs, cache_dir=tmp_path, retries=0)
        # the two jobs that finished before the crash are on disk
        assert len(ResultStore(tmp_path)) == 2
        with harness_policy() as stats:
            run_jobs(jobs[:2], cache_dir=tmp_path)
        assert stats.hits == 2 and stats.executed == 0

    def test_parallel_flushes_as_results_land(self, tmp_path):
        # a pool sweep that dies mid-way must leave the finished jobs
        # cached: hang one job until its timeout aborts the sweep and
        # check the other worker's results reached disk anyway
        spec = FaultSpec("sleep", 30.0,
                         token_path=str(tmp_path / "tok"))
        with pytest.raises(SweepError):
            run_jobs(_jobs(), workers=2, cache_dir=tmp_path,
                     timeout=2.0, retries=0, inject=spec)
        assert 0 < len(ResultStore(tmp_path)) < len(_jobs())


class TestWorkerRecovery:
    def test_worker_kill_retried_to_completion(self, tmp_path):
        clean = run_jobs(_jobs())
        spec = FaultSpec("worker-kill",
                         token_path=str(tmp_path / "tok"))
        with harness_policy(inject=spec) as stats:
            got = run_jobs(_jobs(), workers=2,
                           cache_dir=tmp_path / "cache", retries=2)
        assert got == clean
        assert stats.respawns >= 1 and stats.retried >= 1
        # resume executes nothing: every result was flushed
        with harness_policy() as stats:
            run_jobs(_jobs(), workers=2, cache_dir=tmp_path / "cache")
        assert stats.executed == 0 and stats.hits == len(_jobs())

    def test_worker_kill_without_retries_raises(self, tmp_path):
        spec = FaultSpec("worker-kill",
                         token_path=str(tmp_path / "tok"))
        with pytest.raises(SweepError, match="worker"):
            run_jobs(_jobs(), workers=2, retries=0, inject=spec)

    def test_hung_job_times_out_and_retries(self, tmp_path):
        clean = run_jobs(_jobs())
        spec = FaultSpec("sleep", 30.0,
                         token_path=str(tmp_path / "tok"))
        with harness_policy(inject=spec) as stats:
            got = run_jobs(_jobs(), workers=2, timeout=1.0, retries=2)
        assert got == clean
        assert stats.retried >= 1

    def test_hung_job_without_retries_raises(self, tmp_path):
        spec = FaultSpec("sleep", 30.0,
                         token_path=str(tmp_path / "tok"))
        with pytest.raises(SweepError, match="timed out"):
            run_jobs(_jobs(), workers=2, timeout=1.0, retries=0,
                     inject=spec)


_DRIVER = textwrap.dedent("""
    import sys
    from repro.harness import run_jobs, harness_policy, Job
    from repro.harness.faults import FaultSpec

    cache, kill = sys.argv[1], sys.argv[2] == "kill"
    jobs = [
        Job("sma", "daxpy", 24),
        Job("scalar", "daxpy", 24),
        Job("sma", "hydro", 24),
        Job("sma-nostream", "daxpy", 24),
    ]
    inject = (FaultSpec("driver-kill", 2.0, token_path=cache + "/.tok")
              if kill else None)
    with harness_policy(inject=inject) as stats:
        run_jobs(jobs, cache_dir=cache)
    print(f"executed={stats.executed} hits={stats.hits}")
""")


class TestKillResume:
    def _drive(self, cache, mode):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        return subprocess.run(
            [sys.executable, "-c", _DRIVER, str(cache), mode],
            capture_output=True, text=True, env=env, timeout=300,
        )

    def test_driver_killed_then_resumed(self, tmp_path):
        clean = run_jobs(_jobs())
        killed = self._drive(tmp_path, "kill")
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        # died after exactly two flushes: both entries whole on disk
        store = ResultStore(tmp_path)
        assert len(store) == 2
        whole = [job for job in _jobs() if store.get(job_key(job))]
        assert len(whole) == 2 and store.stats.quarantined == 0
        resumed = self._drive(tmp_path, "resume")
        assert resumed.returncode == 0, resumed.stderr
        assert "executed=2 hits=2" in resumed.stdout
        # and the resumed cache serves results identical to a clean run
        with harness_policy() as stats:
            got = run_jobs(_jobs(), cache_dir=tmp_path)
        assert got == clean
        assert stats.hits == len(_jobs()) and stats.executed == 0


class TestMemError:
    def _cfg(self, **faults):
        mem = MemoryConfig(latency=8, bank_busy=4)
        return SMAConfig(memory=mem, queues=QueueConfig(),
                         faults=FaultConfig(**faults))

    def test_apply_rewrites_cache_keys(self):
        jobs = _jobs()
        faulted = apply_to_jobs(jobs, FaultSpec.parse("mem-error:0.1"))
        for job, fake in zip(jobs, faulted):
            if job.machine == "scalar":
                assert fake == job  # scalar machine has no banked memory
            else:
                assert fake.sma_config.faults.reject_prob == 0.1
                assert job_key(fake) != job_key(job)

    def test_faulty_sweep_does_not_poison_the_cache(self, tmp_path):
        jobs = _jobs()
        spec = FaultSpec.parse("mem-error:0.1")
        with harness_policy(inject=spec):
            run_jobs(jobs, cache_dir=tmp_path)
        with harness_policy() as stats:
            run_jobs(jobs, cache_dir=tmp_path)
        # only the scalar job's key is untouched by the fault rewrite
        assert stats.hits == 1 and stats.executed == 3

    def test_rejects_perturb_timing_not_results(self):
        # check=True verifies outputs word-exact against the reference:
        # transient rejects must never change what the machine computes
        res = run_jobs(
            [Job("sma", "daxpy", 32, sma_config=self._cfg(
                reject_prob=0.2, seed=7), check=True)]
        )[0]
        assert res["cycles"] > 0

    def test_injected_rejects_are_counted(self):
        from repro.core import SMAMachine
        from repro.harness.runner import _fit_memory, _load_inputs
        from repro.kernels import get_kernel, lower_sma
        from dataclasses import replace

        kernel, inputs = get_kernel("daxpy").instantiate(32)
        lowered = lower_sma(kernel)
        cfg = self._cfg(reject_prob=0.2, seed=7)
        cfg = replace(cfg, memory=_fit_memory(cfg.memory, lowered.layout))
        machine = SMAMachine(lowered.access_program,
                             lowered.execute_program, cfg)
        _load_inputs(machine, lowered.layout, kernel, inputs)
        # fast schedulers are downgraded under fault injection; asking
        # for event-horizon must still run correctly (as naive)
        result = machine.run(scheduler="event-horizon")
        assert machine.banked.fault_injection
        assert machine.banked.injected_rejects > 0
        assert result.cycles == machine.cycle

    def test_dropped_completion_reported_as_deadlock(self):
        from repro.core import SMAMachine
        from repro.harness.runner import _fit_memory, _load_inputs
        from repro.kernels import get_kernel, lower_sma
        from dataclasses import replace

        kernel, inputs = get_kernel("daxpy").instantiate(32)
        lowered = lower_sma(kernel)
        cfg = self._cfg(drop_completions=1)
        cfg = replace(cfg, memory=_fit_memory(cfg.memory, lowered.layout))
        machine = SMAMachine(lowered.access_program,
                             lowered.execute_program, cfg)
        _load_inputs(machine, lowered.layout, kernel, inputs)
        with pytest.raises(SimulationError, match="deadlock"):
            machine.run(deadlock_window=2_000)
