"""CLI and ASCII plotting."""

import pytest

from repro.cli import main
from repro.harness.plot import render_plot
from repro.harness.tables import Table


class TestPlot:
    def _table(self):
        t = Table("R-F9", "demo figure", ("x", "alpha", "beta"))
        t.add_row(1, 1.0, 2.0)
        t.add_row(2, 2.0, 4.0)
        t.add_row(4, 4.0, 8.0)
        return t

    def test_renders_axes_and_legend(self):
        art = render_plot(self._table())
        assert "A=alpha" in art and "B=beta" in art
        assert "R-F9" in art
        assert "8" in art and "1" in art  # y range labels

    def test_series_extremes_plotted(self):
        art = render_plot(self._table(), width=30, height=8)
        lines = art.splitlines()
        top = next(l for l in lines if "|" in l)
        assert "B" in top  # max value (8.0) on the top row

    def test_needs_data(self):
        with pytest.raises(ValueError):
            render_plot(Table("X", "t", ("x", "y")))

    def test_logx(self):
        art = render_plot(self._table(), logx=True)
        assert "alpha" in art

    def test_logx_rejects_nonpositive(self):
        t = Table("X", "t", ("x", "y"))
        t.add_row(0, 1.0)
        t.add_row(1, 2.0)
        with pytest.raises(ValueError, match="positive"):
            render_plot(t, logx=True)


class TestCLI:
    def test_kernels(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "hydro" in out and "tridiag" in out

    def test_run(self, capsys):
        assert main(["run", "daxpy", "--n", "32"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "verified" in out

    def test_compile(self, capsys):
        assert main(["compile", "daxpy", "--n", "8"]) == 0
        out = capsys.readouterr().out
        assert "streamld" in out and "decbnz" in out

    def test_experiment_with_plot(self, capsys, monkeypatch):
        # shrink the sweep so the test stays fast
        from repro.harness import experiments as exp
        monkeypatch.setitem(
            exp.EXPERIMENTS, "R-F1",
            lambda: exp.fig1_latency(n=32, latencies=(2, 8),
                                     kernels=("daxpy",)),
        )
        assert main(["experiment", "R-F1", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "R-F1" in out and "A=daxpy" in out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "R-T99"]) == 2

    def test_experiment_id_spelling_normalized(self, capsys, monkeypatch):
        """rf8 / r-f8 / R-F8 all select the same experiment."""
        from repro.harness import experiments as exp
        monkeypatch.setitem(
            exp.EXPERIMENTS, "R-F8",
            lambda: exp.fig8_multiprocessor(
                n=16, node_counts=(1,), ports=(1,)
            ),
        )
        for spelling in ("rf8", "r-f8", "R-F8", "r_f8"):
            assert main(["experiment", spelling]) == 0
            out = capsys.readouterr().out
            assert "R-F8" in out

    def test_parse(self, tmp_path, capsys):
        source = """
kernel scale(x[n], y[n]):
    for i in 0 .. n:
        y[i] = 2.0 * x[i]
"""
        path = tmp_path / "scale.k"
        path.write_text(source)
        assert main(["parse", str(path), "--n", "16"]) == 0
        out = capsys.readouterr().out
        assert "verified on both machines" in out

    def test_timeline(self, capsys):
        assert main(["timeline", "daxpy", "--n", "8", "--last", "12"]) == 0
        out = capsys.readouterr().out
        assert "access processor" in out and "streamld" in out

    def test_profile(self, capsys):
        assert main(["profile", "daxpy", "--n", "16", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "scheduler=event-horizon" in out
        assert "component" in out
        assert "stream engine" in out
        assert "hottest 3 function(s)" in out

    def test_profile_scheduler_choice(self, capsys):
        assert main(["profile", "daxpy", "--n", "16",
                     "--scheduler", "naive"]) == 0
        out = capsys.readouterr().out
        assert "scheduler=naive" in out
        # without --top the per-function listing is omitted
        assert "hottest" not in out

    def test_profile_attribution_groups_by_source_file(self):
        from repro.cli import profile_attribution

        class FakeStats:
            stats = {
                ("/x/src/repro/core/access_processor.py", 1, "step"):
                    (1, 1, 0.25, 0.25, {}),
                ("/x/src/repro/queues/operand_queue.py", 2, "pop"):
                    (1, 1, 0.5, 0.5, {}),
                ("/x/src/repro/queues/queue_file.py", 3, "sample"):
                    (1, 1, 0.25, 0.25, {}),
                ("/usr/lib/python3/heapq.py", 4, "heappop"):
                    (1, 1, 1.0, 1.0, {}),
            }

        totals = profile_attribution(FakeStats())
        assert totals["access processor"] == 0.25
        assert totals["operand queues"] == 0.75
        assert totals["other"] == 1.0

    def test_profile_components_name_package_modules(self):
        """Every source file ``repro profile`` attributes time to is a
        module of the package: a key naming no file attributes
        nothing."""
        from pathlib import Path

        import repro
        from repro.cli import _PROFILE_COMPONENTS

        modules = {path.name
                   for path in Path(repro.__file__).parent.rglob("*.py")}
        assert sorted(set(_PROFILE_COMPONENTS) - modules) == []

    def test_experiment_csv(self, capsys, monkeypatch):
        from repro.harness import experiments as exp
        monkeypatch.setitem(
            exp.EXPERIMENTS, "R-F2",
            lambda: exp.fig2_queue_depth(n=16, depths=(2, 4),
                                         kernels=("daxpy",)),
        )
        assert main(["experiment", "R-F2", "--csv"]) == 0
        out = capsys.readouterr().out
        assert "depth,daxpy" in out
        assert out.startswith("# [R-F2]")

    def test_verify(self, capsys):
        assert main(["verify", "tridiag", "--n", "24"]) == 0
        out = capsys.readouterr().out
        assert out.count("match sequential semantics") == 3

    def test_verify_single_machine(self, capsys):
        assert main(["verify", "daxpy", "--n", "16",
                     "--machine", "scalar"]) == 0
        out = capsys.readouterr().out
        assert "scalar:" in out and "sma:" not in out

    def test_parse_mismatch_would_fail_loudly(self, tmp_path):
        # sanity: garbage source errors before any run
        path = tmp_path / "bad.k"
        path.write_text("kernel k(x[4]):\n    for i in 0 .. 4:\n        x[i] = @")
        with pytest.raises(Exception):
            main(["parse", str(path)])

    def test_sweep_refuses_a_non_empty_cache_without_resume(
        self, tmp_path, capsys
    ):
        cache = str(tmp_path / "cache")
        sweep = ["experiment", "R-F1", "--n", "16", "--cache", cache]
        assert main(sweep) == 0
        capsys.readouterr()
        assert main(sweep) == 2
        assert "pass --resume" in capsys.readouterr().err
        assert main(sweep + ["--resume"]) == 0
        assert "0 executed" in capsys.readouterr().err

    def test_sweep_timeout_needs_a_pool(self, tmp_path, capsys):
        # the serial sweep runs each job in the calling process and
        # cannot interrupt it, so a timeout there would be ignored
        cache = tmp_path / "cache"
        sweep = ["experiment", "R-F1", "--n", "16", "--cache", str(cache),
                 "--timeout", "0.001"]
        assert main(sweep) == 2
        assert "--jobs 2" in capsys.readouterr().err
        assert not list(cache.glob("*.result"))

    @pytest.mark.parametrize("flags, message", [
        # the fault's once-only token file lives in the cache
        (["--inject-fault", "worker-kill"], "--inject-fault needs --cache"),
        # the server's runs would capture nothing here
        (["--metrics", "--url", "http://127.0.0.1:9"], "--metrics"),
        # pool workers capture into their own copy of the collector
        (["--metrics", "--jobs", "2"], "--jobs 2"),
        # hits carry no report; captured results would carry report
        # fields under the keys a plain run reads
        (["--metrics", "--cache", "cache"], "--cache"),
    ])
    def test_experiment_refuses_flags_it_would_drop(self, flags, message,
                                                    capsys, monkeypatch,
                                                    tmp_path):
        from repro.harness import experiments as exp

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(exp, "run_jobs", None)  # any call would fail
        assert main(["experiment", "R-T4", "--n", "16", *flags]) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err
        assert list(tmp_path.iterdir()) == []

    def test_inject_fault_refuses_mem_error(self, capsys, monkeypatch,
                                            tmp_path):
        """Memory-fault injection is gone: ``mem-error`` is an unknown
        fault mode, refused before any job runs."""
        from repro.harness import experiments as exp

        monkeypatch.setattr(exp, "run_jobs", None)  # any call would fail
        assert main(["experiment", "R-T4", "--cache", str(tmp_path),
                     "--inject-fault", "mem-error:0.1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "unknown fault mode 'mem-error'" in err

    @pytest.mark.parametrize("value", ["sleep:-1", "driver-kill:2.5"])
    def test_inject_fault_refuses_a_malformed_value(self, value, capsys,
                                                    monkeypatch, tmp_path):
        """A malformed fault value is refused before any job runs, as
        an unknown mode is."""
        from repro.harness import experiments as exp

        monkeypatch.setattr(exp, "run_jobs", None)  # any call would fail
        assert main(["experiment", "R-F1", "--cache", str(tmp_path),
                     "--inject-fault", value]) == 2
        out, err = capsys.readouterr()
        assert out == "" and value.partition(":")[0] in err

    def test_batch_refuses_the_removed_batch_workers_option(self, capsys):
        # lane groups always run in the driver: the sharding option is
        # gone, and argparse refuses it with its usage exit status
        with pytest.raises(SystemExit) as info:
            main(["batch", "daxpy", "--batch-workers", "2"])
        assert info.value.code == 2
        assert "--batch-workers" in capsys.readouterr().err

    def test_experiment_checks_every_id_before_running(self, capsys):
        assert main(["experiment", "R-T4", "R-T99"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unknown experiment 'R-T99'" in err

    def test_experiment_runs_every_id_in_one_sweep(self, capsys,
                                                   monkeypatch):
        from repro.harness import experiments as exp

        calls = []
        real = exp.run_jobs

        def counted(jobs, workers=1, cache_dir=None):
            calls.append(len(jobs))
            return real(jobs, workers, cache_dir)

        monkeypatch.setattr(exp, "run_jobs", counted)
        assert main(["experiment", "R-T4", "R-F5", "--n", "16"]) == 0
        out, err = capsys.readouterr()
        assert calls == [10 + 12]
        assert out.index("[R-T4]") < out.index("[R-F5]")
        # R-T4's checked hydro SMA job and R-F5's unchecked one share
        # one execution
        assert "experiment R-T4 R-F5: 0 cached, 21 executed" in err
        assert "1 coalesced" in err

    def test_cached_sweep_loads_no_simulator(self, tmp_path, capsys):
        """A fully cached ``experiment all`` in a fresh interpreter
        prints the cold run's tables without importing numpy, any
        machine, the kernel IR or the metrics package: planning, keys,
        cache reads and tables need none."""
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        cache = str(tmp_path / "cache")
        assert main(["experiment", "all", "--n", "16", "--cache",
                     cache]) == 0
        cold = capsys.readouterr().out
        probe = (
            "import json, sys\n"
            "from repro.cli import main\n"
            "code = main(['experiment', 'all', '--n', '16', '--cache', "
            f"{cache!r}, '--resume'])\n"
            "heavy = ['numpy', 'repro.core', 'repro.baseline', "
            "'repro.batch', 'repro.memory', 'repro.metrics', "
            "'repro.kernels.ir']\n"
            "print(json.dumps([code, [m for m in heavy "
            "if m in sys.modules]]), file=sys.stderr)\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        warm = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=120)
        *summary, verdict = warm.stderr.splitlines()
        assert json.loads(verdict) == [0, []], warm.stderr
        assert " 0 executed" in summary[-1]
        assert warm.stdout == cold

    def test_lazy_exports_survive_same_named_submodules(self):
        """``repro.kernels.lower_sma`` names a function and a module;
        loading the module first must not rebind the export to it."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        probe = (
            "import repro.kernels.lower_sma, repro.kernels.lower_vector\n"
            "import repro.kernels as kernels\n"
            "from repro.kernels.lower_sma import lower_sma\n"
            "from repro.kernels.lower_scalar import lower_scalar\n"
            "assert kernels.lower_sma is lower_sma\n"
            "assert kernels.lower_scalar is lower_scalar\n"
            "from repro import SMAMachine\n"
            "from repro.kernels import lower_vector\n"
            "from repro.core.machine import SMAMachine as machine\n"
            "assert SMAMachine is machine\n"
            "assert callable(lower_vector)\n"
            "assert 'lower_sma' in dir(kernels)\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
