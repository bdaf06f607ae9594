"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``kernels``
    List the workload suite with categories and descriptions.

``run KERNEL``
    Run one suite kernel on both machines (verified against the
    reference) and print the comparison.

``compile KERNEL``
    Print the lowered scalar / access / execute programs for a kernel.

``experiment ID [ID ...]``
    Run reconstructed experiments by identifier (``R-T1`` .. ``R-F8``,
    ``all``; spelling is forgiving — ``rf8`` selects ``R-F8``); figure
    experiments can add ``--plot`` for an ASCII chart,
    and ``--csv`` emits machine-readable output.  Every id is checked
    before anything runs, then all of them run as one sweep
    (``repro.harness.experiments.run_suite``): each distinct simulation
    job runs once, however many experiments list it, and a
    ``SweepStats`` summary goes to stderr.  ``--jobs N`` fans the
    sweep over one pool of N worker processes; ``--url URL`` sends it
    to a running ``serve`` instance in one submission (the server
    applies its own ``--timeout`` and ``--retries`` to each job).
    ``--cache DIR`` keeps every result in a digest-verified store keyed
    by kernel, config and code version, and a non-empty ``DIR`` needs
    ``--resume``, which continues an interrupted sweep (only uncached
    jobs execute).  The crash-safety flags: per-job ``--timeout`` (with
    ``--jobs 2`` or more), bounded ``--retries`` with pool recovery,
    and ``--inject-fault MODE[:VALUE]`` (with ``--cache``) to exercise
    the recovery paths on purpose (see ``repro.harness.faults``); CI
    uses it to prove kill-resume and corrupt-cache quarantine actually
    work.  ``--metrics`` captures a RunReport (stall attribution +
    counters) per job this process executes, so it refuses ``--jobs``
    of 2 or more, ``--cache`` and ``--url``; ``--metrics-dir DIR``
    persists them as JSON, and ``--n`` overrides the problem size (what
    the CI metrics smoke step uses).  Every job runs per point; the
    batch engine pays only on lane groups of hundreds of configs of one
    kernel, which ``batch KERNEL`` builds and the paper experiments do
    not.

``serve``
    Sweep-as-a-service: a stdlib asyncio HTTP server over the harness.
    Clients POST job specs; identical in-flight jobs coalesce onto one
    execution, the backlog is bounded (429 on overflow), results land
    in the same digest-verified store ``experiment --cache`` writes (an
    experiment cache directory serves as ``--store`` and back), and a
    job lost to a crashed or timed-out worker runs again from its start
    under ``--retries``.  See ``repro.service``.

``batch KERNEL``
    Dense (latency × queue-depth × bank-count) sweep of one kernel
    through the batch engine: thousands of timing configurations as
    numpy lanes in one process.  Eligible lane groups run through the
    program-specialized batch codegen stepper (saturation-collapsed,
    bit-identical to the per-point path; see ``repro.batch.emitter``),
    and a program the emitter refuses runs per point.  Grid axes take
    comma-separated values and inclusive ``LO-HI`` ranges
    (``--latencies 1,2,4-8``); output is one CSV row per grid point,
    with a points/second summary on stderr.

``report KERNEL``
    Where did every cycle go?  Runs the kernel on both machines with the
    metrics layer attached and prints the stall-attribution breakdown
    (see ``repro.metrics``); ``--out DIR`` writes JSON/CSV exports.

``timeline KERNEL``
    Per-cycle pipeline view of a kernel on the SMA (the decoupling made
    visible; see ``repro.trace.timeline``).

``profile KERNEL``
    cProfile one kernel's SMA simulation and attribute exclusive time to
    simulator components (access processor, stream engine, memory, ...);
    ``--scheduler`` picks the simulation loop (naive / event-horizon) so
    loop costs can be compared, ``--top K`` adds the K hottest individual
    functions.

``verify KERNEL``
    Check a kernel's per-address write sequences on each machine against
    sequential semantics (the strongest correctness check; see
    ``repro.verify``).

``parse FILE``
    Parse a kernel-source file (see ``repro.kernels.lang``), run it on
    both machines with random data, and verify against the reference.

Examples::

    python -m repro kernels
    python -m repro run hydro --n 512 --latency 16
    python -m repro compile tridiag
    python -m repro experiment R-F1 --plot
    python -m repro timeline tridiag --n 32 --last 60
    python -m repro parse mykernel.k --n 128
"""

from __future__ import annotations

import argparse
import sys

# module-level imports are what planning, keying and a cache probe need:
# each command imports the compilers, machines and numpy it runs where it
# runs them, so a warm-cache ``experiment`` loads no simulator
from .config import MemoryConfig, QueueConfig, ScalarConfig, SMAConfig
from .errors import KernelError
from .harness import EXPERIMENTS, run_suite
from .harness.plot import render_plot
from .kernels import all_kernels, get_kernel


def _configs(latency: int):
    mem = MemoryConfig(latency=latency, bank_busy=max(1, latency // 2))
    return (
        SMAConfig(memory=mem, queues=QueueConfig()),
        ScalarConfig(memory=mem),
    )


def cmd_kernels(_args) -> int:
    width = max(len(s.name) for s in all_kernels())
    for spec in all_kernels():
        print(f"{spec.name:<{width}}  [{spec.category:<10}] "
              f"{spec.description}")
    return 0


def cmd_run(args) -> int:
    from .harness.runner import compare_spec

    spec = get_kernel(args.kernel)
    sma_cfg, scalar_cfg = _configs(args.latency)
    result = compare_spec(
        spec, args.n, sma_config=sma_cfg, scalar_config=scalar_cfg
    )
    print(f"kernel   {spec.name} (n={result.n}, latency={args.latency})")
    print(f"scalar   {result.scalar.cycles} cycles")
    print(f"SMA      {result.sma.cycles} cycles")
    print(f"speedup  {result.speedup:.2f}x")
    print("\nSMA detail:")
    print(result.sma.result.summary())
    print("\n(both runs verified word-exact against the reference)")
    return 0


def cmd_compile(args) -> int:
    from .kernels import lower_scalar, lower_sma

    spec = get_kernel(args.kernel)
    kernel, _ = spec.instantiate(args.n)
    print(kernel.pretty())
    scalar = lower_scalar(kernel)
    sma = lower_sma(kernel)
    print("\n--- scalar program ---")
    print(scalar.program.listing())
    print("\n--- SMA access program ---")
    print(sma.access_program.listing())
    print("\n--- SMA execute program ---")
    print(sma.execute_program.listing())
    return 0


def _experiment_id_summary() -> str:
    """Render the experiment registry as compact help text, e.g.
    ``R-T1..R-T7, R-F1..R-F9`` — derived from ``EXPERIMENTS`` so the CLI
    help can never drift from the registered set."""
    groups: dict[str, list[int]] = {}
    odd: list[str] = []
    for eid in EXPERIMENTS:
        head, _, tail = eid.rpartition("-")
        stem, digits = tail.rstrip("0123456789"), tail[len(tail.rstrip("0123456789")):]
        if not digits:
            odd.append(eid)
            continue
        groups.setdefault(f"{head}-{stem}", []).append(int(digits))
    parts = []
    for prefix, nums in groups.items():
        nums.sort()
        if len(nums) > 1 and nums == list(range(nums[0], nums[-1] + 1)):
            parts.append(f"{prefix}{nums[0]}..{prefix}{nums[-1]}")
        else:
            parts.extend(f"{prefix}{k}" for k in nums)
    return ", ".join(parts + sorted(odd))


def _normalize_experiment_id(raw: str) -> str:
    """Map user spellings onto canonical experiment ids: ``rf8``,
    ``r-f8`` and ``R-F8`` all select ``R-F8``."""
    folded = raw.replace("-", "").replace("_", "").upper()
    for experiment_id in EXPERIMENTS:
        if experiment_id.replace("-", "").upper() == folded:
            return experiment_id
    return raw


def _experiment_refusal(args) -> str | None:
    """Why the ``experiment`` flags cannot run together, or ``None``."""
    from .harness.store import ResultStore

    if args.timeout is not None and args.jobs < 2:
        return ("--timeout needs --jobs 2 or more: a serial sweep runs "
                "each job in this process and cannot interrupt it")
    if args.inject_fault and not args.cache:
        return ("--inject-fault needs --cache: the fault's once-only "
                "token file lives in the cache")
    if args.metrics and args.url:
        return (f"--metrics cannot capture the jobs the service at "
                f"{args.url} runs; drop one of them")
    if args.metrics and args.jobs >= 2:
        return ("--metrics captures reports in this process only, and "
                f"--jobs {args.jobs} runs the jobs in pool workers; "
                "drop one of them")
    if args.metrics and args.cache:
        return ("--metrics cannot share --cache: a cached result carries "
                "no report, and a captured run would file its report "
                "fields under the keys a plain run reads; drop one of "
                "them")
    if args.cache and not args.resume:
        held = len(ResultStore(args.cache))
        if held:
            return (f"cache {args.cache} already holds {held} result(s); "
                    "pass --resume to continue the sweep or point "
                    "--cache at a fresh directory")
    return None


def cmd_experiment(args) -> int:
    from contextlib import nullcontext
    from pathlib import Path

    from .harness import harness_policy
    from .harness.faults import FaultSpec

    if "all" in args.ids:
        ids = list(EXPERIMENTS)
    else:
        ids = [_normalize_experiment_id(raw) for raw in args.ids]
    unknown = [eid for eid in ids if eid not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment {unknown[0]!r}; "
              f"known: {sorted(EXPERIMENTS)} or 'all'", file=sys.stderr)
        return 2
    refusal = _experiment_refusal(args)
    if refusal is not None:
        print(refusal, file=sys.stderr)
        return 2
    inject = None
    if args.inject_fault:
        try:
            # the token file makes the fault fire once per sweep
            # even across pool workers (and across --resume reruns)
            inject = FaultSpec.parse(
                args.inject_fault,
                token_path=str(Path(args.cache) / ".fault-token"),
            )
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    service_failure: tuple | type = ()  # nothing to catch without --url
    if args.url:
        from .service.client import ServiceClient, ServiceError

        with ServiceClient(args.url) as probe:
            alive = probe.healthz()
        if not alive:
            print(f"no sweep service answering at {args.url}",
                  file=sys.stderr)
            return 2
        service_failure = ServiceError

    params = {} if args.n is None else {"n": args.n}
    capture = nullcontext(None)
    if args.metrics:
        from .metrics import capture_reports

        capture = capture_reports(args.metrics_dir)
    try:
        with capture as collector, harness_policy(
            timeout=args.timeout, retries=args.retries, inject=inject,
            service_url=args.url,
        ) as stats:
            tables = run_suite(ids, jobs=args.jobs, cache_dir=args.cache,
                               **params)
    except service_failure as exc:
        print(f"service run failed: {exc}", file=sys.stderr)
        return 1
    for experiment_id, table in zip(ids, tables):
        if args.csv:
            print(table.to_csv(), end="")
        else:
            print(table.to_text())
        if args.plot and experiment_id.startswith("R-F"):
            try:
                print()
                print(render_plot(table))
            except ValueError as exc:
                print(f"  (no plot: {exc})")
        print()
    if collector is not None:
        where = (f" under {collector.directory}"
                 if collector.directory is not None else "")
        print(f"captured {len(collector.reports)} RunReport(s){where}")
    print(f"experiment {' '.join(args.ids)}: {stats.summary()}",
          file=sys.stderr)
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from .harness.parallel import HarnessPolicy
    from .harness.store import ResultStore
    from .service import SweepServer

    policy = HarnessPolicy(timeout=args.timeout, retries=args.retries)
    server = SweepServer(
        ResultStore(args.store),
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_backlog=args.max_backlog,
        policy=policy,
    )

    async def serve() -> None:
        host, port = await server.start()
        # the bound URL goes to stdout (line-buffered) so wrappers and
        # the CI smoke can discover a --port 0 allocation
        print(f"serving on http://{host}:{port}", flush=True)
        await server.serve_forever()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("interrupted; store is consistent (atomic writes)",
              file=sys.stderr)
    return 0


def _parse_axis(spec: str) -> tuple[int, ...]:
    """Parse one grid axis: comma-separated positive ints and inclusive
    ``LO-HI`` ranges, e.g. ``"1,2,4-8,16"``."""
    values: list[int] = []
    for item in spec.split(","):
        item = item.strip()
        lo, dash, hi = item.partition("-")
        try:
            if dash:
                start, stop = int(lo), int(hi)
                if start > stop:
                    raise ValueError
                values.extend(range(start, stop + 1))
            else:
                values.append(int(item))
        except ValueError:
            raise ValueError(
                f"bad grid axis item {item!r}; expected an int or LO-HI"
            ) from None
    if any(v < 1 for v in values):
        raise ValueError(f"grid axis values must be >= 1: {spec!r}")
    return tuple(values)


def cmd_batch(args) -> int:
    import time

    from .harness import harness_policy
    from .harness.jobs import BatchJob
    from .harness.parallel import run_jobs

    try:
        get_kernel(args.kernel)  # fail fast on an unknown kernel name
        batch_job = BatchJob(
            args.kernel, args.n, args.seed, machine=args.machine,
            latencies=_parse_axis(args.latencies),
            queue_depths=_parse_axis(args.queue_depths),
            bank_counts=_parse_axis(args.banks),
            check=args.check,
        )
    except (KeyError, ValueError, KernelError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    jobs = batch_job.expand()
    start = time.perf_counter()
    with harness_policy() as stats:
        results = run_jobs(jobs, cache_dir=args.cache, backend="batch")
    wall = time.perf_counter() - start
    print("latency,queue_depth,banks,cycles,memory_reads,memory_writes,"
          "mean_outstanding_loads")
    i = 0
    for latency in batch_job.latencies:
        for depth in batch_job.queue_depths:
            for banks in batch_job.bank_counts:
                res = results[i]
                print(f"{latency},{depth},{banks},{res['cycles']},"
                      f"{res['memory_reads']},{res['memory_writes']},"
                      f"{res['mean_outstanding_loads']:.4f}")
                i += 1
    rate = len(jobs) / wall if wall > 0 else float("inf")
    print(f"batch {args.kernel} (n={batch_job.n}): {len(jobs)} grid "
          f"point(s) in {wall:.2f}s ({rate:.0f} points/s); "
          f"{stats.summary()}", file=sys.stderr)
    return 0


def _sma_machine(kernel_name: str, n: int, latency: int):
    """Build one suite kernel's loaded SMA machine at the CLI's config
    for ``latency``; returns ``(machine, spec)``.  ``timeline`` and
    ``profile`` both build through here."""
    from dataclasses import replace as _replace

    from .core import SMAMachine
    from .harness.runner import _fit_memory, _load_inputs
    from .kernels import lower_sma

    spec = get_kernel(kernel_name)
    kernel, inputs = spec.instantiate(n)
    lowered = lower_sma(kernel)
    sma_cfg, _ = _configs(latency)
    cfg = _replace(sma_cfg, memory=_fit_memory(sma_cfg.memory,
                                               lowered.layout))
    machine = SMAMachine(lowered.access_program, lowered.execute_program,
                         cfg)
    _load_inputs(machine, lowered.layout, kernel, inputs)
    return machine, spec


def cmd_report(args) -> int:
    from pathlib import Path

    from .harness.runner import run_on_scalar, run_on_sma

    spec = get_kernel(args.kernel)
    kernel, inputs = spec.instantiate(args.n)
    sma_cfg, scalar_cfg = _configs(args.latency)
    runs = []
    if args.machine in ("both", "sma"):
        runs.append(run_on_sma(kernel, inputs, sma_cfg, metrics=True))
    if args.machine in ("both", "scalar"):
        runs.append(run_on_scalar(kernel, inputs, scalar_cfg, metrics=True))
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    for run in runs:
        report = run.report
        report.n = args.n
        print(f"== {report.machine} · {spec.name} "
              f"(n={args.n}, latency={args.latency}) ==")
        print(report.breakdown_text())
        print()
        if out_dir is not None:
            stem = f"runreport-{report.machine}-{spec.name}"
            (out_dir / f"{stem}.json").write_text(report.to_json() + "\n")
            (out_dir / f"{stem}.csv").write_text(report.to_csv())
    if out_dir is not None:
        print(f"wrote {2 * len(runs)} file(s) under {out_dir}")
    return 0


def cmd_timeline(args) -> int:
    from .trace import TimelineRecorder

    machine, spec = _sma_machine(args.kernel, args.n, args.latency)
    recorder = TimelineRecorder()
    result = machine.run(observer=recorder)
    print(f"{spec.name}: {result.cycles} cycles "
          f"(showing {args.first}..{args.last})\n")
    print(recorder.render(args.first, args.last))
    return 0


#: component attribution for ``repro profile``: simulator source file ->
#: human-readable component name (anything else lands in "other"; the
#: batch engine's generated ``<sma-batch-codegen:...>`` frames are matched
#: by filename in :func:`profile_attribution`)
_PROFILE_COMPONENTS = {
    "access_processor.py": "access processor",
    "execute_processor.py": "execute processor",
    "descriptors.py": "stream engine",
    "store_unit.py": "store unit",
    "banks.py": "banked memory",
    "main_memory.py": "main memory",
    "operand_queue.py": "operand queues",
    "queue_file.py": "operand queues",
    "machine.py": "scheduler core",
    "report.py": "metrics",
}


def profile_attribution(stats) -> dict[str, float]:
    """Fold a :class:`pstats.Stats` table into per-component exclusive
    time (seconds), keyed by the names in ``_PROFILE_COMPONENTS``."""
    import os

    totals: dict[str, float] = {}
    for (filename, _lineno, _name), entry in stats.stats.items():
        tottime = entry[2]
        if filename.startswith("<sma-batch-codegen"):
            component = "batch generated code"
        else:
            component = _PROFILE_COMPONENTS.get(
                os.path.basename(filename), "other"
            )
        totals[component] = totals.get(component, 0.0) + tottime
    return totals


def cmd_profile(args) -> int:
    import cProfile
    import os
    import pstats
    import time

    machine, spec = _sma_machine(args.kernel, args.n, args.latency)

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    result = machine.run(scheduler=args.scheduler)
    profiler.disable()
    wall = time.perf_counter() - start

    rate = result.cycles / wall if wall > 0 else float("inf")
    print(f"== profile · {spec.name} (n={args.n}, "
          f"latency={args.latency}, scheduler={args.scheduler}) ==")
    print(f"cycles {result.cycles}   wall {wall:.3f}s   "
          f"{rate / 1e6:.2f} Mcycles/s\n")

    stats = pstats.Stats(profiler)
    totals = profile_attribution(stats)
    grand = sum(totals.values()) or 1.0
    print(f"{'component':<20} {'tottime':>9} {'share':>7}")
    for component, tottime in sorted(
        totals.items(), key=lambda item: item[1], reverse=True
    ):
        print(f"{component:<20} {tottime:>8.4f}s "
              f"{100.0 * tottime / grand:>6.1f}%")

    if args.top:
        print(f"\nhottest {args.top} function(s) by exclusive time:")
        stats.sort_stats("tottime")
        width = len(str(args.top))
        shown = 0
        for key in stats.fcn_list:
            filename, lineno, name = key
            tottime = stats.stats[key][2]
            location = f"{os.path.basename(filename)}:{lineno}"
            print(f"  {shown + 1:>{width}}. {tottime:>8.4f}s  "
                  f"{name}  ({location})")
            shown += 1
            if shown >= args.top:
                break
    return 0


def cmd_verify(args) -> int:
    from .verify import verify_kernel_writes

    spec = get_kernel(args.kernel)
    kernel, inputs = spec.instantiate(args.n)
    machines = (
        [args.machine] if args.machine != "all"
        else ["sma", "sma-nostream", "scalar"]
    )
    failed = False
    for machine in machines:
        mismatches = verify_kernel_writes(kernel, inputs, machine)
        if mismatches:
            failed = True
            print(f"{machine}: {len(mismatches)} write-sequence "
                  "mismatch(es) against sequential semantics:")
            for mismatch in mismatches[:10]:
                print(f"  {mismatch}")
        else:
            print(f"{machine}: per-address write sequences match "
                  "sequential semantics")
    return 1 if failed else 0


def cmd_parse(args) -> int:
    from pathlib import Path

    import numpy as np

    from .harness.runner import run_on_scalar, run_on_sma
    from .kernels import parse_kernel, run_reference

    source = Path(args.file).read_text()
    kernel = parse_kernel(source, **{args.param: args.n})
    print(kernel.pretty())
    rng = np.random.default_rng(args.seed)
    inputs = {
        decl.name: rng.uniform(0.1, 1.0, decl.size)
        for decl in kernel.arrays
    }
    golden = run_reference(kernel, inputs)
    sma = run_on_sma(kernel, inputs)
    scalar = run_on_scalar(kernel, inputs)
    for name, want in golden.items():
        for run in (sma, scalar):
            if not np.array_equal(run.outputs[name], want):
                print(f"MISMATCH: {run.machine} array {name}",
                      file=sys.stderr)
                return 1
    print(f"\nverified on both machines; scalar {scalar.cycles} cycles, "
          f"SMA {sma.cycles} cycles ({scalar.cycles / sma.cycles:.2f}x)")
    return 0


class _SchedulerNames:
    """``profile --scheduler`` choices: :attr:`SMAMachine.SCHEDULERS`,
    read only when argparse checks a value or formats help, so building
    the parser loads no machine (the option's ``metavar`` keeps
    ``add_argument`` from listing them)."""

    def __contains__(self, name) -> bool:
        return name in self._names()

    def __iter__(self):
        return iter(self._names())

    @staticmethod
    def _names() -> list[str]:
        from .core import SMAMachine

        return list(SMAMachine.SCHEDULERS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Structured Memory Access architecture reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("kernels", help="list the workload suite")

    p_run = sub.add_parser("run", help="run one kernel on both machines")
    p_run.add_argument("kernel")
    p_run.add_argument("--n", type=int, default=256)
    p_run.add_argument("--latency", type=int, default=8)

    p_compile = sub.add_parser("compile", help="show lowered programs")
    p_compile.add_argument("kernel")
    p_compile.add_argument("--n", type=int, default=16)

    p_exp = sub.add_parser("experiment", help="run experiments by id")
    p_exp.add_argument("ids", nargs="+",
                       help=f"{_experiment_id_summary()}, or 'all'")
    p_exp.add_argument("--plot", action="store_true",
                       help="ASCII chart for figure experiments")
    p_exp.add_argument("--csv", action="store_true",
                       help="emit CSV instead of the aligned table")
    p_exp.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="fan the sweep's distinct jobs over one pool "
                            "of N worker processes (default 1: serial, "
                            "deterministic)")
    p_exp.add_argument("--cache", default=None, metavar="DIR",
                       help="cache job results under DIR, one "
                            "digest-verified file per (kernel, config, "
                            "code version); a non-empty DIR needs "
                            "--resume")
    p_exp.add_argument("--resume", action="store_true",
                       help="continue into a non-empty cache (only "
                            "uncached jobs execute)")
    p_exp.add_argument("--n", type=int, default=None,
                       help="override the experiments' problem size")
    p_exp.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-job wall-clock timeout; needs --jobs 2 "
                            "or more")
    p_exp.add_argument("--retries", type=int, default=0, metavar="K",
                       help="retry a failed/timed-out/killed job up to "
                            "K times (default 0)")
    p_exp.add_argument("--inject-fault", default=None,
                       metavar="MODE[:VALUE]",
                       help="inject a fault to exercise recovery (needs "
                            "--cache): worker-kill, cache-corrupt, "
                            "driver-kill:k, sleep:s")
    p_exp.add_argument("--url", default=None,
                       help="run the jobs on the 'repro serve' instance "
                            "at this base URL, e.g. "
                            "http://127.0.0.1:8141")
    p_exp.add_argument("--metrics", action="store_true",
                       help="capture a RunReport (stall attribution + "
                            "counters) for every executed job")
    p_exp.add_argument("--metrics-dir", default=None, metavar="DIR",
                       help="write captured RunReports as JSON under DIR")

    p_serve = sub.add_parser(
        "serve",
        help="sweep-as-a-service: asyncio job server with request "
             "coalescing and a digest-verified result store",
    )
    p_serve.add_argument("--store", required=True, metavar="DIR",
                         help="result store root, created if missing; "
                              "a 'repro experiment --cache' directory "
                              "serves as is")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="listen port (default 0: kernel-assigned; "
                              "the bound URL is printed on stdout)")
    p_serve.add_argument("--workers", type=int, default=2, metavar="N",
                         help="scheduler fleet size and process-pool "
                              "width (default 2)")
    p_serve.add_argument("--max-backlog", type=int, default=256,
                         metavar="N",
                         help="distinct jobs in flight before further "
                              "submissions get 429 (default 256)")
    p_serve.add_argument("--timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per-attempt wall-clock timeout")
    p_serve.add_argument("--retries", type=int, default=2, metavar="K",
                         help="retry a failed/timed-out/killed job up "
                              "to K times (default 2)")

    p_batch = sub.add_parser(
        "batch",
        help="dense latency × queue-depth × bank-count sweep of one "
             "kernel through the SoA batch engine",
    )
    p_batch.add_argument("kernel")
    p_batch.add_argument("--n", type=int, default=64)
    p_batch.add_argument("--seed", type=int, default=12345)
    p_batch.add_argument("--machine", default="sma",
                         choices=["sma", "sma-nostream"])
    p_batch.add_argument("--latencies", default="1,2,4,8,16,32,64",
                         metavar="AXIS",
                         help="comma-separated ints / LO-HI ranges "
                              "(default '1,2,4,8,16,32,64')")
    p_batch.add_argument("--queue-depths", default="8", metavar="AXIS",
                         help="queue-depth axis (default '8')")
    p_batch.add_argument("--banks", default="8", metavar="AXIS",
                         help="bank-count axis (default '8')")
    p_batch.add_argument("--check", action="store_true",
                         help="verify every lane word-exact against the "
                              "reference interpreter")
    p_batch.add_argument("--cache", default=None, metavar="DIR",
                         help="flush per-point results under DIR (same "
                              "keys as the scalar path)")

    p_report = sub.add_parser(
        "report",
        help="stall-attribution RunReport for one kernel "
             "(where did every cycle go?)",
    )
    p_report.add_argument("kernel")
    p_report.add_argument("--n", type=int, default=256)
    p_report.add_argument("--latency", type=int, default=8)
    p_report.add_argument("--machine", default="both",
                          choices=["both", "sma", "scalar"])
    p_report.add_argument("--out", default=None, metavar="DIR",
                          help="also write JSON + CSV exports under DIR")

    p_timeline = sub.add_parser(
        "timeline", help="per-cycle pipeline view of a kernel on the SMA"
    )
    p_timeline.add_argument("kernel")
    p_timeline.add_argument("--n", type=int, default=32)
    p_timeline.add_argument("--latency", type=int, default=8)
    p_timeline.add_argument("--first", type=int, default=0)
    p_timeline.add_argument("--last", type=int, default=40)

    p_profile = sub.add_parser(
        "profile",
        help="cProfile one kernel's simulation and attribute exclusive "
             "time to simulator components",
    )
    p_profile.add_argument("kernel")
    p_profile.add_argument("--n", type=int, default=256)
    p_profile.add_argument("--latency", type=int, default=8)
    p_profile.add_argument("--scheduler", default="event-horizon",
                           choices=_SchedulerNames(), metavar="LOOP",
                           help="simulation loop to profile, one of "
                                "%(choices)s (default: event-horizon)")
    p_profile.add_argument("--top", type=int, default=0, metavar="K",
                           help="also list the K hottest functions")

    p_verify = sub.add_parser(
        "verify",
        help="check a kernel's per-address write sequences against "
             "sequential semantics",
    )
    p_verify.add_argument("kernel")
    p_verify.add_argument("--n", type=int, default=64)
    p_verify.add_argument("--machine", default="all",
                          choices=["all", "sma", "sma-nostream", "scalar"])

    p_parse = sub.add_parser("parse", help="parse and run a kernel source file")
    p_parse.add_argument("file")
    p_parse.add_argument("--n", type=int, default=64)
    p_parse.add_argument("--param", default="n",
                         help="name the --n value binds (default 'n')")
    p_parse.add_argument("--seed", type=int, default=12345)

    return parser


_COMMANDS = {
    "kernels": cmd_kernels,
    "run": cmd_run,
    "compile": cmd_compile,
    "experiment": cmd_experiment,
    "serve": cmd_serve,
    "batch": cmd_batch,
    "report": cmd_report,
    "timeline": cmd_timeline,
    "profile": cmd_profile,
    "verify": cmd_verify,
    "parse": cmd_parse,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
