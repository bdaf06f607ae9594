"""The reconstructed evaluation: one function per table / figure.

Each experiment (see DESIGN.md §3 for the index and EXPERIMENTS.md for
measured-vs-expected) produces a :class:`repro.harness.tables.Table`;
the ``benchmarks/`` tree has one pytest-benchmark module per experiment
that runs it through :func:`run_experiment` and prints the table.

Every experiment is a generator in two pure halves: it first
*declares* its sweep as one list of :class:`repro.harness.jobs.Job`
descriptions and yields it (``results = yield joblist``), then
*assembles* its table from the measurement dicts it is sent back, in
job order.  Only :func:`run_suite` drives the generators: it plans every
requested experiment, hands the concatenated job lists to one
:func:`repro.harness.parallel.run_jobs` call, and sends each experiment
its slice of the results.  ``run_jobs`` runs each distinct job once, so
a job that several experiments share is simulated once per suite.
:func:`run_experiment` is the one-experiment case.  With the defaults
(``jobs=1``, no cache) everything runs serially in-process, so results
are deterministic for CI.  Where the jobs run is decided by ``run_jobs``
and the ambient :class:`~repro.harness.parallel.HarnessPolicy` alone: a
policy ``service_url`` (``repro experiment --url``) sends the suite's
uncached jobs to a ``repro serve`` instance in one submission.

Identifiers:

========  ===========================================================
R-T1      kernel characterization (instruction mix, operand traffic)
R-T2      cycles & speedup, SMA vs scalar baseline
R-T3      SMA vs scalar-with-data-cache
R-T4      loss-of-decoupling accounting
R-T5      SMA vs hardware prefetching (extension)
R-T6      SMA vs vector machine (extension)
R-F1      speedup vs memory latency
R-F2      speedup vs queue depth
R-F3      average slip (run-ahead) per kernel
R-F4      throughput vs number of memory banks
R-F5      ablation: structured descriptors vs per-element access
R-F6      queue occupancy over time
R-F7      memory-port bandwidth ablation (extension)
R-F8      multiprocessor interference (extension)
R-T7      speculative AP vs prediction accuracy (extension)
R-F9      speculative AP run-ahead depth sweep (extension)
========  ===========================================================

Sweeps keep the classic era relationship ``bank_busy = latency / 2``
(memory cycle time tracks access time) unless a knob says otherwise.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Generator, Sequence

from ..config import (
    CacheConfig,
    MemoryConfig,
    PrefetchConfig,
    QueueConfig,
    ScalarConfig,
    SMAConfig,
    SpeculationConfig,
)
from ..kernels import all_kernels
from .jobs import Job
from .parallel import run_jobs
from .tables import Table

#: an experiment's generator: yields its job list once, is sent the
#: results in job order, and returns its table
Plan = Generator[list[Job], list[dict], Table]

#: kernels used where a sweep would be too expensive over the full suite
STREAMING_REPS = ("hydro", "daxpy", "state_eqn", "first_diff")
LATENCY_REPS = ("hydro", "daxpy", "inner_product", "tridiag")
BANK_REPS = ("daxpy", "saxpy_strided", "strided_dot", "stride8_copy")
CACHE_REPS = ("hydro", "daxpy", "inner_product", "pic_gather", "stencil2d",
              "integrate")
LOD_REPS = ("computed_gather", "pic_gather", "pic_scatter", "tridiag",
            "hydro")
ABLATION_REPS = ("hydro", "daxpy", "state_eqn", "first_diff", "conv4",
                 "inner_product")


def _memory(latency: int, banks: int = 8) -> MemoryConfig:
    return MemoryConfig(
        latency=latency, bank_busy=max(1, latency // 2), num_banks=banks
    )


def _configs(
    latency: int = 8, banks: int = 8, queue_depth: int = 8
) -> tuple[SMAConfig, ScalarConfig]:
    mem = _memory(latency, banks)
    queues = QueueConfig(
        load_queue_depth=queue_depth,
        store_data_depth=queue_depth,
        store_addr_depth=queue_depth,
        index_queue_depth=queue_depth,
    )
    return SMAConfig(memory=mem, queues=queues), ScalarConfig(memory=mem)


# ---------------------------------------------------------------------------
# R-T1: kernel characterization
# ---------------------------------------------------------------------------


def table1_mix(n: int = 256) -> Plan:
    """Instruction mix per kernel: how the SMA split redistributes work.

    For the scalar machine we report dynamic instructions and memory
    operations; for the SMA, dynamic AP/EP instructions and the static
    stream inventory the compiler extracted.
    """
    t = Table(
        "R-T1",
        f"Kernel characterization (n={n})",
        ("kernel", "category", "scalar_instr", "loads", "stores",
         "ap_instr", "ep_instr", "streams", "gathers", "carried", "lod_refs"),
    )
    sma_cfg, scalar_cfg = _configs()
    specs = all_kernels()
    joblist = []
    for spec in specs:
        joblist.append(
            Job("scalar", spec.name, n, scalar_config=scalar_cfg)
        )
        joblist.append(Job("sma", spec.name, n, sma_config=sma_cfg))
    results = yield joblist
    for spec, scalar, sma in zip(specs, results[::2], results[1::2]):
        t.add_row(
            spec.name,
            spec.category,
            scalar["instructions"],
            scalar["loads"],
            scalar["stores"],
            sma["ap_instructions"],
            sma["ep_instructions"],
            sma["load_streams"] + sma["store_streams"],
            sma["gather_streams"] + sma["scatter_streams"],
            sma["carried_refs"],
            sma["computed_refs"],
        )
    t.note("streams/gathers/carried/lod_refs are static per innermost loop")
    return t


# ---------------------------------------------------------------------------
# R-T2: headline speedup table
# ---------------------------------------------------------------------------


def table2_speedup(
    n: int = 256, latency: int = 8,
) -> Plan:
    """SMA vs scalar baseline over the whole suite (the headline result)."""
    t = Table(
        "R-T2",
        f"SMA vs scalar baseline (n={n}, latency={latency})",
        ("kernel", "category", "scalar_cycles", "sma_cycles", "speedup",
         "mean_slip", "lod_events"),
    )
    sma_cfg, scalar_cfg = _configs(latency=latency)
    specs = all_kernels()
    joblist = []
    for spec in specs:
        joblist.append(
            Job("scalar", spec.name, n, scalar_config=scalar_cfg, check=True)
        )
        joblist.append(
            Job("sma", spec.name, n, sma_config=sma_cfg, check=True)
        )
    results = yield joblist
    for spec, scalar, sma in zip(specs, results[::2], results[1::2]):
        t.add_row(
            spec.name,
            spec.category,
            scalar["cycles"],
            sma["cycles"],
            scalar["cycles"] / sma["cycles"],
            sma["mean_outstanding_loads"],
            sma["lod_events"],
        )
    t.note("every run is verified word-exact against the IR reference")
    return t


# ---------------------------------------------------------------------------
# R-T3: SMA vs data cache
# ---------------------------------------------------------------------------


def table3_cache(
    n: int = 256,
    cache_sizes: Sequence[int] = (128, 256, 512, 1024, 4096),
    kernels: Sequence[str] = CACHE_REPS,
) -> Plan:
    """Does a conventional data cache close the gap?

    Streaming kernels have no reuse, so the cache only helps through its
    line-fill prefetch effect; high-reuse or small-footprint kernels let
    the cache catch up.
    """
    t = Table(
        "R-T3",
        f"SMA vs scalar+cache (n={n})",
        ("kernel", "sma_cycles", "scalar_cycles",
         *[f"cache{s}w" for s in cache_sizes],
         *[f"hit%_{s}w" for s in cache_sizes]),
    )
    sma_cfg, scalar_cfg = _configs()
    stride = 2 + len(cache_sizes)  # jobs per kernel
    joblist = []
    for name in kernels:
        joblist.append(Job("sma", name, n, sma_config=sma_cfg))
        joblist.append(Job("scalar", name, n, scalar_config=scalar_cfg))
        for size in cache_sizes:
            cached_cfg = ScalarConfig(
                memory=scalar_cfg.memory,
                cache=CacheConfig(size_words=size, line_words=4,
                                  associativity=2),
            )
            joblist.append(Job("scalar", name, n, scalar_config=cached_cfg))
    results = yield joblist
    for i, name in enumerate(kernels):
        sma, scalar, *cached = results[i * stride:(i + 1) * stride]
        t.add_row(
            name, sma["cycles"], scalar["cycles"],
            *[c["cycles"] for c in cached],
            *[100.0 * c["cache_hit_rate"] for c in cached],
        )
    t.note("cache: 4-word lines, 2-way, LRU, write-back/write-allocate")
    return t


# ---------------------------------------------------------------------------
# R-T4: loss of decoupling
# ---------------------------------------------------------------------------


def table4_lod(
    n: int = 256, kernels: Sequence[str] = LOD_REPS,
) -> Plan:
    """Where decoupling collapses: EP-fed addresses and branches force the
    AP to the EP's speed; structured gathers (index from *memory*) do not."""
    t = Table(
        "R-T4",
        f"Loss-of-decoupling accounting (n={n})",
        ("kernel", "cycles", "lod_events", "lod_stall_cycles", "lod_frac",
         "speedup_vs_scalar"),
    )
    sma_cfg, scalar_cfg = _configs()
    joblist = []
    for name in kernels:
        joblist.append(Job("sma", name, n, sma_config=sma_cfg, check=True))
        joblist.append(
            Job("scalar", name, n, scalar_config=scalar_cfg, check=True)
        )
    results = yield joblist
    for name, sma, scalar in zip(kernels, results[::2], results[1::2]):
        t.add_row(
            name,
            sma["cycles"],
            sma["lod_events"],
            sma["lod_stall_cycles"],
            sma["lod_stall_cycles"] / sma["cycles"],
            scalar["cycles"] / sma["cycles"],
        )
    t.note("lod = AP waiting on EAQ/EBQ (EP-computed address or branch)")
    return t


# ---------------------------------------------------------------------------
# R-T5: SMA vs hardware prefetching (extension experiment)
# ---------------------------------------------------------------------------

PREFETCH_REPS = ("daxpy", "saxpy_strided", "stride8_copy", "hydro",
                 "pic_gather", "tridiag")


def table5_prefetch(
    n: int = 256, kernels: Sequence[str] = PREFETCH_REPS,
) -> Plan:
    """Extension: how close does *speculative* hardware prefetching get to
    the SMA's *exact* (descriptor-driven) prefetching?

    Compares the scalar baseline with (a) a plain cache, (b) one-block
    lookahead, and (c) a PC-indexed reference prediction table, against
    the SMA.  Expected shape: the RPT covers nearly all strided misses
    but still trails the SMA on unit-stride streams (blocking hit time,
    one-line lookahead); OBL actively *hurts* on non-unit strides
    (pollution); only the bank-free cache timing model lets the RPT edge
    past the bank-limited SMA on the pathological stride-8 kernel.
    """
    t = Table(
        "R-T5",
        f"SMA vs hardware prefetching (n={n})",
        ("kernel", "uncached", "cache", "obl", "rpt", "sma",
         "rpt_coverage"),
    )
    sma_cfg, scalar_cfg = _configs()
    cache = CacheConfig()
    variants = (
        scalar_cfg,
        ScalarConfig(memory=scalar_cfg.memory, cache=cache),
        ScalarConfig(memory=scalar_cfg.memory, cache=cache,
                     prefetch=PrefetchConfig("obl")),
        ScalarConfig(memory=scalar_cfg.memory, cache=cache,
                     prefetch=PrefetchConfig("stride", table_size=16,
                                             degree=2)),
    )
    stride = len(variants) + 1  # jobs per kernel
    joblist = []
    for name in kernels:
        for cfg in variants:
            joblist.append(Job("scalar", name, n, scalar_config=cfg))
        joblist.append(Job("sma", name, n, sma_config=sma_cfg))
    results = yield joblist
    for i, name in enumerate(kernels):
        uncached, plain, obl, rpt, sma = results[i * stride:(i + 1) * stride]
        t.add_row(
            name, uncached["cycles"], plain["cycles"], obl["cycles"],
            rpt["cycles"], sma["cycles"], rpt["cache_coverage"],
        )
    t.note("rpt: PC-indexed reference prediction table, degree 2")
    t.note("cache timing has no bank model: bandwidth-bound kernels "
           "slightly favour the prefetcher")
    return t


# ---------------------------------------------------------------------------
# R-T6: SMA vs vector machine (extension)
# ---------------------------------------------------------------------------

VECTOR_REPS = ("hydro", "daxpy", "inner_product", "stencil2d",  # vectorize
               "tridiag", "linear_rec", "first_sum",            # recurrences
               "pic_gather", "pic_scatter", "computed_gather")  # irregular


def table6_vector(
    n: int = 256, kernels: Sequence[str] = VECTOR_REPS,
) -> Plan:
    """Extension: the era's second comparator — a CRAY-flavoured vector
    machine with perfect chaining (charitable: free scalar bookkeeping).

    Expected shape — the 1983 argument for decoupling over vector
    hardware: on vectorizable streams the vector machine wins (it has
    higher peak); on everything a classic vectorizer must *reject* —
    recurrences, gathers, scatters, data-dependent subscripts — it falls
    back to the scalar unit and the SMA beats it by the full decoupled
    margin.  The SMA is the machine with no cliff.
    """
    t = Table(
        "R-T6",
        f"SMA vs vector machine (n={n})",
        ("kernel", "vectorized", "vector_cycles", "sma_cycles",
         "scalar_cycles", "sma_vs_vector"),
    )
    sma_cfg, scalar_cfg = _configs()
    joblist = []
    for name in kernels:
        joblist.append(Job("sma", name, n, sma_config=sma_cfg))
        joblist.append(Job("scalar", name, n, scalar_config=scalar_cfg))
        joblist.append(
            Job("vector", name, n, memory_config=scalar_cfg.memory)
        )
    results = yield joblist
    for name, sma, scalar, vector in zip(
        kernels, results[::3], results[1::3], results[2::3]
    ):
        if vector["vectorized"]:
            vectorized = "yes"
            vcycles = vector["cycles"]
        else:
            # conventional fallback: the loop runs on the scalar unit
            vectorized = vector["reason"].split(": ", 1)[-1][:34]
            vcycles = scalar["cycles"]
        t.add_row(
            name, vectorized, vcycles, sma["cycles"], scalar["cycles"],
            vcycles / sma["cycles"],
        )
    t.note("non-vectorizable loops fall back to the scalar unit "
           "(vector_cycles = scalar_cycles)")
    t.note("vector results are verified word-exact when vectorized")
    return t


# ---------------------------------------------------------------------------
# R-F1: latency sweep
# ---------------------------------------------------------------------------


def fig1_latency(
    n: int = 256,
    latencies: Sequence[int] = (1, 2, 4, 8, 16, 32),
    kernels: Sequence[str] = LATENCY_REPS,
) -> Plan:
    """Speedup vs memory latency: the decoupled machine's latency
    tolerance is the paper's central claim — speedup *grows* with latency
    for streaming kernels, and saturates for recurrences."""
    t = Table(
        "R-F1",
        f"Speedup vs memory latency (n={n})",
        ("latency", *kernels),
    )
    joblist = []
    for latency in latencies:
        sma_cfg, scalar_cfg = _configs(latency=latency)
        for name in kernels:
            joblist.append(
                Job("sma", name, n, sma_config=sma_cfg, check=True)
            )
            joblist.append(
                Job("scalar", name, n, scalar_config=scalar_cfg, check=True)
            )
    results = yield joblist
    stride = 2 * len(kernels)  # jobs per latency point
    for i, latency in enumerate(latencies):
        point = results[i * stride:(i + 1) * stride]
        row: list = [latency]
        for sma, scalar in zip(point[::2], point[1::2]):
            row.append(scalar["cycles"] / sma["cycles"])
        t.add_row(*row)
    t.note("bank_busy tracks latency/2; 8 banks")
    return t


# ---------------------------------------------------------------------------
# R-F2: queue depth sweep
# ---------------------------------------------------------------------------


def fig2_queue_depth(
    n: int = 256,
    depths: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
    kernels: Sequence[str] = STREAMING_REPS,
    latency: int = 8,
) -> Plan:
    """SMA cycles vs architectural queue depth: a handful of entries
    (≈ memory latency) buys nearly all of the decoupling."""
    t = Table(
        "R-F2",
        f"SMA cycles vs queue depth (n={n}, latency={latency})",
        ("depth", *kernels),
    )
    joblist = []
    for depth in depths:
        sma_cfg, _ = _configs(latency=latency, queue_depth=depth)
        for name in kernels:
            joblist.append(Job("sma", name, n, sma_config=sma_cfg))
    results = yield joblist
    width = len(kernels)
    for i, depth in enumerate(depths):
        point = results[i * width:(i + 1) * width]
        t.add_row(depth, *[r["cycles"] for r in point])
    return t


# ---------------------------------------------------------------------------
# R-F3: slip
# ---------------------------------------------------------------------------


def fig3_slip(n: int = 256) -> Plan:
    """Achieved run-ahead (mean outstanding loads) per kernel — how far
    the access processor actually gets ahead of execution."""
    t = Table(
        "R-F3",
        f"Access run-ahead per kernel (n={n})",
        ("kernel", "category", "mean_outstanding", "max_outstanding",
         "ep_empty_stall_frac"),
    )
    sma_cfg, _ = _configs()
    specs = all_kernels()
    joblist = [Job("sma", spec.name, n, sma_config=sma_cfg) for spec in specs]
    results = yield joblist
    for spec, res in zip(specs, results):
        empty = res["ep_stalls"].get("lq_empty", 0)
        t.add_row(
            spec.name,
            spec.category,
            res["mean_outstanding_loads"],
            res["max_outstanding_loads"],
            empty / res["cycles"],
        )
    return t


# ---------------------------------------------------------------------------
# R-F4: memory banks
# ---------------------------------------------------------------------------


def fig4_banks(
    n: int = 256,
    banks: Sequence[int] = (1, 2, 4, 8, 16),
    kernels: Sequence[str] = BANK_REPS,
    latency: int = 8,
) -> Plan:
    """Words per cycle vs interleaving degree, for strides 1/2/5/8: the
    stride-vs-banks aliasing structure is the classic interleave result."""
    t = Table(
        "R-F4",
        f"Memory words/cycle vs banks (n={n}, latency={latency})",
        ("banks", *kernels),
    )
    joblist = []
    for nb in banks:
        sma_cfg, _ = _configs(latency=latency, banks=nb)
        for name in kernels:
            joblist.append(Job("sma", name, n, sma_config=sma_cfg))
    results = yield joblist
    width = len(kernels)
    for i, nb in enumerate(banks):
        point = results[i * width:(i + 1) * width]
        t.add_row(
            nb,
            *[
                (r["memory_reads"] + r["memory_writes"]) / r["cycles"]
                for r in point
            ],
        )
    t.note("daxpy stride 1, saxpy_strided 2, strided_dot 5, stride8_copy 8")
    return t


# ---------------------------------------------------------------------------
# R-F5: descriptor ablation
# ---------------------------------------------------------------------------


def fig5_ablation(
    n: int = 256, kernels: Sequence[str] = ABLATION_REPS,
) -> Plan:
    """Structured descriptors ON vs OFF (per-element DAE): the access
    processor's instruction bandwidth becomes the bottleneck without
    whole-stream descriptors."""
    t = Table(
        "R-F5",
        f"Structured descriptors vs per-element access (n={n})",
        ("kernel", "sma_cycles", "per_element_cycles", "benefit",
         "ap_instr_stream", "ap_instr_elem"),
    )
    sma_cfg, _ = _configs()
    joblist = []
    for name in kernels:
        joblist.append(Job("sma", name, n, sma_config=sma_cfg))
        joblist.append(Job("sma-nostream", name, n, sma_config=sma_cfg))
    results = yield joblist
    for name, stream, elem in zip(kernels, results[::2], results[1::2]):
        t.add_row(
            name,
            stream["cycles"],
            elem["cycles"],
            elem["cycles"] / stream["cycles"],
            stream["ap_instructions"],
            elem["ap_instructions"],
        )
    t.note("both modes run the identical execute program")
    return t


# ---------------------------------------------------------------------------
# R-F6: occupancy time series
# ---------------------------------------------------------------------------


def fig6_occupancy(
    kernel_name: str = "hydro", n: int = 512, buckets: int = 32,
) -> Plan:
    """Load/store queue occupancy over a run — the decoupling 'profile':
    load queues fill within one memory latency of start and stay near
    capacity until the stream tail drains."""
    sma_cfg, _ = _configs()
    [res] = yield [
        Job("sma-occupancy", kernel_name, n, sma_config=sma_cfg,
            buckets=buckets)
    ]
    t = Table(
        "R-F6",
        f"Queue occupancy over time ({kernel_name}, n={n})",
        ("cycle", "load_occupancy", "store_occupancy"),
    )
    load_pts = {cycle: occ for cycle, occ in res["load"]}
    store_pts = {cycle: occ for cycle, occ in res["store"]}
    for cycle in sorted(load_pts):
        t.add_row(cycle, load_pts[cycle], store_pts.get(cycle, 0.0))
    return t


# ---------------------------------------------------------------------------
# R-F7: memory-port bandwidth ablation (extension)
# ---------------------------------------------------------------------------


def fig7_ports(
    n: int = 256,
    ports: Sequence[int] = (1, 2, 4),
    kernels: Sequence[str] = ("daxpy", "hydro", "state_eqn"),
) -> Plan:
    """Design ablation: does a *single* SMA node need a wider memory port
    (and a faster stream engine)?

    Finding committed by this experiment: **no** — at the reference
    configuration the node is execute-bound (the single-issue EP consumes
    ~one operand per ALU instruction), so memory throughput stays flat as
    port width and stream-engine issue bandwidth scale together, and the
    EP's share of non-stalled cycles stays pinned near 1.  This is the
    design justification for the single-ported memory of the base machine
    — and the reason ports only start to matter when several nodes share
    the memory (experiment R-F8).
    """
    t = Table(
        "R-F7",
        f"SMA memory words/cycle vs port width (n={n})",
        ("ports", *kernels, "ep_busy_daxpy"),
    )
    joblist = []
    for width in ports:
        mem = replace(_memory(8), accepts_per_cycle=width)
        cfg = SMAConfig(
            memory=mem, queues=QueueConfig(), stream_issue_per_cycle=width
        )
        for name in kernels:
            joblist.append(Job("sma", name, n, sma_config=cfg))
    results = yield joblist
    stride = len(kernels)
    for i, width in enumerate(ports):
        point = results[i * stride:(i + 1) * stride]
        row: list = [width]
        ep_busy = 0.0
        for name, res in zip(kernels, point):
            row.append(
                (res["memory_reads"] + res["memory_writes"]) / res["cycles"]
            )
            if name == "daxpy":
                ep_busy = 1.0 - res["ep_total_stalls"] / res["cycles"]
        row.append(ep_busy)
        t.add_row(*row)
    t.note("port width and stream-engine issue bandwidth swept together")
    t.note("flat = the single-issue EP, not the port, is the constraint")
    return t


# ---------------------------------------------------------------------------
# R-F8: multiprocessor interference (future-work extension)
# ---------------------------------------------------------------------------


def fig8_multiprocessor(
    n: int = 192,
    node_counts: Sequence[int] = (1, 2, 4, 8),
    ports: Sequence[int] = (1, 2, 4),
    kernel: str = "daxpy",
) -> Plan:
    """Future-work extension: N identical SMA nodes sharing one banked
    memory.  Reports the mean per-node slowdown versus running alone.

    Expected shape: with one memory port, slowdown tracks the node count
    (pure bandwidth division); widening the port restores most of the
    standalone performance until bank busy time becomes the ceiling.
    Results remain word-exact under contention — interference changes
    only timing, never values.
    """
    t = Table(
        "R-F8",
        f"Mean node slowdown vs shared-memory ports ({kernel}, n={n})",
        ("nodes", *[f"ports{p}" for p in ports]),
    )
    joblist = []
    for count in node_counts:
        for width in ports:
            mem = replace(
                _memory(8), num_banks=16, accepts_per_cycle=width
            )
            cfg = SMAConfig(memory=mem, queues=QueueConfig())
            joblist.append(
                Job("cluster", kernel, n, sma_config=cfg, check=True,
                    nodes=count)
            )
    results = yield joblist
    width = len(ports)
    for i, count in enumerate(node_counts):
        point = results[i * width:(i + 1) * width]
        t.add_row(count, *[r["mean_slowdown"] for r in point])
    t.note("16 banks; every node verified word-exact under contention")
    return t


# ---------------------------------------------------------------------------
# R-T7 / R-F9: speculative AP mode (extension)
# ---------------------------------------------------------------------------

#: (kernel, lod_variant) pairs lowered into deliberately LOD-collapsed
#: shapes: every gather index (``addr``) or loop back-edge (``branch``)
#: round-trips through the EP, so the AP runs at the EP's speed and the
#: decoupled speedup vanishes — the workloads speculation targets.
SPECULATION_REPS = (("pic_gather", "addr"), ("tridiag", "branch"))
SPEC_ACCURACIES = (0.0, 0.25, 0.5, 0.75, 1.0)
SPEC_LATENCY = 16
SPEC_DEPTH = 16


def _spec_sma(speculation: SpeculationConfig | None) -> SMAConfig:
    return SMAConfig(memory=_memory(SPEC_LATENCY), speculation=speculation)


def table7_speculation(
    n: int = 256, reps: Sequence[tuple[str, str]] = SPECULATION_REPS,
    accuracies: Sequence[float] = SPEC_ACCURACIES,
) -> Plan:
    """Extension: recovering LOD-collapsed speedup with a speculative AP.

    On the ``addr``/``branch`` lowerings the AP stalls on EAQ/EBQ every
    element; a value predictor lets it run ahead, rolling back on a
    misprediction.  Accuracy 0.0 disables the predictor entirely (the
    non-speculative baseline, bit-identical to no speculation config);
    accuracy 1.0 always predicts correctly.  Expected shape: cycles fall
    monotonically with accuracy, and at 1.0 nearly all ``lod_*`` stall
    cycles are gone (residue is commit/penalty bookkeeping).  Every run
    is verified word-exact against the reference interpreter — rollback
    changes timing, never values.
    """
    t = Table(
        "R-T7",
        f"Speculative AP vs prediction accuracy "
        f"(n={n}, latency={SPEC_LATENCY}, depth={SPEC_DEPTH})",
        ("kernel", "variant", "accuracy", "cycles", "lod_stall_cycles",
         "misspec_stalls", "rollbacks", "recovered_speedup"),
    )
    joblist = [
        Job("sma", name, n, lod_variant=variant, check=True,
            sma_config=_spec_sma(
                SpeculationConfig(accuracy=acc, max_depth=SPEC_DEPTH)))
        for name, variant in reps for acc in accuracies
    ]
    results = yield joblist
    stride = len(accuracies)
    for i, (name, variant) in enumerate(reps):
        rows = results[i * stride:(i + 1) * stride]
        base = rows[0]  # accuracy grid starts at the 0.0 baseline
        for acc, row in zip(accuracies, rows):
            spec = row.get("speculation") or {}
            t.add_row(
                name, variant, acc, row["cycles"],
                row["lod_stall_cycles"],
                row["ap_stalls"].get("misspeculation", 0),
                spec.get("rollbacks", 0),
                base["cycles"] / row["cycles"],
            )
    t.note("accuracy 0.0 = speculation disabled (the baseline row)")
    t.note("all rows word-exact vs the reference interpreter")
    return t


SPEC_DEPTHS = (1, 2, 4, 8, 16)


def fig9_spec_depth(
    n: int = 256, reps: Sequence[tuple[str, str]] = SPECULATION_REPS,
    depths: Sequence[int] = SPEC_DEPTHS,
) -> Plan:
    """Extension: how much run-ahead does recovery need?  Perfect
    predictor, sweeping the maximum number of unresolved predictions the
    AP may hold.  Expected shape: cycles fall as depth grows until the
    depth covers the memory round-trip (``latency/ap-iteration-length``
    predictions in flight), then flatten; ``depth_refusals`` counts the
    cycles-worth of predictions the cap denied.
    """
    t = Table(
        "R-F9",
        f"Speculation depth sweep "
        f"(n={n}, perfect predictor, latency={SPEC_LATENCY})",
        ("kernel", "variant", "depth", "cycles", "lod_stall_cycles",
         "depth_refusals", "max_depth_seen", "recovered_speedup"),
    )
    joblist = []
    for name, variant in reps:
        joblist.append(
            Job("sma", name, n, lod_variant=variant, check=True,
                sma_config=_spec_sma(None))
        )
        for depth in depths:
            joblist.append(
                Job("sma", name, n, lod_variant=variant, check=True,
                    sma_config=_spec_sma(
                        SpeculationConfig(mode="perfect", max_depth=depth)))
            )
    results = yield joblist
    stride = len(depths) + 1
    for i, (name, variant) in enumerate(reps):
        base, *rows = results[i * stride:(i + 1) * stride]
        for depth, row in zip(depths, rows):
            spec = row.get("speculation") or {}
            t.add_row(
                name, variant, depth, row["cycles"],
                row["lod_stall_cycles"],
                spec.get("depth_refusals", 0),
                spec.get("max_depth", 0),
                base["cycles"] / row["cycles"],
            )
    t.note("first column block's baseline: same lowering, no speculation")
    return t


# ---------------------------------------------------------------------------

EXPERIMENTS: dict[str, Callable[..., Plan]] = {
    "R-T1": table1_mix,
    "R-T2": table2_speedup,
    "R-T3": table3_cache,
    "R-T4": table4_lod,
    "R-T5": table5_prefetch,
    "R-T6": table6_vector,
    "R-T7": table7_speculation,
    "R-F1": fig1_latency,
    "R-F2": fig2_queue_depth,
    "R-F3": fig3_slip,
    "R-F4": fig4_banks,
    "R-F5": fig5_ablation,
    "R-F6": fig6_occupancy,
    "R-F7": fig7_ports,
    "R-F8": fig8_multiprocessor,
    "R-F9": fig9_spec_depth,
}


def run_suite(
    ids: Sequence[str], *, jobs: int = 1, cache_dir: str | None = None,
    **params,
) -> list[Table]:
    """Run the experiments ``ids`` (DESIGN.md identifiers) as one sweep
    and return their tables in the same order.

    Every id is checked before any experiment is planned.  Each
    experiment is called with ``params`` and plans its job list; the
    lists are concatenated into one :func:`run_jobs` call (``jobs``
    workers, result cache ``cache_dir``), and each experiment is sent
    its own slice of the results to assemble its table.
    """
    unknown = [eid for eid in ids if eid not in EXPERIMENTS]
    if unknown:
        raise KeyError(
            f"unknown experiment {unknown[0]!r}; "
            f"known: {sorted(EXPERIMENTS)}"
        )
    plans = [EXPERIMENTS[eid](**params) for eid in ids]
    joblists = [next(plan) for plan in plans]
    results = run_jobs(
        [job for joblist in joblists for job in joblist],
        workers=jobs, cache_dir=cache_dir,
    )
    tables = []
    start = 0
    for eid, plan, joblist in zip(ids, plans, joblists):
        stop = start + len(joblist)
        try:
            plan.send(results[start:stop])
        except StopIteration as done:
            tables.append(done.value)
        else:
            raise RuntimeError(f"{eid} yielded more than one job list")
        start = stop
    return tables


def run_experiment(
    experiment_id: str, *, jobs: int = 1, cache_dir: str | None = None,
    **params,
) -> Table:
    """Run one experiment by its DESIGN.md identifier: the one-id case
    of :func:`run_suite`."""
    [table] = run_suite(
        [experiment_id], jobs=jobs, cache_dir=cache_dir, **params
    )
    return table
