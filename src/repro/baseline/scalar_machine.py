"""Baseline: a conventional in-order scalar von Neumann machine.

This is the comparator the SMA is evaluated against.  It executes a single
unified instruction stream; every operand reference it makes to memory is
an individual, **blocking** ``load`` — the processor idles for the full
memory latency (plus any bank-conflict wait) before the next instruction
issues.  ``store`` is fire-and-forget: it occupies the bank but does not
block the processor beyond its issue cycle.

Two memory configurations:

* **uncached** — every access goes to the same banked memory model the SMA
  uses, so latency and bank parameters are held identical across machines;
* **cached** — accesses go through a set-associative write-back data cache
  (:class:`repro.memory.DataCache`); the banked model is bypassed because
  the cache's miss penalty already embodies the memory latency.

All timing assumptions are deliberately *charitable* to the baseline
(single-cycle ALU, free instruction fetch, no write stalls), so measured
SMA speedups are conservative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..config import ScalarConfig
from ..errors import SimulationError
from ..isa import ALU_FUNCS, ALU_OPS, Imm, Op, Program, Reg, SCALAR_OPS
from ..isa.operands import NUM_REGS
from ..memory import BankedMemory, DataCache, MainMemory
from ..memory.main_memory import as_address

# decoded-instruction kinds (first element of each decode tuple), most
# frequent first; plain ints so run() dispatches on integer compares, not
# enum hashing
(_S_ALU2, _S_LOAD, _S_STORE, _S_DECBNZ, _S_ALU1, _S_BR, _S_JMP, _S_ALUN,
 _S_NOP, _S_HALT, _S_BAD) = range(11)


def _decode(instr):
    """Decode one instruction into a kind-tagged tuple for
    :meth:`ScalarMachine.run`.  Each register-or-immediate source becomes
    two fields, ``is_reg`` and the register index or immediate value.
    An instruction whose execution is bound to fail decodes to
    ``(_S_BAD, error_class, args)``: the error the undecoded interpreter
    raised, first unreadable source first, then a non-register
    destination, raised when the instruction executes."""
    op = instr.op
    if op not in SCALAR_OPS:
        raise SimulationError(f"{op.value} is not a valid scalar-machine op")
    if op is Op.HALT:
        return (_S_HALT,)
    if op is Op.NOP:
        return (_S_NOP,)
    if op is Op.JMP:
        return (_S_JMP, instr.branch_target())
    dest = instr.dest
    if op is Op.DECBNZ:
        if not isinstance(dest, Reg):
            return (_S_BAD, AssertionError, ())
        return (_S_DECBNZ, dest.index, instr.branch_target())
    branch = op in (Op.BEQZ, Op.BNEZ)
    operands = []
    for src in instr.srcs[:1] if branch else instr.srcs:
        if isinstance(src, Reg):
            operands += (True, src.index)
        elif isinstance(src, Imm):
            operands += (False, src.value)
        else:
            return (_S_BAD, SimulationError,
                    (f"scalar machine cannot read operand {src}",))
    if branch:
        return (_S_BR, op is Op.BEQZ, instr.branch_target(), *operands)
    if op is Op.STORE:
        return (_S_STORE, *operands)
    if not isinstance(dest, Reg):
        return (_S_BAD, AssertionError, ())
    if op is Op.LOAD:
        return (_S_LOAD, dest.index, *operands)
    assert op in ALU_OPS  # exhaustive over SCALAR_OPS
    if len(operands) == 4:
        return (_S_ALU2, ALU_FUNCS[op], dest.index, *operands)
    if len(operands) == 2:
        return (_S_ALU1, ALU_FUNCS[op], dest.index, *operands)
    return (_S_ALUN, ALU_FUNCS[op], dest.index,
            tuple(zip(operands[::2], operands[1::2])))


@dataclass
class ScalarResult:
    """Statistics from one scalar-baseline run."""

    cycles: int
    instructions: int
    loads: int
    stores: int
    #: cycles the processor spent waiting on memory (latency + conflicts).
    memory_stall_cycles: int
    bank_conflict_waits: int
    #: end-of-run cycles writing back dirty cache lines (0 uncached).
    drain_cycles: int = 0
    cache: Any = None  # CacheStats when a cache is configured

    def stall_breakdown(self) -> dict[str, int]:
        """Partition of total cycles (see repro.metrics.attribution).

        The machine is event-jumped, so the buckets are derived exactly
        from its counters: every cycle is either an issue cycle
        (``compute``), a blocking memory wait net of bank-conflict retry
        time (``memory_wait``), a bank-conflict wait (``bank_busy``), or
        the end-of-run dirty-line write-back (``store_drain``); they
        always sum to ``cycles``.
        """
        return {
            "compute": self.instructions,
            "memory_wait": self.memory_stall_cycles
            - self.bank_conflict_waits,
            "bank_busy": self.bank_conflict_waits,
            "store_drain": self.drain_cycles,
        }

    def to_dict(self) -> dict:
        """JSON-serializable flat summary (for harness consumers)."""
        out = {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "loads": self.loads,
            "stores": self.stores,
            "memory_stall_cycles": self.memory_stall_cycles,
            "bank_conflict_waits": self.bank_conflict_waits,
            "drain_cycles": self.drain_cycles,
        }
        if self.cache is not None:
            out["cache_hits"] = self.cache.hits
            out["cache_misses"] = self.cache.misses
            out["cache_hit_rate"] = self.cache.hit_rate
        return out

    def summary(self) -> str:
        lines = [
            f"cycles               {self.cycles}",
            f"instructions         {self.instructions}",
            f"loads/stores         {self.loads}/{self.stores}",
            f"memory stall cycles  {self.memory_stall_cycles}",
        ]
        if self.cache is not None:
            lines.append(
                f"cache hit rate       {self.cache.hit_rate:.3f} "
                f"({self.cache.hits}/{self.cache.accesses})"
            )
        return "\n".join(lines)


class ScalarMachine:
    """In-order, single-issue interpreter of a unified program."""

    def __init__(self, program: Program, config: ScalarConfig | None = None):
        self.config = config or ScalarConfig()
        self.program = program
        self.memory = MainMemory(self.config.memory.size)
        self.cache: DataCache | None = None
        self.banked: BankedMemory | None = None
        if self.config.cache is not None:
            if self.config.prefetch is not None:
                from ..memory.prefetch import PrefetchingCache

                self.cache = PrefetchingCache(
                    self.config.cache,
                    self.config.memory.latency,
                    self.config.prefetch,
                )
            else:
                self.cache = DataCache(
                    self.config.cache, self.config.memory.latency
                )
        else:
            self.banked = BankedMemory(self.memory, self.config.memory)
        self.registers: list[float] = [0.0] * NUM_REGS
        self.pc = 0
        self.cycle = 0
        self.halted = False
        self._stats = {
            "instructions": 0,
            "loads": 0,
            "stores": 0,
            "memory_stall_cycles": 0,
            "conflict_waits": 0,
        }
        for base, values in program.data:
            self.memory.load_array(base, values)
        self._decoded = [_decode(instr) for instr in program]

    # -- workload I/O ------------------------------------------------------

    def load_array(self, base: int, values) -> None:
        self.memory.load_array(base, values)

    def dump_array(self, base: int, count: int):
        return self.memory.dump_array(base, count)

    # -- observability -----------------------------------------------------

    def attach_metrics(self, registry=None):
        """Register this machine's counters (and its cache's / banked
        memory's) into a metrics registry; returns the registry.

        The scalar machine jumps the clock instead of ticking, so there
        is no per-cycle hook — the registry getters plus
        :meth:`ScalarResult.stall_breakdown` are the whole layer.
        """
        from ..metrics import MetricsRegistry

        reg = registry if registry is not None else MetricsRegistry()
        for key in self._stats:
            reg.register_counter(
                f"scalar.{key}", lambda s=self._stats, k=key: s[k]
            )
        reg.register_counter("scalar.cycles", lambda m=self: m.cycle)
        if self.cache is not None:
            self.cache.register_metrics(reg, "cache")
        if self.banked is not None:
            self.banked.register_metrics(reg, "memory")
        self._metrics_registry = reg
        return reg

    # -- execution ---------------------------------------------------------

    def run(self, max_cycles: int = 100_000_000) -> ScalarResult:
        """Run to HALT; returns the collected statistics.

        Steps the decode cache built at construction.  ``pc``, ``cycle``
        and the instruction count live in locals and are written back on
        every exit, raised errors included.  The uncached bank path
        (bank wait, accept bookkeeping, storage access) is inlined; the
        cached path calls :meth:`DataCache.access` with the cycle and pc
        that R-T5's prefetchers train on, and with ``self.cycle`` and
        ``self.pc`` current during the call.
        """
        decoded = self._decoded
        plen = len(decoded)
        registers = self.registers
        stats = self._stats
        cache = self.cache
        memory = self.memory
        words = memory._words
        msize = memory.size
        banked = self.banked
        if banked is not None:
            bank_free = banked._bank_free_at
            mstats = banked.stats
            nbanks = banked.config.num_banks
            accepts = banked.config.accepts_per_cycle
            bank_busy = banked.config.bank_busy
            latency = self.config.memory.latency
        halted = self.halted
        pc = self.pc
        cycle = self.cycle
        executed = 0
        try:
            while not halted:
                if cycle >= max_cycles:
                    raise SimulationError(
                        f"exceeded cycle budget {max_cycles}"
                    )
                if pc >= plen:
                    raise SimulationError(
                        f"ran off the end of program {self.program.name!r}"
                    )
                entry = decoded[pc]
                kind = entry[0]
                if kind == _S_ALU2:
                    _, func, dest, r0, v0, r1, v1 = entry
                    registers[dest] = func(
                        registers[v0] if r0 else v0,
                        registers[v1] if r1 else v1,
                    )
                    pc += 1
                elif kind == _S_LOAD or kind == _S_STORE:
                    if kind == _S_LOAD:
                        _, dest, r0, v0, r1, v1 = entry
                        a = as_address((registers[v0] if r0 else v0)
                                       + (registers[v1] if r1 else v1))
                        stats["loads"] += 1
                    else:
                        _, r0, v0, r1, v1, r2, v2 = entry
                        value = registers[v0] if r0 else v0
                        a = as_address((registers[v1] if r1 else v1)
                                       + (registers[v2] if r2 else v2))
                        stats["stores"] += 1
                    if cache is not None:
                        self.cycle = cycle
                        self.pc = pc
                        cost = cache.access(a, is_write=kind == _S_STORE,
                                            now=cycle, pc=pc)
                        # the issue cycle itself is charged below
                        cycle += cost - 1
                        stats["memory_stall_cycles"] += cost - 1
                        if kind == _S_LOAD:
                            registers[dest] = memory.read(a)
                        else:
                            memory.write(a, value)
                    else:
                        # wait for the bank: jump straight to the cycle it
                        # frees up; a same-cycle port reject clears after
                        # one cycle.  Equivalent to ticking one cycle at a
                        # time (the processor is blocked, so no other
                        # state advances while it waits).
                        bank = a % nbanks
                        cyc, cnt = banked._issues_at
                        start = cycle
                        while (cyc == cycle and cnt >= accepts) or \
                                bank_free[bank] > cycle:
                            free_at = bank_free[bank]
                            cycle = free_at if free_at > cycle else cycle + 1
                        if cycle != start:
                            stats["conflict_waits"] += cycle - start
                            stats["memory_stall_cycles"] += cycle - start
                        # accept (mirrors BankedMemory.try_issue)
                        banked._issues_at = (
                            (cycle, cnt + 1) if cyc == cycle else (cycle, 1)
                        )
                        bank_free[bank] = cycle + bank_busy
                        mstats.busy_bank_cycles += bank_busy
                        mstats.per_bank_accesses[bank] += 1
                        if kind == _S_LOAD:
                            # blocking load: wait for the data
                            mstats.reads += 1
                            if memory.observer is None and 0 <= a < msize:
                                cycle += latency
                                registers[dest] = float(words[a])
                            else:
                                # the observer sees the issue-time read
                                # and the value read, as try_issue and
                                # the register write each read once; an
                                # out-of-range address raises here
                                memory.read(a)
                                cycle += latency
                                registers[dest] = memory.read(a)
                            stats["memory_stall_cycles"] += latency
                        else:
                            mstats.writes += 1
                            if memory.observer is None and 0 <= a < msize:
                                words[a] = value
                            else:
                                memory.write(a, value)
                    pc += 1
                elif kind == _S_DECBNZ:
                    index = entry[1]
                    registers[index] -= 1
                    pc = entry[2] if registers[index] != 0 else pc + 1
                elif kind == _S_ALU1:
                    _, func, dest, r0, v0 = entry
                    registers[dest] = func(registers[v0] if r0 else v0)
                    pc += 1
                elif kind == _S_BR:
                    _, beqz, target, r0, v0 = entry
                    value = registers[v0] if r0 else v0
                    pc = target if (value == 0) == beqz else pc + 1
                elif kind == _S_JMP:
                    pc = entry[1]
                elif kind == _S_ALUN:
                    registers[entry[2]] = entry[1](*[
                        registers[v] if r else v for r, v in entry[3]
                    ])
                    pc += 1
                elif kind == _S_NOP:
                    pc += 1
                elif kind == _S_HALT:
                    halted = self.halted = True
                    pc += 1
                else:  # _S_BAD
                    raise entry[1](*entry[2])
                cycle += 1  # issue cycle of this instruction
                executed += 1
        finally:
            self.pc = pc
            self.cycle = cycle
            stats["instructions"] += executed
        drained = 0
        if cache is not None:
            drained = cache.flush_cycles()
            self.cycle += drained
        return ScalarResult(
            cycles=self.cycle,
            instructions=stats["instructions"],
            loads=stats["loads"],
            stores=stats["stores"],
            memory_stall_cycles=stats["memory_stall_cycles"],
            bank_conflict_waits=stats["conflict_waits"],
            drain_cycles=drained,
            cache=cache.stats if cache is not None else None,
        )
