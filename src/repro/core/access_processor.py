"""The Access Processor (AP).

The AP executes the *access program*: integer/address arithmetic, loop
control for memory traversal, and the structured memory instructions.  It
is a single-issue, in-order machine — one instruction per cycle unless a
resource stalls it, in which case the same instruction retries next cycle
and the stall cycle is attributed to a cause:

=================  =========================================================
``stream_slots``   ``streamld``/``streamst``/``gather``/``scatter`` found no
                   free descriptor slot in the stream engine
``queue_full``     ``ldq`` could not reserve its destination queue slot
``memory_busy``    ``ldq`` was rejected by the banked memory (conflict/port)
``saq_full``       ``staddr`` found the store-address queue full
``lod_eaq``        waiting on a value the EP must compute (data-dependent
                   address) — a **loss-of-decoupling** event
``lod_ebq``        waiting on an EP-resolved branch outcome — also LOD
``iq_empty``       ``fromq`` on an index queue whose head has not returned
=================  =========================================================

The distinction between the two ``lod_*`` causes and the rest is what the
loss-of-decoupling experiment (R-T4) measures: ordinary stalls mean the
memory or queues are saturated (decoupling is *working*); LOD stalls mean
the AP has been dragged back to the EP's speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappush

from ..errors import MemoryError_, SimulationError
from ..isa import ACCESS_OPS, ALU_FUNCS, ALU_OPS, Imm, Op, Program, Queue, Reg
from ..isa.operands import NUM_REGS, QueueSpace
from ..memory.banks import BankedMemory
from ..memory.main_memory import as_address
from ..queues import QueueFile
from .descriptors import StreamDescriptor, StreamEngine, StreamKind


@dataclass
class APStats:
    instructions: int = 0
    stall_cycles: dict[str, int] = field(default_factory=dict)
    #: number of distinct LOD episodes (entries into a lod_* stall).
    lod_events: int = 0

    def total_stalls(self) -> int:
        return sum(self.stall_cycles.values())

    def lod_stall_cycles(self) -> int:
        return sum(
            v for k, v in self.stall_cycles.items() if k.startswith("lod_")
        )


# decoded-instruction kinds (first element of each decode tuple); plain
# ints so the fast step dispatches on integer compares, not enum hashing
(_A_ALU, _A_LDQ, _A_DECBNZ, _A_FROMQ, _A_STADDR, _A_BQ, _A_BR, _A_STREAM,
 _A_JMP, _A_HALT, _A_NOP) = range(11)

# decoded-operand tags: register index / immediate value / invalid
_O_REG, _O_IMM, _O_BAD = range(3)

#: ``fromq`` source space -> (speculation key, stall cause); an index
#: queue is ``(None, "iq_empty")``
_FROMQ_ROLES = {
    QueueSpace.EAQ: ("eaq", "lod_eaq"),
    QueueSpace.EBQ: ("ebq", "lod_ebq"),
}


class AccessProcessor:
    """In-order interpreter of the access instruction stream."""

    __slots__ = (
        "program", "queues", "memory", "engine", "registers", "pc",
        "halted", "stats", "_stalled_on", "_decoded", "_saq", "_ebq",
        "_bank_free", "_nbanks", "_accepts", "_prog", "_plen", "_spec",
    )

    def __init__(
        self,
        program: Program,
        queues: QueueFile,
        memory: BankedMemory,
        engine: StreamEngine,
    ):
        self.program = program
        self.queues = queues
        self.memory = memory
        self.engine = engine
        self.registers: list[float] = [0] * NUM_REGS
        self.pc = 0
        self.halted = False
        self.stats = APStats()
        self._stalled_on: str | None = None
        #: SpeculationEngine when the machine runs in speculative AP mode;
        #: None keeps every hook on the baseline (bit-identical) path.
        self._spec = None
        for instr in program:
            if instr.op not in ACCESS_OPS:
                raise SimulationError(
                    f"{instr.op.value} is not a valid access-processor op"
                )
        # decode cache + memory-model constants for step_fast; the
        # bank-free list and the config values are stable for the
        # machine's lifetime (BankedMemory mutates the list in place)
        self._decoded = [self._decode(pc) for pc in range(len(program))]
        # bounds-check cache for step_fast; valid only while self.program
        # is still the construction-time object (identity-checked there)
        self._prog = program
        self._plen = len(program)
        self._saq = queues.store_addr
        self._ebq = queues.ep_to_ap_branch
        self._bank_free = memory._bank_free_at
        self._nbanks = memory.config.num_banks
        self._accepts = memory.config.accepts_per_cycle

    # -- decode cache (step_fast) ----------------------------------------

    def _decode(self, pc: int):
        """Decode one instruction into a kind-tagged tuple for
        :meth:`step_fast`.  Operands the reference :meth:`step` would
        reject at execution time are tagged ``_O_BAD`` so the fast path
        raises the identical error at the identical cycle."""
        instr = self.program[pc]
        op = instr.op
        if op in ALU_OPS:
            dest = instr.dest
            return (
                _A_ALU,
                ALU_FUNCS[op],
                tuple(self._decode_operand(s) for s in instr.srcs),
                dest.index if isinstance(dest, Reg) else None,
            )
        if op is Op.HALT:
            return (_A_HALT,)
        if op is Op.NOP:
            return (_A_NOP,)
        if op is Op.JMP:
            return (_A_JMP, instr.branch_target())
        if op in (Op.BEQZ, Op.BNEZ):
            return (
                _A_BR,
                self._decode_operand(instr.srcs[0]),
                op is Op.BEQZ,
                instr.branch_target(),
            )
        if op is Op.DECBNZ:
            assert isinstance(instr.dest, Reg)
            return (_A_DECBNZ, instr.dest.index, instr.branch_target())
        if op in (Op.STREAMLD, Op.GATHER, Op.STREAMST, Op.SCATTER):
            return (_A_STREAM, instr)
        if op is Op.LDQ:
            dest = instr.dest
            assert isinstance(dest, Queue)
            return (
                _A_LDQ,
                self.queues.resolve(dest),
                self._decode_operand(instr.srcs[0]),
                self._decode_operand(instr.srcs[1]),
            )
        if op is Op.STADDR:
            data_q = instr.srcs[0]
            assert isinstance(data_q, Queue) and \
                data_q.space is QueueSpace.SDQ
            return (
                _A_STADDR,
                data_q.index,
                self._decode_operand(instr.srcs[1]),
                self._decode_operand(instr.srcs[2]),
            )
        if op is Op.FROMQ:
            src = instr.srcs[0]
            assert isinstance(src, Queue)
            key, cause = _FROMQ_ROLES.get(src.space, (None, "iq_empty"))
            dest = instr.dest
            return (
                _A_FROMQ,
                self.queues.resolve(src),
                cause,
                dest.index if isinstance(dest, Reg) else None,
                key,
            )
        assert op in (Op.BQNZ, Op.BQEZ)  # exhaustive over ACCESS_OPS
        return (_A_BQ, op is Op.BQNZ, instr.branch_target())

    @staticmethod
    def _decode_operand(operand):
        if isinstance(operand, Reg):
            return (_O_REG, operand.index)
        if isinstance(operand, Imm):
            return (_O_IMM, operand.value)
        return (_O_BAD, operand)

    # ------------------------------------------------------------------

    def _stall(self, cause: str) -> None:
        st = self.stats.stall_cycles
        st[cause] = st.get(cause, 0) + 1
        if cause.startswith("lod_") and self._stalled_on != cause:
            self.stats.lod_events += 1
        self._stalled_on = cause

    def _read(self, operand) -> float:
        if isinstance(operand, Reg):
            return self.registers[operand.index]
        if isinstance(operand, Imm):
            return operand.value
        raise SimulationError(
            f"AP operand {operand} must be a register or immediate here"
        )

    def step(self, now: int) -> bool:
        """Attempt to execute one instruction this cycle; returns whether
        one retired."""
        if self.halted:
            return False
        spec = self._spec
        if spec is not None and spec.ap_blocked(self, now):
            return False
        if self.pc >= len(self.program):
            raise SimulationError(
                f"AP ran off the end of program {self.program.name!r}"
            )
        instr = self.program[self.pc]
        op = instr.op
        if op in ALU_OPS:
            self._alu(instr)
        elif op is Op.HALT:
            self.halted = True
            return self._retire()
        elif op is Op.NOP:
            pass
        elif op is Op.JMP:
            return self._retire(instr.branch_target())
        elif op in (Op.BEQZ, Op.BNEZ):
            value = self._read(instr.srcs[0])
            taken = (value == 0) == (op is Op.BEQZ)
            return self._retire(instr.branch_target() if taken else None)
        elif op is Op.DECBNZ:
            assert isinstance(instr.dest, Reg)
            self.registers[instr.dest.index] -= 1
            taken = self.registers[instr.dest.index] != 0
            return self._retire(instr.branch_target() if taken else None)
        elif op in (Op.STREAMLD, Op.GATHER, Op.STREAMST, Op.SCATTER):
            if not self._start_stream(instr):
                return False
        elif op is Op.LDQ:
            if not self._ldq(instr, now):
                return False
        elif op is Op.STADDR:
            if not self._staddr(instr):
                return False
        elif op is Op.FROMQ:
            if not self._fromq(instr):
                return False
        elif op in (Op.BQNZ, Op.BQEZ):
            if spec is not None:
                value = spec.ap_branch_value(self)
                if value is None:
                    return False
            else:
                ebq = self.queues.ep_to_ap_branch
                if not ebq.head_ready():
                    ebq.note_empty_stall()
                    self._stall("lod_ebq")
                    return False
                value = ebq.pop()
            taken = (value != 0) == (op is Op.BQNZ)
            return self._retire(instr.branch_target() if taken else None)
        else:  # pragma: no cover - exhaustive over ACCESS_OPS
            raise SimulationError(f"unhandled AP op {op}")
        return self._retire()

    def step_fast(self, now: int) -> bool:
        """Decode-cached twin of :meth:`step` for the event-horizon
        scheduler's hot loop; queue values move through the queues'
        one-call ``reserve_at``/``push_at``/``pop_at``.  Must stay
        behaviorally identical to ``step`` (same stall causes and LOD
        episode counting, same stats, same errors at the same cycle, same
        return); the Hypothesis equivalence suite in
        ``tests/test_event_horizon.py`` holds the two together.

        While speculating it calls the hooks in ``step``'s order: the
        rollback-penalty gate first (``ap_blocked``, inlined); then
        ``ap_fromq`` for ``fromq`` and ``ap_branch_value`` for the EBQ
        branches; for ``ldq`` the wrong-path address clamp
        (``_ldq_address``) and for ``staddr`` the garbage-address rule;
        then ``note_reserved`` on the slot either reserved, while a frame
        is open (it poisons nothing otherwise).  Stream ops reach their
        barrier through the shared ``_start_stream``."""
        if self.halted:
            return False
        spec = self._spec
        if spec is not None and now < spec.penalty_until:
            self._stall("misspeculation")  # spec.ap_blocked, inlined
            return False
        pc = self.pc
        # bounds-check against the live program (not just the decode
        # cache) so a program swapped after construction still faults
        # identically; the identity test keeps the common case to one
        # cached-length compare
        if pc >= self._plen or self.program is not self._prog:
            if pc >= len(self.program):
                raise SimulationError(
                    f"AP ran off the end of program {self.program.name!r}"
                )
        entry = self._decoded[pc]
        kind = entry[0]
        stats = self.stats
        registers = self.registers
        if kind == _A_ALU:
            args = []
            for tag, payload in entry[2]:
                if tag == _O_REG:
                    args.append(registers[payload])
                elif tag == _O_IMM:
                    args.append(payload)
                else:
                    raise SimulationError(
                        f"AP operand {payload} must be a register or "
                        "immediate here"
                    )
            registers[entry[3]] = entry[1](*args)
            stats.instructions += 1
            self._stalled_on = None
            self.pc = pc + 1
            return True
        if kind == _A_LDQ:
            tag, payload = entry[2]
            if tag == _O_REG:
                a = registers[payload]
            elif tag == _O_IMM:
                a = payload
            else:
                raise SimulationError(
                    f"AP operand {payload} must be a register or "
                    "immediate here"
                )
            tag, payload = entry[3]
            if tag == _O_REG:
                b = registers[payload]
            elif tag == _O_IMM:
                b = payload
            else:
                raise SimulationError(
                    f"AP operand {payload} must be a register or "
                    "immediate here"
                )
            # the wrong-path clamp applies only while a frame is open
            addr = (as_address(a + b) if spec is None or not spec.stack
                    else self._ldq_address(a + b))
            target = entry[1]
            if len(target._slots) >= target.capacity:
                target.stats.full_stalls += 1
                st = stats.stall_cycles
                st["queue_full"] = st.get("queue_full", 0) + 1
                self._stalled_on = "queue_full"
                return False
            memory = self.memory
            cyc, cnt = memory._issues_at
            bank = addr % self._nbanks
            if (cyc == now and cnt >= self._accepts) or \
                    self._bank_free[bank] > now:
                st = stats.stall_cycles
                st["memory_busy"] = st.get("memory_busy", 0) + 1
                self._stalled_on = "memory_busy"
                return False
            token = target.reserve_at(now)
            if spec is not None and spec.stack:
                spec.note_reserved(target, token)
            # the accept side of BankedMemory.try_issue, whose port and
            # bank checks just passed, as StreamEngine.tick_fast does it
            memory._issues_at = (now, cnt + 1) if cyc == now else (now, 1)
            config = memory.config
            self._bank_free[bank] = now + config.bank_busy
            mstats = memory.stats
            mstats.busy_bank_cycles += config.bank_busy
            mstats.per_bank_accesses[bank] += 1
            mstats.reads += 1
            storage = memory.storage
            if storage.observer is None and 0 <= addr < storage.size:
                result = float(storage._words[addr])
            else:
                # observer hook or out-of-range fault
                result = storage.read(addr)
            memory._seq += 1
            heappush(memory._completions, (
                now + config.latency, memory._seq, target, token, result,
            ))
            stats.instructions += 1
            self._stalled_on = None
            self.pc = pc + 1
            return True
        if kind == _A_DECBNZ:
            index = entry[1]
            registers[index] -= 1
            stats.instructions += 1
            self._stalled_on = None
            self.pc = entry[2] if registers[index] != 0 else pc + 1
            return True
        if kind == _A_FROMQ:
            queue = entry[1]
            if spec is not None:
                value = spec.ap_fromq(self, queue, entry[4], entry[2])
                if value is None:
                    return False
            else:
                slots = queue._slots
                if not slots or not slots[0].filled:
                    queue.stats.empty_stalls += 1
                    cause = entry[2]
                    st = stats.stall_cycles
                    st[cause] = st.get(cause, 0) + 1
                    if cause != "iq_empty" and self._stalled_on != cause:
                        stats.lod_events += 1
                    self._stalled_on = cause
                    return False
                value = queue.pop_at(now)
            registers[entry[3]] = value
            stats.instructions += 1
            self._stalled_on = None
            self.pc = pc + 1
            return True
        if kind == _A_STADDR:
            saq = self._saq
            if len(saq._slots) >= saq.capacity:
                saq.stats.full_stalls += 1
                st = stats.stall_cycles
                st["saq_full"] = st.get("saq_full", 0) + 1
                self._stalled_on = "saq_full"
                return False
            tag, payload = entry[2]
            if tag == _O_REG:
                a = registers[payload]
            elif tag == _O_IMM:
                a = payload
            else:
                raise SimulationError(
                    f"AP operand {payload} must be a register or "
                    "immediate here"
                )
            tag, payload = entry[3]
            if tag == _O_REG:
                b = registers[payload]
            elif tag == _O_IMM:
                b = payload
            else:
                raise SimulationError(
                    f"AP operand {payload} must be a register or "
                    "immediate here"
                )
            try:
                addr = as_address(a + b)
            except (MemoryError_, ValueError, OverflowError):
                if spec is None or not spec.stack:
                    raise
                addr = 0  # wrong-path garbage; slot dies before commit
            slot = saq.push_at(now, (addr, entry[1]))
            if spec is not None and spec.stack:
                spec.note_reserved(saq, slot)
            stats.instructions += 1
            self._stalled_on = None
            self.pc = pc + 1
            return True
        if kind == _A_BQ:
            if spec is not None:
                value = spec.ap_branch_value(self)
                if value is None:
                    return False
            else:
                ebq = self._ebq
                slots = ebq._slots
                if not slots or not slots[0].filled:
                    ebq.stats.empty_stalls += 1
                    st = stats.stall_cycles
                    st["lod_ebq"] = st.get("lod_ebq", 0) + 1
                    if self._stalled_on != "lod_ebq":
                        stats.lod_events += 1
                    self._stalled_on = "lod_ebq"
                    return False
                value = ebq.pop_at(now)
            taken = (value != 0) == entry[1]
            stats.instructions += 1
            self._stalled_on = None
            self.pc = entry[2] if taken else pc + 1
            return True
        if kind == _A_BR:
            tag, payload = entry[1]
            if tag == _O_REG:
                value = registers[payload]
            elif tag == _O_IMM:
                value = payload
            else:
                raise SimulationError(
                    f"AP operand {payload} must be a register or "
                    "immediate here"
                )
            taken = (value == 0) == entry[2]
            stats.instructions += 1
            self._stalled_on = None
            self.pc = entry[3] if taken else pc + 1
            return True
        if kind == _A_STREAM:
            if not self._start_stream(entry[1]):
                return False
            stats.instructions += 1
            self._stalled_on = None
            self.pc = pc + 1
            return True
        if kind == _A_JMP:
            stats.instructions += 1
            self._stalled_on = None
            self.pc = entry[1]
            return True
        if kind == _A_HALT:
            self.halted = True
            stats.instructions += 1
            self._stalled_on = None
            self.pc = pc + 1
            return True
        # _A_NOP
        stats.instructions += 1
        self._stalled_on = None
        self.pc = pc + 1
        return True

    def next_event_time(self, now: int) -> int | None:
        """Event-horizon contract: earliest cycle the AP can act with
        every other component frozen.

        Unstalled and not halted: ``now``.  Stalled on ``memory_busy``:
        the target bank's free time — the one stall that time alone
        resolves (the stalled ``ldq``'s address is recomputable because
        pc and registers are frozen while stalled; the per-cycle port
        limit is ignored, which is conservative).  Sitting out a
        speculation rollback (``misspeculation``): the end of the
        penalty.  Every other stall cause waits on another component,
        hence ``None``.
        """
        if self.halted:
            return None
        cause = self._stalled_on
        if cause is None:
            return now
        if cause == "misspeculation":
            t = self._spec.penalty_until
            return t if t > now else now
        if cause != "memory_busy":
            return None
        entry = self._decoded[self.pc]
        if entry[0] != _A_LDQ:  # pragma: no cover - memory_busy => ldq
            return now
        registers = self.registers
        tag, payload = entry[2]
        a = registers[payload] if tag == _O_REG else payload
        tag, payload = entry[3]
        b = registers[payload] if tag == _O_REG else payload
        t = self._bank_free[self._ldq_address(a + b) % self._nbanks]
        return t if t > now else now

    def _ldq_address(self, value) -> int:
        """The address an ``ldq`` issues to.  A speculative (possibly
        wrong-path) address is clamped into memory, and one that is not
        an address at all becomes 0, so a doomed load cannot crash the
        simulation."""
        spec = self._spec
        if spec is None or not spec.stack:
            return as_address(value)
        try:
            return as_address(value) % self.memory.storage.size
        except (MemoryError_, ValueError, OverflowError):
            return 0

    def _retire(self, new_pc: int | None = None) -> bool:
        """Count a retired instruction and move the pc; returns True,
        the step's progress flag."""
        self.stats.instructions += 1
        self._stalled_on = None
        self.pc = new_pc if new_pc is not None else self.pc + 1
        return True

    # -- op implementations ---------------------------------------------

    def _alu(self, instr) -> None:
        args = [self._read(s) for s in instr.srcs]
        result = ALU_FUNCS[instr.op](*args)
        assert isinstance(instr.dest, Reg), "AP ALU dest must be a register"
        self.registers[instr.dest.index] = result

    def _start_stream(self, instr) -> bool:
        spec = self._spec
        if spec is not None and spec.ap_stream_barrier(self):
            # descriptors cannot be squashed, so they are speculation
            # barriers: wait until every open frame has resolved
            return False
        if not self.engine.has_free_slot():
            self._stall("stream_slots")
            return False
        produced, consumed = self.engine.queue_roles_in_use()
        # dest is the produced queue (loads/gathers); queue sources are
        # consumed (store data, gather/scatter indices)
        if isinstance(instr.dest, Queue):
            if self.queues.resolve(instr.dest) in produced:
                self._stall("stream_queue_busy")
                return False
        for s in instr.srcs:
            if isinstance(s, Queue) and self.queues.resolve(s) in consumed:
                self._stall("stream_queue_busy")
                return False
        op = instr.op
        if op is Op.STREAMLD:
            dest = instr.dest
            assert isinstance(dest, Queue)
            desc = StreamDescriptor(
                StreamKind.LOAD,
                base=as_address(self._read(instr.srcs[0])),
                stride=as_address(self._read(instr.srcs[1])),
                count=as_address(self._read(instr.srcs[2])),
                target=self.queues.resolve(dest),
            )
        elif op is Op.GATHER:
            dest = instr.dest
            index_q = instr.srcs[0]
            assert isinstance(dest, Queue) and isinstance(index_q, Queue)
            desc = StreamDescriptor(
                StreamKind.GATHER,
                base=as_address(self._read(instr.srcs[1])),
                count=as_address(self._read(instr.srcs[2])),
                target=self.queues.resolve(dest),
                index_queue=self.queues.resolve(index_q),
            )
        elif op is Op.STREAMST:
            data_q = instr.srcs[0]
            assert isinstance(data_q, Queue)
            desc = StreamDescriptor(
                StreamKind.STORE,
                base=as_address(self._read(instr.srcs[1])),
                stride=as_address(self._read(instr.srcs[2])),
                count=as_address(self._read(instr.srcs[3])),
                data_queue=self.queues.resolve(data_q),
            )
        else:  # SCATTER
            data_q, index_q = instr.srcs[0], instr.srcs[1]
            assert isinstance(data_q, Queue) and isinstance(index_q, Queue)
            desc = StreamDescriptor(
                StreamKind.SCATTER,
                base=as_address(self._read(instr.srcs[2])),
                count=as_address(self._read(instr.srcs[3])),
                data_queue=self.queues.resolve(data_q),
                index_queue=self.queues.resolve(index_q),
            )
        self.engine.start(desc)
        return True

    def _ldq(self, instr, now: int) -> bool:
        dest = instr.dest
        assert isinstance(dest, Queue)
        target = self.queues.resolve(dest)
        spec = self._spec
        addr = self._ldq_address(
            self._read(instr.srcs[0]) + self._read(instr.srcs[1])
        )
        if not target.can_reserve():
            target.note_full_stall()
            self._stall("queue_full")
            return False
        if not self.memory.can_accept(addr, now):
            self._stall("memory_busy")
            return False
        token = target.reserve()
        if spec is not None:
            spec.note_reserved(target, token)
        accepted = self.memory.try_issue(addr, now, queue=target, slot=token)
        assert accepted
        return True

    def _staddr(self, instr) -> bool:
        data_q = instr.srcs[0]
        assert isinstance(data_q, Queue) and data_q.space is QueueSpace.SDQ
        saq = self.queues.store_addr
        if not saq.can_reserve():
            saq.note_full_stall()
            self._stall("saq_full")
            return False
        spec = self._spec
        try:
            addr = as_address(
                self._read(instr.srcs[1]) + self._read(instr.srcs[2])
            )
        except (MemoryError_, ValueError, OverflowError):
            if not (spec is not None and spec.in_flight()):
                raise
            addr = 0  # wrong-path garbage; slot dies before commit
        slot = saq.push((addr, data_q.index))
        if spec is not None:
            spec.note_reserved(saq, slot)
        return True

    def _fromq(self, instr) -> bool:
        src = instr.srcs[0]
        assert isinstance(src, Queue)
        queue = self.queues.resolve(src)
        key, cause = _FROMQ_ROLES.get(src.space, (None, "iq_empty"))
        spec = self._spec
        if spec is not None:
            value = spec.ap_fromq(self, queue, key, cause)
            if value is None:
                return False
        elif not queue.head_ready():
            queue.note_empty_stall()
            self._stall(cause)
            return False
        else:
            value = queue.pop()
        assert isinstance(instr.dest, Reg)
        self.registers[instr.dest.index] = value
        return True
