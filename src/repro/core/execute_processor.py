"""The Execute Processor (EP).

The EP executes the *compute program*: pure arithmetic, with no notion of
addresses.  Its distinguishing feature is **queue operands**: an ALU source
naming ``lq<i>`` pops the head of load queue *i* (stalling until the memory
has delivered it), and an ALU destination naming ``sdq<i>`` / ``eaq`` /
``ebq`` pushes the result toward memory or the access processor (stalling
while the queue is full).

Stall causes recorded per cycle:

``lq_empty``   a queue source's head value has not arrived yet
``q_full``     the destination queue has no free slot

A queue may appear at most once among an instruction's operands — popping
the same queue twice in one cycle has no sensible in-order hardware
analogue, and the code generators never emit it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SimulationError
from ..isa import ALU_FUNCS, ALU_OPS, EXECUTE_OPS, Imm, Op, Program, Queue, Reg
from ..isa.operands import NUM_REGS, QueueSpace
from ..queues import QueueFile


@dataclass
class EPStats:
    instructions: int = 0
    stall_cycles: dict[str, int] = field(default_factory=dict)

    def total_stalls(self) -> int:
        return sum(self.stall_cycles.values())


_EP_DEST_SPACES = (QueueSpace.SDQ, QueueSpace.EAQ, QueueSpace.EBQ)

# decoded-instruction kinds (first element of each decode tuple); plain
# ints so the fast step dispatches on integer compares, not enum hashing
_D_HALT, _D_NOP, _D_JMP, _D_BR, _D_DECBNZ, _D_ALU = range(6)

# decoded-operand tags: register index / immediate value / queue / invalid
_O_REG, _O_IMM, _O_QUEUE, _O_BAD = range(4)


class ExecuteProcessor:
    """In-order interpreter of the compute instruction stream."""

    __slots__ = (
        "program", "queues", "registers", "pc", "halted", "stats",
        "_stalled_on", "_src_queues", "_dest_queues", "_decoded",
        "_prog", "_plen",
    )

    def __init__(self, program: Program, queues: QueueFile):
        self.program = program
        self.queues = queues
        self.registers: list[float] = [0.0] * NUM_REGS
        self.pc = 0
        self.halted = False
        self.stats = EPStats()
        #: stall cause currently holding the EP (None when advancing);
        #: consumed by the timeline viewer in repro.trace.timeline
        self._stalled_on: str | None = None
        self._validate(program)
        # predecode: resolve queue operands to their backing queues once
        # (resolution is pure, and step() runs every simulated cycle)
        self._src_queues = [
            tuple(
                queues.resolve(s) if isinstance(s, Queue) else None
                for s in instr.srcs
            )
            for instr in program
        ]
        self._dest_queues = [
            queues.resolve(instr.dest)
            if isinstance(instr.dest, Queue) else None
            for instr in program
        ]
        self._decoded = [self._decode(pc) for pc in range(len(program))]
        # bounds-check cache for step_fast; valid only while self.program
        # is still the construction-time object (identity-checked there)
        self._prog = program
        self._plen = len(program)

    # -- decode cache (step_fast) ----------------------------------------

    def _decode(self, pc: int):
        """Decode one instruction into a kind-tagged tuple for
        :meth:`step_fast`.  Decoding is pure; any operand that the
        reference :meth:`step` would reject *at execution time* is tagged
        ``_O_BAD`` so the fast path raises the identical error at the
        identical cycle, not at construction."""
        instr = self.program[pc]
        op = instr.op
        if op is Op.HALT:
            return (_D_HALT,)
        if op is Op.NOP:
            return (_D_NOP,)
        if op is Op.JMP:
            return (_D_JMP, instr.branch_target())
        if op in (Op.BEQZ, Op.BNEZ):
            return (
                _D_BR,
                self._decode_operand(instr.srcs[0]),
                op is Op.BEQZ,
                instr.branch_target(),
            )
        if op is Op.DECBNZ:
            assert isinstance(instr.dest, Reg)
            return (_D_DECBNZ, instr.dest.index, instr.branch_target())
        assert op in ALU_OPS, f"unhandled EP op {op}"
        srcs = tuple(
            (_O_QUEUE, backing) if backing is not None
            else self._decode_operand(src)
            for src, backing in zip(instr.srcs, self._src_queues[pc])
        )
        dest_queue = self._dest_queues[pc]
        dest_reg = (
            instr.dest.index
            if dest_queue is None and isinstance(instr.dest, Reg) else None
        )
        return (_D_ALU, ALU_FUNCS[op], srcs, dest_queue, dest_reg)

    @staticmethod
    def _decode_operand(operand):
        if isinstance(operand, Reg):
            return (_O_REG, operand.index)
        if isinstance(operand, Imm):
            return (_O_IMM, operand.value)
        return (_O_BAD, operand)

    def _validate(self, program: Program) -> None:
        for instr in program:
            if instr.op not in EXECUTE_OPS:
                raise SimulationError(
                    f"{instr.op.value} is not a valid execute-processor op"
                )
            queues = [s for s in instr.srcs if isinstance(s, Queue)]
            for q in queues:
                if q.space is not QueueSpace.LQ:
                    raise SimulationError(
                        f"EP can only pop load queues, not {q}"
                    )
            if isinstance(instr.dest, Queue):
                if instr.dest.space not in _EP_DEST_SPACES:
                    raise SimulationError(
                        f"EP cannot push to {instr.dest} (read-only space)"
                    )
                queues.append(instr.dest)
            if len(set(queues)) != len(queues):
                raise SimulationError(
                    f"queue named twice in one instruction: {instr}"
                )

    def _stall(self, cause: str) -> None:
        st = self.stats.stall_cycles
        st[cause] = st.get(cause, 0) + 1
        self._stalled_on = cause

    def step(self, now: int) -> bool:
        """Attempt to execute one instruction this cycle; returns whether
        one retired."""
        if self.halted:
            return False
        if self.pc >= len(self.program):
            raise SimulationError(
                f"EP ran off the end of program {self.program.name!r}"
            )
        instr = self.program[self.pc]
        op = instr.op
        if op is Op.HALT:
            self.halted = True
            return self._retire()
        if op is Op.NOP:
            return self._retire()
        if op is Op.JMP:
            return self._retire(instr.branch_target())
        if op in (Op.BEQZ, Op.BNEZ):
            value = self._read_reg_or_imm(instr.srcs[0])
            taken = (value == 0) == (op is Op.BEQZ)
            return self._retire(instr.branch_target() if taken else None)
        if op is Op.DECBNZ:
            assert isinstance(instr.dest, Reg)
            self.registers[instr.dest.index] -= 1
            taken = self.registers[instr.dest.index] != 0
            return self._retire(instr.branch_target() if taken else None)
        assert op in ALU_OPS, f"unhandled EP op {op}"
        # check queue readiness before popping anything (atomic issue)
        src_queues = self._src_queues[self.pc]
        for backing in src_queues:
            if backing is not None and not backing.head_ready():
                backing.note_empty_stall()
                self._stall("lq_empty")
                return False
        dest_queue = self._dest_queues[self.pc]
        if dest_queue is not None and not dest_queue.can_reserve():
            dest_queue.note_full_stall()
            self._stall("q_full")
            return False
        registers = self.registers
        args = [
            backing.pop() if backing is not None
            else (
                registers[src.index] if isinstance(src, Reg) else src.value
            )
            for src, backing in zip(instr.srcs, src_queues)
        ]
        result = ALU_FUNCS[op](*args)
        if dest_queue is not None:
            dest_queue.push(result)
        else:
            assert isinstance(instr.dest, Reg)
            self.registers[instr.dest.index] = result
        return self._retire()

    def step_fast(self, now: int) -> bool:
        """Decode-cached twin of :meth:`step` for the event-horizon
        scheduler's hot loop: dispatches on predecoded kind tags, inlines
        the queue head/slot checks and moves values with the queues'
        one-call ``pop_at``/``push_at``.  Must stay behaviorally
        identical to ``step`` (same stalls, same stats, same errors at
        the same cycle, same return); the Hypothesis equivalence suite
        holds the two together."""
        if self.halted:
            return False
        pc = self.pc
        # bounds-check against the live program (not just the decode
        # cache) so a program swapped after construction still faults
        # identically; the identity test keeps the common case to one
        # cached-length compare
        if pc >= self._plen or self.program is not self._prog:
            if pc >= len(self.program):
                raise SimulationError(
                    f"EP ran off the end of program {self.program.name!r}"
                )
        decoded = self._decoded
        entry = decoded[pc]
        kind = entry[0]
        stats = self.stats
        registers = self.registers
        if kind == _D_ALU:
            srcs = entry[2]
            for tag, payload in srcs:
                if tag == _O_QUEUE:
                    # head_ready(), inlined: a poisoned head is not ready
                    slots = payload._slots
                    if not slots or not slots[0].filled or \
                            slots[0].poisoned:
                        payload.stats.empty_stalls += 1
                        st = stats.stall_cycles
                        st["lq_empty"] = st.get("lq_empty", 0) + 1
                        self._stalled_on = "lq_empty"
                        return False
            dest_queue = entry[3]
            if dest_queue is not None and \
                    len(dest_queue._slots) >= dest_queue.capacity:
                dest_queue.stats.full_stalls += 1
                st = stats.stall_cycles
                st["q_full"] = st.get("q_full", 0) + 1
                self._stalled_on = "q_full"
                return False
            # unrolled argument fetch for the 1- and 2-source shapes the
            # code generators emit (the list-building fallback covers any
            # other arity)
            if len(srcs) == 2:
                tag, payload = srcs[0]
                a0 = (
                    payload.pop_at(now) if tag == _O_QUEUE
                    else registers[payload] if tag == _O_REG else payload
                )
                tag, payload = srcs[1]
                a1 = (
                    payload.pop_at(now) if tag == _O_QUEUE
                    else registers[payload] if tag == _O_REG else payload
                )
                result = entry[1](a0, a1)
            elif len(srcs) == 1:
                tag, payload = srcs[0]
                result = entry[1](
                    payload.pop_at(now) if tag == _O_QUEUE
                    else registers[payload] if tag == _O_REG else payload
                )
            else:
                result = entry[1](*[
                    payload.pop_at(now) if tag == _O_QUEUE
                    else (registers[payload] if tag == _O_REG else payload)
                    for tag, payload in srcs
                ])
            if dest_queue is not None:
                dest_queue.push_at(now, result)
            else:
                registers[entry[4]] = result
            stats.instructions += 1
            self._stalled_on = None
            self.pc = pc + 1
            return True
        if kind == _D_BR:
            tag, payload = entry[1]
            if tag == _O_REG:
                value = registers[payload]
            elif tag == _O_IMM:
                value = payload
            else:
                raise SimulationError(
                    f"EP branch condition {payload} must be a register "
                    "or immediate"
                )
            taken = (value == 0) == entry[2]
            stats.instructions += 1
            self._stalled_on = None
            self.pc = entry[3] if taken else pc + 1
            return True
        if kind == _D_DECBNZ:
            index = entry[1]
            registers[index] -= 1
            stats.instructions += 1
            self._stalled_on = None
            self.pc = entry[2] if registers[index] != 0 else pc + 1
            return True
        if kind == _D_JMP:
            stats.instructions += 1
            self._stalled_on = None
            self.pc = entry[1]
            return True
        if kind == _D_HALT:
            self.halted = True
            stats.instructions += 1
            self._stalled_on = None
            self.pc = pc + 1
            return True
        # _D_NOP
        stats.instructions += 1
        self._stalled_on = None
        self.pc = pc + 1
        return True

    def next_event_time(self, now: int) -> int | None:
        """Event-horizon contract: the EP can act immediately unless it
        is halted or stalled — and an EP stall (``lq_empty``/``q_full``)
        is only ever resolved by another component filling or draining
        the queue, never by the passage of time."""
        if self.halted or self._stalled_on is not None:
            return None
        return now

    def _retire(self, new_pc: int | None = None) -> bool:
        """Count a retired instruction and move the pc; returns True,
        the step's progress flag."""
        self.stats.instructions += 1
        self._stalled_on = None
        self.pc = new_pc if new_pc is not None else self.pc + 1
        return True

    def _read_reg_or_imm(self, operand) -> float:
        if isinstance(operand, Reg):
            return self.registers[operand.index]
        if isinstance(operand, Imm):
            return operand.value
        raise SimulationError(
            f"EP branch condition {operand} must be a register or immediate"
        )

    def _read(self, operand) -> float:
        if isinstance(operand, Reg):
            return self.registers[operand.index]
        if isinstance(operand, Imm):
            return operand.value
        assert isinstance(operand, Queue)
        return self.queues.resolve(operand).pop()
