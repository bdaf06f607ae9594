"""Flat per-instruction decode for the batch (SoA) simulator.

The batch engine steps thousands of lanes — independent machine
configurations running the *same* access/execute program pair — in
lockstep with numpy.  Because every lane shares one program, the
instruction at a given pc is a compile-time constant for the whole
array: decoding happens once here, into plain kind tags like the scalar
decode caches in :mod:`repro.core.access_processor` /
:mod:`repro.core.execute_processor`, and :mod:`repro.batch.emitter`
specializes the lane stepper on them.

Queue operands are resolved to a *global queue id* over the flat queue
complement (the same order :class:`repro.queues.QueueFile` builds its
``_all`` list in): ``lq0..lqN-1, sdq0.., iq0.., saq, eaq, ebq``.  The
mapping depends only on the structural configuration fields
(``num_load_queues``/``num_store_queues``/``num_index_queues``), which the
dispatch layer requires to be uniform across a lane group.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import SMAConfig
from ..errors import SimulationError
from ..isa import ALU_OPS, Op, Program, Queue, Reg
from ..isa.instruction import Imm
from ..isa.operands import QueueSpace

# decoded-instruction kind tags, access program
(A_ALU, A_LDQ, A_DECBNZ, A_FROMQ, A_STADDR, A_BQ, A_BR, A_STREAM,
 A_JMP, A_HALT, A_NOP) = range(11)

# decoded-instruction kind tags, execute program
(E_ALU, E_BR, E_DECBNZ, E_JMP, E_HALT, E_NOP) = range(6)

# operand tags: ('r', reg_index) | ('i', value) | ('q', global_queue_id)
R, I, Q = "r", "i", "q"

# stream kinds (plain ints; order matches StreamKind semantics)
S_LOAD, S_STORE, S_GATHER, S_SCATTER = range(4)

# AP stall-cause ids (index into the per-lane stall-counter matrix)
AP_CAUSES = (
    "stream_slots", "stream_queue_busy", "queue_full", "memory_busy",
    "saq_full", "lod_eaq", "lod_ebq", "iq_empty",
)
C_STREAM_SLOTS, C_STREAM_QUEUE_BUSY, C_QUEUE_FULL, C_MEMORY_BUSY, \
    C_SAQ_FULL, C_LOD_EAQ, C_LOD_EBQ, C_IQ_EMPTY = range(len(AP_CAUSES))
LOD_CAUSES = (C_LOD_EAQ, C_LOD_EBQ)

# EP stall-cause ids
EP_CAUSES = ("lq_empty", "q_full")
C_LQ_EMPTY, C_Q_FULL = range(len(EP_CAUSES))


@dataclass(frozen=True)
class QueueLayout:
    """Global queue-id layout for one structural configuration."""

    num_load: int
    num_store: int
    num_index: int

    @property
    def saq(self) -> int:
        return self.num_load + self.num_store + self.num_index

    @property
    def eaq(self) -> int:
        return self.saq + 1

    @property
    def ebq(self) -> int:
        return self.saq + 2

    @property
    def total(self) -> int:
        return self.saq + 3

    def sdq(self, index: int) -> int:
        return self.num_load + index

    def iq(self, index: int) -> int:
        return self.num_load + self.num_store + index

    def resolve(self, operand: Queue) -> int:
        space = operand.space
        if space is QueueSpace.LQ:
            if operand.index >= self.num_load:
                raise SimulationError(f"queue {operand} not present")
            return operand.index
        if space is QueueSpace.SDQ:
            if operand.index >= self.num_store:
                raise SimulationError(f"queue {operand} not present")
            return self.sdq(operand.index)
        if space is QueueSpace.IQ:
            if operand.index >= self.num_index:
                raise SimulationError(f"queue {operand} not present")
            return self.iq(operand.index)
        if space is QueueSpace.SAQ:
            return self.saq
        if space is QueueSpace.EAQ:
            return self.eaq
        return self.ebq

    @classmethod
    def from_config(cls, config: SMAConfig) -> "QueueLayout":
        return cls(
            config.num_load_queues,
            config.num_store_queues,
            config.num_index_queues,
        )

    def capacities(self, config: SMAConfig) -> list[int]:
        """Per-queue capacity in global-id order for one lane config."""
        q = config.queues
        return (
            [q.load_queue_depth] * self.num_load
            + [q.store_data_depth] * self.num_store
            + [q.index_queue_depth] * self.num_index
            + [q.store_addr_depth, q.ep_to_ap_data_depth,
               q.ep_to_ap_branch_depth]
        )


def _operand(op) -> tuple:
    if isinstance(op, Reg):
        return (R, op.index)
    if isinstance(op, Imm):
        return (I, float(op.value))
    raise SimulationError(
        f"batch decode: operand {op} must be a register or immediate here"
    )


def decode_access(program: Program, layout: QueueLayout) -> list[tuple]:
    """Decode the access program into kind-tagged tuples.

    Mirrors :meth:`repro.core.access_processor.AccessProcessor._decode`,
    with queue operands flattened to global queue ids.
    """
    decoded = []
    for instr in program:
        op = instr.op
        if op in ALU_OPS:
            decoded.append((
                A_ALU, op,
                tuple(_operand(s) for s in instr.srcs),
                instr.dest.index,
            ))
        elif op is Op.HALT:
            decoded.append((A_HALT,))
        elif op is Op.NOP:
            decoded.append((A_NOP,))
        elif op is Op.JMP:
            decoded.append((A_JMP, instr.branch_target()))
        elif op in (Op.BEQZ, Op.BNEZ):
            decoded.append((
                A_BR, _operand(instr.srcs[0]), op is Op.BEQZ,
                instr.branch_target(),
            ))
        elif op is Op.DECBNZ:
            decoded.append(
                (A_DECBNZ, instr.dest.index, instr.branch_target())
            )
        elif op is Op.LDQ:
            decoded.append((
                A_LDQ, layout.resolve(instr.dest),
                _operand(instr.srcs[0]), _operand(instr.srcs[1]),
            ))
        elif op is Op.STADDR:
            data_q = instr.srcs[0]
            decoded.append((
                A_STADDR, data_q.index,
                _operand(instr.srcs[1]), _operand(instr.srcs[2]),
            ))
        elif op is Op.FROMQ:
            src = instr.srcs[0]
            if src.space is QueueSpace.EAQ:
                cause = C_LOD_EAQ
            elif src.space is QueueSpace.EBQ:
                cause = C_LOD_EBQ
            else:
                cause = C_IQ_EMPTY
            decoded.append((
                A_FROMQ, layout.resolve(src), cause, instr.dest.index,
            ))
        elif op in (Op.BQNZ, Op.BQEZ):
            decoded.append(
                (A_BQ, op is Op.BQNZ, instr.branch_target())
            )
        elif op in (Op.STREAMLD, Op.GATHER, Op.STREAMST, Op.SCATTER):
            decoded.append(_decode_stream(instr, layout))
        else:  # pragma: no cover - exhaustive over ACCESS_OPS
            raise SimulationError(f"unhandled AP op {op}")
    return decoded


def _decode_stream(instr, layout: QueueLayout) -> tuple:
    """``(A_STREAM, skind, target, data, index, base, stride, count,
    consumed_qids)`` — queue fields are global ids or -1, operand fields
    ``(tag, payload)`` pairs, ``consumed_qids`` the source-queue ids the
    AP's busy check probes (in operand order)."""
    op = instr.op
    if op is Op.STREAMLD:
        return (
            A_STREAM, S_LOAD, layout.resolve(instr.dest), -1, -1,
            _operand(instr.srcs[0]), _operand(instr.srcs[1]),
            _operand(instr.srcs[2]), (),
        )
    if op is Op.GATHER:
        iq = layout.resolve(instr.srcs[0])
        return (
            A_STREAM, S_GATHER, layout.resolve(instr.dest), -1, iq,
            _operand(instr.srcs[1]), None, _operand(instr.srcs[2]),
            (iq,),
        )
    if op is Op.STREAMST:
        dq = layout.resolve(instr.srcs[0])
        return (
            A_STREAM, S_STORE, -1, dq, -1,
            _operand(instr.srcs[1]), _operand(instr.srcs[2]),
            _operand(instr.srcs[3]), (dq,),
        )
    # SCATTER
    dq = layout.resolve(instr.srcs[0])
    iq = layout.resolve(instr.srcs[1])
    return (
        A_STREAM, S_SCATTER, -1, dq, iq,
        _operand(instr.srcs[2]), None, _operand(instr.srcs[3]),
        (dq, iq),
    )


def decode_execute(program: Program, layout: QueueLayout) -> list[tuple]:
    """Decode the execute program (mirrors
    :meth:`repro.core.execute_processor.ExecuteProcessor._decode`)."""
    decoded = []
    for instr in program:
        op = instr.op
        if op is Op.HALT:
            decoded.append((E_HALT,))
        elif op is Op.NOP:
            decoded.append((E_NOP,))
        elif op is Op.JMP:
            decoded.append((E_JMP, instr.branch_target()))
        elif op in (Op.BEQZ, Op.BNEZ):
            decoded.append((
                E_BR, _operand(instr.srcs[0]), op is Op.BEQZ,
                instr.branch_target(),
            ))
        elif op is Op.DECBNZ:
            decoded.append(
                (E_DECBNZ, instr.dest.index, instr.branch_target())
            )
        else:
            assert op in ALU_OPS, f"unhandled EP op {op}"
            srcs = tuple(
                (Q, layout.resolve(s)) if isinstance(s, Queue)
                else _operand(s)
                for s in instr.srcs
            )
            if isinstance(instr.dest, Queue):
                decoded.append(
                    (E_ALU, op, srcs, layout.resolve(instr.dest), None)
                )
            else:
                decoded.append((E_ALU, op, srcs, None, instr.dest.index))
    return decoded
