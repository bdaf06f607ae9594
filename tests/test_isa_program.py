"""ProgramBuilder / Program behaviour and the disassembler."""

import pytest

from repro.errors import AssemblyError
from repro.isa import (
    Label,
    Op,
    ProgramBuilder,
    Reg,
    assemble,
    disassemble,
    ins,
)


class TestBuilder:
    def test_emit_returns_index(self):
        b = ProgramBuilder()
        assert b.op(Op.NOP) == 0
        assert b.op(Op.HALT) == 1

    def test_label_resolution(self):
        b = ProgramBuilder()
        b.label("top")
        b.op(Op.DECBNZ, Reg(1), Label("top"))
        b.op(Op.HALT)
        prog = b.finalize()
        assert prog[0].branch_target() == 0

    def test_label_at_end(self):
        b = ProgramBuilder()
        b.op(Op.JMP, None, Label("end"))
        b.op(Op.HALT)
        b.label("end")
        prog = b.finalize()
        assert prog[0].branch_target() == 2

    def test_missing_halt(self):
        b = ProgramBuilder("p")
        b.op(Op.NOP)
        with pytest.raises(AssemblyError, match="halt"):
            b.finalize()

    def test_label_on_non_branch_rejected(self):
        b = ProgramBuilder()
        b.emit(ins(Op.MOV, Reg(1), Label("oops")))
        b.op(Op.HALT)
        with pytest.raises(AssemblyError, match="non-branch"):
            b.finalize()

    def test_new_label_fresh(self):
        b = ProgramBuilder()
        b.label("loop_0")
        assert b.new_label("loop") != "loop_0"

    def test_listing_contains_labels(self):
        prog = assemble("top: nop\njmp top\nhalt")
        listing = prog.listing()
        assert "top:" in listing and "jmp" in listing


class TestDisassembler:
    @pytest.mark.parametrize(
        "source",
        [
            "mov r1, #5\nhalt",
            "top: add r1, r1, #1\ndecbnz r2, top\nhalt",
            "streamld lq0, a1, #1, #64\nstreamst sdq0, a2, #1, #64\nhalt",
            "jmp end\nnop\nend: halt",
            "mul x1, lq0, #2.5\nmov sdq0, x1\nbqnz 0\nhalt",
        ],
    )
    def test_reassembles_identically(self, source):
        prog = assemble(source, require_halt=False)
        text = disassemble(prog)
        again = assemble(text, require_halt=False)
        assert again.instructions == prog.instructions

    def test_branch_past_end_handled(self):
        # `jmp 2` with program length 2 targets the fall-off exit
        prog = assemble("jmp 2\nhalt")
        text = disassemble(prog)
        again = assemble(text, require_halt=False)
        assert again[0].op is Op.JMP
