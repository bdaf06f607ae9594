"""Program container: an ordered sequence of instructions plus labels.

A :class:`ProgramBuilder` collects instructions and label definitions (the
code generators and the assembler both target it); :meth:`ProgramBuilder.
finalize` resolves every symbolic branch target to an absolute instruction
index and returns an immutable :class:`Program`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import AssemblyError
from .instruction import Instruction
from .opcodes import Op
from .operands import Label, Operand


@dataclass(frozen=True)
class Program:
    """An immutable, label-resolved instruction sequence.

    ``data`` carries initialized memory segments declared with the
    assembler's ``.data`` directive: ``(base_address, (word, ...))``
    tuples the machines stage into memory before execution.
    """

    name: str
    instructions: tuple[Instruction, ...]
    labels: dict[str, int]
    data: tuple[tuple[int, tuple[float, ...]], ...] = ()

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, i: int) -> Instruction:
        return self.instructions[i]

    def __iter__(self):
        return iter(self.instructions)

    def listing(self) -> str:
        """Human-readable listing with instruction indices and labels."""
        by_index: dict[int, list[str]] = {}
        for name, idx in self.labels.items():
            by_index.setdefault(idx, []).append(name)
        lines = []
        for i, instr in enumerate(self.instructions):
            for lbl in by_index.get(i, []):
                lines.append(f"{lbl}:")
            lines.append(f"  {i:4d}  {instr}")
        return "\n".join(lines)


class ProgramBuilder:
    """Accumulates instructions and labels, then finalizes to a Program.

    Usage::

        b = ProgramBuilder("loop")
        b.label("top")
        b.emit(ins(Op.ADD, Reg(1), Reg(1), Imm(1)))
        b.emit(ins(Op.DECBNZ, Reg(2), Label("top")))
        b.emit(ins(Op.HALT))
        prog = b.finalize()
    """

    def __init__(self, name: str = "program"):
        self.name = name
        self._instructions: list[Instruction] = []
        self._labels: dict[str, int] = {}
        self._data: list[tuple[int, tuple[float, ...]]] = []

    def __len__(self) -> int:
        return len(self._instructions)

    def emit(self, instr: Instruction) -> int:
        """Append ``instr``; returns its index."""
        self._instructions.append(instr)
        return len(self._instructions) - 1

    def op(self, op: Op, dest: Operand | None = None, *srcs: Operand) -> int:
        """Build-and-emit shorthand."""
        return self.emit(Instruction(op, dest, tuple(srcs)))

    def data(self, base: int, values) -> None:
        """Declare an initialized memory segment (``.data`` directive)."""
        if base < 0:
            raise AssemblyError(f"negative data base {base}")
        self._data.append((int(base), tuple(float(v) for v in values)))

    def label(self, name: str) -> None:
        """Define ``name`` at the *next* instruction index."""
        if name in self._labels:
            raise AssemblyError(f"duplicate label {name!r}")
        self._labels[name] = len(self._instructions)

    def new_label(self, stem: str) -> str:
        """Return a label name guaranteed fresh within this builder."""
        i = 0
        while f"{stem}_{i}" in self._labels or any(
            isinstance(s, Label) and s.name == f"{stem}_{i}"
            for ins_ in self._instructions
            for s in ins_.srcs
        ):
            i += 1
        return f"{stem}_{i}"

    def finalize(self, require_halt: bool = True) -> Program:
        """Resolve labels and freeze.

        Raises :class:`AssemblyError` on undefined labels, labels past the
        end of the program, or (when ``require_halt``) a missing ``halt``.
        """
        if require_halt and not any(
            i.op is Op.HALT for i in self._instructions
        ):
            raise AssemblyError(f"program {self.name!r} has no halt")
        resolved: list[Instruction] = []
        n = len(self._instructions)
        for idx, label_idx in self._labels.items():
            if label_idx > n:
                raise AssemblyError(f"label {idx!r} beyond end of program")
        for instr in self._instructions:
            if instr.info.is_branch:
                tgt = instr.srcs[instr.info.target_index]
                if isinstance(tgt, Label):
                    if tgt.name not in self._labels:
                        raise AssemblyError(f"undefined label {tgt.name!r}")
                    instr = instr.with_target(self._labels[tgt.name])
                target = instr.branch_target()
                if not 0 <= target <= n:
                    raise AssemblyError(
                        f"branch target {target} out of range in {instr}"
                    )
            else:
                # non-branch instructions must not carry unresolved labels
                if any(isinstance(s, Label) for s in instr.srcs):
                    raise AssemblyError(
                        f"label operand on non-branch instruction {instr}"
                    )
            resolved.append(instr)
        return Program(
            self.name, tuple(resolved), dict(self._labels),
            tuple(self._data),
        )
