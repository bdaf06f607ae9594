"""Cycle-by-cycle execution timeline (a decoupled-pipeline diagram).

:class:`TimelineRecorder` attaches to :meth:`repro.core.SMAMachine.run`
as an observer and records, for every cycle, what each unit did: the
instruction the AP/EP retired (or the stall cause that held it), how many
requests the stream engine issued, and whether the store unit committed a
store.  :meth:`TimelineRecorder.render` lays the recording out one line
per cycle::

    cycle | access processor       | execute processor      |eng|st
    ------+------------------------+------------------------+---+--
        0 | mov r1, #16            | mov r1, #8             | . | .
        1 | streamld lq0, r1, #1.. | ~lq_empty              | 1 | .
        2 | halt                   | ~lq_empty              | 1 | .
        ...

Stall cycles show as ``~cause``; cycles after halt show as ``#``.  This is
the tool that makes the decoupling *visible*: the access column finishes
within a few lines while the execute column keeps consuming, with the
engine column streaming between them.

An observer runs only on the naive loop, which ticks every cycle, so
the recording has one record per cycle (up to ``max_cycles``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CycleRecord:
    cycle: int
    ap_event: str   # instruction text, "~<cause>", or "#" (halted)
    ep_event: str
    engine_issues: int
    store_issued: bool


class TimelineRecorder:
    """Observer that reconstructs per-cycle unit activity.

    Works by differencing the statistics counters between consecutive
    observer callbacks; the instruction retired in a cycle is the one the
    program counter pointed at when the cycle began.
    """

    def __init__(self, max_cycles: int = 100_000):
        self.max_cycles = max_cycles
        self.records: list[CycleRecord] = []
        # snapshot at the end of the previous cycle; a fresh machine
        # always begins at (pc=0, zero counters), so cycle 0 is recorded
        self._prev = (0, 0, 0, 0, 0, 0)
        # per-cause stall counters at the end of the previous cycle: the
        # cause whose counter incremented *this* cycle is this cycle's
        # stall, independent of any cumulative totals
        self._prev_ap_stalls: dict[str, int] = {}
        self._prev_ep_stalls: dict[str, int] = {}

    def __call__(self, machine, cycle: int) -> None:
        ap, ep = machine.ap, machine.ep
        current = (
            ap.pc,
            ap.stats.instructions,
            ep.pc,
            ep.stats.instructions,
            machine.engine.stats.requests_issued,
            machine.store_unit.stats.stores_issued,
        )
        if len(self.records) < self.max_cycles:
            prev_ap_pc, prev_ap_n, prev_ep_pc, prev_ep_n, prev_req, \
                prev_stores = self._prev
            self.records.append(CycleRecord(
                cycle=cycle,
                ap_event=self._event(
                    ap, prev_ap_pc, current[1] - prev_ap_n,
                    self._stall_delta(ap.stats.stall_cycles,
                                      self._prev_ap_stalls),
                ),
                ep_event=self._event(
                    ep, prev_ep_pc, current[3] - prev_ep_n,
                    self._stall_delta(ep.stats.stall_cycles,
                                      self._prev_ep_stalls),
                ),
                engine_issues=current[4] - prev_req,
                store_issued=current[5] > prev_stores,
            ))
        self._prev = current
        self._prev_ap_stalls = dict(ap.stats.stall_cycles)
        self._prev_ep_stalls = dict(ep.stats.stall_cycles)

    @staticmethod
    def _stall_delta(stalls: dict[str, int], prev: dict[str, int]) -> str | None:
        """The cause whose counter incremented this cycle (a processor
        records at most one stall cause per cycle), or None."""
        for cause, value in stalls.items():
            if value > prev.get(cause, 0):
                return cause
        return None

    @staticmethod
    def _event(processor, fetched_pc: int, retired: int,
               cause: str | None) -> str:
        if retired:
            if fetched_pc < len(processor.program):
                return str(processor.program[fetched_pc])
            return "?"
        if processor.halted:
            return "#"
        if cause:
            return f"~{cause}"
        return "~"

    # -- rendering -------------------------------------------------------

    def render(
        self,
        first: int = 0,
        last: int | None = None,
        column_width: int = 26,
    ) -> str:
        """Render cycles ``[first, last]`` as a text table."""
        rows = [
            r for r in self.records
            if r.cycle >= first and (last is None or r.cycle <= last)
        ]
        if not rows:
            return "(no cycles recorded in range)"

        def clip(text: str) -> str:
            if len(text) > column_width:
                return text[: column_width - 2] + ".."
            return text.ljust(column_width)

        header = (
            f"cycle | {'access processor'.ljust(column_width)} | "
            f"{'execute processor'.ljust(column_width)} |eng|st"
        )
        sep = (
            "------+-" + "-" * column_width + "-+-"
            + "-" * column_width + "-+---+--"
        )
        lines = [header, sep]
        for r in rows:
            engine = str(r.engine_issues) if r.engine_issues else "."
            store = "1" if r.store_issued else "."
            lines.append(
                f"{r.cycle:5d} | {clip(r.ap_event)} | {clip(r.ep_event)} "
                f"| {engine} | {store}"
            )
        return "\n".join(lines)
