"""Speculative access-processor run-ahead (the LOD-recovery subsystem).

The paper's central negative result is that loss-of-decoupling events —
data-dependent addresses (``FROMQ`` from the EAQ) and execute-resolved
branches (``BQNZ``/``BQEZ`` on the EBQ) — drag the access processor back
to the execute processor's speed, collapsing the run-ahead advantage.
This module implements the modern fix (Szafarczyk et al., "Compiler
Support for Speculation in Decoupled Access/Execute Architectures"):
instead of stalling at a LOD point, the AP asks a predictor for the
value, checkpoints its architectural state, and keeps issuing memory
traffic *speculatively*.

Mechanism
---------

* **Predictor.**  Deterministic per (pc, episode, seed): a hash coin
  decides *a priori* whether each prediction is correct.  A correct
  prediction supplies the exact value the EP will eventually deliver
  (obtained from an *oracle pre-run*: a non-speculative clone of the
  machine executed once up front, with taps recording every EAQ/EBQ pop
  value in order); an incorrect one supplies a deliberately wrong value
  (flipped branch direction / perturbed address).  ``accuracy=0``
  never opens a frame, so such runs are bit-identical to a
  non-speculative machine; ``accuracy=1`` always predicts correctly.

* **Frames.**  Each speculation pushes a frame recording the AP shadow
  state (registers, pc), the pop-sequence cursor, the coin verdict, and
  every queue slot the AP subsequently pops or reserves.  Nested
  speculation (up to ``max_depth`` frames) lets the AP run past several
  unresolved LOD points at once.

* **Poison.**  Queue slots reserved (loads) or pushed (store addresses)
  while any frame is open are poison-tagged; ``OperandQueue.head_ready``
  and its inlined copies in the ``*_fast`` step paths hide poisoned
  heads from the EP, the stream engine and the store unit, so
  speculative data never leaks into non-speculative state.  Store
  *data* stays in the SDQ and stores only commit after the producing
  frame commits.

* **Resolution.**  The EP keeps executing the non-speculative path; its
  EAQ/EBQ pushes are the confirmations.  While predictions are pending
  on a queue the AP never consumes that queue's real head — arrivals
  are matched FIFO against pending frames at end of cycle.  A confirmed
  frame commits once every outer frame has committed: the confirming
  arrival is popped, its reserved slots are un-poisoned.  A refuted
  frame rolls back: reserved slots are squashed (including their
  in-flight memory completions), popped slots are re-inserted at the
  head, the AP shadow state is restored, and the AP stalls for
  ``rollback_penalty`` cycles on the new ``misspeculation`` cause.

* **Accounting.**  Statistics are *not* rolled back: wrong-path
  instructions, memory traffic and stall cycles are work the machine
  really did.  The metrics partition gains a ``misspeculation`` bucket
  (recovery penalty + speculation barriers); every elapsed cycle stays
  attributed to exactly one bucket.

Speculative runs go through either loop, event-horizon (the default)
or naive ticking.  The event-horizon loop steps the same ``*_fast``
methods as a plain run: they hide poisoned heads, and
``AccessProcessor.step_fast`` keeps every instruction decoded, calling
the hooks below in ``step``'s order (the penalty gate, then
``ap_fromq``/``ap_branch_value``, the wrong-path address rules and
``note_reserved``).  It still jumps idle spans: a rollback
penalty ends at :attr:`SpeculationEngine.penalty_until`, which the AP
reports as its horizon.  Streams are speculation barriers: a descriptor
op stalls (``spec_barrier``) until all frames resolve.  The oracle
pre-run is memoized in-process (:func:`build_oracle`), so jobs that
share programs, configuration and inputs run it once.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from ..config import SpeculationConfig
from ..errors import QueueError, SimulationError


@dataclass
class SpeculationStats:
    """What the speculative AP did during one run."""

    #: frames opened (predictions made)
    predictions: int = 0
    #: predictions the coin decided would be correct
    correct_predictions: int = 0
    #: frames committed (prediction confirmed by the EP's value)
    commits: int = 0
    #: rollbacks performed (each may undo several nested frames)
    rollbacks: int = 0
    #: in-flight memory completions squashed by rollbacks
    squashed_completions: int = 0
    #: speculation refused because the oracle table was exhausted
    #: (the reference run never popped this far — program is ending)
    oracle_refusals: int = 0
    #: speculation refused because ``max_depth`` frames were open
    depth_refusals: int = 0
    #: deepest simultaneous frame nesting observed
    max_depth: int = 0

    def to_dict(self) -> dict:
        return {
            "predictions": self.predictions,
            "correct_predictions": self.correct_predictions,
            "commits": self.commits,
            "rollbacks": self.rollbacks,
            "squashed_completions": self.squashed_completions,
            "oracle_refusals": self.oracle_refusals,
            "depth_refusals": self.depth_refusals,
            "max_depth": self.max_depth,
        }


@dataclass
class _Frame:
    """One open speculation: shadow state + undo log + verdict."""

    key: str                 # "eaq" | "ebq"
    pc: int                  # AP pc of the speculated instruction
    registers: list          # AP register file at entry
    halted: bool             # AP halted flag at entry (always False)
    pop_seq: dict            # pop-sequence cursors at entry
    correct: bool            # coin verdict, decided at prediction time
    value: float             # the true (oracle) value being predicted
    resolved: bool = False   # confirming arrival observed
    #: (queue, slot) reserved/pushed while this frame was innermost
    reserved: list = field(default_factory=list)
    #: (queue, slot) popped while this frame was innermost, in pop order
    popped: list = field(default_factory=list)


#: most oracle pre-runs :func:`build_oracle` keeps in its in-process
#: memo (least recently used evicted first); the paper suite's
#: speculative jobs share 2 distinct keys
ORACLE_MEMO_SIZE = 8

#: memo key -> recorded pop sequences, as tuples (see build_oracle)
_ORACLE_MEMO: dict[tuple, dict[str, tuple]] = {}


def build_oracle(machine, max_cycles: int = 10_000_000) -> dict:
    """Record the EAQ/EBQ pop-value sequences of a non-speculative
    reference run of ``machine``'s programs over a copy of its current
    memory image.

    Architectural values (unlike timing) are scheduler-independent, and
    correct speculation plus rollback-on-misprediction preserves the
    architectural history exactly, so the recorded sequences stay valid
    for the whole speculative run.

    The clone runs on the event-horizon loop, whose AP pops the EP→AP
    queues through ``OperandQueue.pop`` / ``pop_slot`` and so feeds the
    taps.  A pop that bypassed the tap would leave a tap short of its
    queue's pop count and silently refuse every prediction; that raises
    :class:`SimulationError` instead.

    The sequences depend only on what the pre-run is given, so they are
    memoized in-process (at most :data:`ORACLE_MEMO_SIZE` entries) under
    both programs' instruction text, the pre-run's configuration,
    ``max_cycles`` and a sha256 of the memory image.  A hit returns fresh
    lists without a pre-run; ``SpeculationEngine._commit``'s divergence
    check still guards every confirmed prediction.
    """
    from .machine import SMAMachine

    cfg = replace(machine.config, speculation=None)
    image = machine.memory._words[: cfg.memory.size]
    key = (
        tuple(map(str, machine.ap.program)),
        tuple(map(str, machine.ep.program)),
        cfg,
        max_cycles,
        hashlib.sha256(image).hexdigest(),  # the array's buffer, uncopied
    )
    taps = _ORACLE_MEMO.pop(key, None)
    if taps is None:
        ref = SMAMachine(machine.ap.program, machine.ep.program, cfg)
        ref.memory._words[:] = image
        queues = {"eaq": ref.queues.ep_to_ap_data,
                  "ebq": ref.queues.ep_to_ap_branch}
        recorded = {name: [] for name in queues}
        for name, queue in queues.items():
            queue._tap = recorded[name]
        ref.run(max_cycles=max_cycles, scheduler="event-horizon")
        for name, queue in queues.items():
            if len(recorded[name]) < queue.stats.pops:
                raise SimulationError(
                    f"speculation oracle pre-run recorded "
                    f"{len(recorded[name])} of {queue.stats.pops} {name} "
                    "pops; its scheduler bypassed the queue tap"
                )
        taps = {name: tuple(values) for name, values in recorded.items()}
        if len(_ORACLE_MEMO) >= ORACLE_MEMO_SIZE:
            del _ORACLE_MEMO[next(iter(_ORACLE_MEMO))]
    _ORACLE_MEMO[key] = taps  # (re)inserted as the most recently used
    return {name: list(values) for name, values in taps.items()}


class SpeculationEngine:
    """Per-machine speculation state machine (see module docstring).

    The AP calls in through four hooks (``ap_blocked``, ``ap_fromq``,
    ``ap_branch_value``, ``ap_stream_barrier`` plus ``note_reserved``);
    the machine calls :meth:`on_cycle` once per cycle after both
    processors have stepped, which is where predictions resolve.
    """

    def __init__(self, machine, config: SpeculationConfig):
        self.config = config
        self.ap = machine.ap
        self.memory = machine.banked
        self.eaq = machine.queues.ep_to_ap_data
        self.ebq = machine.queues.ep_to_ap_branch
        self.stats = SpeculationStats()
        #: values consumed (really or speculatively) per queue, indexing
        #: the oracle tables; frames snapshot and rollback restores it
        self.pop_seq = {"eaq": 0, "ebq": 0}
        #: first cycle the AP may issue again after a rollback
        self.penalty_until = 0
        #: open frames, outermost first
        self.stack: list[_Frame] = []
        #: unresolved/uncommitted frames per queue, FIFO
        self.pending: dict[str, list[_Frame]] = {"eaq": [], "ebq": []}
        #: per queue, how many frames at the front of ``pending`` have
        #: resolved (resolution is FIFO, so they are always a prefix)
        self.resolved = {"eaq": 0, "ebq": 0}
        self.oracle = build_oracle(machine)

    # -- state queries ----------------------------------------------------

    def idle(self) -> bool:
        """True when no speculation is outstanding (machine may finish)."""
        return not self.stack

    def in_flight(self) -> bool:
        return bool(self.stack)

    # -- AP hooks ----------------------------------------------------------

    def ap_blocked(self, ap, now: int) -> bool:
        """Rollback-penalty gate, called at the top of every AP step."""
        if now < self.penalty_until:
            ap._stall("misspeculation")
            return True
        return False

    def ap_stream_barrier(self, ap) -> bool:
        """Descriptor ops are speculation barriers: a wrong-path stream
        cannot be squashed, so the AP waits for all frames to resolve."""
        if self.stack:
            ap._stall("spec_barrier")
            return True
        return False

    def note_reserved(self, queue, slot) -> None:
        """Poison-tag a slot the AP just reserved/pushed, if speculative."""
        if self.stack:
            slot.poisoned = True
            self.stack[-1].reserved.append((queue, slot))

    def ap_fromq(self, ap, queue, key, cause):
        """Speculation-aware FROMQ operand, the speculative half of
        ``AccessProcessor._fromq``: the value to load, or ``None`` when
        the AP stalled (stall already recorded).  ``key`` names an EP->AP
        queue (``"eaq"``/``"ebq"``); ``None`` is an index queue."""
        if key is None:
            # index queue: never predicted, but the speculative AP may
            # consume its own poisoned run-ahead data (undoably)
            if self.stack:
                if queue.head_filled():
                    slot = queue.pop_slot()
                    self.stack[-1].popped.append((queue, slot))
                    return slot.value
            elif queue.head_ready():
                return queue.pop()
            queue.note_empty_stall()
            ap._stall(cause)
            return None
        return self._consume(ap, key, queue, cause)

    def ap_branch_value(self, ap):
        """Speculation-aware BQNZ/BQEZ operand; ``None`` means the AP
        stalled (stall already recorded)."""
        return self._consume(ap, "ebq", self.ebq, "lod_ebq")

    # -- consumption / prediction ------------------------------------------

    def _consume(self, ap, key: str, queue, cause: str):
        slots = queue._slots
        # queue.head_ready(), inlined
        if not self.pending[key] and slots and slots[0].filled \
                and not slots[0].poisoned:
            # a real value with nothing outstanding on this queue
            if self.stack:
                slot = queue.pop_slot()
                self.stack[-1].popped.append((queue, slot))
                value = slot.value
            else:
                value = queue.pop()
            self.pop_seq[key] += 1
            return value
        # while predictions are pending, arrivals in the queue belong to
        # them (FIFO) — the AP must predict again or wait
        value = self._speculate(ap, key)
        if value is None:
            queue.note_empty_stall()
            ap._stall(cause)
        return value

    def _speculate(self, ap, key: str):
        if len(self.stack) >= self.config.max_depth:
            self.stats.depth_refusals += 1
            return None
        table = self.oracle[key]
        seq = self.pop_seq[key]
        if seq >= len(table):
            self.stats.oracle_refusals += 1
            return None
        actual = table[seq]
        self.stats.predictions += 1
        correct = self._coin(ap.pc)
        if correct:
            self.stats.correct_predictions += 1
        frame = _Frame(
            key=key,
            pc=ap.pc,
            registers=list(ap.registers),
            halted=ap.halted,
            pop_seq=dict(self.pop_seq),
            correct=correct,
            value=actual,
        )
        self.stack.append(frame)
        if len(self.stack) > self.stats.max_depth:
            self.stats.max_depth = len(self.stack)
        self.pending[key].append(frame)
        self.pop_seq[key] += 1
        return actual if correct else self._wrong_value(key, actual)

    def _coin(self, pc: int) -> bool:
        """Deterministic per-(pc, episode, seed) correctness verdict."""
        cfg = self.config
        if cfg.accuracy >= 1.0:
            return True
        n = self.stats.predictions  # 1-based episode counter
        h = (pc * 2654435761 + n * 40503 + cfg.seed * 97) & 0xFFFFFFFF
        h ^= h >> 16
        h = (h * 0x45D9F3B) & 0xFFFFFFFF
        h ^= h >> 16
        return h / 2.0 ** 32 < cfg.accuracy

    @staticmethod
    def _wrong_value(key: str, actual: float) -> float:
        """A deliberately wrong prediction that still drives a plausible
        wrong path: branches flip direction; addresses shift by one
        element (staying non-negative, so wrong-path loads stay in
        plausible range — they are additionally clamped at issue)."""
        if key == "ebq":
            return 1.0 if actual == 0 else 0.0
        return actual - 1.0 if actual >= 1.0 else actual + 1.0

    # -- resolution ---------------------------------------------------------

    def on_cycle(self, machine, now: int) -> None:
        """End-of-cycle resolution: match EP arrivals against pending
        frames FIFO, roll back on the first refuted frame, cascade-commit
        resolved frames from the outermost.

        Returns at once while the outermost frame is unresolved and
        neither queue holds more slots than its resolved frames account
        for: no arrival can then confirm a frame, nor can one commit."""
        stack = self.stack
        resolved = self.resolved
        if not stack or (
            not stack[0].resolved
            and len(self.eaq._slots) <= resolved["eaq"]
            and len(self.ebq._slots) <= resolved["ebq"]
        ):
            return
        progressed = True
        while progressed and stack:
            progressed = False
            for key, queue in (("eaq", self.eaq), ("ebq", self.ebq)):
                pend = self.pending[key]
                done = resolved[key]
                if done == len(pend):
                    continue
                # every slot in the EAQ/EBQ is a filled EP push; slots
                # beyond the already-resolved count are new confirmations
                # (resolving a frame moves no slot)
                filled = queue.filled_count
                while done < len(pend) and filled > done:
                    frame = pend[done]
                    if not frame.correct:
                        self._rollback(frame, now)
                        return
                    frame.resolved = True
                    done += 1
                    resolved[key] = done
                    progressed = True
            while stack and stack[0].resolved:
                self._commit(stack.pop(0))
                progressed = True

    def _commit(self, frame: _Frame) -> None:
        queue = self.eaq if frame.key == "eaq" else self.ebq
        confirmed = queue.pop()
        if confirmed != frame.value:
            raise SimulationError(
                "speculation oracle diverged: predicted "
                f"{frame.value!r} on {frame.key} but the EP delivered "
                f"{confirmed!r}"
            )
        for _q, slot in frame.reserved:
            slot.poisoned = False
        pend = self.pending[frame.key]
        assert pend and pend[0] is frame
        pend.pop(0)
        self.resolved[frame.key] -= 1
        self.stats.commits += 1

    def _rollback(self, frame: _Frame, now: int) -> None:
        """Undo ``frame`` and everything nested inside it (LIFO)."""
        idx = self.stack.index(frame)
        squash = []
        for g in reversed(self.stack[idx:]):
            reserved_ids = {id(s) for _q, s in g.reserved}
            # squash this frame's reservations first so re-inserting its
            # pops can never transiently exceed entry-time occupancy
            for q, slot in g.reserved:
                try:
                    q.remove_slot(slot)
                except QueueError:
                    pass  # already popped speculatively; not re-inserted
                squash.append(slot)
            for q, slot in reversed(g.popped):
                if id(slot) not in reserved_ids:
                    q.unpop_slot(slot)
            self.pending[g.key].remove(g)
            if g.resolved:
                self.resolved[g.key] -= 1
        del self.stack[idx:]
        if squash:
            self.stats.squashed_completions += (
                self.memory.squash_completions(squash)
            )
        ap = self.ap
        ap.registers[:] = frame.registers
        ap.pc = frame.pc
        ap.halted = frame.halted
        ap._stalled_on = None
        self.pop_seq = dict(frame.pop_seq)
        self.penalty_until = now + 1 + self.config.rollback_penalty
        self.stats.rollbacks += 1
