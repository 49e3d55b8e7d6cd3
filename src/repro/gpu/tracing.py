"""Dynamic-instruction traces.

A thread trace is the ordered list of instructions the thread *issued*
(including predicated-off ones, which occupy an issue slot but write no
destination).  Each entry is the compact tuple ``(pc, dest_width)``:

* ``pc`` — static instruction index, enough to recover the opcode, operand
  structure and loop membership from the program;
* ``dest_width`` — bits written by this dynamic instruction (0 for stores,
  branches, barriers and predicated-off slots).

Everything the pruning stages need derives from these traces:

* the paper's iCnt (dynamic instruction count) is ``len(trace)``;
* the exhaustive fault-site count (Eq. 1) is ``sum(width for _, width in trace)``;
* loop detection walks the pc sequence looking for back-edges.
"""

from __future__ import annotations

from dataclasses import dataclass

from .program import Program

TraceEntry = tuple[int, int]
ThreadTrace = list[TraceEntry]


@dataclass(frozen=True)
class TraceSummary:
    """Per-thread aggregates used by thread-wise pruning."""

    icnt: int
    fault_sites: int


def site_count(trace: ThreadTrace) -> int:
    """Fault sites of one thread (Eq. 1's inner sum): its summed widths.

    A vectorized-backend :class:`~repro.gpu.vector.CompactTrace` sums its
    width array in numpy; a paper-scale grid has tens of millions of
    entries.
    """
    widths = getattr(trace, "widths", None)
    if widths is not None:
        return int(widths.sum())
    return sum(width for _, width in trace)


def summarize(trace: ThreadTrace) -> TraceSummary:
    return TraceSummary(icnt=len(trace), fault_sites=site_count(trace))


def static_key_sequence(program: Program, trace: ThreadTrace) -> list[tuple]:
    """The thread's dynamic instruction stream as structural identity keys.

    Instruction-wise pruning matches these sequences across representative
    threads to find common code blocks (paper Fig. 5 / Table V).
    """
    instructions = program.instructions
    return [instructions[pc].static_key() for pc, _ in trace]
