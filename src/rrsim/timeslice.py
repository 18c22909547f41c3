"""Per-process slice arithmetic: burst Range, original time slice (OTS), the
priority / shortness / context-switch components, and their sum, the
intelligent time slice (ITS).

All arithmetic is exact (integers and `fractions.Fraction`); traces built on
top of these values are bit-reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from .workload import ProcessSpec, Workload


@dataclass(frozen=True)
class SliceComponents:
    """Slice breakdown for one process.  ``its == ots + pc + sc + csc`` always."""

    slice_range: Fraction
    ots: int
    pc: int
    sc: int
    csc: int

    @property
    def its(self) -> int:
        return self.ots + self.pc + self.sc + self.csc


def _round_ratio(num: int, den: int) -> int:
    # num/den rounds up once its fractional part reaches a quarter of a time
    # unit; smaller remainders truncate.  This is the only rounding rule that
    # reproduces every published OTS table this simulator benchmarks against
    # (plain ceiling and round-half-up each miss cells).
    whole, rem = divmod(num, den)
    return whole + 1 if 4 * rem >= den else whole


def compute_range(w: Workload) -> Fraction:
    """Midpoint of the workload's burst extremes: (max burst + min burst) / 2."""
    bursts = w.bursts
    return Fraction(max(bursts) + min(bursts), 2)


def compute_csc(p: ProcessSpec, ots: int, pc: int, sc: int) -> int:
    """Context-switch component: pad the slice so a nearly-fitting process can
    finish in a single dispatch.

    With balance = burst - (ots + pc + sc):
      * balance < 0     -> the slice already covers the burst; csc = burst
      * balance < ots   -> csc = balance (the process completes in one grant)
      * otherwise       -> 0
    """
    balance = p.burst - (ots + pc + sc)
    if balance < 0:
        return p.burst
    if balance < ots:
        return balance
    return 0


def check_static_ots(static_ots: Optional[int]) -> None:
    """Raise ``ValueError`` for a static OTS below one time unit."""
    if static_ots is not None and static_ots < 1:
        raise ValueError(f"static OTS must be >= 1, got {static_ots}")


def compute_components(
    w: Workload, *, static_ots: Optional[int] = None
) -> List[SliceComponents]:
    """Slice components for every process in submission order, in one pass.
    This is the one statement of the OTS, PC and SC rules:

      * OTS = Range / priority (the paper's (Range·n) / (priority·n), where
        the process count n cancels), rounded per :func:`_round_ratio` and
        clamped to at least one unit; ``static_ots`` replaces it with a fixed
        constant (used by the two comparator policies)
      * PC = 1 at the workload's most urgent (numerically smallest) priority
      * SC = 1 when the burst is shorter than the one submitted just before
        it; 0 for the first process
      * CSC per :func:`compute_csc`
    """
    check_static_ots(static_ots)
    slice_range = compute_range(w)
    num, den = slice_range.numerator, slice_range.denominator
    top = min(w.priorities)
    out = []
    prev = w.processes[0].burst  # so the first process gets sc 0
    for p in w:
        ots = static_ots or max(1, _round_ratio(num, den * p.priority))
        pc = 1 if p.priority == top else 0
        sc = 1 if p.burst < prev else 0
        out.append(SliceComponents(slice_range, ots, pc, sc, compute_csc(p, ots, pc, sc)))
        prev = p.burst
    return out
