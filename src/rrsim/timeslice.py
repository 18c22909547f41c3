"""Per-process slice arithmetic: burst Range, original time slice (OTS), the
priority / shortness / context-switch components, and their sum, the
intelligent time slice (ITS).

All arithmetic is exact (integers and `fractions.Fraction`); traces built on
top of these values are bit-reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, eq, lt
from typing import List, Optional

from .workload import Workload, cut

# the component columns of a SliceComponents, in table order; ITS is their sum
COMPONENT_FIELDS = ("ots", "pc", "sc", "csc", "its")


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


def check_static_ots(static_ots: Optional[int]) -> None:
    """Raise ``ValueError`` for a static OTS below one time unit."""
    if static_ots is not None and static_ots < 1:
        raise ValueError(f"static OTS must be >= 1, got {cut(static_ots)}")


@dataclass(frozen=True)
class SliceComponents:
    """The slice components of a workload: its Range, and one int list per
    component in submission order.  ``its[i] == ots[i] + pc[i] + sc[i] + csc[i]``;
    ``len()`` is the process count."""

    slice_range: Fraction
    ots: List[int]
    pc: List[int]
    sc: List[int]
    csc: List[int]
    its: List[int]

    def __len__(self) -> int:
        return len(self.its)


def compute_components(w: Workload, *, static_ots: Optional[int] = None) -> SliceComponents:
    """The slice components of every process of ``w``, as one record of int
    columns in submission order.  This is the one statement of the OTS, PC, SC
    and CSC rules:

      * OTS = Range / priority (the paper's (Range·n) / (priority·n), where
        the process count n cancels), rounded per :func:`_round_ratio` and
        clamped to at least one unit; ``static_ots`` replaces it with a fixed
        constant (used by the two comparator policies)
      * PC = 1 at the workload's most urgent (numerically smallest) priority
      * SC = 1 when the burst is shorter than the one submitted just before
        it; 0 for the first process
      * CSC pads the slice so a nearly-fitting process can finish in one
        dispatch.  With balance = burst - (OTS + PC + SC): the whole burst when
        balance < 0, the balance when it is below the OTS, else 0
    """
    check_static_ots(static_ots)
    slice_range = compute_range(w)
    bursts, priorities = w.bursts, w.priorities
    if static_ots is None:  # one rounding per distinct priority
        num, den = slice_range.numerator, slice_range.denominator
        ots_of = {pr: max(1, _round_ratio(num, den * pr)) for pr in set(priorities)}
        ots = list(map(ots_of.__getitem__, priorities))
    else:
        ots = [static_ots] * len(bursts)
    pc = list(map(int, map(eq, priorities, repeat(min(priorities)))))
    sc = [0, *map(int, map(lt, bursts[1:], bursts))]
    fixed = list(map(add, map(add, ots, pc), sc))  # OTS + PC + SC
    csc = [burst if burst < f else burst - f if burst - f < o else 0
           for burst, f, o in zip(bursts, fixed, ots)]
    return SliceComponents(slice_range, ots, pc, sc, csc, list(map(add, fixed, csc)))
