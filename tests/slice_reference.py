"""Reference statement of the per-process slice rules, used to check
``rrsim.compute_components``.

Each rule is written one process at a time in plain ``Fraction`` arithmetic,
the way the paper states it.  Nothing here calls rrsim code, so a slip in the
library's one-pass integer version cannot hide in a helper that both share.
"""
from fractions import Fraction

from conftest import process_rows


def round_slice(value):
    """Round a nonnegative slice length to whole time units: up once the
    fractional part reaches a quarter, else down."""
    value = Fraction(value)
    whole = value.numerator // value.denominator
    return whole + 1 if value - whole >= Fraction(1, 4) else whole


def slice_range(w):
    """(max burst + min burst) / 2."""
    return Fraction(max(w.bursts) + min(w.bursts), 2)


def ots(p, rng):
    """Original time slice: Range / priority, rounded, at least one unit."""
    return max(1, round_slice(Fraction(rng) / p.priority))


def pc(p, top):
    """1 at the workload's most urgent (numerically smallest) priority, ``top``."""
    return 1 if p.priority == top else 0


def sc(i, w):
    """1 when process i's burst is shorter than its predecessor's; 0 for the
    first process."""
    return 1 if i > 0 and w.bursts[i] < w.bursts[i - 1] else 0


def csc(p, ots, pc, sc):
    """The whole burst when OTS+PC+SC covers it, the balance when that is
    below the OTS, else 0."""
    balance = p.burst - (ots + pc + sc)
    if balance < 0:
        return p.burst
    return balance if balance < ots else 0


def components(w, static_ots=None):
    """(range, ots, pc, sc, csc) for each process in submission order."""
    rng = slice_range(w)
    top = min(w.priorities)  # once per workload, not once per process
    out = []
    for i, p in enumerate(process_rows(w)):
        o = ots(p, rng) if static_ots is None else static_ots
        c_pc, c_sc = pc(p, top), sc(i, w)
        out.append((rng, o, c_pc, c_sc, csc(p, o, c_pc, c_sc)))
    return out
