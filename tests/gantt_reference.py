"""Reference statement of the ASCII Gantt chart.  ``render_gantt`` checks
``rrsim.report.render_gantt``, and ``merge_runs`` gives the runs that the
context-switch checks in ``test_metrics.py`` count.

The chart is laid out one cell at a time: a running list of the positions of
the ``|`` bars, and each boundary time padded out to the bar it belongs under.
Nothing here calls rrsim code, so a slip in the library's closed-form layout
cannot hide in a helper that both share.
"""


def merge_runs(rows):
    """Time-ordered (pid, start, end) runs from (pid, start, end) rows, with
    back-to-back rows of the same process coalesced."""
    merged = []
    for pid, start, end in rows:
        if merged and merged[-1][0] == pid and merged[-1][2] == start:
            merged[-1] = (pid, merged[-1][1], end)
        else:
            merged.append((pid, start, end))
    return merged


def render_gantt(rows):
    """One row of process labels over one row of boundary times, from
    (pid, start, end) rows; each merged run is one cell."""
    merged = merge_runs(rows)
    labels = [f"P{pid}" for pid, _, _ in merged]
    boundaries = [str(merged[0][1])] + [str(end) for _, _, end in merged]

    label_line = "|"
    positions = [0]
    for i, label in enumerate(labels):
        width = max(len(label) + 2, len(boundaries[i]), len(boundaries[i + 1]))
        label_line += " " + label + " " * (width - len(label) - 1) + "|"
        positions.append(len(label_line) - 1)
    time_line = ""
    for pos, boundary in zip(positions, boundaries):
        pad = max(pos - len(time_line), 1 if time_line else 0)
        time_line += " " * pad + boundary
    return label_line + "\n" + time_line.rstrip()
