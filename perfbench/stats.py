"""Small statistics used by the benchmark: the tail rule and self time."""

import math


def tail_percentile(values, beyond=10):
    """Highest percentile with at least ``beyond`` samples above it.

    Returns ``(percentile, value)``: ``value`` is the sorted sample with
    exactly ``beyond`` samples after it, and ``percentile`` is its rank as
    a share of the count, floored to a whole percent.  With ``beyond`` or
    fewer samples no percentile qualifies and the maximum is returned with
    percentile 100, so a short run still reports a number.
    """
    vals = sorted(values)
    n = len(vals)
    if n == 0:
        raise ValueError("tail of no values")
    if n <= beyond:
        return 100, vals[-1]
    k = n - 1 - beyond
    return math.floor(100 * (k + 1) / n), vals[k]


def covered_length(start, end, intervals):
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals
                     if b > start and a < end)
    covered = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                covered += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        covered += cur_b - cur_a
    return covered


def self_times(spans):
    """Per-span self time: duration minus the part its children cover.

    ``spans`` is a sequence of ``(name, start, end, parent, op)`` tuples,
    ``parent`` the index of the enclosing span or -1.
    """
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, t0, t1, _, _) in enumerate(spans):
        kids = [(spans[j][1], spans[j][2]) for j in children[i]]
        out.append((t1 - t0) - covered_length(t0, t1, kids))
    return out
