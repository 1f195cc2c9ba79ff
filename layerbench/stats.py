"""Order statistics the benchmark reports."""

import math

#: Percentiles a tail may be reported at, lowest first. Rungs a decade
#: apart leave wide bands of sample counts with the same rung, so runs of
#: one workload report the same percentile.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)

#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, q):
    """The ``q``-th percentile (0..100) of ``values``, linearly
    interpolated between closest ranks; ``None`` for no values."""
    ordered = sorted(values)
    if not ordered:
        return None
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50.0)


def tail_percentile(n):
    """The highest ladder percentile with ``MIN_BEYOND`` samples beyond it.

    Falls back to the median when the sample is too small for any rung;
    the caller records ``n`` next to the value, so a short sample shows.
    """
    chosen = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if n * (100.0 - q) / 100.0 >= MIN_BEYOND:
            chosen = q
    return chosen


def tail(values, starts=None, n_slices=3):
    """``(percentile, value)`` of the tail of ``values``.

    The percentile is chosen from all the values. With ``starts`` (when
    each value was taken), the value is the median of that percentile
    over ``n_slices`` equal time slices, so a burst of noise from other
    processes on the host in one slice does not move it.
    """
    q = tail_percentile(len(values))
    if not starts or len(values) < n_slices:
        return q, percentile(values, q)
    lo, hi = min(starts), max(starts)
    width = (hi - lo) / n_slices or 1.0
    slices = [[] for __ in range(n_slices)]
    for value, start in zip(values, starts):
        slices[min(int((start - lo) / width), n_slices - 1)].append(value)
    return q, median([percentile(s, q) for s in slices if s])
