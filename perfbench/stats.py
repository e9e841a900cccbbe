"""Statistics helpers of the benchmark (tested in test_stats.py).

Timings are reported as a median and the highest percentile that has at
least ten samples beyond it, with the sample count; metrics across runs
as median and quartiles; failures as a share of what was attempted.
"""

import math
import statistics

# Percentiles tried for a tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def _rank(n, p):
    # 1-based nearest rank; the tolerance keeps 99.9% of 10000 at 9990
    # despite binary rounding.
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def percentile(samples, p):
    """Nearest-rank percentile `p` (0 < p <= 100) of `samples`."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    return ordered[_rank(len(ordered), p) - 1]


def samples_beyond(n, p):
    """How many of `n` samples lie above the nearest-rank percentile p."""
    return n - _rank(n, p)


def supports(n, p, min_beyond=MIN_BEYOND):
    """Whether `n` samples leave at least `min_beyond` beyond percentile p."""
    return n > 0 and samples_beyond(n, p) >= min_beyond


def tail(samples, candidates=TAIL_PERCENTILES, min_beyond=MIN_BEYOND):
    """The highest candidate percentile with at least `min_beyond` samples
    beyond it, as (percentile, value, sample count); None if none has."""
    for p in candidates:
        if supports(len(samples), p, min_beyond):
            return p, percentile(samples, p), len(samples)
    return None


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(first quartile, median, third quartile) as statistics.quantiles
    gives them (its default 'exclusive' method)."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the quartiles as a share of the median (0 when the
    median is 0 and so are the quartiles; infinite when only the median
    is 0)."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(q2)


def failed_share(attempted, failed):
    """Failed operations as a share of attempted ones."""
    if attempted <= 0:
        raise ValueError("nothing was attempted")
    return failed / attempted


def self_times(spans):
    """Per span name: (count, total duration, total self time), in the
    spans' time unit. `spans` is an iterable of (id, parent, name, start,
    end). A span's self time is its duration minus the part of it its
    child spans cover (children clipped to the parent, overlaps merged).
    """
    by_id = {}
    children = {}
    for sid, parent, name, start, end in spans:
        by_id[sid] = (name, start, end)
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    totals = {}
    for sid, (name, start, end) in by_id.items():
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(sid, ())):
            lo = max(c_start, reach)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        count, total, own = totals.get(name, (0, 0, 0))
        totals[name] = (count + 1, total + (end - start),
                        own + (end - start) - covered)
    return totals


def read_spans(path):
    """Parses the tab-separated span file the harness writes
    (id, parent, request, name, start_ns, end_ns per line)."""
    spans = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            sid, parent, _request, name, start, end = line.rstrip("\n").split("\t")
            spans.append((int(sid), int(parent), name, int(start), int(end)))
    return spans
