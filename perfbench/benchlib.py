"""Pure reductions behind perfbench/run.py, kept apart so they can be tested.

Nothing here touches processes or files: percentiles, the rate-ladder
pick, `/metrics` parsing and deltas, and span self times.
"""

import math

# A percentile is reported only when at least this many samples lie
# beyond it.
SAMPLES_BEYOND = 10


def nearest_rank(sorted_values, q):
    """Nearest-rank quantile: the smallest sample with at least q*n samples
    at or below it. `sorted_values` is ascending and non-empty, 0 < q <= 1."""
    if not sorted_values:
        raise ValueError("quantile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    rank = math.ceil(q * len(sorted_values) - 1e-9)
    return sorted_values[min(max(rank, 1), len(sorted_values)) - 1]


def beyond(n, q):
    """How many of n samples lie strictly beyond the q nearest-rank sample."""
    return n - min(max(math.ceil(q * n - 1e-9), 1), n)


def supported_percentile(values, q, failures=0):
    """The q percentile of `values`, with each of `failures` counted as an
    infinitely slow sample, or None when fewer than SAMPLES_BEYOND samples
    lie beyond it."""
    n = len(values) + failures
    if n == 0 or beyond(n, q) < SAMPLES_BEYOND:
        return None
    return nearest_rank(sorted(values) + [math.inf] * failures, q)


def rung_passes(rung, limit_us):
    """A ladder rung meets the limit when every request was answered 2xx,
    at most 1% of what was sent was still outstanding when the schedule
    ended (no growing backlog), and a supported p99 is within the limit."""
    failures = rung["non2xx"] + rung["dropped"]
    p99 = supported_percentile(rung["latency_us"], 0.99, failures)
    return (
        failures == 0
        and rung["backlog_at_end"] * 100 <= rung["sent"]
        and p99 is not None
        and p99 <= limit_us
    )


def achieved_rps(rung):
    """2xx responses per second over the rung, first send to last response."""
    ok = rung["completed"] - rung["non2xx"]
    return ok / rung["wall_s"] if rung["wall_s"] > 0 else 0.0


def ladder_pick(rungs, limit_us):
    """The highest rung of an ascending ladder that meets the limit with
    every rung below it meeting it too; returns (rung rate, achieved rate),
    or (0.0, 0.0) when even the first rung misses."""
    best = (0.0, 0.0)
    for rung in sorted(rungs, key=lambda r: r["rate"]):
        if not rung_passes(rung, limit_us):
            break
        best = (rung["rate"], achieved_rps(rung))
    return best


def parse_metrics(text):
    """Parses a `GET /metrics` dump into ({counter: value}, {histogram:
    (count, sum)})."""
    counters, histograms = {}, {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "counter" and parts[2] == "=":
            counters[parts[1]] = int(parts[3])
        elif len(parts) >= 2 and parts[0] == "hist" and parts[1].endswith(":"):
            fields = dict(p.split("=", 1) for p in parts[2:] if "=" in p)
            histograms[parts[1][:-1]] = (int(fields["n"]), int(fields["sum"]))
    return counters, histograms


def metrics_delta(before_text, after_text):
    """After-minus-before of every counter and histogram in two dumps of one
    process; a name missing from `before` counts from zero."""
    c0, h0 = parse_metrics(before_text)
    c1, h1 = parse_metrics(after_text)
    counters = {k: v - c0.get(k, 0) for k, v in c1.items()}
    histograms = {
        k: (n - h0.get(k, (0, 0))[0], s - h0.get(k, (0, 0))[1]) for k, (n, s) in h1.items()
    }
    return counters, histograms


def self_times(spans):
    """Self time in ns of every span: its duration minus the part of its
    interval that its children cover (overlapping children count once)."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        start, end = s["start_ns"], s["end_ns"]
        covered, cursor = 0, start
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_ns"]):
            lo, hi = max(c["start_ns"], cursor), min(c["end_ns"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (end - start) - covered
    return out


def layer_totals(spans):
    """Per span name: count, total duration, total self time (seconds) and
    total work."""
    selfs = self_times(spans)
    totals = {}
    for s in spans:
        t = totals.setdefault(s["name"], {"count": 0, "dur_s": 0.0, "self_s": 0.0, "work": 0})
        t["count"] += 1
        t["dur_s"] += (s["end_ns"] - s["start_ns"]) * 1e-9
        t["self_s"] += selfs[s["id"]] * 1e-9
        t["work"] += s["work"]
    return totals
