"""Statistics helpers shared by run.py and its child processes.

Pure standard library, so both run.py (which never imports the
program under test) and the traced child processes can use them.
"""

from __future__ import annotations

import math
import re

#: A tail percentile is reported only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10

_METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Refuses (``ValueError``) when fewer than :data:`MIN_TAIL_SAMPLES`
    samples lie beyond the chosen rank: such a percentile is one or two
    unlucky samples, not a tail.  ``float('inf')`` entries stand for
    failed requests and sort last.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    beyond = len(ordered) - rank
    if rank < 1 or beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples leaves {max(beyond, 0)} "
            f"beyond it; need at least {MIN_TAIL_SAMPLES}")
    return ordered[rank - 1]


def union_length(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals (overlaps once)."""
    total = 0.0
    cursor = -math.inf
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the union of its children's intervals.

    Children are clipped to the parent, so a child that overruns its
    parent (clock skew between processes) never drives self time below 0.
    """
    clipped = [(max(start, s), min(end, e)) for s, e in children
               if min(end, e) > max(start, s)]
    return (end - start) - union_length(clipped)


def backlog_at(records, t: float) -> int:
    """Requests due by ``t`` and not completed by ``t``.

    ``records`` are ``(due, done)`` pairs; a failed request has
    ``done = inf`` and counts as outstanding forever.
    """
    return sum(1 for due, done in records if due <= t < done)


def step_verdict(latencies_ms, limit_ms: float, backlog_mid: int,
                 backlog_end: int, connections: int) -> str:
    """Whether one ladder step meets the latency limit.

    Returns ``"pass"``, ``"limit"`` (p95 over ``limit_ms``; failed
    requests are ``inf`` and so count as missing it) or ``"backlog"``
    (requests pile up faster than they drain: the backlog at the end of
    the step exceeds what the connections hold in flight and is still
    growing since mid-step).
    """
    if percentile(latencies_ms, 95) > limit_ms:
        return "limit"
    if backlog_end > connections and backlog_end > backlog_mid:
        return "backlog"
    return "pass"


def next_rate(lo: float | None, hi: float | None, factor: float,
              resolution: float) -> float | None:
    """The rate of the ladder's next step, or None when it has converged.

    ``lo`` is the highest rate that passed so far and ``hi`` the lowest
    that failed (None while none has).  Until a step fails the ladder
    climbs by ``factor``; then it bisects between ``lo`` and ``hi`` at
    their geometric mean until ``hi / lo`` is at most ``resolution``.
    With no passing rate there is nothing to bisect from: None.
    """
    if lo is None:
        return None
    if hi is None:
        return lo * factor
    if hi / lo <= resolution:
        return None
    return math.sqrt(lo * hi)


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise."""
    if not isinstance(name, str) or len(name) > 64 \
            or not _METRIC_NAME.fullmatch(name) or not name[0].isalnum():
        raise ValueError(f"invalid metric name {name!r}")
    return name
