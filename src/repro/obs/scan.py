"""Per-country scan scopes and the deterministic geolocation funnel.

One :class:`ScanObs` accompanies one country through phase 1 exactly
like a :class:`~repro.faults.session.FaultSession` does: it is created
by the pipeline when observability is on, records that country's spans
(``scan`` -> ``directory``/``crawl``/``filter``/``resolve``/``geolocate``
-> per-geolocation-step) and metric deltas, and is absorbed by the
pipeline's :class:`~repro.obs.Observability` when the scan returns.
Every metric a scope records is a pure function of
``(world, country)``, which is what keeps the merged registry
identical across runs.

The geolocation-step **funnel** is the one family of metrics that must
*not* be recorded where the work happens: the geolocator's shared
memos mean whichever scan first observes an address pays for its
computation, and a warm-cache run observes none, so computation-site
counters would vary with cache state.  Instead every verdict carries
the step that resolved it
(:attr:`~repro.core.geolocation.GeoVerdict.source`, a pure function of
the world) and :func:`funnel_metrics` replays the per-country verdict
sequences in canonical order, counting each address once — the exact
first-appearance rule ``merge_validation`` already uses — so the
funnel is bit-identical whether a country was scanned or served from
the cache.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.partials import CountryPartial

#: Funnel buckets, in Section 3.5 pipeline order.  ``GeoVerdict.source``
#: values map onto the middle four; excluded addresses split into the
#: conflict and unresolved tails.
FUNNEL_STEPS = ("active_probing", "hoiho", "ipmap", "single_radius")


class ScanObs:
    """Spans and metric deltas for one country's phase-1 scan.

    Single-threaded by construction (one scope per scan), so span
    nesting is a plain stack.  The scope is finished and frozen before
    it is absorbed.
    """

    def __init__(self, country: str) -> None:
        self.country = country
        self.metrics = MetricsRegistry()
        self.root = Span(name="scan", start_s=time.perf_counter(),
                         tags={"country": country})
        self._stack = [self.root]

    @contextmanager
    def span(self, name: str, **tags) -> Iterator[Span]:
        """Open a stage span nested under the current one."""
        span = self._stack[-1].child(name, **tags)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.finish()
            self._stack.pop()

    def finish(self) -> "ScanObs":
        """Close the scan span (idempotent)."""
        self.root.finish()
        return self

    @property
    def duration_s(self) -> float:
        return self.root.duration_s

    def geolocation_steps(self, step_seconds: dict[str, float],
                          step_counts: dict[str, int]) -> None:
        """Emit per-geolocation-step child spans under the current span.

        Call inside the ``geolocate`` span.  The buckets come from
        timing each ``locate`` call and attributing it to the step
        named by the verdict's ``source`` (``None`` becomes
        ``unresolved``).  Bucket spans are laid end to end from the
        geolocate span's start so the sum of their extents equals the
        measured time — readable in ``about://tracing`` without
        pretending we know each lookup's true interleaving.
        """
        geolocate = self._stack[-1]
        cursor = geolocate.start_s
        for step in (*FUNNEL_STEPS, "unresolved"):
            seconds = step_seconds.get(step, 0.0)
            count = step_counts.get(step, 0)
            if count == 0:
                continue
            span = Span(name=f"geo.{step}", start_s=cursor,
                        end_s=cursor + seconds, tags={"addresses": count})
            geolocate.children.append(span)
            cursor += seconds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ScanObs {self.country} {self.duration_s:.3f}s>"


def funnel_metrics(partials: Sequence["CountryPartial"],
                   metrics: MetricsRegistry) -> None:
    """Tally the Section 3.5 funnel from per-country verdict sequences.

    ``partials`` must be in canonical country order; each address
    counts once, at its first appearance in that traversal (the
    ``merge_validation`` rule), so the counters are cache-state-independent.
    """
    counted: set[int] = set()
    for partial in partials:
        for verdict in partial.verdicts:
            if verdict.address in counted:
                continue
            counted.add(verdict.address)
            metrics.count("geo.addresses")
            if verdict.claimed_country is not None:
                metrics.count("geo.funnel.ipinfo_claimed")
            if verdict.anycast:
                metrics.count("geo.funnel.anycast")
                if verdict.country is not None:
                    metrics.count("geo.funnel.anycast_in_country")
                continue
            source = verdict.source
            if source in FUNNEL_STEPS and not verdict.conflict:
                metrics.count(f"geo.funnel.{source}")
            if verdict.conflict:
                metrics.count("geo.funnel.conflict")
            if verdict.country is None:
                metrics.count("geo.funnel.excluded")


__all__ = ["FUNNEL_STEPS", "ScanObs", "funnel_metrics"]
