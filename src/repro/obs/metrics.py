"""Metrics: counters, gauges and histograms that merge as monoids.

Each country's scan and each concurrent gateway request records into
its own registry, so those registries must reduce to one without
caring how the work was split or in which order it finished.  The
registry therefore supports exactly the operations that commute:

* **counters** merge by summation;
* **histograms** (bucket -> count maps) merge by per-bucket summation;
* **gauges** merge by maximum — the only order-free choice for a
  "point-in-time" value; record per-shard peaks, not running levels.

Under :meth:`MetricsRegistry.merge` the registry is a commutative
monoid with the empty registry as identity — the same algebraic
contract as ``merge_footprints`` / ``merge_validation`` /
``merge_faults`` in :mod:`repro.exec.partials`, and tested the same
way (``tests/obs/test_metrics.py`` asserts the monoid laws).  That is
what makes merged metrics deterministic: every country's delta is a
pure function of its scan, and the reduction is order-independent.
"""

from __future__ import annotations

import threading
from typing import Mapping, Optional, Union

Number = Union[int, float]


class MetricsRegistry:
    """Named counters, gauges and bucketed histograms.

    Names are dotted strings (``"cache.hits"``, ``"geo.funnel.hoiho"``);
    a name lives in exactly one of the three families.  All mutators
    are cheap dict operations — safe to call on the pipeline's hot
    paths — and reads (:meth:`counter`, :meth:`gauge_value`,
    :meth:`histogram`) never create entries.
    """

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: dict[str, Number] = {}
        self._gauges: dict[str, Number] = {}
        self._histograms: dict[str, dict[Union[int, str], Number]] = {}

    # ------------------------------------------------------------ mutation

    def count(self, name: str, value: Number = 1) -> None:
        """Add ``value`` to a counter (created at 0)."""
        self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: Number) -> None:
        """Record a gauge level; merges keep the maximum observed."""
        current = self._gauges.get(name)
        if current is None or value > current:
            self._gauges[name] = value

    def observe(self, name: str, bucket: Union[int, str],
                count: Number = 1) -> None:
        """Add ``count`` to one bucket of a histogram."""
        histogram = self._histograms.setdefault(name, {})
        histogram[bucket] = histogram.get(bucket, 0) + count

    def observe_all(self, name: str,
                    buckets: Mapping[Union[int, str], Number]) -> None:
        """Fold a whole bucket->count mapping into a histogram."""
        histogram = self._histograms.setdefault(name, {})
        for bucket, count in buckets.items():
            histogram[bucket] = histogram.get(bucket, 0) + count

    # ------------------------------------------------------------- reads

    def counter(self, name: str) -> Number:
        """Current counter value (0 when never counted)."""
        return self._counters.get(name, 0)

    def gauge_value(self, name: str) -> Optional[Number]:
        """Current gauge level, or None when never recorded."""
        return self._gauges.get(name)

    def histogram(self, name: str) -> dict[Union[int, str], Number]:
        """Copy of a histogram's buckets (empty when never observed)."""
        return dict(self._histograms.get(name, {}))

    def __bool__(self) -> bool:
        return bool(self._counters or self._gauges or self._histograms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricsRegistry):
            return NotImplemented
        return (self._counters == other._counters
                and self._gauges == other._gauges
                and self._histograms == other._histograms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<MetricsRegistry {len(self._counters)} counters, "
                f"{len(self._gauges)} gauges, "
                f"{len(self._histograms)} histograms>")

    # ------------------------------------------------------------- merge

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Commutative, associative reduction; ``MetricsRegistry()`` is
        the identity.  Counters and histogram buckets sum; gauges keep
        the maximum."""
        merged = MetricsRegistry()
        for registry in (self, other):
            merged.merge_in(registry)
        return merged

    def merge_in(self, other: "MetricsRegistry") -> None:
        """In-place :meth:`merge` (the driver's absorption hot path)."""
        for name, value in other._counters.items():
            self._counters[name] = self._counters.get(name, 0) + value
        for name, value in other._gauges.items():
            self.gauge(name, value)
        for name, buckets in other._histograms.items():
            self.observe_all(name, buckets)

    def __add__(self, other: "MetricsRegistry") -> "MetricsRegistry":
        if not isinstance(other, MetricsRegistry):
            return NotImplemented
        return self.merge(other)

    # ------------------------------------------------------------ export

    def to_dict(self) -> dict:
        """JSON-serializable snapshot with canonically sorted keys.

        Histogram buckets are emitted under string keys (JSON objects
        have no integer keys); :meth:`from_dict` restores numeric ones.
        """
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
            "histograms": {
                name: {str(bucket): count
                       for bucket, count in sorted(buckets.items(),
                                                   key=lambda kv: str(kv[0]))}
                for name, buckets in sorted(self._histograms.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_dict` output."""
        registry = cls()
        registry._counters.update(data.get("counters", {}))
        registry._gauges.update(data.get("gauges", {}))
        for name, buckets in data.get("histograms", {}).items():
            registry._histograms[name] = {
                (int(bucket) if str(bucket).lstrip("-").isdigit() else bucket):
                    count
                for bucket, count in buckets.items()
            }
        return registry


class ThreadSafeMetricsRegistry(MetricsRegistry):
    """A :class:`MetricsRegistry` whose mutators and snapshots lock.

    The base class stays lock-free on purpose — pipeline shards own
    their registries exclusively and merge after the fact.  Long-lived
    shared registries (the serve layer's per-query metrics) use this
    subclass instead: every mutator, merge and snapshot read runs under
    one internal lock, so concurrent request threads never interleave a
    half-applied update or export a torn snapshot.  The algebra is
    unchanged — it is the same monoid, just fenced.
    """

    __slots__ = ("_metrics_lock",)

    def __init__(self) -> None:
        super().__init__()
        # Reentrant: the base merge_in dispatches back through the
        # overridden gauge/observe_all while the lock is already held.
        self._metrics_lock = threading.RLock()

    # Mutators --------------------------------------------------------

    def count(self, name: str, value: Number = 1) -> None:
        with self._metrics_lock:
            super().count(name, value)

    def gauge(self, name: str, value: Number) -> None:
        with self._metrics_lock:
            super().gauge(name, value)

    def observe(self, name: str, bucket: Union[int, str],
                count: Number = 1) -> None:
        with self._metrics_lock:
            super().observe(name, bucket, count)

    def observe_all(self, name: str,
                    buckets: Mapping[Union[int, str], Number]) -> None:
        with self._metrics_lock:
            super().observe_all(name, buckets)

    def merge_in(self, other: "MetricsRegistry") -> None:
        with self._metrics_lock:
            super().merge_in(other)

    # Snapshot reads --------------------------------------------------

    def counter(self, name: str) -> Number:
        with self._metrics_lock:
            return super().counter(name)

    def gauge_value(self, name: str) -> Optional[Number]:
        with self._metrics_lock:
            return super().gauge_value(name)

    def histogram(self, name: str) -> dict[Union[int, str], Number]:
        with self._metrics_lock:
            return super().histogram(name)

    def to_dict(self) -> dict:
        with self._metrics_lock:
            return super().to_dict()


def merge_metrics(registries) -> MetricsRegistry:
    """Reduce any iterable of registries with the monoid merge."""
    merged = MetricsRegistry()
    for registry in registries:
        merged.merge_in(registry)
    return merged


__all__ = ["MetricsRegistry", "ThreadSafeMetricsRegistry", "merge_metrics"]
