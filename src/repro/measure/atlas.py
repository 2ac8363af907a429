"""RIPE-Atlas-style active probing.

Section 3.5 of the paper uses up to five RIPE Atlas probes per country,
sending three pings to each candidate address and comparing the minimum
RTT against a per-country threshold derived from road distances.  The
simulated client reproduces that interface: probes are placed in the
cities of each country, pings traverse the latency model, anycast
targets answer from the probe's catchment, and unresponsive targets
time out.
"""

from __future__ import annotations

import dataclasses
import random
from typing import TYPE_CHECKING, Optional, Sequence

from repro.datagen.seeds import derive_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.session import FaultSession
from repro.netsim.fabric import ServingFabric
from repro.netsim.latency import LatencyModel
from repro.world.cities import cities_of
from repro.world.geography import haversine_km

DEFAULT_PING_COUNT = 3
DEFAULT_PROBES_PER_COUNTRY = 5


@dataclasses.dataclass(frozen=True)
class AtlasProbe:
    """A measurement probe anchored in a city."""

    probe_id: int
    country: str
    city: str
    lat: float
    lon: float


@dataclasses.dataclass(frozen=True)
class PingResult:
    """Outcome of pinging one address from one probe."""

    probe: AtlasProbe
    address: int
    rtts_ms: tuple[float, ...]

    @property
    def responded(self) -> bool:
        return bool(self.rtts_ms)

    @property
    def min_rtt_ms(self) -> Optional[float]:
        """Minimum RTT over the ping train (None on timeout)."""
        return min(self.rtts_ms) if self.rtts_ms else None


class AtlasClient:
    """Issues pings from a global probe mesh against the serving fabric."""

    def __init__(
        self,
        fabric: ServingFabric,
        latency: LatencyModel,
        country_codes: Sequence[str],
        rng: random.Random,
        probes_per_country: int = DEFAULT_PROBES_PER_COUNTRY,
    ) -> None:
        self._fabric = fabric
        self._latency = latency
        # Jitter is keyed per (probe, target) rather than drawn from a
        # shared stream: a ping train's RTTs are then a pure function of
        # the probe and address, independent of measurement order.  That
        # property is what lets a cached country's partial reproduce a
        # fresh scan bit-for-bit (repro.cache), and makes the ping memo
        # below a sound cache rather than a behavior change.
        self._seed = rng.getrandbits(64)
        self._ping_cache: dict[tuple[int, int, int], PingResult] = {}
        self._probes: dict[str, list[AtlasProbe]] = {}
        next_id = 1
        for code in country_codes:
            probes: list[AtlasProbe] = []
            cities = cities_of(code)
            for index in range(min(probes_per_country, max(len(cities), 1))):
                city = cities[index % len(cities)]
                probes.append(
                    AtlasProbe(
                        probe_id=next_id,
                        country=code,
                        city=city.name,
                        lat=city.lat,
                        lon=city.lon,
                    )
                )
                next_id += 1
            self._probes[code] = probes

    def probes_in(self, country_code: str, limit: int = DEFAULT_PROBES_PER_COUNTRY) -> list[AtlasProbe]:
        """Up to ``limit`` probes located in ``country_code`` (may be empty)."""
        return self._probes.get(country_code.upper(), [])[:limit]

    def all_probes(self) -> list[AtlasProbe]:
        """Every probe in the mesh."""
        return [probe for probes in self._probes.values() for probe in probes]

    def ping(
        self,
        probe: AtlasProbe,
        address: int,
        count: int = DEFAULT_PING_COUNT,
        faults: Optional["FaultSession"] = None,
    ) -> PingResult:
        """Send ``count`` pings from ``probe`` to ``address`` (memoized).

        With a fault session, the ping train is subject to injected
        probe timeouts (retried with simulated backoff; exhausting the
        retries times the train out) and congestion spikes on individual
        samples.  Faulted results are memoized on the session — fault
        outcomes are scoped to the scanning country — while the shared
        cache keeps serving the fault-free path untouched.
        """
        key = (probe.probe_id, address, count)
        if faults is None:
            cached = self._ping_cache.get(key)
        else:
            cached = faults.ping_memo.get(key)
        if cached is not None:
            return cached
        if faults is not None and faults.operation_fails(
            "probe", probe.probe_id, address
        ):
            # The probe never got an answer back: indistinguishable from
            # an unresponsive target, so downstream geolocation degrades
            # through the same None-RTT handling it already has.
            result = PingResult(probe=probe, address=address, rtts_ms=())
        elif not self._fabric.responds_to_ping(address):
            result = PingResult(probe=probe, address=address, rtts_ms=())
        else:
            site = self._fabric.server_site(address, probe.lat, probe.lon)
            distance = haversine_km(probe.lat, probe.lon, site.lat, site.lon)
            rng = random.Random(
                derive_seed(self._seed, "ping", probe.probe_id, address)
            )
            rtts = tuple(
                self._latency.rtt_for_distance(
                    distance,
                    rng,
                    extra_ms=(
                        faults.congestion_ms(probe.probe_id, address, sample)
                        if faults is not None
                        else 0.0
                    ),
                )
                for sample in range(count)
            )
            result = PingResult(probe=probe, address=address, rtts_ms=rtts)
        if faults is None:
            self._ping_cache[key] = result
        else:
            faults.ping_memo[key] = result
        return result

    def min_rtt_from_country(
        self,
        country_code: str,
        address: int,
        probe_limit: int = DEFAULT_PROBES_PER_COUNTRY,
        count: int = DEFAULT_PING_COUNT,
        faults: Optional["FaultSession"] = None,
    ) -> Optional[float]:
        """Minimum RTT to ``address`` over all probes of a country.

        Returns None when the country has no probes or the target never
        responds.
        """
        best: Optional[float] = None
        for probe in self.probes_in(country_code, probe_limit):
            result = self.ping(probe, address, count, faults=faults)
            if result.min_rtt_ms is None:
                continue
            if best is None or result.min_rtt_ms < best:
                best = result.min_rtt_ms
        return best

    def nearest_probe_rtt(
        self,
        address: int,
        count: int = DEFAULT_PING_COUNT,
        faults: Optional["FaultSession"] = None,
    ) -> Optional[PingResult]:
        """Single-radius helper: the probe with the smallest RTT to ``address``.

        Used by the final multistage-geolocation fallback (Section 3.5,
        step 4): the target is placed near the probe with the minimum
        latency.
        """
        best: Optional[PingResult] = None
        for probe in self.all_probes():
            result = self.ping(probe, address, count, faults=faults)
            if result.min_rtt_ms is None:
                continue
            if best is None or result.min_rtt_ms < (best.min_rtt_ms or float("inf")):
                best = result
        return best


__all__ = [
    "DEFAULT_PING_COUNT",
    "DEFAULT_PROBES_PER_COUNTRY",
    "AtlasProbe",
    "PingResult",
    "AtlasClient",
]
