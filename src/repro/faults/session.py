"""Per-country fault-injection sessions.

One :class:`FaultSession` accompanies one country through phase 1 of the
pipeline.  It evaluates the plan's pure fault decisions, simulates the
retry-with-backoff policy on a virtual clock (no wall-time sleeps) and
accounts every injected fault, retry and degradation into a per-country
:class:`~repro.faults.report.FaultReport`.

Sessions are intentionally *not* shared between countries: each scan
mutates only its own session, and the per-country report is a pure
function of ``(plan, country, the country's measurement workload)`` —
the property that makes a faulted country's cached partial
bit-identical to a fresh scan of it.

Operation keys deliberately include the scanning country: each national
crawl performs its own lookups against the external services, so two
countries observing the same address can fail independently — which is
also what keeps per-country attribution independent of scan order.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any

from repro.faults.plan import FaultPlan, UNRETRYABLE_DOMAINS
from repro.faults.report import FaultReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.measure.vpn import VantagePoint, VpnCatalog


class SimClock:
    """Virtual milliseconds elapsed on retries; never sleeps."""

    def __init__(self) -> None:
        self.now_ms = 0.0

    def advance(self, ms: float) -> float:
        """Advance the clock and return the new time."""
        self.now_ms += ms
        return self.now_ms


@dataclasses.dataclass(frozen=True)
class Episode:
    """Outcome of one fault-eligible operation."""

    #: Failed attempts (0 = the operation was never faulted).
    injected: int
    #: Retries issued (attempts after the first).
    retried: int
    #: A retry succeeded after at least one failure.
    recovered: bool
    #: Every attempt failed; the caller must degrade gracefully.
    degraded: bool
    #: Simulated backoff spent between the attempts.
    backoff_ms: float

    @property
    def faulted(self) -> bool:
        return self.injected > 0


_CLEAN = Episode(injected=0, retried=0, recovered=False, degraded=False,
                 backoff_ms=0.0)


class FaultSession:
    """Fault decisions, retry simulation and accounting for one country."""

    def __init__(self, plan: FaultPlan, country: str) -> None:
        if not plan.enabled:
            raise ValueError("FaultSession requires an enabled FaultPlan")
        self.plan = plan
        self.country = country.upper()
        self.clock = SimClock()
        self.report = FaultReport()
        #: Operation key -> Episode; an operation repeated within one
        #: country (e.g. the WHOIS lookup of an address shared by two
        #: hostnames) fails once and is counted once.
        self._episodes: dict[tuple, Episode] = {}
        #: Scratch memos for the faulted measurement paths, which bypass
        #: the cross-country caches (fault outcomes are country-scoped).
        self.ping_memo: dict[tuple, Any] = {}
        self.verdict_memo: dict[int, Any] = {}
        self.ownership_memo: dict[int, Any] = {}

    # ------------------------------------------------------------ episodes

    def episode(self, domain: str, *key: object) -> Episode:
        """Run (or recall) the fault episode of one operation.

        Retryable domains attempt up to ``1 + max_retries`` times with
        exponential backoff on the virtual clock; unretryable domains
        fail outright.  The episode is memoized per operation key and
        tallied into the per-country report exactly once.
        """
        memo_key = (domain, *key)
        cached = self._episodes.get(memo_key)
        if cached is not None:
            return cached
        episode = self._run_episode(domain, (self.country, *key))
        self._episodes[memo_key] = episode
        if episode.faulted:
            tally = self.report.tally(self.country, domain)
            tally.injected += episode.injected
            tally.retried += episode.retried
            tally.recovered += 1 if episode.recovered else 0
            tally.degraded += 1 if episode.degraded else 0
            tally.backoff_ms += episode.backoff_ms
        return episode

    def _run_episode(self, domain: str, key: tuple) -> Episode:
        plan = self.plan
        retries = 0 if domain in UNRETRYABLE_DOMAINS else plan.max_retries
        injected = 0
        backoff_ms = 0.0
        for attempt in range(retries + 1):
            if not plan.attempt_fails(domain, key, attempt):
                if injected == 0:
                    return _CLEAN
                return Episode(injected=injected, retried=attempt,
                               recovered=True, degraded=False,
                               backoff_ms=backoff_ms)
            injected += 1
            if attempt < retries:
                delay = plan.backoff_base_ms * 2.0 ** attempt
                self.clock.advance(delay)
                backoff_ms += delay
        return Episode(injected=injected, retried=retries, recovered=False,
                       degraded=True, backoff_ms=backoff_ms)

    @property
    def episodes_evaluated(self) -> int:
        """Distinct fault-eligible operations this session has decided.

        A pure function of ``(plan, country, workload)`` like the report
        itself, so the observability layer may count it per country and
        still merge deterministically.  Reading it never advances the
        simulated clock or any fault decision stream.
        """
        return len(self._episodes)

    def operation_fails(self, domain: str, *key: object) -> bool:
        """True when an operation exhausts every retry and must degrade."""
        return self.episode(domain, *key).degraded

    def congestion_ms(self, *key: object) -> float:
        """Extra latency for one ping sample (0.0 when uncongested)."""
        if self.episode("congestion", *key).degraded:
            return self.plan.congestion_ms
        return 0.0

    # ------------------------------------------------------------- vantage

    def select_vantage(
        self, catalog: "VpnCatalog", code: str, rank: int = 0
    ) -> "VantagePoint":
        """Connect to the country's VPN exit, re-selecting on failure.

        A recovered episode keeps the selected exit (a reconnect
        succeeded); a degraded one falls back to the catalog's next
        alternate exit in another city of the same country — the
        measurement continues from a different vantage instead of
        crashing.  ``rank`` picks which exit the scenario connects to in
        the first place (0 = the primary capital exit).
        """
        if self.operation_fails("vpn", code.upper()):
            return catalog.fallback_vantage(code, rank)
        return catalog.vantage_at(code, rank)


__all__ = ["SimClock", "Episode", "FaultSession"]
